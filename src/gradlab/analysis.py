"""Post-hoc diagnostics on flow traces: Lojasiewicz exponent fits,
convergence-rate classification, critical-point taxonomy, and the decay fit
of the kernel floor against parameter distance.

All fits are ordinary least squares on log-log (or log-linear) pairs over a
loss window, followed where needed by an inequality-verification pass; they
return ``None`` when the trace does not support a conclusive fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import architectures as arch_mod
from . import problems as prob_mod
from . import spaces
from .architectures import ArchitectureSpec, ParamVector
from .errors import ConfigurationError
from .flows import FlowTrace
from .problems import Problem
from .spaces import Field, SobolevOrder

# Loss window for tail fits: far enough above float noise, close enough to
# the limit for the local exponent to bind.
FIT_WINDOW = (1e-12, 1e-2)
MIN_FIT_POINTS = 20
MIN_RATE_POINTS = 50


def _r_squared(y: np.ndarray, y_fit: np.ndarray) -> float:
    ss_res = float(np.sum((y - y_fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= 0:
        return 0.0
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class LojasiewiczEstimate:
    """Fitted exponent/constant of |loss - target|^alpha <= C * |grad|."""

    alpha_hat: float
    c_hat: float
    fit_window: tuple[float, float]
    fit_quality: float
    n_points: int
    self_referenced: bool = False


def default_loss_target(trace: FlowTrace) -> tuple[float, bool]:
    """Loss target for fits: zero when the problem carries a known solution
    (manufactured losses vanish there), else the terminal loss shifted just
    below itself, flagged as self-referenced."""
    if trace.model_error is not None:
        return 0.0, False
    terminal = float(trace.loss[-1])
    return terminal - 1e-12 * max(1.0, abs(terminal)), True


def estimate_lojasiewicz(
    trace: FlowTrace, loss_target: float | None = None
) -> LojasiewiczEstimate | None:
    """Fit log|grad| = alpha * log(loss - target) - log C over the tail.

    Inconclusive (``None``) when fewer than ``MIN_FIT_POINTS`` samples fall
    in the window or the fit quality is below 0.9.  With a self-referenced
    target the last decade of loss approach is excluded, since the target
    estimate biases it.
    """
    self_ref = False
    if loss_target is None:
        loss_target, self_ref = default_loss_target(trace)
    gap = trace.loss - loss_target
    mask = (gap >= FIT_WINDOW[0]) & (gap <= FIT_WINDOW[1]) & (trace.grad_norm > 0)
    if self_ref:
        floor = max(FIT_WINDOW[0], 10.0 * np.min(gap[gap > 0], initial=FIT_WINDOW[0]))
        mask &= gap >= floor
    n = int(mask.sum())
    if n < MIN_FIT_POINTS:
        return None
    x = np.log(gap[mask])
    y = np.log(trace.grad_norm[mask])
    slope, intercept = np.polyfit(x, y, 1)
    quality = _r_squared(y, slope * x + intercept)
    if quality < 0.9:
        return None
    return LojasiewiczEstimate(
        alpha_hat=float(slope),
        c_hat=float(np.exp(-intercept)),
        fit_window=(float(np.exp(x.min())), float(np.exp(x.max()))),
        fit_quality=quality,
        n_points=n,
        self_referenced=self_ref,
    )


@dataclass(frozen=True)
class RateClassification:
    """Tail decay law of a converging flow, in distance units.

    ``kind`` is "exponential" or "polynomial".  ``rate`` is the distance
    decay rate c for exp(-c t); ``exponent`` the distance exponent p for
    t**-p.  ``predicted_alpha`` back-solves the rate law: exponential means
    alpha* = 1/2, polynomial means alpha* = (1 + p) / (1 + 2 p).
    """

    kind: str
    rate: float | None
    exponent: float | None
    predicted_alpha: float
    fit_quality: float
    margin: float


def classify_rate(
    trace: FlowTrace, loss_target: float, quality_margin: float = 0.02
) -> RateClassification | None:
    """Decide between exponential and power-law tail decay.

    Both models are fitted to the loss gap over the fit window; the better
    R-squared wins if it leads by ``quality_margin``, otherwise the trace is
    inconclusive (``None``).  Near the limit the loss gap scales as
    distance**(1/(1-alpha)), so loss-units fits convert to distance units:
    exponential rates halve, power-law loss exponents map via
    p_dist = (p_loss - 1) / 2.
    """
    gap = trace.loss - loss_target
    mask = (gap >= FIT_WINDOW[0]) & (gap <= FIT_WINDOW[1]) & (trace.t > 0)
    n = int(mask.sum())
    if n < MIN_RATE_POINTS:
        return None
    t = trace.t[mask]
    y = np.log(gap[mask])
    # exponential: log gap ~ a - c t ; polynomial: log gap ~ b - p log t
    c_slope, c_int = np.polyfit(t, y, 1)
    q_exp = _r_squared(y, c_slope * t + c_int)
    p_slope, p_int = np.polyfit(np.log(t), y, 1)
    q_poly = _r_squared(y, p_slope * np.log(t) + p_int)
    margin = abs(q_exp - q_poly)
    if margin < quality_margin or max(q_exp, q_poly) < 0.9:
        return None
    if q_exp > q_poly:
        loss_rate = -float(c_slope)
        if loss_rate <= 0:
            return None
        return RateClassification(
            kind="exponential",
            rate=loss_rate / 2.0,
            exponent=None,
            predicted_alpha=0.5,
            fit_quality=q_exp,
            margin=margin,
        )
    loss_exp = -float(p_slope)
    if loss_exp <= 1.0:
        return None
    dist_exp = (loss_exp - 1.0) / 2.0
    return RateClassification(
        kind="polynomial",
        rate=None,
        exponent=dist_exp,
        predicted_alpha=(1.0 + dist_exp) / (1.0 + 2.0 * dist_exp),
        fit_quality=q_poly,
        margin=margin,
    )


@dataclass(frozen=True)
class CriticalPointTolerances:
    critical_grad: float = 1e-6  # |param gradient| below which w* is critical
    solution_grad: float = 1e-8  # field-gradient norm for the solution case
    gram_floor: float = 1e-10  # max |gram entry| for the degenerate case
    kernel_residual: float = 1e-4  # |K grad| / (|K| |grad|) for orthogonality


@dataclass(frozen=True)
class CriticalPointReport:
    """Which equilibrium signature a stalled parameter vector matches.

    Cases: ``at_solution`` (the field gradient itself vanishes),
    ``degenerate_gram`` (the whole tangent Gram matrix vanishes),
    ``orthogonal_kernel`` (the field gradient lies in the kernel of the
    tangent operator), ``mixed`` (several fire), ``none``.
    """

    case: str
    param_grad_norm: float
    field_grad_norm: float
    gram_max_entry: float
    kernel_residual: float | None


def classify_critical_point(
    p: Problem,
    a: ArchitectureSpec,
    w_star: ParamVector,
    tolerances: CriticalPointTolerances = CriticalPointTolerances(),
) -> CriticalPointReport:
    """Classify a candidate equilibrium of the parametric flow."""
    model, jac = arch_mod.model_and_jacobian(a, w_star)
    ev = prob_mod.nominal_loss(p, Field(model, a.target_basis))
    field_grad_norm = spaces.norm(ev.gradient, p.gradient_metric)
    mw = spaces._metric_weights(p.basis, SobolevOrder.L2)
    param_grad = jac @ (mw * spaces.metric_flat(ev.gradient, p.gradient_metric).coeffs)
    param_grad_norm = float(np.linalg.norm(param_grad))
    diag = arch_mod.tangent_gram(jac, a.target_basis, p.gradient_metric)
    gram_max = float(np.max(np.abs(diag.gram)))

    kernel_residual = None
    gram_norm = float(diag.eigenvalues[-1])
    if gram_norm > 0 and field_grad_norm > 0:
        kg = arch_mod.kernel_apply(jac, ev.gradient, p.gradient_metric)
        kernel_residual = spaces.norm(kg, p.gradient_metric) / (gram_norm * field_grad_norm)

    fired = []
    if param_grad_norm < tolerances.critical_grad:
        if field_grad_norm < tolerances.solution_grad:
            fired.append("at_solution")
        if gram_max < tolerances.gram_floor:
            fired.append("degenerate_gram")
        orthogonal = kernel_residual is not None and kernel_residual < tolerances.kernel_residual
        if not fired and orthogonal:
            fired.append("orthogonal_kernel")
    case = "none" if not fired else fired[0] if len(fired) == 1 else "mixed"
    return CriticalPointReport(case, param_grad_norm, field_grad_norm, gram_max, kernel_residual)


@dataclass(frozen=True)
class KernelDecayFit:
    """Decay law of the kernel floor near a degenerate limit point.

    Fits min_nonzero_eig ~ |w - w*|**r on the trace tail; when the floor
    stays bounded away from zero, r_hat = 0 and the loss exponent is
    inherited unchanged.  ``predicted_alpha_star = (alpha + r) / (1 + r)``
    for the externally supplied alpha.
    """

    r_hat: float
    predicted_alpha_star: float
    fit_quality: float
    envelope_fraction: float
    n_points: int


def fit_kernel_decay(
    traces: FlowTrace | list[FlowTrace],
    w_star: ParamVector,
    alpha: float,
    mu_floor: float = 1e-6,
) -> KernelDecayFit:
    """Fit the kernel-floor decay exponent along one or more traces.

    OLS on log(min_nonzero_eig) against log|w - w*|, restricted to the tail
    where the floor has decayed below a tenth of its peak, then an
    inequality-verification pass: the constant c of eig >= c * dist**r_hat
    is the median of eig / dist**r_hat over the far half of the tail (the
    points farther from w* than the median distance), and
    ``envelope_fraction`` is the share of the near half that satisfies the
    inequality within a factor 0.9.  A law that steepens near w* fails it;
    a constant taken from the counted points themselves would pass any
    data.
    """
    if isinstance(traces, FlowTrace):
        traces = [traces]
    dists, mus = [], []
    for tr in traces:
        if tr.params is None or tr.min_nonzero_eig is None:
            raise ConfigurationError(
                "kernel decay fit needs parameter snapshots and kernel diagnostics"
            )
        d = np.linalg.norm(tr.params - w_star.values[None, :], axis=1)
        mu = tr.min_nonzero_eig
        keep = np.isfinite(mu) & (mu > 0) & (d > 0)
        dists.append(d[keep])
        mus.append(mu[keep])
    d = np.concatenate(dists)
    mu = np.concatenate(mus)
    if d.size == 0:
        return KernelDecayFit(0.0, alpha, 0.0, 0.0, 0)
    tail = mu <= 0.1 * float(np.max(mu))
    if float(np.min(mu[tail], initial=np.inf)) > mu_floor or int(tail.sum()) < MIN_FIT_POINTS:
        # kernel floor stays open: exponent inherited unchanged
        return KernelDecayFit(0.0, alpha, 1.0, 1.0, int(tail.sum()))
    x = np.log(d[tail])
    y = np.log(mu[tail])
    slope, intercept = np.polyfit(x, y, 1)
    quality = _r_squared(y, slope * x + intercept)
    r_hat = float(max(slope, 0.0))
    # constant from the far half, inequality checked on the near half; the
    # 0.9 factor absorbs the few-percent eigensolver noise of floors within
    # a few eps * lambda_max of zero, while under a law steeper than r_hat
    # the ratio eig / dist**r_hat keeps shrinking towards w*
    resid = y - r_hat * x
    near = x < np.median(x)
    c_far = float(np.median(resid[~near]))
    ok = resid[near] >= c_far + np.log(0.9)
    satisfied = float(np.mean(ok)) if ok.size else 0.0
    return KernelDecayFit(
        r_hat=r_hat,
        predicted_alpha_star=(alpha + r_hat) / (1.0 + r_hat),
        fit_quality=quality,
        envelope_fraction=satisfied,
        n_points=int(tail.sum()),
    )
