"""Time integrators for the descent flows, with trace recording.

Three flows are provided:

* ``integrate_nominal``     -- d/dt g = -grad L[g] on the target space.
* ``integrate_parametric``  -- d/dt w = -grad of (L composed with the
  architecture), the M-dimensional pullback system.
* ``integrate_annealed``    -- the parametric system plus annealed Gaussian
  noise, alpha(t) = sqrt(c / log(2 + t)), integrated by fixed-step
  Euler-Maruyama and fully reproducible from the seed.

Deterministic flows ride scipy's LSODA stepper, which switches between
Adams and BDF formulas when it detects stiffness (Petzold 1983).  The
parametric NPBE pullback is stiff (``-lap`` makes an explicit step scale
like ``n**-3``).  A nominal flow is not stiff while the target is resolved
by a few modes, but is once the target's coefficients have a tail: the 3-D
NPBE flow to ``phi = 0:0.3, 1:0.6, 2:0.25`` takes 327 right-hand sides at
n=17 and 31,579 (2 Jacobians) at n=25.  LSODA matches or beats a fixed
choice on both kinds, so there is no solver option.  Sampling, stall
detection, and termination are handled here on the recorded sample grid.
Traces carry deterministic work counters and are immutable once terminal
and safe to analyze concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.integrate import LSODA

from . import architectures as arch_mod
from . import problems as prob_mod
from . import spaces
from .architectures import ArchitectureSpec, ParamVector
from .errors import ConfigurationError, DivergenceError
from .problems import Problem
from .spaces import Field, SobolevOrder

TERMINAL_REASONS = ("grad_stop", "stall", "t_end", "divergence")
# a recorded loss above this counts as divergence
LOSS_CAP = 1e60


_BOUNDS = {
    "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
    "even and >= 2": lambda v: v >= 2 and v % 2 == 0,
}


def _check_fields(settings, bounds: dict[str, tuple[str, ...]]) -> None:
    """Reject a settings dataclass with a non-finite number (tuples checked
    entrywise) or a field that breaks the bound it is listed under; the
    message begins with the field name, and ``None`` passes."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        bound = next((b for b, names in bounds.items() if f.name in names), None)
        if value is None:
            continue
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise ConfigurationError(f"{f.name} must be finite, got {value}")
        if bound is not None and not _BOUNDS[bound](value):
            raise ConfigurationError(f"{f.name} must be {bound}, got {value}")


@dataclass(frozen=True)
class FlowConfig:
    """Integration horizon, tolerances, and termination thresholds.

    ``stall_rel_change`` bounds the relative loss decrease over a window of
    ``stall_window`` recorded samples; a flow whose loss has flattened while
    the gradient is still above ``grad_stop`` is declared stalled.  A second
    stall signature fires when the gradient drops below ``stall_grad_level``
    while the loss sits above ``stall_loss_floor`` (an equilibrium that is
    not a solution).  ``anneal_c`` and ``noise_beta`` only matter for the
    annealed flow, as does ``sde_step``.
    """

    t_end: float = 10.0
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    grad_stop: float = 1e-10
    stall_window: int = 50
    stall_rel_change: float = 1e-10
    stall_grad_level: float = 1e-8
    stall_loss_floor: float = 1e-10
    record_every: float | None = None
    seed: int = 0
    anneal_c: float = 2.0
    noise_beta: float = 0.0
    sde_step: float = 1e-3
    record_params: bool = True
    max_steps: int = 500_000

    def __post_init__(self):
        _check_fields(self, {
            "> 0": ("t_end", "rel_tol", "abs_tol", "sde_step", "record_every"),
            ">= 0": ("grad_stop", "stall_rel_change", "stall_grad_level", "stall_loss_floor",
                     "anneal_c", "noise_beta", "seed"),
            ">= 1": ("stall_window", "max_steps"),
        })

    @property
    def sample_interval(self) -> float:
        return self.record_every if self.record_every is not None else self.t_end / 500.0


@dataclass(frozen=True)
class FlowEvent:
    t: float
    kind: str  # stall | clamp | expand | prune | stop
    detail: str = ""


@dataclass(frozen=True)
class FlowTrace:
    """Samples, events, and the terminal state of one flow run.

    Sample columns are parallel arrays; ``min_nonzero_eig`` and
    ``model_error`` are present only where meaningful (parametric flows,
    problems with a known solution).  ``params`` stacks parameter snapshots
    row per sample when recorded.  ``counters`` holds the run's work:
    ``rhs_evals``, ``jac_evals`` and ``steps`` for deterministic flows,
    ``em_steps`` for the annealed flow.
    """

    kind: str  # nominal | parametric | annealed
    t: np.ndarray
    loss: np.ndarray
    grad_norm: np.ndarray
    terminal_reason: str
    terminal_state: object
    config: FlowConfig
    min_nonzero_eig: np.ndarray | None = None
    model_error: np.ndarray | None = None
    params: np.ndarray | None = None
    events: tuple[FlowEvent, ...] = ()
    counters: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.terminal_reason not in TERMINAL_REASONS:
            raise ConfigurationError(f"unknown terminal reason {self.terminal_reason}")
        if np.any(np.diff(self.t) <= 0):
            raise ConfigurationError("sample times must be strictly increasing")
        if not np.all(np.isfinite(self.loss)):
            raise ConfigurationError("recorded losses must be finite")

    @property
    def n_samples(self) -> int:
        return self.t.size

    @property
    def deterministic(self) -> bool:
        return self.kind != "annealed"


# ---------------------------------------------------------------------------
# Objectives: fast value/gradient closures over (problem, architecture)
# ---------------------------------------------------------------------------


def _curve_scalar_closure(arch: ArchitectureSpec, phi: np.ndarray):
    """Loss and derivative of a 1-parameter curve on a tiny Euclidean target
    in Python floats only (a leaked ``np.float64`` slows the Euler-Maruyama
    loop about 2.7x).

    Traces depend on its exact IEEE operations, in this order: for each
    component j, Horner from ``q_j = dq_j = 0.0`` over the coefficients c
    from the highest, ``dq_j = dq_j*w + q_j; q_j = q_j*w + c``; then for
    each target entry k, ``r_k = (offset - phi)_k`` and ``dr_k = 0.0``,
    ``r_k += q_j*b_jk; dr_k += dq_j*b_jk`` over j, and ``loss += r_k*r_k;
    deriv += r_k*dr_k`` from ``0.0``; it returns ``(0.5*loss, deriv)``.
    The structure never changes during a run, so the function is generated
    once as straight-line source: an interpreted loop over the structure
    took 1.9 us a call on the double well, the generated code 0.7 us.  The
    numbers are ``repr`` literals, which round-trip exactly (``inf`` where
    ``offset - phi`` overflows), and no term is dropped or simplified, not
    even ``*1.0``, ``*0.0`` or ``+0.0``: under an infinite ``w`` or a
    signed zero the last two are not identities."""
    comps, offset = arch.structure
    lines = ["def value_and_deriv(w):"]
    for j, (poly, _) in enumerate(comps):
        lines.append(f"    q{j} = 0.0; dq{j} = 0.0")
        for c in reversed(poly):
            lines.append(f"    dq{j} = dq{j} * w + q{j}; q{j} = q{j} * w + {c!r}")
    lines.append("    loss = 0.0; deriv = 0.0")
    with np.errstate(over="ignore"):
        offsets = (offset.coeffs - phi).tolist()
    for k, off in enumerate(offsets):
        lines.append(f"    rk = {off!r}; drk = 0.0")
        for j, (_, b) in enumerate(comps):
            bjk = float(b.coeffs[k])
            lines.append(f"    rk += q{j} * {bjk!r}; drk += dq{j} * {bjk!r}")
        lines.append("    loss += rk * rk; deriv += rk * drk")
    lines.append("    return 0.5 * loss, deriv")
    namespace = {"inf": math.inf, "nan": math.nan}
    exec("\n".join(lines), namespace)
    return namespace["value_and_deriv"]


def _l2_distance(coeffs: np.ndarray, phi: np.ndarray | None, l2w: np.ndarray) -> float | None:
    """L2 distance from ``coeffs`` to the known solution ``phi`` (``None``
    when there is none), under the L2 weights ``l2w``."""
    if phi is None:
        return None
    d = coeffs - phi
    return float(np.sqrt(np.dot(l2w * d, d)))


class ParametricObjective:
    """Loss, Euclidean gradient, and diagnostics of w -> L[model(w)].

    The loss goes through the problem's coefficient kernel
    ``compiled_loss``.  The gradient components are the L2 pairings of the
    Jacobian rows with the kernel's L2 representative of DL, which is the
    chain rule regardless of the problem's gradient metric; the metric
    still governs the recorded kernel diagnostics.
    """

    def __init__(self, problem: Problem, arch: ArchitectureSpec):
        if arch.target_basis != problem.basis:
            raise ConfigurationError("architecture and problem bases differ")
        self.problem = problem
        self.basis = problem.basis
        self._l2w = spaces._metric_weights(self.basis, SobolevOrder.L2)
        self._phi = (
            problem.known_solution.coeffs if problem.known_solution is not None else None
        )
        self._rows = arch_mod.compile_model_jac(arch)
        self._scalar = None
        if (
            problem.loss_kind == "quadratic-distance"
            and arch.kind == "curve"
            and self.basis.size <= 8
            and np.allclose(self._l2w, 1.0)
        ):
            self._scalar = _curve_scalar_closure(arch, self._phi)

    def value_and_grad(self, values: np.ndarray | float):
        """Returns (loss, gradient vector, clamped flag).  Under the scalar
        closure a Python ``float`` state gets a ``float`` gradient."""
        if self._scalar is not None:
            if isinstance(values, float):
                return (*self._scalar(values), False)
            loss, dg = self._scalar(float(values[0]))
            return loss, np.array([dg]), False
        model, jac = self._rows(values)
        loss, dl, clamped = self.problem.compiled_loss(model)
        return loss, jac @ (self._l2w * dl), clamped

    def sample(self, values: np.ndarray):
        """The recorded sample at ``values``: (loss, gradient norm, extras).
        One model evaluation gives the kernel floor and the model error.
        An overflow here is reported by the trace as divergence, not by numpy."""
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grad, clamped = self.value_and_grad(values)
            model, jac = self._rows(values)
            diag = arch_mod.tangent_gram(jac, self.basis, self.problem.gradient_metric)
            extras = {
                "mu": diag.min_nonzero_eig,
                "model_error": _l2_distance(model, self._phi, self._l2w),
                "clamped": clamped,
                "params": values,
            }
            return loss, float(np.linalg.norm(grad)), extras


class NominalObjective:
    """Loss, metric gradient, and diagnostics of the flow directly on the
    target space, through the two methods of ``ParametricObjective``."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self.basis = problem.basis
        self._phi = (
            problem.known_solution.coeffs if problem.known_solution is not None else None
        )
        self._l2w = spaces._metric_weights(self.basis, SobolevOrder.L2)

    def value_and_grad(self, coeffs: np.ndarray):
        """Returns (loss, gradient coeffs in the problem metric, clamped flag)."""
        ev = prob_mod.nominal_loss(self.problem, Field(coeffs, self.basis))
        return ev.value, ev.gradient.coeffs, ev.clamped

    def sample(self, coeffs: np.ndarray):
        """The recorded sample at ``coeffs``: (loss, gradient norm in the
        problem metric, extras).  Only samples take the norm."""
        loss, grad, clamped = self.value_and_grad(coeffs)
        grad_norm = spaces.norm(Field(grad, self.basis), self.problem.gradient_metric)
        extras = {"model_error": _l2_distance(coeffs, self._phi, self._l2w), "clamped": clamped}
        return loss, grad_norm, extras


# ---------------------------------------------------------------------------
# Shared recording machinery
# ---------------------------------------------------------------------------


class _TraceBuilder:
    """The columns of one run; a sample is (loss, grad_norm, extras).  The
    extras of the first sample decide which optional columns exist, and
    parameters are kept only under ``cfg.record_params``."""

    def __init__(self, kind: str, cfg: FlowConfig, extras: dict):
        self.kind = kind
        self.cfg = cfg
        self.t: list[float] = []
        self.loss: list[float] = []
        self.grad: list[float] = []
        self.mu: list[float] | None = [] if "mu" in extras else None
        self.err: list[float] | None = [] if extras.get("model_error") is not None else None
        self.params: list[np.ndarray] | None = (
            [] if cfg.record_params and "params" in extras else None
        )
        self.events: list[FlowEvent] = []
        self.clamp_active = False

    @classmethod
    def start(cls, kind: str, cfg: FlowConfig, eval_sample, y0) -> "_TraceBuilder":
        """A builder holding the initial sample of ``y0``."""
        try:
            # a non-finite start is reported as such, so numpy need not warn of it
            with np.errstate(over="ignore", invalid="ignore"):
                sample = eval_sample(np.asarray(y0, dtype=np.float64))
            builder = cls(kind, cfg, sample[2])
            builder.record(0.0, sample)
        except DivergenceError:
            raise ConfigurationError("initial state already has non-finite loss")
        return builder

    def record(self, t, sample):
        """Append a sample; a non-finite or capped loss is a divergence."""
        loss, grad_norm, extras = sample
        if not np.isfinite(loss) or loss > LOSS_CAP:
            raise DivergenceError("loss diverged")
        mu, model_error = extras.get("mu"), extras.get("model_error")
        clamped = extras.get("clamped", False)
        self.t.append(float(t))
        self.loss.append(float(loss))
        self.grad.append(float(grad_norm))
        if self.mu is not None:
            self.mu.append(float(mu))
        if self.err is not None:
            self.err.append(float(model_error))
        if self.params is not None:
            self.params.append(np.array(extras["params"], dtype=np.float64))
        if clamped != self.clamp_active:
            self.clamp_active = clamped
            word = "entered" if clamped else "left"
            self.events.append(FlowEvent(float(t), "clamp", f"{word} clamp region"))

    def stalled(self) -> str | None:
        cfg = self.cfg
        i = len(self.t) - 1
        if self.grad[i] < cfg.stall_grad_level and self.loss[i] > cfg.stall_loss_floor:
            return (
                f"gradient {self.grad[i]:.3e} below {cfg.stall_grad_level:.1e} "
                f"with loss {self.loss[i]:.3e}"
            )
        if i >= cfg.stall_window:
            then = self.loss[i - cfg.stall_window]
            rel = (then - self.loss[i]) / max(abs(then), 1e-300)
            if rel < cfg.stall_rel_change and self.grad[i] >= cfg.grad_stop:
                return (
                    f"relative loss change {rel:.3e} over {cfg.stall_window} samples"
                )
        return None

    def finish(
        self, reason: str, terminal_state, detail: str = "", counters=None
    ) -> FlowTrace:
        self.events.append(FlowEvent(self.t[-1], "stop", detail or reason))
        return FlowTrace(
            kind=self.kind,
            t=np.array(self.t),
            loss=np.array(self.loss),
            grad_norm=np.array(self.grad),
            min_nonzero_eig=np.array(self.mu) if self.mu is not None else None,
            model_error=np.array(self.err) if self.err is not None else None,
            params=np.stack(self.params) if self.params else None,
            events=tuple(self.events),
            terminal_reason=reason,
            terminal_state=terminal_state,
            config=self.cfg,
            counters=counters or {},
        )


def _run_deterministic(kind, obj, y0, cfg, make_state):
    """Drive scipy LSODA over y' = -grad of the objective ``obj``,
    recording on a fixed grid.

    LSODA starts with Adams formulas and moves to BDF with a
    finite-difference Jacobian once it detects stiffness, so stiff
    pullbacks and non-stiff nominal flows share this one driver.  The
    drift is ``obj.value_and_grad``, called at every integrator stage and
    Jacobian column; ``obj.sample(y) -> (loss, grad_norm, extras)`` adds
    the per-sample diagnostics and is only called on the recording grid.
    ``make_state`` wraps the terminal state.
    """

    stepper = None
    n_steps = 0

    def rhs(t, y):
        return -obj.value_and_grad(y)[1]

    def finish(reason, y, detail=""):
        counters = {"rhs_evals": 0, "jac_evals": 0, "steps": n_steps}
        if stepper is not None:
            counters["rhs_evals"] = int(stepper.nfev)
            counters["jac_evals"] = int(stepper.njev)
        return builder.finish(reason, make_state(y), detail, counters)

    builder = _TraceBuilder.start(kind, cfg, obj.sample, y0)
    if builder.grad[0] < cfg.grad_stop:
        return finish("grad_stop", np.asarray(y0))

    dt = cfg.sample_interval
    stepper = LSODA(
        rhs,
        0.0,
        np.asarray(y0, dtype=np.float64),
        t_bound=cfg.t_end,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
    )
    next_t = dt
    with warnings.catch_warnings():
        # LSODA reports a failed step by a UserWarning: put it in the trace
        warnings.filterwarnings("error", message="lsoda: ", category=UserWarning)
        while stepper.status == "running":
            y_prev = stepper.y
            try:
                stepper.step()
            except (DivergenceError, FloatingPointError, OverflowError):
                return finish("divergence", stepper.y, "rhs diverged")
            except UserWarning as exc:
                return finish("divergence", stepper.y, f"integrator step failure: {exc}")
            if stepper.status == "failed":
                return finish("divergence", stepper.y, "integrator step failure")
            if not np.all(np.isfinite(stepper.y)):
                return finish("divergence", y_prev, "non-finite state")
            n_steps += 1
            dense = stepper.dense_output()
            while next_t <= stepper.t + 1e-12 * max(1.0, abs(stepper.t)):
                ts = min(next_t, stepper.t)
                ys = dense(ts)
                try:
                    sample = obj.sample(ys)
                    builder.record(ts, sample)
                except DivergenceError:
                    return finish("divergence", ys, "loss diverged")
                if sample[1] < cfg.grad_stop:
                    return finish("grad_stop", ys)
                stall = builder.stalled()
                if stall is not None:
                    builder.events.append(FlowEvent(ts, "stall", stall))
                    return finish("stall", ys, stall)
                next_t += dt
            if n_steps >= cfg.max_steps:
                return finish(
                    "divergence",
                    stepper.y,
                    f"step budget exhausted at t={stepper.t:.3e} (h={stepper.step_size:.1e})",
                )
    # clean t_end arrival: record the final point if the grid missed it
    if builder.t[-1] < cfg.t_end - 1e-12 * cfg.t_end:
        try:
            builder.record(cfg.t_end, obj.sample(stepper.y))
        except DivergenceError:
            return finish("divergence", stepper.y, "loss diverged")
    return finish("t_end", stepper.y)


# ---------------------------------------------------------------------------
# Public integrators
# ---------------------------------------------------------------------------


def integrate_nominal(p: Problem, g0: Field, cfg: FlowConfig) -> FlowTrace:
    """Descend the loss directly on the target space from g0."""
    if g0.basis != p.basis:
        raise ConfigurationError("initial field is not on the problem basis")

    def make_state(y):
        return Field(np.where(np.isfinite(y), y, 0.0), p.basis, p.gradient_metric)

    return _run_deterministic("nominal", NominalObjective(p), g0.coeffs, cfg, make_state)


def integrate_parametric(
    p: Problem, a: ArchitectureSpec, w0: ParamVector, cfg: FlowConfig
) -> FlowTrace:
    """Descend the parametric loss from w0; records kernel diagnostics."""

    def make_state(y):
        return ParamVector(np.where(np.isfinite(y), y, 0.0), level=w0.level)

    return _run_deterministic("parametric", ParametricObjective(p, a), w0.values, cfg, make_state)


def integrate_annealed(
    p: Problem, a: ArchitectureSpec, w0: ParamVector, cfg: FlowConfig
) -> FlowTrace:
    """Fixed-step Euler-Maruyama with the logarithmic annealing envelope.

    Noise scale per step is alpha(t) * beta * sqrt(h) with
    alpha(t) = sqrt(c / log(2 + t)).  Bit-identical traces for a fixed
    seed; beta = 0 degenerates to plain Euler descent.  When h does not
    divide t_end, a last step of length t_end - (n-1)*h, with its drift and
    noise scaled to that length, ends the run on t_end.  Under the scalar
    closure the state is a Python ``float`` (an array only where a sample
    is recorded), else an array; both run the same IEEE operations.
    """
    obj = ParametricObjective(p, a)
    h = cfg.sde_step
    n_steps = int(np.ceil(cfg.t_end / h))
    if (n_steps - 1) * h >= cfg.t_end:  # the quotient rounded up past an integer
        n_steps -= 1
    full = n_steps if n_steps * h == cfg.t_end else n_steps - 1  # steps of length h
    record_stride = max(1, int(round(cfg.sample_interval / h)))
    rng = np.random.default_rng(cfg.seed)
    if obj._scalar is not None:
        y = float(w0.values[0])
        as_array = lambda v: np.array([v])  # noqa: E731
        rows = lambda chunk: chunk.ravel().tolist()  # noqa: E731
    else:
        y = w0.values.copy()
        as_array = rows = lambda v: v  # noqa: E731

    def draws():
        while True:
            yield from rows(rng.standard_normal((8192, w0.size)))

    def finish(reason, values, detail=""):
        return builder.finish(reason, ParamVector(values, w0.level), detail, {"em_steps": done})

    noise = draws()
    done, state = 0, as_array(y)
    builder = _TraceBuilder.start("annealed", cfg, obj.sample, state)
    beta = cfg.noise_beta
    beta_sqrt_h = beta * math.sqrt(h)
    c_anneal = cfg.anneal_c
    for start in range(0, n_steps, record_stride):  # one block per sample
        done = min(start + record_stride, n_steps)
        for step in range(start, min(done, full)):
            _, grad, _ = obj.value_and_grad(y)
            if beta > 0.0:
                scale = beta_sqrt_h * math.sqrt(c_anneal / math.log(2.0 + step * h))
                y = y - h * grad + scale * next(noise)
            else:
                y = y - h * grad
        if done > full:  # the short last step, drift and noise scaled to its length
            dt = cfg.t_end - full * h
            y = y - dt * obj.value_and_grad(y)[1]
            if beta > 0.0:
                scale = beta * math.sqrt(dt) * math.sqrt(c_anneal / math.log(2.0 + full * h))
                y = y + scale * next(noise)
        state = as_array(y)
        if not np.all(np.isfinite(state)):
            return finish("divergence", np.zeros(w0.size), "non-finite state")
        try:
            builder.record(cfg.t_end if done == n_steps else done * h, obj.sample(state))
        except DivergenceError:
            return finish("divergence", np.where(np.isfinite(state), state, 0.0), "loss diverged")
    return finish("t_end", state)


def lyapunov_check(trace: FlowTrace, tolerance: float) -> list[int] | None:
    """Indices where the loss rose by more than ``tolerance`` between
    consecutive samples; empty list means the descent property held.

    Annealed traces are exempt (noise may raise the loss); the marker
    ``None`` is returned for them.
    """
    if not trace.deterministic:
        return None
    rises = np.diff(trace.loss) > tolerance
    return [int(i) for i in np.nonzero(rises)[0]]
