"""Architecture growth and shrinkage without losing the current model.

Expansion appends parameters whose new directions are genuinely open (the
tangent Gram rank strictly rises) while the model itself is bit-preserved:
sinusoids gain (frequency, amplitude) pairs with zero amplitude and a fresh
frequency; affine families gain fresh orthonormal basis fields with zero
coefficient.  The growth loop runs the parametric flow, classifies the
terminal equilibrium, expands at stalls, and restarts from the canonically
extended parameters.  In-situ pruning removes pairs whose amplitude has
collapsed, mid-flow, provided neither the old nor the pruned parameter
vector sits at a critical point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import architectures as arch_mod
from . import flows as flow_mod
from . import spaces
from .analysis import (
    CriticalPointReport,
    CriticalPointTolerances,
    classify_critical_point,
)
from .architectures import ArchitectureSpec, ParamVector
from .errors import ConfigurationError, ExpansionRejectedError
from .flows import FlowConfig, FlowTrace
from .problems import Problem
from .spaces import Field, SobolevOrder

MODEL_DRIFT_TOL = 1e-12
FREQUENCY_SEPARATION = 0.1


@dataclass(frozen=True)
class GrowthSchedule:
    """Expansion policy for the growth loop."""

    max_levels: int = 5
    params_per_expansion: int = 2  # sinusoid pairs come two parameters at a time
    solution_tol: float = 1e-8
    frequency_seed: int = 0
    forced_frequencies: tuple[float, ...] = ()  # test hook: consumed in order

    def __post_init__(self):
        flow_mod._check_fields(self, {
            "> 0": ("solution_tol",), ">= 0": ("frequency_seed",), ">= 1": ("max_levels",),
            "even and >= 2": ("params_per_expansion",),
        })


@dataclass(frozen=True)
class ExpansionEvent:
    """Record of one accepted expansion."""

    level_from: int
    level_to: int
    t: float
    w_before: ParamVector
    w_after: ParamVector
    model_drift: float
    min_nonzero_eig_after: float
    rank_before: int
    rank_after: int
    new_frequencies: tuple[float, ...] = ()


@dataclass(frozen=True)
class GrowthTrace:
    """Per-level flow segments plus the expansions that stitched them.

    ``critical_reports`` holds the equilibrium classification made before
    each expansion, in order.
    """

    segments: tuple[FlowTrace, ...]
    expansions: tuple[ExpansionEvent, ...]
    final_arch: ArchitectureSpec
    final_params: ParamVector
    final_loss: float
    final_error: float | None  # model error vs the known solution
    converged: bool
    critical_reports: tuple[CriticalPointReport, ...] = ()


def _fresh_frequency(active: np.ndarray, rng: np.random.Generator) -> float:
    """Smallest positive integer separated from every active |frequency|,
    falling back to seeded uniform draws on [0.5, pairs + 2]."""
    mags = np.abs(active)
    k = 1
    while k <= mags.size + 1:
        if mags.size == 0 or np.min(np.abs(mags - k)) > FREQUENCY_SEPARATION:
            return float(k)
        k += 1
    hi = 0.5 * (mags.size) + 2.0
    for _ in range(20):
        cand = rng.uniform(0.5, max(hi, 2.0))
        if np.min(np.abs(mags - cand)) > FREQUENCY_SEPARATION:
            return float(cand)
    raise ExpansionRejectedError(
        "could not find a fresh frequency separated from the active set"
    )


def _expand_sinusoid(a, w_star, rule, rng, forced):
    pairs_new = rule.params_per_expansion // 2
    freqs = list(w_star.values[1::2])
    new_freqs = []
    for _ in range(pairs_new):
        if forced:
            f = forced.pop(0)
        else:
            f = _fresh_frequency(np.array(freqs), rng)
        new_freqs.append(f)
        freqs.append(f)
    a_next = arch_mod.sinusoid_architecture(a.target_basis, a.pair_count + pairs_new)
    w_next = np.concatenate(
        [w_star.values] + [np.array([f, 0.0]) for f in new_freqs]
    )
    return a_next, w_next, tuple(new_freqs)


def _expand_affine(a, w_star, rule, rng, forced):
    fields, offset = a.structure
    basis = a.target_basis
    if basis.kind != "sine":
        raise ExpansionRejectedError("affine expansion needs a sine basis")
    n_new = rule.params_per_expansion
    # fresh orthonormal directions: unused sine modes, unit-normalized
    span = np.stack([f.coeffs for f in fields])
    used = np.any(np.abs(span) > 1e-14, axis=0)
    free_modes = np.nonzero(~used)[0]
    if free_modes.size < n_new:
        raise ExpansionRejectedError("no unused modes left for affine expansion")
    new_fields = []
    scale = 1.0 / np.sqrt(spaces.HALF_WIDTH ** basis.dimension)
    for k in free_modes[:n_new]:
        e = np.zeros(basis.size)
        e[k] = scale
        new_fields.append(spaces.Field(e, basis))
    a_next = arch_mod.affine_architecture(list(fields) + new_fields, offset)
    w_next = np.concatenate([w_star.values, np.zeros(n_new)])
    return a_next, w_next, ()


def expand(
    a: ArchitectureSpec,
    w_star: ParamVector,
    rule: GrowthSchedule,
    t: float = 0.0,
    metric: SobolevOrder = SobolevOrder.L2,
    rng: np.random.Generator | None = None,
    forced_frequencies: list[float] | None = None,
) -> tuple[ArchitectureSpec, ParamVector, ExpansionEvent]:
    """Append parameters without changing the model.

    New frequencies are popped from ``forced_frequencies`` (default: a copy
    of ``rule.forced_frequencies``) while it lasts, so a reused list goes on.

    Raises :class:`ExpansionRejectedError` when the new Jacobian rows fail
    to raise the numerical rank of the tangent Gram matrix (for instance a
    duplicated sinusoid frequency).
    """
    if rng is None:
        rng = np.random.default_rng(rule.frequency_seed)
    forced = forced_frequencies
    if forced is None:
        forced = list(rule.forced_frequencies)
    if a.kind == "sinusoid":
        a_next, w_next_values, new_freqs = _expand_sinusoid(a, w_star, rule, rng, forced)
    elif a.kind == "affine":
        a_next, w_next_values, new_freqs = _expand_affine(a, w_star, rule, rng, forced)
    else:
        raise ExpansionRejectedError(f"architecture kind '{a.kind}' does not expand")

    w_next = ParamVector(w_next_values, level=w_star.level + 1)

    model_before, jac_before = arch_mod.model_and_jacobian(a, w_star)
    model_after, jac_after = arch_mod.model_and_jacobian(a_next, w_next)
    before = Field(model_before, a.target_basis)
    after = Field(model_after, a.target_basis)
    drift = spaces.norm(after - before, SobolevOrder.L2) / max(
        1.0, spaces.norm(before, SobolevOrder.L2)
    )
    diag_before = arch_mod.tangent_gram(jac_before, a.target_basis, metric)
    diag_after = arch_mod.tangent_gram(jac_after, a.target_basis, metric)
    if diag_after.numerical_rank <= diag_before.numerical_rank:
        offender = a.n_params + 1  # first appended parameter (1-based)
        raise ExpansionRejectedError(
            f"expansion opened no new directions (rank stayed "
            f"{diag_before.numerical_rank}); offending parameter w_{offender}"
            + (f" with frequency {new_freqs[0]}" if new_freqs else ""),
            parameter_index=offender,
        )
    if not np.array_equal(w_next.values[: w_star.size], w_star.values):
        raise ExpansionRejectedError("extension did not preserve the parameter prefix")
    if drift > MODEL_DRIFT_TOL:
        raise ExpansionRejectedError(f"expansion moved the model by {drift:.3e}")
    event = ExpansionEvent(
        level_from=w_star.level,
        level_to=w_next.level,
        t=t,
        w_before=w_star,
        w_after=w_next,
        model_drift=drift,
        min_nonzero_eig_after=diag_after.min_nonzero_eig,
        rank_before=diag_before.numerical_rank,
        rank_after=diag_after.numerical_rank,
        new_frequencies=new_freqs,
    )
    return a_next, w_next, event


@dataclass(frozen=True)
class NestingReport:
    """Restriction-consistency check over a nested architecture family."""

    pairs: tuple[tuple[int, int], ...]
    max_mismatch: float
    failed_pair: tuple[int, int] | None
    passed: bool


def validate_nested_family(
    levels: list[ArchitectureSpec],
    sample_count: int = 50,
    seed: int = 0,
) -> NestingReport:
    """Check that each level restricts to the previous one.

    Samples parameter vectors of the smaller level, extends them canonically
    with zeros, and compares the two models; passes when the difference is
    within 1e-12 * (1 + |model|) for every pair i < j.
    """
    if len(levels) < 2:
        return NestingReport((), 0.0, None, True)
    rng = np.random.default_rng(seed)
    pairs = []
    worst = 0.0
    failed = None
    for i in range(len(levels) - 1):
        for j in range(i + 1, len(levels)):
            a_i, a_j = levels[i], levels[j]
            m_i, m_j = a_i.n_params, a_j.n_params
            if m_i >= m_j:
                raise ConfigurationError("levels must strictly grow in parameters")
            pair_worst = 0.0
            for _ in range(sample_count):
                w = rng.uniform(-3.0, 3.0, size=m_i)
                w_ext = np.concatenate([w, np.zeros(m_j - m_i)])
                f_i = arch_mod.evaluate(a_i, ParamVector(w))
                f_j = arch_mod.evaluate(a_j, ParamVector(w_ext))
                err = spaces.norm(f_j - f_i, SobolevOrder.L2) / (
                    1.0 + spaces.norm(f_i, SobolevOrder.L2)
                )
                pair_worst = max(pair_worst, err)
            pairs.append((i, j))
            if pair_worst > worst:
                worst = pair_worst
            if pair_worst > 1e-12 and failed is None:
                failed = (i, j)
    return NestingReport(tuple(pairs), worst, failed, failed is None)


def run_growth_loop(
    p: Problem,
    a1: ArchitectureSpec,
    w0: ParamVector,
    sched: GrowthSchedule,
    cfg: FlowConfig,
    tolerances: CriticalPointTolerances = CriticalPointTolerances(),
) -> GrowthTrace:
    """Alternate parametric descent with model-preserving expansions.

    Each level integrates until solution, stall, or the time horizon; at a
    stall (or a vanished gradient with the loss still above
    ``sched.solution_tol``) the equilibrium is classified and the
    architecture expands, restarting the flow from the extended parameters.
    Stops at ``sched.max_levels`` or when the loss reaches the tolerance.
    An expansion rejection propagates with the trace collected so far
    attached to the exception.
    """
    if a1.kind not in ("sinusoid", "affine"):
        raise ConfigurationError(f"architecture kind '{a1.kind}' does not expand")
    rng = np.random.default_rng(sched.frequency_seed)
    forced = list(sched.forced_frequencies)
    # the stall loss floor is exactly the solution tolerance here
    cfg = replace(cfg, stall_loss_floor=sched.solution_tol)
    arch, w = a1, w0
    segments: list[FlowTrace] = []
    expansions: list[ExpansionEvent] = []
    reports: list[CriticalPointReport] = []
    t_offset = 0.0
    converged = False
    for level in range(1, sched.max_levels + 1):
        trace = flow_mod.integrate_parametric(p, arch, w, cfg)
        segments.append(trace)
        w = trace.terminal_state
        loss = float(trace.loss[-1])
        if loss <= sched.solution_tol:
            converged = True
            break
        if trace.terminal_reason not in ("stall", "grad_stop"):
            break  # t_end or divergence: schedule exhausted at this level
        if level == sched.max_levels:
            break
        reports.append(classify_critical_point(p, arch, w, tolerances))
        try:
            arch, w, event = expand(
                arch,
                w,
                sched,
                t=t_offset + trace.t[-1],
                metric=p.gradient_metric,
                rng=rng,
                forced_frequencies=forced,
            )
        except ExpansionRejectedError as exc:
            exc.growth_trace = _finish_growth(
                p, segments, expansions, arch, w, converged, reports
            )
            raise
        expansions.append(event)
        segments[-1] = replace(
            trace,
            events=trace.events
            + (
                flow_mod.FlowEvent(
                    float(trace.t[-1]),
                    "expand",
                    f"level {event.level_from} -> {event.level_to}, "
                    f"{w.size} parameters",
                ),
            ),
        )
        t_offset += trace.t[-1]
    return _finish_growth(p, segments, expansions, arch, w, converged, reports)


def _finish_growth(p, segments, expansions, arch, w, converged, reports=()):
    final_loss = float(segments[-1].loss[-1]) if segments else np.inf
    final_error = None
    if p.known_solution is not None:
        model = arch_mod.evaluate(arch, w)
        final_error = spaces.norm(model - p.known_solution, SobolevOrder.L2)
    return GrowthTrace(
        segments=tuple(segments),
        expansions=tuple(expansions),
        final_arch=arch,
        final_params=w,
        final_loss=final_loss,
        final_error=final_error,
        converged=converged,
        critical_reports=tuple(reports),
    )


# ---------------------------------------------------------------------------
# In-situ pruning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PruneReport:
    pruned: bool
    removed_pairs: tuple[int, ...]  # pair indices (0-based) that were removed
    model_drift: float
    grad_norm_before: float
    grad_norm_after: float
    reason: str


@dataclass(frozen=True)
class PruneTolerances:
    amplitude: float = 1e-10  # |amplitude| below which a pair is inactive
    grad_floor: float = 1e-8  # both old and pruned gradients must exceed this


def prune_in_situ(
    p: Problem,
    a: ArchitectureSpec,
    w_t: ParamVector,
    tolerances: PruneTolerances = PruneTolerances(),
) -> tuple[ArchitectureSpec, ParamVector, PruneReport]:
    """Drop sinusoid pairs whose amplitude has collapsed, mid-flow.

    The frequency parameter of a dead pair only ever enters through that
    amplitude, so removing the pair leaves the model (essentially) fixed.
    Refuses, returning the inputs unchanged, when no pair is prunable or
    when either the current or the pruned parameter vector would be a
    critical point (gradient below ``grad_floor``).
    """
    obj = flow_mod.ParametricObjective(p, a)
    _, grad, _ = obj.value_and_grad(w_t.values)
    g_before = float(np.linalg.norm(grad))

    def refuse(reason):
        return a, w_t, PruneReport(False, (), 0.0, g_before, g_before, reason)

    if a.kind != "sinusoid":
        return refuse(f"architecture kind '{a.kind}' does not prune")
    amps = w_t.values[2::2]
    dead = np.nonzero(np.abs(amps) < tolerances.amplitude)[0]
    if dead.size == 0:
        return refuse("no amplitude below the pruning threshold")
    if dead.size == amps.size:
        return refuse("pruning would remove every pair")
    if g_before < tolerances.grad_floor:
        return refuse("flow is at a critical point")
    keep = [i for i in range(amps.size) if i not in set(dead.tolist())]
    w_new = np.empty(1 + 2 * len(keep))
    w_new[0] = w_t.values[0]
    for out_i, i in enumerate(keep):
        w_new[1 + 2 * out_i] = w_t.values[1 + 2 * i]
        w_new[2 + 2 * out_i] = w_t.values[2 + 2 * i]
    a_new = arch_mod.sinusoid_architecture(a.target_basis, len(keep))
    w_pruned = ParamVector(w_new, level=w_t.level)
    obj_new = flow_mod.ParametricObjective(p, a_new)
    _, grad_new, _ = obj_new.value_and_grad(w_pruned.values)
    g_after = float(np.linalg.norm(grad_new))
    if g_after < tolerances.grad_floor:
        return refuse("would create critical point")
    before = arch_mod.evaluate(a, w_t)
    after = arch_mod.evaluate(a_new, w_pruned)
    drift = spaces.norm(after - before, SobolevOrder.L2) / max(
        1.0, spaces.norm(before, SobolevOrder.L2)
    )
    # dead amplitudes bound the drift by |amp| * |sin row|
    row_bound = np.sqrt(spaces.HALF_WIDTH)
    if drift > max(tolerances.amplitude * row_bound * dead.size, 1e-15):
        return refuse(f"pruning would move the model by {drift:.3e}")
    report = PruneReport(
        pruned=True,
        removed_pairs=tuple(int(i) for i in dead),
        model_drift=drift,
        grad_norm_before=g_before,
        grad_norm_after=g_after,
        reason="",
    )
    return a_new, w_pruned, report
