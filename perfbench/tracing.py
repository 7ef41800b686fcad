"""In-memory span tracing of gradlab's module boundaries.

A traced job wraps each boundary below in every gradlab namespace its
callers resolve it from (``growth`` imports ``classify_critical_point`` by
name, the package re-exports most entry points), records one span per call
-- name, start, end, parent, instance id -- in flat arrays, and derives the
per-layer metrics from them when the job ends.  The wrappers only time and
count: the arithmetic of the traced program is unchanged, so a traced job
reproduces its untraced twin bit for bit.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from dataclasses import dataclass
from itertools import groupby

import numpy as np


@dataclass(frozen=True)
class Boundary:
    span: str  # span name, "<layer>.<function>"
    module: str
    attr: str
    cls: str | None = None  # patch a method of this class instead
    counter: str | None = None  # counter fed by measure(args, result)
    measure: object = None
    post: object = None  # post(tracer, result) -> result handed to the caller


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _wrap_problem(tracer, problem):
    """Trace the callables of a built Problem (a frozen dataclass)."""
    for field in ("compiled_loss", "residual_map", "l2_gradient_map", "clamp_probe"):
        fn = getattr(problem, field)
        if fn is not None:
            object.__setattr__(problem, field, tracer.wrap(f"problems.{field}", fn))
    return problem


def _wrap_closure(tracer, rows):
    return tracer.wrap("architectures.model_jac", rows)


BOUNDARIES = (
    Boundary("spaces.to_nodal", "gradlab.spaces", "to_nodal",
             counter="spaces.transform_bytes", measure=lambda a, r: 16 * r.size),
    Boundary("spaces.from_nodal", "gradlab.spaces", "from_nodal",
             counter="spaces.transform_bytes", measure=lambda a, r: 16 * a[0].size),
    Boundary("problems.nominal_loss", "gradlab.problems", "nominal_loss"),
    Boundary("problems.quadratic_problem", "gradlab.problems", "quadratic_problem", post=_wrap_problem),
    Boundary("problems.npbe_problem", "gradlab.problems", "npbe_problem", post=_wrap_problem),
    Boundary("architectures.compile_model_jac", "gradlab.architectures", "compile_model_jac",
             post=_wrap_closure),
    Boundary("architectures.tangent_gram", "gradlab.architectures", "tangent_gram"),
    Boundary("flows.ParametricObjective.value_and_grad", "gradlab.flows", "value_and_grad",
             cls="ParametricObjective"),
    Boundary("flows.NominalObjective.value_and_grad", "gradlab.flows", "value_and_grad",
             cls="NominalObjective"),
    Boundary("flows.integrate_parametric", "gradlab.flows", "integrate_parametric",
             counter="flows.samples", measure=lambda a, r: r.n_samples),
    Boundary("flows.integrate_nominal", "gradlab.flows", "integrate_nominal",
             counter="flows.samples", measure=lambda a, r: r.n_samples),
    Boundary("flows.integrate_annealed", "gradlab.flows", "integrate_annealed",
             counter="flows.annealed_samples", measure=lambda a, r: r.n_samples),
    Boundary("analysis.estimate_lojasiewicz", "gradlab.analysis", "estimate_lojasiewicz"),
    Boundary("analysis.classify_rate", "gradlab.analysis", "classify_rate"),
    Boundary("analysis.classify_critical_point", "gradlab.analysis", "classify_critical_point"),
    Boundary("analysis.fit_kernel_decay", "gradlab.analysis", "fit_kernel_decay"),
    Boundary("growth.run_growth_loop", "gradlab.growth", "run_growth_loop",
             counter="growth.levels", measure=lambda a, r: len(r.segments)),
    Boundary("growth.expand", "gradlab.growth", "expand"),
    Boundary("traceio.write_trace", "gradlab.traceio", "write_trace",
             counter="traceio.bytes", measure=_file_bytes),
    Boundary("traceio.write_csv", "gradlab.traceio", "write_csv",
             counter="traceio.bytes", measure=_file_bytes),
    Boundary("traceio.write_manifest", "gradlab.traceio", "write_manifest",
             counter="traceio.bytes", measure=_file_bytes),
    Boundary("traceio.field_to_bytes", "gradlab.spaces", "field_to_bytes",
             counter="traceio.bytes", measure=lambda a, r: len(r)),
    Boundary("config.load_config", "gradlab.config", "load_config"),
    Boundary("config.build_problem", "gradlab.config", "build_problem"),
    Boundary("config.build_architecture", "gradlab.config", "build_architecture"),
    Boundary("config.build_flow_config", "gradlab.config", "build_flow_config"),
    Boundary("config.build_growth_schedule", "gradlab.config", "build_growth_schedule"),
    Boundary("config.initial_params", "gradlab.config", "initial_params"),
    Boundary("config.initial_field", "gradlab.config", "initial_field"),
)

# problem callables are wrapped per instance, not patched by name
PROBLEM_SPANS = tuple(
    f"problems.{f}" for f in ("compiled_loss", "residual_map", "l2_gradient_map", "clamp_probe")
)
SPAN_NAMES = tuple(b.span for b in BOUNDARIES) + PROBLEM_SPANS + ("architectures.model_jac",)
assert len(SPAN_NAMES) < 63  # ancestor sets are int64 bit masks
# constructors are wrapped only to reach the Problem they return
UNTIMED = ("problems.quadratic_problem", "problems.npbe_problem")


def replace_everywhere(original, replacement) -> int:
    """Rebind every gradlab module attribute that is ``original``."""
    hits = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "gradlab":
            continue
        hits += [(mod, k) for k, v in vars(mod).items() if v is original]
    for mod, k in hits:
        setattr(mod, k, replacement)
    return len(hits)


class Tracer:
    """Spans kept in flat arrays, plus counters fed at the same boundaries."""

    def __init__(self):
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.instances = array("H")
        self.counters: dict[str, float] = {}
        self.instance = 0
        self._stack = [-1]
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._undo: list = []

    def wrap(self, span: str, fn, counter=None, measure=None, post=None):
        if span in UNTIMED:
            def untimed(*args, **kwargs):
                return post(self, fn(*args, **kwargs))
            return untimed
        name_id = self._ids[span]
        names, starts, ends = self.names, self.starts, self.ends
        parents, instances, stack = self.parents, self.instances, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            instances.append(self.instance)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()
            if counter is not None:
                self.counters[counter] = self.counters.get(counter, 0) + measure(args, result)
            return post(self, result) if post is not None else result

        return traced

    def install(self):
        """Patch every boundary; ``uninstall`` restores the originals."""
        for b in BOUNDARIES:
            if b.cls is not None:
                owner = getattr(importlib.import_module(b.module), b.cls)
                original = owner.__dict__[b.attr]
                setattr(owner, b.attr, self.wrap(b.span, original))
                self._undo.append((owner, b.attr, original))
                continue
            original = getattr(importlib.import_module(b.module), b.attr)
            replacement = self.wrap(b.span, original, b.counter, b.measure, b.post)
            replace_everywhere(original, replacement)
            self._undo.append((None, original, replacement))

    def uninstall(self):
        for owner, a, b in reversed(self._undo):
            if owner is not None:
                setattr(owner, a, b)
            else:
                replace_everywhere(b, a)
        self._undo.clear()

    def arrays(self):
        """Copies of (name id, start, end, parent index) per span."""
        return (
            np.array(self.names, dtype=np.int64),
            np.array(self.starts, dtype=np.float64),
            np.array(self.ends, dtype=np.float64),
            np.array(self.parents, dtype=np.int64),
        )

    def save(self, path):
        names, starts, ends, parents = self.arrays()
        np.savez(
            path,
            span_names=np.array(SPAN_NAMES),
            name=names,
            start=starts,
            end=ends,
            parent=parents,
            instance=np.array(self.instances, dtype=np.uint16),
        )


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span; children may overlap one another."""
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    out = ends - starts
    kids = np.nonzero(parents >= 0)[0]
    order = kids[np.lexsort((starts[kids], parents[kids]))]
    for p, group in groupby(order.tolist(), key=lambda i: int(parents[i])):
        covered, cur_s, cur_e = 0.0, None, None
        for i in group:
            s, e = max(starts[i], starts[p]), min(ends[i], ends[p])
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


TRANSFORMS = ("spaces.to_nodal", "spaces.from_nodal")
PROBLEM_LOSS = ("problems.nominal_loss",) + PROBLEM_SPANS
OBJECTIVES = ("flows.ParametricObjective.value_and_grad", "flows.NominalObjective.value_and_grad")
INTEGRATORS = ("flows.integrate_parametric", "flows.integrate_nominal", "flows.integrate_annealed")
ANALYSIS = tuple(n for n in SPAN_NAMES if n.startswith("analysis."))
GROWTH = ("growth.run_growth_loop", "growth.expand")
TRACEIO = tuple(n for n in SPAN_NAMES if n.startswith("traceio."))
CONFIG = tuple(n for n in SPAN_NAMES if n.startswith("config."))
MODEL_JAC = ("architectures.model_jac",)
COMPILE = ("architectures.compile_model_jac",)
GRAM = ("architectures.tangent_gram",)
EM = ("flows.integrate_annealed",)

# (metric, unit, boundaries it is computed from); the layer prefix names the
# gradlab module whose public entry points the boundaries are
LAYER_METRICS = (
    ("spaces.transform_calls", "count", TRANSFORMS),
    ("spaces.transform_s", "s", TRANSFORMS),
    ("spaces.transform_us", "us", TRANSFORMS),
    ("spaces.transform_mb_computed", "MB", TRANSFORMS),
    ("problems.loss_calls", "count", PROBLEM_LOSS),
    ("problems.loss_s", "s", PROBLEM_LOSS),
    ("problems.loss_us", "us", PROBLEM_LOSS),
    ("architectures.model_jac_calls", "count", MODEL_JAC),
    ("architectures.model_jac_s", "s", MODEL_JAC),
    ("architectures.model_jac_us", "us", MODEL_JAC),
    ("architectures.compile_calls", "count", COMPILE),
    ("architectures.compile_s", "s", COMPILE),
    ("architectures.compile_per_eval", "ratio", COMPILE + MODEL_JAC),
    ("architectures.gram_calls", "count", GRAM),
    ("architectures.gram_us", "us", GRAM),
    ("flows.rhs_evals", "count", OBJECTIVES),
    ("flows.samples", "count", INTEGRATORS),
    ("flows.rhs_us", "us", OBJECTIVES),
    ("flows.driver_self_s", "s", INTEGRATORS),
    ("flows.em_steps", "count", EM),
    ("flows.em_step_us", "us", EM),
    ("analysis.calls", "count", ANALYSIS),
    ("analysis.s", "s", ANALYSIS),
    ("growth.levels", "count", GROWTH),
    ("growth.expansions", "count", GROWTH),
    ("growth.self_s", "s", GROWTH),
    ("growth.expand_s", "s", GROWTH),
    ("traceio.write_calls", "count", TRACEIO),
    ("traceio.bytes", "count", TRACEIO),
    ("traceio.write_s", "s", TRACEIO),
    ("traceio.mb_per_s", "MB/s", TRACEIO),
    ("config.build_s", "s", CONFIG),
)

# boundaries each workload is predicted to call at least once
PREDICTED = {
    "npbe_pullback": (
        "problems.compiled_loss", *COMPILE, *MODEL_JAC, *GRAM, OBJECTIVES[0], INTEGRATORS[0],
        "analysis.estimate_lojasiewicz", "traceio.write_trace", "traceio.write_csv",
        "traceio.write_manifest", "config.load_config", "config.build_problem",
        "config.build_architecture", "config.build_flow_config", "config.initial_params",
    ),
    "growth_quadratic": (
        *COMPILE, *MODEL_JAC, *GRAM, OBJECTIVES[0], INTEGRATORS[0],
        "analysis.classify_critical_point", *GROWTH, "traceio.write_trace", "traceio.write_csv",
        "traceio.write_manifest", "config.load_config", "config.build_problem",
        "config.build_architecture", "config.build_flow_config", "config.build_growth_schedule",
        "config.initial_params",
    ),
    "anneal_escape": (
        OBJECTIVES[0], *EM, "traceio.write_trace", "traceio.write_manifest",
    ),
    "nominal_3d": (
        *TRANSFORMS, "problems.nominal_loss", "problems.residual_map", "problems.l2_gradient_map",
        "problems.clamp_probe", OBJECTIVES[1], INTEGRATORS[1], "traceio.write_trace",
        "traceio.write_manifest", "traceio.field_to_bytes", "config.load_config",
        "config.build_problem", "config.build_flow_config", "config.initial_field",
    ),
}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one job, and the call count of every boundary."""
    names, starts, ends, parents = tracer.arrays()
    dur = ends - starts
    own = self_times(starts, ends, parents)
    ids = tracer._ids
    # bit mask of the span names on each span's ancestor chain
    names_l, parents_l = names.tolist(), parents.tolist()
    masks = [0] * len(names_l)
    for i, p in enumerate(parents_l):
        if p >= 0:
            masks[i] = masks[p] | (1 << names_l[p])
    masks = np.array(masks, dtype=np.int64)

    def pick(group, outermost=False, under=None):
        sel = np.isin(names, [ids[n] for n in group])
        if outermost:
            sel &= (masks & sum(1 << ids[n] for n in group)) == 0
        if under is not None:
            sel &= (masks & (1 << ids[under])) != 0
        return sel

    calls = {n: int(np.count_nonzero(names == ids[n])) for n in SPAN_NAMES if n not in UNTIMED}
    c = tracer.counters
    n_of = lambda group: sum(calls[n] for n in group)  # noqa: E731
    incl = lambda group: float(dur[pick(group)].sum())  # noqa: E731
    selfs = lambda group: float(own[pick(group)].sum())  # noqa: E731

    loss = pick(PROBLEM_LOSS, outermost=True)
    n_loss, loss_s = int(loss.sum()), float(dur[loss].sum())
    analysis = pick(ANALYSIS, outermost=True)
    config = pick(CONFIG, outermost=True)
    samples = c.get("flows.samples", 0) + c.get("flows.annealed_samples", 0)
    em_steps = int(pick(OBJECTIVES, under=EM[0]).sum()) - c.get("flows.annealed_samples", 0)
    io_s, io_bytes = incl(TRACEIO), c.get("traceio.bytes", 0)
    m = {
        "spaces.transform_calls": n_of(TRANSFORMS),
        "spaces.transform_s": selfs(TRANSFORMS),
        "spaces.transform_us": _ratio(selfs(TRANSFORMS), n_of(TRANSFORMS), 1e6),
        "spaces.transform_mb_computed": c.get("spaces.transform_bytes", 0) / 1e6,
        "problems.loss_calls": n_loss,
        "problems.loss_s": loss_s,
        "problems.loss_us": _ratio(loss_s, n_loss, 1e6),
        "architectures.model_jac_calls": n_of(MODEL_JAC),
        "architectures.model_jac_s": incl(MODEL_JAC),
        "architectures.model_jac_us": _ratio(incl(MODEL_JAC), n_of(MODEL_JAC), 1e6),
        "architectures.compile_calls": n_of(COMPILE),
        "architectures.compile_s": incl(COMPILE),
        "architectures.compile_per_eval": _ratio(n_of(COMPILE), n_of(MODEL_JAC)),
        "architectures.gram_calls": n_of(GRAM),
        "architectures.gram_us": _ratio(incl(GRAM), n_of(GRAM), 1e6),
        "flows.rhs_evals": n_of(OBJECTIVES) - samples,
        "flows.samples": samples,
        "flows.rhs_us": _ratio(incl(OBJECTIVES), n_of(OBJECTIVES), 1e6),
        "flows.driver_self_s": selfs(INTEGRATORS),
        "flows.em_steps": em_steps,
        "flows.em_step_us": _ratio(incl(EM), em_steps, 1e6),
        "analysis.calls": int(analysis.sum()),
        "analysis.s": float(dur[analysis].sum()),
        "growth.levels": c.get("growth.levels", 0),
        "growth.expansions": calls["growth.expand"],
        "growth.self_s": selfs(GROWTH[:1]),
        "growth.expand_s": incl(GROWTH[1:]),
        "traceio.write_calls": n_of(TRACEIO),
        "traceio.bytes": io_bytes,
        "traceio.write_s": io_s,
        "traceio.mb_per_s": _ratio(io_bytes / 1e6, io_s),
        "config.build_s": float(dur[config].sum()),
    }
    return m, calls


def missing(workload: str, calls: dict[str, int]) -> tuple[list[str], list[str]]:
    """Predicted boundaries that recorded no call, and the metrics that are
    computed from them (reported as missing, never as 0)."""
    absent = [n for n in PREDICTED[workload] if calls.get(n, 0) == 0]
    metrics = [name for name, _, group in LAYER_METRICS if set(group) & set(absent)]
    return absent, metrics
