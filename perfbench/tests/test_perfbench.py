"""Tests of the benchmark itself: workload generation, span arithmetic,
boundary patching, the correctness gates and how a run counts failures.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import configparser
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import run as run_mod  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from gradlab import analysis, architectures as ar, flows as fl, growth as gr  # noqa: E402
from gradlab import problems as pr, spaces as sp  # noqa: E402

SEEDS = range(200)


def _ini(workload, seed, job=0):
    parser = configparser.ConfigParser()
    parser.read_string(wl.make_job(workload, seed, job)["ini"])
    return parser


def _modes(text):
    return [(int(k), float(a)) for k, a in (p.split(":") for p in text.split(","))]


def _ratios(values, base):
    return np.array(values) / np.array(base)


# -- workload generation ----------------------------------------------------


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_jobs_are_deterministic_per_seed(workload):
    for seed in (0, 1, 12345):
        for job in range(3):
            assert wl.make_job(workload, seed, job) == wl.make_job(workload, seed, job)
    assert wl.make_job(workload, 1, 0) != wl.make_job(workload, 2, 0)
    assert wl.make_job(workload, 1, 0) != wl.make_job(workload, 1, 1)


def test_npbe_jitter_stays_within_one_percent():
    for seed in SEEDS:
        cfg = _ini("npbe_pullback", seed)
        phi = _modes(cfg["problem"]["phi"])
        assert [k for k, _ in phi] == [k for k, _ in wl.NPBE_PHI]
        r = _ratios([a for _, a in phi], [a for _, a in wl.NPBE_PHI])
        w0 = [float(v) for v in cfg["architecture"]["w0"].split(",")]
        r = np.concatenate([r, _ratios(w0, wl.NPBE_W0)])
        assert np.all(np.abs(r - 1.0) <= wl.NPBE_JITTER)
        assert cfg["problem"]["resolution"] == "24" and cfg["problem"]["metric"] == "w22"


def test_growth_jitter_and_frequency_seed():
    seeds = set()
    for seed in SEEDS:
        cfg = _ini("growth_quadratic", seed)
        phi = _modes(cfg["problem"]["phi"])
        r = _ratios([a for _, a in phi], [a for _, a in wl.GROWTH_PHI])
        assert np.all(np.abs(r - 1.0) <= wl.GROWTH_JITTER)
        fseed = int(cfg["growth"]["frequency_seed"])
        assert 0 <= fseed < 2**31
        seeds.add(fseed)
    assert len(seeds) > 190


def test_nominal_jitter_stays_within_one_percent():
    for seed in SEEDS:
        cfg = _ini("nominal_3d", seed)
        phi = _modes(cfg["problem"]["phi"])
        r = _ratios([a for _, a in phi], [a for _, a in wl.NOMINAL_PHI])
        assert np.all(np.abs(r - 1.0) <= wl.NOMINAL_JITTER)
        assert cfg["problem"]["dimension"] == "3" and cfg["problem"]["resolution"] == "17"


def test_anneal_blocks_hold_distinct_seeds():
    blocks = [wl.make_job("anneal_escape", seed, 0)["sde_seeds"] for seed in SEEDS]
    flat = [s for b in blocks for s in b]
    assert all(len(b) == wl.WORKLOADS["anneal_escape"].paths_per_job for b in blocks)
    assert all(0 <= s < 2**32 for s in flat)
    assert len(set(flat)) == len(flat)


# -- span arithmetic -----------------------------------------------------------


def test_self_time_with_overlapping_children():
    # 0 root [0, 10]: children 1 [1, 4] and 2 [3, 6] overlap, 3 [8, 12]
    # runs past the root's end, 4 [2, 3] is a grandchild under 1, and
    # 5 [1, 4] duplicates 1
    starts = [0.0, 1.0, 3.0, 8.0, 2.0, 1.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0, 4.0]
    parents = [-1, 0, 0, 0, 1, 0]
    own = tracing.self_times(starts, ends, parents)
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 7
    np.testing.assert_allclose(own, [3.0, 2.0, 3.0, 4.0, 1.0, 3.0])


def test_self_time_without_children_is_duration():
    own = tracing.self_times([0.5, 2.0], [1.5, 2.25], [-1, -1])
    np.testing.assert_allclose(own, [1.0, 0.25])


# -- boundary patching ----------------------------------------------------------


def test_tracer_patches_every_namespace_and_restores():
    original = analysis.classify_critical_point
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # growth imported the function by name; both bindings are wrapped
        assert gr.classify_critical_point is analysis.classify_critical_point
        assert gr.classify_critical_point is not original
        basis = sp.make_space(sp.Domain(1), 8)
        g = sp.field_from_modes(basis, [(1, 0.5)])
        back = sp.from_nodal(sp.to_nodal(g), basis)
    finally:
        tracer.uninstall()
    assert gr.classify_critical_point is original
    assert analysis.classify_critical_point is original
    np.testing.assert_allclose(back.coeffs, g.coeffs, atol=1e-14)
    metrics, calls = tracing.layer_metrics(tracer)
    assert calls["spaces.to_nodal"] == 1 and calls["spaces.from_nodal"] == 1
    assert metrics["spaces.transform_calls"] == 2
    assert metrics["spaces.transform_mb_computed"] == 2 * 16 * 16 / 1e6


def test_missing_boundary_is_reported_not_zero():
    calls = {n: 1 for n in tracing.SPAN_NAMES}
    assert tracing.missing("nominal_3d", calls) == ([], [])
    calls["spaces.to_nodal"] = 0
    absent, metrics = tracing.missing("nominal_3d", calls)
    assert absent == ["spaces.to_nodal"]
    assert "spaces.transform_calls" in metrics and "problems.loss_s" not in metrics
    # transforms are not predicted on growth_quadratic: zero calls is a value
    assert tracing.missing("growth_quadratic", calls) == ([], [])


# -- correctness gates -------------------------------------------------------------


def _trace(state, loss=(1.0, 0.5, 0.1), reason="stall", kind="parametric"):
    n = len(loss)
    return fl.FlowTrace(
        kind=kind, t=np.arange(n, dtype=float), loss=np.array(loss),
        grad_norm=np.ones(n), terminal_reason=reason, terminal_state=state,
        config=fl.FlowConfig(),
    )


def test_parametric_gate_rejects_wrong_results():
    basis = sp.make_space(sp.Domain(1), 24)
    problem = pr.npbe_problem(basis, sp.field_from_modes(basis, list(wl.NPBE_PHI)))
    arch = ar.sinusoid_architecture(basis, 2)
    exact = np.array([0.0, 1.0, 0.6, 2.0, 0.25])
    assert gates.parametric_gate(problem, arch, _trace(ar.ParamVector(exact))) == []
    perturbed = ar.ParamVector(exact + np.array([0.0, 0.0, 0.01, 0.0, 0.0]))
    assert gates.parametric_gate(problem, arch, _trace(perturbed))
    rising = _trace(ar.ParamVector(exact), loss=(1.0, 0.5, 0.6))
    assert gates.parametric_gate(problem, arch, rising) == ["loss not monotone"]
    diverged = _trace(ar.ParamVector(exact), reason="divergence")
    assert "divergence" in gates.parametric_gate(problem, arch, diverged)


def test_nominal_gate_rejects_wrong_results():
    basis = sp.make_space(sp.Domain(3), 5)
    phi = sp.field_from_modes(basis, list(wl.NOMINAL_PHI))
    problem = pr.npbe_problem(basis, phi)
    assert gates.nominal_gate(problem, _trace(phi, kind="nominal")) == []
    off = phi + sp.field_from_modes(basis, [(1, 0.01)])
    assert gates.nominal_gate(problem, _trace(off, kind="nominal"))
    rising = _trace(phi, loss=(1.0, 1.1), kind="nominal")
    assert gates.nominal_gate(problem, rising) == ["loss not monotone"]


def test_growth_gate_rejects_wrong_results():
    basis = sp.make_space(sp.Domain(1), 16)
    problem = pr.quadratic_problem(basis, sp.field_from_modes(basis, [(1, 0.5)]))
    arch = ar.sinusoid_architecture(basis, 1)
    exact = ar.ParamVector(np.array([0.0, 1.0, 0.5]))
    event = gr.ExpansionEvent(1, 2, 1.0, exact, exact, 1e-16, 1.0, 2, 3)
    good = gr.GrowthTrace(
        segments=(_trace(exact),), expansions=(event,), final_arch=arch,
        final_params=exact, final_loss=0.0, final_error=0.0, converged=True,
    )
    tol = wl.GROWTH_SOLUTION_TOL
    assert gates.growth_gate(problem, good, tol) == []
    moved = ar.ParamVector(np.array([0.0, 1.0, 0.5 + 0.05]))
    assert gates.growth_gate(problem, replace(good, final_params=moved), tol)
    drifted = replace(good, expansions=(replace(event, model_drift=1e-11),))
    assert gates.growth_gate(problem, drifted, tol)
    assert gates.growth_gate(problem, replace(good, converged=False), tol) == ["not converged"]


def test_anneal_gate_rejects_shallow_or_divergent_runs():
    deep = {"deep": True, "reason": "t_end"}
    shallow = {"deep": False, "reason": "t_end"}
    assert wl.anneal_gate([deep] * 12 + [shallow] * 3) == []
    assert wl.anneal_gate([deep] * 11 + [shallow] * 4)
    assert wl.anneal_gate([deep] * 14 + [{"deep": True, "reason": "divergence"}])


def test_double_well_barrier_separates_the_basins():
    problem, arch, w0, barrier = gates.double_well()
    obj = fl.ParametricObjective(problem, arch)
    slope = lambda w: obj.value_and_grad(np.array([w]))[1][0]  # noqa: E731
    assert abs(slope(barrier)) < 1e-12
    assert w0.values[0] < barrier < 1.0


def test_digest_sees_one_ulp():
    a = np.linspace(0.0, 1.0, 7)
    b = a.copy()
    b[3] = np.nextafter(b[3], 2.0)
    assert gates.digest([a], [a]) == gates.digest([a.copy()], [a.copy()])
    assert gates.digest([a], [a]) != gates.digest([b], [a])


# -- run outcomes ----------------------------------------------------------------


def _job(index, ok=True, failures=(), digest="same", paths=()):
    return {"index": index, "ok": ok, "failures": list(failures), "digest": digest,
            "paths": list(paths), "solve_s": [1.0], "wall_s": 2.0}


def test_outcomes_count_crashes_gates_and_twin_mismatches():
    run = run_mod.Run("growth_quadratic", 1, 25.0, trace=True)
    run.untraced = [_job(0), _job(1, failures=["not converged"]), _job(2, ok=False)]
    run.traced = [_job(0, digest="other")]
    attempted, failed, notes = run.outcomes()
    assert (attempted, failed) == (4, 3)
    assert any("differ from the untraced twin" in n for n in notes)


def test_outcomes_apply_the_anneal_gate_over_the_run():
    deep = {"deep": True, "reason": "t_end"}
    shallow = {"deep": False, "reason": "t_end"}
    run = run_mod.Run("anneal_escape", 1, 25.0, trace=False)
    run.untraced = [_job(0, paths=[deep] * 5), _job(1, paths=[deep] * 5),
                    _job(2, paths=[deep, shallow, shallow, shallow, shallow])]
    assert run.outcomes()[:2] == (15, 4)
    run.untraced[2]["paths"] = [deep, deep, shallow, shallow, shallow]
    assert run.outcomes()[:2] == (15, 0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run_mod.tail_percentile(list(range(100))) == (90.0, 89)
    assert run_mod.tail_percentile(list(range(15))) is None
