import numpy as np
import pytest

from gradlab import architectures as ar
from gradlab import flows as fl
from gradlab import growth as gr
from gradlab import problems as pr
from gradlab import spaces as sp
from gradlab.errors import ExpansionRejectedError

from conftest import gram_at


@pytest.fixture(scope="module")
def three_mode_problem(basis_128):
    phi = sp.field_from_modes(basis_128, [(0, 1.0), (1, 0.5), (3, 0.25)])
    return pr.quadratic_problem(basis_128, phi)


class TestExpand:
    def test_sinusoid_extension_preserves_model(self, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 1)
        w = ar.ParamVector(np.array([0.2, 1.0, 0.8]))
        a2, w2, event = gr.expand(arch, w, gr.GrowthSchedule())
        assert a2.pair_count == 2
        assert w2.size == 5
        assert w2.values[4] == 0.0  # new amplitude zero
        assert w2.values[3] != 0.0  # new frequency nonzero
        assert np.array_equal(w2.values[:3], w.values)  # bitwise prefix
        assert event.model_drift <= 1e-15
        assert event.min_nonzero_eig_after > 0
        assert event.rank_after == event.rank_before + 1

    def test_duplicate_frequency_rejected(self, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 1)
        w = ar.ParamVector(np.array([0.2, 1.0, 0.8]))
        with pytest.raises(ExpansionRejectedError) as err:
            gr.expand(arch, w, gr.GrowthSchedule(), forced_frequencies=[1.0])
        assert err.value.parameter_index == 4
        # oracle: the duplicated sine row really does leave the Gram rank
        # unchanged
        a2 = ar.sinusoid_architecture(basis_128, 2)
        w_dup = ar.ParamVector(np.concatenate([w.values, [1.0, 0.0]]))
        before = gram_at(arch, w)
        after = gram_at(a2, w_dup)
        assert after.numerical_rank == before.numerical_rank

    def test_affine_identity_block(self, basis_128):
        fields = [sp.Field(np.eye(128)[k] / np.sqrt(np.pi), basis_128) for k in (0, 1)]
        arch = ar.affine_architecture(fields)
        w = ar.ParamVector(np.array([0.5, -0.3]))
        a2, w2, event = gr.expand(arch, w, gr.GrowthSchedule(params_per_expansion=2))
        diag = gram_at(a2, w2)
        assert np.allclose(diag.gram, np.eye(4), atol=1e-12)
        assert event.model_drift == 0.0

    def test_freshness_rule_avoids_active_frequencies(self, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 2)
        w = ar.ParamVector(np.array([0.0, 1.02, 0.5, 2.04, 0.3]))
        _, w2, event = gr.expand(arch, w, gr.GrowthSchedule())
        f_new = event.new_frequencies[0]
        assert min(abs(abs(f) - f_new) for f in (1.02, 2.04)) > gr.FREQUENCY_SEPARATION
        assert f_new == 3.0  # smallest admissible integer


class TestValidateNestedFamily:
    def test_sinusoid_levels_pass(self, basis_128):
        levels = [ar.sinusoid_architecture(basis_128, a) for a in (1, 2, 3)]
        report = gr.validate_nested_family(levels, sample_count=50, seed=3)
        assert report.passed
        assert report.max_mismatch <= 1e-12

    def test_corrupted_level_fails_with_located_pair(self, basis_128):
        offset = sp.field_from_modes(basis_128, [(2, 0.3)])
        good1 = [sp.Field(np.eye(128)[k] / np.sqrt(np.pi), basis_128) for k in (0, 1)]
        good2 = good1 + [sp.Field(np.eye(128)[2] / np.sqrt(np.pi), basis_128)]
        levels = [
            ar.affine_architecture(good1),
            ar.affine_architecture(good2, offset=offset),  # offset injected
        ]
        report = gr.validate_nested_family(levels, sample_count=10, seed=4)
        assert not report.passed
        assert report.failed_pair == (0, 1)

    def test_single_level_vacuous(self, basis_128):
        report = gr.validate_nested_family(
            [ar.sinusoid_architecture(basis_128, 1)]
        )
        assert report.passed


class TestGrowthLoop:
    def test_three_mode_target_converges(self, three_mode_problem, basis_128):
        # oracle: the exact-fit configuration at three pairs has zero loss,
        # so a zero-loss configuration exists in the expanded family
        exact_arch = ar.sinusoid_architecture(basis_128, 3)
        w_exact = ar.ParamVector(np.array([1.0, 1.0, 0.5, 3.0, 0.25, 2.0, 0.0]))
        obj = fl.ParametricObjective(three_mode_problem, exact_arch)
        assert obj.value_and_grad(w_exact.values)[0] <= 1e-20

        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.2, 1.3, 0.1]))
        sched = gr.GrowthSchedule(max_levels=5, solution_tol=1e-4)
        cfg = fl.FlowConfig(
            t_end=400.0, record_every=0.5, stall_window=40, stall_rel_change=1e-9
        )
        gt = gr.run_growth_loop(three_mode_problem, arch, w0, sched, cfg)
        assert gt.converged
        assert gt.final_loss <= 1e-4
        assert len(gt.expansions) <= 4
        for event in gt.expansions:
            assert event.model_drift <= 1e-12
            assert event.min_nonzero_eig_after > 0
        # loss continuity across segment boundaries
        for seg_prev, seg_next in zip(gt.segments, gt.segments[1:]):
            assert abs(seg_next.loss[0] - seg_prev.loss[-1]) <= 1e-12
        # monotone best loss across levels
        best = [float(np.min(seg.loss)) for seg in gt.segments]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))

    def test_representable_target_needs_no_expansion(self, basis_128):
        phi = sp.field_from_modes(basis_128, [(2, 0.7)])
        p = pr.quadratic_problem(basis_128, phi)
        # oracle: exact fit at one pair
        obj = fl.ParametricObjective(p, ar.sinusoid_architecture(basis_128, 1))
        assert obj.value_and_grad(np.array([0.0, 2.0, 0.7]))[0] <= 1e-20
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.0, 1.9, 0.5]))
        sched = gr.GrowthSchedule(max_levels=4, solution_tol=1e-8)
        gt = gr.run_growth_loop(
            p, arch, w0, sched, fl.FlowConfig(t_end=200.0, record_every=0.2)
        )
        assert gt.converged
        assert len(gt.expansions) == 0

    def test_schedule_exhaustion_is_not_an_error(self, three_mode_problem, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.2, 1.3, 0.1]))
        sched = gr.GrowthSchedule(max_levels=1, solution_tol=1e-8)
        cfg = fl.FlowConfig(t_end=400.0, record_every=0.5, stall_window=40)
        gt = gr.run_growth_loop(three_mode_problem, arch, w0, sched, cfg)
        assert not gt.converged
        assert len(gt.segments) == 1
        assert len(gt.expansions) == 0
        assert gt.segments[0].terminal_reason in ("stall", "grad_stop")

    def test_rejection_carries_partial_trace(self, basis_128):
        # the pair's frequency stays pinned at 1.0: the residual mode sin 2x
        # is orthogonal to both the sine row and its frequency derivative,
        # so the stalled state still carries frequency 1.0 and a forced
        # duplicate must be rejected
        phi = sp.field_from_modes(basis_128, [(0, 0.8), (2, 0.3)])
        p = pr.quadratic_problem(basis_128, phi)
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.0, 1.0, 0.0]))
        sched = gr.GrowthSchedule(
            max_levels=3, solution_tol=1e-8, forced_frequencies=(1.0,)
        )
        cfg = fl.FlowConfig(
            t_end=400.0, record_every=0.5, stall_window=40, stall_rel_change=1e-9
        )
        with pytest.raises(ExpansionRejectedError) as err:
            gr.run_growth_loop(p, arch, w0, sched, cfg)
        partial = err.value.growth_trace
        assert len(partial.segments) == 1
        assert partial.segments[0].loss[-1] > 1e-3

    def test_forced_frequencies_consumed_in_order(self, basis_128):
        # each expansion takes the next forced frequency, not the first again
        phi = sp.field_from_modes(basis_128, [(1, 0.5), (2, 0.3), (3, 0.25)])
        p = pr.quadratic_problem(basis_128, phi)
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.0, 1.1, 0.4]))
        sched = gr.GrowthSchedule(max_levels=3, solution_tol=1e-4, forced_frequencies=(2.0, 3.0))
        cfg = fl.FlowConfig(t_end=400.0, record_every=0.5, stall_window=40, stall_rel_change=1e-9)
        gt = gr.run_growth_loop(p, arch, w0, sched, cfg)
        assert [e.new_frequencies for e in gt.expansions] == [(2.0,), (3.0,)]

    def test_projection_extension_round_trip(self, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 1)
        w = ar.ParamVector(np.array([0.3, 1.7, -0.4]))
        _, w2, _ = gr.expand(arch, w, gr.GrowthSchedule())
        assert np.array_equal(w2.values[: w.size], w.values)
        assert w2.level == w.level + 1


class TestPruneInSitu:
    def test_zero_amplitude_pair_removed(self, basis_128):
        phi = sp.field_from_modes(basis_128, [(1, 0.5)])
        p = pr.quadratic_problem(basis_128, phi)
        arch = ar.sinusoid_architecture(basis_128, 2)
        w = ar.ParamVector(np.array([0.2, 1.0, 0.8, 2.0, 0.0]))
        a2, w2, report = gr.prune_in_situ(p, arch, w)
        assert report.pruned
        assert report.removed_pairs == (1,)
        assert np.array_equal(w2.values, np.array([0.2, 1.0, 0.8]))
        assert report.model_drift <= 1e-12

    def test_all_amplitudes_live_is_noop(self, basis_128):
        phi = sp.field_from_modes(basis_128, [(1, 0.5)])
        p = pr.quadratic_problem(basis_128, phi)
        arch = ar.sinusoid_architecture(basis_128, 2)
        w = ar.ParamVector(np.array([0.2, 1.0, 0.8, 2.0, 0.3]))
        a2, w2, report = gr.prune_in_situ(p, arch, w)
        assert not report.pruned
        assert a2 is arch and w2 is w

    def test_refuses_when_pruned_system_is_critical(self, three_mode_problem, basis_128):
        # run the one-pair flow into its stall point, then append a dead
        # pair: the pruned 3-parameter system is exactly the stalled one
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.2, 1.3, 0.1]))
        cfg = fl.FlowConfig(
            t_end=400.0, record_every=0.5, stall_window=40, stall_rel_change=1e-9
        )
        trace = fl.integrate_parametric(three_mode_problem, arch, w0, cfg)
        w_star = trace.terminal_state.values
        # brute-force scan: the stalled point minimizes the 3-parameter
        # gradient norm in its neighborhood
        obj = fl.ParametricObjective(three_mode_problem, arch)
        g_star = np.linalg.norm(obj.value_and_grad(w_star)[1])
        rng = np.random.default_rng(5)
        for _ in range(200):
            probe = w_star + rng.uniform(-0.05, 0.05, size=3)
            assert np.linalg.norm(obj.value_and_grad(probe)[1]) >= g_star
        arch2 = ar.sinusoid_architecture(basis_128, 2)
        w_dead = ar.ParamVector(np.concatenate([w_star, [2.0, 1e-12]]))
        a2, w2, report = gr.prune_in_situ(three_mode_problem, arch2, w_dead)
        assert not report.pruned
        assert report.reason == "would create critical point"

    def test_refuses_at_critical_point(self, basis_128):
        phi = sp.field_from_modes(basis_128, [(1, 0.5)])
        p = pr.quadratic_problem(basis_128, phi)
        arch = ar.sinusoid_architecture(basis_128, 2)
        w = ar.ParamVector(np.array([0.0, 1.0, 0.5, 2.0, 0.0]))  # exact solution
        _, _, report = gr.prune_in_situ(p, arch, w)
        assert not report.pruned
        assert report.reason == "flow is at a critical point"

    def test_randomized_mid_flow_checks(self, basis_128):
        # pruning dead pairs never moves the model and never fires at
        # critical points, across randomized mid-flow states
        phi = sp.field_from_modes(basis_128, [(1, 0.5), (2, 0.3)])
        p = pr.quadratic_problem(basis_128, phi)
        rng = np.random.default_rng(6)
        fired = 0
        for _ in range(50):
            pairs = int(rng.integers(2, 4))
            arch = ar.sinusoid_architecture(basis_128, pairs)
            w = np.empty(2 * pairs + 1)
            w[0] = rng.uniform(-1, 1)
            w[1::2] = rng.uniform(0.5, 4.0, size=pairs)
            w[2::2] = rng.uniform(0.3, 1.5, size=pairs)
            dead = rng.integers(0, pairs)
            w[2 + 2 * dead] = 0.0
            wv = ar.ParamVector(w)
            obj = fl.ParametricObjective(p, arch)
            grad_norm = np.linalg.norm(obj.value_and_grad(w)[1])
            a2, w2, report = gr.prune_in_situ(p, arch, wv)
            if report.pruned:
                fired += 1
                before = ar.evaluate(arch, wv)
                after = ar.evaluate(a2, w2)
                denom = max(sp.norm(before), 1.0)
                assert sp.norm(after - before) / denom <= 1e-12
                assert grad_norm >= gr.PruneTolerances().grad_floor
        assert fired >= 45  # non-critical states overwhelmingly prune


class TestCriticalReports:
    def test_growth_trace_carries_classifications(self, three_mode_problem, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.2, 1.3, 0.1]))
        sched = gr.GrowthSchedule(max_levels=5, solution_tol=1e-4)
        cfg = fl.FlowConfig(
            t_end=400.0, record_every=0.5, stall_window=40, stall_rel_change=1e-9
        )
        gt = gr.run_growth_loop(three_mode_problem, arch, w0, sched, cfg)
        assert len(gt.critical_reports) == len(gt.expansions)
        for rep in gt.critical_reports:
            assert rep.case in ("orthogonal_kernel", "degenerate_gram", "mixed", "none")


def test_expand_events_recorded_on_segments(three_mode_problem, basis_128):
    arch = ar.sinusoid_architecture(basis_128, 1)
    w0 = ar.ParamVector(np.array([0.2, 1.3, 0.1]))
    sched = gr.GrowthSchedule(max_levels=5, solution_tol=1e-4)
    cfg = fl.FlowConfig(
        t_end=400.0, record_every=0.5, stall_window=40, stall_rel_change=1e-9
    )
    gt = gr.run_growth_loop(three_mode_problem, arch, w0, sched, cfg)
    assert len(gt.expansions) >= 1
    for seg, _ in zip(gt.segments, gt.expansions):
        assert any(e.kind == "expand" for e in seg.events)
