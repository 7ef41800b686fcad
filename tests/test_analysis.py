import numpy as np
import pytest

from gradlab import analysis as an
from gradlab import architectures as ar
from gradlab import flows as fl
from gradlab import problems as pr
from gradlab import spaces as sp

from conftest import gram_at


@pytest.fixture(scope="module")
def power_flow(basis_64):
    """Traces of the scalar losses w**(2k) for k = 1, 2, 3, built from the
    quadratic problem and monomial curves with |b|^2 = 2."""
    b = sp.field_from_modes(basis_64, [(1, 1.0)])
    b = b * (np.sqrt(2.0) / sp.norm(b))
    zero = pr.quadratic_problem(basis_64, sp.zero_field(basis_64))
    traces = {}
    horizons = {1: (8.0, 0.02), 2: (2e5, 40.0), 3: (5e6, 1000.0)}
    for k in (1, 2, 3):
        poly = [0.0] * k + [1.0]
        arch = ar.curve_architecture([(poly, b)])
        t_end, dt = horizons[k]
        cfg = fl.FlowConfig(t_end=t_end, record_every=dt)
        traces[k] = fl.integrate_parametric(
            zero, arch, ar.ParamVector(np.array([1.0])), cfg
        )
    return traces


class TestLojasiewiczEstimate:
    def test_quadratic_alpha_half(self, power_flow):
        est = an.estimate_lojasiewicz(power_flow[1], 0.0)
        assert est is not None
        assert est.alpha_hat == pytest.approx(0.5, abs=0.02)
        assert est.fit_quality >= 0.99

    def test_quartic_alpha_three_quarters(self, power_flow):
        est = an.estimate_lojasiewicz(power_flow[2], 0.0)
        assert est is not None
        assert est.alpha_hat == pytest.approx(0.75, abs=0.03)

    def test_power_family_recovery(self, power_flow):
        # alpha = (2k - 1) / (2k) for the loss w**(2k)
        for k, trace in power_flow.items():
            est = an.estimate_lojasiewicz(trace, 0.0)
            assert est is not None
            assert est.alpha_hat == pytest.approx((2 * k - 1) / (2 * k), abs=0.03)

    def test_too_few_points_inconclusive(self, power_flow):
        trace = power_flow[1]
        short = fl.FlowTrace(
            kind="parametric",
            t=trace.t[:5],
            loss=trace.loss[:5],
            grad_norm=trace.grad_norm[:5],
            terminal_reason="t_end",
            terminal_state=trace.terminal_state,
            config=trace.config,
        )
        assert an.estimate_lojasiewicz(short, 0.0) is None

    def test_self_referenced_target_flagged(self, basis_64):
        # no known solution: the target falls back to the terminal loss
        c = sp.field_from_modes(basis_64, [(1, 1.0)])

        def res(g):
            return g - c

        p = pr.custom_problem(basis_64, res, lambda g, r: r, name="anon")
        arch = ar.affine_architecture(
            [sp.Field(np.eye(64)[1] / np.sqrt(np.pi), basis_64)]
        )
        w0 = ar.ParamVector(np.array([3.0]))
        trace = fl.integrate_parametric(p, arch, w0, fl.FlowConfig(t_end=14.0, record_every=0.01))
        est = an.estimate_lojasiewicz(trace)
        assert est is not None and est.self_referenced


class TestClassifyRate:
    def test_exponential_flow(self, power_flow):
        rc = an.classify_rate(power_flow[1], 0.0)
        assert rc is not None
        assert rc.kind == "exponential"
        assert rc.rate == pytest.approx(2.0, rel=0.05)
        assert rc.predicted_alpha == 0.5

    def test_polynomial_flow(self, power_flow):
        rc = an.classify_rate(power_flow[2], 0.0)
        assert rc is not None
        assert rc.kind == "polynomial"
        assert rc.exponent == pytest.approx(0.5, abs=0.05)
        assert rc.predicted_alpha == pytest.approx(0.75, abs=0.03)

    def test_constant_trace_inconclusive(self):
        cfg = fl.FlowConfig(t_end=1.0)
        n = 100
        trace = fl.FlowTrace(
            kind="parametric",
            t=np.linspace(0, 1, n),
            loss=np.full(n, 0.5),
            grad_norm=np.full(n, 0.1),
            terminal_reason="t_end",
            terminal_state=None,
            config=cfg,
        )
        assert an.classify_rate(trace, 0.0) is None

    def test_consistent_with_lojasiewicz_fit(self, power_flow):
        for trace in power_flow.values():
            est = an.estimate_lojasiewicz(trace, 0.0)
            rc = an.classify_rate(trace, 0.0)
            assert est is not None and rc is not None
            assert abs(rc.predicted_alpha - est.alpha_hat) <= 0.05


class TestClassifyCriticalPoint:
    def test_solved_quadratic_is_at_solution(self, basis_64):
        phi = sp.field_from_modes(basis_64, [(1, 0.5)])
        p = pr.quadratic_problem(basis_64, phi)
        arch = ar.sinusoid_architecture(basis_64, 1)
        w_star = ar.ParamVector(np.array([0.0, 1.0, 0.5]))
        report = an.classify_critical_point(p, arch, w_star)
        assert report.case == "at_solution"

    def test_sinusoid_origin_orthogonality(self, basis_64):
        # all parameters zero: the Gram keeps its constant-direction entry
        # (2 pi), so the degenerate case must NOT fire; with a target
        # orthogonal to the constant the gradient sits in the kernel
        arch = ar.sinusoid_architecture(basis_64, 1)
        w0 = ar.ParamVector(np.zeros(3))
        diag = gram_at(arch, w0)
        assert diag.gram[0, 0] == pytest.approx(2 * np.pi, rel=1e-2)  # not degenerate
        phi_orth = sp.field_from_modes(basis_64, [(2, 0.7)])  # <1, sin 2x> = 0
        p = pr.quadratic_problem(basis_64, phi_orth)
        report = an.classify_critical_point(p, arch, w0)
        assert report.case == "orthogonal_kernel"
        # with a constant component in the target the origin is not critical
        phi_mixed = sp.field_from_modes(basis_64, [(0, 0.5), (2, 0.7)])
        p2 = pr.quadratic_problem(basis_64, phi_mixed)
        report2 = an.classify_critical_point(p2, arch, w0)
        assert report2.case == "none"

    def test_spiral_orthogonal_stall(self):
        # brute-force oracle: scan the 1-D parameter gradient for sign
        # changes with positive distance to the target, refine by bisection
        arch = ar.spiral_architecture()
        e = arch.target_basis
        phi = sp.Field(np.array([0.0, -5.0]), e)
        p = pr.quadratic_problem(e, phi)
        obj = fl.ParametricObjective(p, arch)

        def dloss(w):
            return obj.value_and_grad(np.array([w]))[1][0]

        grid = np.linspace(0.5, 12.0, 23001)
        vals = np.array([dloss(w) for w in grid])
        idx = np.nonzero(np.diff(np.sign(vals)))[0]
        assert idx.size > 0
        lo, hi = grid[idx[0]], grid[idx[0] + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.sign(dloss(mid)) == np.sign(dloss(lo)):
                lo = mid
            else:
                hi = mid
        w_star = ar.ParamVector(np.array([0.5 * (lo + hi)]))
        model = ar.evaluate(arch, w_star)
        assert sp.norm(model - phi) > 0.1  # genuinely away from the target
        report = an.classify_critical_point(p, arch, w_star)
        assert report.case == "orthogonal_kernel"

    def test_never_at_solution_with_large_model_error(self, basis_64):
        phi = sp.field_from_modes(basis_64, [(1, 0.5), (3, 0.3)])
        p = pr.quadratic_problem(basis_64, phi)
        arch = ar.sinusoid_architecture(basis_64, 1)
        w0 = ar.ParamVector(np.array([0.0, 1.05, 0.45]))
        trace = fl.integrate_parametric(
            p, arch, w0, fl.FlowConfig(t_end=3000.0, record_every=0.5)
        )
        w_star = trace.terminal_state
        err = sp.norm(ar.evaluate(arch, w_star) - phi)
        assert err > 1e-3
        report = an.classify_critical_point(p, arch, w_star)
        assert report.case != "at_solution"

    def test_noncritical_reports_none(self, basis_64):
        phi = sp.field_from_modes(basis_64, [(1, 0.5)])
        p = pr.quadratic_problem(basis_64, phi)
        arch = ar.sinusoid_architecture(basis_64, 1)
        report = an.classify_critical_point(
            p, arch, ar.ParamVector(np.array([0.5, 2.0, 1.0]))
        )
        assert report.case == "none"
        assert report.param_grad_norm > 1e-3


class TestKernelDecayFit:
    def test_affine_floor_stays_open(self, basis_64):
        phi = sp.field_from_modes(basis_64, [(1, 0.5)])
        p = pr.quadratic_problem(basis_64, phi)
        arch = ar.affine_architecture(
            [sp.Field(np.eye(64)[1] / np.sqrt(np.pi), basis_64)]
        )
        w0 = ar.ParamVector(np.array([2.0]))
        trace = fl.integrate_parametric(p, arch, w0, fl.FlowConfig(t_end=10.0))
        fit = an.fit_kernel_decay(trace, trace.terminal_state, alpha=0.5)
        assert fit.r_hat == 0.0
        assert fit.predicted_alpha_star == 0.5

    def test_monomial_square_decay(self, basis_64):
        # A(w) = w^2 b: Gram = 4 w^2 |b|^2, so r = 2 and
        # alpha* = (alpha + 2) / 3
        b = sp.field_from_modes(basis_64, [(1, 1.0)])
        b = b * (1.0 / sp.norm(b))
        arch = ar.monomial_architecture(2, b)
        p = pr.quadratic_problem(basis_64, sp.zero_field(basis_64))
        w0 = ar.ParamVector(np.array([1.0]))
        # deep horizon so the kernel floor decays past the open-floor
        # threshold (mu = 4 w^2 must dip below 1e-6)
        trace = fl.integrate_parametric(
            p, arch, w0, fl.FlowConfig(t_end=2e6, record_every=400.0)
        )
        w_star = ar.ParamVector(np.array([0.0]))
        fit = an.fit_kernel_decay(trace, w_star, alpha=0.75)
        assert fit.r_hat == pytest.approx(2.0, abs=0.02)
        assert fit.predicted_alpha_star == pytest.approx((0.75 + 2) / 3, abs=0.01)
        # oracle: direct Gram evaluation along the stored path
        d = np.abs(trace.params[:, 0])
        mu = trace.min_nonzero_eig
        keep = (mu > 1e-12) & (d > 1e-6)
        ratio = mu[keep] / d[keep] ** 2
        assert np.allclose(ratio, 4.0, rtol=1e-6)

    def test_sinusoid_amplitude_collapse(self, basis_64):
        # target zero: the amplitude decays to zero and the frequency row
        # degenerates with it; the kernel floor decays quadratically
        p = pr.quadratic_problem(basis_64, sp.zero_field(basis_64))
        arch = ar.sinusoid_architecture(basis_64, 1)
        w0 = ar.ParamVector(np.array([0.0, 2.0, 0.6]))
        trace = fl.integrate_parametric(
            p, arch, w0, fl.FlowConfig(t_end=20.0, record_every=0.02)
        )
        w_star = trace.terminal_state
        fit = an.fit_kernel_decay(trace, w_star, alpha=0.5)
        assert fit.r_hat > 0.5
        assert fit.fit_quality > 0.9
        assert fit.envelope_fraction >= 0.95
        # oracle: recompute the kernel floor directly along the path
        idx = np.linspace(0, trace.n_samples - 1, 20).astype(int)
        for i in idx:
            diag = gram_at(arch, ar.ParamVector(trace.params[i]))
            assert diag.min_nonzero_eig == pytest.approx(
                trace.min_nonzero_eig[i], rel=1e-9, abs=1e-12
            )

    @staticmethod
    def _synthetic_trace(d, mu):
        n = d.size
        return fl.FlowTrace(
            kind="parametric",
            t=np.arange(n, dtype=float),
            loss=np.ones(n),
            grad_norm=np.ones(n),
            terminal_reason="stall",
            terminal_state=None,
            config=fl.FlowConfig(),
            min_nonzero_eig=mu,
            params=d[:, None],
        )

    def test_envelope_exact_power_law_any_tail_size(self):
        # the first point is the peak; the other n form the fitted tail
        w_star = ar.ParamVector(np.zeros(1))
        for n in range(240, 281):
            d = np.concatenate([[1.0], np.geomspace(0.3, 1e-6, n)])
            fit = an.fit_kernel_decay(
                self._synthetic_trace(d, 3.0 * d**2), w_star, alpha=0.5
            )
            assert fit.n_points == n
            assert fit.r_hat == pytest.approx(2.0, abs=1e-9)
            assert fit.envelope_fraction >= 0.95

    def test_envelope_catches_law_steepening_near_limit(self):
        # mu ~ d^2 far from w*, ~ d^4 close to it: the fitted exponent is
        # an average, and the near points fall below the far constant
        w_star = ar.ParamVector(np.zeros(1))
        d = np.concatenate([[1.0], np.geomspace(0.3, 1e-6, 260)])
        dc = np.sqrt(0.3 * 1e-6)
        mu = d**4 / (d**2 + dc**2)
        fit = an.fit_kernel_decay(self._synthetic_trace(d, mu), w_star, alpha=0.5)
        assert fit.n_points == 260
        assert 2.5 < fit.r_hat < 3.5
        assert fit.envelope_fraction < 0.7

    def test_floor_above_threshold_returns_zero_exponent(self, basis_64):
        phi = sp.field_from_modes(basis_64, [(1, 0.5)])
        p = pr.quadratic_problem(basis_64, phi)
        arch = ar.sinusoid_architecture(basis_64, 1)
        w0 = ar.ParamVector(np.array([0.0, 1.0, 0.1]))
        trace = fl.integrate_parametric(p, arch, w0, fl.FlowConfig(t_end=50.0))
        tail = trace.min_nonzero_eig[-max(5, trace.n_samples // 5):]
        assert np.min(tail) > 1e-6
        fit = an.fit_kernel_decay(trace, trace.terminal_state, alpha=0.5)
        assert fit.r_hat == 0.0


class TestPdeLojasiewiczConsistency:
    def test_npbe_parametric_alpha_band_and_unit_constant(self):
        # desk-scale PDE run: the fitted exponent sits at 1/2 and the
        # inequality |loss|^alpha <= C |grad| holds across the tail with
        # the unit constant, so a constant >= 1 validates the fit (the
        # half-residual-norm convention shifts the binding constant; see
        # the normalization note in the problems module)
        basis = sp.make_space(sp.Domain(1), 24)
        phi = sp.field_from_modes(basis, [(1, 0.6), (2, 0.25)])
        p = pr.npbe_problem(basis, phi)
        arch = ar.sinusoid_architecture(basis, 2)
        w0 = ar.ParamVector(np.array([0.05, 1.05, 0.5, 2.1, 0.2]))
        trace = fl.integrate_parametric(
            p, arch, w0, fl.FlowConfig(t_end=80.0, record_every=0.05)
        )
        est = an.estimate_lojasiewicz(trace, 0.0)
        assert est is not None
        assert est.alpha_hat <= 0.55
        assert 0.45 <= est.alpha_hat
        # inequality verification with C = max(C_hat, 1)
        c_check = max(est.c_hat, 1.0)
        window = (trace.loss >= 1e-12) & (trace.loss <= 1e-2)
        lhs = trace.loss[window] ** est.alpha_hat
        rhs = c_check * trace.grad_norm[window]
        assert np.mean(lhs <= rhs * (1 + 1e-6)) >= 0.95
