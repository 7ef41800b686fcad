import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gradlab import architectures as ar
from gradlab import flows as fl
from gradlab import growth as gr
from gradlab import problems as pr
from gradlab import spaces as sp
from gradlab import traceio
from gradlab.errors import ConfigurationError, DivergenceError

from conftest import gram_at, kernel_at


@pytest.fixture(scope="module")
def quad_problem(basis_128):
    phi = sp.field_from_modes(basis_128, [(1, 0.6), (3, 0.25)])
    return pr.quadratic_problem(basis_128, phi)


def double_well_fixture():
    """Tilted quartic on the plane: loss(w) = 0.5 (w^2 - 1)^2 +
    0.5 gamma^2 (w - a)^2 via a one-parameter curve."""
    e = sp.make_euclidean(2)
    e1 = sp.Field(np.array([1.0, 0.0]), e)
    e2 = sp.Field(np.array([0.0, 1.0]), e)
    gamma, tilt = 0.5, 1.8
    arch = ar.curve_architecture([([0, 0, 1.0], e1), ([0, gamma], e2)])
    phi = sp.Field(np.array([1.0, gamma * tilt]), e)
    problem = pr.quadratic_problem(e, phi)

    def loss(w):
        return 0.5 * (w * w - 1) ** 2 + 0.5 * gamma**2 * (w - tilt) ** 2

    # exhaustive basin map: critical points from a dense derivative scan
    grid = np.linspace(-3, 3, 600001)
    slope = 2 * grid * (grid**2 - 1) + gamma**2 * (grid - tilt)
    crossings = grid[np.nonzero(np.diff(np.sign(slope)))[0]]
    shallow, barrier, deep = crossings
    assert loss(deep) < loss(shallow) < loss(barrier)
    return problem, arch, float(shallow), float(barrier), float(deep)


class TestNominal:
    def test_quadratic_closed_form_decay(self, quad_problem, basis_128):
        g0 = sp.field_from_modes(basis_128, [(1, 1.5), (2, 0.7)])
        cfg = fl.FlowConfig(t_end=5.0, record_every=0.05)
        trace = fl.integrate_nominal(quad_problem, g0, cfg)
        assert trace.terminal_reason == "t_end"
        ratio = trace.model_error[-1] / trace.model_error[0]
        assert ratio == pytest.approx(np.exp(-5.0), rel=1e-6)

    def test_stationary_at_solution(self, quad_problem):
        cfg = fl.FlowConfig(t_end=5.0)
        trace = fl.integrate_nominal(quad_problem, quad_problem.known_solution, cfg)
        assert trace.terminal_reason == "grad_stop"
        assert trace.t[-1] == 0.0

    def test_npbe_monotone_loss(self, basis_128):
        phi = sp.field_from_modes(basis_128, [(1, 0.6), (2, 0.25)])
        p = pr.npbe_problem(basis_128, phi)
        g0 = sp.field_from_modes(basis_128, [(1, 0.2)])
        cfg = fl.FlowConfig(t_end=25.0, record_every=0.05)
        trace = fl.integrate_nominal(p, g0, cfg)
        assert fl.lyapunov_check(trace, 1e-9) == []
        assert trace.loss[-1] < 1e-15

    def test_divergence_from_absurd_state(self, basis_128):
        phi = sp.field_from_modes(basis_128, [(1, 0.1)])
        p = pr.npbe_problem(basis_128, phi)
        g0 = sp.field_from_modes(basis_128, [(1, 1e6)])
        cfg = fl.FlowConfig(t_end=10.0, max_steps=2000)
        trace = fl.integrate_nominal(p, g0, cfg)
        assert trace.terminal_reason == "divergence"
        assert any(e.kind == "clamp" for e in trace.events)


class TestParametric:
    def test_affine_rate_bounded_by_kernel_floor(self, basis_128):
        # residual confined to the architecture span: log-loss slope is
        # bounded by twice the smallest Gram eigenvalue
        f1 = sp.Field(np.eye(128)[0] * np.sqrt(2 / np.pi), basis_128)  # norm sqrt(2)
        f2 = sp.Field(np.eye(128)[2] * 0.7 / np.sqrt(np.pi), basis_128)  # norm 0.7
        arch = ar.affine_architecture([f1, f2])
        phi = sp.Field(1.3 * f1.coeffs - 0.4 * f2.coeffs, basis_128)
        p = pr.quadratic_problem(basis_128, phi)
        w0 = ar.ParamVector(np.array([0.0, 0.0]))
        diag = gram_at(arch, w0, sp.SobolevOrder.L2)
        mu_min = diag.min_nonzero_eig
        cfg = fl.FlowConfig(t_end=3.0, record_every=0.01)
        trace = fl.integrate_parametric(p, arch, w0, cfg)
        mask = trace.loss > 1e-12
        slope = np.polyfit(trace.t[mask], np.log(trace.loss[mask]), 1)[0]
        assert slope <= -2.0 * mu_min * (1 - 0.05)

    def test_exact_critical_point_stops_immediately(self, quad_problem, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 1)
        # Phi here contains modes the architecture can represent; the exact
        # solution for one pair on the first target mode:
        phi1 = sp.field_from_modes(basis_128, [(2, 0.4)])
        p = pr.quadratic_problem(basis_128, phi1)
        w_star = ar.ParamVector(np.array([0.0, 2.0, 0.4]))
        trace = fl.integrate_parametric(p, arch, w_star, fl.FlowConfig(t_end=10.0))
        assert trace.terminal_reason == "grad_stop"
        assert trace.t[-1] == 0.0

    def test_sinusoid_single_pair_fit(self, basis_128):
        # brute-force oracle: global minimum of the (frequency, amplitude)
        # landscape at (1, 0.5) up to sign symmetry
        phi = sp.field_from_modes(basis_128, [(1, 0.5)])
        p = pr.quadratic_problem(basis_128, phi)
        arch = ar.sinusoid_architecture(basis_128, 1)
        obj = fl.ParametricObjective(p, arch)
        freqs = np.linspace(0.2, 3.0, 57)
        amps = np.linspace(-1.0, 1.0, 41)
        best = min(
            (obj.value_and_grad(np.array([0.0, f, a]))[0], f, a)
            for f in freqs
            for a in amps
        )
        assert best[0] <= 1e-12 and abs(best[1] - 1.0) < 1e-9 and abs(best[2] - 0.5) < 1e-9
        w0 = ar.ParamVector(np.array([0.0, 1.0, 0.1]))
        trace = fl.integrate_parametric(p, arch, w0, fl.FlowConfig(t_end=100.0))
        assert trace.loss[-1] <= 1e-10
        w = trace.terminal_state.values
        assert abs(w[0]) < 1e-6
        assert abs(abs(w[1]) - 1.0) < 1e-6
        assert abs(abs(w[2]) - 0.5) < 1e-6
        assert np.sign(w[1] * w[2]) == 1.0  # consistent signs reproduce +0.5 sin x

    def test_energy_identity(self, quad_problem, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.3, 1.4, 0.2]))
        cfg = fl.FlowConfig(t_end=3.0, record_every=0.005)
        trace = fl.integrate_parametric(quad_problem, arch, w0, cfg)
        t, loss, g2 = trace.t, trace.loss, trace.grad_norm**2
        checked = 0
        for i in range(1, trace.n_samples - 1):
            if g2[i] > 1e-8:
                slope = (loss[i + 1] - loss[i - 1]) / (t[i + 1] - t[i - 1])
                assert slope == pytest.approx(-g2[i], rel=0.05)
                checked += 1
        assert checked > 50

    def test_model_flow_identity(self, basis_128):
        # dN/dt matches the tangent-kernel image of the loss gradient
        phi = sp.field_from_modes(basis_128, [(1, 0.5), (2, 0.2)])
        p = pr.quadratic_problem(basis_128, phi)
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.1, 1.3, 0.3]))
        cfg = fl.FlowConfig(t_end=1.0, record_every=0.002)
        trace = fl.integrate_parametric(p, arch, w0, cfg)
        dt = trace.t[2] - trace.t[1]
        idx = np.linspace(5, trace.n_samples - 6, 10).astype(int)
        for i in idx:
            w_prev = ar.ParamVector(trace.params[i - 1])
            w_mid = ar.ParamVector(trace.params[i])
            w_next = ar.ParamVector(trace.params[i + 1])
            dn = (
                ar.evaluate(arch, w_next) - ar.evaluate(arch, w_prev)
            ) * (1.0 / (2 * dt))
            ev = pr.nominal_loss(p, ar.evaluate(arch, w_mid))
            expected = -1.0 * kernel_at(arch, w_mid, ev.gradient)
            scale = sp.norm(expected)
            assert sp.norm(dn - expected) / scale <= 1e-3

    def test_stall_detected_on_plateau(self, basis_128):
        # single pair cannot represent the residual's second mode: the flow
        # levels off at positive loss and must stall in finite time
        phi = sp.field_from_modes(basis_128, [(1, 0.5), (3, 0.3)])
        p = pr.quadratic_problem(basis_128, phi)
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.0, 1.05, 0.45]))
        cfg = fl.FlowConfig(t_end=3000.0, record_every=0.5, stall_window=40)
        trace = fl.integrate_parametric(p, arch, w0, cfg)
        assert trace.terminal_reason in ("stall", "grad_stop")
        assert trace.loss[-1] > 1e-3
        assert trace.t[-1] < 3000.0

    def test_trace_invariants(self, quad_problem, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.1, 1.2, 0.4]))
        trace = fl.integrate_parametric(quad_problem, arch, w0, fl.FlowConfig(t_end=5.0))
        assert np.all(np.diff(trace.t) > 0)
        assert np.all(np.isfinite(trace.loss))
        assert trace.min_nonzero_eig is not None
        assert trace.params.shape == (trace.n_samples, 3)
        assert trace.events[-1].kind == "stop"


# (Euclidean size, polynomial degree per component, seed, w)
_CURVE_CASES = st.tuples(
    st.integers(1, 8),
    st.lists(st.integers(0, 4), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
    st.floats(-3.0, 3.0),
)


class TestScalarClosureMatchesKernel:
    """The pure-python curve closure computes what the kernel path does."""

    @settings(max_examples=200, deadline=None)
    @given(_CURVE_CASES)
    def test_closure_equals_kernel_path(self, case):
        size, degrees, seed, w = case
        rng = np.random.default_rng(seed)
        e = sp.make_euclidean(size)
        polys = [rng.standard_normal(deg + 1) for deg in degrees]
        rows = [rng.standard_normal(size) for _ in degrees]
        offset, phi = rng.standard_normal(size), rng.standard_normal(size)
        arch = ar.curve_architecture(
            [(list(poly), sp.Field(b, e)) for poly, b in zip(polys, rows)], sp.Field(offset, e)
        )
        p = pr.quadratic_problem(e, sp.Field(phi, e))
        fast = fl.ParametricObjective(p, arch)
        ref = fl.ParametricObjective(p, arch)
        ref._scalar = None
        assert fast._scalar is not None
        values = np.array([w])
        loss_f, grad_f, _ = fast.value_and_grad(values)
        loss_r, grad_r, _ = ref.value_and_grad(values)
        # the two paths sum the same terms in different orders; each residual
        # entry r_k is off by at most (degree + components + 2) eps T_k, where
        # T_k sums the magnitudes of its terms, so the loss is off by at most
        # (2 (degree + components + 2) + size) eps sum T_k^2 < 32 eps sum T_k^2,
        # and the derivative by the same factor times sum T_k D_k
        aw = abs(w)
        q_abs = [np.polynomial.polynomial.polyval(aw, np.abs(poly)) for poly in polys]
        dq_abs = [
            np.polynomial.polynomial.polyval(aw, np.abs(np.polynomial.polynomial.polyder(poly)))
            for poly in polys
        ]
        terms = np.abs(offset) + np.abs(phi) + sum(q * np.abs(b) for q, b in zip(q_abs, rows))
        dterms = sum(dq * np.abs(b) for dq, b in zip(dq_abs, rows))
        eps = np.finfo(float).eps
        assert abs(loss_f - loss_r) <= 32 * eps * np.dot(terms, terms)
        assert abs(grad_f[0] - grad_r[0]) <= 32 * eps * np.dot(terms, dterms)


def _reference_curve_closure(arch, phi):
    """The curve closure as an interpreted loop over the structure: for
    each component, Horner from the highest coefficient, then per target
    entry ``rk += q_j*b_jk; drk += dq_j*b_jk`` over the components in order,
    then ``loss += rk*rk; deriv += rk*drk``."""
    comps, offset = arch.structure
    polys = [list(poly) for poly, _ in comps]
    rows = [b.coeffs.tolist() for _, b in comps]
    with np.errstate(over="ignore"):
        off = (offset.coeffs - phi).tolist()

    def value_and_deriv(w):
        qs, dqs = [], []
        for poly in polys:
            q = 0.0
            dq = 0.0
            for c in reversed(poly):
                dq = dq * w + q
                q = q * w + c
            qs.append(q)
            dqs.append(dq)
        loss = 0.0
        deriv = 0.0
        for k in range(len(off)):
            rk = off[k]
            drk = 0.0
            for j in range(len(polys)):
                rk += qs[j] * rows[j][k]
                drk += dqs[j] * rows[j][k]
            loss += rk * rk
            deriv += rk * drk
        return 0.5 * loss, deriv

    return value_and_deriv


# signed zeros, units, subnormals and values whose sums and products overflow
_EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.7976931348623157e308]
# full-mantissa draws: their sums round, so a change of operation order shows
_NORMAL = st.integers(0, 2**32 - 1).map(lambda seed: float(np.random.default_rng(seed).normal()))
_EDGE_MIX = st.one_of(
    st.sampled_from(_EDGE_FLOATS), _NORMAL, st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _curve_structures(draw, numbers):
    """(architecture, phi) on a Euclidean target of size 1-8, with 1-3
    components of degree 0-4, every number drawn from ``numbers``."""
    size = draw(st.integers(1, 8))
    e = sp.make_euclidean(size)
    vector = st.lists(numbers, min_size=size, max_size=size)
    degrees = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    comps = [
        (draw(st.lists(numbers, min_size=deg + 1, max_size=deg + 1)), sp.Field(draw(vector), e))
        for deg in degrees
    ]
    offset, phi = sp.Field(draw(vector), e), np.array(draw(vector))
    return ar.curve_architecture(comps, offset), phi


def _assert_closure_equals_loop(structure, ws):
    arch, phi = structure
    generated = fl._curve_scalar_closure(arch, phi)
    loop = _reference_curve_closure(arch, phi)
    for w in ws:
        got, want = generated(w), loop(w)
        assert [type(x) for x in got] == [float, float]
        assert [x.hex() for x in got] == [x.hex() for x in want], w


class TestGeneratedClosureMatchesLoop:
    """The generated curve closure runs the loop's IEEE operations in the
    loop's order, so every result has the same bits (any NaN matches NaN)."""

    @settings(max_examples=200, deadline=None)
    @given(structure=_curve_structures(_NORMAL), ws=st.lists(_NORMAL, min_size=1, max_size=4))
    def test_same_rounding(self, structure, ws):
        _assert_closure_equals_loop(structure, ws)

    @settings(max_examples=300, deadline=None)
    @given(
        structure=_curve_structures(_EDGE_MIX),
        ws=st.lists(
            st.one_of(
                st.sampled_from(_EDGE_FLOATS + [math.inf, -math.inf, 1e154, -1e200]),
                _NORMAL, st.floats(),
            ),
            min_size=1, max_size=4,
        ),
    )
    def test_same_zeros_infinities_and_nans(self, structure, ws):
        _assert_closure_equals_loop(structure, ws)

    def test_overflowing_offset_is_a_literal(self):
        # offset - phi overflows to -inf, which the source spells as a name
        e = sp.make_euclidean(1)
        arch = ar.curve_architecture([([0.0, 1.0], sp.Field([1.0], e))], sp.Field([-1e308], e))
        generated = fl._curve_scalar_closure(arch, np.array([1e308]))
        assert generated(2.0) == (math.inf, -math.inf)


def _sample_cases():
    """(problem, architecture) pairs for the sample reference: sinusoid,
    affine and curve families on quadratic and NPBE problems, the curve on a
    Euclidean quadratic taking the scalar closure."""
    line = sp.make_space(sp.Domain(1), 16)
    phi = sp.field_from_modes(line, [(1, 0.6), (2, 0.25)])
    plane = sp.make_euclidean(2)
    e1, e2 = (sp.Field(v, plane) for v in np.eye(2))
    b1, b2 = (sp.field_from_modes(line, [(k, 1.0)]) for k in (1, 3))
    problems = [
        pr.quadratic_problem(line, phi, sp.SobolevOrder.W12),
        pr.npbe_problem(line, phi, sp.SobolevOrder.W22),
    ]
    archs = [
        ar.sinusoid_architecture(line, 2),
        ar.affine_architecture([b1, b2, phi]),
        ar.curve_architecture([([0.0, 0.3, 1.0], b1), ([0.5, 0.0, 0.0, -0.2], b2)]),
    ]
    well = ar.curve_architecture([([0.0, 0.0, 1.0], e1), ([0.0, 0.5], e2)])
    cases = [(p, a) for p in problems for a in archs]
    return cases + [(pr.quadratic_problem(plane, sp.Field([1.0, 0.9], plane)), well)]


_SAMPLE_CASES = _sample_cases()


def _reference_sample(p, arch, values):
    """A recorded sample as three separate model evaluations compute it:
    one inside ``value_and_grad``, one for the Gram matrix of the Jacobian
    rows under the problem metric, one for the L2 model error."""
    obj = fl.ParametricObjective(p, arch)
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad, clamped = obj.value_and_grad(values)
        _, jac = ar.compile_model_jac(arch)(values)
        gram = (jac * sp._metric_weights(p.basis, p.gradient_metric)) @ jac.T
        mu = ar._diagnostics_from_gram(0.5 * (gram + gram.T)).min_nonzero_eig
        model, _ = ar.compile_model_jac(arch)(values)
        d = model - p.known_solution.coeffs
        error = float(np.sqrt(np.dot(sp._metric_weights(p.basis, sp.SobolevOrder.L2) * d, d)))
    return loss, float(np.linalg.norm(grad)), mu, error, clamped


class TestSampleMatchesReference:
    """``ParametricObjective.sample`` evaluates the model once for its
    diagnostics and still equals the three-evaluation reference bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(
        case=st.integers(0, len(_SAMPLE_CASES) - 1),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.1, 3.0),
    )
    def test_sample_equals_reference(self, case, seed, scale):
        p, arch = _SAMPLE_CASES[case]
        values = scale * np.random.default_rng(seed).standard_normal(arch.n_params)
        loss, grad_norm, extras = fl.ParametricObjective(p, arch).sample(values)
        got = (loss, grad_norm, extras["mu"], extras["model_error"])
        want = _reference_sample(p, arch, values)
        bits = lambda xs: np.array(xs, dtype=np.float64).view(np.uint64).tolist()  # noqa: E731
        assert bits(got) == bits(want[:4])
        assert extras["clamped"] == want[4]
        assert extras["params"] is values

    def test_cases_cover_both_objective_paths(self):
        pairs = {(p.loss_kind, a.kind) for p, a in _SAMPLE_CASES}
        assert pairs == {
            (loss, kind)
            for loss in ("quadratic-distance", "half-residual-norm")
            for kind in ("sinusoid", "affine", "curve")
        }
        scalar = [fl.ParametricObjective(p, a)._scalar is not None for p, a in _SAMPLE_CASES]
        assert scalar == [False] * 6 + [True]


class TestAnnealed:
    def test_zero_noise_matches_deterministic(self, basis_128):
        phi = sp.field_from_modes(basis_128, [(1, 0.5)])
        p = pr.quadratic_problem(basis_128, phi)
        arch = ar.affine_architecture(
            [sp.Field(np.eye(128)[1] / np.sqrt(np.pi), basis_128)]
        )
        w0 = ar.ParamVector(np.array([2.0]))
        cfg = fl.FlowConfig(t_end=6.0, record_every=0.05, noise_beta=0.0)
        annealed = fl.integrate_annealed(p, arch, w0, cfg)
        deterministic = fl.integrate_parametric(p, arch, w0, cfg)
        assert abs(annealed.loss[-1] - deterministic.loss[-1]) <= 1e-4

    def test_same_seed_bit_identical(self):
        problem, arch, shallow, _, _ = double_well_fixture()
        w0 = ar.ParamVector(np.array([shallow]))
        cfg = fl.FlowConfig(
            t_end=5.0, record_every=0.1, seed=7, noise_beta=1.0, anneal_c=2.0
        )
        t1 = fl.integrate_annealed(problem, arch, w0, cfg)
        t2 = fl.integrate_annealed(problem, arch, w0, cfg)
        assert traceio.trace_to_lines(t1) == traceio.trace_to_lines(t2)

    def test_double_well_escape_smoke(self):
        problem, arch, shallow, barrier, deep = double_well_fixture()
        w0 = ar.ParamVector(np.array([-1.0]))
        # deterministic flow stays in the shallow basin
        det = fl.integrate_parametric(problem, arch, w0, fl.FlowConfig(t_end=50.0))
        assert det.terminal_state.values[0] == pytest.approx(shallow, abs=1e-3)
        # a few annealed seeds: most should cross to the deep basin
        hits = 0
        for seed in range(5):
            cfg = fl.FlowConfig(
                t_end=200.0, record_every=2.0, seed=seed,
                noise_beta=1.0, anneal_c=2.0, record_params=False,
            )
            tr = fl.integrate_annealed(problem, arch, w0, cfg)
            hits += tr.terminal_state.values[0] > barrier
        assert hits >= 3

    def test_lyapunov_exemption(self):
        problem, arch, shallow, _, _ = double_well_fixture()
        w0 = ar.ParamVector(np.array([shallow]))
        cfg = fl.FlowConfig(t_end=2.0, seed=1, noise_beta=1.0)
        tr = fl.integrate_annealed(problem, arch, w0, cfg)
        assert fl.lyapunov_check(tr, 1e-9) is None

    @pytest.mark.parametrize("kind", ["sinusoid", "curve"])
    def test_ends_on_t_end_when_the_step_does_not_divide_it(self, kind, basis_128):
        # 0.3 does not divide 50: 166 full steps and one of length 0.2
        if kind == "curve":
            problem, arch, shallow, _, _ = double_well_fixture()
            w0 = ar.ParamVector(np.array([shallow]))
        else:
            problem = pr.quadratic_problem(basis_128, sp.field_from_modes(basis_128, [(1, 0.5)]))
            arch = ar.sinusoid_architecture(basis_128, 1)
            w0 = ar.ParamVector(np.array([0.0, 1.4, 0.05]))
        cfg = fl.FlowConfig(t_end=50.0, record_every=0.5, seed=3, noise_beta=0.3, sde_step=0.3)
        trace = fl.integrate_annealed(problem, arch, w0, cfg)
        assert (trace.terminal_reason, trace.t[-1]) == ("t_end", 50.0)
        assert trace.events[-1].t == 50.0 and trace.counters == {"em_steps": 167}

    def test_requires_positive_sde_step(self):
        with pytest.raises(ConfigurationError):
            fl.FlowConfig(t_end=1.0, sde_step=0.0)

    @pytest.mark.parametrize(
        "name, value",
        [("anneal_c", -1.0), ("anneal_c", float("nan")), ("noise_beta", -0.1),
         ("noise_beta", float("inf")), ("sde_step", float("inf")), ("sde_step", float("nan")),
         ("t_end", float("nan")), ("t_end", float("inf")), ("rel_tol", float("nan")),
         ("grad_stop", float("nan")), ("record_every", float("nan")),
         ("record_every", float("inf")), ("stall_window", -3), ("stall_window", 0),
         ("max_steps", 0), ("seed", -1), ("frequency_seed", -1),
         ("forced_frequencies", (2.0, float("nan"))), ("solution_tol", 0.0),
         ("solution_tol", float("inf")), ("max_levels", 0), ("params_per_expansion", 3)],
    )
    def test_rejects_invalid_annealing(self, name, value):
        # FlowConfig and GrowthSchedule name the field their message begins with
        if hasattr(gr.GrowthSchedule, name):
            make, kwargs = gr.GrowthSchedule, {name: value}
        else:
            make, kwargs = fl.FlowConfig, {"t_end": 1.0, name: value}
        with pytest.raises(ConfigurationError, match=f"^{name} must be "):
            make(**kwargs)

    def test_one_objective_call_per_step(self, monkeypatch):
        # perfbench counts Euler-Maruyama steps as objective calls minus samples
        problem, arch, shallow, _, _ = double_well_fixture()
        calls = []
        value_and_grad = fl.ParametricObjective.value_and_grad

        def counted(self, values):
            calls.append(values)
            return value_and_grad(self, values)

        monkeypatch.setattr(fl.ParametricObjective, "value_and_grad", counted)
        cfg = fl.FlowConfig(t_end=2.0, record_every=0.07, seed=1, noise_beta=1.0)
        trace = fl.integrate_annealed(problem, arch, ar.ParamVector(np.array([shallow])), cfg)
        assert trace.counters == {"em_steps": 2000}
        assert len(calls) == trace.counters["em_steps"] + trace.n_samples


WELL_PROBLEM, WELL_ARCH = double_well_fixture()[:2]


def _reference_annealed(p, arch, w0, cfg):
    """Euler-Maruyama on an array state, one step at a time: the loop that
    ``integrate_annealed`` must reproduce bit for bit."""
    obj = fl.ParametricObjective(p, arch)
    h = cfg.sde_step
    n_steps = int(np.ceil(cfg.t_end / h))
    if (n_steps - 1) * h >= cfg.t_end:
        n_steps -= 1
    stride = max(1, int(round(cfg.sample_interval / h)))
    rng = np.random.default_rng(cfg.seed)
    y = w0.values.copy()
    builder = fl._TraceBuilder.start("annealed", cfg, obj.sample, y)
    noise, pos, t = None, 8192, 0.0
    for step in range(n_steps):
        # the last step is short when h does not divide t_end
        dt = h if step < n_steps - 1 or n_steps * h == cfg.t_end else cfg.t_end - t
        _, grad, _ = obj.value_and_grad(y)
        if cfg.noise_beta > 0.0:
            if pos == 8192:
                noise, pos = rng.standard_normal((8192, y.size)), 0
            scale = cfg.noise_beta * np.sqrt(dt) * math.sqrt(cfg.anneal_c / math.log(2.0 + t))
            y = y - dt * grad + scale * noise[pos]
            pos += 1
        else:
            y = y - dt * grad
        t = (step + 1) * h if step < n_steps - 1 else cfg.t_end
        if (step + 1) % stride == 0 or step == n_steps - 1:
            counters = {"em_steps": step + 1}
            if not np.all(np.isfinite(y)):
                state = ar.ParamVector(np.zeros(y.size), w0.level)
                return builder.finish("divergence", state, "non-finite state", counters)
            try:
                builder.record(t, obj.sample(y))
            except DivergenceError:
                state = ar.ParamVector(np.where(np.isfinite(y), y, 0.0), w0.level)
                return builder.finish("divergence", state, "loss diverged", counters)
    return builder.finish("t_end", ar.ParamVector(y, w0.level), counters={"em_steps": n_steps})


class TestAnnealedMatchesReference:
    """The float-state loop of the scalar closure equals the array loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        w0=st.floats(-2.0, 2.0),
        beta=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
        sde_step=st.one_of(st.floats(1e-3, 0.05), st.floats(0.3, 2.0)),
        t_end=st.floats(0.5, 3.0),
        record_every=st.floats(0.01, 1.0),
    )
    # divergent: the state overflows between samples, or the loss passes the cap
    @example(seed=1, w0=-1.2, beta=1.0, sde_step=0.5, t_end=20.0, record_every=4.5)
    @example(seed=1, w0=-1.2, beta=1.0, sde_step=0.9, t_end=5.0, record_every=0.3)
    def test_trace_equals_reference(self, seed, w0, beta, sde_step, t_end, record_every):
        assume(not (t_end / record_every).is_integer())
        cfg = fl.FlowConfig(
            t_end=t_end, record_every=record_every, seed=seed,
            noise_beta=beta, anneal_c=2.0, sde_step=sde_step,
        )
        w = ar.ParamVector(np.array([w0]))
        # on divergent draws the reference loop's array state can overflow
        with np.errstate(over="ignore", invalid="ignore"):
            fast = fl.integrate_annealed(WELL_PROBLEM, WELL_ARCH, w, cfg)
            ref = _reference_annealed(WELL_PROBLEM, WELL_ARCH, w, cfg)
        assert traceio.trace_to_lines(fast) == traceio.trace_to_lines(ref)
        # a leaked np.float64 is slower but changes no bit, so check the type
        obj = fl.ParametricObjective(WELL_PROBLEM, WELL_ARCH)
        assert [type(x) for x in obj._scalar(w0)] == [float, float]
        assert [type(x) for x in obj.value_and_grad(w0)] == [float, float, bool]

    def test_divergent_examples_diverge(self):
        w = ar.ParamVector(np.array([-1.2]))
        details = []
        for step, t_end, every in ((0.5, 20.0, 4.5), (0.9, 5.0, 0.3)):
            cfg = fl.FlowConfig(t_end=t_end, record_every=every, seed=1, noise_beta=1.0, sde_step=step)
            details.append(fl.integrate_annealed(WELL_PROBLEM, WELL_ARCH, w, cfg).events[-1].detail)
        assert details == ["non-finite state", "loss diverged"]

    def test_overflowing_sample_warns_nothing(self):
        # the recorded sample's gradient norm overflows; the trace reports it
        cfg = fl.FlowConfig(t_end=2.5, record_every=1.0, sde_step=0.375, noise_beta=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = fl.integrate_annealed(
                WELL_PROBLEM, WELL_ARCH, ar.ParamVector(np.array([2.0])), cfg
            )
        assert trace.terminal_reason == "divergence"
        assert trace.events[-1] == fl.FlowEvent(1.125, "stop", "loss diverged")


class TestLyapunovCheck:
    def test_gradient_flow_passes(self, quad_problem, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.2, 1.1, 0.3]))
        trace = fl.integrate_parametric(quad_problem, arch, w0, fl.FlowConfig(t_end=5.0))
        assert fl.lyapunov_check(trace, 1e-9) == []

    def test_increasing_trace_flags_every_step(self, quad_problem):
        cfg = fl.FlowConfig(t_end=1.0)
        trace = fl.FlowTrace(
            kind="parametric",
            t=np.array([0.0, 1.0, 2.0, 3.0]),
            loss=np.array([0.0, 1.0, 2.0, 3.0]),
            grad_norm=np.ones(4),
            terminal_reason="t_end",
            terminal_state=None,
            config=cfg,
        )
        assert fl.lyapunov_check(trace, 1e-9) == [0, 1, 2]


class TestDeterminism:
    def test_parametric_repeatable(self, quad_problem, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.2, 1.1, 0.3]))
        cfg = fl.FlowConfig(t_end=4.0, record_every=0.05)
        a = fl.integrate_parametric(quad_problem, arch, w0, cfg)
        b = fl.integrate_parametric(quad_problem, arch, w0, cfg)
        assert traceio.trace_to_lines(a) == traceio.trace_to_lines(b)

    def test_trace_file_round_trip(self, quad_problem, basis_128, tmp_path):
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.2, 1.1, 0.3]))
        cfg = fl.FlowConfig(t_end=2.0, record_every=0.1)
        trace = fl.integrate_parametric(quad_problem, arch, w0, cfg)
        path = tmp_path / "trace.jsonl"
        traceio.write_trace(path, trace)
        back = traceio.read_trace(path)
        assert np.array_equal(back.t, trace.t)
        assert np.array_equal(back.loss, trace.loss)
        assert np.array_equal(back.params, trace.params)
        assert back.terminal_reason == trace.terminal_reason
        assert traceio.trace_to_lines(back) == traceio.trace_to_lines(trace)

    def test_reads_header_with_retired_loss_cap(self, quad_problem, basis_128, tmp_path):
        # traces written while loss_cap was a FlowConfig field carry it
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.2, 1.1, 0.3]))
        trace = fl.integrate_parametric(
            quad_problem, arch, w0, fl.FlowConfig(t_end=1.0, record_every=0.1)
        )
        lines = traceio.trace_to_lines(trace)
        header = json.loads(lines[0])
        assert "loss_cap" not in header["config"]
        header["config"]["loss_cap"] = 1e60
        path = tmp_path / "old.jsonl"
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        back = traceio.read_trace(path)
        assert back.config == trace.config
        assert traceio.trace_to_lines(back) == lines


class TestWorkCounters:
    def test_deterministic_counters(self, quad_problem, basis_128):
        arch = ar.sinusoid_architecture(basis_128, 1)
        w0 = ar.ParamVector(np.array([0.2, 1.1, 0.3]))
        trace = fl.integrate_parametric(
            quad_problem, arch, w0, fl.FlowConfig(t_end=2.0, record_every=0.1)
        )
        c = trace.counters
        assert set(c) == {"rhs_evals", "jac_evals", "steps"}
        assert c["steps"] > 0
        # every accepted step costs at least one right-hand side
        assert c["rhs_evals"] >= c["steps"]
        assert c["jac_evals"] >= 0

    def test_one_compile_and_two_evaluations_per_sample(self, monkeypatch):
        # a recorded sample evaluates the model once inside value_and_grad
        # and once for its kernel floor and model error
        basis = sp.make_space(sp.Domain(1), 32)
        phi = sp.field_from_modes(basis, [(1, 0.6), (2, 0.25)])
        p = pr.npbe_problem(basis, phi, sp.SobolevOrder.W22)
        arch = ar.sinusoid_architecture(basis, 1)
        compiles, evals, objective_calls = [], [], []
        compile_model_jac = ar.compile_model_jac
        value_and_grad = fl.ParametricObjective.value_and_grad

        def counted_compile(a):
            compiles.append(a)
            rows = compile_model_jac(a)

            def counted_rows(values):
                evals.append(values)
                return rows(values)

            return counted_rows

        def counted_objective(self, values):
            objective_calls.append(values)
            return value_and_grad(self, values)

        monkeypatch.setattr(ar, "compile_model_jac", counted_compile)
        monkeypatch.setattr(fl.ParametricObjective, "value_and_grad", counted_objective)
        w0 = ar.ParamVector(np.array([0.1, 1.2, 0.4]))
        trace = fl.integrate_parametric(p, arch, w0, fl.FlowConfig(t_end=5.0, record_every=0.1))
        rhs, samples = trace.counters["rhs_evals"], trace.n_samples
        assert rhs > 0 and samples > 1
        assert len(compiles) == 1
        assert len(objective_calls) == rhs + samples
        assert len(evals) == rhs + 2 * samples

    def test_no_step_taken_at_critical_point(self, quad_problem):
        cfg = fl.FlowConfig(t_end=5.0)
        trace = fl.integrate_nominal(quad_problem, quad_problem.known_solution, cfg)
        assert trace.counters == {"rhs_evals": 0, "jac_evals": 0, "steps": 0}

    def test_annealed_counts_em_steps(self):
        problem, arch, shallow, _, _ = double_well_fixture()
        w0 = ar.ParamVector(np.array([shallow]))
        cfg = fl.FlowConfig(t_end=2.0, seed=1, noise_beta=1.0, sde_step=1e-3)
        trace = fl.integrate_annealed(problem, arch, w0, cfg)
        assert trace.counters == {"em_steps": 2000}

    def test_counters_round_trip(self, quad_problem, basis_128, tmp_path):
        g0 = sp.field_from_modes(basis_128, [(1, 1.5), (2, 0.7)])
        trace = fl.integrate_nominal(
            quad_problem, g0, fl.FlowConfig(t_end=1.0, record_every=0.1)
        )
        path = tmp_path / "trace.jsonl"
        traceio.write_trace(path, trace)
        assert traceio.read_trace(path).counters == trace.counters
        assert trace.counters["rhs_evals"] > 0


def test_nominal_energy_identity(basis_128):
    phi = sp.field_from_modes(basis_128, [(1, 0.6), (3, 0.25)])
    p = pr.quadratic_problem(basis_128, phi)
    g0 = sp.field_from_modes(basis_128, [(1, 1.5), (2, 0.7)])
    cfg = fl.FlowConfig(t_end=2.0, record_every=0.004)
    trace = fl.integrate_nominal(p, g0, cfg)
    t, loss, g2 = trace.t, trace.loss, trace.grad_norm**2
    checked = 0
    for i in range(1, trace.n_samples - 1):
        if g2[i] > 1e-8:
            slope = (loss[i + 1] - loss[i - 1]) / (t[i + 1] - t[i - 1])
            assert abs(slope + g2[i]) <= 0.05 * g2[i]
            checked += 1
    assert checked > 50
