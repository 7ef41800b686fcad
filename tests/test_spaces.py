import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dstn

from gradlab import problems as pr
from gradlab import spaces as sp
from gradlab.errors import ConfigurationError, ShapeError, UnsupportedOperationError

from conftest import gauss_project, panel_gauss, quad_inner, reconstruct


class TestMakeSpace:
    def test_first_eigenvalue_matches_finite_difference_oracle(self):
        # oracle: smallest-magnitude eigenvalue of the high-resolution FD
        # Laplacian on [-pi, pi] with zero boundaries
        from scipy.linalg import eigh_tridiagonal

        m = 20000
        h = 2 * np.pi / (m + 1)
        main = -2.0 * np.ones(m) / h**2
        off = np.ones(m - 1) / h**2
        lam_fd = eigh_tridiagonal(
            main, off, select="i", select_range=(m - 1, m - 1), eigvals_only=True
        )[0]
        basis = sp.make_space(sp.Domain(1), 8)
        assert basis.axis_eigenvalues[0] == -0.25
        assert abs(basis.axis_eigenvalues[0] - lam_fd) < 1e-7

    def test_eigenvalues_strictly_decreasing(self):
        basis = sp.make_space(sp.Domain(1), 4)
        assert np.all(np.diff(basis.axis_eigenvalues) < 0)

    def test_3d_coefficient_count(self):
        basis = sp.make_space(sp.Domain(3), 8)
        assert basis.size == 512

    def test_resolution_floor(self):
        with pytest.raises(ConfigurationError):
            sp.make_space(sp.Domain(1), 3)

    def test_dimension_validation(self):
        with pytest.raises(ConfigurationError):
            sp.Domain(2)

    def test_deterministic(self):
        a = sp.make_space(sp.Domain(1), 16)
        b = sp.make_space(sp.Domain(1), 16)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


class TestInnerProduct:
    def test_zero_field(self, basis_64):
        rng = np.random.default_rng(0)
        g = sp.Field(rng.standard_normal(64), basis_64)
        z = sp.zero_field(basis_64)
        for metric in sp.SobolevOrder:
            assert sp.inner_product(z, g, metric) == 0.0

    def test_sin_x_norm_is_pi(self, basis_256):
        f = sp.field_from_modes(basis_256, [(1, 1.0)])
        value = sp.inner_product(f, f, sp.SobolevOrder.L2)
        assert value == pytest.approx(np.pi, rel=1e-12)
        # independent quadrature oracle
        assert value == pytest.approx(quad_inner(f, f), rel=1e-6)

    @pytest.mark.parametrize("metric", list(sp.SobolevOrder))
    def test_symmetric_bilinear_positive(self, basis_64, metric):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = sp.Field(rng.standard_normal(64), basis_64)
            b = sp.Field(rng.standard_normal(64), basis_64)
            ab = sp.inner_product(a, b, metric)
            assert ab == pytest.approx(sp.inner_product(b, a, metric), rel=1e-12, abs=1e-14)
            assert sp.inner_product(a, a, metric) > 0
        # bilinearity spot check
        c = sp.Field(rng.standard_normal(64), basis_64)
        lhs = sp.inner_product(a + 2.0 * b, c, metric)
        rhs = sp.inner_product(a, c, metric) + 2.0 * sp.inner_product(b, c, metric)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_basis_mismatch_raises(self, basis_64, basis_128):
        a = sp.zero_field(basis_64)
        b = sp.zero_field(basis_128)
        with pytest.raises(ShapeError):
            sp.inner_product(a, b)

    def test_sobolev_rejected_on_nodal(self):
        e = sp.make_euclidean(2)
        a = sp.Field(np.array([1.0, 2.0]), e)
        with pytest.raises(UnsupportedOperationError):
            sp.inner_product(a, a, sp.SobolevOrder.W22)


class TestLaplacian:
    def test_eigenfunction(self, basis_64):
        f = sp.Field(np.eye(64)[0], basis_64)  # first basis mode
        lap = sp.laplacian(f)
        assert np.allclose(lap.coeffs, -0.25 * f.coeffs)

    def test_zero(self, basis_64):
        assert np.all(sp.laplacian(sp.zero_field(basis_64)).coeffs == 0.0)

    def test_self_adjoint_vs_quadrature(self, basis_64):
        rng = np.random.default_rng(1)
        decay = (1.0 + np.abs(basis_64.eigenvalues)) ** -1.5
        for _ in range(5):
            g = sp.Field(rng.standard_normal(64) * decay, basis_64)
            h = sp.Field(rng.standard_normal(64) * decay, basis_64)
            lhs = sp.inner_product(sp.laplacian(g), h)
            rhs = sp.inner_product(g, sp.laplacian(h))
            bound = 1e-10 * sp.norm(g) * sp.norm(h)
            assert abs(lhs - rhs) <= bound
            # quadrature oracle for one side
            assert lhs == pytest.approx(quad_inner(sp.laplacian(g), h), abs=1e-6)

    def test_negative_semidefinite(self, basis_64):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = sp.Field(rng.standard_normal(64), basis_64)
            assert sp.inner_product(sp.laplacian(g), g) <= 0

    def test_nodal_unsupported(self):
        e = sp.make_euclidean(3)
        with pytest.raises(UnsupportedOperationError):
            sp.laplacian(sp.Field(np.zeros(3), e))


class TestMetricSharp:
    def test_l2_identity(self, basis_64):
        rng = np.random.default_rng(3)
        g = sp.Field(rng.standard_normal(64), basis_64)
        assert sp.metric_sharp(g, sp.SobolevOrder.L2) is g

    def test_single_mode_quarter(self, basis_64):
        # mode with eigenvalue -1 is k = 2; (1 + 1)**-2 = 1/4
        dl = sp.Field(np.eye(64)[1], basis_64)
        out = sp.metric_sharp(dl, sp.SobolevOrder.W22)
        assert out.coeffs[1] == pytest.approx(0.25, rel=1e-14)
        # dense metric-solve oracle: G_W x = G_L2 dl
        gw = np.diag(
            [sp.inner_product(sp.Field(np.eye(64)[i], basis_64),
                              sp.Field(np.eye(64)[i], basis_64),
                              sp.SobolevOrder.W22) for i in range(64)]
        )
        gl = np.pi * np.eye(64)
        x = np.linalg.solve(gw, gl @ dl.coeffs)
        assert np.allclose(out.coeffs, x, rtol=1e-12)

    @pytest.mark.parametrize("metric", [sp.SobolevOrder.W12, sp.SobolevOrder.W22])
    def test_duality_identity(self, basis_64, metric):
        rng = np.random.default_rng(4)
        for _ in range(10):
            dl = sp.Field(rng.standard_normal(64), basis_64)
            v = sp.Field(rng.standard_normal(64), basis_64)
            out = sp.metric_sharp(dl, metric)
            lhs = sp.inner_product(out, v, metric)
            rhs = sp.inner_product(dl, v, sp.SobolevOrder.L2)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_round_trip(self, basis_64):
        rng = np.random.default_rng(5)
        for metric in (sp.SobolevOrder.W12, sp.SobolevOrder.W22):
            dl = sp.Field(rng.standard_normal(64), basis_64)
            back = sp.metric_flat(sp.metric_sharp(dl, metric), metric)
            assert np.max(np.abs(back.coeffs - dl.coeffs)) <= 1e-12 * np.max(
                np.abs(dl.coeffs)
            )


class TestNodalTransforms:
    def test_round_trip(self, basis_64):
        rng = np.random.default_rng(6)
        f = sp.Field(rng.standard_normal(64), basis_64)
        back = sp.from_nodal(sp.to_nodal(f), basis_64)
        assert np.allclose(back.coeffs, f.coeffs, atol=1e-13)

    def test_round_trip_3d(self, basis_3d):
        rng = np.random.default_rng(7)
        f = sp.Field(rng.standard_normal(basis_3d.size), basis_3d)
        back = sp.from_nodal(sp.to_nodal(f), basis_3d)
        assert np.allclose(back.coeffs, f.coeffs, atol=1e-12)

    def test_pointwise_multiply_self_adjoint(self, basis_64):
        rng = np.random.default_rng(8)
        v = sp.Field(rng.standard_normal(64), basis_64)
        w = sp.Field(rng.standard_normal(64), basis_64)
        mult = np.cosh(np.clip(sp.to_nodal(v), -50, 50))

        def times(f):
            return sp.from_nodal(mult * sp.to_nodal(f), basis_64)

        lhs = sp.inner_product(times(v), w)
        rhs = sp.inner_product(v, times(w))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_clamp_flag(self, basis_64):
        # the NPBE clamp probe reads the flag off the nodal values
        probe = pr.npbe_problem(basis_64, sp.zero_field(basis_64)).clamp_probe
        assert probe(sp.field_from_modes(basis_64, [(1, 100.0)]))
        assert not probe(sp.field_from_modes(basis_64, [(1, 0.5)]))

    def test_checks_basis_and_shape(self, basis_64):
        with pytest.raises(UnsupportedOperationError):
            sp.to_nodal(sp.zero_field(sp.make_euclidean(2)))
        with pytest.raises(ShapeError):
            sp.from_nodal(np.zeros(64), basis_64)


def _dstn_to_nodal(coeffs, n, d, pad_factor):
    """Reference synthesis: zero-padded DST-I (scipy applies 2 sum sin)."""
    npad = pad_factor * n
    padded = np.zeros((npad,) * d)
    padded[(slice(0, n),) * d] = coeffs.reshape((n,) * d)
    return dstn(padded, type=1, axes=tuple(range(d))) / 2.0**d


def _dstn_from_nodal(values, n, d, pad_factor):
    """Reference analysis: DST-I of the nodal cube, first n modes per axis."""
    npad = pad_factor * n
    coeffs = dstn(values, type=1, axes=tuple(range(d))) / (npad + 1.0) ** d
    return coeffs[(slice(0, n),) * d].reshape(-1)


# (d, n, pad_factor, seed, log10 of the coefficient scale)
_TRANSFORM_CASES = st.one_of(
    st.tuples(st.just(1), st.integers(4, 256)),
    st.tuples(st.just(3), st.integers(4, 40)),
).flatmap(
    lambda dn: st.tuples(
        st.just(dn[0]),
        st.just(dn[1]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.floats(-3.0, 3.0),
    )
)


class TestNodalMatrices:
    """The cached per-axis sine matrices against scipy's DST-I."""

    @settings(max_examples=30, deadline=None)
    @given(_TRANSFORM_CASES)
    def test_match_dstn_and_adjoint_identity(self, case):
        d, n, pad, seed, log_scale = case
        npad = pad * n
        rng = np.random.default_rng(seed)
        coeffs = 10.0**log_scale * rng.standard_normal(n**d)
        values = 10.0**log_scale * rng.standard_normal((npad,) * d)
        tol = 8 * npad * np.finfo(float).eps

        basis = sp.make_space(sp.Domain(d), n)
        nodal = sp.to_nodal(sp.Field(coeffs, basis), pad)
        ref_nodal = _dstn_to_nodal(coeffs, n, d, pad)
        assert nodal.shape == (npad,) * d
        assert np.max(np.abs(nodal - ref_nodal)) <= tol * np.max(np.abs(ref_nodal))

        back = sp.from_nodal(values, basis, pad).coeffs
        ref_back = _dstn_from_nodal(values, n, d, pad)
        assert back.shape == (n**d,)
        assert np.max(np.abs(back - ref_back)) <= tol * np.max(np.abs(values))

        # <S c, v> = ((N+1)/2)^d <c, A v>, relative to the Cauchy-Schwarz scale
        lhs = float(np.dot(nodal.ravel(), values.ravel()))
        rhs = ((npad + 1) / 2.0) ** d * float(np.dot(coeffs, back))
        scale = np.linalg.norm(nodal) * np.linalg.norm(values)
        assert abs(lhs - rhs) <= 1e-13 * scale

    @pytest.mark.parametrize("n,pad", [(24, 2), (17, 2), (5, 3)])
    def test_cached_matrices_read_only(self, n, pad):
        synthesis, analysis = sp._nodal_matrices(n, pad)
        assert synthesis.shape == (pad * n, n)
        assert analysis.shape == (n, pad * n)
        assert sp._nodal_matrices(n, pad)[0] is synthesis
        for m in (synthesis, analysis):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 1.0


class TestModeFields:
    def test_integer_sine_modes_are_exact(self, basis_64):
        f = sp.field_from_modes(basis_64, [(3, 0.25)])
        x = np.linspace(-np.pi, np.pi, 501)
        assert np.allclose(reconstruct(f, x), 0.25 * np.sin(3 * x), atol=1e-12)

    def test_constant_projection_matches_quadrature(self, basis_64):
        one = sp.field_from_modes(basis_64, [(0, 1.0)])
        x, w = panel_gauss()
        oracle = gauss_project(np.ones_like(x), x, w, 64)
        assert np.allclose(one.coeffs, oracle, atol=1e-12)

    def test_mode_needs_resolution(self, basis_64):
        with pytest.raises(ConfigurationError):
            sp.field_from_modes(basis_64, [(40, 1.0)])

    def test_3d_separable_mode(self, basis_3d):
        f = sp.field_from_modes(basis_3d, [(1, 2.0)])
        lap = sp.laplacian(f)
        nz = f.coeffs != 0
        assert np.allclose(lap.coeffs[nz] / f.coeffs[nz], -3.0)


class TestSerialization:
    def test_round_trip_sine(self, basis_64):
        rng = np.random.default_rng(9)
        f = sp.Field(rng.standard_normal(64), basis_64, sp.SobolevOrder.W22)
        back = sp.field_from_bytes(sp.field_to_bytes(f))
        assert np.array_equal(back.coeffs, f.coeffs)
        assert back.basis == f.basis
        assert back.metric is sp.SobolevOrder.W22

    def test_round_trip_euclidean(self):
        e = sp.make_euclidean(2)
        f = sp.Field(np.array([1.5, -2.5]), e)
        back = sp.field_from_bytes(sp.field_to_bytes(f))
        assert np.array_equal(back.coeffs, f.coeffs)
        assert back.basis == f.basis

    def test_rejects_foreign_bytes(self):
        with pytest.raises(ConfigurationError):
            sp.field_from_bytes(b"not a field at all....")

    def test_field_rejects_nonfinite(self, basis_64):
        bad = np.zeros(64)
        bad[0] = np.inf
        with pytest.raises(ShapeError):
            sp.Field(bad, basis_64)
