import numpy as np
import pytest

from gradlab import architectures as ar
from gradlab import spaces as sp
from gradlab.errors import ConfigurationError, ShapeError, UnsupportedOperationError

from conftest import gauss_project, gram_at, kernel_at, panel_gauss, quad_inner, reconstruct


def banded_sinusoid_params(rng, pairs):
    """Lebesgue-random draws over magnitude bands that keep the Jacobian
    rows numerically independent (tiny or coincident frequencies fatten
    the measure-zero degenerate set past the rank tolerance)."""
    w = np.empty(2 * pairs + 1)
    w[0] = rng.uniform(-2.0, 2.0)
    lanes = np.linspace(0.6, 4.0, pairs + 1)
    for i in range(pairs):
        w[1 + 2 * i] = rng.uniform(lanes[i] + 0.1, lanes[i + 1]) * rng.choice([-1, 1])
        w[2 + 2 * i] = rng.uniform(0.8, 2.5) * rng.choice([-1, 1])
    return w


@pytest.fixture(scope="module")
def sin2(basis_256):
    return ar.sinusoid_architecture(basis_256, 2)


@pytest.fixture(scope="module")
def affine3(basis_64):
    fields = [sp.Field(np.eye(64)[k] / np.sqrt(np.pi), basis_64) for k in (0, 1, 2)]
    return ar.affine_architecture(fields)


class TestEvaluate:
    def test_sinusoid_zero_amplitudes_give_constant(self, basis_64):
        arch = ar.sinusoid_architecture(basis_64, 1)
        w = ar.ParamVector(np.array([1.0, 3.7, 0.0]))
        f = ar.evaluate(arch, w)
        x = np.linspace(-2.5, 2.5, 101)
        # constant 1 up to Gibbs ringing of the truncated expansion
        assert np.allclose(reconstruct(f, x), 1.0, atol=0.05)
        one = sp.field_from_modes(basis_64, [(0, 1.0)])
        assert np.allclose(f.coeffs, one.coeffs, atol=1e-12)

    def test_spiral_at_zero(self):
        arch = ar.spiral_architecture()
        f = ar.evaluate(arch, ar.ParamVector(np.array([0.0])))
        assert np.allclose(f.coeffs, [0.0, 0.0])

    def test_affine_is_linear_combination(self, affine3, basis_64):
        w = ar.ParamVector(np.array([2.0, -1.0, 0.5]))
        f = ar.evaluate(affine3, w)
        fields, offset = affine3.structure
        expected = offset.coeffs + sum(
            w.values[k] * fields[k].coeffs for k in range(3)
        )
        assert np.allclose(f.coeffs, expected, atol=1e-15)

    def test_length_mismatch_rejected(self, sin2):
        with pytest.raises(ShapeError):
            ar.evaluate(sin2, ar.ParamVector(np.zeros(4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_curve_rejects_non_finite_coefficient(self, bad):
        plane = sp.make_euclidean(2)
        e1, e2 = (sp.Field(v, plane) for v in np.eye(2))
        with pytest.raises(ConfigurationError, match="must be finite"):
            ar.curve_architecture([([0.0, 1.0], e1), ([0.5, bad], e2)])


class TestJacobian:
    @pytest.mark.parametrize("kind", ["sinusoid", "spiral", "affine", "curve"])
    def test_rows_match_finite_differences(self, kind, basis_64, affine3):
        rng = np.random.default_rng(11)
        if kind == "sinusoid":
            arch = ar.sinusoid_architecture(basis_64, 2)
            draw = lambda: banded_sinusoid_params(rng, 2)
        elif kind == "spiral":
            arch = ar.spiral_architecture()
            draw = lambda: rng.uniform(-4, 4, size=1)
        elif kind == "affine":
            arch = affine3
            draw = lambda: rng.standard_normal(3)
        else:
            b = sp.field_from_modes(basis_64, [(1, 1.0)])
            arch = ar.curve_architecture([([0.0, 1.0, 0.5, -0.25], b)])
            draw = lambda: rng.uniform(-2, 2, size=1)
        step = 1e-6
        draws = [draw() for _ in range(10)]
        if kind == "sinusoid":
            # frequencies at k/2 exactly and at k/2 +- 10^-j, where the
            # sinc derivative switches to its Taylor branch
            draws.append(np.array([0.4, 1.5, 1.3, -2.5, -0.8]))
            for delta in [0.0] + [s * 10.0**-j for j in range(2, 13) for s in (1, -1)]:
                draws.append(np.array([0.4, 2.0 + delta, 1.3, -(3.0 + delta), -0.8]))
        for w in draws:
            _, jac = ar.model_and_jacobian(arch, ar.ParamVector(w))
            for i in range(w.size):
                e = np.zeros(w.size)
                e[i] = step
                fp, _ = ar.model_and_jacobian(arch, ar.ParamVector(w + e))
                fm, _ = ar.model_and_jacobian(arch, ar.ParamVector(w - e))
                fd = (fp - fm) / (2 * step)
                scale = max(np.linalg.norm(fd), 1e-9)
                assert np.linalg.norm(fd - jac[i]) / scale <= 1e-5

    @pytest.mark.parametrize("n", [24, 128, 512])
    def test_sinusoid_matches_quadrature_oracle(self, n):
        basis = sp.make_space(sp.Domain(1), n)
        rows = ar.compile_model_jac(ar.sinusoid_architecture(basis, 2))
        x, wq = panel_gauss()
        one = gauss_project(np.ones_like(x), x, wq, n)
        rng = np.random.default_rng(n)
        # at k/2 exactly, near it on both sides of the Taylor switch at
        # 1e-2, and away from it
        offsets = [0.0, 1e-12, -1e-9, 2.4e-5, -1e-3, 9.9e-3, -1.01e-2, 0.5, 0.3183]
        for delta in offsets:
            m = rng.integers(1, n // 2 + 1, size=2)
            w = np.array([0.7, m[0] + delta, 1.6, -(m[1] + delta), -0.9])
            model, jac = rows(w)
            freqs, amps = w[1::2], w[2::2]
            phase = np.outer(freqs, x)
            sines = gauss_project(np.sin(phase), x, wq, n)
            cosines = gauss_project(x * np.cos(phase), x, wq, n)
            assert np.max(np.abs(model - (w[0] * one + amps @ sines))) <= 1e-12
            assert np.max(np.abs(jac[0] - one)) <= 1e-12
            assert np.max(np.abs(jac[1::2] - amps[:, None] * cosines)) <= 1e-12
            assert np.max(np.abs(jac[2::2] - sines)) <= 1e-12

    def test_zero_amplitude_kills_frequency_row(self, basis_64):
        arch = ar.sinusoid_architecture(basis_64, 2)
        w = ar.ParamVector(np.array([0.3, 1.0, 0.7, 2.5, 0.0]))
        rows = ar.jacobian(arch, w)
        assert sp.norm(rows[3]) == 0.0  # d/d(frequency of dead pair)
        assert sp.norm(rows[4]) > 0.0  # amplitude direction stays open

    def test_spiral_at_zero(self):
        arch = ar.spiral_architecture()
        rows = ar.jacobian(arch, ar.ParamVector(np.array([0.0])))
        assert np.allclose(rows[0].coeffs, [0.0, 1.0])


class TestTangentGram:
    def test_sinusoid_unit_frequency_zero_amplitude(self, basis_256):
        arch = ar.sinusoid_architecture(basis_256, 1)
        w = ar.ParamVector(np.array([0.0, 1.0, 0.0]))
        diag = gram_at(arch, w, sp.SobolevOrder.L2)
        # analytic: <1,1> = 2 pi (up to constant-projection truncation),
        # frequency row dead, <sin x, sin x> = pi exactly
        assert diag.gram[0, 0] == pytest.approx(2 * np.pi, rel=2e-3)
        assert diag.gram[1, 1] == 0.0
        assert diag.gram[2, 2] == pytest.approx(np.pi, rel=1e-12)
        off = diag.gram - np.diag(np.diag(diag.gram))
        assert np.max(np.abs(off)) <= 1e-12
        assert diag.min_nonzero_eig == pytest.approx(np.pi, rel=1e-12)
        assert diag.numerical_rank == 2
        # quadrature oracle for the Gram entries
        rows = ar.jacobian(arch, w)
        for i in range(3):
            for j in range(3):
                assert diag.gram[i, j] == pytest.approx(
                    quad_inner(rows[i], rows[j]), abs=1e-5
                )

    def test_spiral_gram_is_one_plus_w_squared(self):
        arch = ar.spiral_architecture()
        for t in (0.0, 0.7, 2.5, -3.1):
            diag = gram_at(arch, ar.ParamVector(np.array([t])))
            assert diag.gram[0, 0] == pytest.approx(1.0 + t * t, rel=1e-12)
            assert diag.min_nonzero_eig == pytest.approx(1.0 + t * t, rel=1e-12)

    def test_affine_gram_constant_in_w(self, affine3):
        rng = np.random.default_rng(12)
        grams = [
            gram_at(affine3, ar.ParamVector(rng.standard_normal(3))).gram
            for _ in range(10)
        ]
        for g in grams[1:]:
            assert np.max(np.abs(g - grams[0])) <= 1e-12

    def test_positive_semidefinite_everywhere(self, sin2):
        rng = np.random.default_rng(13)
        for _ in range(25):
            w = ar.ParamVector(rng.uniform(-5, 5, size=5))
            diag = gram_at(sin2, w)
            lam_max = diag.eigenvalues[-1]
            assert diag.eigenvalues[0] >= -1e-10 * max(lam_max, 1.0)

    def test_degenerate_flag_at_zero_jacobian(self, basis_64):
        b = sp.field_from_modes(basis_64, [(1, 1.0)])
        arch = ar.monomial_architecture(2, b)  # jacobian 2 w b vanishes at 0
        diag = gram_at(arch, ar.ParamVector(np.array([0.0])))
        assert diag.degenerate
        assert diag.min_nonzero_eig == 0.0
        assert diag.numerical_rank == 0

    def test_monomial_gram_value(self, basis_64):
        b = sp.field_from_modes(basis_64, [(1, 1.0)])
        b = b * (1.0 / sp.norm(b))
        arch = ar.monomial_architecture(2, b)
        diag = gram_at(arch, ar.ParamVector(np.array([0.7])))
        assert diag.gram[0, 0] == pytest.approx(4 * 0.7**2, rel=1e-12)

    def test_full_rank_at_lebesgue_random_draws(self, sin2):
        rng = np.random.default_rng(123)
        full = sum(
            gram_at(
                sin2, ar.ParamVector(banded_sinusoid_params(rng, 2))
            ).numerical_rank
            == 5
            for _ in range(100)
        )
        assert full >= 99


class TestKernelApply:
    def test_orthogonal_input_maps_to_zero(self, basis_64):
        arch = ar.sinusoid_architecture(basis_64, 1)
        w = ar.ParamVector(np.array([0.0, 1.0, 0.5]))
        rows = ar.jacobian(arch, w)
        # project a random field onto the orthogonal complement of the row
        # span (least squares in L2)
        rng = np.random.default_rng(14)
        g = sp.Field(rng.standard_normal(64), basis_64)
        jac = np.stack([r.coeffs for r in rows])
        weights = np.pi * np.ones(64)
        gram = (jac * weights) @ jac.T
        coef = np.linalg.lstsq(gram, (jac * weights) @ g.coeffs, rcond=None)[0]
        g_perp = sp.Field(g.coeffs - jac.T @ coef, basis_64)
        out = kernel_at(arch, w, g_perp)
        assert sp.norm(out) <= 1e-12 * max(sp.norm(g_perp), 1.0)

    def test_gram_diagonal_on_orthogonal_family(self, affine3):
        w = ar.ParamVector(np.zeros(3))
        rows = ar.jacobian(affine3, w)
        diag = gram_at(affine3, w)
        out = kernel_at(affine3, w, rows[1])
        assert np.allclose(out.coeffs, diag.gram[1, 1] * rows[1].coeffs, atol=1e-12)

    def test_linear_in_input(self, sin2):
        rng = np.random.default_rng(15)
        w = ar.ParamVector(banded_sinusoid_params(rng, 2))
        g = sp.Field(rng.standard_normal(256), sin2.target_basis)
        h = sp.Field(rng.standard_normal(256), sin2.target_basis)
        a, b = 0.7, -1.3
        lhs = kernel_at(sin2, w, a * g + b * h)
        rhs = a * kernel_at(sin2, w, g) + b * kernel_at(sin2, w, h)
        scale = max(sp.norm(lhs), 1e-12)
        assert sp.norm(lhs - rhs) / scale <= 1e-12

    def test_field_on_another_basis_is_refused(self, sin2, basis_64):
        _, jac = ar.model_and_jacobian(sin2, ar.ParamVector(np.array([0.5, 1.0, 0.8, 2.0, 0.3])))
        with pytest.raises(ShapeError):
            ar.kernel_apply(jac, sp.zero_field(basis_64))


# draws 0 and 1 of default_rng(3).uniform(-3, 3, size=5), the parameter sets
# that configs/spectrum_demo.ini gives to a=2 sinusoids at n=256
SEED3_ROW0 = np.array(
    [-2.486104997138254, -1.5791369604234018, 1.8076467912383816,
     0.4929722163862067, -2.4352281465576047]
)
SEED3_ROW1 = np.array(
    [-0.401238358581157, -0.12569221115499563, -2.0415665121775284,
     1.4074629084552868, -2.3179678804715795]
)

_TANGENT_GRAM = ar.tangent_gram


def _gram_with_eigenvalue_scaled(index, factor):
    """A ``tangent_gram`` stand-in whose Gram matrix has eigenvalue
    ``index`` (ascending order) multiplied by ``factor``."""

    def tangent_gram(jac, basis, metric=sp.SobolevOrder.L2):
        eigs, vecs = np.linalg.eigh(_TANGENT_GRAM(jac, basis, metric).gram)
        eigs[index] *= factor
        gram = (vecs * eigs) @ vecs.T
        return ar._diagnostics_from_gram(0.5 * (gram + gram.T))

    return tangent_gram


class TestSpectralConsistency:
    def test_sinusoid_nonzero_spectra_agree(self, sin2):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            w = ar.ParamVector(banded_sinusoid_params(rng, 2))
            rep = ar.spectral_consistency(sin2, w, sp.SobolevOrder.L2)
            assert rep.passed
            assert rep.max_relative_mismatch <= 1e-8

    def test_affine_orthonormal_spectra_are_ones(self, affine3):
        rep = ar.spectral_consistency(affine3, ar.ParamVector(np.zeros(3)))
        assert rep.passed
        assert np.allclose(rep.operator_eigenvalues, 1.0, atol=1e-10)

    def test_rank_deficiency_shared(self, sin2):
        w = ar.ParamVector(np.array([0.5, 1.0, 0.8, 2.0, 0.0]))
        rep = ar.spectral_consistency(sin2, w)
        assert rep.rank_gram == rep.rank_operator == 4
        assert rep.passed

    def test_dense_assembly_capped(self):
        basis = sp.make_space(sp.Domain(3), 17)
        assert basis.size > ar.MAX_DENSE_SIZE
        fields = [sp.Field(np.eye(basis.size)[0], basis)]
        arch = ar.affine_architecture(fields)
        with pytest.raises(UnsupportedOperationError):
            ar.spectral_consistency(arch, ar.ParamVector(np.zeros(1)))

    @pytest.mark.parametrize("metric", [sp.SobolevOrder.L2, sp.SobolevOrder.W12])
    def test_affine_consistency_across_metrics(self, affine3, metric):
        rep = ar.spectral_consistency(affine3, ar.ParamVector(np.zeros(3)), metric)
        assert rep.passed

    def test_ill_conditioned_draw_within_noise_floor(self, sin2):
        # lambda_min ~ 1e-7 against lambda_max ~ 133: the smallest pair's
        # relative gap is above 1e-8, but its absolute gap is eigensolver
        # noise, below the Weyl floor
        rep = ar.spectral_consistency(sin2, ar.ParamVector(SEED3_ROW1))
        assert rep.passed
        assert rep.rank_gram == rep.rank_operator == 5
        gram_nonzero = np.sort(rep.gram_eigenvalues)[::-1][: rep.rank_gram]
        gaps = np.abs(gram_nonzero - rep.operator_eigenvalues)
        assert np.all(gaps <= rep.noise_floor)

    @pytest.mark.parametrize(
        "values, index",
        [(SEED3_ROW1, -1), (SEED3_ROW0, 0)],
        ids=["lambda_max_ill_conditioned", "lambda_min_well_conditioned"],
    )
    def test_perturbed_gram_eigenvalue_fails(self, sin2, monkeypatch, values, index):
        # index into the ascending Gram spectrum: -1 is lambda_max, 0 the
        # smallest (nonzero) eigenvalue
        monkeypatch.setattr(
            ar, "tangent_gram", _gram_with_eigenvalue_scaled(index, 1.0 + 1e-7)
        )
        rep = ar.spectral_consistency(sin2, ar.ParamVector(values))
        assert rep.rank_gram == rep.rank_operator == 5
        assert rep.passed is False

    def test_dropped_gram_eigenvalue_is_rank_mismatch(self, sin2, monkeypatch):
        monkeypatch.setattr(ar, "tangent_gram", _gram_with_eigenvalue_scaled(0, 0.0))
        rep = ar.spectral_consistency(sin2, ar.ParamVector(SEED3_ROW0))
        assert rep.rank_gram == 4 and rep.rank_operator == 5
        assert rep.max_relative_mismatch == np.inf
        assert rep.passed is False



class TestSpectralConsistencyAllKinds:
    @pytest.mark.parametrize("kind", ["spiral", "curve"])
    def test_one_parameter_kinds(self, kind, basis_64):
        rng = np.random.default_rng(21)
        if kind == "spiral":
            arch = ar.spiral_architecture()
        else:
            b = sp.field_from_modes(basis_64, [(1, 1.0)])
            arch = ar.curve_architecture([([0.0, 1.0, 0.2], b)])
        for _ in range(10):
            w = ar.ParamVector(rng.uniform(0.5, 3.0, size=1))
            rep = ar.spectral_consistency(arch, w)
            assert rep.passed
            assert rep.max_relative_mismatch <= 1e-8
