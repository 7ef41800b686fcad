"""Parametrized model families mapping parameter vectors into the target
space, with analytic Jacobians and tangent-kernel diagnostics.

Shipped kinds:

* ``affine``    -- offset + sum_k w_k * b_k over fixed basis fields.
* ``sinusoid``  -- w_0 + sum_i w_{2i} * sin(w_{2i-1} * x) on a 1-D sine
  basis, M = 2a + 1 for ``a`` frequency/amplitude pairs.  Both amplitudes
  and frequencies are free reals; each term's projection onto the basis,
  and its frequency derivative, is exact in closed form (sinc functions).
* ``spiral``    -- the one-parameter plane curve (w sin w, w cos w).
* ``curve``     -- offset + sum_j q_j(w) * b_j for fixed 1-D polynomials
  q_j and fields b_j; a one-parameter family used to build synthetic loss
  landscapes (monomials, double wells) from the quadratic problem.

The Gram matrix of Jacobian rows under a chosen metric is the computable
control on the model-set geometry; its nonzero spectrum coincides with the
spectrum of the rank-<=M tangent kernel operator acting on the target
space, which ``spectral_consistency`` verifies by two independent
eigensolves.  Each matched eigenvalue pair must agree to a relative
tolerance plus an absolute noise floor: by Weyl's inequality a backward
stable symmetric eigensolve of an n x n matrix moves every eigenvalue by
at most c * n * eps * lambda_max (Golub & Van Loan, Matrix Computations,
section 8.1), so eigenvalues far below lambda_max are only resolved to
that absolute accuracy, whatever their relative size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spaces
from .errors import ConfigurationError, ShapeError, UnsupportedOperationError
from .spaces import Basis, Field, SobolevOrder

# largest target basis on which spectral_consistency assembles the dense
# n x n tangent-kernel operator
MAX_DENSE_SIZE = 4096


@dataclass(frozen=True)
class ParamVector:
    """Active parameters plus the expansion level that produced them."""

    values: np.ndarray
    level: int = 1

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ShapeError("parameter vector must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ShapeError("parameters must be finite")
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ArchitectureSpec:
    """A model family; ``structure`` holds the kind-specific payload."""

    kind: str  # "affine" | "sinusoid" | "spiral" | "curve"
    target_basis: Basis
    structure: tuple = ()

    @property
    def n_params(self) -> int:
        if self.kind == "affine":
            fields, _ = self.structure
            return len(fields)
        if self.kind == "sinusoid":
            (a,) = self.structure
            return 2 * a + 1
        if self.kind in ("spiral", "curve"):
            return 1
        raise ConfigurationError(f"unknown architecture kind '{self.kind}'")

    @property
    def pair_count(self) -> int:
        if self.kind != "sinusoid":
            raise UnsupportedOperationError("pair_count is sinusoid-only")
        return self.structure[0]


def affine_architecture(
    fields: list[Field], offset: Field | None = None
) -> ArchitectureSpec:
    if not fields:
        raise ConfigurationError("affine architecture needs at least one field")
    basis = fields[0].basis
    for f in fields:
        if f.basis != basis:
            raise ShapeError("affine basis fields live on different bases")
    if offset is None:
        offset = spaces.zero_field(basis)
    return ArchitectureSpec("affine", basis, (tuple(fields), offset))


def sinusoid_architecture(basis: Basis, a: int) -> ArchitectureSpec:
    if basis.kind != "sine" or basis.dimension != 1:
        raise ConfigurationError("sinusoid architecture needs a 1-D sine basis")
    if a < 1:
        raise ConfigurationError("sinusoid needs at least one pair")
    return ArchitectureSpec("sinusoid", basis, (a,))


def spiral_architecture() -> ArchitectureSpec:
    return ArchitectureSpec("spiral", spaces.make_euclidean(2), ())


def curve_architecture(
    components: list[tuple[list[float], Field]], offset: Field | None = None
) -> ArchitectureSpec:
    """One-parameter family offset + sum_j q_j(w) b_j (q_j as ascending
    polynomial coefficients, which must be finite)."""
    if not components:
        raise ConfigurationError("curve architecture needs at least one component")
    basis = components[0][1].basis
    comps = []
    for poly, b in components:
        if b.basis != basis:
            raise ShapeError("curve component fields live on different bases")
        coeffs = tuple(float(c) for c in poly)
        if not np.isfinite(coeffs).all():
            raise ConfigurationError(f"curve polynomial coefficients must be finite, got {coeffs}")
        comps.append((coeffs, b))
    if offset is None:
        offset = spaces.zero_field(basis)
    return ArchitectureSpec("curve", basis, (tuple(comps), offset))


def monomial_architecture(power: int, b: Field) -> ArchitectureSpec:
    """A(w) = w**power * b, the simplest degenerate one-parameter family."""
    poly = [0.0] * power + [1.0]
    return curve_architecture([(poly, b)])


def _check_params(a: ArchitectureSpec, w: ParamVector):
    if w.size != a.n_params:
        raise ShapeError(
            f"architecture '{a.kind}' expects {a.n_params} parameters, got {w.size}"
        )


# ---------------------------------------------------------------------------
# Evaluation and Jacobians (coefficient-matrix core)
# ---------------------------------------------------------------------------


def compile_model_jac(a: ArchitectureSpec):
    """Build a closure values -> (model, jac) with fixed structures
    precomputed; the fast path for flow right-hand sides."""
    if a.kind == "affine":
        fields, offset = a.structure
        jac = np.stack([f.coeffs for f in fields])
        off = offset.coeffs

        def rows(values):
            return off + values @ jac, jac

        return rows
    if a.kind == "sinusoid":
        basis = a.target_basis
        pairs = a.pair_count
        one = spaces._axis_mode_coeffs(basis, 0)
        # sin(w x) is odd, so only the even modes k = 2m carry it:
        # <sin(w x), phi_2m> / pi = (-1)^m [sinc(w - m) - sinc(w + m)]
        half = np.arange(1, basis.n // 2 + 1, dtype=np.float64)
        shifts = np.concatenate([-half, half])
        sign = (-1.0) ** half

        def rows(values):
            amps = values[2::2]
            u = values[1::2, None] + shifts  # (pairs, 2 * n_even): w - m | w + m
            s, ds = _sinc_and_derivative(u)
            jac = np.zeros((2 * pairs + 1, basis.size))
            jac[0] = one
            jac[2::2, 1::2] = sign * (s[:, : half.size] - s[:, half.size :])
            jac[1::2, 1::2] = (amps[:, None] * sign) * (
                ds[:, : half.size] - ds[:, half.size :]
            )
            model = values[0] * one + amps @ jac[2::2]
            return model, jac

        return rows
    if a.kind == "spiral":

        def rows(values):
            t = values[0]
            s, c = np.sin(t), np.cos(t)
            model = np.array([t * s, t * c])
            jac = np.array([[s + t * c, c - t * s]])
            return model, jac

        return rows
    if a.kind == "curve":
        comps, offset = a.structure
        polys = [np.asarray(poly) for poly, _ in comps]
        dpolys = [np.polynomial.polynomial.polyder(p) for p in polys]
        bmat = np.stack([b.coeffs for _, b in comps])  # (n_comp, size)
        off = offset.coeffs

        def rows(values):
            wval = values[0]
            q = np.array([np.polynomial.polynomial.polyval(wval, p) for p in polys])
            dq = np.array(
                [
                    np.polynomial.polynomial.polyval(wval, dp) if dp.size else 0.0
                    for dp in dpolys
                ]
            )
            return off + q @ bmat, (dq @ bmat)[None, :]

        return rows
    raise ConfigurationError(f"unknown architecture kind '{a.kind}'")


def _sinc_and_derivative(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's normalized sinc and its derivative (cos(pi u) - sinc(u)) / u.

    The quotient cancels as u -> 0, so |u| < 1e-2 takes the Taylor series
    -pi^2 u / 3 + pi^4 u^3 / 30 - pi^6 u^5 / 840, whose first omitted term
    is below 1e-15 there.
    """
    s = np.sinc(u)
    small = np.abs(u) < 1e-2
    safe = np.where(small, 1.0, u)
    u2 = u * u
    series = u * (
        -(np.pi**2) / 3.0 + u2 * (np.pi**4 / 30.0 - u2 * np.pi**6 / 840.0)
    )
    return s, np.where(small, series, (np.cos(np.pi * safe) - s) / safe)


def model_and_jacobian(a: ArchitectureSpec, w: ParamVector):
    """Model coefficients and the (M, n) Jacobian coefficient matrix."""
    _check_params(a, w)
    return compile_model_jac(a)(w.values)


def evaluate(a: ArchitectureSpec, w: ParamVector) -> Field:
    """The model field produced by parameters ``w``."""
    model, _ = model_and_jacobian(a, w)
    return Field(model, a.target_basis)


def jacobian(a: ArchitectureSpec, w: ParamVector) -> list[Field]:
    """Analytic partial derivatives of the model, one field per parameter."""
    _, jac = model_and_jacobian(a, w)
    return [Field(row, a.target_basis) for row in jac]


# ---------------------------------------------------------------------------
# Kernel diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelDiagnostics:
    """Gram matrix of Jacobian rows with its spectral summary.

    ``min_nonzero_eig`` is the smallest eigenvalue above the numerical-rank
    tolerance (M * machine-eps * max eigenvalue), or 0.0 when everything is
    below it, in which case ``degenerate`` is set.
    """

    gram: np.ndarray
    eigenvalues: np.ndarray  # ascending
    min_nonzero_eig: float
    numerical_rank: int
    rank_tolerance: float
    degenerate: bool = False


def _diagnostics_from_gram(gram: np.ndarray) -> KernelDiagnostics:
    eigs = np.linalg.eigvalsh(gram)
    lam_max = float(eigs[-1]) if eigs.size else 0.0
    tol = gram.shape[0] * np.finfo(np.float64).eps * max(lam_max, 0.0)
    active = eigs[eigs > tol]
    if active.size == 0:
        return KernelDiagnostics(gram, eigs, 0.0, 0, tol, degenerate=True)
    return KernelDiagnostics(gram, eigs, float(active[0]), int(active.size), tol)


def tangent_gram(
    jac: np.ndarray, basis: Basis, metric: SobolevOrder = SobolevOrder.L2
) -> KernelDiagnostics:
    """Gram matrix of the (M, n) Jacobian rows under ``metric`` plus its
    spectrum."""
    gram = (jac * spaces._metric_weights(basis, metric)) @ jac.T
    return _diagnostics_from_gram(0.5 * (gram + gram.T))


def kernel_apply(
    jac: np.ndarray, g: Field, metric: SobolevOrder = SobolevOrder.L2
) -> Field:
    """Apply the rank-<=M tangent kernel of the (M, n) Jacobian rows:
    sum_k <J_k, g> J_k."""
    if jac.shape[1] != g.basis.size:
        raise ShapeError("field is not on the Jacobian's target basis")
    pairings = (jac * spaces._metric_weights(g.basis, metric)) @ g.coeffs
    return Field(pairings @ jac, g.basis)


@dataclass(frozen=True)
class SpectralConsistencyReport:
    """Outcome of ``spectral_consistency``.

    ``max_relative_mismatch`` is max_i |lambda_i^gram - lambda_i^op| /
    |lambda_i^gram| over the matched nonzero eigenvalues (inf when the
    nonzero ranks differ).  ``passed`` is not a threshold on it: a pair
    passes when its absolute gap is at most tolerance * |lambda_i^gram| +
    ``noise_floor``, where ``noise_floor`` is the eigensolvers' Weyl bound
    that also separates nonzero from zero eigenvalues.  A pair with a large
    relative gap can therefore pass when both eigenvalues sit near the
    floor.
    """

    gram_eigenvalues: np.ndarray
    operator_eigenvalues: np.ndarray  # nonzero part, descending-matched
    max_relative_mismatch: float
    rank_gram: int
    rank_operator: int
    passed: bool
    noise_floor: float


def spectral_consistency(
    a: ArchitectureSpec,
    w: ParamVector,
    metric: SobolevOrder = SobolevOrder.L2,
    tolerance: float = 1e-8,
) -> SpectralConsistencyReport:
    """Check that the Gram matrix and the dense tangent-kernel operator
    share their nonzero spectrum.

    The operator is assembled on the full n-dimensional coefficient space
    (symmetrized with the metric square root) and eigensolved independently
    of the M x M Gram eigensolve.  Both eigensolves are backward stable, so
    by Weyl's inequality each computed eigenvalue is off by at most about
    size * eps * lambda_max (Golub & Van Loan, Matrix Computations, section
    8.1).  The shared floor ``10 * max(M, n) * eps * lambda_max`` decides
    which eigenvalues are nonzero, and the check passes when the nonzero
    ranks agree and every matched pair satisfies

        |lambda_i^gram - lambda_i^op| <= tolerance * |lambda_i^gram| + floor.

    A purely relative test would ask ill-conditioned draws (lambda_min
    near 1e-7 against lambda_max near 1e2) to agree below the eigensolver's
    own accuracy, so its verdict would depend on the LAPACK build.
    """
    basis = a.target_basis
    if basis.size > MAX_DENSE_SIZE:
        raise UnsupportedOperationError(
            f"dense operator assembly capped at {MAX_DENSE_SIZE}, basis has {basis.size}"
        )
    _, jac = model_and_jacobian(a, w)
    diag = tangent_gram(jac, basis, metric)
    mw = spaces._metric_weights(basis, metric)
    scaled = jac * np.sqrt(mw)  # (M, n)
    operator = scaled.T @ scaled  # (n, n), similar to the kernel operator
    op_eigs = np.linalg.eigvalsh(operator)
    lam_max = float(op_eigs[-1]) if op_eigs.size else 0.0
    # one shared threshold for both sides, with margin over the dense
    # eigensolve's noise floor, so "nonzero" means the same thing twice;
    # it is also the absolute slack every matched pair is allowed
    thr = 10.0 * max(
        diag.rank_tolerance, basis.size * np.finfo(np.float64).eps * max(lam_max, 0.0)
    )
    op_nonzero = np.sort(op_eigs[op_eigs > thr])[::-1]
    gram_nonzero = np.sort(diag.eigenvalues[diag.eigenvalues > thr])[::-1]
    rank_g, rank_o = gram_nonzero.size, op_nonzero.size
    if rank_g == rank_o:
        gaps = np.abs(gram_nonzero - op_nonzero)
        scale = np.abs(gram_nonzero)
        mismatch = float(np.max(gaps / scale)) if rank_g else 0.0
        passed = bool(np.all(gaps <= tolerance * scale + thr))
    else:
        mismatch = np.inf
        passed = False
    return SpectralConsistencyReport(
        gram_eigenvalues=diag.eigenvalues,
        operator_eigenvalues=op_nonzero,
        max_relative_mismatch=mismatch,
        rank_gram=rank_g,
        rank_operator=rank_o,
        passed=passed,
        noise_floor=thr,
    )
