"""Discretized target spaces: grids, sine-spectral bases, Sobolev metrics.

The primary discretization is a sine-spectral basis on ``[-pi, pi]^d`` with
zero Dirichlet boundaries.  Basis functions are tensor products of

    phi_k(x) = sin(k (x + pi) / 2),        k = 1 .. n  (per axis),

which are eigenfunctions of the Laplacian with eigenvalue ``-(k/2)**2``.
Both the Laplacian and the Sobolev inner products are diagonal in this
basis, which keeps the metric conversion ``(I - Laplacian)**-k`` exact.
Nonlinear terms go through ``to_nodal``/``from_nodal``, which map a field
to its padded nodal cube and back.

A nodal-grid basis also exists (plain coefficient = point value with
quadrature weights); it backs Euclidean targets such as ``R^2`` and is
otherwise only useful for plotting.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ShapeError, UnsupportedOperationError

HALF_WIDTH = np.pi  # domain is [-pi, pi] per axis

DEFAULT_RESOLUTION_1D = 256
DEFAULT_RESOLUTION_3D = 17

# Nodal values are clamped to this magnitude before sinh/cosh so divergent
# fields fail loudly instead of overflowing float64 (sinh overflows near 710).
DEFAULT_CLAMP = 50.0


class SobolevOrder(Enum):
    """Metric choice for inner products and gradients."""

    L2 = 0
    W12 = 1
    W22 = 2

    @property
    def weight_exponent(self) -> int:
        return self.value


@dataclass(frozen=True)
class Domain:
    """Rectangular domain [-pi, pi]^dimension with zero Dirichlet boundary."""

    dimension: int
    zero_dirichlet: bool = True

    def __post_init__(self):
        if self.dimension not in (1, 3):
            raise ConfigurationError(
                f"domain dimension must be 1 or 3, got {self.dimension}"
            )
        if not self.zero_dirichlet:
            raise ConfigurationError("only zero-Dirichlet boundaries are supported")

    @property
    def bounds(self):
        return tuple((-HALF_WIDTH, HALF_WIDTH) for _ in range(self.dimension))


@dataclass(frozen=True, eq=False)
class Basis:
    """A finite basis of the target space.

    ``sine`` bases carry per-axis Laplacian eigenvalues (strictly decreasing
    in the mode index) plus the flattened tensor eigenvalues used by the
    diagonal operators.  ``nodal`` bases carry quadrature weights instead.
    """

    kind: str  # "sine" | "nodal"
    dimension: int
    n: int  # modes (or nodes) per axis
    domain: Domain | None = None
    axis_eigenvalues: np.ndarray | None = field(default=None, repr=False)
    eigenvalues: np.ndarray | None = field(default=None, repr=False)
    weights: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.n ** self.dimension

    def _key(self):
        return (self.kind, self.dimension, self.n)

    def __eq__(self, other):
        return isinstance(other, Basis) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class Field:
    """An element of the discretized target space.

    ``coeffs`` is a flat float64 vector of length ``basis.size`` holding
    basis coefficients (sine basis) or point values (nodal basis).
    ``metric`` tags the field's native Sobolev order; operations that need a
    metric take it explicitly.
    """

    coeffs: np.ndarray
    basis: Basis
    metric: SobolevOrder = SobolevOrder.L2

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.shape != (self.basis.size,):
            raise ShapeError(
                f"expected {self.basis.size} coefficients, got {coeffs.shape}"
            )
        if not np.isfinite(coeffs).all():
            raise ShapeError("field coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def with_coeffs(self, coeffs: np.ndarray) -> "Field":
        return Field(coeffs, self.basis, self.metric)

    def __add__(self, other: "Field") -> "Field":
        _check_same_basis(self, other)
        return self.with_coeffs(self.coeffs + other.coeffs)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_basis(self, other)
        return self.with_coeffs(self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Field":
        return self.with_coeffs(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return self.with_coeffs(-self.coeffs)


def _check_same_basis(a: Field, b: Field):
    if a.basis != b.basis:
        raise ShapeError("fields live on different bases")


def make_space(domain: Domain, resolution: int) -> Basis:
    """Build the sine-spectral basis for ``domain`` with ``resolution`` modes
    per axis.

    Per-axis eigenvalues are ``-(k/2)**2`` for ``k = 1..n``; tensor modes sum
    the per-axis values.  Deterministic for fixed inputs.
    """
    if resolution < 4:
        raise ConfigurationError(f"resolution must be >= 4, got {resolution}")
    k = np.arange(1, resolution + 1, dtype=np.float64)
    axis_eigs = -((k / 2.0) ** 2)
    if domain.dimension == 1:
        tensor = axis_eigs
    else:
        grids = np.meshgrid(*([axis_eigs] * domain.dimension), indexing="ij")
        tensor = sum(grids).ravel()
    tensor = np.ascontiguousarray(tensor)
    tensor.flags.writeable = False
    axis_eigs.flags.writeable = False
    return Basis(
        kind="sine",
        dimension=domain.dimension,
        n=resolution,
        domain=domain,
        axis_eigenvalues=axis_eigs,
        eigenvalues=tensor,
    )


def make_euclidean(m: int) -> Basis:
    """Plain R^m with the dot-product metric, as a nodal basis.

    Hosts targets like the plane needed by curve architectures.
    """
    if m < 1:
        raise ConfigurationError(f"euclidean size must be >= 1, got {m}")
    weights = np.ones(m)
    weights.flags.writeable = False
    return Basis(kind="nodal", dimension=1, n=m, weights=weights)


def zero_field(basis: Basis, metric: SobolevOrder = SobolevOrder.L2) -> Field:
    return Field(np.zeros(basis.size), basis, metric)


def _sobolev_scale(basis: Basis, metric: SobolevOrder) -> np.ndarray:
    """``(1 + |lambda_k|)**order`` per tensor mode: the diagonal of
    ``(I - Laplacian)**order``, defined on sine-spectral bases only."""
    if basis.kind != "sine":
        raise UnsupportedOperationError(
            "Sobolev metrics are only defined on sine-spectral bases"
        )
    return (1.0 + np.abs(basis.eigenvalues)) ** metric.weight_exponent


def _metric_weights(basis: Basis, metric: SobolevOrder) -> np.ndarray:
    """Diagonal coefficient weights of the chosen inner product.

    Sine basis: ``pi**d`` times the Sobolev scale per tensor mode.
    Nodal basis: quadrature weights, L2 only.
    """
    if metric is not SobolevOrder.L2:
        return HALF_WIDTH ** basis.dimension * _sobolev_scale(basis, metric)
    if basis.kind == "sine":
        return np.full(basis.size, HALF_WIDTH ** basis.dimension)
    return basis.weights


def inner_product(a: Field, b: Field, metric: SobolevOrder = SobolevOrder.L2) -> float:
    """Symmetric bilinear form <a, b> under the chosen Sobolev metric."""
    _check_same_basis(a, b)
    w = _metric_weights(a.basis, metric)
    return float(np.dot(a.coeffs * w, b.coeffs))


def norm(a: Field, metric: SobolevOrder = SobolevOrder.L2) -> float:
    return float(np.sqrt(max(inner_product(a, a, metric), 0.0)))


def laplacian(g: Field) -> Field:
    """Apply the Laplacian; exact on the span of the sine basis."""
    if g.basis.kind != "sine":
        raise UnsupportedOperationError("laplacian requires a sine-spectral basis")
    return g.with_coeffs(g.coeffs * g.basis.eigenvalues)


def metric_sharp(dl_l2: Field, target_metric: SobolevOrder) -> Field:
    """Convert an L2 gradient representative into the ``target_metric`` one.

    The result r satisfies <r, v>_target = <dl_l2, v>_L2 for every direction
    v; on the sine basis this is the diagonal map (1 + |lambda|)**-order,
    i.e. ``(I - Laplacian)**-order``.
    """
    if target_metric is SobolevOrder.L2:
        return dl_l2
    return dl_l2.with_coeffs(dl_l2.coeffs / _sobolev_scale(dl_l2.basis, target_metric))


def metric_flat(grad: Field, source_metric: SobolevOrder) -> Field:
    """Inverse of :func:`metric_sharp`: recover the L2 representative."""
    if source_metric is SobolevOrder.L2:
        return grad
    return grad.with_coeffs(grad.coeffs * _sobolev_scale(grad.basis, source_metric))


# ---------------------------------------------------------------------------
# Nodal transforms (pseudo-spectral evaluation of nonlinear terms)
# ---------------------------------------------------------------------------
#
# With padded node count N per axis, the DST-I nodes are
# u_j = pi (j+1) / (N+1) in the half-period variable u = (x + pi)/2, and
# phi_k(x_j) = sin(k u_j).  The synthesis matrix S[j, k] = sin(k u_j)
# (N nodes x n modes) satisfies S^T S = (N+1)/2 * I, so the analysis matrix
# A = 2/(N+1) * S^T inverts synthesis on the first n modes.  Both are built
# once per (n, pad_factor), cached read-only, and applied along each axis in
# turn; for these short axes a dense product beats a zero-padded FFT.
# Because A is S^T up to one scalar, <S c, v> = ((N+1)/2)^d <c, A v> holds
# exactly, so pointwise multiplication in nodal space is self-adjoint in the
# discrete L2 inner product.  That exactness is what lets analytic gradients
# match finite differences of the discrete loss to near machine precision.


@lru_cache(maxsize=8)
def _nodal_matrices(n: int, pad_factor: int) -> tuple[np.ndarray, np.ndarray]:
    """Synthesis S (N x n) and analysis A = 2/(N+1) S^T (n x N), read-only."""
    npad = pad_factor * n
    # reduce j*k modulo the period 2(N+1) exactly before scaling by pi/(N+1)
    phase = np.outer(np.arange(1, npad + 1), np.arange(1, n + 1)) % (2 * (npad + 1))
    synthesis = np.sin(np.pi / (npad + 1) * phase)
    analysis = np.ascontiguousarray((2.0 / (npad + 1)) * synthesis.T)
    synthesis.flags.writeable = False
    analysis.flags.writeable = False
    return synthesis, analysis


def _apply_per_axis(x: np.ndarray, m: np.ndarray, d: int) -> np.ndarray:
    """Contract every axis of the cube ``x`` with ``m`` (new length x old)."""
    if d == 1:
        return m @ x
    for _ in range(d):
        # contract the leading axis and append the new one, so after d
        # passes the axes are back in their original order
        x = (x.reshape(x.shape[0], -1).T @ m.T).reshape(x.shape[1:] + m.shape[:1])
    return x


def _to_nodal_raw(coeffs: np.ndarray, n: int, d: int, pad_factor: int) -> np.ndarray:
    synthesis, _ = _nodal_matrices(n, pad_factor)
    return _apply_per_axis(coeffs.reshape((n,) * d), synthesis, d)


def _from_nodal_raw(values: np.ndarray, n: int, d: int, pad_factor: int) -> np.ndarray:
    _, analysis = _nodal_matrices(n, pad_factor)
    return _apply_per_axis(values, analysis, d).reshape(-1)


def to_nodal(g: Field, pad_factor: int = 2) -> np.ndarray:
    """Evaluate a sine-basis field on the padded DST-I node grid."""
    basis = g.basis
    if basis.kind != "sine":
        raise UnsupportedOperationError("nodal transform requires a sine basis")
    return _to_nodal_raw(g.coeffs, basis.n, basis.dimension, pad_factor)


def from_nodal(values: np.ndarray, basis: Basis, pad_factor: int = 2) -> Field:
    """Project padded nodal values back onto the first ``n`` modes per axis."""
    if basis.kind != "sine":
        raise UnsupportedOperationError("nodal transform requires a sine basis")
    n, d = basis.n, basis.dimension
    npad = pad_factor * n
    if values.shape != (npad,) * d:
        raise ShapeError(f"expected nodal cube of shape {(npad,) * d}")
    return Field(_from_nodal_raw(values, n, d, pad_factor), basis)


# ---------------------------------------------------------------------------
# Manufactured fields from (mode, amplitude) lists
# ---------------------------------------------------------------------------


def _axis_mode_coeffs(basis: Basis, mode: int) -> np.ndarray:
    """Per-axis coefficients of sin(mode * x) (mode >= 1) or 1 (mode = 0)."""
    n = basis.n
    out = np.zeros(n)
    if mode == 0:
        k = np.arange(1, n + 1)
        odd = k % 2 == 1
        out[odd] = 4.0 / (np.pi * k[odd])
        return out
    if 2 * mode > n:
        raise ConfigurationError(
            f"mode {mode} needs resolution >= {2 * mode}, basis has n = {n}"
        )
    out[2 * mode - 1] = (-1.0) ** mode  # sin(m x) = (-1)^m phi_{2m}
    return out


def field_from_modes(basis: Basis, modes: list[tuple[int, float]]) -> Field:
    """Build a field from (mode, amplitude) pairs.

    Mode 0 is the constant function 1; mode k >= 1 is sin(k x).  In three
    dimensions a scalar mode k means the separable product of sin(k x_i)
    over axes (k = 0 again the constant).  The 1-D sine modes are exact in
    the basis; the constant is its L2 projection.
    """
    if basis.kind != "sine":
        raise UnsupportedOperationError("mode lists require a sine basis")
    n, d = basis.n, basis.dimension
    total = np.zeros((n,) * d)
    for mode, amp in modes:
        axis = _axis_mode_coeffs(basis, int(mode))
        if d == 1:
            term = axis
        else:
            term = axis
            for _ in range(d - 1):
                term = np.multiply.outer(term, axis)
        total = total + float(amp) * term
    return Field(total.ravel(), basis)


# ---------------------------------------------------------------------------
# Serialization: little-endian float64 coefficients behind a short header
# ---------------------------------------------------------------------------

_MAGIC = b"GLF1"
_BASIS_TAGS = {"sine": 0, "nodal": 1}
_BASIS_KINDS = {v: k for k, v in _BASIS_TAGS.items()}


def field_to_bytes(g: Field) -> bytes:
    header = struct.pack(
        "<4sBBIB",
        _MAGIC,
        g.basis.dimension,
        _BASIS_TAGS[g.basis.kind],
        g.basis.n,
        g.metric.value,
    )
    return header + g.coeffs.astype("<f8").tobytes()


def field_from_bytes(data: bytes) -> Field:
    head = struct.calcsize("<4sBBIB")
    magic, dim, kind_tag, n, metric_val = struct.unpack("<4sBBIB", data[:head])
    if magic != _MAGIC:
        raise ConfigurationError("not a serialized field")
    kind = _BASIS_KINDS[kind_tag]
    if kind == "sine":
        basis = make_space(Domain(dimension=dim), n)
    else:
        basis = make_euclidean(n)
    coeffs = np.frombuffer(data[head:], dtype="<f8").astype(np.float64)
    return Field(coeffs, basis, SobolevOrder(metric_val))
