from __future__ import annotations

import numpy as np
import pytest

from gradlab import architectures as ar
from gradlab import spaces as sp


@pytest.fixture(scope="session")
def basis_64():
    return sp.make_space(sp.Domain(1), 64)


@pytest.fixture(scope="session")
def basis_128():
    return sp.make_space(sp.Domain(1), 128)


@pytest.fixture(scope="session")
def basis_256():
    return sp.make_space(sp.Domain(1), 256)


@pytest.fixture(scope="session")
def basis_3d():
    return sp.make_space(sp.Domain(3), 8)


def reconstruct(field: sp.Field, x: np.ndarray) -> np.ndarray:
    """Evaluate a sine-basis field at arbitrary points, independently of
    the package's transform stack (test oracle)."""
    n = field.basis.n
    k = np.arange(1, n + 1)
    return np.sin(np.outer(x + np.pi, k / 2.0)) @ field.coeffs


def quad_inner(f: sp.Field, g: sp.Field, n_quad: int = 20001) -> float:
    """L2 inner product by dense trapezoid quadrature of reconstructed
    functions (test oracle, independent of coefficient identities)."""
    x = np.linspace(-np.pi, np.pi, n_quad)
    return float(np.trapezoid(reconstruct(f, x) * reconstruct(g, x), x))


def gauss_project(values: np.ndarray, x: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Sine-basis coefficients <f, phi_k> / pi, k = 1..n, of function values
    ``values`` (..., len(x)) at quadrature nodes ``x`` with weights ``w``
    (test oracle, independent of the package's closed forms)."""
    k = np.arange(1, n + 1)
    return (values * w) @ np.sin(np.outer(x + np.pi, k / 2.0)) / np.pi


def panel_gauss(panels: int = 512, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [-pi, pi].

    Each panel spans at most one period of the products integrated against
    phi_512, so a low-order rule with accurate nodes integrates them to
    rounding level (test oracle)."""
    t, wt = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-np.pi, np.pi, panels + 1)
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    return (mid[:, None] + half[:, None] * t).ravel(), (half[:, None] * wt).ravel()


def smooth_random_field(basis: sp.Basis, rng, scale: float = 0.5) -> sp.Field:
    """Random field with a decaying spectrum; keeps losses O(1) so central
    differences are not destroyed by cancellation."""
    decay = (1.0 + np.abs(basis.eigenvalues)) ** -2
    return sp.Field(scale * rng.standard_normal(basis.size) * decay, basis)


def gram_at(arch, w, metric=sp.SobolevOrder.L2) -> ar.KernelDiagnostics:
    """``tangent_gram`` of the Jacobian of ``arch`` at ``w``."""
    _, jac = ar.model_and_jacobian(arch, w)
    return ar.tangent_gram(jac, arch.target_basis, metric)


def kernel_at(arch, w, g, metric=sp.SobolevOrder.L2) -> sp.Field:
    """``kernel_apply`` of the Jacobian of ``arch`` at ``w`` to ``g``."""
    _, jac = ar.model_and_jacobian(arch, w)
    return ar.kernel_apply(jac, g, metric)
