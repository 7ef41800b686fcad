"""Problem definitions: residual maps, losses, gradients, coercivity probes.

A problem bundles a residual map F acting on the discretized target space
with the loss L[g] = 0.5 * <F[g], F[g]>_L2 and a gradient metric.  The
returned gradient is always the representative in that metric, obtained by
converting the L2 representative with ``metric_sharp``.

Shipped problems:

* ``quadratic``  -- F[g] = g - phi, so L is half the squared L2 distance.
* ``npbe``       -- F[g] = -laplacian(g) + sinh(g) + h, the nonlinear
  Poisson-Boltzmann residual, evaluated pseudo-spectrally through
  ``spaces.to_nodal``/``from_nodal``.  The data field h is manufactured
  from a chosen solution phi as h = laplacian(phi) - sinh(phi), which makes
  phi an exact zero of the discrete residual.

Custom problems (used heavily in tests) supply their own residual and
L2-gradient callables.  Every constructor also builds the coefficient
kernel ``compiled_loss`` that parametric flows call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spaces
from .errors import ConfigurationError, DivergenceError
from .spaces import Field, SobolevOrder


# A known solution must have a loss of at most KNOWN_SOLUTION_RTOL times the
# zero field's (a residual 1e-12 of the data's size, which rounding reaches
# and a wrong solution does not), or at most KNOWN_SOLUTION_FLOOR.
KNOWN_SOLUTION_RTOL = 1e-24
KNOWN_SOLUTION_FLOOR = 1e-20


@dataclass(frozen=True)
class Problem:
    """A residual map with its loss convention and gradient metric.

    Every problem carries its coefficient kernel ``compiled_loss(c) ->
    (loss, dl_l2_coeffs, clamped)``, the one computation that parametric
    flows pull back through an architecture.  The nominal flow and the
    probes use the ``Field`` callables, which compute the same thing:
    ``residual_map(g) -> Field`` evaluates F, ``l2_gradient_map(g, F(g))
    -> Field`` returns the L2 Frechet representative of DL at g (the
    public gradient applies the metric conversion on top of it), and
    ``clamp_probe(g) -> bool`` reports whether the overflow clamp engaged.
    """

    name: str
    residual_map: object
    l2_gradient_map: object
    loss_kind: str  # "half-residual-norm" | "quadratic-distance"
    gradient_metric: SobolevOrder
    basis: spaces.Basis
    compiled_loss: object
    known_solution: Field | None = None
    clamp_probe: object = None

    def __post_init__(self):
        if self.known_solution is None:
            return
        value = nominal_loss(self, self.known_solution).value
        if value > KNOWN_SOLUTION_FLOOR:
            zero = self.residual_map(spaces.zero_field(self.basis))
            with np.errstate(over="ignore"):
                scale = 0.5 * spaces.inner_product(zero, zero, SobolevOrder.L2)
            if not value <= KNOWN_SOLUTION_RTOL * scale:
                raise ConfigurationError(
                    f"known solution of '{self.name}' has loss {value:.3e}"
                )


@dataclass(frozen=True)
class LossEval:
    """Loss value, gradient representative, and residual norm at a point."""

    value: float
    gradient: Field
    residual_norm: float
    clamped: bool = False


def residual(p: Problem, g: Field) -> Field:
    """Evaluate the residual map F at g."""
    if g.basis != p.basis:
        raise ConfigurationError(f"field is not on the basis of '{p.name}'")
    return p.residual_map(g)


def nominal_loss(p: Problem, g: Field) -> LossEval:
    """Loss 0.5 * |F[g]|^2_L2 with its gradient in the problem metric."""
    if g.basis != p.basis:
        raise ConfigurationError(f"field is not on the basis of '{p.name}'")
    res = p.residual_map(g)
    value = 0.5 * spaces.inner_product(res, res, SobolevOrder.L2)
    dl_l2 = p.l2_gradient_map(g, res)
    if not np.isfinite(value) or not np.all(np.isfinite(dl_l2.coeffs)):
        raise DivergenceError(f"non-finite loss evaluation in '{p.name}'")
    grad = spaces.metric_sharp(dl_l2, p.gradient_metric)
    clamped = bool(p.clamp_probe(g)) if p.clamp_probe is not None else False
    return LossEval(
        value=value,
        gradient=grad,
        residual_norm=float(np.sqrt(2.0 * value)),
        clamped=clamped,
    )


def gradient_norm(p: Problem, ev: LossEval) -> float:
    return spaces.norm(ev.gradient, p.gradient_metric)


# ---------------------------------------------------------------------------
# Shipped problem constructors
# ---------------------------------------------------------------------------


def quadratic_problem(
    basis: spaces.Basis,
    phi: Field,
    metric: SobolevOrder = SobolevOrder.L2,
    name: str = "quadratic",
) -> Problem:
    """L[g] = 0.5 * |g - phi|^2_L2 with gradient in ``metric``."""

    def res(g: Field) -> Field:
        return g - phi

    def dl(g: Field, r: Field) -> Field:
        return r

    l2w = spaces._metric_weights(basis, SobolevOrder.L2)

    def compiled_loss(c: np.ndarray):
        r = c - phi.coeffs
        return 0.5 * float(np.dot(l2w * r, r)), r, False

    return Problem(
        name=name,
        residual_map=res,
        l2_gradient_map=dl,
        loss_kind="quadratic-distance",
        gradient_metric=metric,
        basis=basis,
        compiled_loss=compiled_loss,
        known_solution=phi,
    )


def npbe_problem(
    basis: spaces.Basis,
    phi: Field,
    metric: SobolevOrder = SobolevOrder.W22,
    clamp: float = spaces.DEFAULT_CLAMP,
    name: str = "npbe",
) -> Problem:
    """Nonlinear Poisson-Boltzmann residual with a manufactured solution.

    F[g] = -laplacian(g) + sinh(g) + h, with h = laplacian(phi) - sinh(phi).
    The L2 gradient representative is (-laplacian + cosh(g) *) applied to
    F[g]; the cosh multiplication happens in nodal space with the same
    transform pair as the residual, so the analytic gradient is the exact
    derivative of the discrete loss.  Nodal values are clamped to |v| <=
    clamp before sinh/cosh (the clamp zeroes the local derivative, keeping
    gradient and loss consistent).

    The math is written once, in ``npbe_pieces`` over a coefficient-array
    transform pair.  The ``Field`` callables take it on the public
    ``spaces.to_nodal``/``from_nodal``; ``compiled_loss`` takes it on their
    array cores, because validating a ``Field`` per transform would cost
    more than the small 1-D kernel itself.

    The ``Field`` callables share one cached nodal state: the clamped
    values, mask and clamp flag of the last coefficient vector they saw,
    keyed by a private copy of it compared bit for bit (so ``-0.0`` against
    ``+0.0`` and any NaN miss).  ``nominal_loss`` thus synthesises ``g``
    once, not three times.  Each set of pieces fills one preallocated
    nodal work cube in place for the mask's ``abs``, ``sinh`` and the
    ``cosh``-weighted product, with the same operations in the same order;
    every array handed out is freshly allocated.  The cache and the work
    cube make a ``Problem`` non-reentrant: do not call one from two threads
    at once (gradlab never does).
    """
    if basis.kind != "sine":
        raise ConfigurationError("npbe requires a sine-spectral basis")
    if not 0 < clamp < np.inf:
        raise ConfigurationError(f"clamp must be finite and > 0, got {clamp}")
    eigs = basis.eigenvalues
    n, d = basis.n, basis.dimension
    l2_weight = spaces.HALF_WIDTH ** d

    def npbe_pieces(to_nodal, from_nodal):
        """The clamped nodal values, the residual and its L2 gradient."""
        work = np.empty((2 * n,) * d)

        def nodal(c: np.ndarray):
            """Clamped nodal values of c, the unclamped mask, the clamp flag."""
            vals = to_nodal(c)
            mask = np.abs(vals, out=work) <= clamp
            clamped = not bool(mask.all())
            if clamped:
                vals = np.clip(vals, -clamp, clamp)
            return vals, mask, clamped

        def residual(c: np.ndarray, vals: np.ndarray) -> np.ndarray:
            return -eigs * c + from_nodal(np.sinh(vals, out=work)) + h

        def gradient(r: np.ndarray, vals: np.ndarray, mask: np.ndarray) -> np.ndarray:
            w = np.cosh(vals, out=work)
            w *= mask
            w *= to_nodal(r)
            return -eigs * r + from_nodal(w)

        return nodal, residual, gradient

    nodal, residual, gradient = npbe_pieces(
        lambda c: spaces.to_nodal(Field(c, basis)),
        lambda v: spaces.from_nodal(v, basis).coeffs,
    )
    fast_nodal, fast_residual, fast_gradient = npbe_pieces(
        lambda c: spaces._to_nodal_raw(c, n, d, 2),
        lambda v: spaces._from_nodal_raw(v, n, d, 2),
    )
    cache = None  # (private copy of the last c, its nodal(c))

    def nodal_of(c: np.ndarray):
        nonlocal cache
        if cache is not None and np.array_equal(cache[0].view(np.uint64), c.view(np.uint64)):
            return cache[1]
        entry = nodal(c)
        cache = (c.copy(), entry)
        return entry

    h = eigs * phi.coeffs - spaces.from_nodal(np.sinh(nodal_of(phi.coeffs)[0]), basis).coeffs

    def res(g: Field) -> Field:
        return g.with_coeffs(residual(g.coeffs, nodal_of(g.coeffs)[0]))

    def dl(g: Field, r: Field) -> Field:
        vals, mask, _ = nodal_of(g.coeffs)
        return r.with_coeffs(gradient(r.coeffs, vals, mask))

    def compiled_loss(c: np.ndarray):
        vals, mask, clamped = fast_nodal(c)
        r = fast_residual(c, vals)
        return 0.5 * l2_weight * float(np.dot(r, r)), fast_gradient(r, vals, mask), clamped

    return Problem(
        name=name,
        residual_map=res,
        l2_gradient_map=dl,
        loss_kind="half-residual-norm",
        gradient_metric=metric,
        basis=basis,
        compiled_loss=compiled_loss,
        known_solution=phi,
        clamp_probe=lambda g: nodal_of(g.coeffs)[2],
    )


def custom_problem(
    basis: spaces.Basis,
    residual_map,
    l2_gradient_map,
    metric: SobolevOrder = SobolevOrder.L2,
    known_solution: Field | None = None,
    name: str = "custom",
) -> Problem:
    """Assemble a problem from explicit residual/gradient callables; its
    coefficient kernel wraps them."""

    def compiled_loss(c: np.ndarray):
        g = Field(c, basis)
        res = residual_map(g)
        loss = 0.5 * spaces.inner_product(res, res, SobolevOrder.L2)
        return loss, l2_gradient_map(g, res).coeffs, False

    return Problem(
        name=name,
        residual_map=residual_map,
        l2_gradient_map=l2_gradient_map,
        loss_kind="half-residual-norm",
        gradient_metric=metric,
        basis=basis,
        compiled_loss=compiled_loss,
        known_solution=known_solution,
    )


# ---------------------------------------------------------------------------
# Coercivity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoercivityReport:
    epsilon: float
    n_rays: int
    radius_max: float
    exit_radii: np.ndarray
    bounded: bool
    inconclusive: bool


def coercivity_probe(
    p: Problem,
    epsilon: float,
    n_rays: int = 16,
    radius_max: float = 100.0,
    seed: int = 0,
    scan_points: int = 256,
) -> CoercivityReport:
    """Probe whether the sublevel set {g: L[g] < epsilon} looks bounded.

    Rays start at the known solution (or the zero field) in random
    L2-normalized directions.  Along each ray the largest radius with loss
    below epsilon is located by an outward grid scan plus bisection of the
    final crossing.  ``bounded`` holds when every exit radius is strictly
    inside ``radius_max``; rays still below epsilon at ``radius_max`` leave
    the probe inconclusive.
    """
    if epsilon < 0:
        raise ConfigurationError("epsilon must be >= 0")
    center = p.known_solution if p.known_solution is not None else spaces.zero_field(p.basis)
    rng = np.random.default_rng(seed)
    exit_radii = np.zeros(n_rays)
    inconclusive = False
    if epsilon == 0.0:
        # empty sublevel set: trivially bounded
        return CoercivityReport(epsilon, n_rays, radius_max, exit_radii, True, False)
    for i in range(n_rays):
        direction = Field(rng.standard_normal(p.basis.size), p.basis)
        direction = direction * (1.0 / spaces.norm(direction, SobolevOrder.L2))

        def loss_at(r: float) -> float:
            res = p.residual_map(center + r * direction)
            return 0.5 * spaces.inner_product(res, res, SobolevOrder.L2)

        radii = np.linspace(0.0, radius_max, scan_points + 1)
        below = np.array([loss_at(r) < epsilon for r in radii])
        if below[-1]:
            exit_radii[i] = radius_max
            inconclusive = True
            continue
        if not below.any():
            exit_radii[i] = 0.0
            continue
        last = int(np.nonzero(below)[0][-1])
        lo, hi = radii[last], radii[last + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if loss_at(mid) < epsilon:
                lo = mid
            else:
                hi = mid
        exit_radii[i] = 0.5 * (lo + hi)
    bounded = bool(np.all(exit_radii < radius_max)) and not inconclusive
    return CoercivityReport(epsilon, n_rays, radius_max, exit_radii, bounded, inconclusive)
