"""Correctness gates and output digests for benchmark jobs.

The gates restate the acceptance criteria the workloads mirror.  They
recompute errors from the terminal state instead of trusting the columns
the trace recorded, so a wrong terminal state fails even when the trace
claims success.  Importing this module needs ``gradlab`` on ``sys.path``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from gradlab import architectures, flows, problems, spaces
from gradlab.spaces import SobolevOrder

import workloads as wl

MODEL_ERROR_TOL = 1e-3
LYAPUNOV_TOL = 1e-9
EXPANSION_DRIFT_TOL = 1e-12


def double_well():
    """The tilted double well of criterion 9 as a one-parameter curve on
    the plane: loss(w) = 0.5 (w^2 - 1)^2 + 0.5 gamma^2 (w - tilt)^2.

    Returns (problem, arch, w0, barrier), where ``barrier`` is the local
    maximum separating the shallow basin (w < 0) from the deep one.
    """
    gamma, tilt = wl.ANNEAL_GAMMA, wl.ANNEAL_TILT
    plane = spaces.make_euclidean(2)
    e1 = spaces.Field(np.array([1.0, 0.0]), plane)
    e2 = spaces.Field(np.array([0.0, 1.0]), plane)
    arch = architectures.curve_architecture([([0.0, 0.0, 1.0], e1), ([0.0, gamma], e2)])
    problem = problems.quadratic_problem(plane, spaces.Field(np.array([1.0, gamma * tilt]), plane))
    # critical points solve loss'(w) = 2 w^3 + (gamma^2 - 2) w - gamma^2 tilt = 0
    roots = np.sort(np.roots([2.0, 0.0, gamma**2 - 2.0, -(gamma**2) * tilt]).real)
    w0 = architectures.ParamVector(np.array([wl.ANNEAL_W0]))
    return problem, arch, w0, float(roots[1])


def anneal_config(sde_seed: int) -> flows.FlowConfig:
    return flows.FlowConfig(
        t_end=wl.ANNEAL_T_END,
        sde_step=wl.ANNEAL_STEP,
        record_every=wl.ANNEAL_RECORD_EVERY,
        seed=sde_seed,
        noise_beta=wl.ANNEAL_BETA,
        anneal_c=wl.ANNEAL_C,
        record_params=False,
    )


def _l2_error(coeffs: np.ndarray, target: spaces.Field) -> float:
    return spaces.norm(spaces.Field(coeffs, target.basis) - target, SobolevOrder.L2)


def _monotone(trace) -> bool:
    return flows.lyapunov_check(trace, LYAPUNOV_TOL) == []


def parametric_gate(problem, arch, trace) -> list[str]:
    """npbe_pullback: terminal model error <= 1e-3 and monotone loss."""
    failures = []
    if trace.terminal_reason == "divergence":
        failures.append("divergence")
    model, _ = architectures.model_and_jacobian(arch, trace.terminal_state)
    err = _l2_error(model, problem.known_solution)
    if not err <= MODEL_ERROR_TOL:
        failures.append(f"terminal model error {err:.3e} > {MODEL_ERROR_TOL:g}")
    if not _monotone(trace):
        failures.append("loss not monotone")
    return failures


def nominal_gate(problem, trace) -> list[str]:
    """nominal_3d: terminal model error <= 1e-3 and monotone loss."""
    failures = []
    if trace.terminal_reason == "divergence":
        failures.append("divergence")
    err = _l2_error(trace.terminal_state.coeffs, problem.known_solution)
    if not err <= MODEL_ERROR_TOL:
        failures.append(f"terminal model error {err:.3e} > {MODEL_ERROR_TOL:g}")
    if not _monotone(trace):
        failures.append("loss not monotone")
    return failures


def growth_gate(problem, gtrace, solution_tol: float) -> list[str]:
    """growth_quadratic: converged, final loss <= solution_tol, and every
    expansion moved the model by at most 1e-12."""
    failures = []
    if not gtrace.converged:
        failures.append("not converged")
    if any(seg.terminal_reason == "divergence" for seg in gtrace.segments):
        failures.append("divergence")
    model, _ = architectures.model_and_jacobian(gtrace.final_arch, gtrace.final_params)
    loss = 0.5 * _l2_error(model, problem.known_solution) ** 2
    if not loss <= solution_tol:
        failures.append(f"final loss {loss:.3e} > {solution_tol:g}")
    drifts = [e.model_drift for e in gtrace.expansions]
    if any(not d <= EXPANSION_DRIFT_TOL for d in drifts):
        failures.append(f"expansion drift {max(drifts):.3e} > {EXPANSION_DRIFT_TOL:g}")
    return failures


def digest(losses: list[np.ndarray], states: list[np.ndarray]) -> str:
    """SHA-256 of loss columns and terminal states, for bit-for-bit
    comparison of a traced job with its untraced twin."""
    h = hashlib.sha256()
    for arr in list(losses) + list(states):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()
