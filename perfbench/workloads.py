"""Benchmark workloads and the job inputs generated from a workload seed.

This module is pure Python and does not import gradlab: the ``run.py``
process stays light, and the generated inputs depend only on (workload,
seed, job).  A job is what one fresh worker process runs: one flow
instance, or for ``anneal_escape`` a block of annealed seed paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # the CLI subcommand that runs the job, or None for a library-built job
    command: str | None
    # minimum jobs per untraced run, fixed by the gate and by the statistics;
    # at least 3, so that every run has 3 set-up samples
    min_jobs: int
    # minimum untraced jobs of a traced run
    min_gate_jobs: int
    paths_per_job: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "npbe_pullback",
            "stiff 1-D NPBE pullback under RK45: the flow right-hand side and the NPBE kernel dominate",
            "run", min_jobs=3, min_gate_jobs=1,
        ),
        Workload(
            "growth_quadratic",
            "grow-at-stall loop on a quadratic target: model+Jacobian, tangent Gram, growth and trace writes carry the load",
            "grow", min_jobs=3, min_gate_jobs=1,
        ),
        Workload(
            "anneal_escape",
            "double-well Euler-Maruyama ensemble: the EM step loop and the RNG, almost nothing else",
            None, min_jobs=3, min_gate_jobs=3, paths_per_job=5,
        ),
        Workload(
            "nominal_3d",
            "3-D NPBE nominal flow at n=17: the Field path of problems and the 3-D nodal transforms",
            "run", min_jobs=4, min_gate_jobs=1,
        ),
    )
}

# npbe_pullback: configs/npbe_solve.ini with phi and w0 jittered by up to 1 %
NPBE_PHI = ((1, 0.6), (2, 0.25))
NPBE_W0 = (0.05, 1.05, 0.5, 2.1, 0.2)
NPBE_JITTER = 0.01

# growth_quadratic: configs/growth_demo.ini with amplitudes jittered by up to
# 10 % and the expansion frequency seed drawn from the workload seed
GROWTH_PHI = ((0, 1.0), (1, 0.5), (3, 0.25))
GROWTH_JITTER = 0.1
GROWTH_SOLUTION_TOL = 1e-4

# nominal_3d: NPBE on the default 3-D grid from g0 = 0, phi jittered by 1 %
NOMINAL_PHI = ((1, 0.6), (2, 0.25))
NOMINAL_JITTER = 0.01

# anneal_escape: the tilted double well of acceptance criterion 9
ANNEAL_GAMMA = 0.5
ANNEAL_TILT = 1.8
ANNEAL_W0 = -1.0
ANNEAL_T_END = 200.0
ANNEAL_STEP = 1e-3  # 200k Euler-Maruyama steps per path
ANNEAL_RECORD_EVERY = 2.0
ANNEAL_BETA = 1.0
ANNEAL_C = 2.0
ANNEAL_DEEP_SHARE = 0.8


def _rng(workload: str, seed: int, job: int) -> random.Random:
    # string seeds are hashed with SHA-512, so the stream is stable across
    # processes and Python versions
    return random.Random(f"{workload}/{seed}/{job}")


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rng.uniform(-rel, rel))


def _modes(pairs) -> str:
    return ", ".join(f"{k}:{a!r}" for k, a in pairs)


def make_job(workload: str, seed: int, job: int) -> dict:
    """Inputs of job ``job`` of a run with workload seed ``seed``.

    INI-expressible workloads get the text of the config file the job runs;
    ``anneal_escape`` gets its block of SDE seeds.
    """
    rng = _rng(workload, seed, job)
    if workload == "npbe_pullback":
        phi = [(k, _jitter(rng, a, NPBE_JITTER)) for k, a in NPBE_PHI]
        w0 = [_jitter(rng, v, NPBE_JITTER) for v in NPBE_W0]
        ini = (
            "[problem]\nkind = npbe\nresolution = 24\nmetric = w22\n"
            f"phi = {_modes(phi)}\n\n"
            "[architecture]\nkind = sinusoid\na = 2\n"
            f"w0 = {', '.join(repr(v) for v in w0)}\n\n"
            "[flow]\nkind = parametric\nt_end = 80\nrecord_every = 0.05\n\n"
            "[analysis]\nlojasiewicz = true\nloss_target = 0.0\n"
        )
        return {"ini": ini}
    if workload == "growth_quadratic":
        phi = [(k, _jitter(rng, a, GROWTH_JITTER)) for k, a in GROWTH_PHI]
        ini = (
            "[problem]\nkind = quadratic\nresolution = 128\n"
            f"phi = {_modes(phi)}\n\n"
            "[architecture]\nkind = sinusoid\na = 1\nw0 = 0.2, 1.3, 0.1\n\n"
            "[flow]\nkind = parametric\nt_end = 400\nrecord_every = 0.5\n"
            "stall_window = 40\nstall_rel_change = 1e-9\n\n"
            f"[growth]\nmax_levels = 5\nsolution_tol = {GROWTH_SOLUTION_TOL!r}\n"
            f"frequency_seed = {rng.randrange(2**31)}\n"
        )
        return {"ini": ini}
    if workload == "nominal_3d":
        phi = [(k, _jitter(rng, a, NOMINAL_JITTER)) for k, a in NOMINAL_PHI]
        ini = (
            "[problem]\nkind = npbe\ndimension = 3\nresolution = 17\nmetric = w22\n"
            f"phi = {_modes(phi)}\n\n"
            "[flow]\nkind = nominal\nt_end = 80\n"
        )
        return {"ini": ini}
    if workload == "anneal_escape":
        paths = WORKLOADS[workload].paths_per_job
        return {"sde_seeds": [rng.randrange(2**32) for _ in range(paths)]}
    raise KeyError(f"unknown workload '{workload}'")


def anneal_gate(paths: list[dict]) -> list[str]:
    """anneal_escape over a run's paths: no divergent path, and a deep-basin
    share of at least 0.8.  Each path is {"deep": bool, "reason": str}."""
    failures = []
    divergent = sum(p["reason"] == "divergence" for p in paths)
    if divergent:
        failures.append(f"{divergent} divergent path(s)")
    share = sum(p["deep"] for p in paths) / max(len(paths), 1)
    if not share >= ANNEAL_DEEP_SHARE:
        failures.append(f"deep-basin share {share:.3f} < {ANNEAL_DEEP_SHARE}")
    return failures
