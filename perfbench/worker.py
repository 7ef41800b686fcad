"""Run one benchmark job in a fresh process and write its result as JSON.

    python3 perfbench/worker.py JOB.json T_SPAWN

``T_SPAWN`` is ``run.py``'s ``time.perf_counter()`` just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so set-up time counts from before interpreter start.

INI workloads run through ``gradlab.cli.main``, the path ``gradlab run`` and
``gradlab grow`` take.  The worker hooks only the workload's solve entry
(``integrate_parametric``, ``integrate_nominal`` or ``run_growth_loop``): on
entry it makes one ``model_and_jacobian`` call at the starting point, so the
lazy quadrature tables are built inside set-up, marks the end of set-up, and
then times the solve.  ``anneal_escape`` is built from library constructors,
since INI cannot express a curve architecture.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _entry_hook(state, t_spawn, with_arch, real):
    from gradlab import architectures

    def timed(*args, **kwargs):
        if with_arch:
            architectures.model_and_jacobian(args[1], args[2])
        state["setup_s"] = time.perf_counter() - t_spawn
        t0 = time.perf_counter()
        result = real(*args, **kwargs)
        state["solve_s"] = [time.perf_counter() - t0]
        state["args"], state["result"] = args, result
        return result

    return timed


def _run_ini(job, t_spawn, out):
    from gradlab import cli, flows, growth
    import tracing
    import workloads as wl

    workload = job["workload"]
    module, name, with_arch = {
        "npbe_pullback": (flows, "integrate_parametric", True),
        "growth_quadratic": (growth, "run_growth_loop", True),
        "nominal_3d": (flows, "integrate_nominal", False),
    }[workload]
    state = {}
    real = getattr(module, name)
    hooked = _entry_hook(state, t_spawn, with_arch, real)
    tracing.replace_everywhere(real, hooked)
    ini = out / f"{workload}.ini"
    try:
        code = cli.main([wl.WORKLOADS[workload].command, "--config", str(ini), "--out", str(out)])
    finally:
        tracing.replace_everywhere(hooked, real)
    return state, [f"exit code {code}"] if code != 0 else []


def _finish_ini(job, state):
    import gates
    import workloads as wl

    workload, args, result = job["workload"], state["args"], state["result"]
    if workload == "npbe_pullback":
        failures = gates.parametric_gate(args[0], args[1], result)
        losses, final = [result.loss], result.terminal_state.values
    elif workload == "growth_quadratic":
        failures = gates.growth_gate(args[0], result, wl.GROWTH_SOLUTION_TOL)
        losses, final = [s.loss for s in result.segments], result.final_params.values
    else:
        failures = gates.nominal_gate(args[0], result)
        losses, final = [result.loss], result.terminal_state.coeffs
    return failures, gates.digest(losses, [final])


def _run_anneal(job, t_spawn, out, tracer):
    from gradlab import architectures, flows, traceio
    import gates

    started = _now()
    problem, arch, w0, barrier = gates.double_well()
    architectures.model_and_jacobian(arch, w0)
    state = {"setup_s": time.perf_counter() - t_spawn}
    seeds = job["spec"]["sde_seeds"]
    solve, paths, files, losses, finals = [], [], [], [], []
    for k, seed in enumerate(seeds):
        if tracer is not None:
            tracer.instance = k
        t0 = time.perf_counter()
        trace = flows.integrate_annealed(problem, arch, w0, gates.anneal_config(seed))
        solve.append(time.perf_counter() - t0)
        path = out / f"path{k}_trace.jsonl"
        traceio.write_trace(path, trace)
        files.append(path.name)
        final = trace.terminal_state.values
        paths.append({"deep": bool(final[0] > barrier), "reason": trace.terminal_reason})
        losses.append(trace.loss)
        finals.append(final)
    traceio.write_manifest(
        out / "anneal_manifest.json",
        traceio.config_hash({"anneal.sde_seeds": ",".join(map(str, seeds))}),
        started,
        _now(),
        files,
    )
    state.update(solve_s=solve, paths=paths, digest=gates.digest(losses, finals))
    return state


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    t_spawn = float(argv[2])
    out = Path(job["out"])
    sys.path.insert(0, str(ROOT / "src"))
    import gradlab  # noqa: F401  (set-up includes the package import)
    import tracing

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    result = {}
    if job["workload"] == "anneal_escape":
        state = _run_anneal(job, t_spawn, out, tracer)
        failures = []
        result.update(paths=state["paths"], digest=state["digest"])
    else:
        state, failures = _run_ini(job, t_spawn, out)
    if tracer is not None:
        tracer.uninstall()  # the gates below are not part of the job
    if "result" in state:
        gate_failures, result["digest"] = _finish_ini(job, state)
        failures += gate_failures
    result.update(
        setup_s=state.get("setup_s"),
        solve_s=state.get("solve_s", []),
        failures=failures,
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layer"], result["calls"] = tracing.layer_metrics(tracer)
        tracer.save(out / "spans.npz")
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
