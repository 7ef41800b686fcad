"""gradlab benchmark: time to solution on four flow workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller drives gradlab in a closed loop, one job at a time, each job in a
fresh worker process (``worker.py``) at the BLAS library's default thread
count.  A run first completes the workload's minimum number of jobs, then
starts another only while its predicted end stays within ``--seconds``.

``--trace 0`` reports the end-to-end metrics from untraced jobs.  ``--trace
1`` runs untraced jobs, then a traced twin of each while time remains; the
twin wraps every module boundary (``tracing.py``), must reproduce its
untraced twin bit for bit, and gives the per-layer metrics and the tracing
overhead.  Both modes print every metric by name and unit, then the
machine block, then one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status is non-zero, with no JSON line, when gradlab
is not importable from ``src/`` or no job completed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
RUNS_DIR = ROOT / ".perfbench_runs"
# a run must end within 180 s; stop starting jobs past this budget
HARD_LIMIT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("wall_s", "s"),
    ("paths_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
TIMINGS = ("setup_s", "solve_s", "wall_s")


def tail_percentile(samples):
    """Highest of a fixed ladder of percentiles with at least ten samples
    beyond it, as (percentile, value), or None when no rung qualifies."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        value = ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]
        if sum(x > value for x in ordered) >= 10:
            return p, value
    return None


def spawn(workload: str, spec: dict, out: Path, trace: bool, timeout: float) -> dict:
    """Run one worker process to completion and return its result."""
    out.mkdir(parents=True)
    if "ini" in spec:
        (out / f"{workload}.ini").write_text(spec["ini"])
    job = {"workload": workload, "spec": spec, "trace": trace, "out": str(out)}
    (out / "job.json").write_text(json.dumps(job))
    with open(out / "worker.log", "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(out / "job.json"), repr(t0)],
            stdout=subprocess.DEVNULL, stderr=log, cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
        wall = time.perf_counter() - t0
    result_file = out / "result.json"
    if code != 0 or not result_file.exists():
        return {"ok": False, "error": f"worker exit {code}, see {out / 'worker.log'}", "wall_s": wall}
    result = json.loads(result_file.read_text())
    result.update(ok=True, wall_s=wall)
    return result


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_block(seed: int, load_before, load_after) -> dict:
    import ctypes

    import numpy
    import scipy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = "unknown"
    libs = [line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower()]
    if libs:
        lib = ctypes.CDLL(libs[0])
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "git_commit": commit,
        "workload_seed": seed,
    }


class Run:
    """One run of one workload: its jobs, in order, and what they report."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.w = wl.WORKLOADS[workload]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.t0 = time.perf_counter()
        self.dir = RUNS_DIR / workload
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.errors: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def job(self, index: int, trace: bool) -> dict:
        tag = "traced" if trace else "job"
        spec = wl.make_job(self.w.name, self.seed, index)
        result = spawn(self.w.name, spec, self.dir / f"{tag}{index}", trace,
                       timeout=HARD_LIMIT_S + 20.0 - self.elapsed())
        result["index"] = index
        if not result["ok"]:
            self.errors.append(f"{tag} {index}: {result['error']}")
        return result

    def _room(self, *groups: list[dict]) -> bool:
        """Whether one more of each group's jobs is predicted to end in time."""
        cost = sum(statistics.median(j["wall_s"] for j in g) for g in groups if g)
        end = self.elapsed() + cost
        return end <= self.seconds and end <= HARD_LIMIT_S

    def execute(self):
        """Untraced jobs, each followed by its traced twin in a traced run,
        so that a pair runs at nearly the same time on a drifting machine."""
        shutil.rmtree(self.dir, ignore_errors=True)
        minimum = self.w.min_gate_jobs if self.trace else self.w.min_jobs
        while len(self.untraced) < minimum or self._room(self.untraced, self.traced):
            index = len(self.untraced)
            self.untraced.append(self.job(index, trace=False))
            if self.trace and (not self.traced or self._room(self.traced)):
                self.traced.append(self.job(index, trace=True))

    def pairs(self) -> list[tuple[dict, dict]]:
        """(untraced, traced) twins that both completed."""
        by_index = {j["index"]: j for j in self.untraced}
        return [(by_index[t["index"]], t) for t in self.traced
                if t["ok"] and by_index[t["index"]]["ok"]]

    # -- outcomes ---------------------------------------------------------

    def outcomes(self):
        """(attempted, failed, failure notes) over every instance run."""
        per_job = self.w.paths_per_job
        attempted = per_job * (len(self.untraced) + len(self.traced))
        failed, notes = 0, list(self.errors)
        for tag, jobs in (("job", self.untraced), ("traced", self.traced)):
            for j in jobs:
                if not j["ok"] or j["failures"]:
                    failed += per_job
                if j["ok"] and j["failures"]:
                    notes.append(f"{tag} {j['index']}: " + "; ".join(j["failures"]))
        if self.w.name == "anneal_escape":
            paths = [p for j in self.untraced if j["ok"] for p in j["paths"]]
            gate = wl.anneal_gate(paths)
            if gate:
                failed += sum(not p["deep"] or p["reason"] == "divergence" for p in paths)
                notes += gate
        for u, t in self.pairs():
            if u["digest"] != t["digest"]:
                failed += per_job
                notes.append(f"traced {t['index']}: outputs differ from the untraced twin")
        return attempted, failed, notes

    def end_to_end(self) -> dict:
        """Medians over the untraced jobs that passed their gates."""
        ok = [j for j in self.untraced if j["ok"] and not j["failures"]]
        if not ok:
            return {}
        samples = {
            "setup_s": [j["setup_s"] for j in ok],
            "solve_s": [s for j in ok for s in j["solve_s"]],
            "wall_s": [j["wall_s"] for j in ok],
            "paths_per_s": [len(j["solve_s"]) / sum(j["solve_s"]) for j in ok],
            "peak_rss_mb": [j["maxrss_mb"] for j in ok],
        }
        return {name: (statistics.median(v), v) for name, v in samples.items() if v}

    def per_layer(self) -> tuple[dict, list[str], list[str]]:
        import tracing

        ok = [j for j in self.traced if j["ok"]]
        if not ok:
            return {}, [], []
        absent = sorted({n for j in ok for n in tracing.missing(self.w.name, j["calls"])[0]})
        gone = {m for j in ok for m in tracing.missing(self.w.name, j["calls"])[1]}
        metrics = {}
        for name, unit, _ in tracing.LAYER_METRICS:
            if name not in gone:
                metrics[name] = (statistics.median(j["layer"][name] for j in ok), unit)
        pairs = self.pairs()
        if pairs:
            metrics["trace.overhead"] = (
                statistics.median(100.0 * (sum(t["solve_s"]) / sum(u["solve_s"]) - 1.0)
                                  for u, t in pairs), "%"
            )
        return metrics, absent, sorted(gone)


def report(run: Run, machine: dict) -> dict | None:
    attempted, failed, notes = run.outcomes()
    e2e = run.end_to_end()
    w = run.w
    print(f"gradlab benchmark  workload={w.name}  seed={run.seed}  seconds={run.seconds:g}"
          f"  trace={int(run.trace)}  elapsed={run.elapsed():.1f}s")
    print(f"  jobs: {len(run.untraced)} untraced, {len(run.traced)} traced; "
          f"instances attempted {attempted}, failed {failed} "
          f"(failed_frac {failed / max(attempted, 1):.4f})")
    for note in notes:
        print(f"  FAIL {note}")
    print(f"  {'end-to-end metric':<34}{'unit':<8}{'median':>14}  tail percentile (n)")
    for name, unit in END_TO_END:
        if name not in e2e:
            continue
        value, samples = e2e[name]
        tail = "-"
        if name in TIMINGS:
            tp = tail_percentile(samples)
            tail = f"p{tp[0]:g} {tp[1]:.6g}" if tp else "none with 10 samples beyond"
        print(f"  {name:<34}{unit:<8}{value:>14.6g}  {tail} (n={len(samples)})")
    metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END
               if name in e2e}
    if run.trace:
        layer, absent, gone = run.per_layer()
        print(f"  {'per-layer metric (traced twins)':<34}{'unit':<8}{'median':>14}")
        for name, (value, unit) in layer.items():
            print(f"  {name:<34}{unit:<8}{value:>14.6g}")
        for name in absent:
            print(f"  MISSING boundary {name}: predicted calls, recorded none")
        for name in gone:
            print(f"  MISSING metric {name}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        if not layer:
            return None
    elif len(metrics) < len(END_TO_END):
        return None
    print("  machine " + json.dumps(machine, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gradlab" / "__init__.py").is_file():
        print(f"gradlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    machine = machine_block(args.seed, load_before, os.getloadavg())
    result = report(run, machine)
    if result is None:
        print("no job completed; no result", file=sys.stderr)
        for note in run.errors:
            print(f"  {note}", file=sys.stderr)
        return 1
    (RUNS_DIR / args.workload / "machine.json").write_text(json.dumps(machine, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
