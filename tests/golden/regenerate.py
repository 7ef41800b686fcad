"""Golden runs: what each shipped config produces, summarised to the figures
that a refactor must keep.

Each case runs one ``gradlab`` command through ``gradlab.cli.main`` and is
summarised by ``run_case``.  ``tests/test_golden.py`` compares a fresh
summary with ``tests/golden/<name>.json`` to the tolerances stated there.

Regenerate every golden file, or the named ones, from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py [name ...]

Every regeneration needs a ``CHANGES.md`` line that says why the figures
moved.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
CONFIGS = GOLDEN.parents[1] / "configs"

# the 3-D n=17 nominal NPBE solve: perfbench's nominal_3d without its jitter
NOMINAL_3D = (
    "[problem]\nkind = npbe\ndimension = 3\nresolution = 17\nmetric = w22\n"
    "phi = 1:0.6, 2:0.25\n\n"
    "[flow]\nkind = nominal\nt_end = 80\n"
)

# name -> (command, INI text)
CASES = {
    "annealed_double_start": ("run", None),
    "coverage_demo": ("coverage-demo", None),
    "growth_demo": ("grow", None),
    "npbe_solve": ("run", None),
    "quadratic_fit": ("run", None),
    "spectrum_demo": ("spectrum", None),
    "nominal_3d": ("run", NOMINAL_3D),
}


def _rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _trace_summary(path: Path) -> dict:
    from gradlab import traceio

    trace = traceio.read_trace(path)
    error = trace.model_error[-1] if trace.model_error is not None else None
    return {
        "terminal_reason": trace.terminal_reason,
        "samples": trace.n_samples,
        "counters": dict(trace.counters),
        "loss": float(trace.loss[-1]),
        "model_error": None if error is None else float(error),
    }


def case_argv(name: str, workdir: Path) -> list[str]:
    """Write case ``name``'s config into ``workdir``; the argv that runs it
    with its outputs in ``workdir/out``."""
    command, ini = CASES[name]
    config = workdir / f"{name}.ini"
    config.write_text(ini if ini is not None else (CONFIGS / f"{name}.ini").read_text())
    return [command, "--config", str(config), "--out", str(workdir / "out")]


def run_case(name: str, workdir: Path) -> dict:
    """Run case ``name`` in ``workdir`` and summarise its outputs."""
    # imported here, so that ab.py can read CASES with no gradlab on sys.path
    from gradlab import cli

    command = CASES[name][0]
    out = workdir / "out"
    code = cli.main(case_argv(name, workdir))
    summary = {"command": command, "exit_code": code}
    if command == "run":
        summary["traces"] = [_trace_summary(out / f"{name}_trace.jsonl")]
        analysis = out / f"{name}_analysis.csv"
        if analysis.exists():
            summary["alpha_hat"] = float(_rows(analysis)[0]["alpha_hat"])
    elif command == "grow":
        rows = _rows(out / f"{name}_growth.csv")
        summary["traces"] = [
            _trace_summary(out / f"{name}_level{r['level']}_trace.jsonl") for r in rows
        ]
        summary["levels"] = [
            {"n_params": int(r["n_params"]), "verdict": r["verdict"]} for r in rows
        ]
        summary["converged"] = rows[-1]["verdict"] == "converged"
        summary["model_error"] = float(rows[-1]["model_error"])
    elif command == "spectrum":
        summary["spectra"] = [
            {"numerical_rank": int(r["numerical_rank"]), "consistency": r["consistency"]}
            for r in _rows(out / f"{name}_spectrum.csv")
        ]
    else:
        row = _rows(out / f"{name}_coverage_summary.csv")[0]
        summary["medians"] = {k: float(v) for k, v in row.items()}
    return summary


def main(names: list[str]) -> int:
    for name in names or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            summary = run_case(name, Path(tmp))
        path = GOLDEN / f"{name}.json"
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
