"""The module boundaries the benchmark predicts per workload are still called.

perfbench prints a boundary of ``tracing.PREDICTED`` that records no call as
``MISSING`` and leaves the per-layer metrics computed from it out of the
result.  This runs job 0 of each INI workload through ``gradlab.cli.main``
under the benchmark's own tracer and checks that nothing is missing.  It
only reads perfbench.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from gradlab import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """Import perfbench/<name>.py under a private module name, leaving
    sys.path alone so no benchmark module shadows a later import."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
wl = _load("workloads")


@pytest.mark.parametrize("workload", ["npbe_pullback", "growth_quadratic", "nominal_3d"])
def test_predicted_boundaries_record_calls(workload, tmp_path):
    ini = tmp_path / f"{workload}.ini"
    ini.write_text(wl.make_job(workload, 0, 0)["ini"])
    argv = [wl.WORKLOADS[workload].command, "--config", str(ini), "--out", str(tmp_path / "out")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    _, calls = tracing.layer_metrics(tracer)
    assert tracing.missing(workload, calls) == ([], [])
