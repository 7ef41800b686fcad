"""Golden runs: every shipped config, and the 3-D n=17 nominal NPBE solve,
still ends where ``tests/golden/<name>.json`` says.

The check uses tolerances, not bytes, so it holds on any BLAS.  Verdicts
(terminal reasons, growth levels, spectrum ranks) must match exactly;
work counts must stay within a band; final losses and model errors must
stay under a bound.  ``tests/golden/regenerate.py`` rewrites the files.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("_golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

# sample count: within 5 % or 2 samples of the golden count
SAMPLE_BAND, SAMPLE_SLACK = 0.05, 2
# work counters (right-hand sides, Jacobians, steps, EM steps): within 10 %
# or 3 of the golden count
COUNT_BAND, COUNT_SLACK = 0.10, 3
# terminal loss and model error: at most 10x the golden value, or the floor
BOUND_FACTOR, LOSS_FLOOR, ERROR_FLOOR = 10.0, 1e-18, 1e-10
ALPHA_TOL = 0.01
MEDIAN_RTOL = 1e-9


def _within(value, golden, band, slack):
    return abs(value - golden) <= max(band * golden, slack)


def _check_trace(got, want):
    assert got["terminal_reason"] == want["terminal_reason"]
    assert _within(got["samples"], want["samples"], SAMPLE_BAND, SAMPLE_SLACK), got["samples"]
    assert got["counters"].keys() == want["counters"].keys()
    for key, golden in want["counters"].items():
        assert _within(got["counters"][key], golden, COUNT_BAND, COUNT_SLACK), (key, got["counters"])
    assert got["loss"] <= max(BOUND_FACTOR * want["loss"], LOSS_FLOOR)
    if want["model_error"] is None:
        assert got["model_error"] is None
    else:
        assert got["model_error"] <= max(BOUND_FACTOR * want["model_error"], ERROR_FLOOR)


@pytest.mark.parametrize("name", list(regenerate.CASES))
def test_golden_run(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = regenerate.run_case(name, tmp_path)
    assert got.keys() == want.keys()
    assert got["exit_code"] == want["exit_code"]
    assert len(got.get("traces", [])) == len(want.get("traces", []))
    for g, w in zip(got.get("traces", []), want.get("traces", [])):
        _check_trace(g, w)
    if "alpha_hat" in want:
        assert got["alpha_hat"] == pytest.approx(want["alpha_hat"], abs=ALPHA_TOL)
    if "levels" in want:
        assert got["levels"] == want["levels"]
        assert got["converged"] == want["converged"]
        assert got["model_error"] <= max(BOUND_FACTOR * want["model_error"], ERROR_FLOOR)
    if "spectra" in want:
        assert got["spectra"] == want["spectra"]
    if "medians" in want:
        assert got["medians"] == pytest.approx(want["medians"], rel=MEDIAN_RTOL)
