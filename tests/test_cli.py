import csv
import json
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gradlab import cli
from gradlab import traceio
from gradlab.config import AnalysisSettings, CoverageSettings
from gradlab.errors import DivergenceError
from gradlab.flows import FlowConfig
from gradlab.growth import GrowthSchedule

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

QUAD_DEMO = """
[problem]
kind = quadratic
resolution = 64
phi = 1:0.5

[architecture]
kind = sinusoid
a = 1
w0 = 0.0, 1.0, 0.1

[flow]
kind = parametric
t_end = 60
record_every = 0.1

[analysis]
lojasiewicz = true
rate = true
critical_point = true
"""

GROW_DEMO = """
[problem]
kind = quadratic
resolution = 128
phi = 0:1.0, 1:0.5, 3:0.25

[architecture]
kind = sinusoid
a = 1
w0 = 0.2, 1.3, 0.1

[flow]
kind = parametric
t_end = 400
record_every = 0.5
stall_window = 40
stall_rel_change = 1e-9

[growth]
max_levels = 5
solution_tol = 1e-4
"""


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


ABSURD_NOMINAL = """
[problem]
kind = npbe
resolution = 128
phi = 1:0.1

[flow]
kind = nominal
t_end = 10
g0 = 1:1e6
max_steps = 2000
"""

HUGE_PHI = (CONFIGS / "npbe_solve.ini").read_text().replace(
    "phi = 1:0.6, 2:0.25", "phi = 1:1e200, 2:1e200"
)
assert "1e200" in HUGE_PHI


class TestRun:
    def test_quadratic_demo(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUAD_DEMO)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        trace = traceio.read_trace(tmp_path / "out" / "cfg_trace.jsonl")
        assert trace.n_samples >= 50
        rows = read_rows(tmp_path / "out" / "cfg_analysis.csv")
        assert rows[0]["critical_case"] == "at_solution"
        assert float(rows[0]["alpha_hat"]) == pytest.approx(0.5, abs=0.02)

    def test_npbe_demo_work_budget(self, tmp_path):
        # the stiff NPBE pullback: LSODA needs about 1.5k right-hand sides
        # where an explicit RK45 needed about 57k
        config = CONFIGS / "npbe_solve.ini"
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        trace = traceio.read_trace(out / "npbe_solve_trace.jsonl")
        assert trace.terminal_reason == "grad_stop"
        assert 0 < trace.counters["rhs_evals"] < 5000
        assert trace.counters["steps"] > 0

    def test_npbe_demo_stiff_start_converges_at_n512(self, tmp_path):
        # LSODA's first step here is about 4.5e-12, far below t_end; a stiff
        # start that goes on to converge is not a divergence
        config = CONFIGS / "npbe_solve.ini"
        cfg = tmp_path / "npbe512.ini"
        text = config.read_text()
        assert "resolution = 24" in text
        cfg.write_text(text.replace("resolution = 24", "resolution = 512"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        trace = traceio.read_trace(out / "npbe512_trace.jsonl")
        assert trace.terminal_reason != "divergence"
        assert trace.model_error[-1] <= 1e-9
        assert trace.counters["rhs_evals"] < 5000

    def test_negative_tolerance_names_field(self, tmp_path, capsys):
        bad = QUAD_DEMO.replace("t_end = 60", "t_end = 60\nrel_tol = -1e-9")
        cfg = write_config(tmp_path, bad)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "flow.rel_tol" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUAD_DEMO + "\n[flow2]\nx = 1\n")
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "flow2" in capsys.readouterr().err

    def test_absurd_initial_field_diverges(self, tmp_path):
        cfg = write_config(tmp_path, ABSURD_NOMINAL)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        trace = traceio.read_trace(tmp_path / "out" / "cfg_trace.jsonl")
        assert trace.terminal_reason == "divergence"
        assert any(e.kind == "clamp" for e in trace.events)
        assert "lsoda: Repeated convergence failures" in trace.events[-1].detail

    def test_manifest_lists_every_output(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_DEMO)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "cfg_manifest.json").read_text())
        emitted = {p.name for p in out.iterdir()} - {"cfg_manifest.json"}
        assert set(manifest["files"]) == emitted

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_DEMO)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("cfg_trace.jsonl", "cfg_analysis.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_env_var_output_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, QUAD_DEMO)
        target = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert (target / "cfg_trace.jsonl").exists()

    def test_jobs_pool_runs_all(self, tmp_path):
        cfg1 = write_config(tmp_path, QUAD_DEMO, "first.ini")
        cfg2 = write_config(tmp_path, QUAD_DEMO, "second.ini")
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg1), str(cfg2), "--out", str(out)])
        assert code == 0
        assert (out / "first_trace.jsonl").exists()
        assert (out / "second_trace.jsonl").exists()

    def test_colliding_output_stems_rejected(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cfg1 = write_config(tmp_path / "a", QUAD_DEMO, "x.ini")
        cfg2 = write_config(tmp_path / "b", QUAD_DEMO, "x.ini")
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg1), str(cfg2), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(cfg1) in err and str(cfg2) in err
        assert not out.exists()  # rejected before any run wrote output

    def test_nominal_writes_terminal_field(self, tmp_path):
        nominal = """
[problem]
kind = quadratic
resolution = 64
phi = 1:0.5

[flow]
kind = nominal
t_end = 5
g0 = 1:1.5
"""
        cfg = write_config(tmp_path, nominal)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        from gradlab import spaces as sp

        data = (out / "cfg_terminal.field").read_bytes()
        field = sp.field_from_bytes(data)
        assert field.basis.n == 64


class TestGrow:
    def test_three_mode_demo(self, tmp_path):
        cfg = write_config(tmp_path, GROW_DEMO)
        out = tmp_path / "out"
        code = cli.main(["grow", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "cfg_growth.csv")
        assert 1 <= len(rows) <= 5
        expanded = [r for r in rows if r["verdict"] == "expanded"]
        assert len(expanded) <= 4
        assert float(rows[-1]["end_loss"]) <= 1e-4

    def test_representable_target_no_expansion(self, tmp_path):
        text = GROW_DEMO.replace("phi = 0:1.0, 1:0.5, 3:0.25", "phi = 2:0.7").replace(
            "w0 = 0.2, 1.3, 0.1", "w0 = 0.0, 1.9, 0.5"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["grow", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "cfg_growth.csv")
        assert len(rows) == 1
        assert rows[0]["verdict"] == "converged"

    def test_duplicate_frequency_exit_code(self, tmp_path):
        text = (
            GROW_DEMO.replace("phi = 0:1.0, 1:0.5, 3:0.25", "phi = 0:0.8, 2:0.3")
            .replace("w0 = 0.2, 1.3, 0.1", "w0 = 0.0, 1.0, 0.0")
            + "forced_frequencies = 1.0\n"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(["grow", "--config", str(cfg), "--out", str(out)])
        assert code == 3

    def test_eci_alias(self, tmp_path):
        text = GROW_DEMO.replace("phi = 0:1.0, 1:0.5, 3:0.25", "phi = 2:0.7").replace(
            "w0 = 0.2, 1.3, 0.1", "w0 = 0.0, 1.9, 0.5"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["eci", "--config", str(cfg), "--out", str(out)]) == 0


SPECTRUM_SINUSOID = """
[problem]
kind = quadratic
resolution = 256
phi = 1:0.5

[architecture]
kind = sinusoid
a = 2

[spectrum]
count = 5
seed = 3
"""


class TestSpectrum:
    def test_sinusoid_random_rows_consistent(self, tmp_path):
        cfg = write_config(tmp_path, SPECTRUM_SINUSOID)
        out = tmp_path / "out"
        assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "cfg_spectrum.csv")
        assert len(rows) == 5
        assert all(r["consistency"] == "pass" for r in rows)

    def test_spiral_sweep_matches_closed_form(self, tmp_path):
        text = """
[architecture]
kind = spiral

[spectrum]
sweep = 0:10:101
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "cfg_spectrum.csv")
        assert len(rows) == 101
        for r in rows:
            w = float(r["w0"])
            assert float(r["min_nonzero_eig"]) == pytest.approx(
                1.0 + w * w, abs=1e-10
            )

    def test_affine_rows_identical(self, tmp_path):
        text = """
[problem]
kind = quadratic
resolution = 64
phi = 1:0.5

[architecture]
kind = affine
modes = 1, 2, 3

[spectrum]
count = 4
seed = 0
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "cfg_spectrum.csv")
        eig_cols = [k for k in rows[0] if k.startswith("eig")]
        first = [rows[0][c] for c in eig_cols]
        for r in rows[1:]:
            assert [r[c] for c in eig_cols] == first


class TestCoverage:
    def test_spiral_beats_line_on_median(self, tmp_path):
        text = "[coverage]\ncount = 100\nseed = 0\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["coverage-demo", "--config", str(cfg), "--out", str(out)]) == 0
        summary = read_rows(out / "cfg_coverage_summary.csv")[0]
        assert float(summary["median_spiral_distance"]) < float(
            summary["median_line_distance"]
        )
        rows = read_rows(out / "cfg_coverage.csv")
        assert len(rows) == 100

    def test_target_on_line(self):
        rows = cli.coverage_distances(np.array([[37.0, 37.0]]), 150.0, 1e-3)
        assert rows[0][2] <= 1e-3  # line distance ~ 0

    def test_origin_close_to_both(self):
        rows = cli.coverage_distances(np.array([[0.0, 0.0]]), 150.0, 1e-3)
        assert rows[0][2] <= 1e-3
        assert rows[0][3] <= 1e-3


class TestAnalyze:
    def test_rerun_analysis_on_trace(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_DEMO)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        code = cli.main(
            [
                "analyze",
                "--config", str(cfg),
                "--out", str(out),
                str(out / "cfg_trace.jsonl"),
            ]
        )
        assert code == 0
        rows = read_rows(out / "cfg_trace_analysis.csv")
        assert float(rows[0]["alpha_hat"]) == pytest.approx(0.5, abs=0.02)

    def test_missing_trace_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_DEMO)
        code = cli.main(
            ["analyze", "--config", str(cfg), "--out", str(tmp_path), "missing.jsonl"]
        )
        assert code == 1


class TestThreeDimensionalConfig:
    def test_dimension_3_problem_builds_and_runs(self, tmp_path):
        text = """
[problem]
kind = npbe
dimension = 3
resolution = 8
phi = 1:0.4

[flow]
kind = nominal
t_end = 4
record_every = 0.1
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        trace = traceio.read_trace(out / "cfg_trace.jsonl")
        assert trace.loss[-1] < trace.loss[0]


class TestManifestHash:
    def test_stable_under_key_reordering(self, tmp_path):
        from gradlab import config as config_mod

        a = write_config(
            tmp_path,
            "[problem]\nkind = quadratic\nphi = 1:0.5\nresolution = 64\n",
            "a.ini",
        )
        b = write_config(
            tmp_path,
            "[problem]\nresolution = 64\nphi = 1:0.5\nkind = quadratic\n",
            "b.ini",
        )
        ha = traceio.config_hash(config_mod.load_config(a).flat_pairs())
        hb = traceio.config_hash(config_mod.load_config(b).flat_pairs())
        assert ha == hb

    def test_grow_manifest_lists_every_output(self, tmp_path):
        cfg = write_config(tmp_path, GROW_DEMO)
        out = tmp_path / "out"
        assert cli.main(["grow", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "cfg_manifest.json").read_text())
        emitted = {p.name for p in out.iterdir()} - {"cfg_manifest.json"}
        assert set(manifest["files"]) == emitted


class TestSeedOverride:
    def test_spectrum_seed_override_changes_draws(self, tmp_path):
        cfg = write_config(tmp_path, SPECTRUM_SINUSOID)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(
            ["spectrum", "--config", str(cfg), "--out", str(out2), "--seed", "99"]
        ) == 0
        a = (out1 / "cfg_spectrum.csv").read_bytes()
        b = (out2 / "cfg_spectrum.csv").read_bytes()
        assert a != b

    def test_annealed_seed_override(self, tmp_path):
        text = """
[problem]
kind = quadratic
resolution = 64
phi = 1:0.5

[architecture]
kind = sinusoid
a = 1
w0 = 0.0, 1.4, 0.05

[flow]
kind = annealed
t_end = 2
record_every = 0.5
seed = 3
noise_beta = 0.5
"""
        cfg = write_config(tmp_path, text)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(
            ["run", "--config", str(cfg), "--out", str(out2), "--seed", "4"]
        ) == 0
        a = (out1 / "cfg_trace.jsonl").read_bytes()
        b = (out2 / "cfg_trace.jsonl").read_bytes()
        assert a != b

    def test_annealed_requires_positive_beta(self, tmp_path, capsys):
        text = """
[problem]
kind = quadratic
resolution = 64
phi = 1:0.5

[architecture]
kind = sinusoid
a = 1
w0 = 0.0, 1.4, 0.05

[flow]
kind = annealed
t_end = 2
"""
        cfg = write_config(tmp_path, text)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "noise_beta" in capsys.readouterr().err


class TestSpectrumExplicitSets:
    def test_explicit_w_sets(self, tmp_path):
        text = """
[architecture]
kind = spiral

[spectrum]
w = 1.0; 2.0; 3.0
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "cfg_spectrum.csv")
        assert [float(r["w0"]) for r in rows] == [1.0, 2.0, 3.0]

    def test_analyze_growth_segment(self, tmp_path):
        cfg = write_config(tmp_path, GROW_DEMO)
        out = tmp_path / "out"
        assert cli.main(["grow", "--config", str(cfg), "--out", str(out)]) == 0
        seg = out / "cfg_level2_trace.jsonl"
        assert seg.exists()
        code = cli.main(
            ["analyze", "--config", str(cfg), "--out", str(out), str(seg)]
        )
        assert code == 0


def _input_case(tmp_path):
    """Inputs that must end in one stderr line and exit 1, each as the argv
    of one command, built inside ``tmp_path``."""
    sinusoid = "[problem]\nkind = quadratic\nresolution = 64\nphi = 1:0.5\n\n"
    sinusoid += "[architecture]\nkind = sinusoid\na = 1\n\n"
    bad_w = write_config(tmp_path, sinusoid + "[spectrum]\nw = nan, 1, 1\n", "w.ini")
    spiral = write_config(tmp_path, "[architecture]\nkind = spiral\n\n[spectrum]\nmetric = w12\n", "s.ini")
    not_json = tmp_path / "t.jsonl"
    not_json.write_text("not json\n")
    grow = (CONFIGS / "growth_demo.ini").read_text()
    assert "w0 = 0.2, 1.3, 0.1" in grow
    nan_grow = write_config(tmp_path, grow.replace("w0 = 0.2, 1.3, 0.1", "w0 = nan, 1.3, 0.1"), "g.ini")
    anneal = (CONFIGS / "annealed_double_start.ini").read_text()
    assert "anneal_c = 2.0" in anneal
    anneal_c = {
        name: write_config(tmp_path, anneal.replace("anneal_c = 2.0", f"anneal_c = {value}"), f"{name}.ini")
        for name, value in (("negative", "-1"), ("nan", "nan"))
    }
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    out = str(tmp_path / "out")
    sample = '{"record": "sample", "t": 0.0, "loss": 1.0, "grad_norm": 1.0}\n'
    string_t_end = tmp_path / "string_t_end.jsonl"
    string_t_end.write_text(
        '{"record": "header", "kind": "nominal", "config": {"t_end": "60"}}\n'
        + sample + '{"record": "terminal", "reason": "t_end"}\n'
    )
    event_without_t = tmp_path / "event_without_t.jsonl"
    event_without_t.write_text(
        '{"record": "header", "kind": "nominal", "config": {}}\n'
        + sample + '{"record": "terminal", "reason": "t_end", "events": [{"kind": "stop"}]}\n'
    )
    analyze = ["analyze", "--config", str(CONFIGS / "quadratic_fit.ini"), "--out", out]
    cases = {
        "spectrum_nan_w": ["spectrum", "--config", str(bad_w), "--out", out],
        "spectrum_spiral_w12": ["spectrum", "--config", str(spiral), "--out", out],
        "analyze_not_json": analyze + [str(not_json)],
        "analyze_string_t_end": analyze + [str(string_t_end)],
        "analyze_event_without_t": analyze + [str(event_without_t)],
        "grow_nan_w0": ["grow", "--config", str(nan_grow), "--out", out],
    }
    for name, config in anneal_c.items():
        cases[f"run_{name}_anneal_c"] = ["run", "--config", str(config), "--out", out]
    for command, config in OUT_IS_A_FILE.items():
        argv = [command, "--config", str(CONFIGS / f"{config}.ini"), "--out", str(a_file)]
        cases[f"out_is_a_file_{command}"] = argv
    return cases


# every command, with the shipped config it runs, when --out names a file
OUT_IS_A_FILE = {
    "run": "quadratic_fit",
    "grow": "growth_demo",
    "spectrum": "spectrum_demo",
    "coverage-demo": "coverage_demo",
}


class TestFailures:
    @pytest.mark.parametrize(
        "case",
        ["spectrum_nan_w", "spectrum_spiral_w12", "analyze_not_json", "grow_nan_w0"]
        + ["analyze_string_t_end", "analyze_event_without_t"]
        + ["run_negative_anneal_c", "run_nan_anneal_c"]
        + [f"out_is_a_file_{command}" for command in OUT_IS_A_FILE],
    )
    def test_one_stderr_line_and_exit_1(self, case, tmp_path, capsys):
        argv = _input_case(tmp_path)[case]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err

    @pytest.mark.parametrize("name", ["negative", "nan"])
    def test_invalid_anneal_c_is_a_config_error(self, name, tmp_path, capsys):
        # was a math-domain traceback (-1) and a reported divergence (nan)
        assert cli.main(_input_case(tmp_path)[f"run_{name}_anneal_c"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: flow.anneal_c must be ")

    @pytest.mark.parametrize(
        "line", ["[1, 2]", '{"record": "sample", "t": 0}', '{"record": "x"}', "{"]
    )
    def test_bad_trace_line_named(self, line, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"record": "header", "kind": "nominal", "config": {}}\n\n' + line + "\n")
        argv = ["analyze", "--config", str(CONFIGS / "quadratic_fit.ini"), "--out", str(tmp_path), str(trace)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert f"{trace}, line 3: not a trace record" in capsys.readouterr().err

    def test_setup_divergence_exits_2(self, tmp_path, capsys, monkeypatch):
        def diverging(cfg):
            raise DivergenceError("manufactured solution is not finite")

        monkeypatch.setattr(cli.config_mod, "build_problem", diverging)
        cfg = write_config(tmp_path, QUAD_DEMO)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.splitlines() == ["divergence: manufactured solution is not finite"]

    def test_failing_config_does_not_stop_the_next(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        out = tmp_path / "out"
        first = write_config(tmp_path, QUAD_DEMO + f"\n[output]\ndir = {a_file}\n", "first.ini")
        second = write_config(tmp_path, QUAD_DEMO + f"\n[output]\ndir = {out}\n", "second.ini")
        assert cli.main(["run", "--config", str(first), str(second)]) == cli.EXIT_CONFIG
        assert (out / "second_trace.jsonl").exists()

    @pytest.mark.parametrize(
        "text, code",
        [(ABSURD_NOMINAL, cli.EXIT_DIVERGENCE), (HUGE_PHI, cli.EXIT_CONFIG)],
        ids=["absurd_g0", "huge_phi"],
    )
    def test_no_library_warnings(self, text, code, tmp_path, capsys):
        # lsoda's convergence failure and numpy's overflow in the first
        # sample are reported by gradlab itself, not as warnings
        cfg = write_config(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        assert [str(w.message) for w in caught] == []
        assert len(capsys.readouterr().err.splitlines()) == (code == cli.EXIT_CONFIG)


# every [flow], [growth], [coverage] and [analysis] key, and the [spectrum]
# counts, with values that must be refused: NaN, infinity, negative, 0 where
# > 0 is required, a non-integer for an integer
POSITIVE = ["nan", "inf", "-1", "0"]
NON_NEGATIVE = ["nan", "inf", "-1e-3"]
AT_LEAST_ONE = ["-3", "0", "2.5"]
SEED = ["-1", "2.5", "nan"]
INVALID_SETTINGS = {
    "flow": {
        **dict.fromkeys(["t_end", "rel_tol", "abs_tol", "sde_step", "record_every"], POSITIVE),
        **dict.fromkeys(
            ["grad_stop", "stall_rel_change", "stall_grad_level", "stall_loss_floor",
             "anneal_c", "noise_beta"],
            NON_NEGATIVE,
        ),
        **dict.fromkeys(["stall_window", "max_steps"], AT_LEAST_ONE),
        "seed": SEED,
        "record_params": ["maybe"],
    },
    "growth": {
        "max_levels": AT_LEAST_ONE,
        "params_per_expansion": ["-2", "0", "3", "2.5"],
        "solution_tol": POSITIVE,
        "frequency_seed": SEED,
        "forced_frequencies": ["nan", "2, inf", "two"],
    },
    "coverage": {
        "count": AT_LEAST_ONE,
        "seed": SEED,
        **dict.fromkeys(["box", "grid_step", "grid_max"], POSITIVE),
    },
    "analysis": {
        **dict.fromkeys(["lojasiewicz", "rate", "critical_point", "kernel_decay"], ["maybe"]),
        "loss_target": ["nan", "inf"],
        "alpha": ["nan", "-inf"],
    },
    "spectrum": {"count": ["-2", "0"], "sweep": ["0:1:0", "0:1:-1", "0:nan:3", "-inf:1:3"]},
}

SETTINGS_BASE = """
[problem]
kind = quadratic
resolution = 16
phi = 1:0.5

[architecture]
kind = sinusoid
a = 1
w0 = 0.0, 1.0, 0.1

[flow]
kind = parametric

[growth]
"""


# the command that reads each section, and a config that it runs
SETTINGS_RUNS = {
    "flow": ("grow", SETTINGS_BASE),
    "growth": ("grow", SETTINGS_BASE),
    "coverage": ("coverage-demo", "[coverage]\n"),
    "analysis": ("run", SETTINGS_BASE + "\n[analysis]\n"),
    "spectrum": ("spectrum", "[architecture]\nkind = spiral\n\n[spectrum]\n"),
}


def test_invalid_settings_cover_every_field():
    assert set(INVALID_SETTINGS["flow"]) == {f.name for f in fields(FlowConfig)}
    assert set(INVALID_SETTINGS["growth"]) == {f.name for f in fields(GrowthSchedule)}
    assert set(INVALID_SETTINGS["coverage"]) == {f.name for f in fields(CoverageSettings)}
    assert set(INVALID_SETTINGS["analysis"]) == {f.name for f in fields(AnalysisSettings)}


@pytest.mark.parametrize(
    "section, key, value",
    [(s, k, v) for s, keys in INVALID_SETTINGS.items() for k, values in keys.items() for v in values],
)
def test_invalid_setting_is_one_named_line(section, key, value, tmp_path, capsys):
    command, base = SETTINGS_RUNS[section]
    text = base.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    cfg = write_config(tmp_path, text)
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert err.startswith(f"config error: {section}.{key}"), err


def _named_case(tmp_path):
    """Inputs refused before any run, each as (argv, the start of its one
    stderr line)."""
    out = str(tmp_path / "out")
    anneal = (CONFIGS / "annealed_double_start.ini").read_text()
    spiral = "[architecture]\nkind = spiral\n"

    def config(text, name):
        return str(write_config(tmp_path, text, f"{name}.ini"))

    def anneal_with(old, new, name):
        assert old in anneal
        return ["run", "--config", config(anneal.replace(old, new), name), "--out", out]

    npbe = (CONFIGS / "npbe_solve.ini").read_text().replace("[problem]\n", "[problem]\nclamp = {}\n")
    return {
        "annealed_nan_t_end": (anneal_with("t_end = 50", "t_end = nan", "a1"), "flow.t_end"),
        "annealed_inf_t_end": (anneal_with("t_end = 50", "t_end = inf", "a2"), "flow.t_end"),
        "annealed_nan_record_every": (
            anneal_with("record_every = 0.5", "record_every = nan", "a3"), "flow.record_every"
        ),
        "annealed_negative_seed_option": (
            ["run", "--config", str(CONFIGS / "annealed_double_start.ini"), "--out", out,
             "--seed", "-1"],
            "flow.seed",
        ),
        "spectrum_negative_seed": (
            ["spectrum", "--config", config(spiral + "[spectrum]\nseed = -1\n", "s"), "--out", out],
            "spectrum.seed",
        ),
        "spectrum_negative_seed_option": (
            ["spectrum", "--config", config(spiral, "s2"), "--out", out, "--seed", "-2"],
            "spectrum.seed",
        ),
        "coverage_negative_seed": (
            ["coverage-demo", "--config", config("[coverage]\nseed = -1\n", "c"), "--out", out],
            "coverage.seed",
        ),
        "negative_init_seed": (
            ["run", "--config", config(
                QUAD_DEMO.replace("w0 = 0.0, 1.0, 0.1", "init_seed = -1"), "i"), "--out", out],
            "architecture.init_seed",
        ),
        "nan_clamp": (["run", "--config", config(npbe.format("nan"), "n1"), "--out", out], "problem.clamp"),
        "zero_clamp": (["run", "--config", config(npbe.format("0"), "n2"), "--out", out], "problem.clamp"),
        "zero_resolution": (
            ["run", "--config", config(QUAD_DEMO.replace("resolution = 64", "resolution = 0"), "r"),
             "--out", out],
            "problem.resolution",
        ),
        "nan_w0": (
            ["run", "--config", config(QUAD_DEMO.replace("w0 = 0.0, 1.0, 0.1", "w0 = nan, 1, 0.5"), "w"),
             "--out", out],
            "architecture.w0 must be finite, got nan",
        ),
        "nan_spectrum_w": (
            ["spectrum", "--config", config(spiral + "[spectrum]\nw = nan\n", "s3"), "--out", out],
            "spectrum.w must be finite, got nan",
        ),
        "nan_phi": (
            ["run", "--config", config(QUAD_DEMO.replace("phi = 1:0.5", "phi = 1:nan"), "p1"), "--out", out],
            "problem.phi must be finite, got nan",
        ),
        "inf_phi": (
            ["run", "--config", config(QUAD_DEMO.replace("phi = 1:0.5", "phi = 1:inf"), "p2"), "--out", out],
            "problem.phi must be finite, got inf",
        ),
        "usage_no_config": (["run"], ""),
        "usage_non_integer_seed": (["run", "--config", config(QUAD_DEMO, "q"), "--seed", "x"], ""),
        "usage_no_command": ([], ""),
    }


class TestNamedRefusals:
    @pytest.mark.parametrize(
        "case",
        ["annealed_nan_t_end", "annealed_inf_t_end", "annealed_nan_record_every"]
        + ["annealed_negative_seed_option", "spectrum_negative_seed"]
        + ["spectrum_negative_seed_option", "coverage_negative_seed", "negative_init_seed"]
        + ["nan_clamp", "zero_clamp", "zero_resolution"]
        + ["nan_w0", "nan_spectrum_w", "nan_phi", "inf_phi"]
        + ["usage_no_config", "usage_non_integer_seed", "usage_no_command"],
    )
    def test_one_named_line_and_exit_1(self, case, tmp_path, capsys):
        argv, key = _named_case(tmp_path)[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked numpy warning is a second line
            assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert err.startswith(f"config error: {key}"), err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["run", "--help"])
        assert stop.value.code == 0
        assert "--config" in capsys.readouterr().out
