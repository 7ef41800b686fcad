"""Compare two gradlab source trees in one process.

    python tests/golden/ab.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``gradlab`` package, such as a
checkout's ``src``.  The trees are imported as the packages
``gradlab_parent`` and ``gradlab_change``, and the script prints:

* for the quadratic, NPBE and custom problems, whether
  ``ParametricObjective.value_and_grad``, ``ParametricObjective.sample``
  (loss, gradient norm, kernel floor, model error, clamp flag, parameters)
  and ``nominal_loss`` return the same values on seeded states;
* whether ``nominal_loss`` and ``compiled_loss`` of a 3-D n=9 NPBE problem
  return the same values on the state sequence A, B, A, A, C (C clamps),
  which repeats a state right after itself and after another;
* whether seeded ``integrate_annealed`` runs on the double well (the
  scalar-closure path, which no shipped config takes) write the same trace:
  three to t_end 20, and one with the ``anneal_escape`` benchmark's
  settings (t_end 200, step 1e-3, 200k steps); and one to t_end 20 on the
  well turned by 0.7 rad, whose dense, full-mantissa component rows make
  each residual entry a sum of rounded terms, so that the order in which
  the closure accumulates them shows in the trace;
* for every case of ``regenerate.py`` (each shipped config and the 3-D
  n=17 nominal NPBE solve), whether each output of the two trees'
  ``cli.main`` is the same: the exit code, stdout, and every file written.
  Manifest ``started_at``/``finished_at`` are left out.

A line reads "identical" when the two outputs are equal bit for bit:
texts byte for byte, numbers by their float64 bit patterns (so ``-0.0``
against ``0.0`` is a difference).  Otherwise it gives the largest numeric
gap.  The exit status is 0 when every
line is identical and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import regenerate  # noqa: E402

TREES = ("gradlab_parent", "gradlab_change")
# a number as the trace, CSV and stdout writers print it
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)")


def load_tree(src: str, name: str):
    """Import the ``gradlab`` package under ``src`` as ``name``."""
    init = Path(src) / "gradlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return lambda module: importlib.import_module(f"{name}.{module}")


def gap(a, b) -> str:
    """Compare two collections of numbers as float64 bit patterns, so the
    sign of a zero and a NaN's payload count: "identical", or how many
    values differ and their largest absolute gap."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return f"shapes differ: {a.shape} against {b.shape}"
    differ = a.view(np.uint64) != b.view(np.uint64)
    if not differ.any():
        return "identical"
    gaps = np.abs(a - b)[differ]
    largest = gaps[~np.isnan(gaps)].max(initial=0.0)
    return f"{int(differ.sum())} values differ in bits, largest gap {largest:.3e}"


# ---------------------------------------------------------------------------
# Objectives on seeded states
# ---------------------------------------------------------------------------


def _problems(mod):
    """(label, problem, architecture) triples built by one tree."""
    sp, pr, ar = mod("spaces"), mod("problems"), mod("architectures")
    line = sp.make_space(sp.Domain(1), 24)
    phi = sp.field_from_modes(line, [(1, 0.6), (2, 0.25)])
    pair = ar.sinusoid_architecture(line, 2)

    def cubic(g):
        return g.with_coeffs(-line.eigenvalues * g.coeffs + g.coeffs**3 - phi.coeffs)

    def cubic_dl(g, r):
        return r.with_coeffs(-line.eigenvalues * r.coeffs + 3.0 * g.coeffs**2 * r.coeffs)

    plane = sp.make_euclidean(2)
    e1, e2 = (sp.Field(v, plane) for v in np.eye(2))
    well = ar.curve_architecture([([0.0, 0.0, 1.0], e1), ([0.0, 0.5], e2)])
    return [
        ("quadratic W12", pr.quadratic_problem(line, phi, sp.SobolevOrder.W12), pair),
        ("quadratic curve", pr.quadratic_problem(plane, sp.Field([1.0, 0.9], plane)), well),
        ("npbe W22", pr.npbe_problem(line, phi, sp.SobolevOrder.W22), pair),
        ("custom W12", pr.custom_problem(line, cubic, cubic_dl, sp.SobolevOrder.W12), pair),
    ]


def compare_objectives(mods) -> list[str]:
    rng = np.random.default_rng(0)
    # sinusoid states near the fit, and one whose amplitude engages the clamp
    weights = [np.array([0.05, 1.0, 0.55, 2.0, 0.2]) + 0.1 * rng.standard_normal(5)
               for _ in range(4)] + [np.array([0.0, 1.0, 80.0, 2.0, 0.2])]
    curve_weights = [np.array([w]) for w in (-1.5, -0.2, 0.3, 1.2)]
    fields = [s * rng.standard_normal(24) for s in (0.1, 1.0, 100.0)]
    built = [_problems(mod) for mod in mods]
    lines = []
    for i, (label, _, arch) in enumerate(built[0]):
        states = curve_weights if arch.kind == "curve" else weights
        got, sampled = [], []
        for mod, problems in zip(mods, built):
            _, p, a = problems[i]
            obj = mod("flows").ParametricObjective(p, a)
            flat, rows = [], []
            for w in states:
                loss, grad, clamped = obj.value_and_grad(w)
                flat += [loss, *grad, clamped]
                loss, grad_norm, extras = obj.sample(w)
                error = extras["model_error"]
                rows += [loss, grad_norm, extras["mu"], np.nan if error is None else error]
                rows += [extras["clamped"], *extras["params"]]
            got.append(flat)
            sampled.append(rows)
        lines.append(f"objective {label}: value_and_grad {gap(*got)}")
        lines.append(f"objective {label}: sample {gap(*sampled)}")
        if arch.kind == "curve":
            continue  # the seeded fields live on the 24-mode line
        got = []
        for mod, problems in zip(mods, built):
            sp, pr = mod("spaces"), mod("problems")
            p = problems[i][1]
            flat = []
            for c in fields:
                ev = pr.nominal_loss(p, sp.Field(c, p.basis))
                flat += [ev.value, *ev.gradient.coeffs, ev.residual_norm, ev.clamped]
            got.append(flat)
        lines.append(f"objective {label}: nominal_loss {gap(*got)}")
    return lines


def compare_npbe_3d(mods) -> list[str]:
    """One 3-D n=9 NPBE problem per tree on the states A, B, A, A, C."""
    rng = np.random.default_rng(1)
    a, b, c = (scale * rng.standard_normal(9**3) for scale in (0.3, 0.3, 30.0))
    got = []
    for mod in mods:
        sp, pr = mod("spaces"), mod("problems")
        cube = sp.make_space(sp.Domain(3), 9)
        p = pr.npbe_problem(cube, sp.field_from_modes(cube, [(1, 0.6), (2, 0.25)]))
        flat, flags = [], ""
        for state in (a, b, a, a, c):
            ev = pr.nominal_loss(p, sp.Field(state, cube))
            loss, dl, clamped = p.compiled_loss(state)
            flat += [ev.value, *ev.gradient.coeffs, ev.residual_norm, ev.clamped]
            flat += [loss, *dl, clamped]
            flags += "C" if ev.clamped else "-"
        got.append(flat)
    # the flags are the change tree's; a clamp flag that differs shows as a gap
    label = f"objective npbe 3-D n=9 on A, B, A, A, C (clamped {flags})"
    return [f"{label}: nominal_loss and compiled_loss {gap(*got)}"]


def _axis_well(mod):
    """The "quadratic curve" double well, whose rows are e1 and e2."""
    return _problems(mod)[1][1:]


def _dense_well(mod):
    """The double well turned by 0.7 rad: both rows are dense."""
    sp, pr, ar = mod("spaces"), mod("problems"), mod("architectures")
    plane = sp.make_euclidean(2)
    c, s = math.cos(0.7), math.sin(0.7)
    b1, b2 = sp.Field([c, s], plane), sp.Field([-s, c], plane)
    phi = sp.Field([c - 0.9 * s, s + 0.9 * c], plane)
    well = ar.curve_architecture([([0.0, 0.0, 1.0], b1), ([0.0, 0.5], b2)])
    return pr.quadratic_problem(plane, phi), well


# (label, well, FlowConfig settings): three short runs, one path of the
# anneal_escape benchmark (200k Euler-Maruyama steps), one on dense rows
SHORT = {"t_end": 20.0, "record_every": 0.5, "noise_beta": 1.0}
ANNEALED_RUNS = [
    (f"seed {seed}", _axis_well, {**SHORT, "seed": seed}) for seed in range(3)
] + [(
    "seed 0, t_end 200",
    _axis_well,
    {"t_end": 200.0, "sde_step": 1e-3, "record_every": 2.0, "seed": 0, "noise_beta": 1.0,
     "anneal_c": 2.0},
), ("dense rows, seed 0", _dense_well, {**SHORT, "seed": 0})]


def compare_annealed(mods) -> list[str]:
    """Seeded double-well runs of ``integrate_annealed`` from w = -1."""
    lines = []
    for label, well, settings in ANNEALED_RUNS:
        traces = []
        for mod in mods:
            p, a = well(mod)
            fl, ar, traceio = mod("flows"), mod("architectures"), mod("traceio")
            cfg = fl.FlowConfig(**settings)
            trace = fl.integrate_annealed(p, a, ar.ParamVector(np.array([-1.0])), cfg)
            traces.append("\n".join(traceio.trace_to_lines(trace)))
        lines.append(f"annealed double well {label}: trace {compare_output(*traces)}")
    return lines


# ---------------------------------------------------------------------------
# Shipped configs through the CLI
# ---------------------------------------------------------------------------


def run_outputs(mod, name: str, workdir: Path) -> dict[str, object]:
    """Every output of one case's run: exit code, stdout, stderr, files."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = mod("cli").main(regenerate.case_argv(name, workdir))
    outputs = {"exit code": str(code), "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    for path in sorted((workdir / "out").iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_manifest.json"):
            manifest = json.loads(data)
            del manifest["started_at"], manifest["finished_at"]
            outputs[path.name] = json.dumps(manifest, sort_keys=True)
        elif path.suffix == ".field":
            outputs[path.name] = mod("spaces").field_from_bytes(data).coeffs
        else:
            outputs[path.name] = data.decode()
    return outputs


def compare_output(a, b) -> str:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return gap(a, b)
    if a.encode() == b.encode():
        return "identical"
    if NUMBER.split(a) != NUMBER.split(b):
        return "differs in more than numbers"
    verdict = gap(*([float(x) for x in NUMBER.findall(text)] for text in (a, b)))
    return "numbers written differently" if verdict == "identical" else verdict


def compare_runs(mods) -> list[str]:
    lines = []
    for name in regenerate.CASES:
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            # one path for both trees, so that paths in the outputs agree
            workdir = Path(tmp) / "case"
            for mod in mods:
                workdir.mkdir()
                runs.append(run_outputs(mod, name, workdir))
                shutil.rmtree(workdir)
        for key in sorted(runs[0].keys() | runs[1].keys()):
            if key not in runs[0] or key not in runs[1]:
                verdict = "written by one tree only"
            else:
                verdict = compare_output(runs[0][key], runs[1][key])
            lines.append(f"{name} {key}: {verdict}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/golden/ab.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    mods = [load_tree(src, name) for src, name in zip(argv, TREES)]
    lines = compare_objectives(mods) + compare_npbe_3d(mods) + compare_annealed(mods)
    lines += compare_runs(mods)
    print("\n".join(lines))
    return 0 if all(line.endswith(" identical") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
