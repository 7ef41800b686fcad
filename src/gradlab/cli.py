"""Experiment runner.

Subcommands: ``run`` (one flow per config; several configs run one after
another), ``grow``/``eci`` (expansion loop), ``spectrum``
(kernel eigenvalue tables), ``coverage-demo`` (plane-coverage brute force),
and ``analyze`` (re-run analysis on an existing trace file).

Exit codes: 0 success, 1 configuration or usage error, 2 divergence (in a
run, or raised while setting one up), 3 expansion rejected.  Every failure prints
one line on stderr.  Output payloads are byte-identical across repeated
runs with the same config and seed; only manifest timestamps differ.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis as an
from . import architectures as arch_mod
from . import config as config_mod
from . import flows as flow_mod
from . import growth as growth_mod
from . import spaces
from . import traceio
from .errors import (
    ConfigurationError,
    DivergenceError,
    ExpansionRejectedError,
    GradlabError,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGENCE = 2
EXIT_EXPANSION_REJECTED = 3

OUTPUT_DIR_ENV = "GRADLAB_OUT"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _out_dir(args, cfg) -> Path:
    if args.out is not None:
        return Path(args.out)
    if os.environ.get(OUTPUT_DIR_ENV):
        return Path(os.environ[OUTPUT_DIR_ENV])
    return Path(cfg.get("output", "dir", "out"))


def _resolve_out_dir(args, cfg) -> Path:
    out = _out_dir(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _guard(command, *args) -> int:
    """Run ``command(*args)`` and map gradlab's errors to exit codes, with
    one stderr line each.  Any other exception is a bug and propagates."""
    try:
        return command(*args)
    except (ConfigurationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except GradlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _finish(out: Path, stem: str, cfg, started: str, files: list[str]) -> None:
    """Write ``<out>/<stem>_manifest.json`` listing the command's outputs."""
    traceio.write_manifest(
        out / f"{stem}_manifest.json",
        traceio.config_hash(cfg.flat_pairs()),
        started,
        _now(),
        files,
    )


def _write_analysis_csv(path, rows):
    header = [
        "run_id", "alpha_hat", "c_hat", "li_fit_quality", "li_points",
        "rate_kind", "rate", "exponent", "predicted_alpha",
        "critical_case", "r_hat", "alpha_star",
    ]
    traceio.write_csv(path, header, rows)


def _analysis_row(run_id, settings, trace, problem=None, arch=None):
    """One analysis-report row per run; blank cells where not requested."""
    row = [run_id] + [""] * 11
    target = settings.loss_target
    if settings.lojasiewicz:
        est = an.estimate_lojasiewicz(trace, target)
        if est is not None:
            row[1], row[2], row[3], row[4] = (
                est.alpha_hat, est.c_hat, est.fit_quality, est.n_points,
            )
        else:
            row[1] = "inconclusive"
    if settings.rate:
        if target is None:
            target, _ = an.default_loss_target(trace)
        rc = an.classify_rate(trace, target)
        if rc is not None:
            row[5] = rc.kind
            row[6] = rc.rate if rc.rate is not None else ""
            row[7] = rc.exponent if rc.exponent is not None else ""
            row[8] = rc.predicted_alpha
        else:
            row[5] = "inconclusive"
    # arch is set only for a parametric or annealed run, which has a problem
    if settings.critical_point and arch is not None and trace.params is not None:
        row[9] = an.classify_critical_point(problem, arch, trace.terminal_state).case
    if settings.kernel_decay and trace.params is not None:
        fit = an.fit_kernel_decay(trace, trace.terminal_state, settings.alpha)
        row[10] = fit.r_hat
        row[11] = fit.predicted_alpha_star
    return row


def cmd_run(args) -> int:
    # every run writes <out>/<stem>_*, so two configs that resolve to the
    # same prefix would overwrite each other's files
    writers = {}
    for path in args.config:
        try:
            cfg = config_mod.load_config(path)
        except ConfigurationError:
            continue  # its own run reports the error
        prefix = (_out_dir(args, cfg) / Path(path).stem).resolve()
        if prefix in writers:
            raise ConfigurationError(
                f"{writers[prefix]} and {path} would both write {prefix}_*"
            )
        writers[prefix] = path
    return max([_guard(_run_single, path, args) for path in args.config])


def _run_single(config_path, args) -> int:
    started = _now()
    cfg = config_mod.load_config(config_path)
    problem = config_mod.build_problem(cfg)
    flow_kind = cfg.get("flow", "kind", "parametric")
    flow_cfg = config_mod.build_flow_config(cfg, args.seed)
    analysis = config_mod.build_analysis(cfg)
    out = _resolve_out_dir(args, cfg)
    arch = None
    if flow_kind == "nominal":
        g0 = config_mod.initial_field(cfg, problem.basis)
        trace = flow_mod.integrate_nominal(problem, g0, flow_cfg)
    elif flow_kind in ("parametric", "annealed"):
        arch = config_mod.build_architecture(cfg, problem.basis)
        w0 = config_mod.initial_params(cfg, arch)
        if flow_kind == "annealed":
            if flow_cfg.noise_beta <= 0:
                raise ConfigurationError("flow.noise_beta must be > 0 for the annealed flow")
            trace = flow_mod.integrate_annealed(problem, arch, w0, flow_cfg)
        else:
            trace = flow_mod.integrate_parametric(problem, arch, w0, flow_cfg)
    else:
        raise ConfigurationError(f"flow.kind: unknown kind '{flow_kind}'")

    stem = Path(config_path).stem
    trace_path = out / f"{stem}_trace.jsonl"
    traceio.write_trace(trace_path, trace)
    files = [trace_path.name]
    if flow_kind == "nominal":
        field_path = out / f"{stem}_terminal.field"
        field_path.write_bytes(spaces.field_to_bytes(trace.terminal_state))
        files.append(field_path.name)
    if cfg.has("analysis"):
        csv_path = out / f"{stem}_analysis.csv"
        _write_analysis_csv(csv_path, [_analysis_row(stem, analysis, trace, problem, arch)])
        files.append(csv_path.name)
    _finish(out, stem, cfg, started, files)
    print(
        f"{stem}: {trace.terminal_reason} at t={trace.t[-1]:.6g}, "
        f"loss={trace.loss[-1]:.6g}, samples={trace.n_samples}"
    )
    return EXIT_DIVERGENCE if trace.terminal_reason == "divergence" else EXIT_OK


def cmd_grow(args) -> int:
    started = _now()
    config_path = args.config[0]
    cfg = config_mod.load_config(config_path)
    problem = config_mod.build_problem(cfg)
    arch = config_mod.build_architecture(cfg, problem.basis)
    w0 = config_mod.initial_params(cfg, arch)
    flow_cfg = config_mod.build_flow_config(cfg, args.seed)
    sched = config_mod.build_growth_schedule(cfg)
    out = _resolve_out_dir(args, cfg)

    code = EXIT_OK
    try:
        gtrace = growth_mod.run_growth_loop(problem, arch, w0, sched, flow_cfg)
    except ExpansionRejectedError as exc:
        # the levels grown before the rejection are still written
        print(f"expansion rejected: {exc}", file=sys.stderr)
        gtrace = exc.growth_trace
        code = EXIT_EXPANSION_REJECTED

    stem = Path(config_path).stem
    files = []
    rows = []
    last = len(gtrace.segments) - 1
    for i, seg in enumerate(gtrace.segments):
        event = gtrace.expansions[i] if i < len(gtrace.expansions) else None
        rows.append(
            [
                i + 1,
                seg.params.shape[1] if seg.params is not None else "",
                float(seg.t[0]),
                float(seg.t[-1]),
                float(seg.loss[0]),
                float(seg.loss[-1]),
                seg.terminal_reason,
                "expanded" if event is not None else (
                    "converged" if gtrace.converged and i == last else "exhausted"
                ),
                event.min_nonzero_eig_after if event is not None else "",
                gtrace.final_error if i == last and gtrace.final_error is not None else "",
            ]
        )
        seg_path = out / f"{stem}_level{i + 1}_trace.jsonl"
        traceio.write_trace(seg_path, seg)
        files.append(seg_path.name)
    summary = out / f"{stem}_growth.csv"
    traceio.write_csv(
        summary,
        [
            "level", "n_params", "t_start", "t_end", "start_loss", "end_loss",
            "terminal_reason", "verdict", "min_nonzero_eig_after", "model_error",
        ],
        rows,
    )
    files.append(summary.name)
    print(
        f"{stem}: {'converged' if gtrace.converged else 'stopped'} "
        f"after {len(gtrace.expansions)} expansion(s), "
        f"final loss {gtrace.final_loss:.6g}"
    )
    if any(seg.terminal_reason == "divergence" for seg in gtrace.segments):
        code = max(code, EXIT_DIVERGENCE)
    _finish(out, stem, cfg, started, files)
    return code


def cmd_spectrum(args) -> int:
    started = _now()
    config_path = args.config[0]
    cfg = config_mod.load_config(config_path)
    problem = config_mod.build_problem(cfg) if cfg.has("problem") else None
    basis = problem.basis if problem is not None else None
    arch = config_mod.build_architecture(cfg, basis)
    metric, sets = config_mod.build_spectrum(cfg, arch, args.seed)
    out = _resolve_out_dir(args, cfg)

    m = arch.n_params
    rows = []
    for i, values in enumerate(sets):
        w = arch_mod.ParamVector(values)
        _, jac = arch_mod.model_and_jacobian(arch, w)
        diag = arch_mod.tangent_gram(jac, arch.target_basis, metric)
        consistent = mismatch = floor = ""
        if arch.target_basis.size <= arch_mod.MAX_DENSE_SIZE:
            rep = arch_mod.spectral_consistency(arch, w, metric)
            consistent = "pass" if rep.passed else "fail"
            mismatch = rep.max_relative_mismatch
            floor = rep.noise_floor
        rows.append(
            [i]
            + [float(v) for v in values]
            + [float(e) for e in diag.eigenvalues]
            + [diag.min_nonzero_eig, diag.numerical_rank, consistent, mismatch, floor]
        )
    header = (
        ["w_id"]
        + [f"w{j}" for j in range(m)]
        + [f"eig{j}" for j in range(m)]
        + [
            "min_nonzero_eig",
            "numerical_rank",
            "consistency",
            "max_mismatch",
            "noise_floor",
        ]
    )
    stem = Path(config_path).stem
    csv_path = out / f"{stem}_spectrum.csv"
    traceio.write_csv(csv_path, header, rows)
    _finish(out, stem, cfg, started, [csv_path.name])
    print(f"{stem}: {len(rows)} spectra written")
    return EXIT_OK


def coverage_distances(targets: np.ndarray, grid_max: float, grid_step: float):
    """Brute-force distances from plane targets to the diagonal-line and
    spiral model sets, minimized over a dense parameter grid."""
    grid = np.arange(-grid_max, grid_max + grid_step / 2, grid_step)
    spiral_x = grid * np.sin(grid)
    spiral_y = grid * np.cos(grid)
    rows = []
    for tx, ty in np.asarray(targets):
        d_spiral = np.sqrt(np.min((spiral_x - tx) ** 2 + (spiral_y - ty) ** 2))
        d_line = np.sqrt(np.min((grid - tx) ** 2 + (grid - ty) ** 2))
        rows.append([float(tx), float(ty), float(d_line), float(d_spiral)])
    return rows


def cmd_coverage_demo(args) -> int:
    started = _now()
    config_path = args.config[0]
    cfg = config_mod.load_config(config_path)
    settings = config_mod.build_coverage(cfg, args.seed)
    out = _resolve_out_dir(args, cfg)

    rng = np.random.default_rng(settings.seed)
    targets = rng.uniform(-settings.box, settings.box, size=(settings.count, 2))
    rows = coverage_distances(targets, settings.grid_max, settings.grid_step)
    d_line_med = float(np.median([r[2] for r in rows]))
    d_spiral_med = float(np.median([r[3] for r in rows]))

    stem = Path(config_path).stem
    csv_path = out / f"{stem}_coverage.csv"
    traceio.write_csv(
        csv_path, ["target_x", "target_y", "line_distance", "spiral_distance"], rows
    )
    summary_path = out / f"{stem}_coverage_summary.csv"
    traceio.write_csv(
        summary_path,
        ["median_line_distance", "median_spiral_distance"],
        [[d_line_med, d_spiral_med]],
    )
    _finish(out, stem, cfg, started, [csv_path.name, summary_path.name])
    print(
        f"{stem}: median line distance {d_line_med:.4f}, "
        f"median spiral distance {d_spiral_med:.4f}"
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    started = _now()
    cfg = config_mod.load_config(args.config[0])
    analysis = config_mod.build_analysis(cfg)
    out = _resolve_out_dir(args, cfg)
    trace = traceio.read_trace(args.trace)
    stem = Path(args.trace).stem
    csv_path = out / f"{stem}_analysis.csv"
    _write_analysis_csv(csv_path, [_analysis_row(stem, analysis, trace)])
    _finish(out, stem, cfg, started, [csv_path.name])
    print(f"{stem}: analysis written")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors: exit 1, one stderr line."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gradlab",
        description="gradient-flow experiments on discretized function spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi_config=False):
        nargs = "+" if multi_config else 1
        p.add_argument("--config", required=True, nargs=nargs, help="config path(s)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p_run = sub.add_parser("run", help="run one configured flow")
    common(p_run, multi_config=True)
    p_run.set_defaults(func=cmd_run)

    p_grow = sub.add_parser("grow", aliases=["eci"], help="run the expansion loop")
    common(p_grow)
    p_grow.set_defaults(func=cmd_grow)

    p_spec = sub.add_parser("spectrum", help="kernel eigenvalue tables")
    common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_cov = sub.add_parser("coverage-demo", help="plane coverage brute force")
    common(p_cov)
    p_cov.set_defaults(func=cmd_coverage_demo)

    p_an = sub.add_parser("analyze", help="re-run analysis on a trace file")
    common(p_an)
    p_an.add_argument("trace", help="existing trace JSONL file")
    p_an.set_defaults(func=cmd_analyze)

    return parser


def _dispatch(argv) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main(argv=None) -> int:
    return _guard(_dispatch, argv)


if __name__ == "__main__":
    sys.exit(main())
