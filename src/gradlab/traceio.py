"""Trace files and report tables.

A trace file is JSON lines: one header record (flow kind, full config,
seed, code version), one record per sample, and one terminal record
carrying the stop reason, final parameters, events, and the run's work
counters (right-hand sides, Jacobians and steps, or Euler-Maruyama
steps).  Payload bytes are deterministic for a fixed trace: keys are
sorted and floats use ``repr``.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

from . import __version__
from .architectures import ParamVector
from .errors import ConfigurationError
from .flows import FlowConfig, FlowEvent, FlowTrace


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [v.item() for v in value]
    return value


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def trace_to_lines(trace: FlowTrace) -> list[str]:
    cfg = {
        k: _jsonable(getattr(trace.config, k))
        for k in trace.config.__dataclass_fields__
    }
    lines = [
        _dumps(
            {
                "record": "header",
                "kind": trace.kind,
                "config": cfg,
                "seed": trace.config.seed,
                "version": __version__,
            }
        )
    ]
    for i in range(trace.n_samples):
        rec = {
            "record": "sample",
            "t": float(trace.t[i]),
            "loss": float(trace.loss[i]),
            "grad_norm": float(trace.grad_norm[i]),
        }
        if trace.min_nonzero_eig is not None and np.isfinite(trace.min_nonzero_eig[i]):
            rec["min_nonzero_eig"] = float(trace.min_nonzero_eig[i])
        if trace.model_error is not None and np.isfinite(trace.model_error[i]):
            rec["model_error"] = float(trace.model_error[i])
        if trace.params is not None:
            rec["w"] = [v.item() for v in trace.params[i]]
        lines.append(_dumps(rec))
    terminal = {
        "record": "terminal",
        "reason": trace.terminal_reason,
        "events": [
            {"t": e.t, "kind": e.kind, "detail": e.detail} for e in trace.events
        ],
        "counters": trace.counters,
    }
    state = trace.terminal_state
    if isinstance(state, ParamVector):
        terminal["final_params"] = [v.item() for v in state.values]
        terminal["level"] = state.level
    lines.append(_dumps(terminal))
    return lines


def write_trace(path, trace: FlowTrace) -> None:
    with open(path, "w") as fh:
        for line in trace_to_lines(trace):
            fh.write(line + "\n")


def read_trace(path) -> FlowTrace:
    """Rebuild a trace from a JSONL file (terminal field states are not
    reconstructed; parameter states are)."""
    header = None
    samples = []
    terminal = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("record") == "header":
                header = rec
            elif rec.get("record") == "sample":
                samples.append(rec)
            elif rec.get("record") == "terminal":
                terminal = rec
    if header is None or terminal is None or not samples:
        raise ConfigurationError(f"{path} is not a complete trace file")
    cfg_fields = set(FlowConfig.__dataclass_fields__)
    cfg = FlowConfig(
        **{k: v for k, v in header["config"].items() if k in cfg_fields}
    )
    t = np.array([s["t"] for s in samples])
    loss = np.array([s["loss"] for s in samples])
    grad = np.array([s["grad_norm"] for s in samples])
    mu = (
        np.array([s.get("min_nonzero_eig", np.nan) for s in samples])
        if any("min_nonzero_eig" in s for s in samples)
        else None
    )
    err = (
        np.array([s.get("model_error", np.nan) for s in samples])
        if any("model_error" in s for s in samples)
        else None
    )
    params = (
        np.array([s["w"] for s in samples]) if all("w" in s for s in samples) else None
    )
    state = None
    if "final_params" in terminal:
        state = ParamVector(
            np.array(terminal["final_params"]), level=terminal.get("level", 1)
        )
    events = tuple(
        FlowEvent(e["t"], e["kind"], e.get("detail", ""))
        for e in terminal.get("events", [])
    )
    return FlowTrace(
        kind=header["kind"],
        t=t,
        loss=loss,
        grad_norm=grad,
        min_nonzero_eig=mu,
        model_error=err,
        params=params,
        events=events,
        terminal_reason=terminal["reason"],
        terminal_state=state,
        config=cfg,
        counters=terminal.get("counters", {}),
    )


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(c) for c in row])


def _format_cell(c):
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    if isinstance(c, (np.integer,)):
        return int(c)
    return c


def config_hash(pairs: dict[str, str]) -> str:
    """Stable digest of flattened 'section.key' -> value pairs."""
    canon = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path, cfg_hash: str, started: str, finished: str, files: list[str]):
    payload = {
        "config_hash": cfg_hash,
        "version": __version__,
        "started_at": started,
        "finished_at": finished,
        "files": sorted(files),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
