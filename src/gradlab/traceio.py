"""Trace files and report tables.

A trace file is JSON lines: one header record (flow kind, the
``FlowConfig`` fields, seed, code version), one record per sample, and one
terminal record carrying the stop reason, final parameters, events, and
the run's work counters (right-hand sides, Jacobians and steps, or
Euler-Maruyama steps).  Payload bytes are deterministic for a fixed trace:
keys are sorted and floats use ``repr``.  The header does not hold the
problem or the architecture, so a trace alone cannot rebuild them.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

from . import __version__
from .architectures import ParamVector
from .errors import ConfigurationError, GradlabError
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


# the keys that read_trace needs in each kind of record
_RECORD_KEYS = {
    "header": {"kind", "config"},
    "sample": {"t", "loss", "grad_norm"},
    "terminal": {"reason"},
}


def read_trace(path) -> FlowTrace:
    """Rebuild a trace from a JSONL file (terminal field states are not
    reconstructed; parameter states are).  A malformed file raises
    ``ConfigurationError`` naming ``path``."""
    records = {kind: [] for kind in _RECORD_KEYS}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                complete = _RECORD_KEYS[rec["record"]] <= rec.keys()
            except (ValueError, TypeError, KeyError):
                complete = False
            if not complete:
                raise ConfigurationError(f"{path}, line {lineno}: not a trace record")
            records[rec["record"]].append(rec)
    samples = records["sample"]
    if not records["header"] or not records["terminal"] or not samples:
        raise ConfigurationError(f"{path} is not a complete trace file")
    try:
        return _trace_from_records(records["header"][-1], samples, records["terminal"][-1])
    except (GradlabError, LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigurationError(f"{path}: malformed trace: {exc!r}") from None


def _trace_from_records(header: dict, samples: list[dict], terminal: dict) -> FlowTrace:
    cfg_fields = set(FlowConfig.__dataclass_fields__)
    cfg = FlowConfig(
        **{k: v for k, v in header["config"].items() if k in cfg_fields}
    )

    def column(key):
        """The samples' ``key`` values, NaN where a sample has none; None
        when no sample has one."""
        if any(key in s for s in samples):
            values = [s.get(key, np.nan) for s in samples]
            if not all(isinstance(v, (int, float)) for v in values):
                raise TypeError(f"a sample's {key!r} is not a number")
            return np.array(values, dtype=np.float64)
        return None

    params = (
        np.array([s["w"] for s in samples], dtype=np.float64)
        if all("w" in s for s in samples)
        else None
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
        t=column("t"),
        loss=column("loss"),
        grad_norm=column("grad_norm"),
        min_nonzero_eig=column("min_nonzero_eig"),
        model_error=column("model_error"),
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
