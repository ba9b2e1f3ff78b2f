"""Checkpoint documents: lossless JSON serialisation of a model.

Layout (all indices 0-based):

    {
      "format_version": 1,
      "config": {"n_units", "temperature", "lambdas", "mus",
                 "connectivity": [[i, j, delay], ...]},
      "bias": [...],
      "u": [[i, j, [one value per arrival rate]], ...],
      "v": [[i, j, [one value per near-window rate]], ...],
      "trace_state": {            # optional
        "alpha": [[i, j, [...]], ...],
        "gamma": [[...] per unit],
        "queues": [[i, j, [newest-first bits]], ...],
        "step_count": n
      }
    }

Floats are written as decimals with 17 significant digits, which round-trip
double precision exactly; the writer is hand-rolled because the standard
encoder does not let the float format be pinned. Loading a saved document
reproduces parameters and traces bit for bit.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .config import ModelConfig, Parameters
from .model import TraceState, pack_queue_rows, queue_rows

__all__ = ["CheckpointError", "FORMAT_VERSION", "save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for malformed or wrong-version checkpoint documents."""


# ---------------------------------------------------------------------------
# Writing


def _emit(value, out: list[str]) -> None:
    if isinstance(value, dict):
        out.append("{")
        for idx, (key, item) in enumerate(value.items()):
            if idx:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for idx, item in enumerate(value):
            if idx:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(value, (bool, np.bool_)):
        raise CheckpointError("booleans do not appear in checkpoints")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            raise CheckpointError(f"cannot serialise non-finite number {x!r}")
        out.append(format(x, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    else:
        raise CheckpointError(f"cannot serialise {type(value).__name__}")


def _pair_rows(config: ModelConfig, table: np.ndarray) -> list:
    return [
        [i, j, [float(x) for x in table[m]]]
        for m, (i, j) in enumerate(config.pairs)
    ]


def save_checkpoint(
    params: Parameters, config: ModelConfig, state: TraceState | None = None
) -> str:
    """Serialise a model (and optionally its trace state) to JSON text."""
    params.validate_for(config)
    doc = {
        "format_version": FORMAT_VERSION,
        "config": {
            "n_units": config.n_units,
            "temperature": config.temperature,
            "lambdas": list(config.lambdas),
            "mus": list(config.mus),
            "connectivity": [[i, j, config.delays[(i, j)]] for i, j in config.pairs],
        },
        "bias": [float(x) for x in params.bias],
        "u": _pair_rows(config, params.u),
        "v": _pair_rows(config, params.v),
    }
    if state is not None:
        doc["trace_state"] = {
            "alpha": _pair_rows(config, state.alpha),
            "gamma": [[float(x) for x in row] for row in state.gamma],
            "queues": [
                [i, j, bits]
                for (i, j), bits in zip(config.pairs, queue_rows(config, state.queue))
            ],
            "step_count": int(state.step_count),
        }
    out: list[str] = []
    _emit(doc, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# Reading


def _require(doc: dict, key: str, kind, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise CheckpointError(f"{where}: missing field '{key}'")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CheckpointError(f"{where}.{key}: expected a number")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise CheckpointError(f"{where}.{key}: expected an integer")
        return value
    if not isinstance(value, kind):
        raise CheckpointError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _float_list(values, where: str) -> list[float]:
    if not isinstance(values, list):
        raise CheckpointError(f"{where}: expected a list of numbers")
    out = []
    for idx, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise CheckpointError(f"{where}[{idx}]: expected a number")
        out.append(float(x))
    return out


def _pair_table(rows, config: ModelConfig, width: int, where: str) -> np.ndarray:
    if not isinstance(rows, list):
        raise CheckpointError(f"{where}: expected a list of [i, j, values] rows")
    table = np.full((config.n_pairs, width), np.nan)
    seen: set[tuple[int, int]] = set()
    for idx, row in enumerate(rows):
        if (
            not isinstance(row, list)
            or len(row) != 3
            or not isinstance(row[0], int)
            or not isinstance(row[1], int)
        ):
            raise CheckpointError(f"{where}[{idx}]: expected [i, j, values]")
        pair = (row[0], row[1])
        if pair in seen:
            raise CheckpointError(f"{where}[{idx}]: duplicate pair {pair}")
        seen.add(pair)
        m = config.pair_index.get(pair)
        if m is None:
            raise CheckpointError(f"{where}[{idx}]: pair {pair} not in connectivity")
        values = _float_list(row[2], f"{where}[{idx}]")
        if len(values) != width:
            raise CheckpointError(
                f"{where}[{idx}]: expected {width} values, got {len(values)}"
            )
        table[m] = values
    if len(seen) != config.n_pairs:
        raise CheckpointError(f"{where}: rows cover {len(seen)} of {config.n_pairs} pairs")
    return table


def load_checkpoint(document: str) -> tuple[Parameters, ModelConfig, TraceState | None]:
    """Parse a checkpoint document back into (parameters, config, state).

    Raises CheckpointError for malformed documents or unknown versions, and
    ConfigError when the embedded configuration violates an invariant.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"malformed checkpoint JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint root must be a JSON object")
    version = _require(doc, "format_version", int, "checkpoint")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format_version {version}; this build reads {FORMAT_VERSION}"
        )

    cfg_doc = _require(doc, "config", dict, "checkpoint")
    conn = _require(cfg_doc, "connectivity", list, "config")
    delays: dict[tuple[int, int], int] = {}
    for idx, row in enumerate(conn):
        if (
            not isinstance(row, list)
            or len(row) != 3
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in row)
        ):
            raise CheckpointError(f"config.connectivity[{idx}]: expected [i, j, delay]")
        pair = (row[0], row[1])
        if pair in delays:
            raise CheckpointError(f"config.connectivity[{idx}]: duplicate pair {pair}")
        delays[pair] = row[2]
    config = ModelConfig(
        n_units=_require(cfg_doc, "n_units", int, "config"),
        lambdas=tuple(_float_list(_require(cfg_doc, "lambdas", list, "config"), "config.lambdas")),
        mus=tuple(_float_list(_require(cfg_doc, "mus", list, "config"), "config.mus")),
        delays=delays,
        temperature=_require(cfg_doc, "temperature", float, "config"),
    )

    bias = _float_list(_require(doc, "bias", list, "checkpoint"), "bias")
    if len(bias) != config.n_units:
        raise CheckpointError(
            f"bias: expected {config.n_units} entries, got {len(bias)}"
        )
    params = Parameters(
        bias=np.asarray(bias),
        u=_pair_table(_require(doc, "u", list, "checkpoint"), config, config.n_lambda, "u"),
        v=_pair_table(_require(doc, "v", list, "checkpoint"), config, config.n_mu, "v"),
    )
    try:
        params.validate_for(config)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc

    state = None
    if "trace_state" in doc and doc["trace_state"] is not None:
        ts = doc["trace_state"]
        if not isinstance(ts, dict):
            raise CheckpointError("trace_state must be an object")
        alpha = _pair_table(
            _require(ts, "alpha", list, "trace_state"), config, config.n_lambda, "trace_state.alpha"
        )
        gamma_rows = _require(ts, "gamma", list, "trace_state")
        if len(gamma_rows) != config.n_units:
            raise CheckpointError(
                f"trace_state.gamma: expected {config.n_units} rows, got {len(gamma_rows)}"
            )
        gamma = np.empty((config.n_units, config.n_mu))
        for i, row in enumerate(gamma_rows):
            values = _float_list(row, f"trace_state.gamma[{i}]")
            if len(values) != config.n_mu:
                raise CheckpointError(
                    f"trace_state.gamma[{i}]: expected {config.n_mu} values"
                )
            gamma[i] = values
        if np.any(alpha < 0.0) or np.any(gamma < 0.0):
            raise CheckpointError("trace_state: traces must be non-negative")
        queue_docs = _require(ts, "queues", list, "trace_state")
        queues: list[list[int]] = [None] * config.n_pairs  # type: ignore[list-item]
        seen: set[tuple[int, int]] = set()
        for idx, row in enumerate(queue_docs):
            if (
                not isinstance(row, list)
                or len(row) != 3
                or not isinstance(row[0], int)
                or not isinstance(row[1], int)
                or not isinstance(row[2], list)
            ):
                raise CheckpointError(f"trace_state.queues[{idx}]: expected [i, j, bits]")
            pair = (row[0], row[1])
            if pair in seen:
                raise CheckpointError(f"trace_state.queues[{idx}]: duplicate pair {pair}")
            seen.add(pair)
            m = config.pair_index.get(pair)
            if m is None:
                raise CheckpointError(
                    f"trace_state.queues[{idx}]: pair {pair} not in connectivity"
                )
            bits = row[2]
            if len(bits) != config.delays[pair] - 1 or any(
                not isinstance(b, int) or isinstance(b, bool) or b not in (0, 1)
                for b in bits
            ):
                raise CheckpointError(
                    f"trace_state.queues[{idx}]: expected {config.delays[pair] - 1} "
                    "bits, each 0 or 1"
                )
            queues[m] = [int(b) for b in bits]
        if len(seen) != config.n_pairs:
            raise CheckpointError(
                f"trace_state.queues: rows cover {len(seen)} of {config.n_pairs} pairs"
            )
        step_count = _require(ts, "step_count", int, "trace_state")
        if step_count < 0:
            raise CheckpointError("trace_state.step_count must be >= 0")
        state = TraceState(
            alpha=alpha,
            gamma=gamma,
            queue=pack_queue_rows(config, queues),
            step_count=step_count,
        )

    return params, config, state
