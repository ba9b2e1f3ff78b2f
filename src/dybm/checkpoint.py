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

The standard encoder writes each float as the shortest decimal that reads
back to the same double (``-0.0`` included), so loading a saved document
reproduces parameters and traces bit for bit.

The reader first tries one vector pass per table, which accepts exactly the
layout above as ``save_checkpoint`` writes it: pair rows in sorted pair
order (connectivity rows in any order), no pair repeated, each value a JSON
float and each delay and bit a JSON integer. The pair order is read from
the config's pair columns (``config.arrays``), so the vector pass never
builds ``config.pairs`` or ``config.pair_index``. Anything else (integer
values, rows in another order, repeated pairs, wrong types) goes to the
per-item reader, which loads the same arrays or names the first bad item.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

import numpy as np

from .config import ModelConfig, Parameters
from .model import TraceState, _check_queue_history, queue_rows

__all__ = ["CheckpointError", "FORMAT_VERSION", "save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 1

# the document holds fresh lists only, so the encoder need not look for cycles
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False)
_FIRST, _SECOND, _THIRD = itemgetter(0), itemgetter(1), itemgetter(2)


class CheckpointError(ValueError):
    """Raised for malformed or wrong-version checkpoint documents."""


# ---------------------------------------------------------------------------
# Trace state


def _check_state(state: TraceState, config: ModelConfig) -> None:
    """Reject a trace state that would not load back as it is. The writer
    checks the state it is given, the reader the state it decoded, so the
    writer refuses what the reader refuses: float64 traces of the config's
    shapes, finite and non-negative, an integer queue of 0/1 bits in which
    each pair's segment is a prefix of the longest segment from its source
    unit, and an integer ``step_count`` >= 0."""
    shapes = {
        "alpha": (config.n_pairs, config.n_lambda),
        "gamma": (config.n_units, config.n_mu),
        "queue": (int(config.arrays.queue_bounds[-1]),),
    }
    for name, want in shapes.items():
        got = np.shape(getattr(state, name))
        if got != want:
            raise CheckpointError(f"trace_state.{name} has shape {got}, expected {want}")
    for name in ("alpha", "gamma"):
        trace = getattr(state, name)
        if trace.dtype != np.float64:
            raise CheckpointError(f"trace_state.{name} has dtype {trace.dtype}, expected float64")
        # NaN fails both comparisons, so it is rejected with the infinities
        if not ((trace >= 0.0) & (trace < np.inf)).all():
            fault = "a negative" if (trace < 0.0).any() else "a non-finite"
            raise CheckpointError(
                f"trace_state: traces must be finite and non-negative; {name} has {fault} entry"
            )
    queue = state.queue
    if queue.dtype.kind not in "iu" or not ((queue == 0) | (queue == 1)).all():
        raise CheckpointError("trace_state.queue: expected bits, each 0 or 1")
    try:
        _check_queue_history(config, queue)
    except ValueError as err:
        raise CheckpointError(f"trace_state.queues: {err}") from None
    step_count = state.step_count
    if isinstance(step_count, bool) or not isinstance(step_count, (int, np.integer)):
        raise CheckpointError("trace_state.step_count: expected an integer")
    if step_count < 0:
        raise CheckpointError("trace_state.step_count must be >= 0")


# ---------------------------------------------------------------------------
# Writing


def _pair_rows(heads: list, values) -> list:
    """``[i, j, value]`` rows from the ``(i, j)`` ``heads`` and one value each."""
    return [[i, j, x] for (i, j), x in zip(heads, values)]


def save_checkpoint(
    params: Parameters, config: ModelConfig, state: TraceState | None = None
) -> str:
    """Serialise a model (and optionally its trace state) to JSON text."""
    params.validate_for(config)
    if state is not None:
        _check_state(state, config)
    arr = config.arrays
    heads = list(zip(arr.pre.tolist(), arr.post.tolist()))  # sorted pair order
    doc = {
        "format_version": FORMAT_VERSION,
        "config": {
            "n_units": config.n_units,
            "temperature": config.temperature,
            "lambdas": list(config.lambdas),
            "mus": list(config.mus),
            "connectivity": _pair_rows(heads, arr.delay.tolist()),
        },
        "bias": params.bias.tolist(),
        "u": _pair_rows(heads, params.u.tolist()),
        "v": _pair_rows(heads, params.v.tolist()),
    }
    if state is not None:
        doc["trace_state"] = {
            "alpha": _pair_rows(heads, state.alpha.tolist()),
            "gamma": state.gamma.tolist(),
            "queues": _pair_rows(heads, queue_rows(config, state.queue)),
            "step_count": int(state.step_count),
        }
    return _ENCODER.encode(doc)


# ---------------------------------------------------------------------------
# Reading


def _number(x, at: str) -> float:
    """A JSON number as a float; an integer too large for a double is an
    error, not an uncaught OverflowError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise CheckpointError(f"{at}: expected a number")
    try:
        return float(x)
    except OverflowError:
        raise CheckpointError(f"{at}: number too large for a double") from None


def _parse(document: str, what: str) -> dict:
    """A JSON document whose root is an object (``what`` names it in errors);
    nesting too deep for the decoder is malformed, not a RecursionError."""
    try:
        doc = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"malformed {what} JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"{what} root must be a JSON object")
    return doc


def _known(doc: dict, keys, where: str) -> None:
    """Reject the first key of ``doc`` outside ``keys``, naming it."""
    for key in doc:
        if key not in keys:
            raise CheckpointError(f"{where}: unknown field '{key}'")


def _require(doc: dict, key: str, kind, where: str):
    """``doc[key]``, present and a ``kind`` (``object`` lets its owner check it)."""
    if key not in doc:
        raise CheckpointError(f"{where}: missing field '{key}'")
    value = doc[key]
    if kind is int:
        if type(value) is not int:  # bool is an int subclass
            raise CheckpointError(f"{where}.{key}: expected an integer")
        return value
    if not isinstance(value, kind):
        raise CheckpointError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _float_list(values, where: str, length: int | None = None) -> list[float]:
    if not isinstance(values, list):
        raise CheckpointError(f"{where}: expected a list of numbers")
    if length is not None and len(values) != length:
        raise CheckpointError(f"{where}: expected {length} values, got {len(values)}")
    return [_number(x, f"{where}[{idx}]") for idx, x in enumerate(values)]


def _float_table(rows: list, width: int) -> np.ndarray | None:
    """Vector pass: the (len(rows), width) array of ``rows`` when each is a
    list of ``width`` JSON floats, else None."""
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}:
        flat = list(chain.from_iterable(rows))
        if set(map(type, flat)) <= {float}:
            return np.array(flat, dtype=float).reshape(len(rows), width)
    return None


def _heads(rows: list) -> tuple[list[int], list[int]] | None:
    """Vector pass: the list of every row's i and the list of every row's j
    when each row is a three-item list that starts with two integers, else
    None."""
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}:
        pre, post = list(map(_FIRST, rows)), list(map(_SECOND, rows))
        if set(map(type, pre + post)) <= {int}:
            return pre, post
    return None


def _in_pair_order(rows: list, config: ModelConfig) -> bool:
    """Vector pass: whether ``rows`` are one row per connected pair, headed
    by the pairs in sorted order."""
    heads, arr = _heads(rows), config.arrays
    return heads is not None and heads[0] == arr.pre.tolist() and heads[1] == arr.post.tolist()


def _rows(rows: list, where: str, last: str):
    """Yield (location, pair, third item) for each [i, j, x] row, rejecting
    malformed rows and repeated pairs."""
    seen: set[tuple[int, int]] = set()
    for idx, row in enumerate(rows):
        at = f"{where}[{idx}]"
        if not (isinstance(row, list) and len(row) == 3 and type(row[0]) is type(row[1]) is int):
            raise CheckpointError(f"{at}: expected [i, j, {last}]")
        pair = (row[0], row[1])
        if pair in seen:
            raise CheckpointError(f"{at}: duplicate pair {pair}")
        seen.add(pair)
        yield at, pair, row[2]


def _pair_values(rows: list, config: ModelConfig, where: str, read) -> list:
    """One value per connected pair, in ``config.pairs`` order, from rows
    that cover every pair once. ``read(x, pair, at)`` checks and converts
    the third item ``x`` of the row for ``pair`` found at location ``at``."""
    out = [None] * config.n_pairs
    covered = 0
    for at, pair, x in _rows(rows, where, "values"):
        m = config.pair_index.get(pair)
        if m is None:
            raise CheckpointError(f"{at}: pair {pair} not in connectivity")
        out[m] = read(x, pair, at)
        covered += 1
    if covered != config.n_pairs:
        raise CheckpointError(f"{where}: rows cover {covered} of {config.n_pairs} pairs")
    return out


def _pair_table(rows: list, config: ModelConfig, width: int, where: str) -> np.ndarray:
    if _in_pair_order(rows, config):
        table = _float_table(list(map(_THIRD, rows)), width)
        if table is not None:
            return table
    values = _pair_values(rows, config, where, lambda x, _, at: _float_list(x, at, width))
    return np.array(values, dtype=float).reshape(config.n_pairs, width)


def _queue(rows: list, config: ModelConfig) -> np.ndarray:
    """The flat queue of ``trace_state.queues``."""
    if _in_pair_order(rows, config):
        bits = list(map(_THIRD, rows))
        if set(map(type, bits)) <= {list} and list(map(len, bits)) == (
            config.arrays.delay - 1
        ).tolist():
            flat = list(chain.from_iterable(bits))
            if set(map(type, flat)) <= {int} and set(flat) <= {0, 1}:
                return np.array(flat, dtype=np.uint8)

    def read(x, pair, at):
        n = config.delays[pair] - 1
        if not (
            isinstance(x, list) and len(x) == n and all(type(b) is int and b in (0, 1) for b in x)
        ):
            raise CheckpointError(f"{at}: expected {n} bits, each 0 or 1")
        return x

    # rows that disagree are named by ``_check_state``, after the traces, as on the vector pass
    values = _pair_values(rows, config, "trace_state.queues", read)
    return np.array(list(chain.from_iterable(values)), dtype=np.uint8)


def _read_config(doc: dict, where: str) -> ModelConfig:
    """Read the ``config`` section shared by checkpoints and run
    configurations (``where`` names the document in errors). Only the
    section's shape is checked here; ``ModelConfig`` checks the values."""
    cfg = _require(doc, "config", dict, where)
    _known(cfg, ("n_units", "temperature", "lambdas", "mus", "connectivity"), "config")
    conn = _require(cfg, "connectivity", list, "config")
    heads, delays = _heads(conn), None
    if heads is not None:
        values = list(map(_THIRD, conn))
        if set(map(type, values)) <= {int}:
            delays = dict(zip(zip(*heads), values))
    if delays is None or len(delays) < len(conn):  # a repeated pair is named below
        delays = {}
        for at, pair, delay in _rows(conn, "config.connectivity", "delay"):
            if type(delay) is not int:
                raise CheckpointError(f"{at}: expected [i, j, delay]")
            delays[pair] = delay
    return ModelConfig(
        n_units=_require(cfg, "n_units", object, "config"),
        lambdas=_require(cfg, "lambdas", list, "config"),
        mus=_require(cfg, "mus", list, "config"),
        delays=delays,
        temperature=_require(cfg, "temperature", object, "config"),
    )


def load_checkpoint(document: str) -> tuple[Parameters, ModelConfig, TraceState | None]:
    """Parse a checkpoint document back into (parameters, config, state).

    Raises CheckpointError for malformed documents or unknown versions, and
    ConfigError when the embedded configuration violates an invariant.
    """
    doc = _parse(document, "checkpoint")
    version = _require(doc, "format_version", int, "checkpoint")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format_version {version}; this build reads {FORMAT_VERSION}"
        )
    _known(doc, ("format_version", "config", "bias", "u", "v", "trace_state"), "checkpoint")
    config = _read_config(doc, "checkpoint")

    bias = _require(doc, "bias", list, "checkpoint")
    table = _float_table([bias], config.n_units)
    params = Parameters(
        bias=_float_list(bias, "bias", config.n_units) if table is None else table[0],
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
        _known(ts, ("alpha", "gamma", "queues", "step_count"), "trace_state")
        alpha = _pair_table(
            _require(ts, "alpha", list, "trace_state"), config, config.n_lambda, "trace_state.alpha"
        )
        gamma_rows = _require(ts, "gamma", list, "trace_state")
        if len(gamma_rows) != config.n_units:
            raise CheckpointError(
                f"trace_state.gamma: expected {config.n_units} rows, got {len(gamma_rows)}"
            )
        gamma = _float_table(gamma_rows, config.n_mu)
        if gamma is None:
            gamma = np.array(
                [
                    _float_list(row, f"trace_state.gamma[{i}]", config.n_mu)
                    for i, row in enumerate(gamma_rows)
                ]
            )
        state = TraceState(
            alpha=alpha,
            gamma=gamma,
            queue=_queue(_require(ts, "queues", list, "trace_state"), config),
            step_count=_require(ts, "step_count", int, "trace_state"),
        )
        _check_state(state, config)

    return params, config, state
