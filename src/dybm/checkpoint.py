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

The reader checks and converts each table in one pass of vector
operations: pair rows in any order, sorted into pair order by the
config's pair columns (``config.arrays``, so loading never builds
``config.pairs`` or ``config.pair_index``), and values as JSON floats or
integers. When a check fails, the pass names the first bad row in
document order, with the first fault of that row.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import sub

import numpy as np

from .config import ModelConfig, Parameters
from .model import TraceState, _join_rows, queue_rows

__all__ = ["CheckpointError", "FORMAT_VERSION", "save_checkpoint", "load_checkpoint"]

FORMAT_VERSION = 1

# the document holds fresh lists only, so the encoder need not look for cycles
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False)
# the least integer that float() cannot round to a finite double
_TOO_LARGE = 2**1024 - 2**970


class CheckpointError(ValueError):
    """Raised for malformed or wrong-version checkpoint documents."""


# ---------------------------------------------------------------------------
# Trace state


def _check_state(state: TraceState, config: ModelConfig, queue_fault: str | None = None) -> None:
    """Reject a trace state that would not load back as it is. The writer
    checks the state it is given, the reader the state it decoded, so the
    writer refuses what the reader refuses: float64 traces of the config's
    shapes, finite and non-negative, an integer queue of 0/1 bits and an
    integer ``step_count`` >= 0. The reader's ``queue_fault`` names the
    document's per-pair queue rows that disagree (``model._join_rows``);
    it is raised after the traces' checks."""
    shapes = {
        "alpha": (config.n_pairs, config.n_lambda),
        "gamma": (config.n_units, config.n_mu),
        "queue": (int(config.arrays.segment_bounds[-1]),),
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
    if queue_fault is not None:
        raise CheckpointError(f"trace_state.queues: {queue_fault}")
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


def _first(keys: list, *allowed) -> int:
    """Index of the first of ``keys`` that is none of ``allowed``;
    ``len(keys)`` when there is none."""
    left = len(keys)
    for value in allowed:
        left -= keys.count(value)  # a count runs in C
        if not left:
            return len(keys)
    return next(k for k, key in enumerate(keys) if key not in allowed)


def _rows(rows: list, where: str, last: str) -> tuple[tuple, tuple, tuple, str | None]:
    """``(pre, post, items, fault)``: the i, j and third item of the leading
    ``[i, j, x]`` rows of ``rows`` whose i and j are integers, and the
    message for the row that ends them (None when no row does)."""
    end = _first(list(map(type, rows)), list)
    end = _first(list(map(len, rows[:end])), 3)
    pre, post, items = zip(*rows[:end]) if end else ((), (), ())
    end = min(_first(list(map(type, pre)), int), _first(list(map(type, post)), int))
    fault = f"{where}[{end}]: expected [i, j, {last}]" if end < len(rows) else None
    return pre[:end], post[:end], items[:end], fault


def _pair_order(rows: list, config: ModelConfig, where: str) -> tuple[tuple, np.ndarray, str | None]:
    """``(items, m, fault)``: the third items of the leading rows that name
    distinct connected pairs, each pair's row ``m`` in sorted pair order,
    and the message for the row after them or, if none, for a pair left out."""
    pre, post, items, fault = _rows(rows, where, "values")
    n, arr = config.n_units, config.arrays
    try:
        heads = np.fromiter(chain(pre, post), np.int64, 2 * len(pre)).reshape(2, -1)
    except OverflowError:  # a number beyond int64 is out of range
        heads = np.array((pre, post), dtype=object)
    inside = ((heads >= 0) & (heads < n)).all(axis=0)
    key = np.where(inside, heads[0] * n + heads[1], -1).astype(np.int64)
    # the connected pairs' keys, sorted, and one past every key
    known_keys = np.append(arr.pre * n + arr.post, np.iinfo(np.int64).max)
    m = np.searchsorted(known_keys, key)
    known = known_keys[m] == key
    first = np.full(len(known_keys), len(key))  # the first row of each pair
    np.minimum.at(first, m[known], np.flatnonzero(known))
    bad = ~known | (first[m] < np.arange(len(key)))
    if bad.any():
        k = int(bad.argmax())
        pair = (pre[k], post[k])
        found = f"duplicate pair {pair}" if known[k] else f"pair {pair} not in connectivity"
        fault, items, m = f"{where}[{k}]: {found}", items[:k], m[:k]
    elif fault is None and len(items) != config.n_pairs:
        fault = f"{where}: rows cover {len(items)} of {config.n_pairs} pairs"
    return items, m, fault


def _numbers(lists, width: int, at) -> np.ndarray:
    """The ``(len(lists), width)`` float array of ``lists``, each a list of
    ``width`` JSON numbers, ints or floats; ``at(k)`` names list ``k`` in
    the error for the first bad list."""
    end = _first(list(map(type, lists)), list)
    fault = f"{at(end)}: expected a list of numbers" if end < len(lists) else None
    k = _first(list(map(len, lists[:end])), width)
    if k < end:
        end, fault = k, f"{at(k)}: expected {width} values, got {len(lists[k])}"
    flat = list(chain.from_iterable(lists[:end]))
    f = _first(list(map(type, flat)), float, int)  # bool is neither
    if f < len(flat):
        fault = f"{at(f // width)}[{f % width}]: expected a number"
    try:
        values = np.array(flat[:f], dtype=float)
    except OverflowError:
        f = next(f for f, x in enumerate(flat) if type(x) is int and abs(x) >= _TOO_LARGE)
        fault = f"{at(f // width)}[{f % width}]: number too large for a double"
    if fault is not None:
        raise CheckpointError(fault)
    return values.reshape(-1, width)


def _float_pairs(rows: list, config: ModelConfig, width: int, where: str) -> np.ndarray:
    """The ``(n_pairs, width)`` array of an ``[i, j, [values]]`` table, in pair order."""
    items, m, fault = _pair_order(rows, config, where)
    values = _numbers(items, width, lambda k: f"{where}[{k}]")
    if fault is not None:
        raise CheckpointError(fault)
    return values[np.argsort(m)]


def _queue(rows: list, config: ModelConfig) -> tuple[np.ndarray, str | None]:
    """The flat queue of ``trace_state.queues`` and the message for rows
    that disagree, or None (``model._join_rows``): for each pair, as many
    bits (JSON ints 0 and 1) as its delay less one."""
    items, m, fault = _pair_order(rows, config, "trace_state.queues")
    need = config.arrays.delay[m] - 1
    end = _first(list(map(type, items)), list)
    end = _first(list(map(sub, map(len, items[:end]), need.tolist())), 0)
    ends = np.cumsum(need[:end])
    flat = list(chain.from_iterable(items[:end]))
    f = _first(flat[: _first(list(map(type, flat)), int)], 0, 1)
    end = min(end, int(np.searchsorted(ends, f, side="right")))
    if end < len(items):
        fault = f"trace_state.queues[{end}]: expected {need[end]} bits, each 0 or 1"
    if fault is not None:
        raise CheckpointError(fault)
    # each pair's bits, gathered from its row, in pair order
    lengths = config.arrays.delay - 1
    shift = (ends - need)[np.argsort(m)] - (np.cumsum(lengths) - lengths)
    bits = np.frombuffer(bytearray(flat), np.uint8)
    return _join_rows(config, bits[np.arange(len(flat)) + np.repeat(shift, lengths)])


def _read_config(doc: dict, where: str) -> ModelConfig:
    """Read the ``config`` section shared by checkpoints and run
    configurations (``where`` names the document in errors). Only the
    section's shape is checked here; ``ModelConfig`` checks the values."""
    cfg = _require(doc, "config", dict, where)
    _known(cfg, ("n_units", "temperature", "lambdas", "mus", "connectivity"), "config")
    conn = _require(cfg, "connectivity", list, "config")
    pre, post, delays, fault = _rows(conn, "config.connectivity", "delay")
    pairs = list(zip(pre, post))
    table = dict(zip(pairs, delays))
    if len(table) < len(pairs):  # name the first repeat
        first = {}
        k = next(k for k, pair in enumerate(pairs) if first.setdefault(pair, k) != k)
        fault, delays = f"config.connectivity[{k}]: duplicate pair {pairs[k]}", delays[:k]
    k = _first(list(map(type, delays)), int)
    if k < len(delays):
        fault = f"config.connectivity[{k}]: expected [i, j, delay]"
    if fault is not None:
        raise CheckpointError(fault)
    return ModelConfig(
        n_units=_require(cfg, "n_units", object, "config"),
        lambdas=_require(cfg, "lambdas", list, "config"),
        mus=_require(cfg, "mus", list, "config"),
        delays=table,
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
    params = Parameters(
        bias=_numbers([bias], config.n_units, lambda k: "bias")[0],
        u=_float_pairs(_require(doc, "u", list, "checkpoint"), config, config.n_lambda, "u"),
        v=_float_pairs(_require(doc, "v", list, "checkpoint"), config, config.n_mu, "v"),
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
        alpha = _require(ts, "alpha", list, "trace_state")
        alpha = _float_pairs(alpha, config, config.n_lambda, "trace_state.alpha")
        gamma = _require(ts, "gamma", list, "trace_state")
        if len(gamma) != config.n_units:
            raise CheckpointError(
                f"trace_state.gamma: expected {config.n_units} rows, got {len(gamma)}"
            )
        gamma = _numbers(gamma, config.n_mu, lambda k: f"trace_state.gamma[{k}]")
        queue, disagree = _queue(_require(ts, "queues", list, "trace_state"), config)
        state = TraceState(alpha, gamma, queue, _require(ts, "step_count", int, "trace_state"))
        _check_state(state, config, disagree)

    return params, config, state
