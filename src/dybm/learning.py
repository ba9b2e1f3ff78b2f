"""Exact log-likelihood gradients and gradient-ascent training.

The per-step conditional is logistic in the parameters with the traces as
fixed features, so the per-step gradient is available in closed form and
the sequence log-likelihood is concave: full-batch ascent with a small
enough rate can never decrease it. Online mode applies one update per
observed slice; the traces do not depend on the parameters, so updating
mid-sequence loses nothing. A queue holds only past slices of its source
unit, so one trace builder (``_TraceBuilder``) reads the features of a
known series from the series itself, a chunk at a time, summing β with
the one kernel a single state uses (``model._near_window``); a rollout's
generated slices take it too, each read as soon as it is sampled. Online
training reads each row as one step's features, scoring drives a chunk, and
full-batch training builds the dataset's features once, as one stream of
blocks that cross series ends, and rescores it every epoch. One scorer,
``_grad_logp``, serves both modes. Totals over steps are added one step at
a time in step order (``_add_in_order``), so both modes round alike.
Online training reuses one gradient row and steps its own copy of the
parameters in place.
"""

from __future__ import annotations

import math
import time
import weakref
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .config import (
    ConfigError, ModelConfig, Parameters, _count, _FlatBanks, _positive, as_time_slice
)
# ``advance`` is not called here, but the benchmark's span shims look it up in this module
from .model import (
    TraceState, _drives, _features, _Features, _log_probs, _near_window, _sigmoid, _trace_step, advance
)

__all__ = [
    "Gradient",
    "TrainerConfig",
    "TrainMetrics",
    "TrainingDiverged",
    "step_gradient",
    "sequence_log_likelihood",
    "sequence_gradient",
    "sgd_update",
    "train",
]

# Ascent is unregularised; runaway parameters indicate a misconfigured run
# (the homeostatic pull of the expectation term is the only stabiliser).
DIVERGENCE_LIMIT = 1e6

# Feature bytes full-batch training may keep across epochs; a dataset whose
# features do not fit is rebuilt every epoch.
_FEATURE_BYTES = 1 << 25

# Feature bytes of one chunk: a known series is read a chunk at a time, and a
# chunk's fill lands on the online update of its first row. 13 slices at 256
# units and 2048 pairs: fewer than one update in ten, and about 2 MB of tables.
_CHUNK_BYTES = 5 << 18


class TrainingDiverged(RuntimeError):
    """Raised when a parameter leaves the plausible range during training."""

    def __init__(self, message: str, epoch: int, step: int):
        super().__init__(message)
        self.epoch = epoch
        self.step = step


class Gradient(_FlatBanks):
    """One log-likelihood gradient contribution, laid out like Parameters:
    ``d_bias``, ``d_u`` and ``d_v`` are views into ``theta``."""

    __slots__ = ()
    names = ("d_bias", "d_u", "d_v")
    d_bias = property(lambda self: self._banks[0])
    d_u = property(lambda self: self._banks[1])
    d_v = property(lambda self: self._banks[2])

    def __new__(cls, d_bias, d_u, d_v):
        return super().__new__(cls, d_bias, d_u, d_v)

    def add_(self, other: "Gradient") -> "Gradient":
        self._theta += other.theta
        return self

    def norm(self) -> float:
        # theta is squared once, then summed bank by bank: a single sum
        # over theta would round the recorded grad_norm values differently
        sq = self._theta * self._theta
        a = self.d_bias.size
        b = a + self.d_u.size
        add = np.add.reduce
        return math.sqrt(add(sq[:a]) + add(sq[a:b]) + add(sq[b:]))


@dataclass
class TrainerConfig:
    """How to run training.

    ``mode`` is "online" (one update per slice) or "full_batch" (one update
    per epoch from the summed gradient). Slices are always consumed in
    sequence order; when ``shuffle_seed`` is set, online mode shuffles the
    order of whole series between epochs (full-batch order is fixed).
    """

    learning_rate: float
    epochs: int
    mode: str = "full_batch"
    shuffle_seed: int | None = None

    def __post_init__(self) -> None:
        self.learning_rate = _positive("learning_rate", self.learning_rate)
        self.epochs = _count("epochs", self.epochs)
        if self.mode not in ("online", "full_batch"):
            raise ConfigError(f"mode must be 'online' or 'full_batch', got {self.mode!r}")
        if self.shuffle_seed is not None:
            self.shuffle_seed = _count("shuffle_seed", self.shuffle_seed)


@dataclass
class TrainMetrics:
    """Per-run training record; log-likelihoods are never positive."""

    epoch_log_likelihood: list[float] = field(default_factory=list)
    step_nll: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    wall_ms: float = 0.0


def step_gradient(
    params: Parameters, state: TraceState, config: ModelConfig, observed
) -> Gradient:
    """Gradient of log P(observed | state) in the parameters.

    With r[j] = (x[j] - p[j]) / temperature, the bias gradient is r, the u
    gradient pairs r of the target unit with the arrival trace, and the v
    gradient combines the near-window trace against the target's r with the
    target's source trace against the source unit's r (the depression
    coefficient acts on both ends of its pair). The state is not mutated.
    """
    x = as_time_slice(observed, config.n_units)
    arr = config.arrays
    row = _grad_logp(params, config, _features(state, config, x), np.empty(arr.n_params + 1))
    return Gradient._wrap(row[:-1], arr.bank_shapes)


def _grad_logp(params: Parameters, config: ModelConfig, f: _Features, out: np.ndarray) -> np.ndarray:
    """The one scorer, of one step or of a block: writes each step's
    gradient, laid out as a ``Gradient.theta``, then its log-probability
    into ``out``, shaped (…, n_params + 1) like ``f.x`` with its last axis
    widened, and returns it. The arithmetic is elementwise per step, so a
    block row is its step scored alone, bit for bit."""
    a = config.n_units
    b = a + config.arrays.post_k.size
    z = _drives(params, f, config) / config.temperature
    e = np.exp(-np.abs(z))
    r = np.divide(f.x - _sigmoid(z, e), config.temperature, out=out[..., :a])
    flat = r.ravel()  # the feature indices address the flattened unit axis
    r_post = flat.take(f.post_k)
    np.multiply(f.alpha, r_post, out=out[..., a:b].reshape(f.alpha.shape))
    if f.post_l is not f.post_k:
        r_post = flat.take(f.post_l)
    d_v = np.multiply(f.beta, r_post, out=out[..., b:-1].reshape(f.beta.shape))
    np.negative(d_v, out=d_v)  # -(β·r) rounds as (-β)·r does
    d_v -= f.gamma_post * flat.take(f.pre_l)
    out[..., -1] = _log_probs(z, f.x, e)
    return out


def _normalize_series(series, n_units: int) -> np.ndarray:
    """The checked (T, N) int64 array of a non-empty series. A valid 2-D
    array is checked once, without a copy when it is already int64;
    anything else is checked slice by slice by ``as_time_slice``, whose
    errors it raises."""
    try:
        arr = np.asarray(series)
    except ValueError:  # ragged slices make no array; each is checked below
        arr = np.empty(0)
    if arr.ndim == 2 and arr.shape[1] == n_units and ((arr == 0) | (arr == 1)).all():
        slices = arr.astype(np.int64, copy=False)
    else:
        slices = np.array([as_time_slice(s, n_units) for s in series], dtype=np.int64)
    if not len(slices):
        raise ValueError("series must contain at least one time slice")
    return slices


def _step_bytes(config: ModelConfig) -> int:
    """Bytes of one slice's features in a kept block: its slice, α, β and γ rows."""
    return 8 * (config.n_units + config.n_pairs * (config.n_lambda + 2 * config.n_mu))


def _block_steps(config: ModelConfig, steps: int | None = None) -> int:
    """The chunk: most slices whose features fit ``_CHUNK_BYTES`` and ``_FEATURE_BYTES``,
    or fewer, the power of two that holds ``steps`` slices (few lengths, small tables)."""
    most = max(1, min(_CHUNK_BYTES, _FEATURE_BYTES) // _step_bytes(config))
    return most if steps is None else min(most, 1 << (steps - 1).bit_length())


class _TraceBuilder:
    """Feature rows of known series, a chunk of at most C = ``steps``
    slices at a time, into reused buffers: row r of a chunk from slice s
    holds slice s + r and, bit for bit, the features of the state that
    ``advance`` reaches from ``init_state`` over slices 0 … s + r - 1.

    The rows read a float copy of each unit's recent slices (``history``:
    from as far back as its longest queue reaches, zero before the series
    start, its slice at chunk step k at ``head[u] + k``), which each fill
    shifts by the slices the last one took. Row r + 1 gathers each unit's
    last slice at ``source[r]`` and each pair's arrival at ``arrival + r``,
    then steps α and γ (per unit) through ``advance``'s own step; γ goes to
    the pairs once per chunk. β gathers each near-window slot's bit (at
    ``slots``; only the zero slot when no pair queues a bit) and sums the
    rows with ``_beta_matrix``'s kernel, in sub-chunks of at most a chunk's
    β size. ``queue`` locates each bit of the state's queue. A state is
    stepped only when a row or ``state`` reads it. ``extend`` steps a series
    that is written as it is read, a rollout's, one row at a time."""

    def __init__(self, config: ModelConfig, steps: int) -> None:
        arr, n, m, k = config.arrays, config.n_units, config.n_pairs, config.n_lambda
        depth = np.zeros(n, dtype=np.int64)
        np.maximum.at(depth, arr.pre, arr.delay - 1)
        self.head = np.cumsum(depth + steps) - steps
        self.slices = self.head + np.arange(steps)[:, None]
        self.source = np.repeat(self.slices[:, :, None], config.n_mu, axis=2)
        self.arrival = np.tile((self.head.take(arr.pre) - arr.delay + 1)[:, None], k)
        pair = np.repeat(np.arange(m), arr.delay - 1)  # of each queue bit
        lag = np.arange(pair.size) - arr.queue_bounds.take(pair) + 1
        self.queue = self.head.take(arr.pre.take(pair)) - lag
        at = self.queue.take(arr.lag_src) if pair.size else np.zeros(1, dtype=np.int64)
        self.slots = at + np.arange(min(steps, max(1, steps * m * config.n_mu // at.size)))[:, None]
        self.w = np.empty(self.slots.shape)
        self.alpha, self.decayed = np.empty((steps + 1, m, k)), np.empty((m, k))
        self.beta, self.gamma_post = np.empty((2, steps, m, config.n_mu))
        self.gamma = np.empty((steps + 1, n, config.n_mu))
        self.history = np.zeros(int(self.head[-1]) + steps)
        self.steps, self.filled, self.index = steps, 0, None
        self.arr = weakref.proxy(arr)  # ``arr`` keeps the idle builder: no cycle to outlive a config

    def rows(self, x, alpha, beta, gamma_post) -> _Features:
        """Features of ``len(x)`` rows, with the first rows of the bincount indices of C
        rows, N apart, made on first use (online training reads its rows with the config's)."""
        if self.index is None:
            arr, offset = self.arr, self.gamma.shape[1] * np.arange(self.steps)[:, None, None]
            post_k = arr.post_k + offset
            post_l = post_k if arr.post_l is arr.post_k else arr.post_l + offset
            self.index = post_k, post_l, arr.pre_l + offset
        k, l, p = (a[: len(x)] for a in self.index)
        return _Features(x, alpha, beta, gamma_post, k, k if self.index[1] is self.index[0] else l, p)

    def _step(self, slices: np.ndarray, start: int, stop: int, more: bool) -> None:
        """Step α and γ over slices ``start`` (0 or the last ``stop``) to ``stop - 1``
        of a series, and into row stop - start when ``more`` asks for it."""
        alpha, gamma, history, n = self.alpha, self.gamma, self.history, stop - start
        if start:
            self._shift()
        else:
            history[:] = alpha[0] = gamma[0] = 0.0
        self.filled = n
        history[self.slices[:n]] = slices[start:stop]
        rows = n if more else n - 1
        history.take(self.source[:rows], None, gamma[1 : rows + 1], "clip")
        for r in range(1, rows + 1):
            self._row(r)

    def _shift(self) -> None:
        """Start the next chunk: shift ``history`` by the slices the last one took,
        and start from its last row."""
        history, alpha, gamma, k = self.history, self.alpha, self.gamma, self.filled
        history[:-k], alpha[0], gamma[0] = history[k:], alpha[k], gamma[k]

    def _row(self, r: int) -> None:
        """Step α and γ into row ``r`` of the chunk; γ's slices are gathered already."""
        a, g = self.alpha[r], self.gamma[r]
        self.history[r - 1 :].take(self.arrival, None, a, "clip")  # np.take's wrapper adds ~0.9 µs a call
        _trace_step(self.arr, self.alpha[r - 1], self.gamma[r - 1], a, g, a, g, self.decayed)

    def fill(self, slices: np.ndarray, start: int, stop: int, more: bool) -> tuple:
        """The slices ``start`` to ``stop - 1`` and their α, β and γ rows,
        held until the next fill."""
        arr, n, gamma = self.arr, stop - start, self.gamma
        self._step(slices, start, stop, more)
        gamma[:n].reshape(n, -1).take(arr.gamma_post, 1, self.gamma_post[:n], "clip")
        for c in range(0, n, len(self.w)):
            w = self.w[: min(len(self.w), n - c)]
            self.history[c:].take(self.slots[: len(w)], None, w, "clip")
            w *= arr.lag_coeff
            _near_window(w, arr, self.beta[c : c + len(w)])
        return slices[start:stop], self.alpha[:n], self.beta[:n], self.gamma_post[:n]

    def chunks(self, slices: np.ndarray) -> Iterator[tuple]:
        """The rows of one series, a chunk at a time (``fill``)."""
        for start in range(0, len(slices), self.steps):
            stop = min(len(slices), start + self.steps)
            yield self.fill(slices, start, stop, stop < len(slices))

    def extend(self, primer: np.ndarray, out: np.ndarray) -> Iterator[tuple]:
        """The α, β and γ rows of the states after ``primer`` and then after each
        slice of ``out`` in turn, one per slice of ``out``: the k-th is the state's
        before slice k, which the caller writes into ``out`` before asking for the
        next row, which reads it. The primer may be empty."""
        arr, gamma, history = self.arr, self.gamma, self.history
        for start in range(0, len(primer), self.steps) or (0,):  # an empty primer only resets
            self._step(primer, start, min(len(primer), start + self.steps), True)
        r, w, beta, gamma_post = self.filled, self.w[0], self.beta[0], self.gamma_post[0]
        for k in range(len(out)):
            if k:
                if r == self.steps:
                    self._shift()
                    r = 0
                history[self.slices[r]] = out[k - 1]
                history.take(self.source[r], None, gamma[r + 1], "clip")
                r = self.filled = r + 1
                self._row(r)
            gamma[r].reshape(-1).take(arr.gamma_post, None, gamma_post, "clip")
            history[r:].take(self.slots[0], None, w, "clip")
            w *= arr.lag_coeff
            yield self.alpha[r], _near_window(w, arr, beta), gamma_post

    def state(self, slices: np.ndarray) -> TraceState:
        """The state after a series, stepping no row's features."""
        for start in range(0, len(slices), self.steps):
            self._step(slices, start, min(len(slices), start + self.steps), True)
        k, queue = self.filled, self.history.take(self.queue + self.filled).astype(np.uint8)
        return TraceState(self.alpha[k].copy(), self.gamma[k].copy(), queue, len(slices))


@contextmanager
def _builder(config: ModelConfig, steps: int) -> Iterator[_TraceBuilder]:
    """A ``_TraceBuilder`` of chunk length ``steps`` for the block. Fresh buffers cost a page
    fault at every first touch, so one idle builder per length is kept in ``config.arrays``;
    a nested or concurrent use (``dict.pop`` is atomic) makes its own."""
    idle = config.arrays.trace_builders
    builder = idle.pop(steps, None) or _TraceBuilder(config, steps)
    yield builder
    idle.setdefault(steps, builder)


def _end_state(config: ModelConfig, series) -> TraceState:
    """The state after a known series, from the zero-history start state."""
    slices = _normalize_series(series, config.n_units)
    with _builder(config, _block_steps(config, len(slices))) as builder:
        return builder.state(slices)


def _blocks(config: ModelConfig, series_list: list[np.ndarray], max_steps: int) -> Iterator[_Features]:
    """Each series in turn, as one stream of fresh feature blocks of at most
    ``max_steps`` (series, step) rows in dataset order, copied from a
    ``_TraceBuilder`` of that chunk length; they cross series ends, and one
    is held at a time."""
    left, i = sum(map(len, series_list)), 0
    with _builder(config, max_steps) as builder:
        for slices in series_list:
            start = 0
            while start < len(slices):
                if i == 0:
                    n = min(max_steps, left)
                    like = (slices, builder.alpha, builder.beta, builder.gamma_post)
                    block = builder.rows(*(np.empty((n, *a.shape[1:]), a.dtype) for a in like))
                stop = min(len(slices), start + len(block.x) - i)
                chunk = builder.fill(slices, start, stop, stop < len(slices))
                for a, b in zip((block.x, block.alpha, block.beta, block.gamma_post), chunk):
                    a[i : i + stop - start] = b
                i, left, start = i + stop - start, left - (stop - start), stop
                if i == len(block.x):
                    yield block
                    i = 0


def sequence_log_likelihood(params: Parameters, config: ModelConfig, series) -> float:
    """Log-probability of a whole series, chained step by step from the
    zero-history start state."""
    return _score(params, config, _normalize_series(series, config.n_units))[0]


def _score(params: Parameters, config: ModelConfig, slices: np.ndarray) -> tuple[float, int]:
    """Log-likelihood of a series, and how many of its bits the firing
    probabilities predict when thresholded at one half (ties predict 0).

    One drive gives the logits of a whole chunk of ``_TraceBuilder`` rows;
    step log-probabilities are added in step order."""
    total, correct = 0.0, 0
    with _builder(config, _block_steps(config, len(slices))) as builder:
        for chunk in builder.chunks(slices):
            f = builder.rows(*chunk)
            z = _drives(params, f, config) / config.temperature
            e = np.exp(-np.abs(z))
            total = _add_in_order(_log_probs(z, f.x, e), total)
            correct += int(np.count_nonzero((_sigmoid(z, e) > 0.5) == f.x))
    return float(total), correct


def _add_in_order(rows: np.ndarray, total):
    """``total`` plus each row of ``rows`` in turn, one step at a time, as a
    per-step loop adds them; ``rows`` may be overwritten. numpy reduces a
    (T, W) array with W >= 2 along axis 0 one row at a time, into a running
    row, but sums a 1-D array pairwise, which rounds differently; so 1-D
    rows (one number per step) take ``np.cumsum``, which adds in order at
    any shape."""
    rows[0] += total
    if rows.ndim == 1:
        return np.cumsum(rows, out=rows)[-1]
    return np.add.reduce(rows, axis=0)


def sequence_gradient(params: Parameters, config: ModelConfig, series) -> Gradient:
    """Sum of step gradients along a series, traces advancing between
    steps; equals the gradient of ``sequence_log_likelihood``."""
    slices = _normalize_series(series, config.n_units)
    blocks = _blocks(config, [slices], _block_steps(config, len(slices)))
    return _sequence_grad_ll(params, config, blocks)[0]


def _sequence_grad_ll(
    params: Parameters,
    config: ModelConfig,
    blocks: Iterable[_Features],
    step_nll: list[float] | None = None,
) -> tuple[Gradient, float]:
    """Gradient and log-likelihood of a dataset from its block stream, both
    added one step at a time in dataset order, the order an online epoch
    adds its steps in, so the log-likelihood is the in-order sum of the
    per-step NLLs appended to ``step_nll``."""
    arr = config.arrays
    total = np.zeros(arr.n_params + 1)
    for block in blocks:
        rows = _grad_logp(params, config, block, np.empty((len(block.x), arr.n_params + 1)))
        if step_nll is not None:
            step_nll.extend((-rows[:, -1]).tolist())
        total = _add_in_order(rows, total)
    return Gradient._wrap(total[:-1], arr.bank_shapes), float(total[-1])


def sgd_update(
    params: Parameters, grad: Gradient, learning_rate: float, out: Parameters | None = None
) -> Parameters:
    """One ascent step: parameters plus learning_rate times gradient.
    ``out`` is None (new parameters are returned) or ``params`` itself,
    which then steps in place. A non-finite result raises; ``out`` then
    holds it."""
    if grad.shapes != params.shapes:
        raise ValueError("gradient shape does not match parameters")
    if out is None:
        out = Parameters._wrap(np.empty_like(params.theta), params.shapes)
    elif out is not params:
        raise ValueError("out must be None or the parameters themselves")
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked below
        np.add(params.theta, learning_rate * grad.theta, out=out.theta)
    name = out._non_finite_bank()
    if name is not None:
        raise ValueError(f"update produced non-finite {name}")
    return out


def _check_guard(params: Parameters, epoch: int, step: int) -> None:
    if np.abs(params.theta).max(initial=0.0) <= DIVERGENCE_LIMIT:
        return
    for name, bank in zip(params.names, params.banks):
        worst = float(np.abs(bank).max(initial=0.0))
        if not worst <= DIVERGENCE_LIMIT:  # also catches nan and inf
            raise TrainingDiverged(
                f"parameter {name} reached magnitude {worst:.3e} "
                f"at epoch {epoch}, step {step}; training aborted",
                epoch=epoch,
                step=step,
            )


def train(
    params: Parameters,
    config: ModelConfig,
    dataset,
    trainer: TrainerConfig,
    record_sink: Callable[[dict], None] | None = None,
) -> tuple[Parameters, TrainMetrics]:
    """Run gradient ascent over a dataset of series.

    Traces restart from the zero-history state at every series boundary.
    Deterministic: identical inputs give bit-identical parameters.
    ``record_sink``, when given, receives one metrics dict per update
    ({epoch, step, log_likelihood, grad_norm, wall_ms}). An update that
    leaves the finite range or passes the divergence limit raises
    ``TrainingDiverged``.
    """
    series_list = [_normalize_series(s, config.n_units) for s in dataset]
    if not series_list:
        raise ValueError("dataset must contain at least one series")
    params = params.copy()
    params.validate_for(config)
    metrics = TrainMetrics()
    start = time.perf_counter()
    rng = (
        np.random.Generator(np.random.Philox(trainer.shuffle_seed))
        if trainer.shuffle_seed is not None
        else None
    )

    def elapsed_ms() -> float:
        return (time.perf_counter() - start) * 1000.0

    def update(grad: Gradient, log_likelihood: float, epoch: int, step: int) -> None:
        # sgd_update's step in place, checked by one pass over theta; only a
        # failed pass looks for a non-finite bank, which is reported first
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(params.theta, trainer.learning_rate * grad.theta, out=params.theta)
        if not np.abs(params.theta).max(initial=0.0) <= DIVERGENCE_LIMIT:
            name = params._non_finite_bank()
            if name is not None:
                raise TrainingDiverged(
                    f"update produced non-finite {name} at epoch {epoch}, step {step}; "
                    "training aborted", epoch, step
                )
            _check_guard(params, epoch, step)
        gnorm = grad.norm()
        metrics.grad_norms.append(gnorm)
        if record_sink is not None:
            record_sink(
                {
                    "epoch": epoch,
                    "step": step,
                    "log_likelihood": log_likelihood,
                    "grad_norm": gnorm,
                    "wall_ms": elapsed_ms(),
                }
            )

    # full-batch blocks are built once and kept when the dataset's features fit
    steps = sum(map(len, series_list))
    max_steps = _block_steps(config, steps)
    fits = trainer.mode == "full_batch" and steps * _step_bytes(config) <= _FEATURE_BYTES
    kept = list(_blocks(config, series_list, max_steps)) if fits else None
    arr = config.arrays
    row = np.empty(arr.n_params + 1)  # one online step's gradient, then log p
    grad = Gradient._wrap(row[:-1], arr.bank_shapes)
    global_step = 0
    with _builder(config, max_steps) if trainer.mode == "online" else nullcontext() as builder:
        for epoch in range(trainer.epochs):
            epoch_ll = 0.0
            if trainer.mode == "full_batch":
                blocks = kept or _blocks(config, series_list, max_steps)
                total, epoch_ll = _sequence_grad_ll(params, config, blocks, metrics.step_nll)
                global_step += steps
                update(total, epoch_ll, epoch, global_step)
            else:
                order = list(range(len(series_list)))
                if rng is not None:
                    rng.shuffle(order)
                for series_idx in order:
                    for chunk in builder.chunks(series_list[series_idx]):
                        for step in zip(*chunk):  # row t of the chunk, as one step's features
                            f = _Features(*step, arr.post_k, arr.post_l, arr.pre_l)
                            _grad_logp(params, config, f, row)
                            log_p = float(row[-1])
                            global_step += 1
                            update(grad, log_p, epoch, global_step)
                            epoch_ll += log_p
                            metrics.step_nll.append(-log_p)
            metrics.epoch_log_likelihood.append(epoch_ll)
    metrics.wall_ms = elapsed_ms()
    return params, metrics
