"""Exact log-likelihood gradients and gradient-ascent training.

The per-step conditional is logistic in the parameters with the traces as
fixed features, so the per-step gradient is available in closed form and
the sequence log-likelihood is concave: full-batch ascent with a small
enough rate can never decrease it. Online mode applies one update per
observed slice; the traces do not depend on the parameters, so updating
mid-sequence loses nothing. For the same reason full-batch training builds
the dataset's features once, as one stream of feature blocks that cross
series ends, and rescores the stream every epoch. A queue holds only past
slices of its source unit, and full-batch training holds the whole series,
so the blocks are built from the series itself (``_fill``) rather than by a
walk, with ``advance``'s operations in its order. One scorer, ``_grad_logp``,
serves both modes: an online step is the features of one state, a block
those of many. Totals over steps are added one step at a time in step order
(``_add_in_order``), so both modes round alike. Walks, which online
training, scoring and rollouts take, step one state in place, and online
training reuses one gradient row and steps its own copy of the parameters
in place.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import (
    ConfigError, ModelConfig, Parameters, _count, _FlatBanks, _positive, as_time_slice
)
from .model import (
    TraceState,
    _drives,
    _features,
    _Features,
    _log_probs,
    _scaled_drives,
    _sigmoid,
    advance,
    init_state,
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
# features do not fit is rebuilt every epoch in blocks of at most this size.
_FEATURE_BYTES = 1 << 25


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


def _walk(config: ModelConfig, slices: np.ndarray) -> Iterator[tuple[TraceState, np.ndarray]]:
    """The one pass over a series: from the zero-history start state, yield
    each checked slice with the state that precedes it. A slice is absorbed
    into the traces only when the next one is reached, so the state after
    the last slice, which no caller reads, is never built. The walk owns
    one state and steps it in place, so a yielded state holds only until
    the next one is drawn; a consumer that keeps one must copy it."""
    state = init_state(config)
    for t, x in enumerate(slices):
        if t:
            advance(state, config, slices[t - 1], state)
        yield state, x


def _step_bytes(config: ModelConfig) -> int:
    """Bytes of one slice's features in a block."""
    m = config.n_pairs
    return 8 * (config.n_units + 2 * m * config.n_lambda + 4 * m * config.n_mu)


def _block(config: ModelConfig, steps: int) -> _Features:
    """Features of ``steps`` consecutive rows on a leading step axis, whose
    slices and trace arrays are still to be filled, one row at a time, by
    ``_blocks``."""
    arr, m = config.arrays, config.n_pairs
    offset = config.n_units * np.arange(steps)[:, None, None]
    post_k = arr.post_k + offset
    return _Features(
        x=np.empty((steps, config.n_units), dtype=np.int64),
        alpha=np.empty((steps, m, config.n_lambda)),
        beta=np.empty((steps, m, config.n_mu)),
        gamma_post=np.empty((steps, m, config.n_mu)),
        post_k=post_k,
        post_l=post_k if arr.post_l is arr.post_k else arr.post_l + offset,
        pre_l=arr.pre_l + offset,
    )


def _blocks(config: ModelConfig, series_list: list[np.ndarray], max_steps: int) -> Iterator[_Features]:
    """Each series in turn, as one stream of feature blocks of at most
    ``max_steps`` consecutive (series, step) rows in dataset order: row t
    holds slice t and the features of the state that a ``_walk`` reaches
    before it, bit for bit. Blocks cross series ends; the traces restart
    from the zero-history state at each series start and carry across block
    ends within a series. ``_fill`` builds the rows of one series in one
    block; no more than one block is held at a time."""
    arr = config.arrays
    # the (unit, lag) that ``_fill`` reads for each pair's arrival, for its
    # target's source-trace input and for the queue bit of each near-window
    # slot (none when no pair queues a bit), and how far back each unit is
    # read: its longest delay as a source, and at least one step
    shape = (config.n_pairs, config.n_lambda)
    arrival = np.broadcast_to(arr.pre[:, None], shape), np.broadcast_to(arr.delay[:, None], shape)
    slots = None
    if arr.queue_bounds[-1]:
        pair = np.repeat(np.arange(config.n_pairs), arr.delay - 1).take(arr.lag_src)
        slots = arr.pre.take(pair), arr.lag_src - arr.queue_bounds.take(pair) + 1
    depth = np.ones(config.n_units, dtype=np.int64)
    np.maximum.at(depth, arr.pre, arr.delay)
    taps = (arrival, (arr.post_l, 1), slots, depth, np.tile(arr.mu, (config.n_pairs, 1)))
    left, i = sum(map(len, series_list)), 0
    for slices in series_list:
        start, carry = 0, None
        while start < len(slices):
            if i == 0:
                block = _block(config, min(max_steps, left))
            stop = min(len(slices), start + len(block.x) - i)
            carry = _fill(config, taps, block, i, slices, start, stop, carry)
            i, left, start = i + stop - start, left - (stop - start), stop
            if i == len(block.x):
                yield block
                i = 0


def _fill(config: ModelConfig, taps: tuple, f: _Features, i: int, slices, start: int, stop: int, carry):
    """Fill rows ``i``, ``i + 1``, … of block ``f`` with steps ``start`` to
    ``stop - 1`` of a series and return the carry of the last row: its
    arrival traces and each pair's copy of its target's source trace.
    ``carry`` is that of the step before ``start``, None at a series start.

    Every queued bit is a past slice, so the rows read a uint8 copy of the
    series, zero before its start, instead of stepping a queue: each unit's
    column from as far back as any trace reads it. One step at a time,
    α = α × lam_k + x_pre[t - d] for a pair of delay d, and γ = (γ +
    x_post[t - 1]) × mu; each input is written into its row first and the
    rest added to it, and since addition commutes this rounds as
    ``advance`` does. β multiplies each ``lag_src`` slot's coefficient by
    its bit and sums the slots along ``lag_runs``, as ``_beta_matrix``
    does, for a chunk of steps at once whose table is no larger than the β
    rows it fills (or one step's, when that alone is larger). Scratch is a
    few arrays the size of the block's slices plus each unit's read depth,
    one chunk's table and uint8 copies of the inputs."""
    (arrival_unit, arrival_lag), (source_unit, source_lag), slots, depth, mu = taps
    arr = config.arrays
    steps = stop - start
    rows = slice(i, i + steps)
    f.x[rows] = slices[start:stop]
    # unit u's column holds its slices start - depth[u] … stop - 2, one after another
    length = steps - 1 + depth
    head = np.cumsum(length) - length + depth  # where each column reaches slice start
    time = np.arange(int(length.sum())) - np.repeat(head - start, length)
    owner = np.repeat(np.arange(config.n_units), length)
    past = np.where(time >= 0, slices[np.maximum(time, 0), owner], 0)
    past = sliding_window_view(past.astype(np.uint8), past.size - steps + 1)  # row k: step start + k
    alpha, gamma, beta = f.alpha[rows], f.gamma_post[rows], f.beta[rows]
    alpha[...] = past[:, head[arrival_unit] - arrival_lag]
    gamma[...] = past[:, head[source_unit] - source_lag]
    a, g = carry or (np.zeros(alpha.shape[1:]), np.zeros(gamma.shape[1:]))
    decayed = np.empty(alpha.shape[1:])
    for t in range(steps):
        alpha[t] += np.multiply(a, arr.lam_k, out=decayed)
        gamma[t] += g
        gamma[t] *= mu
        a, g = alpha[t], gamma[t]
    if slots is None:
        beta[...] = 0.0
    else:
        unit, lag = slots
        at = head[unit] - lag
        chunk = max(1, beta.size // at.size)
        for c in range(0, steps, chunk):
            w = arr.lag_coeff * past[c : c + chunk, at]
            for lo, hi, (lags, width), accumulates in arr.lag_runs:
                run = w[:, lo:hi].reshape(len(w), lags, width)
                if accumulates:
                    np.add.accumulate(run, axis=1, out=run)
                else:
                    for s in range(1, lags):
                        np.add(run[:, s - 1], run[:, s], out=run[:, s])
            np.take(w, arr.beta_at, axis=1, out=beta[c : c + chunk])
    return a.copy(), g.copy()


def _block_steps(config: ModelConfig) -> int:
    """Most slices whose features fit in ``_FEATURE_BYTES`` (at least one)."""
    return max(1, _FEATURE_BYTES // _step_bytes(config))


def sequence_log_likelihood(params: Parameters, config: ModelConfig, series) -> float:
    """Log-probability of a whole series, chained step by step from the
    zero-history start state."""
    return _score(params, config, _normalize_series(series, config.n_units))[0]


def _score(params: Parameters, config: ModelConfig, slices: np.ndarray) -> tuple[float, int]:
    """Log-likelihood of a series, and how many of its bits the firing
    probabilities predict when thresholded at one half (ties predict 0).

    One ``_walk`` computes each step's logits; they are stacked in blocks
    of at most ``_block_steps`` steps, and each block is scored at once.
    Scoring a block makes several temporaries of its size (the logits,
    the sigmoid and the log-probability terms), so blocks keep that memory
    independent of series length. The training cap is loose here, as a
    logit row holds N doubles where a feature row holds
    N + M·(2·n_lambda + 4·n_mu), but it does bound every block by
    ``_FEATURE_BYTES``. Step log-probabilities are added in step order."""
    max_steps = _block_steps(config)
    walk = _walk(config, slices)
    total, correct = 0.0, 0
    for start in range(0, len(slices), max_steps):
        x = slices[start : start + max_steps]
        z = np.stack([_scaled_drives(params, state, config) for state, _ in islice(walk, len(x))])
        e = np.exp(-np.abs(z))
        total = _add_in_order(_log_probs(z, x, e), total)
        correct += int(np.count_nonzero((_sigmoid(z, e) > 0.5) == x))
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
    return _sequence_grad_ll(params, config, _blocks(config, [slices], _block_steps(config)))[0]


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

    # full-batch blocks are built once and kept when the dataset fits in one
    steps, max_steps = sum(map(len, series_list)), _block_steps(config)
    fits = trainer.mode == "full_batch" and steps <= max_steps
    kept = list(_blocks(config, series_list, max_steps)) if fits else None
    row = np.empty(config.arrays.n_params + 1)  # one online step's gradient, then log p
    grad = Gradient._wrap(row[:-1], config.arrays.bank_shapes)
    global_step = 0
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
                for state, x in _walk(config, series_list[series_idx]):
                    _grad_logp(params, config, _features(state, config, x), row)
                    log_p = float(row[-1])
                    global_step += 1
                    update(grad, log_p, epoch, global_step)
                    epoch_ll += log_p
                    metrics.step_nll.append(-log_p)
        metrics.epoch_log_likelihood.append(epoch_ll)
    metrics.wall_ms = elapsed_ms()
    return params, metrics
