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
blocks that cross series ends, and rescores it every epoch. A chunk or a
block carries its slices' sign, 2x − 1, once for every scoring of it. One
scorer, ``_grad_logp``, serves both modes. Totals over steps are added one
step at a time in step order (``_add_in_order``), so both modes round
alike, and a full-batch epoch updates from its summed row. Online training
reuses one gradient row and steps its own copy of the parameters in place;
``sgd_update``, the public step, returns new ones. ``train`` allocates one
workspace (``_Workspace``) per call, as ``sequence_gradient`` does: the
drive's pair terms (one pair scratch for every block length), the scorer's
gathers of r, η·g and the norm's squares are written into it, through
views it builds once, so no update allocates an M- or P-sized array. The
divergence guard costs O(1) per update: a running bound B on max |θ|,
B ← (B + η·(‖g‖ + 2⁻⁵⁰⁰))·(1 + 2⁻³⁰), fed by the gradient norm that every
record needs, and one exact pass over θ only when B is not ≤
``DIVERGENCE_LIMIT``; the comment in ``train``'s update says why it
raises where a pass after every update would.
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
    TraceState, _drives, _features, _Features, _log_probs, _near_window, _Scratch, _sigmoid, _SIGNS,
    _trace_step, advance,
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

# The slack of train's bound on max |θ| (see its update): relative, for
# rounding, and absolute, for squares that underflow.
_SLACK, _TINY = 1.0 + 2.0**-30, 2.0**-500

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
        flat = tuple((math.prod(s),) for s in self._shapes)
        return _norm(self._theta, Gradient._wrap(np.empty_like(self._theta), flat))


def _norm(theta: np.ndarray, squares: Gradient) -> float:
    """The one gradient norm: θ squared once, into ``squares``, a gradient
    with flat banks, then summed bank by bank; a single sum over θ would
    round the recorded grad_norm values differently."""
    np.multiply(theta, theta, out=squares._theta)
    a, b, c = squares._banks
    add = np.add.reduce
    return math.sqrt(add(a) + add(b) + add(c))


class _Rows(_Scratch):
    """What one scoring of the rows ``out`` (…, n_params + 1) writes
    through: a ``model._Scratch`` for their states (on ``longer``'s pair
    terms), and the views of ``out`` that ``_grad_logp`` fills, shaped
    like the features: ``r``, ``d_u``, ``d_v`` and ``log_p``."""

    def __init__(self, config: ModelConfig, out: np.ndarray, longer: _Scratch | None = None) -> None:
        super().__init__(config, out.shape[:-1], longer)
        a, b = config.n_units, config.n_units + config.arrays.post_k.size
        self.out, self.r, self.log_p = out, out[..., :a], out[..., -1]
        self.d_u, self.d_v = out[..., a:b].reshape(self.k.shape), out[..., b:-1].reshape(self.l.shape)


class _Workspace:
    """Scratch that one ``train`` call allocates once, for scored blocks of
    at most ``steps`` rows (one for online training), so that no update
    allocates an M- or P-sized temporary: ``rows`` takes the scored rows,
    each a gradient and then log p, through the ``_Rows`` of ``step`` (one
    online step's) or of ``block(n)`` (built once per block length, with one
    pair scratch, the longest block's, for every length); and ``theta``
    takes η·g and then the norm's squares (``squares``)."""

    def __init__(self, config: ModelConfig, steps: int) -> None:
        arr = config.arrays
        self.config, self.blocks = config, {}
        self.rows = np.empty((steps, arr.n_params + 1))
        self.theta = np.empty(arr.n_params)
        self.squares = Gradient._wrap(self.theta, tuple((math.prod(s),) for s in arr.bank_shapes))
        self.step = _Rows(config, self.rows[0])

    def block(self, n: int) -> _Rows:
        longest = None if n == len(self.rows) else self.block(len(self.rows))
        return self.blocks.get(n) or self.blocks.setdefault(n, _Rows(self.config, self.rows[:n], longest))


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


def _grad_logp(
    params: Parameters, config: ModelConfig, f: _Features, out: np.ndarray, work: _Rows | None = None
) -> np.ndarray:
    """The one scorer, of one step or of a block: writes each step's
    gradient, laid out as a ``Gradient.theta``, then its log-probability
    into ``out``, shaped (…, n_params + 1) like ``f.x`` with its last axis
    widened, and returns it. The arithmetic is elementwise per step, so a
    block row is its step scored alone, bit for bit. ``work`` is the
    ``_Rows`` of ``out``, built when None; its pair arrays take the drive's
    pair terms and then the gathers of r, and log p reads ``f.sign``."""
    w, t = work or _Rows(config, out), config.temperature
    z = _drives(params, f, config, w)
    # x / 1.0 is x, so both divisions are skipped at the default temperature:
    # on a model of a few units they are a few percent of a full-batch epoch
    if t != 1.0:
        z /= t
    r = np.subtract(f.x, _sigmoid(z, w), out=w.r)
    if t != 1.0:
        r /= t
    flat = r.ravel()  # the feature indices address the flattened unit axis
    flat.take(f.post_k, None, w.flat_k, "clip")
    np.multiply(f.alpha, w.k, out=w.d_u)
    if f.post_l is not f.post_k:  # else ``w.l`` is ``w.k``
        flat.take(f.post_l, None, w.flat_l, "clip")
    d_v = np.multiply(f.beta, w.l, out=w.d_v)
    np.negative(d_v, out=d_v)  # -(β·r) rounds as (-β)·r does
    flat.take(f.pre_l, None, w.flat_l, "clip")
    d_v -= np.multiply(w.l, f.gamma_post, out=w.l)
    _log_probs(z, f.sign, w, w.log_p)
    return out


def _normalize_series(series, n_units: int) -> np.ndarray:
    """The checked (T, N) int64 array of a non-empty series: its array is
    checked once, and not copied when it is int64 already. Only a series
    that fails that check is walked slice by slice: ``as_time_slice`` names
    its first bad slice (a scalar is one), or reads a generator of slices."""
    try:
        arr = np.asarray(series)
    except ValueError:  # ragged slices make no array; the walk names the bad one
        arr = np.empty(0)
    if arr.ndim == 2 and arr.shape[1] == n_units and ((arr == 0) | (arr == 1)).all():
        slices = arr.astype(np.int64, copy=False)
    else:
        walk = series if np.iterable(series) else [series]
        slices = np.array([as_time_slice(s, n_units) for s in walk], dtype=np.int64)
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
    β size. A state is stepped only when a row reads it. ``extend`` steps a
    series that is written as it is read, a rollout's, one row at a time."""

    def __init__(self, config: ModelConfig, steps: int) -> None:
        arr, n, m, k = config.arrays, config.n_units, config.n_pairs, config.n_lambda
        depth = np.diff(arr.segment_bounds)
        self.head = np.cumsum(depth + steps) - steps
        self.slices = self.head + np.arange(steps)[:, None]
        self.source = np.repeat(self.slices[:, :, None], config.n_mu, axis=2)
        self.arrival = np.tile((self.head.take(arr.pre) - arr.delay + 1)[:, None], k)
        # the history slot of each queue bit: its unit's head less its lag
        queue = np.repeat(self.head + arr.segment_bounds[:-1] - 1, depth) - np.arange(depth.sum())
        at = queue.take(arr.lag_src) if queue.size else np.zeros(1, dtype=np.int64)
        self.slots = at + np.arange(min(steps, max(1, steps * m * config.n_mu // at.size)))[:, None]
        self.w = np.empty(self.slots.shape)
        self.alpha, self.decayed = np.empty((steps + 1, m, k)), np.empty((m, k))
        self.beta, self.gamma_post = np.empty((2, steps, m, config.n_mu))
        self.gamma = np.empty((steps + 1, n, config.n_mu))
        self.history = np.zeros(int(self.head[-1]) + steps)
        self.steps, self.filled, self.index = steps, 0, None
        self.arr = weakref.proxy(arr)  # ``arr`` keeps the idle builder: no cycle to outlive a config

    def rows(self, x, alpha, beta, gamma_post) -> _Features:
        """Features of ``len(x)`` rows and their sign, with the first rows of the raveled bincount
        indices of C rows, N apart, made on first use (online training reads its rows with the config's)."""
        if self.index is None:
            offset = self.gamma.shape[1] * np.arange(self.steps)[:, None]
            post_k, post_l, pre_l = self.arr.pair_units
            k = post_k + offset
            self.index = k, k if post_l is post_k else post_l + offset, pre_l + offset
        k, l, p = (a[: len(x)].ravel() for a in self.index)
        l = k if self.index[1] is self.index[0] else l
        return _Features(x, _SIGNS.take(x), alpha, beta, gamma_post, k, l, p)

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


@contextmanager
def _builder(config: ModelConfig, steps: int) -> Iterator[_TraceBuilder]:
    """A ``_TraceBuilder`` of chunk length ``steps`` for the block. Fresh buffers cost a page
    fault at every first touch, so one idle builder per length is kept in ``config.arrays``;
    a nested or concurrent use (``dict.pop`` is atomic) makes its own."""
    idle = config.arrays.trace_builders
    builder = idle.pop(steps, None) or _TraceBuilder(config, steps)
    yield builder
    idle.setdefault(steps, builder)


def _blocks(config: ModelConfig, series_list: list[np.ndarray], max_steps: int) -> Iterator[_Features]:
    """Each series in turn, as one stream of fresh feature blocks of at most
    ``max_steps`` (series, step) rows in dataset order, copied from a
    ``_TraceBuilder`` of that chunk length, each with its sign; they cross
    series ends, and one is held at a time."""
    left, i = sum(map(len, series_list)), 0
    with _builder(config, max_steps) as builder:
        for slices in series_list:
            start = 0
            while start < len(slices):
                if i == 0:
                    n = min(max_steps, left)
                    like = (slices, builder.alpha, builder.beta, builder.gamma_post)
                    block = [np.empty((n, *a.shape[1:]), a.dtype) for a in like]
                stop = min(len(slices), start + n - i)
                for a, b in zip(block, builder.fill(slices, start, stop, stop < len(slices))):
                    a[i : i + stop - start] = b
                i, left, start = i + stop - start, left - (stop - start), stop
                if i == n:
                    yield builder.rows(*block)
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
            w = _Scratch(config, f.x.shape[:1])
            z = _drives(params, f, config, w)
            if config.temperature != 1.0:  # x / 1.0 is x
                z /= config.temperature  # as z / temperature rounds
            correct += int(np.count_nonzero((_sigmoid(z, w) > 0.5) == f.x))
            total = _add_in_order(_log_probs(z, f.sign, w), total)
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
    steps = _block_steps(config, len(slices))
    blocks = _blocks(config, [slices], steps)
    return _sequence_grad_ll(params, config, blocks, _Workspace(config, min(steps, len(slices))))[0]


def _sequence_grad_ll(
    params: Parameters,
    config: ModelConfig,
    blocks: Iterable[_Features],
    work: _Workspace,
    step_nll: list[float] | None = None,
) -> tuple[Gradient, float]:
    """``_summed_row``'s gradient, as a ``Gradient``, and its log-likelihood."""
    total = _summed_row(params, config, blocks, work, step_nll)
    return Gradient._wrap(total[:-1], config.arrays.bank_shapes), float(total[-1])


def _summed_row(params: Parameters, config: ModelConfig, blocks, work: _Workspace, step_nll=None) -> np.ndarray:
    """Gradient and log-likelihood of a dataset from its block stream, as
    one row laid out like a scored row, both added one step at a time in
    dataset order, the order an online epoch adds its steps in, so the
    log-likelihood is the in-order sum of the per-step NLLs appended to
    ``step_nll``. Each block, of at most the workspace's rows, is scored
    in ``work``."""
    total = np.zeros(config.arrays.n_params + 1)
    for block in blocks:
        scored = work.block(len(block.x))
        rows = _grad_logp(params, config, block, scored.out, scored)
        if step_nll is not None:
            step_nll.extend((-rows[:, -1]).tolist())
        total = _add_in_order(rows, total)
    return total


def sgd_update(params: Parameters, grad: Gradient, learning_rate: float) -> Parameters:
    """One ascent step: new parameters, ``params`` plus learning_rate times
    gradient; ``params`` is left as it was. A non-finite result raises."""
    if grad.shapes != params.shapes:
        raise ValueError("gradient shape does not match parameters")
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked below
        out = Parameters._wrap(params.theta + learning_rate * grad.theta, params.shapes)
    name = out._non_finite_bank()
    if name is not None:
        raise ValueError(f"update produced non-finite {name}")
    return out


def _check_guard(params: Parameters, epoch: int, step: int) -> None:
    """Raise ``TrainingDiverged`` naming the first bank whose magnitude is
    not ≤ ``DIVERGENCE_LIMIT``, if any."""
    for name, bank in zip(params.names, params.banks):
        worst = float(np.abs(bank).max(initial=0.0))
        if not worst <= DIVERGENCE_LIMIT:  # also catches nan and inf
            raise TrainingDiverged(
                f"parameter {name} reached magnitude {worst:.3e} "
                f"at epoch {epoch}, step {step}; training aborted",
                epoch=epoch,
                step=step,
            )


def _exact_guard(params: Parameters, epoch: int, step: int) -> float:
    """The exact divergence check, one pass over θ: max |θ|, or
    ``TrainingDiverged`` when that is not ≤ ``DIVERGENCE_LIMIT``, naming a
    non-finite bank first and then the first bank past the limit."""
    worst = float(np.abs(params.theta).max(initial=0.0))
    if not worst <= DIVERGENCE_LIMIT:
        name = params._non_finite_bank()
        if name is not None:
            raise TrainingDiverged(
                f"update produced non-finite {name} at epoch {epoch}, step {step}; "
                "training aborted", epoch, step
            )
        _check_guard(params, epoch, step)
    return worst


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

    # full-batch blocks are built once and kept when the dataset's features fit
    steps = sum(map(len, series_list))
    max_steps = _block_steps(config, steps)
    fits = trainer.mode == "full_batch" and steps * _step_bytes(config) <= _FEATURE_BYTES
    kept = list(_blocks(config, series_list, max_steps)) if fits else None
    arr, rate, eta = config.arrays, trainer.learning_rate, np.array(trainer.learning_rate)
    work = _Workspace(config, min(max_steps, steps) if trainer.mode == "full_batch" else 1)  # the longest block
    bound = float(np.abs(params.theta).max(initial=0.0))  # of max |θ|; see update
    theta, squares = params.theta, work.squares

    def update(g: np.ndarray, log_likelihood: float, epoch: int, step: int) -> None:
        # sgd_update's add, θ + η·g, in place, with η·g in the workspace,
        # whose next use holds the norm's squares. The guard runs its exact
        # pass over θ (_exact_guard) only when the running bound B on max |θ|
        # is not ≤ DIVERGENCE_LIMIT, and then resets B to max |θ|; so it
        # raises at the same update as a pass after every update would:
        #   max |θ'| ≤ (max |θ| + η·max |g|)(1 + 2u) and max |g| ≤ ‖g‖₂,
        # with u = 2⁻⁵³. A float sum of non-negative squares is at least its
        # largest term, so the computed ‖g‖ falls short of max |g| by a few
        # roundings at most, which the relative slack 2⁻³⁰ covers with those
        # of the update and of B's own arithmetic; the absolute slack 2⁻⁵⁰⁰
        # covers squares that underflow (|g| < 2⁻⁵¹¹). A NaN or infinity in g
        # makes ‖g‖, and so B, non-finite, which forces the exact pass.
        nonlocal bound
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(theta, np.multiply(g, eta, out=work.theta), out=theta)  # 0-d η: a float converts per call
            gnorm = _norm(g, squares)
        bound = (bound + rate * (gnorm + _TINY)) * _SLACK
        if not bound <= DIVERGENCE_LIMIT:
            bound = _exact_guard(params, epoch, step)
            if not math.isfinite(gnorm):  # warn of an overflowed norm as the unguarded one does
                gnorm = _norm(g, squares)
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

    step, f = work.step, _Features(None, None, None, None, None, *arr.pair_units)
    row, g = step.out, step.out[:-1]  # one online step's gradient, then log p
    global_step = 0
    with _builder(config, max_steps) if trainer.mode == "online" else nullcontext() as builder:
        for epoch in range(trainer.epochs):
            epoch_ll = 0.0
            if trainer.mode == "full_batch":
                blocks = kept or _blocks(config, series_list, max_steps)
                total = _summed_row(params, config, blocks, work, metrics.step_nll)
                epoch_ll, global_step = float(total[-1]), global_step + steps
                update(total[:-1], epoch_ll, epoch, global_step)
            else:
                order = list(range(len(series_list)))
                if rng is not None:
                    rng.shuffle(order)
                for series_idx in order:
                    for x, *traces in builder.chunks(series_list[series_idx]):
                        for f.x, f.sign, f.alpha, f.beta, f.gamma_post in zip(x, _SIGNS.take(x), *traces):
                            _grad_logp(params, config, f, row, step)
                            log_p = float(row[-1])
                            global_step += 1
                            update(g, log_p, epoch, global_step)
                            epoch_ll += log_p
                            metrics.step_nll.append(-log_p)
            metrics.epoch_log_likelihood.append(epoch_ll)
    metrics.wall_ms = elapsed_ms()
    return params, metrics
