"""Trace state and the per-step conditional distribution.

State carried between time steps, per model:

* ``alpha[m, k]``: arrived-spike trace of pair ``m = (i, j)``. Every spike
  of unit ``i`` enters with weight 1 the moment it has crossed the pair's
  delay, then decays by ``lambdas[k]`` each step.
* ``gamma[i, l]``: source trace of unit ``i``. Each spike enters with weight
  ``mus[l]`` and decays by ``mus[l]`` each step.
* ``queue``: the spikes still in transit on every delay line, as one flat
  ``uint8`` array. Every pair from unit ``i`` queues a prefix of the same
  history of ``i``, so it is stored once: unit ``i`` owns one contiguous
  segment of its last (longest delay from ``i``) - 1 values, newest
  first. ``config.arrays`` holds the segment offsets, and ``queue_rows``
  / ``pack_queue_rows`` convert to and from the per-pair rows of the
  paper's per-connection queues, each a prefix of its source's segment.

One step shifts the whole flat array by one position, writes each
segment's newest bit (which also overwrites the one bit that crossed each
segment boundary) and reads bit ``d - 2`` of the source's segment as the
arrival on a pair of delay ``d``.

The near-window trace ``beta[m, l]`` is derived from the queue on every
step, never carried recursively: carrying it forward would repeatedly
multiply by ``1/mu`` and is numerically unstable. One kernel,
``_near_window``, sums it for one state here and for a chunk of a known
series in ``learning``'s trace builder. The coefficients grow toward the
delay horizon on purpose (they mirror the near side of the weight
kernel); the configuration validator bounds their sum.

The next slice's conditional reads a state only through its features
(``_Features``). One state's features and a stack of T states' go through
the same drive, which firing probabilities, energies and learning share.

``advance`` returns a fresh state and leaves its input untouched, so
snapshots can be read concurrently and compared. ``advance`` and
``_beta_matrix`` serve the public single-state API only: the package's own
passes (training, scoring and rollouts, generated slices included) step
``learning``'s trace builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, Parameters, as_time_slice

__all__ = [
    "TraceState",
    "Footprint",
    "init_state",
    "advance",
    "beta",
    "queue_rows",
    "pack_queue_rows",
    "unit_energy",
    "fire_prob",
    "fire_probs",
    "cond_prob",
    "expected_footprint",
    "measured_footprint",
]


@dataclass(eq=False)
class TraceState:
    """Everything the model remembers about the past.

    ``queue`` is the flat ``uint8`` array of in-transit bits described in
    the module docstring, one segment per source unit, so every pair from
    one unit reads the same history of it. ``step_count`` counts absorbed
    slices. States compare and hash by identity, as their fields are
    arrays.
    """

    alpha: np.ndarray
    gamma: np.ndarray
    queue: np.ndarray
    step_count: int = 0

    def copy(self) -> "TraceState":
        return TraceState(
            self.alpha.copy(), self.gamma.copy(), self.queue.copy(), self.step_count
        )


def queue_rows(config: ModelConfig, queue: np.ndarray) -> list[list[int]]:
    """Per-pair view of a flat queue: row ``m`` holds pair ``m``'s last
    ``d - 1`` source values, newest first, the head of its source's
    segment (empty for delay 1)."""
    arr = config.arrays
    starts = arr.segment_bounds.take(arr.pre).tolist()
    return [queue[s : s + d - 1].tolist() for s, d in zip(starts, arr.delay.tolist())]


def pack_queue_rows(config: ModelConfig, rows) -> np.ndarray:
    """Flat queue from per-pair rows in ``config.pairs`` order; the inverse
    of ``queue_rows``. Raises ValueError when the rows do not match the
    pair delays, when a bit is not 0 or 1, or when two rows from one unit
    disagree (``_join_rows``)."""
    lengths = [len(row) for row in rows]
    if lengths != [d - 1 for d in config.arrays.delay.tolist()]:
        raise ValueError("queue rows do not match the pair delays")
    bits = np.array([bit for row in rows for bit in row])
    bad = np.flatnonzero((bits != 0) & (bits != 1))
    if bad.size:
        m = np.searchsorted(np.cumsum(lengths), bad[0], side="right")
        raise ValueError(f"pair {config.pairs[m]}: queue bits must be 0 or 1")
    queue, fault = _join_rows(config, bits.astype(np.uint8))
    if fault is not None:
        raise ValueError(fault)
    return queue


def _join_rows(config: ModelConfig, bits: np.ndarray) -> tuple[np.ndarray, str | None]:
    """The flat queue of per-pair rows, each pair's ``d - 1`` bits in pair
    order in ``bits``: each unit's segment is its first longest row. With
    it, the message for the first pair whose row is not a prefix of that
    one, or None when every row is."""
    arr = config.arrays
    lengths = arr.delay - 1
    shift = arr.segment_bounds.take(arr.pre) - np.cumsum(lengths) + lengths
    at = np.arange(bits.size) + np.repeat(shift, lengths)  # the queue position of each bit
    longest = np.repeat(lengths == np.diff(arr.segment_bounds).take(arr.pre), lengths)
    queue = bits[longest][np.unique(at[longest], return_index=True)[1]]
    differs = bits != queue.take(at)
    if not differs.any():
        return queue, None
    m = np.searchsorted(np.cumsum(lengths), differs.argmax(), side="right")
    i, j = int(arr.pre[m]), int(arr.post[m])
    return queue, (
        f"pair ({i}, {j}) disagrees with another queue from unit {i}; every queue "
        "from one unit holds a prefix of the same history"
    )


@dataclass(frozen=True)
class Footprint:
    """Stored-size audit: trace reals, queue bits, parameter reals."""

    trace_scalars: int
    queue_bits: int
    param_scalars: int


def init_state(config: ModelConfig) -> TraceState:
    """Fresh state, equivalent to an infinite all-zero history."""
    return TraceState(
        alpha=np.zeros((config.n_pairs, config.n_lambda)),
        gamma=np.zeros((config.n_units, config.n_mu)),
        queue=np.zeros(int(config.arrays.segment_bounds[-1]), dtype=np.uint8),
        step_count=0,
    )


def advance(state: TraceState, config: ModelConfig, new_slice) -> TraceState:
    """Absorb one observed slice and return the successor state; ``state``
    is left as it was.

    For each pair, the element leaving the queue (the spike that has just
    finished crossing the delay; the slice itself when the delay is 1)
    enters the arrival trace with coefficient 1 after the old trace has
    decayed. Source traces decay and absorb the new slice in one step.
    """
    x = as_time_slice(new_slice, config.n_units).astype(np.uint8)  # the queue dtype: no cast on writes
    out, arr = state.copy(), config.arrays
    arrived = np.concatenate((x, out.queue)).take(arr.arrival_k)  # before the shift
    out.queue[1:] = out.queue[:-1]
    out.queue[arr.segment_head] = x.take(arr.segment_unit)
    _trace_step(arr, out.alpha, out.gamma, arrived, x[:, None], out.alpha, out.gamma, out.alpha)
    out.step_count += 1
    return out


def _trace_step(arr, alpha, gamma, arrived, x, alpha_out, gamma_out, decayed) -> None:
    """The α/γ step of ``advance`` and ``learning._TraceBuilder``: α × lam_k (into ``decayed``)
    + arrived into ``alpha_out``, (γ + x) × mu into ``gamma_out``; outputs may be inputs."""
    np.multiply(alpha, arr.lam_k, out=decayed)
    np.add(decayed, arrived, out=alpha_out)
    np.add(gamma, x, out=gamma_out)
    gamma_out *= arr.mu_l


def _beta_matrix(state: TraceState, config: ModelConfig) -> np.ndarray:
    """Near-window traces for all pairs, shape (n_pairs, n_mu); computed
    fresh from the queue on every call (``_near_window``)."""
    arr = config.arrays
    if not state.queue.size:
        return np.zeros((config.n_pairs, config.n_mu))
    return _near_window(arr.lag_coeff * state.queue.take(arr.lag_src), arr)


def _near_window(w: np.ndarray, arr, out: np.ndarray | None = None) -> np.ndarray:
    """Near-window traces from the weighted lag terms ``w``, the bit at each
    slot of ``arr.lag_src`` times ``arr.lag_coeff``: (n_pairs, n_mu) from
    one state's (slots,), or (R, n_pairs, n_mu) from R states' (R, slots),
    into ``out`` when given. Each block of ``arr.lag_runs`` is summed in
    place along its lags, in lag order, by row adds or one accumulate, and
    pair (i, j) with delay d reads the partial sum of source i after lag
    d - 1 (``arr.beta_at``): the same terms added in the same order as a sum
    over the pair's own queue. Delay-1 pairs read the zero in the last
    slot. Each unit's history is queued once (``TraceState``), so the work
    is fewer than twice the distinct (unit, lag, rate) terms, a few calls
    per block and one gather per pair and rate."""
    for lo, hi, shape, accumulates in arr.lag_runs:
        run = w.T[lo:hi].reshape(*shape, -1)  # (lags, width, R): a lag is one plain index
        if accumulates:
            np.add.accumulate(run, axis=0, out=run)
        else:
            for s in range(1, shape[0]):
                np.add(run[s - 1], run[s], out=run[s])
    return w.take(arr.beta_at, -1, out, "clip")  # keywords cost more than this gather at N = 3


def _check_index(kind: str, index: int, size: int) -> None:
    if not 0 <= index < size:
        raise IndexError(f"{kind} index {index} out of range")


def beta(state: TraceState, config: ModelConfig, i: int, j: int, ell: int) -> float:
    """Near-window trace of pair (i, j) for decay rate index ``ell``:
    sum over lag s in [1, d-1] of mus[ell]**(-s) * x_i[t - s], unit i's
    value s steps back, read from unit i's queue segment."""
    try:
        m = config.pair_index[(i, j)]
    except KeyError:
        raise ValueError(f"pair ({i}, {j}) is not connected") from None
    _check_index("rate", ell, config.n_mu)
    return float(_beta_matrix(state, config)[m, ell])


@dataclass(eq=False)
class _Features:
    """What the conditional of the next slice ``x`` reads of one state, or of
    T states stacked on a leading step axis: the arrival traces ``alpha``
    (…, M, K), the near-window traces ``beta`` (…, M, L) and the source
    traces of each pair's target ``gamma_post`` (…, M, L). ``x`` and its
    ``sign`` (2x − 1 as ±1.0, which log p reads) are None when only the
    drive is wanted. ``post_k``, ``post_l`` and ``pre_l``, raveled, give
    each pair term's unit in the flattened (…, N) unit axis, offset by
    ``t * N`` for step ``t``, so one bincount sums every step's pair terms
    into that step's units; one record serves all the steps of online
    training or of a rollout, re-pointed at each."""

    x: np.ndarray | None
    sign: np.ndarray | None
    alpha: np.ndarray
    beta: np.ndarray
    gamma_post: np.ndarray
    post_k: np.ndarray
    post_l: np.ndarray
    pre_l: np.ndarray


class _Scratch:
    """What the drive of the states stacked on ``lead`` and its logistic
    write through, built once for many calls: the pair terms ``k`` and
    ``l``, shaped like α and β (one array when they have one shape, the
    leading rows of ``longer``'s when given; ``flat_k`` and ``flat_l``
    raveled), the drive ``z`` (``flat_z`` raveled), and ``e``, ``e1`` and
    ``p`` (then the log-prob terms), shaped like it."""

    def __init__(self, config: ModelConfig, lead: tuple = (), longer: "_Scratch | None" = None) -> None:
        arr = config.arrays
        if longer is None:
            self.k = np.empty(lead + arr.post_k.shape)
            self.l = self.k if arr.post_l is arr.post_k else np.empty(lead + arr.post_l.shape)
        else:  # views of one memory when ``longer``'s are
            self.k, self.l = longer.k[: lead[0]], longer.l[: lead[0]]
        self.flat_k, self.flat_l = self.k.reshape(-1), self.l.reshape(-1)
        self.shape = lead + (config.n_units,)
        self.z, self.e, self.e1, self.p = np.empty((4, *self.shape))
        self.flat_z, self.size = self.z.reshape(-1), self.z.size


def _features(state: TraceState, config: ModelConfig, x: np.ndarray | None = None) -> _Features:
    """Features of one state: its own ``alpha``, its near-window trace
    computed once, and ``config.arrays``' pair-to-unit indices."""
    arr, sign = config.arrays, None if x is None else _SIGNS.take(x)
    b = _beta_matrix(state, config)
    return _Features(x, sign, state.alpha, b, state.gamma.take(arr.gamma_post), *arr.pair_units)


def _drives(
    params: Parameters, f: _Features, config: ModelConfig, work: _Scratch | None = None
) -> np.ndarray:
    """Per-unit input drive of every state in ``f``: bias plus the
    trace-weighted pair terms.

    drive[j] = bias[j] + sum over incoming pairs (u . alpha - v . beta)
    minus, for each outgoing pair (j, i), v[(j, i)] . gamma[i]. The energy
    of firing is minus the drive; staying silent always has energy zero.
    The sums are taken over the flattened unit axis and subtracted in
    place, which rounds as ``bias + a - b - c`` does. The pair terms and
    the drive are written into ``work``, a ``_Scratch`` for the states of
    ``f`` (a fresh one when None), and the drive is returned.
    """
    w, (bias, u, v) = work or _Scratch(config, f.alpha.shape[:-2]), params._banks
    np.multiply(u, f.alpha, out=w.k)
    z, flat = np.add(bias, np.bincount(f.post_k, w.flat_k, w.size).reshape(w.shape), out=w.z), w.flat_z
    np.multiply(v, f.beta, out=w.l)
    flat -= np.bincount(f.post_l, w.flat_l, w.size)
    np.multiply(v, f.gamma_post, out=w.l)
    flat -= np.bincount(f.pre_l, w.flat_l, w.size)
    return z


def unit_energy(
    params: Parameters, state: TraceState, config: ModelConfig, j: int, x_j: int
) -> float:
    """Energy contribution of unit ``j`` taking value ``x_j`` next step."""
    if x_j not in (0, 1):
        raise ValueError(f"x_j must be 0 or 1, got {x_j!r}")
    _check_index("unit", j, config.n_units)
    if x_j == 0:
        return 0.0
    return float(-_drives(params, _features(state, config), config)[j])


_ZERO, _ONE, _MINUS = np.array(0.0), np.array(1.0), np.array(-1.0)  # 0-d: a float converts per call
_SIGNS = np.array([-1.0, 1.0])  # 2x - 1 at x = 0 and 1: a 0/1 slice's sign is _SIGNS.take(x)


def _sigmoid(z: np.ndarray, work: _Scratch | None = None) -> np.ndarray:
    """Logistic function of ``z`` into ``work.p``, through ``work.e`` =
    exp(-|z|) and ``work.e1`` = 1 + e (fresh arrays when ``work`` is None),
    so that no branch can overflow: where(z >= 0, 1, e) / (1 + e), with the
    numerator taken as max(e, [z >= 0]), since e is at most 1."""
    e, e1, p = np.empty((3, *z.shape)) if work is None else (work.e, work.e1, work.p)
    np.exp(np.copysign(z, _MINUS, out=e), out=e)  # copysign(z, -1) is -|z|
    np.maximum(e, np.heaviside(z, _ONE, out=p), out=p)  # heaviside: 1 where z >= 0, else 0
    return np.divide(p, np.add(e, _ONE, out=e1), out=p)


def _log_probs(z: np.ndarray, sign: np.ndarray, work: _Scratch, out: np.ndarray | None = None) -> np.ndarray:
    """Log-probability of the 0/1 slice x of ``sign`` s = 2x - 1 (±1.0)
    when each unit fires with logit ``z``, into ``out`` when given: a sum
    over the last (unit) axis, one per slice stacked on leading axes, of
    log(sigmoid(z·s)) = min(z·s, 0) - log(1 + e), which is overflow-free;
    z·s is z or -z exactly, ±0 and ±inf included. ``work.e`` = exp(-|z|) is
    the one ``_sigmoid(z, work)`` left there; the terms take ``work.p``."""
    terms = np.multiply(z, sign, out=work.p)
    np.minimum(terms, _ZERO, out=terms)
    terms -= np.log1p(work.e, out=work.e1)
    return np.add.reduce(terms, -1, None, out)


def fire_probs(params: Parameters, state: TraceState, config: ModelConfig) -> np.ndarray:
    """Probability that each unit fires next step, given the state."""
    return _sigmoid(_drives(params, _features(state, config), config) / config.temperature)


def fire_prob(params: Parameters, state: TraceState, config: ModelConfig, j: int) -> float:
    """Single-unit firing probability; sigmoid of drive over temperature,
    evaluated with the sign-branched form so large drives cannot overflow."""
    _check_index("unit", j, config.n_units)
    return float(fire_probs(params, state, config)[j])


def cond_prob(
    params: Parameters, state: TraceState, config: ModelConfig, slice_values
) -> tuple[float, float]:
    """Probability of one full next slice, and its log.

    Units are conditionally independent given the state, so the result is a
    product of per-unit firing (or silence) probabilities. The log form is
    the numerically safe one; the plain probability may underflow to 0 for
    wide networks, which is why both are returned.
    """
    x, work = as_time_slice(slice_values, config.n_units), _Scratch(config)
    z = _drives(params, _features(state, config), config, work) / config.temperature
    _sigmoid(z, work)
    log_p = float(_log_probs(z, _SIGNS.take(x), work))
    return float(np.exp(log_p)), log_p


def expected_footprint(config: ModelConfig) -> Footprint:
    """Storage the model is allowed: one trace real per (pair, arrival rate)
    plus one per (unit, source rate); (longest delay - 1) queue bits per
    source unit, its history still in transit on its longest pair (the
    largest delay, sorted last, wins); one parameter real per bias and per
    pair-rate coefficient."""
    m = config.n_pairs
    longest = {i: d for (i, _), d in sorted(config.delays.items(), key=lambda item: item[1])}
    return Footprint(
        trace_scalars=m * config.n_lambda + config.n_units * config.n_mu,
        queue_bits=sum(longest.values()) - len(longest),
        param_scalars=config.n_units + m * (config.n_lambda + config.n_mu),
    )


def measured_footprint(state: TraceState, params: Parameters) -> Footprint:
    """Storage actually held by a state/parameter pair."""
    return Footprint(
        trace_scalars=state.alpha.size + state.gamma.size,
        queue_bits=state.queue.size,
        param_scalars=params.theta.size,
    )
