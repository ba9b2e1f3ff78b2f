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

import math
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
    pair delays or when two rows from one unit disagree (``_join_rows``)."""
    lengths = [len(row) for row in rows]
    if lengths != [d - 1 for d in config.arrays.delay.tolist()]:
        raise ValueError("queue rows do not match the pair delays")
    queue, fault = _join_rows(config, np.array([bit for row in rows for bit in row], dtype=np.uint8))
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
    """What the conditional of the next slice ``x`` reads of one state, or
    of T states stacked on a leading step axis: the arrival traces
    ``alpha`` (…, M, K), the near-window traces ``beta`` (…, M, L) and the
    source traces of each pair's target ``gamma_post`` (…, M, L); ``x`` is
    None when only the drive is wanted. ``post_k``, ``post_l`` and
    ``pre_l`` give each pair term's unit in the flattened (…, N) unit axis,
    offset by ``t * N`` for step ``t``, so one bincount sums every step's
    pair terms into that step's units."""

    x: np.ndarray | None
    alpha: np.ndarray
    beta: np.ndarray
    gamma_post: np.ndarray
    post_k: np.ndarray
    post_l: np.ndarray
    pre_l: np.ndarray


def _features(state: TraceState, config: ModelConfig, x: np.ndarray | None = None) -> _Features:
    """Features of one state: its own ``alpha``, its near-window trace
    computed once, and ``config.arrays``' pair-to-unit indices."""
    arr = config.arrays
    b = _beta_matrix(state, config)
    gamma_post = state.gamma.take(arr.gamma_post)
    return _Features(x, state.alpha, b, gamma_post, arr.post_k, arr.post_l, arr.pre_l)


def _drives(
    params: Parameters, f: _Features, config: ModelConfig, work: tuple | None = None
) -> np.ndarray:
    """Per-unit input drive of every state in ``f``: bias plus the
    trace-weighted pair terms.

    drive[j] = bias[j] + sum over incoming pairs (u . alpha - v . beta)
    minus, for each outgoing pair (j, i), v[(j, i)] . gamma[i]. The energy
    of firing is minus the drive; staying silent always has energy zero.
    The sums are taken over the flattened unit axis and subtracted in
    place, which rounds as ``bias + a - b - c`` does. The pair terms are
    written into ``work``, two scratch arrays shaped like ``f.alpha`` and
    ``f.beta``, or into fresh arrays when it is None; the drive is a new
    array.
    """
    shape = f.alpha.shape[:-2] + (config.n_units,)
    size = math.prod(shape)
    u_alpha, v_beta = work or (None, None)

    def units(index: np.ndarray, terms: np.ndarray) -> np.ndarray:
        return np.bincount(index.ravel(), weights=terms.ravel(), minlength=size)

    drive = params.bias + units(f.post_k, np.multiply(params.u, f.alpha, out=u_alpha)).reshape(shape)
    flat = drive.reshape(size)
    flat -= units(f.post_l, np.multiply(params.v, f.beta, out=v_beta))
    flat -= units(f.pre_l, np.multiply(params.v, f.gamma_post, out=v_beta))
    return drive


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


def _sigmoid(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, evaluated through ``e`` = exp(-|z|) (computed
    when not given) so that no branch can overflow."""
    e = np.exp(-np.abs(z)) if e is None else e
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _log_probs(z: np.ndarray, x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """Log-probability of the 0/1 slice ``x`` when each unit fires with
    logit ``z``: a sum over the last (unit) axis, one per slice stacked on
    leading axes, of log(sigmoid(±z)) = min(±z, 0) - log(1 + e), which is
    overflow-free; ``e`` = exp(-|z|) is computed when not given."""
    e = np.exp(-np.abs(z)) if e is None else e
    return (np.minimum(np.where(x == 1, z, -z), 0.0) - np.log1p(e)).sum(axis=-1)


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
    x = as_time_slice(slice_values, config.n_units)
    log_p = float(_log_probs(_drives(params, _features(state, config), config) / config.temperature, x))
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
