"""Trace state and the per-step conditional distribution.

State carried between time steps, per model:

* ``alpha[m, k]``: arrived-spike trace of pair ``m = (i, j)``. Every spike
  of unit ``i`` enters with weight 1 the moment it has crossed the pair's
  delay, then decays by ``lambdas[k]`` each step.
* ``gamma[i, l]``: source trace of unit ``i``. Each spike enters with weight
  ``mus[l]`` and decays by ``mus[l]`` each step.
* ``queue``: the spikes still in transit on every delay line, as one flat
  ``uint8`` array of length sum(d - 1). Pair ``m`` owns one contiguous
  segment holding the last ``d - 1`` values of its source unit, newest
  first; delay-1 pairs own none. ``config.arrays`` holds the segment
  offsets, and ``queue_rows`` / ``pack_queue_rows`` convert to and from
  per-pair lists.

One step shifts the whole flat array by one position, writes each
segment's newest bit (which also overwrites the one bit that crossed each
segment boundary) and reads each segment's oldest bit as the arrival.

The near-window trace ``beta[m, l]`` is derived from the queue on every
step, never carried recursively: carrying it forward would repeatedly
multiply by ``1/mu`` and is numerically unstable. It is one segmented sum
of queue bits times the precomputed ``mu**(-lag)`` table. The coefficients
grow toward the delay horizon on purpose (they mirror the near side of the
weight kernel); the configuration validator bounds their sum.

All update functions are pure: ``advance`` returns a fresh state and leaves
its input untouched, so snapshots can be read concurrently and compared.
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


@dataclass
class TraceState:
    """Everything the model remembers about the past.

    ``queue`` is the flat ``uint8`` array of in-transit bits described in
    the module docstring. ``step_count`` counts absorbed slices.
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
    """Per-pair view of a flat queue: row ``m`` holds pair ``m``'s bits,
    newest first (empty for delay 1)."""
    bounds = config.arrays.queue_bounds
    return [queue[bounds[m] : bounds[m + 1]].tolist() for m in range(config.n_pairs)]


def pack_queue_rows(config: ModelConfig, rows) -> np.ndarray:
    """Flat queue from per-pair rows in ``config.pairs`` order; the inverse
    of ``queue_rows``."""
    lengths = [len(row) for row in rows]
    if lengths != [d - 1 for d in config.arrays.delay.tolist()]:
        raise ValueError("queue rows do not match the pair delays")
    return np.array([bit for row in rows for bit in row], dtype=np.uint8)


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
        queue=np.zeros(int(config.arrays.queue_bounds[-1]), dtype=np.uint8),
        step_count=0,
    )


def advance(state: TraceState, config: ModelConfig, new_slice) -> TraceState:
    """Absorb one observed slice and return the successor state.

    For each pair, the element leaving the queue (the spike that has just
    finished crossing the delay; the slice itself when the delay is 1)
    enters the arrival trace with coefficient 1 after the old trace has
    decayed. Source traces decay and absorb the new slice in one step.
    """
    x = as_time_slice(new_slice, config.n_units)
    arr = config.arrays
    old = state.queue
    queue = np.empty_like(old)
    queue[1:] = old[:-1]
    queue[arr.queue_start] = x[arr.queue_pre]
    arrived = np.concatenate((x, old))[arr.arrival_k]
    alpha = state.alpha * arr.lam_k + arrived
    gamma = (state.gamma + x[:, None].astype(np.float64)) * arr.mu[None, :]
    return TraceState(alpha, gamma, queue, state.step_count + 1)


def _to_units(index: np.ndarray, terms: np.ndarray, n_units: int) -> np.ndarray:
    """Sum ``terms`` into per-unit totals by the unit in ``index``."""
    return np.bincount(index.ravel(), weights=terms.ravel(), minlength=n_units)


def _beta_matrix(state: TraceState, config: ModelConfig) -> np.ndarray:
    """Near-window traces for all pairs, shape (n_pairs, n_mu); computed
    fresh from the queue on every call as one segmented sum over the flat
    queue (delay-1 pairs own no bits and get zero)."""
    arr = config.arrays
    weighted = arr.beta_coeff * state.queue
    size = config.n_pairs * config.n_mu
    b = np.bincount(arr.beta_bin.ravel(), weights=weighted.ravel(), minlength=size)
    # bincount returns integers when there is nothing to sum
    return b.astype(np.float64, copy=False).reshape(config.n_pairs, config.n_mu)


def beta(state: TraceState, config: ModelConfig, i: int, j: int, ell: int) -> float:
    """Near-window trace of pair (i, j) for decay rate index ``ell``:
    sum over lag s in [1, d-1] of mus[ell]**(-s) * queue[s - 1]."""
    try:
        m = config.pair_index[(i, j)]
    except KeyError:
        raise ValueError(f"pair ({i}, {j}) is not connected") from None
    arr = config.arrays
    lo, hi = arr.queue_bounds[m], arr.queue_bounds[m + 1]
    if lo == hi:
        return 0.0
    return float(arr.beta_coeff[ell, lo:hi] @ state.queue[lo:hi].astype(np.float64))


def _drives(
    params: Parameters, state: TraceState, config: ModelConfig, b: np.ndarray
) -> np.ndarray:
    """Per-unit input drive: bias plus the trace-weighted pair terms.

    drive[j] = bias[j] + sum over incoming pairs (u . alpha - v . beta)
    minus, for each outgoing pair (j, i), v[(j, i)] . gamma[i]. The energy
    of firing is minus the drive; staying silent always has energy zero.
    ``b`` is the near-window trace from ``_beta_matrix`` for this state.
    """
    arr = config.arrays
    n = config.n_units
    gamma_post = state.gamma.ravel()[arr.gamma_post]
    return (
        params.bias
        + _to_units(arr.post_k, params.u * state.alpha, n)
        - _to_units(arr.post_l, params.v * b, n)
        - _to_units(arr.pre_l, params.v * gamma_post, n)
    )


def _scaled_drives(params: Parameters, state: TraceState, config: ModelConfig) -> np.ndarray:
    """Drive over temperature: the logit of each unit's firing probability."""
    return _drives(params, state, config, _beta_matrix(state, config)) / config.temperature


def unit_energy(
    params: Parameters, state: TraceState, config: ModelConfig, j: int, x_j: int
) -> float:
    """Energy contribution of unit ``j`` taking value ``x_j`` next step."""
    if x_j not in (0, 1):
        raise ValueError(f"x_j must be 0 or 1, got {x_j!r}")
    if x_j == 0:
        return 0.0
    return float(-_drives(params, state, config, _beta_matrix(state, config))[j])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated through exp(-|z|) so that no branch
    can overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log_sigmoid(z: np.ndarray) -> np.ndarray:
    """log(sigmoid(z)) = min(z, 0) - log(1 + exp(-|z|)), overflow-free."""
    return np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))


def _log_prob(z: np.ndarray, x: np.ndarray) -> float:
    """Log-probability of the 0/1 slice ``x`` when each unit fires with
    logit ``z``; units are independent, so it is a sum over units."""
    return float(_log_sigmoid(np.where(x == 1, z, -z)).sum())


def fire_probs(params: Parameters, state: TraceState, config: ModelConfig) -> np.ndarray:
    """Probability that each unit fires next step, given the state."""
    return _sigmoid(_scaled_drives(params, state, config))


def fire_prob(params: Parameters, state: TraceState, config: ModelConfig, j: int) -> float:
    """Single-unit firing probability; sigmoid of drive over temperature,
    evaluated with the sign-branched form so large drives cannot overflow."""
    if not 0 <= j < config.n_units:
        raise IndexError(f"unit index {j} out of range")
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
    log_p = _log_prob(_scaled_drives(params, state, config), x)
    return float(np.exp(log_p)), log_p


def expected_footprint(config: ModelConfig) -> Footprint:
    """Storage the model is allowed: one trace real per (pair, arrival rate)
    plus one per (unit, source rate); one queue bit per in-transit step; one
    parameter real per bias and per pair-rate coefficient."""
    m = config.n_pairs
    return Footprint(
        trace_scalars=m * config.n_lambda + config.n_units * config.n_mu,
        queue_bits=sum(d - 1 for d in config.delays.values()),
        param_scalars=config.n_units + m * (config.n_lambda + config.n_mu),
    )


def measured_footprint(state: TraceState, params: Parameters) -> Footprint:
    """Storage actually held by a state/parameter pair."""
    return Footprint(
        trace_scalars=state.alpha.size + state.gamma.size,
        queue_bits=state.queue.size,
        param_scalars=params.bias.size + params.u.size + params.v.size,
    )
