"""Brute-force reference implementations.

Everything here recomputes quantities the fast path maintains incrementally
(or analytically), by direct evaluation of the defining sums:

* ``expand_weights`` materialises the lag-indexed weight matrices that the
  trace representation never builds.
* ``naive_fire_prob`` evaluates a unit's energy by the full double sum over
  lags and source units on a truncated history window.
* ``traces_from_scratch`` evaluates the trace definitions term by term over
  an explicit history.
* ``fd_gradient`` differentiates the sequence log-likelihood numerically.
* ``TinyBM`` is an exact, fully enumerated Boltzmann machine for networks
  of up to 12 units.

These are deliberately slow and deliberately independent of the code they
check. They read a config only through its fields (``delays``,
``lambdas``, ``mus``, ``temperature``) and its sorted ``pairs`` and
``pair_index``, the row order of the parameter banks, never through the
derived tables of ``config.arrays``; a flat queue is joined from per-pair
bits in ``pairs`` order here. From the fast path they take only
``TraceState`` and the logistic function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, Parameters, as_time_slice
from .model import TraceState, _sigmoid

__all__ = [
    "ExpandedWeights",
    "TinyBM",
    "expand_weights",
    "forward_kernel",
    "reverse_kernel",
    "truncation_horizon",
    "naive_fire_prob",
    "naive_unit_energy",
    "fd_gradient",
    "traces_from_scratch",
    "bm_energies",
    "bm_probs",
    "bm_prob",
    "bm_exact_gradient",
]


# ---------------------------------------------------------------------------
# Explicit weight kernels


def forward_kernel(params: Parameters, config: ModelConfig, i: int, j: int, delta: int) -> float:
    """Directed kernel component of pair (i, j) at positive lag ``delta``.

    At and beyond the pair's delay it is the potentiation sum
    ``sum_k u[k] * lambda_k**(delta - d)``; before the spike arrives it is
    the depression branch ``-sum_l v[l] * mu_l**(-delta)``. Unconnected
    pairs contribute nothing.
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    m = config.pair_index.get((i, j))
    if m is None:
        return 0.0
    d = config.delays[(i, j)]
    if delta >= d:
        return float(np.sum(params.u[m] * np.array(config.lambdas) ** (delta - d)))
    return float(-np.sum(params.v[m] * np.array(config.mus) ** (-float(delta))))


def reverse_kernel(params: Parameters, config: ModelConfig, j: int, i: int, delta: int) -> float:
    """Directed kernel component of pair (j, i) evaluated at lag ``-delta``
    (post fired ``delta`` steps before the pre spike): always the decaying
    depression branch ``-sum_l v[l] * mu_l**delta``."""
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    m = config.pair_index.get((j, i))
    if m is None:
        return 0.0
    return float(-np.sum(params.v[m] * np.array(config.mus) ** float(delta)))


@dataclass(frozen=True, eq=False)
class ExpandedWeights:
    """Explicit lag-indexed weight matrices W[delta] for delta in [1, T-1].

    ``matrices[delta - 1][i, j]`` is the influence of unit i firing delta
    steps ago on unit j firing now; the same-time matrix is identically
    zero by construction and is not stored.
    """

    matrices: np.ndarray  # shape (T - 1, N, N)
    horizon: int

    def at(self, delta: int) -> np.ndarray:
        if not 1 <= delta < self.horizon:
            raise IndexError(f"delta {delta} outside [1, {self.horizon - 1}]")
        return self.matrices[delta - 1]


def expand_weights(params: Parameters, config: ModelConfig, horizon: int) -> ExpandedWeights:
    """Materialise W[delta] = forward(i, j, delta) + reverse(j, i, delta)
    for every ordered pair and every lag below ``horizon``."""
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    n = config.n_units
    mats = np.zeros((horizon - 1, n, n))
    for delta in range(1, horizon):
        for (i, j) in config.pairs:
            mats[delta - 1, i, j] += forward_kernel(params, config, i, j, delta)
            # the same stored pair also acts with reversed roles: its v
            # coefficients suppress the *source* unit after the target fires
            mats[delta - 1, j, i] += reverse_kernel(params, config, i, j, delta)
    return ExpandedWeights(matrices=mats, horizon=horizon)


def truncation_horizon(config: ModelConfig, tol: float = 1e-12) -> int:
    """Smallest horizon T such that the geometric tail of every kernel
    beyond T, measured as rate**(T+1-max_delay) / (1-rate) at the slowest
    decay rate, falls below ``tol``."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    rate = max(max(config.lambdas), max(config.mus))
    t = config.max_delay + 1
    while rate ** (t + 1 - config.max_delay) / (1.0 - rate) >= tol:
        t += 1
    return t


def naive_unit_energy(
    expanded: ExpandedWeights,
    bias: np.ndarray,
    config: ModelConfig,
    history: list,
    j: int,
    x_j: int,
) -> float:
    """Energy of unit j taking value x_j, by the direct double sum over the
    last ``horizon - 1`` slices. ``history`` is chronological (oldest
    first); pad with zero slices to represent times before it."""
    if x_j not in (0, 1):
        raise ValueError(f"x_j must be 0 or 1, got {x_j!r}")
    if len(history) != expanded.horizon - 1:
        raise ValueError(
            f"history must hold exactly {expanded.horizon - 1} slices, "
            f"got {len(history)}"
        )
    if x_j == 0:
        return 0.0
    slices = [as_time_slice(s, config.n_units) for s in history]
    total = float(bias[j])
    for delta in range(1, expanded.horizon):
        total += float(slices[-delta] @ expanded.at(delta)[:, j])
    return -total


def naive_fire_prob(
    expanded: ExpandedWeights,
    bias: np.ndarray,
    config: ModelConfig,
    history: list,
    j: int,
) -> float:
    """Firing probability from the explicit truncated energy."""
    e1 = naive_unit_energy(expanded, bias, config, history, j, 1)
    return float(_sigmoid(np.array([-e1 / config.temperature]))[0])


# ---------------------------------------------------------------------------
# Traces by direct evaluation


def traces_from_scratch(config: ModelConfig, history: list) -> TraceState:
    """Evaluate every trace definition directly on an explicit history.

    ``history`` is chronological; the result is the state immediately after
    absorbing all of it (zero slices are implied before the first entry).
    Arrival traces sum ``lambda**age`` over every spike that has already
    crossed the pair delay, where age counts steps since arrival. Source
    traces sum ``mu**lag`` over the unit's own spikes. Queues hold the last
    ``d - 1`` source values, newest first.
    """
    slices = [as_time_slice(s, config.n_units) for s in history]
    n = len(slices)

    def value(i: int, t: int) -> int:
        # t is 1-based time within the history; earlier times are zero.
        return int(slices[t - 1][i]) if t >= 1 else 0

    alpha = np.zeros((config.n_pairs, config.n_lambda))
    queue: list[int] = []
    for m, (i, j) in enumerate(config.pairs):
        d = config.delays[(i, j)]
        # spikes at time s arrive at s + d; at prediction time n + 1 the
        # arrivals seen so far are those with s <= n + 1 - d.
        for k, lam in enumerate(config.lambdas):
            total = 0.0
            for s in range(n + 1 - d, 0, -1):
                age = (n + 1 - d) - s
                total += lam**age * value(i, s)
            alpha[m, k] = total
        queue += [value(i, n - lag + 1) for lag in range(1, d)]

    gamma = np.zeros((config.n_units, config.n_mu))
    for i in range(config.n_units):
        for l, mu in enumerate(config.mus):
            gamma[i, l] = sum(mu ** (n + 1 - s) * value(i, s) for s in range(1, n + 1))

    return TraceState(
        alpha=alpha, gamma=gamma, queue=np.array(queue, dtype=np.uint8), step_count=n
    )


# ---------------------------------------------------------------------------
# Numerical gradient


def fd_gradient(params: Parameters, config: ModelConfig, series, h: float = 1e-5):
    """Central finite differences of the sequence log-likelihood with
    respect to every parameter coordinate. Returns a Gradient."""
    from .learning import Gradient, sequence_log_likelihood

    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")

    def ll(p: Parameters) -> float:
        val = sequence_log_likelihood(p, config, series)
        if not math.isfinite(val):
            raise ValueError("non-finite log-likelihood during differencing")
        return val

    out = Gradient.zeros(config)
    for i, base in enumerate(params.theta):
        probe = params.copy()
        probe.theta[i] = base + h
        up = ll(probe)
        probe.theta[i] = base - h
        down = ll(probe)
        out.theta[i] = (up - down) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# Exact tiny Boltzmann machine


@dataclass(eq=False)
class TinyBM:
    """Fully connected static Boltzmann machine small enough to enumerate.

    Symmetric weights, zero diagonal, at most 12 units (4096 states).
    """

    bias: np.ndarray
    weights: np.ndarray
    temperature: float = 1.0

    def __post_init__(self) -> None:
        self.bias = np.asarray(self.bias, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        n = self.bias.shape[0]
        if n > 12:
            raise ValueError(f"at most 12 units supported, got {n}")
        if self.weights.shape != (n, n):
            raise ValueError(
                f"weights must be {n}x{n}, got {self.weights.shape}"
            )
        if not np.array_equal(self.weights, self.weights.T):
            raise ValueError("weights must be symmetric")
        if np.any(np.diag(self.weights) != 0.0):
            raise ValueError("weight diagonal must be zero")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")

    @property
    def n(self) -> int:
        return self.bias.shape[0]


def _all_states(n: int) -> np.ndarray:
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.float64)


def bm_energies(bm: TinyBM) -> np.ndarray:
    """Energy of every state, in lexicographic state order."""
    s = _all_states(bm.n)
    return -(s @ bm.bias) - 0.5 * np.einsum("si,ij,sj->s", s, bm.weights, s)


def bm_probs(bm: TinyBM) -> np.ndarray:
    """Exact equilibrium distribution over all 2**n states."""
    logits = -bm_energies(bm) / bm.temperature
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def bm_prob(bm: TinyBM, x) -> float:
    """Exact probability of one state vector."""
    xv = as_time_slice(x, bm.n)
    index = int("".join(str(int(b)) for b in xv), 2) if bm.n else 0
    return float(bm_probs(bm)[index])


def bm_exact_gradient(bm: TinyBM, dataset) -> tuple[np.ndarray, np.ndarray]:
    """Exact log-likelihood gradient summed over a dataset of state vectors.

    Returns (d_bias, d_weights): the observed sufficient statistics minus
    the model's expected ones, scaled by 1/temperature. The weight part is
    the Hebb-style difference of firing coincidences, symmetric with zero
    diagonal (each symmetric entry pair is one tied parameter).
    """
    data = np.asarray(
        [as_time_slice(x, bm.n) for x in dataset], dtype=np.float64
    )
    if data.size == 0:
        raise ValueError("dataset must be non-empty")
    probs = bm_probs(bm)
    states = _all_states(bm.n)
    model_mean = probs @ states
    model_xx = states.T @ (states * probs[:, None])
    data_sum = data.sum(axis=0)
    data_xx = data.T @ data
    count = data.shape[0]
    d_bias = (data_sum - count * model_mean) / bm.temperature
    d_w = (data_xx - count * model_xx) / bm.temperature
    np.fill_diagonal(d_w, 0.0)
    return d_bias, d_w
