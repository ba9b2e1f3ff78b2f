"""Network configuration and learnable parameters.

A model is a network of ``n_units`` binary units. Each ordered pair
``(i, j)`` in the connectivity set carries a conduction delay
``d[i, j] >= 1`` and two banks of weight coefficients: ``u`` (potentiation,
one coefficient per arrival decay rate) and ``v`` (depression, one per
near-window decay rate). Unit histories enter the model only through
geometric sums (eligibility traces) and a short per-pair FIFO queue, which
is what keeps online learning exact with bounded memory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["ConfigError", "ModelConfig", "Parameters", "as_time_slice"]

# Largest representable double; the near-window trace sums coefficients that
# grow like (1/mu)**lag, so configs must keep that sum below this bound.
_FLOAT_MAX = float(np.finfo(np.float64).max)
_LOG_FLOAT_MAX = math.log(_FLOAT_MAX)
_EPS = float(np.finfo(np.float64).eps)


class ConfigError(ValueError):
    """Raised when a model configuration violates an invariant."""


def _is_integer(value) -> bool:
    """An int or a numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _count(name: str, value, minimum: int = 0) -> int:
    """``value`` as an int >= ``minimum``; a bool, float or string is an error."""
    if not (_is_integer(value) and value >= minimum):
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, a string or a number beyond the double
    range is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is beyond the double-precision range") from None


def _positive(name: str, value) -> float:
    """``value`` as a positive finite float."""
    x = _real(name, value)
    if not 0.0 < x < math.inf:
        raise ConfigError(f"{name} must be a positive finite real, got {value!r}")
    return x


def _rates(name: str, values) -> tuple[float, ...]:
    """``values`` as a non-empty tuple of decay rates, each inside (0, 1)."""
    rates = tuple(_real(f"{name}[{k}]", r) for k, r in enumerate(values))
    if not rates:
        raise ConfigError(f"{name} must contain at least one decay rate")
    for k, r in enumerate(rates):
        if not 0.0 < r < 1.0:
            raise ConfigError(f"{name}[{k}] must lie strictly inside (0, 1), got {r!r}")
    return rates


@dataclass
class ModelConfig:
    """Shape and fixed hyper-parameters of one model.

    ``delays`` maps each connected ordered pair ``(i, j)`` to its conduction
    delay; the connectivity set is exactly the key set. Decay rates are
    fixed hyper-parameters, not learned.
    """

    n_units: int
    lambdas: tuple[float, ...]
    mus: tuple[float, ...]
    delays: dict[tuple[int, int], int]
    temperature: float = 1.0

    def __post_init__(self) -> None:
        self.n_units = _count("n_units", self.n_units, 1)
        self.lambdas = _rates("lambdas", self.lambdas)
        self.mus = _rates("mus", self.mus)
        delays = {}
        for (i, j), d in dict(self.delays).items():
            # plain ints pass the first test; a config may hold thousands of pairs
            if not (type(i) is type(j) is type(d) is int):
                if not (_is_integer(i) and _is_integer(j) and _is_integer(d)):
                    raise ConfigError(
                        f"delays[({i!r}, {j!r})] = {d!r}: unit indices and delay must be integers"
                    )
                i, j, d = int(i), int(j), int(d)
            delays[(i, j)] = d
        self.delays = delays
        self.temperature = _positive("temperature", self.temperature)
        self.validate()

    @classmethod
    def dense(
        cls,
        n_units: int,
        *,
        lambdas: tuple[float, ...] = (0.5,),
        mus: tuple[float, ...] = (0.25,),
        delay: int = 2,
        temperature: float = 1.0,
        self_pairs: bool = True,
    ) -> "ModelConfig":
        """All-to-all connectivity with one shared delay.

        The keyword defaults are the documented defaults used whenever a
        caller does not care: single decay rates 0.5 / 0.25, delay 2, unit
        temperature, self pairs included (a self pair links a unit's own
        past to its present; same-time self influence does not exist).
        """
        n_units = _count("n_units", n_units, 1)
        pairs = {
            (i, j): delay
            for i in range(n_units)
            for j in range(n_units)
            if self_pairs or i != j
        }
        return cls(n_units, lambdas, mus, pairs, temperature)

    def validate(self) -> None:
        """The checks across fields (each field is checked as it is converted):
        pair indices, delays and the near-window overflow guard."""
        for (i, j), d in self.delays.items():
            if not (0 <= i < self.n_units and 0 <= j < self.n_units):
                raise ConfigError(
                    f"delays[({i}, {j})]: unit index out of range for "
                    f"{self.n_units} units"
                )
            if d < 1:
                raise ConfigError(f"delays[({i}, {j})] must be >= 1, got {d}")
        # Overflow guard: a full queue gives the near-window trace
        # sum_{s=1}^{d-1} mu**(-s), largest for the longest delay and the
        # smallest rate. That sum, plus a relative margin for its rounding,
        # must stay below the float maximum. A lag count beyond the float
        # range always overflows (every rate is below 1); it is compared
        # exactly, as an int, because converting it would raise.
        n = self.max_delay - 1
        if n >= 1:
            mu = min(self.mus)
            overflow = n > _FLOAT_MAX
            if not overflow:
                log_sum = n * math.log(1.0 / mu) + math.log1p(-(mu**n)) - math.log1p(-mu)
                overflow = log_sum + math.log1p(2 * n * _EPS) >= _LOG_FLOAT_MAX
            if overflow:
                raise ConfigError(
                    "mus/delays overflow guard: the near-window sum of "
                    "(1/min(mus))**lag over lags 1..d-1 of the longest "
                    "connectivity delay d exceeds the double-precision range"
                )

    # Derived views -------------------------------------------------------

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Connected ordered pairs, sorted; index order for u/v/alpha rows."""
        return tuple(sorted(self.delays))

    @cached_property
    def pair_index(self) -> dict[tuple[int, int], int]:
        return {pair: m for m, pair in enumerate(self.pairs)}

    @property
    def n_pairs(self) -> int:
        return len(self.delays)

    @property
    def n_lambda(self) -> int:
        return len(self.lambdas)

    @property
    def n_mu(self) -> int:
        return len(self.mus)

    @cached_property
    def max_delay(self) -> int:
        return max(self.delays.values(), default=1)

    @cached_property
    def arrays(self) -> "_DerivedArrays":
        """Cached vector views used by the hot paths. Treat as read-only."""
        return _DerivedArrays(self)


class _DerivedArrays:
    """Per-config numpy views used by the per-step kernels.

    Queue layout: all queues live in one flat bit array. Pair ``m`` owns
    the segment ``queue_bounds[m]:queue_bounds[m + 1]`` (its last ``d - 1``
    source values, newest first), so delay-1 pairs own none.
    ``queue_start`` and ``queue_pre`` are the first (newest) position and
    the source unit of each non-empty segment. ``beta_coeff[l, q]`` is
    ``mus[l]**(-lag)`` for the lag of flat position ``q``, and
    ``beta_bin[l, q]`` the index of (its pair, ``l``) in a flattened
    (n_pairs, n_mu) array.

    Rate tables have the full (n_pairs, n_lambda), (n_pairs, n_mu) or
    (n_units, n_mu) shape of the traces they meet: numpy runs an
    elementwise operation on equal shapes as one contiguous loop, but
    broadcasting along the short rate axis costs one loop per row.
    ``post_k``/``post_l`` and ``pre_l`` repeat each pair's target and source
    unit along its rates, ``lam_k`` repeats the arrival rates along the
    pairs and ``mu_l`` the source rates along the units, ``gamma_post``
    indexes the flattened source trace of each pair's target, and
    ``arrival_k`` indexes the bit that arrives on each pair in
    ``concatenate((slice, queue))``: the source unit itself for delay 1,
    else the segment's oldest bit.
    ``bank_shapes`` and ``n_params`` are the bank shapes and total size of
    ``Parameters`` and ``Gradient``.
    """

    def __init__(self, config: ModelConfig) -> None:
        pairs = config.pairs
        n_lambda, n_mu = config.n_lambda, config.n_mu
        pre = np.array([i for i, _ in pairs], dtype=np.int64)
        post = np.array([j for _, j in pairs], dtype=np.int64)
        self.delay = np.array([config.delays[p] for p in pairs], dtype=np.int64)
        self.lam = np.asarray(config.lambdas, dtype=np.float64)
        self.mu = np.asarray(config.mus, dtype=np.float64)

        lengths = self.delay - 1
        self.queue_bounds = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        queued = np.flatnonzero(lengths > 0)
        self.queue_start = self.queue_bounds[queued]
        self.queue_pre = pre[queued]
        queue_pair = np.repeat(np.arange(config.n_pairs), lengths)
        lags = np.arange(int(self.queue_bounds[-1])) - self.queue_bounds[queue_pair] + 1
        self.beta_coeff = self.mu[:, None] ** (-lags[None, :])
        self.beta_bin = queue_pair[None, :] * n_mu + np.arange(n_mu)[:, None]

        self.post_k = np.repeat(post[:, None], n_lambda, axis=1)
        self.post_l = np.repeat(post[:, None], n_mu, axis=1)
        self.pre_l = np.repeat(pre[:, None], n_mu, axis=1)
        self.lam_k = np.tile(self.lam, (config.n_pairs, 1))
        self.mu_l = np.tile(self.mu, (config.n_units, 1))
        self.gamma_post = post[:, None] * n_mu + np.arange(n_mu)
        source = pre.copy()
        source[queued] = config.n_units + self.queue_bounds[queued + 1] - 1
        self.arrival_k = np.repeat(source[:, None], n_lambda, axis=1)

        self.bank_shapes = ((config.n_units,), (config.n_pairs, n_lambda), (config.n_pairs, n_mu))
        self.n_params = config.n_units + config.n_pairs * (n_lambda + n_mu)


class _FlatBanks:
    """Three banks of reals kept in one flat float64 vector ``theta``, each
    raveled row-major in turn. ``banks`` holds them as reshaped views of
    ``theta`` (a write through either shows in the other), ``names`` their
    names and ``shapes`` their shapes; none of these can be rebound."""

    __slots__ = ("_theta", "_shapes", "_banks")
    theta = property(lambda self: self._theta)
    shapes = property(lambda self: self._shapes)
    banks = property(lambda self: self._banks)

    def __new__(cls, *banks):
        arrays = [np.asarray(b, dtype=np.float64) for b in banks]
        return cls._wrap(np.concatenate([a.ravel() for a in arrays]), tuple(a.shape for a in arrays))

    @classmethod
    def _wrap(cls, theta: np.ndarray, shapes: tuple):
        """An instance over ``theta`` itself, not a copy."""
        self = object.__new__(cls)
        a = math.prod(shapes[0])
        b = a + math.prod(shapes[1])
        self._theta, self._shapes = theta, shapes
        self._banks = (
            theta[:a].reshape(shapes[0]),
            theta[a:b].reshape(shapes[1]),
            theta[b:].reshape(shapes[2]),
        )
        return self

    @classmethod
    def zeros(cls, config: ModelConfig):
        """All zero; as parameters, every unit fires with probability one half."""
        return cls._wrap(np.zeros(config.arrays.n_params), config.arrays.bank_shapes)

    def copy(self):
        return self._wrap(self.theta.copy(), self.shapes)

    def __reduce__(self):  # so that copy.deepcopy and pickle keep the banks views
        return type(self)._wrap, (self.theta, self.shapes)


class Parameters(_FlatBanks):
    """Learnable state: per-unit bias plus per-pair u and v coefficient rows.

    Rows of ``u`` and ``v`` follow ``config.pairs`` order; columns follow
    ``lambdas`` / ``mus`` order. ``bias``, ``u`` and ``v`` are views into
    ``theta``, in that order; the constructor copies them into a new one.
    """

    __slots__ = ()
    names = ("bias", "u", "v")
    bias = property(lambda self: self._banks[0])
    u = property(lambda self: self._banks[1])
    v = property(lambda self: self._banks[2])

    def __new__(cls, bias, u, v):
        return super().__new__(cls, bias, u, v)

    def validate_for(self, config: ModelConfig) -> None:
        for name, got, want in zip(self.names, self.shapes, config.arrays.bank_shapes):
            if got != want:
                raise ValueError(f"parameter {name} has shape {got}, expected {want}")
        if not np.isfinite(self.theta).all():
            name = next(n for n, bank in zip(self.names, self.banks) if not np.isfinite(bank).all())
            raise ValueError(f"parameter {name} contains non-finite entries")


def as_time_slice(values, n_units: int) -> np.ndarray:
    """Coerce one time step of unit values to an int vector, checking shape
    and that every entry is 0 or 1."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.shape[0] != n_units:
        raise ValueError(
            f"time slice must be a length-{n_units} vector, got shape {arr.shape}"
        )
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("time slice entries must be 0 or 1")
    return arr.astype(np.int64)
