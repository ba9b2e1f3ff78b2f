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
from itertools import chain

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


def _unzip(keys) -> tuple[tuple, tuple]:
    """The first items and the second items of ``keys``; ValueError unless
    every key has exactly two (a key that is not iterable is a TypeError)."""
    pre, post = zip(*keys, strict=True) if keys else ((), ())
    return pre, post


def _sorted_columns(pre, post, delay) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Equal-length sequences of ints as int64 columns reordered into sorted
    pair order; None when a number is beyond int64."""
    try:
        pre, post, delay = np.array((pre, post, delay), dtype=np.int64)
    except OverflowError:
        return None
    order = np.lexsort((post, pre))
    return pre[order], post[order], delay[order]


def _pair_columns(delays: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Vector pass: the sorted columns of ``delays`` when every key is a tuple
    of two plain ints and every delay a plain int, else None. The types are
    tested first because the conversion would take a bool, a float or a
    numeric string for an integer."""
    if set(map(type, delays)) <= {tuple}:
        try:
            pre, post = _unzip(delays)
        except ValueError:
            return None
        delay = tuple(delays.values())
        if set(map(type, chain(pre, post, delay))) <= {int}:
            return _sorted_columns(pre, post, delay)
    return None


def _in_range(columns, n_units: int) -> bool:
    """Whether sorted ``(pre, post, delay)`` columns hold indices in
    ``[0, n_units)`` and delays >= 1 only; False for no columns."""
    if columns is None:
        return False
    pre, post, delay = columns
    if pre.size == 0:
        return True
    # pre is sorted, so its ends are its extremes
    in_range = pre[0] >= 0 and pre[-1] < n_units and 0 <= post.min() and post.max() < n_units
    return in_range and delay.min() >= 1


def _connectivity(value, n_units: int) -> tuple[dict, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """``value`` as a dict from pairs of plain ints to plain-int delays, with
    its sorted columns (None when a number is beyond int64). A table that
    the vector pass does not take (numpy ints, or any fault) is walked in
    insertion order, which converts numpy integers and names the first bad
    pair, whatever its fault."""
    try:
        delays = dict(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"delays must map (i, j) pairs to integer delays, got {type(value).__name__}"
        ) from None
    columns = _pair_columns(delays)
    if _in_range(columns, n_units):
        return delays, columns
    converted = {}
    for key, d in delays.items():
        try:
            i, j = key
        except (TypeError, ValueError):
            raise ConfigError(f"delays key {key!r} is not an (i, j) pair of unit indices") from None
        if not (type(i) is type(j) is type(d) is int):
            if not (_is_integer(i) and _is_integer(j) and _is_integer(d)):
                raise ConfigError(
                    f"delays[({i!r}, {j!r})] = {d!r}: unit indices and delay must be integers"
                )
            i, j, d = int(i), int(j), int(d)
        if not (0 <= i < n_units and 0 <= j < n_units):
            raise ConfigError(f"delays[({i}, {j})]: unit index out of range for {n_units} units")
        if d < 1:
            raise ConfigError(f"delays[({i}, {j})] must be >= 1, got {d}")
        converted[(i, j)] = d
    return converted, _sorted_columns(*_unzip(converted), tuple(converted.values()))


@dataclass
class ModelConfig:
    """Shape and fixed hyper-parameters of one model.

    ``delays`` maps each connected ordered pair ``(i, j)`` to its conduction
    delay; the connectivity set is exactly the key set. Decay rates are
    fixed hyper-parameters, not learned.

    Construction converts ``n_units``, the rates and ``temperature``, then
    calls ``validate``, which checks and converts the pair table. An
    invalid setting raises ``ConfigError``; for the pair table it names the
    first bad pair in insertion order, whatever its fault. The derived
    tables (``arrays``, ``pairs``, ``pair_index``, ``max_delay``) are built
    when first read and rebuilt after each ``validate``, so call it after
    an edit; states and parameters built before an edit do not follow it.
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
        """Check the current pair table against ``n_units`` and convert it
        (numpy integers become ints), then the near-window overflow guard
        on ``mus`` and the longest delay. The derived tables are dropped, so
        they are rebuilt from the checked fields when next read."""
        self.delays, self._columns = _connectivity(self.delays, self.n_units)
        for name in ("arrays", "pairs", "pair_index", "max_delay"):
            self.__dict__.pop(name, None)
        # Overflow guard: a full queue gives the near-window trace
        # sum_{s=1}^{d-1} mu**(-s), largest for the longest delay and the
        # smallest rate. That sum, plus a relative margin for its rounding,
        # must stay below the float maximum. A lag count beyond the float
        # range always overflows (every rate is below 1); it is compared
        # exactly, as an int, because converting it would raise.
        n = max(self.delays.values(), default=1) - 1
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
        """Cached vector views used by the hot paths; do not write to them."""
        return _DerivedArrays(self)


def _accumulates(lags: int, width: int) -> bool:
    """Whether a (lags, width) block of near-window terms is summed over its
    lags faster by one ``np.add.accumulate`` than by ``lags - 1`` row adds;
    both add in the same order. Measured on a 2-vCPU Xeon with numpy 2.4:
    accumulate costs about 20 ns per column plus 3.5 ns per term, a row add
    about 1.2 us per call plus 0.6 ns per term. So long, narrow blocks
    accumulate and short, wide ones add rows."""
    return width * (20 + 3.5 * lags) < (lags - 1) * (1200 + 0.6 * width)


class _DerivedArrays:
    """Per-config numpy views used by the per-step kernels, built in array
    passes from the config's sorted pair columns. One config is shared by
    every state and parameter vector built on it, so every array is
    read-only except the three that each step passes to ``np.bincount`` as
    its index (``BINCOUNT_INDEXES``): bincount copies a read-only index
    array on every call, which cost about 2% of an online step at 2048
    pairs. Never write to those three either.

    ``pre``, ``post`` and ``delay`` are the int64 source unit, target unit
    and delay of each pair, in sorted pair order (the row order of ``u``,
    ``v`` and ``alpha``).

    Queue layout: all queues live in one flat bit array. Pair ``m`` owns
    the segment ``queue_bounds[m]:queue_bounds[m + 1]`` (its last ``d - 1``
    source values, newest first), so delay-1 pairs own none.
    ``queue_start`` and ``queue_pre`` are the first (newest) position and
    the source unit of each non-empty segment.

    Near-window tables: every pair from unit ``i`` queues the same history
    of ``i``, so the segment of the first longest pair from ``i`` (its
    lead, starting at queue position ``lead_start[i]``, the queue length
    when ``i`` queues nothing) holds every lag that any pair from ``i``
    needs. Units are grouped into blocks by the
    bit length of (their lag count - 1), so a block's lag count is less
    than twice that of each of its units. A block of ``n`` units and
    ``L`` lags owns a run of ``L * n_mu * n`` slots, laid out as
    (lag, rate, unit), and ``lag_runs`` holds ``(start, stop, (L, n_mu *
    n), accumulates)`` for each block with ``L > 1``. ``lag_src`` is the
    queue position each slot reads (a lead bit, or 0 past the unit's own
    lags) and ``lag_coeff`` its ``mus[l]**(-lag)`` (0 past the unit's
    lags), so the tables hold fewer than twice as many slots as there are
    distinct (unit, lag, rate) terms, and never more than twice the queue
    times ``n_mu``. A last slot, read by delay-1 pairs, is always 0.
    ``beta_at[m, l]`` is the slot of (pair ``m``'s source, rate ``l``) at
    lag ``d - 1``, where the running sum over the lags stops.

    Rate tables have the full (n_pairs, n_lambda), (n_pairs, n_mu) or
    (n_units, n_mu) shape of the traces they meet: numpy runs an
    elementwise operation on equal shapes as one contiguous loop, but
    broadcasting along the short rate axis costs one loop per row.
    ``post_k``/``post_l`` and ``pre_l`` repeat each pair's target and source
    unit along its rates (``post_l`` is ``post_k`` itself when there are as
    many near-window as arrival rates), ``lam_k`` repeats the arrival rates
    along the pairs and ``mu_l`` the source rates along the units, ``gamma_post``
    indexes the flattened source trace of each pair's target, and
    ``arrival_k`` indexes the bit that arrives on each pair in
    ``concatenate((slice, queue))``: the source unit itself for delay 1,
    else the segment's oldest bit.
    ``bank_shapes`` and ``n_params`` are the bank shapes and total size of
    ``Parameters`` and ``Gradient``. ``trace_builders`` keeps an idle
    ``learning._TraceBuilder`` (tables and buffers) by chunk length.
    """

    BINCOUNT_INDEXES = ("post_k", "post_l", "pre_l")

    def __init__(self, config: ModelConfig) -> None:
        if config._columns is None:  # only a valid config with a unit index beyond int64
            raise OverflowError("a unit index is beyond the int64 range")
        pre, post, delay = self.pre, self.post, self.delay = config._columns
        n_lambda, n_mu = config.n_lambda, config.n_mu
        self.lam = np.asarray(config.lambdas, dtype=np.float64)
        self.mu = np.asarray(config.mus, dtype=np.float64)

        lengths = delay - 1
        self.queue_bounds = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        queued = np.flatnonzero(lengths > 0)
        self.queue_start = self.queue_bounds[queued]
        self.queue_pre = pre[queued]
        # near-window tables (class docstring)
        n, size = config.n_units, int(self.queue_bounds[-1])
        queue_pair = np.repeat(np.arange(config.n_pairs), lengths)
        queue_lag = np.arange(size) - self.queue_bounds[queue_pair] + 1
        top = np.zeros(n, dtype=np.int64)  # lags of each unit's longest queue
        np.maximum.at(top, pre, lengths)
        longest = np.flatnonzero(lengths == top[pre])
        self.lead_start = np.full(n, size)  # of the first of them
        np.minimum.at(self.lead_start, pre[longest], self.queue_bounds[longest])
        # blocks of units whose lag counts share a bit length, in that order
        sources = np.flatnonzero(top)
        group = np.frexp(top[sources] - 1.0)[1]
        order = np.argsort(group, kind="stable")
        units, group = sources[order], group[order]
        cuts = (np.flatnonzero(group[1:] != group[:-1]) + 1).tolist()
        edges = [0, *cuts, units.size] if units.size else []
        base, width = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        runs, total = [], 0
        for lo, hi in zip(edges, edges[1:]):
            members = units[lo:hi]
            lags, w = int(top[members].max()), n_mu * (hi - lo)
            base[members] = total + np.arange(hi - lo)
            width[members] = hi - lo
            if lags > 1:
                runs.append((total, total + lags * w, (lags, w), _accumulates(lags, w)))
            total += lags * w
        self.lag_runs = tuple(runs)
        # each lead bit, its block row (lag - 1) and its slots, laid out
        # (rate, bit): a loop along a short rate axis costs one call per row
        span = top[units]
        row = np.arange(int(span.sum())) - np.repeat(np.cumsum(span) - span, span)
        bit = np.repeat(self.lead_start[units], span) + row
        unit = np.repeat(units, span)
        slot = base[unit] + (row * n_mu + np.arange(n_mu)[:, None]) * width[unit]
        self.lag_src = np.zeros(total + 1, dtype=np.int64)  # slot total stays 0 for delay 1
        self.lag_src[slot] = bit
        # the powers of every queue position in one call, the values a sum
        # over each pair's own segment uses: numpy's power can round the last
        # bit differently for another array layout
        coeff = self.mu[:, None] ** (-queue_lag[None, :])
        self.lag_coeff = np.zeros(total + 1)
        self.lag_coeff[slot] = coeff[:, bit]
        queues = delay > 1
        rate_step = width[pre] * queues
        self.beta_at = np.empty((config.n_pairs, n_mu), dtype=np.int64)
        self.beta_at[:, 0] = np.where(queues, base[pre] + (delay - 2) * n_mu * rate_step, total)
        for ell in range(1, n_mu):  # a column at a time: one call per rate
            np.add(self.beta_at[:, ell - 1], rate_step, out=self.beta_at[:, ell])

        self.post_k = np.repeat(post[:, None], n_lambda, axis=1)
        self.post_l = self.post_k if n_mu == n_lambda else np.repeat(post[:, None], n_mu, axis=1)
        self.pre_l = np.repeat(pre[:, None], n_mu, axis=1)
        self.lam_k = np.tile(self.lam, (config.n_pairs, 1))
        self.mu_l = np.tile(self.mu, (config.n_units, 1))
        self.gamma_post = np.ascontiguousarray((np.arange(n_mu)[:, None] + post * n_mu).T)
        source = pre.copy()
        source[queued] = config.n_units + self.queue_bounds[queued + 1] - 1
        self.arrival_k = np.repeat(source[:, None], n_lambda, axis=1)

        self.bank_shapes = ((config.n_units,), (config.n_pairs, n_lambda), (config.n_pairs, n_mu))
        self.n_params = config.n_units + config.n_pairs * (n_lambda + n_mu)
        self.trace_builders = {}  # an idle trace builder by chunk length, built on first use
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray) and name not in self.BINCOUNT_INDEXES:
                value.setflags(write=False)


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

    def _non_finite_bank(self) -> str | None:
        """Name of the first bank, in ``theta`` order, that holds a
        non-finite entry; None when every entry is finite."""
        if np.isfinite(self.theta).all():
            return None
        return next(n for n, bank in zip(self.names, self.banks) if not np.isfinite(bank).all())

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
        name = self._non_finite_bank()
        if name is not None:
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
