import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dybm import config as config_module
from dybm.checkpoint import load_checkpoint, save_checkpoint
from dybm.config import ConfigError, ModelConfig, Parameters, _DerivedArrays, as_time_slice
from dybm.generator import RolloutConfig, eval_prediction, rollout
from dybm.learning import TrainerConfig, sequence_log_likelihood, train
from dybm.model import (
    _beta_matrix,
    _drives,
    _features,
    advance,
    cond_prob,
    fire_probs,
    init_state,
)

from conftest import configs

# the online_wide shape: 256 units, fan-in 8, delays 1-4
RING = {((j - r) % 256, j): 1 + (r - 1) % 4 for j in range(256) for r in range(1, 9)}


def outcome(*args):
    """The ``ConfigError`` message for ``ModelConfig(*args)``, or the config's
    delays and the dtype, shape and bytes of every table in ``.arrays``."""
    try:
        cfg = ModelConfig(*args)
    except ConfigError as exc:
        return str(exc)
    tables = {
        name: (a.dtype.str, a.shape, a.tobytes())
        for name, a in vars(cfg.arrays).items()
        if isinstance(a, np.ndarray)
    }
    types = [(type(key), *map(type, key), type(d)) for key, d in cfg.delays.items()]
    return cfg.delays, types, tables


def vector_pass_off(monkeypatch):
    """Force every pair through the per-pair checks and conversion."""
    monkeypatch.setattr(config_module, "_pair_columns", lambda delays: None)
    monkeypatch.setattr(config_module, "_in_range", lambda columns, n_units: False)


@st.composite
def near_overflow_configs(draw):
    """Two-unit configs whose longest delay sits within a few steps of the
    overflow guard for the smallest near-window rate; configs the guard
    rejects are discarded."""
    mu = draw(st.floats(0.02, 0.6))
    other_mu = draw(st.floats(mu, 0.95))
    # delay at which the largest single coefficient mu**-(d-1) overflows
    edge = int(math.log(np.finfo(np.float64).max) / -math.log(mu)) + 1
    delays = {(0, 0): max(1, edge + draw(st.integers(-4, 2)))}
    for pair in ((0, 1), (1, 0)):
        if draw(st.booleans()):
            delays[pair] = draw(st.integers(1, 6))
    try:
        return ModelConfig(2, (0.5,), (mu, other_mu), delays)
    except ConfigError:
        assume(False)


class TestModelConfigValidation:
    def test_dense_defaults(self):
        cfg = ModelConfig.dense(3)
        assert cfg.n_units == 3
        assert cfg.lambdas == (0.5,)
        assert cfg.mus == (0.25,)
        assert cfg.temperature == 1.0
        assert cfg.n_pairs == 9
        assert all(d == 2 for d in cfg.delays.values())
        assert (0, 0) in cfg.pair_index  # self pairs included

    def test_dense_without_self_pairs(self):
        cfg = ModelConfig.dense(3, self_pairs=False)
        assert cfg.n_pairs == 6
        assert (1, 1) not in cfg.pair_index

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rates_must_be_interior(self, bad):
        with pytest.raises(ConfigError, match="lambdas"):
            ModelConfig(1, (bad,), (0.5,), {(0, 0): 1})
        with pytest.raises(ConfigError, match="mus"):
            ModelConfig(1, (0.5,), (bad,), {(0, 0): 1})

    def test_rates_must_be_nonempty(self):
        with pytest.raises(ConfigError):
            ModelConfig(1, (), (0.5,), {(0, 0): 1})
        with pytest.raises(ConfigError):
            ModelConfig(1, (0.5,), (), {(0, 0): 1})

    def test_delay_must_be_at_least_one(self):
        with pytest.raises(ConfigError, match="delays"):
            ModelConfig(2, (0.5,), (0.5,), {(0, 1): 0})

    def test_pair_indices_in_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(2, (0.5,), (0.5,), {(0, 2): 1})
        with pytest.raises(ConfigError):
            ModelConfig(2, (0.5,), (0.5,), {(-1, 0): 1})

    def test_temperature_positive(self):
        with pytest.raises(ConfigError, match="temperature"):
            ModelConfig(1, (0.5,), (0.5,), {(0, 0): 1}, temperature=0.0)

    def test_overflow_guard_rejects_huge_near_window(self):
        # (1/1e-3)**(300-1) is far beyond double range
        with pytest.raises(ConfigError, match="overflow"):
            ModelConfig(1, (0.5,), (1e-3,), {(0, 0): 300})

    def test_overflow_guard_bounds_the_sum_not_the_largest_term(self):
        # every coefficient 2**lag (lag <= 1023) is finite, but a full queue
        # sums them to 2**1024 - 2, which is not
        with pytest.raises(ConfigError, match="overflow"):
            ModelConfig(1, (0.5,), (0.5,), {(0, 0): 1024})
        ModelConfig(1, (0.5,), (0.5,), {(0, 0): 1023})

    @given(near_overflow_configs())
    @settings(max_examples=25)
    def test_accepted_configs_stay_finite_on_all_ones(self, cfg):
        # zero parameters and an all-ones history fill every queue, which
        # gives the largest near-window trace the config allows
        params = Parameters.zeros(cfg)
        ones = np.ones(cfg.n_units, dtype=np.int64)
        state = init_state(cfg)
        for _ in range(cfg.max_delay):
            state = advance(state, cfg, ones)
        b = _beta_matrix(state, cfg)
        assert np.all(np.isfinite(b))
        assert np.all(np.isfinite(_drives(params, _features(state, cfg), cfg)))
        assert np.all(np.isfinite(fire_probs(params, state, cfg)))
        assert math.isfinite(cond_prob(params, state, cfg, ones)[1])
        history = np.ones((cfg.max_delay + 1, cfg.n_units), dtype=np.int64)
        assert math.isfinite(sequence_log_likelihood(params, cfg, history))

    @pytest.mark.parametrize("n_units", [2.7, "3"], ids=["fraction", "string"])
    def test_dense_checks_its_unit_count(self, n_units):
        # the pair table is built from the count, before ModelConfig sees it
        with pytest.raises(ConfigError, match="n_units"):
            ModelConfig.dense(n_units)

    def test_overflow_guard_rejects_delay_beyond_double_range(self):
        # the lag count cannot be converted to a float; it must still be
        # rejected by the guard, not by an OverflowError
        with pytest.raises(ConfigError, match="overflow guard"):
            ModelConfig(1, (0.5,), (0.5,), {(0, 0): 10**400})

    @pytest.mark.parametrize(
        "args, field",
        [
            pytest.param((2.7, (0.5,), (0.5,), {(0, 1): 2}), "n_units", id="fractional-n-units"),
            pytest.param((True, (0.5,), (0.5,), {(0, 0): 2}), "n_units", id="bool-n-units"),
            pytest.param((2, (0.5,), (0.5,), {(0.9, 1.2): 2}), r"delays\[\(0.9, 1.2\)\]", id="fractional-index"),
            pytest.param((2, (0.5,), (0.5,), {(0, 1): 2.9}), r"delays\[\(0, 1\)\]", id="fractional-delay"),
            pytest.param((2, (0.5,), (0.5,), {(0, 1): True}), r"delays\[\(0, 1\)\]", id="bool-delay"),
            pytest.param((2, ("0.5",), (0.5,), {(0, 1): 2}), r"lambdas\[0\]", id="string-rate"),
            pytest.param((2, (10**400,), (0.5,), {(0, 1): 2}), r"lambdas\[0\]", id="huge-rate"),
            pytest.param((2, (0.5,), (0.5,), {(0, 1): 2}, 10**400), "temperature", id="huge-temperature"),
            pytest.param((2, (0.5,), (0.5,), {(0, 1): 2}, "1"), "temperature", id="string-temperature"),
            pytest.param((2, (0.5,), (0.5,), {(0, 1): 2}, True), "temperature", id="bool-temperature"),
        ],
    )
    def test_rejects_values_it_would_truncate(self, args, field):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(*args)

    def test_accepts_numpy_scalars_and_rate_lists(self):
        cfg = ModelConfig(
            np.int64(2),
            [np.float32(0.5), 0.25],
            np.array([0.25]),
            {(np.int32(0), np.int64(1)): np.int8(3), (1, 1): 1},
            np.float64(2.0),
        )
        assert cfg.n_units == 2 and type(cfg.n_units) is int
        assert cfg.lambdas == (0.5, 0.25) and cfg.mus == (0.25,)
        assert cfg.delays == {(0, 1): 3, (1, 1): 1}
        assert all(type(k) is int for pair in cfg.delays for k in pair)
        assert cfg.temperature == 2.0 and type(cfg.temperature) is float

    def test_overflow_guard_allows_desk_scale(self):
        cfg = ModelConfig(1, (0.5,), (0.2,), {(0, 0): 8})
        assert cfg.max_delay == 8

    def test_self_pairs_permitted(self):
        cfg = ModelConfig(1, (0.5,), (0.5,), {(0, 0): 4})
        assert cfg.pairs == ((0, 0),)

    @given(configs(allow_empty=True))
    def test_pairs_sorted_and_indexed(self, cfg):
        assert list(cfg.pairs) == sorted(cfg.pairs)
        for m, pair in enumerate(cfg.pairs):
            assert cfg.pair_index[pair] == m
        assert cfg.n_pairs == len(cfg.delays)


class TestMalformedDelays:
    @pytest.mark.parametrize(
        "delays, named",
        [
            pytest.param(None, r"^delays must map \(i, j\) pairs to integer delays, got NoneType$", id="none"),
            pytest.param([(0, 1, 2)], "^delays must map", id="triples"),
            pytest.param({5: 2}, r"^delays key 5 is not an \(i, j\) pair", id="int-key"),
            pytest.param({(0,): 2}, r"^delays key \(0,\) is not an \(i, j\) pair", id="one-index"),
            pytest.param({(0, 1, 2): 2}, r"^delays key \(0, 1, 2\) is not an \(i, j\) pair", id="three-indices"),
            pytest.param({(0, 1): 2, 5: 2}, r"^delays key 5 ", id="int-key-after-a-pair"),
        ],
    )
    def test_named_as_a_config_error(self, delays, named):
        with pytest.raises(ConfigError, match=named):
            ModelConfig(2, (0.5,), (0.5,), delays)


class TestVectorPass:
    """The vector pass and the per-pair checks accept the same configs,
    build the same tables and name the same first bad pair."""

    BASE = {(2, 1): 3, (0, 0): 1, (1, 2): 4, (0, 2): 2, (2, 0): 1}

    def edits(self):
        """``(label, delays)`` for every one-item edit of ``BASE``: each index
        and each delay replaced by a bad or unusual value, and each key by a
        non-pair."""
        odd = [True, False, 1.5, 1.0, "1", np.int64(1), np.int32(2), 10**400, 2**63, 2**62, -1, 0, 3]
        items = list(self.BASE.items())
        for m, ((i, j), d) in enumerate(items):
            edited = [((v, j), d) for v in odd] + [((i, v), d) for v in odd] + [((i, j), v) for v in odd]
            edited += [(key, d) for key in (5, (i,), (i, j, 0), "ab")]
            for key, value in edited:
                yield f"{m}: {key!r}: {value!r}", dict(items[:m] + [(key, value)] + items[m + 1 :])

    def test_each_one_item_edit_gives_the_per_pair_outcome(self, monkeypatch):
        edits = list(self.edits())
        vector = [outcome(3, (0.5,), (0.25, 0.5), delays) for _, delays in edits]
        vector_pass_off(monkeypatch)
        per_pair = [outcome(3, (0.5,), (0.25, 0.5), delays) for _, delays in edits]
        for (label, _), got, want in zip(edits, vector, per_pair):
            assert got == want, label
        assert isinstance(vector[0], str) and not all(isinstance(o, str) for o in vector)

    def test_bad_pair_named_in_insertion_order(self):
        # the second pair is out of range, the fourth has delay 0
        delays = {(0, 1): 2, (5, 0): 1, (1, 1): 3, (0, 0): 0}
        with pytest.raises(ConfigError, match=r"^delays\[\(5, 0\)\]: unit index out of range"):
            ModelConfig(2, (0.5,), (0.5,), delays)
        # a type error is found before a range error, as before
        delays[(1, 0)] = 1.5
        with pytest.raises(ConfigError, match=r"^delays\[\(1, 0\)\] = 1.5"):
            ModelConfig(2, (0.5,), (0.5,), delays)

    @given(
        configs(allow_empty=True, max_units=5, max_delay=6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_tables_match_the_per_pair_reference(self, cfg, seed):
        items = list(cfg.delays.items())
        random.Random(seed).shuffle(items)
        args = (cfg.n_units, cfg.lambdas, cfg.mus, dict(items), cfg.temperature)
        shuffled = ModelConfig(*args)
        # the reference tables, built pair by pair
        pairs = tuple(sorted(dict(items)))
        pre = np.array([i for i, _ in pairs], dtype=np.int64)
        post = np.array([j for _, j in pairs], dtype=np.int64)
        delay = np.array([dict(items)[p] for p in pairs], dtype=np.int64)
        arr = shuffled.arrays
        for got, want in ((arr.pre, pre), (arr.post, post), (arr.delay, delay)):
            assert got.dtype == np.int64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert shuffled.pairs == pairs
        assert shuffled.pair_index == {p: m for m, p in enumerate(pairs)}
        assert shuffled.max_delay == max(dict(items).values(), default=1)
        lengths = delay - 1
        assert arr.queue_bounds.tolist() == [0, *np.cumsum(lengths).tolist()]
        assert arr.queue_pre.tolist() == [i for (i, _), n in zip(pairs, lengths) if n > 0]
        assert arr.post_k.tolist() == [[j] * cfg.n_lambda for _, j in pairs]
        assert arr.pre_l.tolist() == [[i] * cfg.n_mu for i, _ in pairs]
        assert arr.gamma_post.tolist() == [[j * cfg.n_mu + l for l in range(cfg.n_mu)] for _, j in pairs]
        with pytest.MonkeyPatch.context() as monkeypatch:
            vector_pass_off(monkeypatch)
            per_pair = outcome(*args)
        assert outcome(*args) == per_pair

    def test_wide_config_takes_the_vector_pass(self):
        columns = config_module._pair_columns(RING)
        assert columns is not None and config_module._in_range(columns, 256)
        cfg = ModelConfig(256, (0.5, 0.8), (0.5, 0.8), RING)
        assert cfg.arrays.pre.size == 2048
        assert "pairs" not in cfg.__dict__ and "pair_index" not in cfg.__dict__


class TestLazyPairTables:
    """``pairs`` and ``pair_index`` are built only when asked for."""

    def test_model_use_leaves_the_pair_tables_out(self, rng):
        cfg = ModelConfig(16, (0.5, 0.8), (0.5,), {((j - r) % 16, j): r for j in range(16) for r in (1, 2, 4)})
        series = (rng.random((12, 16)) < 0.3).astype(np.int64)
        params, _ = train(Parameters.zeros(cfg), cfg, [series], TrainerConfig(0.05, epochs=2, mode="online"))
        params, _ = train(params, cfg, [series], TrainerConfig(0.05, epochs=2, mode="full_batch"))
        eval_prediction(params, cfg, series)
        rollout(params, cfg, RolloutConfig(horizon=5, mode="sample", seed=3, primer=series[:4]))
        state = init_state(cfg)
        for x in series:
            state = advance(state, cfg, x)
        text = save_checkpoint(params, cfg, state)
        assert "pair_index" not in cfg.__dict__ and "pairs" not in cfg.__dict__
        _, loaded, _ = load_checkpoint(text)
        assert "pair_index" not in loaded.__dict__ and "pairs" not in loaded.__dict__
        # when asked for, they hold the sorted pairs and their row numbers
        pairs = tuple(sorted(cfg.delays))
        assert loaded.pairs == pairs
        assert loaded.pair_index == {p: m for m, p in enumerate(pairs)}


class TestDerivedArraysReadOnly:
    @given(configs(allow_empty=True))
    @settings(max_examples=10)
    def test_every_table_but_the_bincount_indexes_is_read_only(self, cfg):
        tables = {k: a for k, a in vars(cfg.arrays).items() if isinstance(a, np.ndarray)}
        assert len(tables) == 17
        writeable = {k for k, a in tables.items() if a.flags.writeable}
        assert writeable == set(_DerivedArrays.BINCOUNT_INDEXES)

    def test_in_place_write_raises(self):
        arr = ModelConfig.dense(3).arrays
        with pytest.raises(ValueError, match="read-only"):
            arr.delay[0] = 5
        with pytest.raises(ValueError, match="read-only"):
            arr.lam_k *= 2.0
        assert arr.delay.tolist() == [2] * 9 and arr.lam_k.tolist() == [[0.5]] * 9


class TestParameters:
    def test_zeros_shapes(self):
        cfg = ModelConfig.dense(2, lambdas=(0.5, 0.3), mus=(0.25,))
        p = Parameters.zeros(cfg)
        assert p.bias.shape == (2,)
        assert p.u.shape == (4, 2)
        assert p.v.shape == (4, 1)
        p.validate_for(cfg)

    def test_validate_rejects_wrong_shape(self):
        cfg = ModelConfig.dense(2)
        p = Parameters(np.zeros(3), np.zeros((4, 1)), np.zeros((4, 1)))
        with pytest.raises(ValueError, match="bias"):
            p.validate_for(cfg)

    @pytest.mark.parametrize(
        "banks, named",
        [(["bias"], "bias"), (["u"], "u"), (["v"], "v"), (["v", "u"], "u")],
        ids=["bias", "u", "v", "u-and-v"],
    )
    def test_validate_rejects_non_finite(self, banks, named):
        # the message names the first bank, in theta order, that holds one
        cfg = ModelConfig.dense(2)
        p = Parameters.zeros(cfg)
        for bank in banks:
            getattr(p, bank)[-1] = np.inf
        with pytest.raises(ValueError, match=f"^parameter {named} contains non-finite entries$"):
            p.validate_for(cfg)

    def test_copy_is_independent(self):
        cfg = ModelConfig.dense(2)
        p = Parameters.zeros(cfg)
        q = p.copy()
        q.bias[0] = 5.0
        assert p.bias[0] == 0.0
        assert not np.shares_memory(p.theta, q.theta)
        assert np.shares_memory(q.bias, q.theta) and q.theta[0] == 5.0

    def test_banks_are_views_of_one_theta(self):
        bias, u, v = np.arange(2.0), np.arange(8.0).reshape(4, 2) + 10, np.arange(4.0).reshape(4, 1) + 20
        p = Parameters(bias, u, v)
        assert p.theta.dtype == np.float64 and p.theta.shape == (14,)
        assert np.array_equal(p.theta, np.concatenate([bias.ravel(), u.ravel(), v.ravel()]))
        assert p.shapes == ((2,), (4, 2), (4, 1))
        for bank in (p.bias, p.u, p.v):
            assert np.shares_memory(bank, p.theta)
        p.u[1, 0] = -5.0
        assert p.theta[2 + 2] == -5.0
        p.theta[-1] = 7.0
        assert p.v[3, 0] == 7.0
        bias[0] = 99.0  # the constructor copied its arguments
        assert p.bias[0] == 0.0

    def test_banks_cannot_be_rebound(self):
        p = Parameters.zeros(ModelConfig.dense(2))
        with pytest.raises(AttributeError):
            p.u = np.ones((4, 1))
        with pytest.raises(AttributeError):
            p.theta = np.ones(10)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_copies_keep_banks_as_views(self, clone):
        p = Parameters(np.zeros(2), np.ones((4, 1)), np.full((4, 1), 2.0))
        q = clone(p)
        q.v[0, 0] = 9.0
        assert q.theta[6] == 9.0
        assert np.array_equal(q.theta, np.concatenate([q.bias, q.u.ravel(), q.v.ravel()]))


class TestAsTimeSlice:
    def test_accepts_binary(self):
        out = as_time_slice([0, 1, 1], 3)
        assert out.dtype == np.int64
        assert out.tolist() == [0, 1, 1]

    def test_accepts_float_binary(self):
        assert as_time_slice(np.array([1.0, 0.0]), 2).tolist() == [1, 0]

    @pytest.mark.parametrize("bad", [[0, 2], [0.5, 0], [-1, 0], [np.nan, 0]])
    def test_rejects_non_binary(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            as_time_slice(bad, 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length-3"):
            as_time_slice([0, 1], 3)
