"""Differential tests of the vectorised trace step against brute force.

``advance`` and ``_beta_matrix`` work on the flat queue. Here they are held
to the trace definitions evaluated directly on the history
(``oracle.traces_from_scratch``), to the near-window sum written out lag by
lag, and to the truncated-kernel firing probability (``naive_fire_prob``).
Queue bits must agree exactly. The configs cover mixed delays with delay-1
pairs, configs where every delay is 1, and empty connectivity.

The trace builder of a known series (``learning._TraceBuilder``) is held
to a loop of ``advance`` calls, bit for bit: its feature rows, its end
state, and online training, scoring and full-batch blocks read through it,
across chunk ends; so are a rollout's rows and slices, generated slices
included. The full-batch block scorer is held to the per-step
gradient and log-probability summed along the walk, bit for bit, and so is
the logit scorer behind ``eval_prediction`` and ``sequence_log_likelihood``.
"""

import functools
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dybm import learning
from dybm.config import ModelConfig, Parameters
from dybm.generator import RolloutConfig, eval_prediction, rollout, sample_step
from dybm.learning import Gradient, TrainerConfig, TrainMetrics, sgd_update, step_gradient, train
from dybm.model import (
    _beta_matrix,
    _features,
    advance,
    beta,
    cond_prob,
    expected_footprint,
    fire_probs,
    init_state,
    measured_footprint,
    pack_queue_rows,
    queue_rows,
)
from dybm.oracle import expand_weights, naive_fire_prob, traces_from_scratch, truncation_horizon
from dybm.rng import step_stream

from conftest import configs, histories

MIXED = ModelConfig(
    3,
    (0.5, 0.3),
    (0.4, 0.25),
    {(0, 0): 1, (0, 1): 3, (1, 0): 2, (1, 2): 1, (2, 0): 5, (2, 2): 4},
)
ALL_DELAY_ONE = ModelConfig.dense(3, lambdas=(0.45,), mus=(0.35, 0.2), delay=1)
EMPTY = ModelConfig(3, (0.5,), (0.3,), {})
# one unit: a sum over the step axis of (T, 1) arrays adds pairwise, which
# rounds differently from the per-step loop
ONE_UNIT = ModelConfig(1, (0.6, 0.3), (0.45,), {(0, 0): 3})
# wide enough that numpy sums a slice's 160 unit terms pairwise
RING = ModelConfig(
    160,
    (0.5, 0.8),
    (0.5, 0.8),
    {((j - r) % 160, j): 1 + (r - 1) % 4 for j in range(160) for r in (1, 2, 3)},
)
# 160 units queue two lags each, a wide block summed by row adds; unit 0
# queues 39, alone in a narrow block summed by one accumulate
TWO_RUNS = ModelConfig(
    160,
    (0.5,),
    (0.6, 0.85),
    {((j - r) % 160, j): 3 for j in range(160) for r in (1, 2)} | {(0, 5): 40},
)
# the network of the fullbatch_small benchmark workload
SMALL_DENSE = ModelConfig.dense(3, lambdas=(0.5,), mus=(0.25,), delay=2)
# unit 0 feeds every unit at delay 3 (one (source, delay) key, three
# pairs), unit 1 at delays 1, 4 and 4, and unit 2 only at delay 1
KEYED = ModelConfig(
    3,
    (0.5,),
    (0.6,),
    {(0, 0): 3, (0, 1): 3, (0, 2): 3, (1, 0): 1, (1, 1): 4, (1, 2): 4, (2, 0): 1, (2, 2): 1},
)


def walk(cfg, history):
    state = init_state(cfg)
    for x in history:
        state = advance(state, cfg, x)
    return state


def states(cfg, slices):
    """Each slice with the state before it, from a loop of pure ``advance``
    calls; the state after the last slice is never built."""
    state = init_state(cfg)
    for t, x in enumerate(slices):
        if t:
            state = advance(state, cfg, slices[t - 1])
        yield state, x


def beta_by_definition(cfg, history) -> np.ndarray:
    """beta[m, l] = sum over lag s in [1, d-1] of mus[l]**-s times the
    source value s - 1 steps before the newest slice (zero before the
    history starts)."""
    n = len(history)
    out = np.zeros((cfg.n_pairs, cfg.n_mu))
    for m, (i, j) in enumerate(cfg.pairs):
        for lag in range(1, cfg.delays[(i, j)]):
            if n - lag >= 0 and history[n - lag][i]:
                out[m] += np.asarray(cfg.mus) ** -float(lag)
    return out


def assert_matches_oracle(cfg, history):
    state = walk(cfg, history)
    direct = traces_from_scratch(cfg, list(history))
    assert state.queue.dtype == np.uint8
    np.testing.assert_array_equal(state.queue, direct.queue)
    assert measured_footprint(state, Parameters.zeros(cfg)) == expected_footprint(cfg)
    np.testing.assert_allclose(state.alpha, direct.alpha, rtol=0, atol=1e-10)
    np.testing.assert_allclose(state.gamma, direct.gamma, rtol=0, atol=1e-10)
    want = beta_by_definition(cfg, history)
    got = _beta_matrix(state, cfg)
    assert got.shape == (cfg.n_pairs, cfg.n_mu) and got.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    for m, (i, j) in enumerate(cfg.pairs):
        for ell in range(cfg.n_mu):
            assert beta(state, cfg, i, j, ell) == pytest.approx(want[m, ell], rel=1e-14, abs=0)
    return state


class TestAgainstTraceDefinitions:
    @given(st.data())
    @settings(max_examples=60)
    def test_mixed_delays(self, data):
        cfg = data.draw(configs(max_units=4, max_delay=6, allow_empty=True))
        assert_matches_oracle(cfg, data.draw(histories(cfg, max_len=30)))

    @given(st.data())
    @settings(max_examples=20)
    def test_every_delay_one(self, data):
        cfg = data.draw(configs(max_units=3, max_delay=1))
        state = assert_matches_oracle(cfg, data.draw(histories(cfg, max_len=12)))
        assert state.queue.size == 0

    @pytest.mark.parametrize("cfg", [MIXED, ALL_DELAY_ONE, EMPTY], ids=["mixed", "delay1", "empty"])
    def test_fixed_configs(self, cfg):
        rng = np.random.default_rng(5)
        history = (rng.random((23, cfg.n_units)) < 0.5).astype(np.int64)
        for length in (0, 1, 2, 7, 23):
            assert_matches_oracle(cfg, history[:length])

    def test_beta_is_the_drive_beta_bit_for_bit(self):
        # long segments give dozens of lags per sum, where a dot product
        # and the drive's bincount can round differently
        rng = np.random.default_rng(29)
        for _ in range(20):
            delays = {(i, j): int(rng.integers(1, 40)) for i in range(3) for j in range(3)}
            cfg = ModelConfig(3, (0.5,), tuple(rng.uniform(0.3, 0.95, size=2)), delays)
            state = walk(cfg, (rng.random((60, 3)) < 0.5).astype(np.int64))
            want = _beta_matrix(state, cfg)
            for m, (i, j) in enumerate(cfg.pairs):
                for ell in range(cfg.n_mu):
                    assert beta(state, cfg, i, j, ell) == want[m, ell]

    def test_segments_do_not_leak_into_each_other(self):
        # one spike of unit 2 walks down the (2, 0) queue (delay 5) and
        # arrives after four steps; the neighbouring segments stay empty
        history = [[0, 0, 1]] + [[0, 0, 0]] * 4
        expected = {1: [1, 0, 0, 0], 2: [0, 1, 0, 0], 3: [0, 0, 1, 0], 4: [0, 0, 0, 1]}
        m = MIXED.pair_index[(2, 0)]
        for steps, bits in expected.items():
            state = walk(MIXED, history[:steps])
            rows = queue_rows(MIXED, state.queue)
            assert rows[m] == bits
            assert sum(map(sum, rows)) == 1 + rows[MIXED.pair_index[(2, 2)]].count(1)
        arrived = walk(MIXED, history)
        assert arrived.alpha[m].tolist() == [1.0, 1.0]

    def test_queue_rows_roundtrip(self):
        rng = np.random.default_rng(8)
        state = walk(MIXED, (rng.random((9, 3)) < 0.5).astype(np.int64))
        rows = queue_rows(MIXED, state.queue)
        assert [len(r) for r in rows] == [MIXED.delays[p] - 1 for p in MIXED.pairs]
        packed = pack_queue_rows(MIXED, rows)
        assert packed.dtype == np.uint8
        np.testing.assert_array_equal(packed, state.queue)
        with pytest.raises(ValueError, match="delays"):
            pack_queue_rows(MIXED, rows[:-1])

    @pytest.mark.parametrize(
        "pair, lag, named",
        [((0, 2), 0, (0, 2)), ((0, 1), 1, (0, 1)), ((1, 2), 2, (1, 2)), ((0, 0), 0, (0, 1))],
    )
    def test_pack_refuses_rows_that_disagree(self, pair, lag, named):
        # the near-window trace reads each unit's first longest queue, (0, 0)
        # and (1, 1) in KEYED, so every other queue must agree with it
        rng = np.random.default_rng(9)
        rows = queue_rows(KEYED, walk(KEYED, (rng.random((7, 3)) < 0.5).astype(np.int64)).queue)
        rows[KEYED.pair_index[pair]][lag] ^= 1
        i, j = named
        with pytest.raises(ValueError, match=rf"^pair \({i}, {j}\) disagrees with another queue from unit {i};"):
            pack_queue_rows(KEYED, rows)


def beta_per_pair(cfg, state) -> np.ndarray:
    """The near-window trace summed over each pair's own queue segment, lag
    by lag from 0.0, newest bit (lag 1) first. The coefficients are numpy's
    powers of every queue position's lag in one call, as the model's are:
    numpy rounds the last bit of a power differently for another array
    layout, and so does Python's ``**``."""
    bounds = cfg.arrays.queue_bounds
    lags = np.array([lag for d in cfg.arrays.delay.tolist() for lag in range(1, d)], dtype=np.int64)
    coeff = np.asarray(cfg.mus)[:, None] ** (-lags[None, :])
    out = np.zeros((cfg.n_pairs, cfg.n_mu))
    for m in range(cfg.n_pairs):
        start, stop = bounds[m], bounds[m + 1]
        for ell in range(cfg.n_mu):
            total = 0.0
            for bit, c in zip(state.queue[start:stop].tolist(), coeff[ell, start:stop]):
                total += c * bit
            out[m, ell] = total
    return out


class TestPerSourceBeta:
    """``_beta_matrix`` sums each source unit's lags once and hands every
    pair the partial sum at its delay; that is the per-pair sum, byte for
    byte, on every state a walk reaches."""

    @staticmethod
    def check(cfg, history):
        state = init_state(cfg)
        for x in history:
            got = _beta_matrix(state, cfg)
            assert got.shape == (cfg.n_pairs, cfg.n_mu) and got.dtype == np.float64
            assert got.tobytes() == beta_per_pair(cfg, state).tobytes()
            advance(state, cfg, x, state)

    @given(st.data())
    @settings(max_examples=60)
    def test_walked_states(self, data):
        cfg = data.draw(configs(max_units=4, max_delay=7, max_rates=3, allow_empty=True))
        self.check(cfg, data.draw(histories(cfg, max_len=30)))

    @pytest.mark.parametrize(
        "cfg", [MIXED, KEYED, ALL_DELAY_ONE, EMPTY, ONE_UNIT, RING],
        ids=["mixed", "keyed", "delay1", "empty", "one-unit", "ring"],
    )
    def test_fixed_configs(self, cfg):
        rng = np.random.default_rng(47)
        self.check(cfg, (rng.random((25, cfg.n_units)) < 0.5).astype(np.int64))

    def test_long_delays_several_rates(self):
        # dozens of lags per sum, where another add order would round differently
        rng = np.random.default_rng(53)
        delays = {(i, j): int(rng.integers(1, 40)) for i in range(4) for j in range(4)}
        cfg = ModelConfig(4, (0.5,), tuple(rng.uniform(0.3, 0.95, size=3)), delays)
        self.check(cfg, (rng.random((70, 4)) < 0.5).astype(np.int64))

    def test_row_adds_and_one_accumulate(self):
        cfg = TWO_RUNS
        runs = {shape: accumulates for _, _, shape, accumulates in cfg.arrays.lag_runs}
        assert runs == {(2, 2 * 159): False, (39, 2): True}
        rng = np.random.default_rng(61)
        self.check(cfg, (rng.random((45, 160)) < 0.5).astype(np.int64))

    def test_one_long_delay_among_short_ones(self):
        # the tables grow with the lags each unit queues, not with the
        # longest delay times the number of units: here 999 units queue
        # one lag each and unit 0 queues 69999
        delays = {((j - r) % 1000, j): 2 for j in range(1000) for r in (1, 2)}
        delays[(0, 500)] = 70000
        cfg = ModelConfig(1000, (0.5,), (0.99,), delays)
        arr = cfg.arrays
        terms = 999 + 69999  # distinct (unit, lag) terms, one rate
        assert arr.lag_src.size == arr.lag_coeff.size <= 2 * terms + 1
        tables = (arr.lag_src, arr.lag_coeff, arr.beta_at, arr.lead_start)
        assert sum(a.nbytes for a in tables) < 2 * 16 * terms + 8 * (cfg.n_pairs + cfg.n_units) + 16
        rng = np.random.default_rng(67)
        history = [rng.random(69999) < 0.5] + [rng.random(1) < 0.5 for _ in range(999)]
        rows = [history[i][: d - 1].tolist() for (i, _), d in zip(cfg.pairs, arr.delay.tolist())]
        state = init_state(cfg)
        state.queue[:] = pack_queue_rows(cfg, rows)
        for x in (rng.random((3, 1000)) < 0.5).astype(np.int64):
            assert _beta_matrix(state, cfg).tobytes() == beta_per_pair(cfg, state).tobytes()
            advance(state, cfg, x, state)


def assert_same_state(got, want):
    for name in ("alpha", "gamma", "queue"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.step_count == want.step_count


class TestInPlaceStep:
    """``advance(s, cfg, x, s)`` steps ``s`` itself: bit for bit the pure
    step, and so held to the trace definitions like it."""

    @staticmethod
    def check(cfg, history):
        state, pure = init_state(cfg), init_state(cfg)
        for x in history:
            assert advance(state, cfg, x, state) is state
            pure = advance(pure, cfg, x)
            assert_same_state(state, pure)
        direct = traces_from_scratch(cfg, list(history))
        np.testing.assert_array_equal(state.queue, direct.queue)
        np.testing.assert_allclose(state.alpha, direct.alpha, rtol=0, atol=1e-10)
        np.testing.assert_allclose(state.gamma, direct.gamma, rtol=0, atol=1e-10)

    @given(st.data())
    @settings(max_examples=40)
    def test_mixed_delays(self, data):
        cfg = data.draw(configs(max_units=4, max_delay=6, allow_empty=True))
        self.check(cfg, data.draw(histories(cfg, max_len=30)))

    @given(st.data())
    @settings(max_examples=15)
    def test_every_delay_one(self, data):
        cfg = data.draw(configs(max_units=3, max_delay=1))
        self.check(cfg, data.draw(histories(cfg, max_len=12)))

    @pytest.mark.parametrize("cfg", [MIXED, ALL_DELAY_ONE, EMPTY], ids=["mixed", "delay1", "empty"])
    def test_fixed_configs(self, cfg):
        rng = np.random.default_rng(41)
        self.check(cfg, (rng.random((23, cfg.n_units)) < 0.5).astype(np.int64))


class TestEmptyConnectivity:
    def test_step_is_bias_only(self):
        params = Parameters(np.array([0.3, -1.2, 2.0]), np.zeros((0, 1)), np.zeros((0, 1)))
        state = walk(EMPTY, [[1, 0, 1], [0, 1, 1]])
        assert state.queue.size == 0 and state.alpha.shape == (0, 1)
        assert _beta_matrix(state, EMPTY).shape == (0, 1)
        np.testing.assert_allclose(fire_probs(params, state, EMPTY), 1.0 / (1.0 + np.exp(-params.bias)))
        grad = step_gradient(params, state, EMPTY, [1, 1, 0])
        assert grad.d_u.shape == (0, 1) and grad.d_v.shape == (0, 1)


class TestAgainstTruncatedKernel:
    @pytest.mark.parametrize("cfg", [MIXED, ALL_DELAY_ONE, EMPTY], ids=["mixed", "delay1", "empty"])
    def test_fire_probs_match_naive(self, cfg):
        rng = np.random.default_rng(17)
        params = Parameters(
            bias=rng.normal(0.0, 1.0, size=cfg.n_units),
            u=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_lambda)),
            v=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_mu)),
        )
        horizon = truncation_horizon(cfg, tol=1e-13)
        history = (rng.random((horizon + 20, cfg.n_units)) < 0.5).astype(np.int64)
        expanded = expand_weights(params, cfg, horizon)
        for end in (horizon - 1, horizon + 7, horizon + 20):
            fast = fire_probs(params, walk(cfg, history[:end]), cfg)
            window = list(history[end - (horizon - 1) : end])
            slow = [naive_fire_prob(expanded, params.bias, cfg, window, j) for j in range(cfg.n_units)]
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-10)


def per_step_sums(params, cfg, slices):
    """Gradient, log-likelihood and per-step NLLs, one step at a time."""
    total = Gradient.zeros(cfg)
    ll, nll = 0.0, []
    for state, x in states(cfg, slices):
        log_p = cond_prob(params, state, cfg, x)[1]
        total.add_(step_gradient(params, state, cfg, x))
        ll += log_p
        nll.append(-log_p)
    return total, ll, nll


class TestBlockScorer:
    @pytest.mark.parametrize("block_steps", [None, 4], ids=["one-block", "split"])
    @pytest.mark.parametrize(
        "cfg", [MIXED, ALL_DELAY_ONE, EMPTY, ONE_UNIT], ids=["mixed", "delay1", "empty", "one-unit"]
    )
    def test_matches_per_step_sums_bit_for_bit(self, cfg, block_steps, monkeypatch):
        if block_steps is not None:
            monkeypatch.setattr(learning, "_FEATURE_BYTES", block_steps * learning._step_bytes(cfg))
        rng = np.random.default_rng(11)
        params = Parameters(
            bias=rng.normal(0.0, 1.0, size=cfg.n_units),
            u=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_lambda)),
            v=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_mu)),
        )
        slices = (rng.random((37, cfg.n_units)) < 0.5).astype(np.int64)
        blocks = list(learning._blocks(cfg, [slices], learning._block_steps(cfg)))
        assert len(blocks) == (1 if block_steps is None else 10)
        nll = []
        grad, ll = learning._sequence_grad_ll(params, cfg, blocks, nll)
        want, want_ll, want_nll = per_step_sums(params, cfg, slices)
        public = learning.sequence_gradient(params, cfg, slices)
        for got in (grad, public):
            assert np.array_equal(got.d_bias, want.d_bias)
            assert np.array_equal(got.d_u, want.d_u)
            assert np.array_equal(got.d_v, want.d_v)
        assert ll == want_ll
        assert nll == want_nll

    @pytest.mark.parametrize(
        "cfg", [MIXED, ALL_DELAY_ONE, EMPTY, ONE_UNIT], ids=["mixed", "delay1", "empty", "one-unit"]
    )
    def test_one_slice_gradient_theta_is_the_block_row(self, cfg):
        # a block row is laid out as Gradient.theta followed by log p; with
        # one step there is nothing to sum, so the two agree exactly, and
        # each row of a longer block is its step scored alone, bit for bit
        rng = np.random.default_rng(5)
        params = Parameters(
            bias=rng.normal(0.0, 1.0, size=cfg.n_units),
            u=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_lambda)),
            v=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_mu)),
        )

        def score(slices):
            block = next(learning._blocks(cfg, [slices], len(slices)))
            out = np.empty((len(slices), cfg.arrays.n_params + 1))
            return learning._grad_logp(params, cfg, block, out)

        x = (rng.random((1, cfg.n_units)) < 0.5).astype(np.int64)
        row = score(x)[0]
        grad = learning.sequence_gradient(params, cfg, x)
        assert np.array_equal(grad.theta, row[:-1])
        assert grad.shapes == params.shapes

        slices = (rng.random((9, cfg.n_units)) < 0.5).astype(np.int64)
        rows = score(slices)
        for row, (state, x) in zip(rows, states(cfg, slices), strict=True):
            grad = step_gradient(params, state, cfg, x)
            assert grad.theta.tobytes() == row[:-1].tobytes()
            assert np.float64(cond_prob(params, state, cfg, x)[1]).tobytes() == row[-1].tobytes()


class TestDatasetBlockStream:
    """Full-batch training scores the dataset as one block stream that
    crosses series ends. With the budget patched to a few steps, blocks
    hold the ends and starts of several series, a series spans several
    blocks, and one-slice series fall at block starts, inside blocks and at
    block ends; training must still be the per-step loop that adds every
    step to one dataset total in walk order, bit for bit."""

    LENGTHS = (1, 9, 1, 14, 1, 6, 1)  # series start at rows 0, 1, 10, 11, 25, 26, 32
    EPOCHS = 3
    RATE = 0.05

    @staticmethod
    def per_step_train(params, cfg, dataset, rate, epochs):
        metrics = TrainMetrics()
        for _ in range(epochs):
            total, epoch_ll = Gradient.zeros(cfg), 0.0
            for slices in dataset:
                for state, x in states(cfg, slices):
                    log_p = cond_prob(params, state, cfg, x)[1]
                    total.add_(step_gradient(params, state, cfg, x))
                    epoch_ll += log_p
                    metrics.step_nll.append(-log_p)
            params = sgd_update(params, total, rate)
            metrics.grad_norms.append(total.norm())
            metrics.epoch_log_likelihood.append(epoch_ll)
        return params, metrics

    @pytest.mark.parametrize("block_steps", [None, 1, 3, 4, 5], ids=["kept", "1", "3", "4", "5"])
    @pytest.mark.parametrize(
        "cfg", [MIXED, ALL_DELAY_ONE, EMPTY, ONE_UNIT], ids=["mixed", "delay1", "empty", "one-unit"]
    )
    def test_train_matches_per_step_loop_bit_for_bit(self, cfg, block_steps, monkeypatch):
        rng = np.random.default_rng(31)
        params = Parameters(
            bias=rng.normal(0.0, 1.0, size=cfg.n_units),
            u=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_lambda)),
            v=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_mu)),
        )
        dataset = [(rng.random((t, cfg.n_units)) < 0.5).astype(np.int64) for t in self.LENGTHS]
        if block_steps is not None:
            monkeypatch.setattr(learning, "_FEATURE_BYTES", block_steps * learning._step_bytes(cfg))
            starts = np.cumsum((0,) + self.LENGTHS[:-1])
            assert block_steps == 1 or any(starts % block_steps)  # some series starts inside a block
        got, metrics = train(params, cfg, dataset, TrainerConfig(self.RATE, epochs=self.EPOCHS))
        want, expected = self.per_step_train(params, cfg, dataset, self.RATE, self.EPOCHS)
        assert got.theta.tobytes() == want.theta.tobytes()
        assert metrics.step_nll == expected.step_nll
        assert metrics.epoch_log_likelihood == expected.epoch_log_likelihood
        assert metrics.grad_norms == expected.grad_norms

    def test_one_scorer_call_per_epoch_when_the_dataset_fits(self, monkeypatch):
        calls = []
        grad_logp = learning._grad_logp

        def counted(*args):
            calls.append(1)
            return grad_logp(*args)

        monkeypatch.setattr(learning, "_grad_logp", counted)
        rng = np.random.default_rng(2)
        dataset = [(rng.random((t, MIXED.n_units)) < 0.5).astype(np.int64) for t in self.LENGTHS]
        train(Parameters.zeros(MIXED), MIXED, dataset, TrainerConfig(self.RATE, epochs=self.EPOCHS))
        assert len(calls) == self.EPOCHS


class TestBlocksFromSeries:
    """``_blocks`` fills its rows from the series itself, not by stepping a
    queue; every row must hold the slice and the features of the state a
    loop of ``advance`` calls reaches, bit for bit, whether the rows are kept in one block
    or cut into blocks of a few steps, so that the traces carry across
    block ends and one-slice series fall at block starts and ends."""

    LENGTHS = (1, 9, 1, 14, 1, 6, 1)  # series start at rows 0, 1, 10, 11, 25, 26, 32

    @staticmethod
    def assert_rows_match_walk(cfg, dataset, max_steps):
        want = [
            (x.tobytes(), f.alpha.tobytes(), f.beta.tobytes(), f.gamma_post.tobytes())
            for slices in dataset
            for f, x in ((_features(state, cfg), x) for state, x in states(cfg, slices))
        ]
        got = []
        for block in learning._blocks(cfg, dataset, max_steps):
            assert len(block.x) <= max_steps
            got.extend(zip(*(
                [row.tobytes() for row in a] for a in (block.x, block.alpha, block.beta, block.gamma_post)
            )))
        assert got == want

    @pytest.mark.parametrize("max_steps", [None, 1, 3, 5], ids=["kept", "1", "3", "5"])
    @pytest.mark.parametrize(
        "cfg",
        [MIXED, ALL_DELAY_ONE, EMPTY, ONE_UNIT, RING],
        ids=["mixed", "delay1", "empty", "one-unit", "ring"],  # the ring's wide blocks add row by row
    )
    def test_rows_match_walk_bit_for_bit(self, cfg, max_steps):
        rng = np.random.default_rng(41)
        dataset = [(rng.random((t, cfg.n_units)) < 0.5).astype(np.int64) for t in self.LENGTHS]
        if max_steps is not None:  # a one-slice series starts or ends a block
            rows = np.cumsum((0,) + self.LENGTHS[:-1])[np.array(self.LENGTHS) == 1]
            assert any(rows % max_steps == 0) or any((rows + 1) % max_steps == 0)
        self.assert_rows_match_walk(cfg, dataset, max_steps or sum(self.LENGTHS))

    @settings(max_examples=60)
    @given(
        configs(max_units=4, max_delay=9, allow_empty=True),
        st.lists(st.integers(1, 12), min_size=1, max_size=5),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_random_configs_up_to_delay_9(self, cfg, lengths, max_steps, seed):
        rng = np.random.default_rng(seed)
        dataset = [(rng.random((t, cfg.n_units)) < 0.5).astype(np.int64) for t in lengths]
        self.assert_rows_match_walk(cfg, dataset, max_steps)

    def test_memory_does_not_grow_with_delay_times_units(self):
        # 512 units at delay 2 plus one pair at delay 20,000: a history of
        # every unit as far back as the longest delay would take 10 MB even
        # as bytes. Every route reads each unit only as far back as its own
        # longest queue: ``_blocks`` holds the block it fills (and the one
        # before, until that is released), and the trace builder holds its
        # tables and buffers, a few arrays the size of a chunk's rows plus,
        # as a walk's state does, each unit's history and one step's
        # near-window table. Online training and scoring read the builder's
        # own chunks of ``_block_steps`` rows (two of them here).
        n, steps = 512, 40
        delays = {(i, i): 2 for i in range(n)}
        delays[(0, 1)] = 20_000
        series = (np.random.default_rng(2).random((3 * steps, n)) < 0.5).astype(np.int64)

        def peak(route):
            cfg = ModelConfig(n, (0.5,), (0.99,), delays)
            cfg.arrays  # each route builds its own chunk tables, traced
            tracemalloc.start()
            try:
                return cfg, route(cfg), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def blocks(cfg):
            block_bytes = 0
            for block in learning._blocks(cfg, [series], steps):
                block_bytes = max(block_bytes, sum(a.nbytes for a in vars(block).values()))
                del block
            return block_bytes

        cfg, block_bytes, got = peak(blocks)
        state_bytes = 8 * (cfg.arrays.queue_bounds[-1] + cfg.arrays.lag_coeff.size)
        assert got <= 2 * block_bytes + 4 * 8 * n * steps + 4 * state_bytes
        chunk_bytes = learning._block_steps(cfg) * learning._step_bytes(cfg)
        assert learning._block_steps(cfg) < len(series) < 2 * learning._block_steps(cfg)
        trainer = TrainerConfig(1e-3, epochs=1, mode="online")
        for route in (
            lambda cfg: train(Parameters.zeros(cfg), cfg, [series], trainer),
            lambda cfg: learning.sequence_log_likelihood(Parameters.zeros(cfg), cfg, series),
        ):
            assert peak(route)[2] <= 4 * chunk_bytes + 4 * state_bytes


class TestAddInOrder:
    """The full-batch sums add every step to one running total in step
    order, as a per-step loop does."""

    @staticmethod
    def per_step(rows, total):
        for row in rows:
            total = total + row
        return total

    @pytest.mark.parametrize(
        "steps, width", [(100_000, 2), (100_000, 3), (10_000, 22), (100, 8449)], ids=str
    )
    def test_rows_add_one_at_a_time(self, steps, width):
        rng = np.random.default_rng(width)
        rows = rng.normal(0.0, 1.0, size=(steps, width)) * 10.0 ** rng.integers(-8, 8, size=(steps, 1))
        total = rng.normal(0.0, 1.0, size=width)
        want = self.per_step(rows, total)
        assert learning._add_in_order(rows.copy(), total).tobytes() == want.tobytes()

    def test_one_number_per_step_adds_in_order(self):
        # a 1-D sum is pairwise in numpy; this data rounds differently that way
        rng = np.random.default_rng(3)
        rows = rng.normal(0.0, 1.0, size=1000) * 10.0 ** rng.integers(-8, 8, size=1000)
        want = self.per_step(rows, 0.5)
        pairwise = np.add.reduce(np.concatenate(([0.5], rows)))
        assert pairwise != want
        assert learning._add_in_order(rows.copy(), 0.5) == want


class TestOnlineStep:
    """Online ``train`` steps one state and its own copy of the parameters
    in place; it must still be the loop of pure public calls below, bit for
    bit, and leave the caller's parameters alone."""

    LENGTHS = (1, 9, 5, 1, 12)
    RATE = 0.05

    @staticmethod
    def pure_train(params, cfg, dataset, trainer):
        metrics, records, step = TrainMetrics(), [], 0
        rng = None if trainer.shuffle_seed is None else np.random.Generator(
            np.random.Philox(trainer.shuffle_seed)
        )
        for epoch in range(trainer.epochs):
            order, epoch_ll = list(range(len(dataset))), 0.0
            if rng is not None:
                rng.shuffle(order)
            for index in order:
                state = init_state(cfg)
                for t, x in enumerate(dataset[index]):
                    if t:
                        state = advance(state, cfg, dataset[index][t - 1])
                    grad = step_gradient(params, state, cfg, x)
                    log_p = cond_prob(params, state, cfg, x)[1]
                    params = sgd_update(params, grad, trainer.learning_rate)
                    step += 1
                    metrics.grad_norms.append(grad.norm())
                    metrics.step_nll.append(-log_p)
                    records.append(
                        {"epoch": epoch, "step": step, "log_likelihood": log_p,
                         "grad_norm": metrics.grad_norms[-1]}
                    )
                    epoch_ll += log_p
            metrics.epoch_log_likelihood.append(epoch_ll)
        return params, metrics, records

    @pytest.mark.parametrize("shuffle_seed", [None, 7], ids=["in-order", "shuffled"])
    @pytest.mark.parametrize("epochs", [1, 2, 3])
    @pytest.mark.parametrize(
        "cfg", [MIXED, ALL_DELAY_ONE, EMPTY, ONE_UNIT], ids=["mixed", "delay1", "empty", "one-unit"]
    )
    def test_matches_pure_public_loop_bit_for_bit(self, cfg, epochs, shuffle_seed):
        rng = np.random.default_rng(53)
        params = Parameters(
            bias=rng.normal(0.0, 1.0, size=cfg.n_units),
            u=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_lambda)),
            v=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_mu)),
        )
        before = params.theta.tobytes()
        dataset = [(rng.random((t, cfg.n_units)) < 0.5).astype(np.int64) for t in self.LENGTHS]
        trainer = TrainerConfig(self.RATE, epochs, mode="online", shuffle_seed=shuffle_seed)
        records = []
        got, metrics = train(params, cfg, dataset, trainer, records.append)
        assert params.theta.tobytes() == before
        want, expected, want_records = self.pure_train(params, cfg, dataset, trainer)
        assert got.theta.tobytes() == want.theta.tobytes()
        assert metrics.step_nll == expected.step_nll
        assert metrics.grad_norms == expected.grad_norms
        assert metrics.epoch_log_likelihood == expected.epoch_log_likelihood
        for record in records:
            del record["wall_ms"]
        assert records == want_records


class TestTraceBuilder:
    """The trace builder fills a known series' rows a chunk at a time into
    buffers it reuses, and online training, scoring and rollout primers
    read it. The rows, the state after the last slice, online training and
    scoring must be the loop of ``advance`` calls', bit for bit, for series
    of 1, C - 1, C, C + 1 and 3C + 2 slices, where C is the chunk the
    builder picks for a long series: with a budget of five steps' features,
    or the default budget for the ring (53 steps). With five steps,
    ``TWO_RUNS`` sums its β in sub-chunks of four rows, through both a
    row-add block and an accumulate block in one call."""

    CONFIGS = pytest.mark.parametrize(
        "cfg", [MIXED, ALL_DELAY_ONE, EMPTY, ONE_UNIT, RING, TWO_RUNS],
        ids=["mixed", "delay1", "empty", "one-unit", "ring", "two-runs"],
    )

    @staticmethod
    def series(cfg, monkeypatch):
        if cfg is not RING:
            monkeypatch.setattr(learning, "_CHUNK_BYTES", 5 * learning._step_bytes(cfg))
        c = learning._block_steps(cfg)
        assert c == (5 if cfg is not RING else 53)
        rng = np.random.default_rng(c)
        return [(rng.random((t, cfg.n_units)) < 0.4).astype(np.int64) for t in (1, c - 1, c, c + 1, 3 * c + 2)]

    @CONFIGS
    def test_end_state_is_the_advance_loops(self, cfg, monkeypatch):
        for slices in self.series(cfg, monkeypatch):
            assert_same_state(learning._end_state(cfg, slices), walk(cfg, slices))

    @CONFIGS
    def test_rows_are_the_advance_loops(self, cfg, monkeypatch):
        for slices in self.series(cfg, monkeypatch):
            want = [
                (x.tobytes(), f.alpha.tobytes(), f.beta.tobytes(), f.gamma_post.tobytes())
                for f, x in ((_features(state, cfg), x) for state, x in states(cfg, slices))
            ]
            got = []
            with learning._builder(cfg, learning._block_steps(cfg)) as builder:
                for chunk in builder.chunks(slices):
                    got += [tuple(row.tobytes() for row in rows) for rows in zip(*chunk)]
                    # one index array serves both when the rate counts agree
                    f = builder.rows(*chunk)
                    assert (f.post_l is f.post_k) == (cfg.n_mu == cfg.n_lambda)
            assert got == want

    @CONFIGS
    def test_online_train_is_the_public_loop(self, cfg, monkeypatch):
        rng = np.random.default_rng(59)
        params = Parameters(
            bias=rng.normal(0.0, 1.0, size=cfg.n_units),
            u=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_lambda)),
            v=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_mu)),
        )
        trainer = TrainerConfig(0.05, epochs=1, mode="online")
        for slices in self.series(cfg, monkeypatch):
            got, metrics = train(params, cfg, [slices], trainer)
            want, expected, _ = TestOnlineStep.pure_train(params, cfg, [slices], trainer)
            assert got.theta.tobytes() == want.theta.tobytes()
            assert metrics.step_nll == expected.step_nll

    @CONFIGS
    def test_scores_are_the_chained_cond_probs(self, cfg, monkeypatch):
        rng = np.random.default_rng(61)
        params = Parameters(
            bias=rng.normal(0.0, 1.0, size=cfg.n_units),
            u=rng.normal(0.0, 0.5, size=(cfg.n_pairs, cfg.n_lambda)),
            v=rng.normal(0.0, 0.5, size=(cfg.n_pairs, cfg.n_mu)),
        )
        for slices in self.series(cfg, monkeypatch):
            chained, correct = 0.0, 0
            for state, x in states(cfg, slices):
                chained += cond_prob(params, state, cfg, x)[1]
                correct += int(np.sum((fire_probs(params, state, cfg) > 0.5) == x))
            assert learning._score(params, cfg, slices) == (chained, correct)

    def test_a_nested_use_gets_its_own_buffers(self):
        # a training record sink may score on the model's own config
        # while the training builder's chunk is still being read
        rng = np.random.default_rng(67)
        slices = (rng.random((12, MIXED.n_units)) < 0.5).astype(np.int64)
        with learning._builder(MIXED, 4) as outer:
            chunk = next(outer.chunks(slices))
            before = [a.tobytes() for a in chunk]
            with learning._builder(MIXED, 4) as inner:
                assert inner is not outer
                list(inner.chunks(slices[::-1]))
            assert [a.tobytes() for a in chunk] == before
        with learning._builder(MIXED, 4) as again:
            assert again is inner  # the spare kept for the next use


class TestRolloutBuilder:
    """A rollout steps the trace builder through its primer and then through
    each slice it generates (``_TraceBuilder.extend``). Its rows and its
    slices must be those of the chained ``sample_step`` or argmax and
    ``advance`` calls, bit for bit, for primers of 0, 1, C - 1, C and C + 1
    slices and horizons of 1, C and 2C + 1 slices, with a budget of five
    steps' features (C = 5), so primer and horizon each cross chunk ends."""

    CONFIGS = pytest.mark.parametrize(
        "cfg", [MIXED, ALL_DELAY_ONE, EMPTY, ONE_UNIT, TWO_RUNS],
        ids=["mixed", "delay1", "empty", "one-unit", "two-runs"],
    )

    @staticmethod
    def cases(cfg, monkeypatch):
        monkeypatch.setattr(learning, "_CHUNK_BYTES", 5 * learning._step_bytes(cfg))
        c = learning._block_steps(cfg)
        assert c == 5
        rng = np.random.default_rng(71)
        params = Parameters(
            bias=rng.normal(0.0, 1.0, size=cfg.n_units),
            u=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_lambda)),
            v=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_mu)),
        )
        for p in (0, 1, c - 1, c, c + 1):
            for horizon in (1, c, 2 * c + 1):
                yield params, (rng.random((p, cfg.n_units)) < 0.4).astype(np.int64), horizon

    @CONFIGS
    def test_rows_are_the_advance_loops(self, cfg, monkeypatch):
        for _, primer, horizon in self.cases(cfg, monkeypatch):
            out = (np.random.default_rng(horizon).random((horizon, cfg.n_units)) < 0.4).astype(np.int64)
            state = walk(cfg, primer)
            with learning._builder(cfg, learning._block_steps(cfg, len(primer) or horizon)) as builder:
                for k, rows in enumerate(builder.extend(primer, out)):
                    f = _features(state, cfg)
                    assert [a.tobytes() for a in rows] == [a.tobytes() for a in (f.alpha, f.beta, f.gamma_post)]
                    state = advance(state, cfg, out[k])
            assert k == horizon - 1

    @CONFIGS
    @pytest.mark.parametrize("mode", ["sample", "argmax"])
    def test_rollout_is_the_chained_steps(self, cfg, mode, monkeypatch):
        for params, primer, horizon in self.cases(cfg, monkeypatch):
            roll = RolloutConfig(horizon, mode, seed=horizon, primer=primer if len(primer) else None)
            state, want = walk(cfg, primer), []
            for t in range(horizon):
                if mode == "sample":
                    want.append(sample_step(params, state, cfg, step_stream(horizon, t)))
                else:
                    want.append((fire_probs(params, state, cfg) > 0.5).astype(np.int64))
                state = advance(state, cfg, want[-1])
            got = rollout(params, cfg, roll)
            assert got.dtype == np.int64 and got.tobytes() == np.array(want).tobytes()


class TestEpochLogLikelihood:
    """Whatever the mode, an epoch's log-likelihood is the in-order sum of
    the step NLLs the same run reports, negated. The fold is written out:
    from Python 3.12 ``sum`` compensates float sums."""

    @pytest.mark.parametrize("mode", ["full_batch", "online"])
    @pytest.mark.parametrize(
        "cfg, lengths",
        [(MIXED, TestDatasetBlockStream.LENGTHS), (SMALL_DENSE, (48,) * 4)],
        ids=["mixed", "fullbatch-small"],
    )
    def test_is_the_in_order_sum_of_the_step_nlls(self, cfg, lengths, mode):
        rng = np.random.default_rng(41)
        params = Parameters(
            bias=rng.normal(0.0, 1.0, size=cfg.n_units),
            u=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_lambda)),
            v=rng.normal(0.0, 1.0, size=(cfg.n_pairs, cfg.n_mu)),
        )
        dataset = [(rng.random((t, cfg.n_units)) < 0.4).astype(np.int64) for t in lengths]
        _, metrics = train(params, cfg, dataset, TrainerConfig(1e-3, epochs=4, mode=mode))
        steps = sum(lengths)
        for epoch, ll in enumerate(metrics.epoch_log_likelihood):
            nll = metrics.step_nll[epoch * steps : (epoch + 1) * steps]
            assert ll == functools.reduce(operator.add, (-v for v in nll), 0.0)


class TestLogitScorer:
    """``eval_prediction`` and ``sequence_log_likelihood`` score stacked
    logits a block at a time; the totals must still be the per-step chain.
    Several series, because a sum in another order often rounds the same."""

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(23)
        params = Parameters(
            bias=rng.normal(-0.5, 1.0, size=RING.n_units),
            u=rng.normal(0.0, 0.5, size=(RING.n_pairs, RING.n_lambda)),
            v=rng.normal(0.0, 0.5, size=(RING.n_pairs, RING.n_mu)),
        )
        return params, (rng.random((6, 24, RING.n_units)) < 0.3).astype(np.int64)

    @pytest.mark.parametrize("block_steps", [None, 3], ids=["one-block", "blocks-of-3"])
    def test_matches_chained_cond_prob(self, case, block_steps, monkeypatch):
        params, dataset = case
        if block_steps is not None:
            monkeypatch.setattr(learning, "_FEATURE_BYTES", block_steps * learning._step_bytes(RING))
            assert learning._block_steps(RING) == block_steps
        for series in dataset:
            chained, correct = 0.0, 0
            state = init_state(RING)
            for x in series:
                chained += cond_prob(params, state, RING, x)[1]
                correct += int(np.sum((fire_probs(params, state, RING) > 0.5) == x))
                state = advance(state, RING, x)
            scores = eval_prediction(params, RING, series)
            assert scores.log_likelihood == chained
            assert learning.sequence_log_likelihood(params, RING, series) == chained
            assert scores.accuracy == correct / series.size
            assert scores.nll_per_bit == -chained / series.size
