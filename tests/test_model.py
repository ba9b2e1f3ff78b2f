import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dybm.config import ModelConfig, Parameters
from dybm.model import (
    _features,
    _log_probs,
    _Scratch,
    _sigmoid,
    advance,
    beta,
    cond_prob,
    expected_footprint,
    fire_prob,
    fire_probs,
    init_state,
    measured_footprint,
    queue_rows,
    unit_energy,
)
from dybm.oracle import traces_from_scratch

from conftest import add_then_decay_advance, configs, configs_with_params, histories


def single_unit_config(delay=3, lam=0.5, mu=0.5, temperature=1.0):
    return ModelConfig(1, (lam,), (mu,), {(0, 0): delay}, temperature)


class TestInitState:
    def test_zero_padding(self):
        cfg = single_unit_config(delay=3)
        st0 = init_state(cfg)
        assert np.all(st0.alpha == 0.0)
        assert np.all(st0.gamma == 0.0)
        assert queue_rows(cfg, st0.queue) == [[0, 0]]
        assert st0.step_count == 0

    def test_delay_one_queues_empty(self):
        cfg = ModelConfig.dense(2, delay=1)
        st0 = init_state(cfg)
        assert all(q == [] for q in queue_rows(cfg, st0.queue))

    @given(configs())
    def test_fresh_beta_is_zero(self, cfg):
        st0 = init_state(cfg)
        for i, j in cfg.pairs:
            for ell in range(cfg.n_mu):
                assert beta(st0, cfg, i, j, ell) == 0.0


    def test_states_and_features_compare_by_identity(self):
        # their fields are arrays, so a field-wise == could not give one truth value
        cfg = ModelConfig.dense(2)
        state = init_state(cfg)
        assert state == state and state != state.copy()
        assert len({state, state.copy()}) == 2
        features = _features(state, cfg)
        assert features == features and features != _features(state, cfg)
        assert len({features, _features(state, cfg)}) == 2


class TestAdvance:
    def test_hand_worked_four_step_history(self):
        # frozen from direct evaluation of the trace definitions on the
        # history 1,0,0,0 with delay 3 and both rates one half
        cfg = single_unit_config(delay=3, lam=0.5, mu=0.5)
        state = init_state(cfg)
        for s in ([1], [0], [0], [0]):
            state = advance(state, cfg, s)
        assert state.alpha[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert state.gamma[0, 0] == pytest.approx(0.0625, abs=1e-15)
        assert queue_rows(cfg, state.queue) == [[0, 0]]
        assert beta(state, cfg, 0, 0, 0) == 0.0
        assert state.step_count == 4

    def test_all_zero_slice_is_pure_decay(self):
        cfg = ModelConfig.dense(2, lambdas=(0.7,), mus=(0.4,), delay=1)
        state = init_state(cfg)
        state.alpha[:] = [[1.0], [2.0], [3.0], [4.0]]
        state.gamma[:] = [[1.0], [0.5]]
        nxt = advance(state, cfg, [0, 0])
        np.testing.assert_allclose(nxt.alpha, state.alpha * 0.7)
        np.testing.assert_allclose(nxt.gamma, state.gamma * 0.4)

    def test_delay_one_new_spike_enters_with_unit_weight(self):
        cfg = ModelConfig(1, (0.5,), (0.5,), {(0, 0): 1})
        state = advance(init_state(cfg), cfg, [1])
        assert state.alpha[0, 0] == 1.0

    def test_advance_does_not_mutate_input(self):
        cfg = single_unit_config()
        state = init_state(cfg)
        advance(state, cfg, [1])
        assert np.all(state.alpha == 0.0)
        assert queue_rows(cfg, state.queue) == [[0, 0]]
        assert state.step_count == 0

    def test_rejects_wrong_length(self):
        cfg = ModelConfig.dense(2)
        with pytest.raises(ValueError):
            advance(init_state(cfg), cfg, [1, 0, 1])

    @given(configs_with_params(max_units=3, max_delay=6))
    @settings(max_examples=30)
    def test_recursion_equals_definition(self, cfg_params):
        cfg, _ = cfg_params
        rng = np.random.default_rng(cfg.n_pairs * 101 + cfg.max_delay)
        history = (rng.random((17, cfg.n_units)) < 0.5).astype(np.int64)
        state = init_state(cfg)
        for x in history:
            state = advance(state, cfg, x)
        direct = traces_from_scratch(cfg, list(history))
        np.testing.assert_allclose(state.alpha, direct.alpha, atol=1e-9)
        np.testing.assert_allclose(state.gamma, direct.gamma, atol=1e-9)
        np.testing.assert_array_equal(state.queue, direct.queue)

    def test_faulty_variant_breaks_equivalence(self):
        cfg = single_unit_config(delay=2)
        history = [[1], [1], [0]]
        state = init_state(cfg)
        for x in history:
            state = add_then_decay_advance(state, cfg, x)
        direct = traces_from_scratch(cfg, history)
        assert abs(state.alpha[0, 0] - direct.alpha[0, 0]) > 0.1


class TestBeta:
    def test_growing_coefficients(self):
        # queue (1, 1) at delay 3, rate one half: 1/mu + 1/mu**2 = 6
        cfg = single_unit_config(delay=3, mu=0.5)
        state = init_state(cfg)
        state.queue[:] = [1, 1]
        assert beta(state, cfg, 0, 0, 0) == pytest.approx(6.0)

    def test_delay_one_empty_sum(self):
        cfg = ModelConfig(1, (0.5,), (0.9,), {(0, 0): 1})
        assert beta(init_state(cfg), cfg, 0, 0, 0) == 0.0

    def test_zero_queue(self):
        cfg = single_unit_config(delay=5)
        assert beta(init_state(cfg), cfg, 0, 0, 0) == 0.0

    def test_unconnected_pair_rejected(self):
        cfg = ModelConfig(2, (0.5,), (0.5,), {(0, 1): 2})
        with pytest.raises(ValueError, match="not connected"):
            beta(init_state(cfg), cfg, 1, 0, 0)

    def test_recomputed_fresh_each_call(self):
        cfg = single_unit_config(delay=3, mu=0.5)
        state = init_state(cfg)
        state.queue[:] = [1, 0]
        first = beta(state, cfg, 0, 0, 0)
        state.queue[:] = [0, 1]
        second = beta(state, cfg, 0, 0, 0)
        assert (first, second) == (2.0, 4.0)


class TestUnitEnergy:
    def test_silence_has_zero_energy(self):
        cfg = single_unit_config()
        params = Parameters(np.array([3.7]), np.ones((1, 1)), np.ones((1, 1)))
        state = init_state(cfg)
        state.alpha[0, 0] = 2.0
        assert unit_energy(params, state, cfg, 0, 0) == 0.0

    def test_zero_params_zero_energy(self):
        cfg = ModelConfig.dense(3)
        assert unit_energy(Parameters.zeros(cfg), init_state(cfg), cfg, 1, 1) == 0.0

    def test_hand_worked_value(self):
        # b=2, one self pair with u=1 and arrival trace 0.5, v terms zero
        cfg = single_unit_config()
        params = Parameters(np.array([2.0]), np.array([[1.0]]), np.zeros((1, 1)))
        state = init_state(cfg)
        state.alpha[0, 0] = 0.5
        assert unit_energy(params, state, cfg, 0, 1) == pytest.approx(-2.5)

    def test_zero_history_depends_only_on_bias(self):
        cfg = ModelConfig.dense(2, lambdas=(0.3, 0.6), mus=(0.2,), delay=4)
        rng = np.random.default_rng(3)
        params = Parameters(
            bias=np.array([0.7, -1.2]),
            u=rng.normal(size=(4, 2)),
            v=rng.normal(size=(4, 1)),
        )
        state = init_state(cfg)
        assert unit_energy(params, state, cfg, 0, 1) == pytest.approx(-0.7)
        assert unit_energy(params, state, cfg, 1, 1) == pytest.approx(1.2)


class TestFireProb:
    def test_zero_params_is_half(self):
        cfg = ModelConfig.dense(2)
        assert fire_prob(Parameters.zeros(cfg), init_state(cfg), cfg, 0) == 0.5

    def test_log3_bias(self):
        cfg = single_unit_config()
        params = Parameters(np.array([math.log(3.0)]), np.zeros((1, 1)), np.zeros((1, 1)))
        assert fire_prob(params, init_state(cfg), cfg, 0) == pytest.approx(0.75, abs=1e-15)

    def test_temperature_scaling(self):
        # frozen: sigmoid(1/2) = 0.6224593312018546
        cfg = single_unit_config(temperature=2.0)
        params = Parameters(np.array([1.0]), np.zeros((1, 1)), np.zeros((1, 1)))
        assert fire_prob(params, init_state(cfg), cfg, 0) == pytest.approx(
            0.6224593312018546, abs=1e-15
        )

    @pytest.mark.parametrize("b", [-1e6, -500.0, 500.0, 1e6])
    def test_extreme_drives_do_not_overflow(self, b):
        cfg = single_unit_config()
        params = Parameters(np.array([b]), np.zeros((1, 1)), np.zeros((1, 1)))
        p = fire_prob(params, init_state(cfg), cfg, 0)
        assert 0.0 <= p <= 1.0
        assert math.isfinite(p)

    @given(configs_with_params(scale=1.0))
    def test_complement_sums_to_one_exactly(self, cfg_params):
        cfg, params = cfg_params
        p = fire_prob(params, init_state(cfg), cfg, 0)
        assert p + (1.0 - p) == 1.0
        assert 0.0 < p < 1.0

    def test_bias_monotonicity(self):
        cfg = ModelConfig.dense(2, delay=3)
        rng = np.random.default_rng(8)
        params = Parameters(
            bias=np.zeros(2),
            u=rng.normal(size=(4, 1)),
            v=rng.normal(size=(4, 1)),
        )
        state = init_state(cfg)
        for x in ([1, 0], [0, 1], [1, 1]):
            state = advance(state, cfg, x)
        baseline = fire_prob(params, state, cfg, 0)
        bumped = params.copy()
        bumped.bias[0] += 0.25
        assert fire_prob(bumped, state, cfg, 0) > baseline

    def test_potentiation_monotonicity_with_positive_trace(self):
        cfg = single_unit_config(delay=1)
        state = advance(init_state(cfg), cfg, [1])
        assert state.alpha[0, 0] > 0
        weak = Parameters(np.zeros(1), np.array([[0.1]]), np.zeros((1, 1)))
        strong = Parameters(np.zeros(1), np.array([[0.9]]), np.zeros((1, 1)))
        assert fire_prob(strong, state, cfg, 0) > fire_prob(weak, state, cfg, 0)


class TestIndexRange:
    """Unit and rate indices outside their range raise the same IndexError,
    instead of wrapping around to the last unit or rate."""

    # pair (0, 1) queues two bits; the delay-1 pair (1, 0) queues none
    CFG = ModelConfig(2, (0.5,), (0.3, 0.6), {(0, 1): 3, (1, 0): 1})

    @pytest.mark.parametrize("j", [-1, -2, 2, 7])
    def test_fire_prob(self, j):
        with pytest.raises(IndexError, match=rf"^unit index {j} out of range$"):
            fire_prob(Parameters.zeros(self.CFG), init_state(self.CFG), self.CFG, j)

    @pytest.mark.parametrize("x_j", [0, 1])
    @pytest.mark.parametrize("j", [-1, -2, 2, 7])
    def test_unit_energy(self, j, x_j):
        with pytest.raises(IndexError, match=rf"^unit index {j} out of range$"):
            unit_energy(Parameters.zeros(self.CFG), init_state(self.CFG), self.CFG, j, x_j)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 0)], ids=["queued", "delay1"])
    @pytest.mark.parametrize("ell", [-1, -2, 2, 5])
    def test_beta_rate(self, ell, pair):
        with pytest.raises(IndexError, match=rf"^rate index {ell} out of range$"):
            beta(init_state(self.CFG), self.CFG, *pair, ell)

    def test_in_range_indices_still_answer(self):
        cfg, state = self.CFG, init_state(self.CFG)
        state.queue[:] = [1, 0]
        assert [beta(state, cfg, 0, 1, ell) for ell in (0, 1)] == [1 / 0.3, 1 / 0.6]
        assert beta(state, cfg, 1, 0, 1) == 0.0
        params = Parameters(np.array([0.4, -0.9]), np.zeros((2, 1)), np.zeros((2, 2)))
        assert unit_energy(params, state, cfg, 1, 1) == pytest.approx(0.9)


class TestCondProb:
    def test_zero_params_uniform(self):
        cfg = ModelConfig.dense(3)
        p, log_p = cond_prob(Parameters.zeros(cfg), init_state(cfg), cfg, [1, 0, 1])
        assert p == pytest.approx(0.125, rel=1e-12)
        assert log_p == pytest.approx(-3 * math.log(2.0), rel=1e-12)

    def test_single_unit_silence(self):
        cfg = single_unit_config()
        params = Parameters(np.array([math.log(3.0)]), np.zeros((1, 1)), np.zeros((1, 1)))
        p, _ = cond_prob(params, init_state(cfg), cfg, [0])
        assert p == pytest.approx(0.25, rel=1e-12)

    @given(configs_with_params(max_units=2, scale=1.0))
    def test_per_unit_normalisation(self, cfg_params):
        cfg, params = cfg_params
        state = init_state(cfg)
        fire = np.zeros(cfg.n_units, dtype=int)
        fire[0] = 1
        silent = np.zeros(cfg.n_units, dtype=int)
        if cfg.n_units == 1:
            total = cond_prob(params, state, cfg, fire)[0] + cond_prob(params, state, cfg, silent)[0]
            assert total == pytest.approx(1.0, rel=1e-12)
        else:
            # marginalise unit 0 with the rest fixed at zero
            p1 = cond_prob(params, state, cfg, fire)[0]
            p0 = cond_prob(params, state, cfg, silent)[0]
            rest = np.prod(
                [1 - fire_prob(params, state, cfg, j) for j in range(1, cfg.n_units)]
            )
            assert p1 + p0 == pytest.approx(rest, rel=1e-9)

    def test_rejects_length_mismatch(self):
        cfg = ModelConfig.dense(2)
        with pytest.raises(ValueError):
            cond_prob(Parameters.zeros(cfg), init_state(cfg), cfg, [1])


class TestLogProbs:
    """``_log_probs`` reads the slice as its sign, 2x - 1; z·(±1) is z or -z
    exactly, so every bit is the where(x, z, -z) form's."""

    SPECIAL = [0.0, 5e-324, 1.0, 745.0, 1e308, math.inf]

    @staticmethod
    def where_form(z, x, e):
        return np.add.reduce(np.minimum(np.where(x, z, -z), 0.0) - np.log1p(e), -1)

    def check(self, z, x):
        n = z.shape[-1]
        work = _Scratch(ModelConfig(n, (0.5,), (0.5,), {}), z.shape[:-1])
        _sigmoid(z, work)
        with np.errstate(over="ignore"):  # a sum of terms near -1e308 overflows in both forms
            want = self.where_form(z, x, work.e.copy())
            got = _log_probs(z, 2.0 * x - 1.0, work)
        assert got.shape == want.shape == z.shape[:-1]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        return got

    @pytest.mark.parametrize("fill", ["zeros", "ones", "mixed"])
    def test_sign_form_is_the_where_form_bit_for_bit(self, fill):
        rng = np.random.default_rng(7)
        special = np.array([s * v for v in self.SPECIAL for s in (1.0, -1.0)])
        for z in (special, rng.normal(0.0, 30.0, size=(5, 12)), np.tile(special, (3, 1))):
            x = {"zeros": np.zeros(z.shape, np.int64), "ones": np.ones(z.shape, np.int64)}.get(fill)
            x = rng.integers(0, 2, z.shape) if x is None else x
            self.check(z, x)
            for row in range(len(z)) if z.ndim == 2 else ():
                self.check(z[row].copy(), x[row])

    def test_nan_drive_gives_nan(self):
        z = np.array([[0.5, math.nan, -2.0], [1.0, 2.0, 3.0]])
        for x in (np.zeros((2, 3), np.int64), np.ones((2, 3), np.int64)):
            work = _Scratch(ModelConfig(3, (0.5,), (0.5,), {}), (2,))
            _sigmoid(z, work)
            got = _log_probs(z, 2.0 * x - 1.0, work)
            assert math.isnan(got[0]) and math.isfinite(got[1])


class TestFootprint:
    @given(configs(allow_empty=True, max_units=4, max_delay=6, max_rates=3))
    def test_state_matches_claimed_footprint(self, cfg):
        state = init_state(cfg)
        params = Parameters.zeros(cfg)
        expected = expected_footprint(cfg)
        measured = measured_footprint(state, params)
        assert measured == expected
        assert measured.param_scalars == params.theta.size
        assert expected.trace_scalars == cfg.n_pairs * cfg.n_lambda + cfg.n_units * cfg.n_mu
        longest = [max((d for (i, _), d in cfg.delays.items() if i == u), default=1) for u in range(cfg.n_units)]
        assert expected.queue_bits == sum(longest) - cfg.n_units
        assert expected.param_scalars == cfg.n_units + cfg.n_pairs * (cfg.n_lambda + cfg.n_mu)

    def test_footprint_stable_under_advance(self):
        cfg = ModelConfig.dense(3, delay=4)
        state = init_state(cfg)
        params = Parameters.zeros(cfg)
        rng = np.random.default_rng(0)
        for _ in range(11):
            state = advance(state, cfg, (rng.random(3) < 0.5).astype(int))
        assert measured_footprint(state, params) == expected_footprint(cfg)
