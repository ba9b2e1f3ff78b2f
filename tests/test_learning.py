import math

import numpy as np
import pytest
from hypothesis import given, settings

from dybm.config import ModelConfig, Parameters
from dybm.learning import (
    Gradient,
    TrainerConfig,
    TrainingDiverged,
    sequence_gradient,
    sequence_log_likelihood,
    sgd_update,
    step_gradient,
    train,
)
from dybm.model import advance, fire_probs, init_state
from dybm.oracle import fd_gradient

from conftest import configs_with_params


class TestStepGradient:
    def test_zero_params_all_ones_slice(self):
        cfg = ModelConfig.dense(3)
        grad = step_gradient(Parameters.zeros(cfg), init_state(cfg), cfg, [1, 1, 1])
        np.testing.assert_allclose(grad.d_bias, 0.5)
        np.testing.assert_allclose(grad.d_u, 0.0)
        np.testing.assert_allclose(grad.d_v, 0.0)

    def test_score_is_mean_zero_under_the_model(self, rng):
        # per unit: averaging the bias gradient over both values of that
        # unit, weighted by its own firing probability, cancels exactly
        from dybm.validate import random_config, random_history, random_params

        for _ in range(25):
            cfg = random_config(rng, max_units=3)
            params = random_params(rng, cfg)
            state = init_state(cfg)
            for x in random_history(rng, cfg, 6):
                state = advance(state, cfg, x)
            p = fire_probs(params, state, cfg)
            base = (rng.random(cfg.n_units) < 0.5).astype(int)
            for j in range(cfg.n_units):
                fire, silent = base.copy(), base.copy()
                fire[j], silent[j] = 1, 0
                g1 = step_gradient(params, state, cfg, fire)
                g0 = step_gradient(params, state, cfg, silent)
                mix = p[j] * g1.d_bias[j] + (1 - p[j]) * g0.d_bias[j]
                assert mix == pytest.approx(0.0, abs=1e-12)

    def test_bias_signs(self):
        cfg = ModelConfig.dense(1)
        params = Parameters.zeros(cfg)
        state = init_state(cfg)
        up = step_gradient(params, state, cfg, [1])
        down = step_gradient(params, state, cfg, [0])
        assert up.d_bias[0] > 0 > down.d_bias[0]

    def test_temperature_scales_gradient(self):
        hot = ModelConfig.dense(2, temperature=2.0)
        cold = ModelConfig.dense(2, temperature=1.0)
        params = Parameters.zeros(hot)
        g_hot = step_gradient(params, init_state(hot), hot, [1, 0])
        g_cold = step_gradient(params, init_state(cold), cold, [1, 0])
        np.testing.assert_allclose(g_hot.d_bias, g_cold.d_bias / 2.0)

    def test_does_not_mutate_state(self):
        cfg = ModelConfig.dense(2, delay=3)
        state = init_state(cfg)
        state.alpha[:] = 0.25
        before = state.copy()
        step_gradient(Parameters.zeros(cfg), state, cfg, [1, 0])
        np.testing.assert_array_equal(state.alpha, before.alpha)
        np.testing.assert_array_equal(state.queue, before.queue)


class TestSequenceLogLikelihood:
    def test_zero_params_counts_bits(self):
        cfg = ModelConfig.dense(3)
        series = np.zeros((7, 3), dtype=int)
        ll = sequence_log_likelihood(Parameters.zeros(cfg), cfg, series)
        assert ll == pytest.approx(-7 * 3 * math.log(2.0), rel=1e-12)

    def test_single_step_log3_bias(self):
        cfg = ModelConfig(1, (0.5,), (0.5,), {(0, 0): 2})
        params = Parameters(np.array([math.log(3.0)]), np.zeros((1, 1)), np.zeros((1, 1)))
        ll = sequence_log_likelihood(params, cfg, [[1]])
        assert ll == pytest.approx(math.log(0.75), rel=1e-12)

    def test_equals_stepwise_recomputation(self, rng):
        from dybm.model import cond_prob
        from dybm.validate import random_config, random_history, random_params

        cfg = random_config(rng)
        params = random_params(rng, cfg)
        series = random_history(rng, cfg, 5)
        manual = 0.0
        state = init_state(cfg)
        for x in series:
            manual += cond_prob(params, state, cfg, x)[1]
            state = advance(state, cfg, x)
        assert sequence_log_likelihood(params, cfg, series) == pytest.approx(manual, rel=1e-12)

    def test_never_positive(self, rng):
        from dybm.validate import random_config, random_history, random_params

        for _ in range(25):
            cfg = random_config(rng)
            ll = sequence_log_likelihood(
                random_params(rng, cfg), cfg, random_history(rng, cfg, 8)
            )
            assert ll <= 0.0

    def test_empty_series_rejected(self):
        cfg = ModelConfig.dense(2)
        with pytest.raises(ValueError):
            sequence_log_likelihood(Parameters.zeros(cfg), cfg, [])


class TestSequenceGradient:
    def test_single_step_equals_step_gradient(self, rng):
        from dybm.validate import random_config, random_params

        cfg = random_config(rng)
        params = random_params(rng, cfg)
        x = (rng.random(cfg.n_units) < 0.5).astype(int)
        total = sequence_gradient(params, cfg, [x])
        single = step_gradient(params, init_state(cfg), cfg, x)
        np.testing.assert_array_equal(total.d_bias, single.d_bias)
        np.testing.assert_array_equal(total.d_u, single.d_u)
        np.testing.assert_array_equal(total.d_v, single.d_v)

    def test_all_zero_series_zero_params(self):
        # each step contributes -1/(2 tau) to every bias coordinate
        cfg = ModelConfig.dense(2, temperature=2.0)
        series = np.zeros((10, 2), dtype=int)
        grad = sequence_gradient(Parameters.zeros(cfg), cfg, series)
        np.testing.assert_allclose(grad.d_bias, -10 / (2 * 2.0))
        np.testing.assert_allclose(grad.d_u, 0.0)
        np.testing.assert_allclose(grad.d_v, 0.0)

    @given(configs_with_params(max_units=2, max_delay=4, scale=0.8))
    @settings(max_examples=12)
    def test_matches_finite_differences(self, cfg_params):
        cfg, params = cfg_params
        if min(min(cfg.lambdas), min(cfg.mus)) < 0.25:
            return  # keep numerical differencing well conditioned
        rng = np.random.default_rng(7)
        series = (rng.random((8, cfg.n_units)) < 0.5).astype(int)
        analytic = sequence_gradient(params, cfg, series)
        numeric = fd_gradient(params, cfg, series, h=1e-5)
        for a, f in (
            (analytic.d_bias, numeric.d_bias),
            (analytic.d_u, numeric.d_u),
            (analytic.d_v, numeric.d_v),
        ):
            if a.size:
                np.testing.assert_allclose(a, f, rtol=1e-5, atol=1e-8)


class TestSgdUpdate:
    def test_zero_learning_rate(self):
        cfg = ModelConfig.dense(2)
        params = Parameters.zeros(cfg)
        grad = Gradient.zeros(cfg)
        grad.d_bias[:] = 1.0
        out = sgd_update(params, grad, 0.0)
        np.testing.assert_array_equal(out.bias, params.bias)

    def test_zero_gradient(self):
        cfg = ModelConfig.dense(2)
        params = Parameters(np.array([1.0, -2.0]), np.ones((4, 1)), np.ones((4, 1)))
        out = sgd_update(params, Gradient.zeros(cfg), 0.5)
        np.testing.assert_array_equal(out.bias, params.bias)
        np.testing.assert_array_equal(out.u, params.u)

    def test_simple_arithmetic(self):
        cfg = ModelConfig.dense(1)
        params = Parameters.zeros(cfg)
        grad = Gradient.zeros(cfg)
        grad.d_bias[0] = 0.5
        out = sgd_update(params, grad, 0.1)
        assert out.bias[0] == pytest.approx(0.05)

    def test_shape_mismatch_rejected(self):
        cfg = ModelConfig.dense(2)
        other = ModelConfig.dense(3)
        with pytest.raises(ValueError, match="shape"):
            sgd_update(Parameters.zeros(cfg), Gradient.zeros(other), 0.1)

    def test_non_finite_result_rejected(self):
        cfg = ModelConfig.dense(1)
        params = Parameters.zeros(cfg)
        grad = Gradient.zeros(cfg)
        grad.d_bias[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            sgd_update(params, grad, 1.0)


def tiny_dataset(rng, cfg, n_series=2, length=12):
    return [
        (rng.random((length, cfg.n_units)) < 0.5).astype(int) for _ in range(n_series)
    ]


class TestTrain:
    def test_zero_epochs_returns_input(self, rng):
        cfg = ModelConfig.dense(2)
        dataset = tiny_dataset(rng, cfg)
        params, metrics = train(
            Parameters.zeros(cfg), cfg, dataset, TrainerConfig(0.1, epochs=0)
        )
        np.testing.assert_array_equal(params.bias, np.zeros(2))
        assert metrics.epoch_log_likelihood == []

    def test_full_batch_ascent_monotone(self, rng):
        cfg = ModelConfig.dense(3, delay=2)
        dataset = tiny_dataset(rng, cfg, n_series=2, length=24)
        _, metrics = train(
            Parameters.zeros(cfg), cfg, dataset, TrainerConfig(1e-3, epochs=200)
        )
        diffs = np.diff(metrics.epoch_log_likelihood)
        assert np.all(diffs >= -1e-9)

    def test_online_improves_over_epoch(self, rng):
        cfg = ModelConfig.dense(2)
        dataset = [np.tile([[1, 0], [0, 1]], (8, 1))]
        _, metrics = train(
            Parameters.zeros(cfg), cfg, dataset, TrainerConfig(0.05, epochs=20, mode="online")
        )
        assert metrics.epoch_log_likelihood[-1] > metrics.epoch_log_likelihood[0]

    def test_deterministic(self, rng):
        cfg = ModelConfig.dense(2, delay=3)
        dataset = tiny_dataset(rng, cfg)
        trainer = TrainerConfig(0.01, epochs=30, mode="online", shuffle_seed=4)
        a, _ = train(Parameters.zeros(cfg), cfg, dataset, trainer)
        b, _ = train(Parameters.zeros(cfg), cfg, dataset, trainer)
        assert a.bias.tobytes() == b.bias.tobytes()
        assert a.u.tobytes() == b.u.tobytes()
        assert a.v.tobytes() == b.v.tobytes()

    def test_divergence_guard_trips(self):
        cfg = ModelConfig.dense(1)
        dataset = [np.ones((4, 1), dtype=int)]
        with pytest.raises(TrainingDiverged) as err:
            train(
                Parameters.zeros(cfg), cfg, dataset, TrainerConfig(1e7, epochs=5, mode="online")
            )
        assert err.value.epoch == 0
        assert err.value.step >= 1

    @pytest.mark.parametrize("mode", ["online", "full_batch"])
    def test_empty_series_rejected_before_any_update(self, rng, mode):
        cfg = ModelConfig.dense(2)
        good = tiny_dataset(rng, cfg, n_series=1)[0]
        records = []
        with pytest.raises(ValueError, match="at least one time slice"):
            train(
                Parameters.zeros(cfg),
                cfg,
                [good, np.zeros((0, 2), dtype=int)],
                TrainerConfig(0.1, epochs=1, mode=mode),
                record_sink=records.append,
            )
        assert records == []

    def test_non_finite_update_is_divergence(self):
        # the full-batch update overflows to inf before the magnitude guard
        # can see it
        cfg = ModelConfig(1, (0.5,), (0.1,), {(0, 0): 300}, temperature=0.01)
        with pytest.raises(TrainingDiverged, match="non-finite") as err:
            train(
                Parameters.zeros(cfg),
                cfg,
                [np.ones((300, 1), dtype=int)],
                TrainerConfig(1e8, epochs=5),
            )
        assert err.value.epoch == 0

    def test_metrics_records_streamed(self, rng):
        cfg = ModelConfig.dense(2)
        dataset = tiny_dataset(rng, cfg, n_series=1, length=6)
        records = []
        train(
            Parameters.zeros(cfg),
            cfg,
            dataset,
            TrainerConfig(1e-3, epochs=3),
            record_sink=records.append,
        )
        assert len(records) == 3
        for rec in records:
            assert set(rec) == {"epoch", "step", "log_likelihood", "grad_norm", "wall_ms"}
            assert rec["log_likelihood"] <= 0.0

    def test_series_boundaries_reset_traces(self, rng):
        # training on [a, b] must match summed gradients of a and b separately
        cfg = ModelConfig.dense(2, delay=2)
        a = (rng.random((5, 2)) < 0.5).astype(int)
        b = (rng.random((7, 2)) < 0.5).astype(int)
        params = Parameters.zeros(cfg)
        ga = sequence_gradient(params, cfg, a)
        gb = sequence_gradient(params, cfg, b)
        out, _ = train(params, cfg, [a, b], TrainerConfig(0.5, epochs=1))
        want = sgd_update(
            params,
            Gradient(ga.d_bias + gb.d_bias, ga.d_u + gb.d_u, ga.d_v + gb.d_v),
            0.5,
        )
        np.testing.assert_array_equal(out.bias, want.bias)

    def test_log_likelihood_never_positive(self, rng):
        cfg = ModelConfig.dense(2)
        dataset = tiny_dataset(rng, cfg)
        _, metrics = train(Parameters.zeros(cfg), cfg, dataset, TrainerConfig(0.01, epochs=10))
        assert all(ll <= 0.0 for ll in metrics.epoch_log_likelihood)
        assert all(nll >= 0.0 for nll in metrics.step_nll)


class TestTrainerConfig:
    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            TrainerConfig(0.0, epochs=1)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            TrainerConfig(0.1, epochs=1, mode="minibatch")

    def test_epochs_zero_allowed(self):
        assert TrainerConfig(0.1, epochs=0).epochs == 0
