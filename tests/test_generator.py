import math

import numpy as np
import pytest

from dybm import generator, learning, model
from dybm.config import ConfigError, ModelConfig, Parameters
from dybm.generator import PredictionMetrics, RolloutConfig, eval_prediction, rollout, sample_step
from dybm.model import advance, fire_probs, init_state
from dybm.rng import _reseater, step_stream

# step numbers for stream tests: out of order, with one repeated
STEPS = (1000, 0, 5, 123456, 2, 1, 5)


def jumped(seed, t):
    """The splitting rule written out: the seed's Philox jumped t times."""
    return np.random.Generator(np.random.Philox(seed).jumped(t))


class TestStepStream:
    @pytest.mark.parametrize("seed", [0, 42, 2**40 + 3])
    def test_step_stream_is_the_jumped_stream(self, seed):
        for t in STEPS:
            np.testing.assert_array_equal(step_stream(seed, t).random(256), jumped(seed, t).random(256))

    @pytest.mark.parametrize("seed", [0, 42, 2**40 + 3])
    def test_reseated_stream_is_the_jumped_stream(self, seed):
        stream_at = _reseater(step_stream(seed, 0))
        for t in STEPS:
            np.testing.assert_array_equal(stream_at(t).random(256), jumped(seed, t).random(256))

    def test_numpy_integer_step(self):
        np.testing.assert_array_equal(step_stream(3, np.int64(5)).random(8), jumped(3, 5).random(8))

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigError, match="step"):
            step_stream(0, -1)

    def test_fractional_step_rejected(self):
        with pytest.raises(ConfigError, match=r"^step must be an integer >= 0, got 1.5$"):
            step_stream(0, 1.5)

    # a seat writes the step into the counter's two high words, which carry into each other
    # and wrap at 2**128 as the 256-bit counter does (step 2**128 is step 0)
    WIDE_STEPS = (2**64 - 1, 2**64, 2**64 + 3, 2**128 - 1, 2**128)

    @pytest.mark.parametrize("seed", [0, 2**40 + 3])
    def test_wide_steps_are_the_jumped_streams(self, seed):
        stream_at = _reseater(step_stream(seed, 0))
        for t in self.WIDE_STEPS + (7,):
            want = jumped(seed, t).random(64)
            np.testing.assert_array_equal(step_stream(seed, t).random(64), want)
            np.testing.assert_array_equal(stream_at(t).random(64), want)

    @pytest.mark.parametrize("seed", [True, -1, 1.5, "3"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match=rf"^seed must be an integer >= 0, got {seed!r}$"):
            step_stream(seed, 0)


class TestSampleStep:
    def test_same_seed_same_slice(self):
        cfg = ModelConfig.dense(4)
        params = Parameters.zeros(cfg)
        state = init_state(cfg)
        a = sample_step(params, state, cfg, step_stream(42, 0))
        b = sample_step(params, state, cfg, step_stream(42, 0))
        np.testing.assert_array_equal(a, b)

    def test_unbiased_at_zero_params(self):
        cfg = ModelConfig.dense(2)
        params = Parameters.zeros(cfg)
        state = init_state(cfg)
        draws = np.array(
            [sample_step(params, state, cfg, step_stream(7, t)) for t in range(10_000)]
        )
        means = draws.mean(axis=0)
        assert np.all(np.abs(means - 0.5) < 0.02)

    def test_saturated_unit_always_fires(self):
        cfg = ModelConfig.dense(2)
        params = Parameters.zeros(cfg)
        params.bias[0] = 100.0
        state = init_state(cfg)
        for t in range(200):
            assert sample_step(params, state, cfg, step_stream(3, t))[0] == 1

    def test_matches_fire_probs_within_binomial_bounds(self, rng):
        # frozen-state sampling frequency vs the analytic probabilities
        cfg = ModelConfig.dense(3, delay=2)
        params = Parameters(
            bias=rng.normal(size=3), u=rng.normal(size=(9, 1)), v=rng.normal(size=(9, 1))
        )
        state = init_state(cfg)
        for x in (rng.random((9, 3)) < 0.5).astype(int):
            state = advance(state, cfg, x)
        p = fire_probs(params, state, cfg)
        n = 10_000
        draws = np.array(
            [sample_step(params, state, cfg, step_stream(11, t)) for t in range(n)]
        )
        freq = draws.mean(axis=0)
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= 3 * sigma + 1e-12)

    def test_state_not_mutated(self):
        cfg = ModelConfig.dense(2, delay=3)
        state = init_state(cfg)
        sample_step(Parameters.zeros(cfg), state, cfg, step_stream(0, 0))
        assert state.step_count == 0
        assert state.queue.tolist() == [0] * 4


class TestRollout:
    def test_zero_params_argmax_is_all_zero(self):
        # probability one half ties break to silence
        cfg = ModelConfig.dense(2)
        out = rollout(Parameters.zeros(cfg), cfg, RolloutConfig(horizon=6, mode="argmax"))
        assert out.shape == (6, 2)
        assert np.all(out == 0)

    def test_sample_mode_reproducible(self):
        cfg = ModelConfig.dense(3)
        params = Parameters.zeros(cfg)
        cfg_roll = RolloutConfig(horizon=20, mode="sample", seed=123)
        a = rollout(params, cfg, cfg_roll)
        b = rollout(params, cfg, cfg_roll)
        np.testing.assert_array_equal(a, b)
        c = rollout(params, cfg, RolloutConfig(horizon=20, mode="sample", seed=124))
        assert not np.array_equal(a, c)

    def test_primer_changes_continuation(self, rng):
        cfg = ModelConfig.dense(2, delay=2)
        params = Parameters(
            bias=rng.normal(size=2), u=rng.normal(size=(4, 1)) + 1.0, v=rng.normal(size=(4, 1))
        )
        plain = rollout(params, cfg, RolloutConfig(horizon=8, mode="argmax"))
        primed = rollout(
            params, cfg, RolloutConfig(horizon=8, mode="argmax", primer=[[1, 1], [1, 0]])
        )
        assert plain.shape == primed.shape == (8, 2)
        assert not np.array_equal(plain, primed)

    def test_empty_primer_rejected(self):
        cfg = ModelConfig.dense(2)
        roll = RolloutConfig(horizon=4, primer=np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError, match="at least one time slice"):
            rollout(Parameters.zeros(cfg), cfg, roll)

    def test_horizon_validated(self):
        with pytest.raises(ConfigError, match="horizon"):
            RolloutConfig(horizon=0)

    @pytest.mark.parametrize(
        "field, value",
        [("horizon", 2.5), ("horizon", True), ("seed", -1), ("seed", 1.5), ("seed", True)],
    )
    def test_bad_value_names_its_field(self, field, value):
        kwargs = {"horizon": 3, "seed": 0, field: value}
        with pytest.raises(ConfigError, match=rf"^{field} must be an integer >= \d, got {value!r}$"):
            RolloutConfig(**kwargs)

    @pytest.mark.parametrize("primer", [None, [[1, 0, 1], [0, 1, 1], [1, 1, 0]]])
    def test_sample_mode_is_the_per_step_stream_loop(self, rng, primer):
        # step t draws from step_stream(seed, t), however the rollout builds it
        cfg = ModelConfig.dense(3, delay=2)
        params = Parameters(
            bias=rng.normal(size=3), u=rng.normal(size=(9, 1)), v=rng.normal(size=(9, 1))
        )
        out = rollout(params, cfg, RolloutConfig(horizon=24, mode="sample", seed=77, primer=primer))
        state = init_state(cfg)
        for x in primer or []:
            state = advance(state, cfg, x)
        want = []
        for t in range(24):
            want.append(sample_step(params, state, cfg, step_stream(77, t)))
            state = advance(state, cfg, want[-1])
        np.testing.assert_array_equal(out, want)

    def test_mode_validated(self):
        with pytest.raises(ConfigError, match="mode"):
            RolloutConfig(horizon=1, mode="greedy")

    def test_argmax_invariant_under_temperature_rescaling(self, rng):
        # scaling temperature and all parameters together leaves the
        # thresholded probabilities unchanged
        base = ModelConfig.dense(2, delay=2, temperature=1.0)
        scaled = ModelConfig.dense(2, delay=2, temperature=3.0)
        params = Parameters(
            bias=rng.normal(size=2), u=rng.normal(size=(4, 1)), v=rng.normal(size=(4, 1))
        )
        scaled_params = Parameters(bias=3.0 * params.bias, u=3.0 * params.u, v=3.0 * params.v)
        roll = RolloutConfig(horizon=16, mode="argmax", primer=[[1, 0], [0, 1], [1, 1]])
        np.testing.assert_array_equal(
            rollout(params, base, roll), rollout(scaled_params, scaled, roll)
        )


class TestEvalPrediction:
    def test_zero_params_scores(self, rng):
        cfg = ModelConfig.dense(2)
        series = (rng.random((25, 2)) < 0.3).astype(int)
        scores = eval_prediction(Parameters.zeros(cfg), cfg, series)
        assert scores.nll_per_bit == pytest.approx(math.log(2.0), rel=1e-12)
        # ties predict silence, so accuracy is the fraction of zeros
        assert scores.accuracy == pytest.approx(1.0 - series.mean())
        assert scores.steps == 25

    def test_perfect_on_own_argmax_rollout(self, rng):
        cfg = ModelConfig.dense(2, delay=2)
        params = Parameters(
            bias=rng.normal(size=2) * 2, u=rng.normal(size=(4, 1)) * 2, v=rng.normal(size=(4, 1))
        )
        series = rollout(params, cfg, RolloutConfig(horizon=20, mode="argmax"))
        scores = eval_prediction(params, cfg, series)
        assert scores.accuracy == 1.0

    def test_log_likelihood_consistent_with_learning(self, rng):
        # every consumer scores the series on the same walk, bit for bit
        from dybm.learning import TrainerConfig, sequence_log_likelihood, train

        cfg = ModelConfig.dense(3, delay=2)
        params = Parameters(
            bias=rng.normal(size=3), u=rng.normal(size=(9, 1)), v=rng.normal(size=(9, 1))
        )
        series = (rng.random((12, 3)) < 0.5).astype(int)
        scores = eval_prediction(params, cfg, series)
        want = sequence_log_likelihood(params, cfg, series)
        _, metrics = train(params, cfg, [series], TrainerConfig(1e-3, epochs=1))
        assert scores.log_likelihood == want
        assert metrics.epoch_log_likelihood[0] == want
        assert scores.nll_per_bit == -want / (12 * 3)

    def test_empty_series_rejected(self):
        cfg = ModelConfig.dense(1)
        with pytest.raises(ValueError):
            eval_prediction(Parameters.zeros(cfg), cfg, [])

    def test_trained_cycle_model_beats_point_nine_per_bit(self):
        # follows from the >= 0.9 next-step confidence the trainer reaches
        from dybm.fixtures import PERIOD4_CYCLE
        from dybm.learning import TrainerConfig, train

        cfg = ModelConfig.dense(2, lambdas=(0.5,), mus=(0.25,), delay=2)
        series = np.tile(PERIOD4_CYCLE, (8, 1))
        params, _ = train(
            Parameters.zeros(cfg), cfg, [series], TrainerConfig(0.1, epochs=500)
        )
        scores = eval_prediction(params, cfg, np.tile(PERIOD4_CYCLE, (32, 1)))
        assert scores.nll_per_bit < 0.11  # -ln(0.9)


class TestAdvanceCalls:
    """Each α/γ step, which ``advance`` and the trace builder of a known
    series share (``model._trace_step``), absorbs a slice only when a later
    slice, or a rollout's next step, needs the state: the state after the
    last slice is never built. Scoring and a rollout, its generated slices
    included, take the builder."""

    CFG = ModelConfig.dense(2, delay=3)

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []

        def counting(*args):
            counted.append(1)
            return step(*args)

        step = model._trace_step
        for module in (model, learning):
            monkeypatch.setattr(module, "_trace_step", counting)
        return counted

    @pytest.mark.parametrize("steps", [1, 2, 9])
    def test_scoring_a_series(self, calls, rng, steps):
        series = (rng.random((steps, 2)) < 0.5).astype(int)
        learning.sequence_log_likelihood(Parameters.zeros(self.CFG), self.CFG, series)
        assert len(calls) == steps - 1
        eval_prediction(Parameters.zeros(self.CFG), self.CFG, series)
        assert len(calls) == 2 * (steps - 1)

    @pytest.mark.parametrize("mode", ["sample", "argmax"])
    @pytest.mark.parametrize("primer, horizon", [(0, 1), (0, 6), (3, 1), (3, 6)])
    def test_rollout(self, calls, rng, mode, primer, horizon):
        series = (rng.random((primer, 2)) < 0.5).astype(int) if primer else None
        rollout(Parameters.zeros(self.CFG), self.CFG, RolloutConfig(horizon, mode, 1, series))
        assert len(calls) == primer + horizon - 1
