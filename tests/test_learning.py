import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dybm import learning
from dybm.config import ConfigError, ModelConfig, Parameters
from dybm.generator import RolloutConfig, eval_prediction, rollout
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
from dybm.model import advance, beta, fire_probs, init_state
from dybm.oracle import fd_gradient

from conftest import configs, configs_with_params


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

    @pytest.mark.parametrize(
        "lambdas, mus",
        [((0.5, 0.3), (0.4, 0.25)), ((0.5,), (0.4, 0.25, 0.7)), ((0.5, 0.3, 0.8), (0.4,))],
        ids=["shared-gather", "more-mus", "more-lambdas"],
    )
    def test_matches_per_pair_formula_bit_for_bit(self, lambdas, mus):
        # the target's r is gathered once for d_u and d_v when the rate
        # counts match, and once per bank when they do not
        delays = {(0, 0): 1, (0, 1): 3, (1, 0): 2, (1, 2): 1, (2, 0): 5, (2, 2): 4}
        cfg = ModelConfig(3, lambdas, mus, delays, temperature=0.5)
        assert (cfg.arrays.post_l is cfg.arrays.post_k) == (len(lambdas) == len(mus))
        rng = np.random.default_rng(19)
        params = Parameters(
            rng.normal(size=3), rng.normal(size=(6, len(lambdas))), rng.normal(size=(6, len(mus)))
        )
        state = init_state(cfg)
        for x in (rng.random((9, 3)) < 0.5).astype(int):
            advance(state, cfg, x, state)
        x = np.array([1, 0, 1])
        grad = step_gradient(params, state, cfg, x)
        r = (x - fire_probs(params, state, cfg)) / cfg.temperature
        assert grad.d_bias.tobytes() == r.tobytes()
        for m, (i, j) in enumerate(cfg.pairs):
            for k in range(cfg.n_lambda):
                assert grad.d_u[m, k] == state.alpha[m, k] * r[j]
            for ell in range(cfg.n_mu):
                want = -(beta(state, cfg, i, j, ell) * r[j]) - state.gamma[j, ell] * r[i]
                assert grad.d_v[m, ell] == want


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

    @pytest.mark.parametrize(
        "banks, named",
        [(["bias"], "bias"), (["u"], "u"), (["v"], "v"), (["v", "u"], "u")],
        ids=["bias", "u", "v", "u-and-v"],
    )
    def test_non_finite_result_rejected(self, banks, named):
        # the message names the first bank, in theta order, that went non-finite
        cfg = ModelConfig.dense(1)
        params = Parameters.zeros(cfg)
        grad = Gradient.zeros(cfg)
        for bank in banks:
            getattr(grad, "d_" + bank)[0] = np.inf
        with pytest.raises(ValueError, match=f"^update produced non-finite {named}$"):
            sgd_update(params, grad, 1.0)

    def test_update_is_one_axpy_over_theta(self, rng):
        cfg = ModelConfig.dense(2, lambdas=(0.5, 0.3))
        params = Parameters(rng.normal(size=2), rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        grad = Gradient(rng.normal(size=2), rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        out = sgd_update(params, grad, 0.3)
        assert out.theta.tobytes() == (params.theta + 0.3 * grad.theta).tobytes()
        assert out.shapes == params.shapes and not np.shares_memory(out.theta, params.theta)

    def test_in_place_update_is_the_same_axpy(self, rng):
        cfg = ModelConfig.dense(2, lambdas=(0.5, 0.3))
        params = Parameters(rng.normal(size=2), rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        grad = Gradient(rng.normal(size=2), rng.normal(size=(4, 2)), rng.normal(size=(4, 1)))
        want = (params.theta + 0.3 * grad.theta).tobytes()
        theta = params.theta
        assert sgd_update(params, grad, 0.3, out=params) is params
        assert params.theta is theta and params.theta.tobytes() == want

    @pytest.mark.parametrize(
        "banks, named",
        [(["bias"], "bias"), (["u"], "u"), (["v"], "v"), (["v", "u"], "u")],
        ids=["bias", "u", "v", "u-and-v"],
    )
    def test_in_place_non_finite_result_rejected(self, banks, named):
        cfg = ModelConfig.dense(1)
        params = Parameters.zeros(cfg)
        grad = Gradient.zeros(cfg)
        for bank in banks:
            getattr(grad, "d_" + bank)[0] = np.inf
        with pytest.raises(ValueError, match=f"^update produced non-finite {named}$"):
            sgd_update(params, grad, 1.0, out=params)

    def test_out_is_the_parameters_themselves_or_none(self):
        # as for advance: other parameters, of any shape, are refused before any write
        cfg = ModelConfig.dense(2)
        params, grad = Parameters.zeros(cfg), Gradient([1.0, 1.0], np.ones((4, 1)), np.ones((4, 1)))
        for other in (Parameters.zeros(cfg), Parameters.zeros(ModelConfig.dense(3))):
            with pytest.raises(ValueError, match="^out must be None or the parameters themselves$"):
                sgd_update(params, grad, 0.1, out=other)
            assert not other.theta.any()
        assert not params.theta.any()


class TestGradientLayout:
    def test_banks_are_views_of_one_theta(self):
        g = Gradient(d_bias=[1.0, 2.0], d_u=[[3.0], [4.0]], d_v=[[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(g.theta, np.arange(1.0, 9.0))
        for bank in (g.d_bias, g.d_u, g.d_v):
            assert np.shares_memory(bank, g.theta)
        g.d_v[1, 0] = -1.0
        assert g.theta[6] == -1.0

    def test_add_and_norm(self):
        g = Gradient([3.0], [[0.0]], [[4.0]])
        h = g.copy().add_(g)
        assert np.array_equal(h.theta, [6.0, 0.0, 8.0]) and g.theta[0] == 3.0
        assert g.norm() == 5.0

    @given(cfg=configs(max_units=12, max_rates=3, allow_empty=True), seed=st.integers(0, 2**32 - 1))
    def test_norm_sums_each_bank_bit_for_bit(self, cfg, seed):
        arr = cfg.arrays
        g = Gradient._wrap(np.random.default_rng(seed).normal(size=arr.n_params), arr.bank_shapes)
        assert g.norm() == math.sqrt(sum(float((b * b).sum()) for b in g.banks))


class TestCheckGuard:
    CFG = ModelConfig.dense(2, lambdas=(0.5, 0.3))  # bias (2,), u (4, 2), v (4, 1)

    @pytest.mark.parametrize(
        "writes, named, worst",
        [
            ({"bias": -2.5e6}, "bias", "2.500e+06"),
            ({"u": 1.0000005e6}, "u", "1.000e+06"),
            ({"v": np.nan}, "v", "nan"),
            ({"bias": 999999.0, "u": -7.25e6, "v": 9e9}, "u", "7.250e+06"),
            ({"v": -np.inf, "u": 3e6}, "u", "3.000e+06"),
        ],
        ids=["bias", "u-just-over", "v-nan", "first-of-u-and-v", "u-before-inf-v"],
    )
    def test_names_first_failing_bank(self, writes, named, worst):
        params = Parameters.zeros(self.CFG)
        for bank, value in writes.items():
            getattr(params, bank).flat[-1] = value
        with pytest.raises(TrainingDiverged) as err:
            learning._check_guard(params, 3, 7)
        assert str(err.value) == (
            f"parameter {named} reached magnitude {worst} at epoch 3, step 7; training aborted"
        )
        assert (err.value.epoch, err.value.step) == (3, 7)

    def test_limit_itself_passes(self):
        params = Parameters.zeros(self.CFG)
        params.theta[:] = -learning.DIVERGENCE_LIMIT
        learning._check_guard(params, 0, 0)


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

    @pytest.mark.parametrize(
        "entry",
        [
            lambda p, cfg, s: train(p, cfg, [s], TrainerConfig(0.1, epochs=1)),
            lambda p, cfg, s: sequence_log_likelihood(p, cfg, s),
            lambda p, cfg, s: eval_prediction(p, cfg, s),
            lambda p, cfg, s: rollout(p, cfg, RolloutConfig(horizon=1, primer=s)),
        ],
        ids=["train", "sequence_log_likelihood", "eval_prediction", "rollout-primer"],
    )
    def test_ragged_series_names_the_short_slice(self, entry):
        cfg = ModelConfig.dense(2)
        with pytest.raises(ValueError, match=r"^time slice must be a length-2 vector, got shape \(1,\)$"):
            entry(Parameters.zeros(cfg), cfg, [[0, 1], [1]])

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
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainerConfig(0.0, epochs=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", None),
            ("learning_rate", "abc"),
            ("learning_rate", True),
            ("learning_rate", 10**400),
            ("epochs", None),
            ("epochs", [3]),
            ("epochs", 2.7),
            ("shuffle_seed", 1.5),
            ("shuffle_seed", "x"),
        ],
        ids=["lr-null", "lr-string", "lr-bool", "lr-huge-int", "epochs-null", "epochs-list", "epochs-fraction",
             "seed-fraction", "seed-string"],
    )
    def test_rejects_mistyped_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainerConfig(**{"learning_rate": 0.1, "epochs": 1, field: value})

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            TrainerConfig(0.1, epochs=1, mode="minibatch")

    def test_epochs_zero_allowed(self):
        assert TrainerConfig(0.1, epochs=0).epochs == 0


class TestFullBatchFeatureCache:
    CFG = ModelConfig(2, (0.5, 0.2), (0.3,), {(0, 0): 1, (0, 1): 3, (1, 0): 2, (1, 1): 4})
    EPOCHS = 4

    def run(self, monkeypatch, cap=None):
        """Full-batch training with the trace builder's fills (the rows of
        one series in one block) counted and the feature bytes of every
        block recorded: its slices and trace rows, as its bincount indices
        are the first rows of tables shared by every block."""
        if cap is not None:
            monkeypatch.setattr(learning, "_FEATURE_BYTES", cap)
        calls, block_bytes = [], []
        fill_, blocks_ = learning._TraceBuilder.fill, learning._blocks

        def counted(*args):
            calls.append(1)
            return fill_(*args)

        def measured(*args):
            for block in blocks_(*args):
                block_bytes.append(sum(a.nbytes for a in (block.x, block.alpha, block.beta, block.gamma_post)))
                yield block

        monkeypatch.setattr(learning._TraceBuilder, "fill", counted)
        monkeypatch.setattr(learning, "_blocks", measured)
        rng = np.random.default_rng(21)
        dataset = [(rng.random((t, 2)) < 0.5).astype(int) for t in (9, 14, 6)]
        params, metrics = train(
            Parameters.zeros(self.CFG), self.CFG, dataset, TrainerConfig(0.05, epochs=self.EPOCHS)
        )
        monkeypatch.undo()
        return params, metrics, len(calls), block_bytes

    def test_traces_built_once_when_they_fit(self, monkeypatch):
        _, _, calls, block_bytes = self.run(monkeypatch)
        assert calls == 3  # one fill per series
        assert len(block_bytes) == 1  # the whole dataset is one block

    def test_rebuilt_in_bounded_blocks_when_they_do_not(self, monkeypatch):
        cap = 4 * learning._step_bytes(self.CFG)  # less than the shortest series
        kept_params, kept, _, _ = self.run(monkeypatch)
        params, metrics, calls, block_bytes = self.run(monkeypatch, cap)
        # blocks of 4 rows cut the series of 9, 14 and 6 slices into
        # 4 + 4 + 1, 3 + 4 + 4 + 3 and 1 + 4 + 1 rows: 10 fills per epoch
        assert calls == self.EPOCHS * 10
        assert max(block_bytes) <= cap
        assert len(block_bytes) == self.EPOCHS * math.ceil(29 / 4)  # blocks cross series ends
        assert params.bias.tobytes() == kept_params.bias.tobytes()
        assert params.u.tobytes() == kept_params.u.tobytes()
        assert params.v.tobytes() == kept_params.v.tobytes()
        assert metrics.epoch_log_likelihood == kept.epoch_log_likelihood
        assert metrics.step_nll == kept.step_nll
        assert metrics.grad_norms == kept.grad_norms
