import math

import numpy as np
import pytest
from hypothesis import given, settings

from dybm.config import ModelConfig, Parameters
from dybm.learning import sequence_gradient, sequence_log_likelihood
from dybm.model import advance, fire_prob, init_state, unit_energy
from dybm.oracle import (
    TinyBM,
    bm_exact_gradient,
    bm_prob,
    bm_probs,
    expand_weights,
    fd_gradient,
    forward_kernel,
    naive_fire_prob,
    naive_unit_energy,
    reverse_kernel,
    traces_from_scratch,
    truncation_horizon,
)

from conftest import configs_with_params


class TestExpandWeights:
    def test_simple_pair_at_its_delay(self):
        # u=1 on (0,1), v=1 on (1,0), both rates 0.5, delay 2:
        # W[2] = 1 * 0.5**0 - 1 * 0.5**2 = 0.75
        cfg = ModelConfig(2, (0.5,), (0.5,), {(0, 1): 2, (1, 0): 2})
        params = Parameters.zeros(cfg)
        params.u[cfg.pair_index[(0, 1)], 0] = 1.0
        params.v[cfg.pair_index[(1, 0)], 0] = 1.0
        expanded = expand_weights(params, cfg, 6)
        assert expanded.at(2)[0, 1] == pytest.approx(0.75)

    def test_near_window_branch(self):
        # delay 2, lag 1 sits before arrival: -v / mu = -2
        cfg = ModelConfig(2, (0.5,), (0.5,), {(0, 1): 2, (1, 0): 2})
        params = Parameters.zeros(cfg)
        params.v[cfg.pair_index[(0, 1)], 0] = 1.0
        expanded = expand_weights(params, cfg, 6)
        assert expanded.at(1)[0, 1] == pytest.approx(-2.0)

    def test_all_zero_params_give_zero_matrices(self):
        cfg = ModelConfig.dense(3, delay=3)
        expanded = expand_weights(Parameters.zeros(cfg), cfg, 8)
        assert np.all(expanded.matrices == 0.0)

    def test_unconnected_entries_stay_zero(self):
        cfg = ModelConfig(3, (0.5,), (0.5,), {(0, 1): 2})
        params = Parameters(np.zeros(3), np.full((1, 1), 2.0), np.full((1, 1), 1.5))
        expanded = expand_weights(params, cfg, 5)
        for delta in range(1, 5):
            mat = expanded.at(delta).copy()
            mat[0, 1] = 0.0
            mat[1, 0] = 0.0  # reversed role of the stored pair
            assert np.all(mat == 0.0)

    def test_horizon_below_two_rejected(self):
        cfg = ModelConfig.dense(2)
        with pytest.raises(ValueError):
            expand_weights(Parameters.zeros(cfg), cfg, 1)

    def test_kernel_jump_at_the_delay(self):
        # exact continuity checkpoint: at lag d the total weight equals
        # sum_k u - sum_l v_rev * mu**d
        cfg = ModelConfig(2, (0.4, 0.6), (0.3,), {(0, 1): 3, (1, 0): 2})
        rng = np.random.default_rng(5)
        params = Parameters(
            bias=np.zeros(2),
            u=rng.normal(size=(2, 2)),
            v=rng.normal(size=(2, 1)),
        )
        m_fwd = cfg.pair_index[(0, 1)]
        m_rev = cfg.pair_index[(1, 0)]
        expanded = expand_weights(params, cfg, 8)
        want = params.u[m_fwd].sum() - params.v[m_rev, 0] * 0.3**3
        assert expanded.at(3)[0, 1] == pytest.approx(want, abs=1e-15)

    def test_kernel_components_match_matrix(self):
        cfg = ModelConfig(2, (0.5,), (0.25,), {(0, 1): 3, (1, 0): 2, (0, 0): 1})
        rng = np.random.default_rng(11)
        params = Parameters(
            bias=np.zeros(2),
            u=rng.normal(size=(3, 1)),
            v=rng.normal(size=(3, 1)),
        )
        expanded = expand_weights(params, cfg, 7)
        for delta in range(1, 7):
            for i in range(2):
                for j in range(2):
                    want = forward_kernel(params, cfg, i, j, delta) + reverse_kernel(
                        params, cfg, j, i, delta
                    )
                    assert expanded.at(delta)[i, j] == pytest.approx(want, abs=1e-15)


class TestTruncationHorizon:
    def test_tail_below_tolerance(self):
        cfg = ModelConfig.dense(2, lambdas=(0.5,), mus=(0.25,), delay=5)
        t = truncation_horizon(cfg, tol=1e-12)
        rate = 0.5
        assert rate ** (t + 1 - cfg.max_delay) / (1 - rate) < 1e-12
        assert rate ** (t - cfg.max_delay) / (1 - rate) >= 1e-12  # smallest such T

    def test_slower_decay_needs_longer_horizon(self):
        fast = ModelConfig.dense(2, lambdas=(0.3,), mus=(0.2,))
        slow = ModelConfig.dense(2, lambdas=(0.9,), mus=(0.2,))
        assert truncation_horizon(slow) > truncation_horizon(fast)


class TestNaiveFireProb:
    def test_zero_history_reduces_to_bias(self):
        cfg = ModelConfig.dense(2, delay=2)
        params = Parameters.zeros(cfg)
        params.bias[:] = [0.4, -0.8]
        expanded = expand_weights(params, cfg, 10)
        history = [np.zeros(2, dtype=int)] * 9
        for j, b in enumerate(params.bias):
            want = 1.0 / (1.0 + math.exp(-b))
            assert naive_fire_prob(expanded, params.bias, cfg, history, j) == pytest.approx(want)

    def test_single_spike_at_the_delay(self):
        # one spike arriving exactly now through u=1: sigmoid(1)
        cfg = ModelConfig(2, (0.5,), (0.5,), {(0, 1): 3})
        params = Parameters(np.zeros(2), np.array([[1.0]]), np.zeros((1, 1)))
        horizon = 12
        expanded = expand_weights(params, cfg, horizon)
        history = [np.zeros(2, dtype=int) for _ in range(horizon - 1)]
        history[-3] = np.array([1, 0])
        want = 1.0 / (1.0 + math.exp(-1.0))
        assert naive_fire_prob(expanded, params.bias, cfg, history, 1) == pytest.approx(want)

    def test_history_length_enforced(self):
        cfg = ModelConfig.dense(2)
        expanded = expand_weights(Parameters.zeros(cfg), cfg, 5)
        with pytest.raises(ValueError, match="history"):
            naive_fire_prob(expanded, np.zeros(2), cfg, [np.zeros(2)] * 3, 0)

    @given(configs_with_params(max_units=3, max_delay=4, scale=1.0))
    @settings(max_examples=15)
    def test_matches_trace_path_beyond_horizon(self, cfg_params):
        cfg, params = cfg_params
        if max(max(cfg.lambdas), max(cfg.mus)) > 0.6:
            return  # keep the truncation horizon short for test speed
        horizon = truncation_horizon(cfg, tol=1e-12)
        rng = np.random.default_rng(99)
        history = (rng.random((horizon - 1 + 25, cfg.n_units)) < 0.5).astype(np.int64)
        state = init_state(cfg)
        for x in history:
            state = advance(state, cfg, x)
        expanded = expand_weights(params, cfg, horizon)
        window = list(history[-(horizon - 1):])
        for j in range(cfg.n_units):
            fast = fire_prob(params, state, cfg, j)
            slow = naive_fire_prob(expanded, params.bias, cfg, window, j)
            assert fast == pytest.approx(slow, abs=1e-10)
            fast_e = unit_energy(params, state, cfg, j, 1)
            slow_e = naive_unit_energy(expanded, params.bias, cfg, window, j, 1)
            assert fast_e == pytest.approx(slow_e, abs=1e-10)


class TestTracesFromScratch:
    def test_empty_history_is_init_state(self):
        cfg = ModelConfig.dense(2, delay=3)
        direct = traces_from_scratch(cfg, [])
        fresh = init_state(cfg)
        np.testing.assert_array_equal(direct.alpha, fresh.alpha)
        np.testing.assert_array_equal(direct.gamma, fresh.gamma)
        np.testing.assert_array_equal(direct.queue, fresh.queue)

    def test_hand_worked_history(self):
        cfg = ModelConfig(1, (0.5,), (0.5,), {(0, 0): 3})
        direct = traces_from_scratch(cfg, [[1], [0], [0], [0]])
        assert direct.alpha[0, 0] == pytest.approx(0.5)
        assert direct.gamma[0, 0] == pytest.approx(0.0625)
        assert direct.queue.tolist() == [0, 0]

    def test_agrees_with_advance_on_random_histories(self, rng):
        from dybm.validate import random_config, random_history

        for _ in range(200):
            cfg = random_config(rng, max_units=3, max_delay=6)
            history = random_history(rng, cfg, int(rng.integers(0, 33)))
            state = init_state(cfg)
            for x in history:
                state = advance(state, cfg, x)
            direct = traces_from_scratch(cfg, list(history))
            np.testing.assert_allclose(state.alpha, direct.alpha, atol=1e-9)
            np.testing.assert_allclose(state.gamma, direct.gamma, atol=1e-9)
            np.testing.assert_array_equal(state.queue, direct.queue)
            assert state.step_count == direct.step_count


class TestFdGradient:
    def test_zero_params_all_zero_series(self):
        cfg = ModelConfig.dense(2, delay=2)
        series = np.zeros((6, 2), dtype=int)
        grad = fd_gradient(Parameters.zeros(cfg), cfg, series)
        np.testing.assert_allclose(grad.d_bias, -3.0, atol=1e-7)
        np.testing.assert_allclose(grad.d_u, 0.0, atol=1e-7)
        np.testing.assert_allclose(grad.d_v, 0.0, atol=1e-7)

    def test_matches_analytic_gradient(self, rng):
        from dybm.validate import random_config, random_history, random_params

        cfg = random_config(rng, max_units=3, max_delay=4, rate_range=(0.3, 0.7))
        params = random_params(rng, cfg)
        series = random_history(rng, cfg, 10)
        analytic = sequence_gradient(params, cfg, series)
        numeric = fd_gradient(params, cfg, series)
        for a, f in (
            (analytic.d_bias, numeric.d_bias),
            (analytic.d_u, numeric.d_u),
            (analytic.d_v, numeric.d_v),
        ):
            if a.size:
                np.testing.assert_allclose(a, f, rtol=1e-5, atol=1e-8)

    def test_second_order_convergence(self):
        # halving h shrinks the central-difference error about fourfold
        cfg = ModelConfig.dense(2, delay=2)
        rng = np.random.default_rng(21)
        params = Parameters(
            bias=rng.normal(size=2), u=rng.normal(size=(4, 1)), v=rng.normal(size=(4, 1))
        )
        series = (rng.random((8, 2)) < 0.5).astype(int)
        exact = sequence_gradient(params, cfg, series)

        def err(h):
            g = fd_gradient(params, cfg, series, h=h)
            return max(
                np.max(np.abs(g.d_bias - exact.d_bias)),
                np.max(np.abs(g.d_u - exact.d_u)),
                np.max(np.abs(g.d_v - exact.d_v)),
            )

        e1, e2 = err(1e-3), err(5e-4)
        assert e2 < e1 / 2.5  # roughly quartic shrink, generous slack

    def test_rejects_bad_h(self):
        cfg = ModelConfig.dense(1)
        with pytest.raises(ValueError):
            fd_gradient(Parameters.zeros(cfg), cfg, [[1]], h=0.0)


class TestTinyBM:
    def test_uniform_when_unparameterised(self):
        bm = TinyBM(np.zeros(2), np.zeros((2, 2)))
        for x in ([0, 0], [0, 1], [1, 0], [1, 1]):
            assert bm_prob(bm, x) == pytest.approx(0.25)

    def test_single_coupling_log2(self):
        # coupling ln 2 between the two units: P(1,1)=2/5, others 1/5
        w = np.zeros((2, 2))
        w[0, 1] = w[1, 0] = math.log(2.0)
        bm = TinyBM(np.zeros(2), w)
        assert bm_prob(bm, [1, 1]) == pytest.approx(0.4, rel=1e-12)
        for x in ([0, 0], [0, 1], [1, 0]):
            assert bm_prob(bm, x) == pytest.approx(0.2, rel=1e-12)

    def test_probabilities_normalise(self, rng):
        for n in (1, 2, 3, 7, 10):
            w = rng.normal(size=(n, n))
            w = (w + w.T) / 2
            np.fill_diagonal(w, 0.0)
            bm = TinyBM(rng.normal(size=n), w, temperature=1.3)
            assert abs(bm_probs(bm).sum() - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="12"):
            TinyBM(np.zeros(13), np.zeros((13, 13)))
        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            TinyBM(np.zeros(2), w)
        with pytest.raises(ValueError, match="diagonal"):
            TinyBM(np.zeros(2), np.eye(2))

    def test_hebb_form_single_observation(self, rng):
        w = rng.normal(size=(3, 3))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        bm = TinyBM(rng.normal(size=3), w, temperature=1.0)
        x = np.array([1, 1, 0])
        d_b, d_w = bm_exact_gradient(bm, [x])
        probs = bm_probs(bm)
        import itertools

        states = np.array(list(itertools.product((0, 1), repeat=3)), dtype=float)
        for i in range(3):
            want_b = x[i] - probs @ states[:, i]
            assert d_b[i] == pytest.approx(want_b, abs=1e-12)
            for j in range(3):
                if i == j:
                    continue
                want_w = x[i] * x[j] - probs @ (states[:, i] * states[:, j])
                assert d_w[i, j] == pytest.approx(want_w, abs=1e-12)

    def test_gradient_vanishes_at_maximum_likelihood(self):
        from dybm.validate import _full_support_dataset

        dataset = _full_support_dataset()
        bm = TinyBM(np.zeros(3), np.zeros((3, 3)))
        eta = 0.4 / len(dataset)
        for _ in range(20000):
            d_b, d_w = bm_exact_gradient(bm, dataset)
            norm = math.sqrt(float(np.sum(d_b**2)) + float(np.sum(d_w**2)))
            if norm < 1e-7:
                break
            bm = TinyBM(bm.bias + eta * d_b, bm.weights + eta * d_w, bm.temperature)
        assert norm < 1e-6

    def test_empty_dataset_rejected(self):
        bm = TinyBM(np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            bm_exact_gradient(bm, [])
