"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Each test prints its verdict before asserting so the report is
complete even on failure.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from dybm.checkpoint import load_checkpoint
from dybm.cli import _load_run_config
from dybm.config import ModelConfig, Parameters
from dybm.fixtures import (
    PERIOD4_CYCLE,
    period4_path,
    period4_run_path,
    random_n3_path,
    random_n3_run_path,
)
from dybm.generator import RolloutConfig, rollout
from dybm.learning import TrainerConfig, train
from dybm.model import advance, expected_footprint, fire_probs, init_state, measured_footprint
from dybm.oracle import TinyBM, bm_exact_gradient, bm_probs
from dybm.seriesio import read_series
from dybm.validate import (
    _full_support_dataset,
    check_energy_expansion,
    check_gradient_finite_difference,
    check_trace_recursion,
)


def report(number, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {verdict} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def load_run_config(path):
    # the reader `dybm train` uses, so the fixtures are held to its schema
    config, _ = _load_run_config(path)
    return config


def test_criterion_1_gradient_exactness():
    rep = check_gradient_finite_difference(seed=101, cases=50, h=1e-5)
    report(
        1,
        "gradient exactness",
        rep.passed and rep.cases >= 50,
        f"worst deviation {rep.max_error:.3e} of the max(1e-5 rel, 1e-8 abs) "
        f"bound over {rep.cases} instances",
    )


def test_criterion_2_trace_definition_equivalence():
    rep = check_trace_recursion(seed=202, cases=200, max_len=64)
    report(
        2,
        "trace/definition equivalence",
        rep.passed and rep.cases >= 200,
        f"max |difference| {rep.max_error:.3e} <= 1e-9 over {rep.cases} histories",
    )


def test_criterion_3_infinite_finite_equivalence():
    rep = check_energy_expansion(seed=303, cases=100)
    report(
        3,
        "infinite/finite equivalence",
        rep.passed and rep.cases >= 100,
        f"max |difference| {rep.max_error:.3e} <= 1e-10 over {rep.cases} instances",
    )


def test_criterion_4_likelihood_ascent():
    # numpy's min and max keep a NaN, which Python's drop, so a NaN fails
    changes = []
    for csv_path, run_path in (
        (period4_path(), period4_run_path()),
        (random_n3_path(), random_n3_run_path()),
    ):
        config = load_run_config(run_path)
        series = read_series(csv_path)
        _, metrics = train(
            Parameters.zeros(config),
            config,
            [series],
            TrainerConfig(learning_rate=1e-3, epochs=200, mode="full_batch"),
        )
        assert len(metrics.epoch_log_likelihood) == 200
        changes.append(np.diff(metrics.epoch_log_likelihood))
    worst = float(np.min(np.concatenate(changes)))
    report(
        4,
        "likelihood ascent",
        worst >= -1e-9,
        f"smallest epoch-to-epoch change {worst:.3e} >= -1e-9 on both fixtures",
    )


def test_criterion_5_generative_reproduction():
    config = load_run_config(period4_run_path())
    series = read_series(period4_path())
    params, _ = train(
        Parameters.zeros(config),
        config,
        [series],
        TrainerConfig(learning_rate=0.1, epochs=500, mode="full_batch"),
    )
    # next-step confidence on every step of the cycle, primed to steady state
    state = init_state(config)
    for x in series:
        state = advance(state, config, x)
    correct = []
    for step in range(4):
        target = PERIOD4_CYCLE[step]
        p = fire_probs(params, state, config)
        correct.append(np.where(target == 1, p, 1.0 - p))
        state = advance(state, config, target)
    worst_prob = float(np.min(correct))
    # argmax rollout after a single-period primer
    generated = rollout(
        params, config, RolloutConfig(horizon=32, mode="argmax", primer=PERIOD4_CYCLE)
    )
    reproduced = np.array_equal(generated, np.tile(PERIOD4_CYCLE, (8, 1)))
    report(
        5,
        "generative reproduction",
        worst_prob >= 0.9 and reproduced,
        f"min next-step confidence {worst_prob:.4f} >= 0.9; "
        f"32-step argmax rollout {'matches' if reproduced else 'differs from'} the pattern",
    )


def test_criterion_6_tiny_bm_oracle():
    rng = np.random.default_rng(606)
    # (a) probabilities sum to one
    norm_errs = []
    for n in (2, 3, 5, 8):
        w = rng.normal(size=(n, n))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        bm = TinyBM(rng.normal(size=n), w, temperature=float(rng.uniform(0.6, 1.8)))
        norm_errs.append(abs(float(bm_probs(bm).sum()) - 1.0))
    norm_err = float(np.max(norm_errs))
    # (b) the weight gradient is the coincidence difference (single point)
    w = rng.normal(size=(3, 3))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    bm = TinyBM(rng.normal(size=3), w, temperature=1.0)
    x = np.array([1, 0, 1])
    _, d_w = bm_exact_gradient(bm, [x])
    probs = bm_probs(bm)
    import itertools

    states = np.array(list(itertools.product((0, 1), repeat=3)), dtype=float)
    hebb_errs = []
    for i in range(3):
        for j in range(3):
            if i != j:
                want = x[i] * x[j] - float(probs @ (states[:, i] * states[:, j]))
                hebb_errs.append(abs(float(d_w[i, j]) - want))
    hebb_err = float(np.max(hebb_errs))
    # (c) exact ascent reaches a stationary point
    dataset = _full_support_dataset()
    bm = TinyBM(np.zeros(3), np.zeros((3, 3)), temperature=1.0)
    eta = 0.4 / len(dataset)
    norm = math.inf
    for _ in range(50000):
        d_b, d_w = bm_exact_gradient(bm, dataset)
        norm = math.sqrt(float(np.sum(d_b**2)) + float(np.sum(d_w**2)))
        if norm < 1e-7:
            break
        bm = TinyBM(bm.bias + eta * d_b, bm.weights + eta * d_w, bm.temperature)
    report(
        6,
        "tiny Boltzmann machine oracle",
        norm_err <= 1e-12 and hebb_err <= 1e-12 and norm < 1e-6,
        f"normalisation off by {norm_err:.2e} <= 1e-12; coincidence form off by "
        f"{hebb_err:.2e} <= 1e-12; gradient norm at convergence {norm:.2e} < 1e-6",
    )


def test_criterion_7_footprint_audit():
    configs = [
        ModelConfig.dense(3, lambdas=(0.5, 0.3), mus=(0.25,), delay=4),
        ModelConfig.dense(2, delay=1),
        ModelConfig(4, (0.5,), (0.2, 0.4), {(0, 1): 3, (1, 2): 5, (3, 3): 2}),
    ]
    all_exact = True
    for config in configs:
        state = init_state(config)
        params = Parameters.zeros(config)
        rng = np.random.default_rng(7)
        for _ in range(9):
            state = advance(state, config, (rng.random(config.n_units) < 0.5).astype(int))
        expected = expected_footprint(config)
        measured = measured_footprint(state, params)
        m, n, k, l = config.n_pairs, config.n_units, config.n_lambda, config.n_mu
        all_exact = all_exact and measured == expected
        all_exact = all_exact and expected.trace_scalars == m * k + n * l
        all_exact = all_exact and expected.param_scalars == n + m * (k + l)
        all_exact = all_exact and expected.queue_bits == sum(
            d - 1 for d in config.delays.values()
        )
    report(
        7,
        "footprint audit",
        all_exact,
        "stored trace reals, parameter reals, and queue bits equal the "
        "claimed formulas exactly on all audited configurations",
    )


def test_criterion_8_reproducibility(tmp_path):
    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "dybm", *map(str, argv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        run("train", period4_run_path(), period4_path(), "--out", out, "--epochs", "120")
    checkpoints_identical = out_a.read_bytes() == out_b.read_bytes()
    gen_a = run("generate", out_a, "--horizon", "64", "--mode", "sample", "--seed", "31")
    gen_b = run("generate", out_a, "--horizon", "64", "--mode", "sample", "--seed", "31")
    generations_identical = gen_a == gen_b
    report(
        8,
        "reproducibility",
        checkpoints_identical and generations_identical,
        f"repeated training checkpoints byte-identical: {checkpoints_identical}; "
        f"repeated seeded generation byte-identical: {generations_identical}",
    )
