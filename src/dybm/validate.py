"""Oracle-backed equivalence checks over randomised desk-scale instances.

Each check draws many random models and histories, computes the same
quantity along the fast path and along the matching brute-force path from
``oracle``, and reports the worst disagreement against a fixed tolerance.
Every check computes one error per case and builds its report through one
harness (``_report``), whose maximum keeps NaN: a case whose fast path
gives a non-finite result fails the check instead of vanishing from it.
Seeded and deterministic: the same seed reproduces the same report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import learning, model, oracle
from .config import ModelConfig, Parameters

__all__ = [
    "PropertyReport",
    "random_config",
    "random_params",
    "random_history",
    "check_trace_recursion",
    "check_energy_expansion",
    "check_gradient_finite_difference",
    "check_block_gradient",
    "check_tiny_bm",
    "run_all",
]


@dataclass(frozen=True)
class PropertyReport:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    cases: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: max error {self.max_error:.3e} "
            f"(tolerance {self.tolerance:.1e}, {self.cases} cases)"
        )


# ---------------------------------------------------------------------------
# Random instances


def random_config(
    rng: np.random.Generator,
    *,
    max_units: int = 3,
    max_delay: int = 5,
    max_rates: int = 2,
    rate_range: tuple[float, float] = (0.15, 0.7),
) -> ModelConfig:
    """Random desk-scale configuration with at least one connected pair."""
    n = int(rng.integers(1, max_units + 1))
    k = int(rng.integers(1, max_rates + 1))
    l = int(rng.integers(1, max_rates + 1))
    lo, hi = rate_range
    lambdas = tuple(float(x) for x in rng.uniform(lo, hi, size=k))
    mus = tuple(float(x) for x in rng.uniform(lo, hi, size=l))
    all_pairs = [(i, j) for i in range(n) for j in range(n)]
    keep = rng.random(len(all_pairs)) < 0.75
    if not keep.any():
        keep[int(rng.integers(0, len(all_pairs)))] = True
    delays = {
        pair: int(rng.integers(1, max_delay + 1))
        for pair, kept in zip(all_pairs, keep)
        if kept
    }
    temperature = float(rng.uniform(0.7, 1.5))
    return ModelConfig(n, lambdas, mus, delays, temperature)


def random_params(rng: np.random.Generator, config: ModelConfig, scale: float = 0.8) -> Parameters:
    arr = config.arrays
    return Parameters._wrap(rng.normal(0.0, scale, size=arr.n_params), arr.bank_shapes)


def random_history(rng: np.random.Generator, config: ModelConfig, length: int) -> np.ndarray:
    return (rng.random((length, config.n_units)) < 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# Checks: each computes one error per case and reports through ``_report``


def _worst(*errors) -> float:
    """The largest entry of ``errors`` (numbers or arrays), 0.0 for none. A
    NaN stays NaN, where Python's ``max`` would drop it."""
    return float(np.max([np.max(e, initial=0.0) for e in errors], initial=0.0))


def _report(name: str, tolerance: float, errors: list[float], detail: str = "") -> PropertyReport:
    """The report on one error per case: the worst fails when it is above
    ``tolerance`` or NaN."""
    worst = _worst(errors)
    return PropertyReport(name, worst <= tolerance, worst, tolerance, len(errors), detail)


def check_trace_recursion(seed: int = 0, cases: int = 200, max_len: int = 64) -> PropertyReport:
    """Incremental trace updates must equal the definitions evaluated from
    scratch on the full history (and the queues must match exactly)."""
    rng = np.random.default_rng(seed)

    def error() -> float:
        config = random_config(rng, max_units=4, max_delay=8, max_rates=3)
        history = random_history(rng, config, int(rng.integers(0, max_len + 1)))
        state = model.init_state(config)
        for x in history:
            state = model.advance(state, config, x)
        direct = oracle.traces_from_scratch(config, list(history))
        if (
            not np.array_equal(state.queue, direct.queue)
            or state.step_count != direct.step_count
        ):
            return math.inf
        return _worst(np.abs(state.alpha - direct.alpha), np.abs(state.gamma - direct.gamma))

    return _report(
        "trace recursion matches direct evaluation", 1e-9, [error() for _ in range(cases)]
    )


def check_energy_expansion(seed: int = 0, cases: int = 100) -> PropertyReport:
    """Trace-form energies and firing probabilities must match the explicit
    lag-matrix double sum once the truncation tail is negligible."""
    rng = np.random.default_rng(seed)

    def error() -> float:
        config = random_config(
            rng, max_units=3, max_delay=5, max_rates=2, rate_range=(0.1, 0.5)
        )
        params = random_params(rng, config, scale=1.0)
        horizon = oracle.truncation_horizon(config, tol=1e-12)
        window = horizon - 1
        # half the cases exercise real truncation with history beyond the window
        length = window + (int(rng.integers(10, 40)) if rng.random() < 0.5 else 0)
        history = random_history(rng, config, length)
        state = model.init_state(config)
        for x in history:
            state = model.advance(state, config, x)
        padded = np.zeros((window, config.n_units), dtype=np.int64)
        if length:
            take = min(window, length)
            padded[window - take :] = history[length - take :]
        expanded = oracle.expand_weights(params, config, horizon)
        errors = []
        for j in range(config.n_units):
            fast_e = model.unit_energy(params, state, config, j, 1)
            slow_e = oracle.naive_unit_energy(
                expanded, params.bias, config, list(padded), j, 1
            )
            fast_p = model.fire_prob(params, state, config, j)
            slow_p = oracle.naive_fire_prob(expanded, params.bias, config, list(padded), j)
            errors += [abs(fast_e - slow_e), abs(fast_p - slow_p)]
        return _worst(errors)

    return _report(
        "trace energies match expanded weight matrices", 1e-10, [error() for _ in range(cases)]
    )


def check_gradient_finite_difference(
    seed: int = 0, cases: int = 50, h: float = 1e-5
) -> PropertyReport:
    """Analytic sequence gradients must match central finite differences of
    the sequence log-likelihood within max(1e-5 relative, 1e-8 absolute);
    reported error is normalised so that 1.0 sits exactly on the bound. A
    log-likelihood that is not finite while differencing fails its case."""
    rng = np.random.default_rng(seed)

    def error() -> float:
        config = random_config(
            rng, max_units=3, max_delay=5, max_rates=2, rate_range=(0.3, 0.7)
        )
        params = random_params(rng, config, scale=0.8)
        series = random_history(rng, config, int(rng.integers(1, 21)))
        a = learning.sequence_gradient(params, config, series).theta
        try:
            f = oracle.fd_gradient(params, config, series, h=h).theta
        except ValueError:  # a non-finite log-likelihood, unless h itself is bad
            if not h > 0:
                raise
            return math.nan
        bound = np.maximum(1e-5 * np.maximum(np.abs(a), np.abs(f)), 1e-8)
        return _worst(np.abs(a - f) / bound)

    return _report(
        "analytic gradients match finite differences",
        1.0,
        [error() for _ in range(cases)],
        "error normalised to the max(1e-5 rel, 1e-8 abs) bound",
    )


def check_block_gradient(seed: int = 0, cases: int = 50) -> PropertyReport:
    """Full-batch training scores a dataset as one stream of feature blocks
    of many steps; its gradient and log-likelihood must match each step's
    added to one total in dataset order. On the reference platform they
    agree bit for bit; a numpy build may order a reduction differently, so
    the check allows 1e-12 of each bank's largest magnitude. Datasets of one
    to four series are cut into blocks of random length, so the sums also
    cross block ends and series start inside a block."""
    rng = np.random.default_rng(seed)

    def error() -> float:
        config = random_config(rng, max_units=3, max_delay=5, max_rates=2)
        params = random_params(rng, config)
        lengths = rng.integers(1, 21, size=int(rng.integers(1, 5)))
        dataset = [random_history(rng, config, int(t)) for t in lengths]
        per_step = learning.Gradient.zeros(config)
        per_step_ll = 0.0
        for slices in dataset:
            state = model.init_state(config)
            for x in slices:
                per_step.add_(learning.step_gradient(params, state, config, x))
                per_step_ll += model.cond_prob(params, state, config, x)[1]
                state = model.advance(state, config, x)
        blocks = learning._blocks(config, dataset, int(rng.integers(1, lengths.sum() + 1)))
        block, block_ll = learning._sequence_grad_ll(params, config, blocks)
        errors = []
        for a, b in zip(
            block.banks + (np.array([block_ll]),), per_step.banks + (np.array([per_step_ll]),)
        ):
            scale = _worst(np.maximum(np.abs(a), np.abs(b)))
            if scale != 0.0:  # a NaN scale is compared, and fails
                errors.append(_worst(np.abs(a - b)) / scale)
        return _worst(errors)

    return _report(
        "block gradients match per-step sums",
        1e-12,
        [error() for _ in range(cases)],
        "error relative to each bank's largest magnitude",
    )


def check_tiny_bm(seed: int = 0) -> PropertyReport:
    """Exact enumeration sanity: probabilities normalise, the weight
    gradient is the coincidence difference, and exact ascent drives the
    gradient to zero. Each of the three is one case."""
    rng = np.random.default_rng(seed)

    # normalisation across sizes
    normalisation = _worst(
        [abs(float(oracle.bm_probs(_random_bm(rng, n)).sum()) - 1.0) for n in (1, 2, 3, 6, 8)]
    )

    # single-observation weight gradient equals the coincidence difference
    bm = _random_bm(rng, 3, temperature=1.0)
    x = np.array([1, 0, 1])
    _, d_w = oracle.bm_exact_gradient(bm, [x])
    probs = oracle.bm_probs(bm)
    states = oracle._all_states(3)
    second_moment = states.T @ (states * probs[:, None])
    coincidence = _worst(np.abs(d_w - (np.outer(x, x) - second_moment))[~np.eye(3, dtype=bool)])

    # ascent on an interior empirical distribution reaches a stationary point
    dataset = _full_support_dataset()
    bm = oracle.TinyBM(bias=np.zeros(3), weights=np.zeros((3, 3)), temperature=1.0)
    eta = 0.4 / len(dataset)
    norm = math.inf
    for _ in range(20000):
        d_b, d_w = oracle.bm_exact_gradient(bm, dataset)
        norm = math.sqrt(float(np.sum(d_b**2)) + float(np.sum(d_w**2)))
        if norm < 1e-7:
            break
        bm = oracle.TinyBM(
            bias=bm.bias + eta * d_b,
            weights=bm.weights + eta * d_w,
            temperature=bm.temperature,
        )

    return _report(
        "tiny Boltzmann machine enumeration checks",
        1e-6,
        [normalisation, coincidence, norm],
        "normalisation, coincidence-form gradient, ascent fixed point",
    )


def _random_bm(rng: np.random.Generator, n: int, temperature: float | None = None) -> oracle.TinyBM:
    w = rng.normal(0.0, 0.8, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return oracle.TinyBM(
        bias=rng.normal(0.0, 0.8, size=n),
        weights=w,
        temperature=float(rng.uniform(0.7, 1.5)) if temperature is None else temperature,
    )


def _full_support_dataset() -> list[np.ndarray]:
    """Every 3-bit state at least once, so the empirical moments are
    interior and the maximum-likelihood point is finite."""
    counts = {
        (0, 0, 0): 3,
        (1, 0, 0): 2,
        (0, 1, 0): 2,
        (0, 0, 1): 1,
        (1, 1, 0): 2,
        (1, 0, 1): 1,
        (0, 1, 1): 1,
        (1, 1, 1): 2,
    }
    out: list[np.ndarray] = []
    for state, c in counts.items():
        out.extend([np.array(state, dtype=np.int64)] * c)
    return out


def run_all(seed: int = 0) -> list[PropertyReport]:
    """Run every oracle equivalence check with substreams of one seed."""
    base = np.random.SeedSequence(seed).generate_state(5)
    return [
        check_trace_recursion(seed=int(base[0])),
        check_energy_expansion(seed=int(base[1])),
        check_gradient_finite_difference(seed=int(base[2])),
        check_tiny_bm(seed=int(base[3])),
        check_block_gradient(seed=int(base[4])),
    ]
