"""Autoregressive rollout and prediction scoring.

A trained model defines the distribution of the next slice given the past,
so rolling it forward (sample a slice, feed it back, repeat) is itself a
generative model of the series. Argmax mode thresholds the firing
probabilities instead of sampling; exact ties at one half predict silence,
so argmax rollouts are fully deterministic. No path here calls
``advance``: a scored series, a primer and each generated slice as it is
sampled all step through ``learning``'s trace builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ModelConfig, Parameters, _count
from .learning import _block_steps, _builder, _normalize_series, _score
# ``advance`` is not called here, but the benchmark's span shims look it up in this module
from .model import TraceState, _drives, _Features, _Scratch, _sigmoid, advance, fire_probs
from .rng import _reseater, step_stream

__all__ = [
    "RolloutConfig",
    "PredictionMetrics",
    "sample_step",
    "rollout",
    "eval_prediction",
]


@dataclass
class RolloutConfig:
    """How to generate: number of steps, "sample" or "argmax", the run seed
    (ignored by argmax), and an optional non-empty primer series absorbed
    before the first generated step."""

    horizon: int
    mode: str = "sample"
    seed: int = 0
    primer: object = None

    def __post_init__(self) -> None:
        self.horizon = _count("horizon", self.horizon, 1)
        self.seed = _count("seed", self.seed)
        if self.mode not in ("sample", "argmax"):
            raise ConfigError(f"mode must be 'sample' or 'argmax', got {self.mode!r}")


def sample_step(
    params: Parameters,
    state: TraceState,
    config: ModelConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one slice: each unit fires independently with its own firing
    probability. Consumes one uniform per unit, ascending unit order.
    The caller advances the state."""
    p = fire_probs(params, state, config)
    draws = rng.random(config.n_units)
    return (draws < p).astype(np.int64)


def rollout(params: Parameters, config: ModelConfig, rollout_cfg: RolloutConfig) -> np.ndarray:
    """Generate ``horizon`` slices autoregressively; returns (horizon, N).

    The primer, when given, is absorbed first; generated slices are then
    fed back one at a time. Step ``t`` samples from the substream
    ``rng.step_stream(seed, t)``, so runs are reproducible given the seed.
    The rollout builds one Philox, the step-0 stream, and seats it at each
    step by writing the step into its counter: the draws of a fresh jumped
    stream per step. The trace builder steps through the primer and then
    through each generated slice as it is written, through one drive scratch.
    A primer is read in the chunk that scoring it takes, so a window that
    was just scored continues on the same idle builder.
    """
    n, horizon = config.n_units, rollout_cfg.horizon
    primer = rollout_cfg.primer
    primer = np.empty((0, n), np.int64) if primer is None else _normalize_series(primer, n)
    sample = rollout_cfg.mode == "sample"
    if sample:
        stream_at = _reseater(step_stream(rollout_cfg.seed, 0))
    f, work = _Features(None, None, None, None, None, *config.arrays.pair_units), _Scratch(config)
    out = np.empty((horizon, n), dtype=np.int64)
    with _builder(config, _block_steps(config, max(1, len(primer)))) as builder:
        for t, (f.alpha, f.beta, f.gamma_post) in enumerate(builder.extend(primer, out)):
            z = _drives(params, f, config, work)
            if config.temperature != 1.0:  # x / 1.0 is x
                z /= config.temperature  # as z / temperature rounds
            p = _sigmoid(z, work)
            out[t] = stream_at(t).random(n) < p if sample else p > 0.5
    return out


@dataclass(frozen=True)
class PredictionMetrics:
    """Aggregate one-step-ahead scores over a series."""

    log_likelihood: float
    nll_per_bit: float
    accuracy: float
    steps: int


def eval_prediction(params: Parameters, config: ModelConfig, series) -> PredictionMetrics:
    """Walk a series scoring each observed slice before absorbing it.

    Per-bit accuracy thresholds the firing probabilities at one half (ties
    predict 0); the negative log-likelihood is normalised per bit.
    """
    slices = _normalize_series(series, config.n_units)
    total_ll, correct = _score(params, config, slices)
    bits = len(slices) * config.n_units
    return PredictionMetrics(
        log_likelihood=total_ll,
        nll_per_bit=-total_ll / bits,
        accuracy=correct / bits,
        steps=len(slices),
    )
