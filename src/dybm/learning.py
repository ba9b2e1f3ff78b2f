"""Exact log-likelihood gradients and gradient-ascent training.

The per-step conditional is logistic in the parameters with the traces as
fixed features, so the per-step gradient is available in closed form and
the sequence log-likelihood is concave: full-batch ascent with a small
enough rate can never decrease it. Online mode applies one update per
observed slice; the traces do not depend on the parameters, so updating
mid-sequence loses nothing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .config import ModelConfig, Parameters, as_time_slice
from .model import (
    TraceState,
    _beta_matrix,
    _drives,
    _log_prob,
    _scaled_drives,
    _sigmoid,
    advance,
    init_state,
)

__all__ = [
    "Gradient",
    "TrainerConfig",
    "TrainMetrics",
    "TrainingDiverged",
    "step_gradient",
    "sequence_log_likelihood",
    "sequence_gradient",
    "sgd_update",
    "train",
]

# Ascent is unregularised; runaway parameters indicate a misconfigured run
# (the homeostatic pull of the expectation term is the only stabiliser).
DIVERGENCE_LIMIT = 1e6


class TrainingDiverged(RuntimeError):
    """Raised when a parameter leaves the plausible range during training."""

    def __init__(self, message: str, epoch: int, step: int):
        super().__init__(message)
        self.epoch = epoch
        self.step = step


@dataclass
class Gradient:
    """One log-likelihood gradient contribution, shaped like Parameters."""

    d_bias: np.ndarray
    d_u: np.ndarray
    d_v: np.ndarray

    @classmethod
    def zeros(cls, config: ModelConfig) -> "Gradient":
        return cls(
            d_bias=np.zeros(config.n_units),
            d_u=np.zeros((config.n_pairs, config.n_lambda)),
            d_v=np.zeros((config.n_pairs, config.n_mu)),
        )

    def add_(self, other: "Gradient") -> "Gradient":
        self.d_bias += other.d_bias
        self.d_u += other.d_u
        self.d_v += other.d_v
        return self

    def norm(self) -> float:
        return math.sqrt(
            float(np.sum(self.d_bias**2))
            + float(np.sum(self.d_u**2))
            + float(np.sum(self.d_v**2))
        )


@dataclass
class TrainerConfig:
    """How to run training.

    ``mode`` is "online" (one update per slice) or "full_batch" (one update
    per epoch from the summed gradient). Slices are always consumed in
    sequence order; when ``shuffle_seed`` is set, online mode shuffles the
    order of whole series between epochs (full-batch order is fixed).
    """

    learning_rate: float
    epochs: int
    mode: str = "full_batch"
    shuffle_seed: int | None = None

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.mode not in ("online", "full_batch"):
            raise ValueError(f"mode must be 'online' or 'full_batch', got {self.mode!r}")


@dataclass
class TrainMetrics:
    """Per-run training record; log-likelihoods are never positive."""

    epoch_log_likelihood: list[float] = field(default_factory=list)
    step_nll: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    wall_ms: float = 0.0


def step_gradient(
    params: Parameters, state: TraceState, config: ModelConfig, observed
) -> Gradient:
    """Gradient of log P(observed | state) in the parameters.

    With r[j] = (x[j] - p[j]) / temperature, the bias gradient is r, the u
    gradient pairs r of the target unit with the arrival trace, and the v
    gradient combines the near-window trace against the target's r with the
    target's source trace against the source unit's r (the depression
    coefficient acts on both ends of its pair). The state is not mutated.
    """
    x = as_time_slice(observed, config.n_units)
    return _step_grad_logp(params, state, config, x)[0]


def _step_grad_logp(
    params: Parameters, state: TraceState, config: ModelConfig, x: np.ndarray
) -> tuple[Gradient, float]:
    """Gradient and log-probability of one step; the near-window trace is
    computed once and shared by the drive and the gradient."""
    arr = config.arrays
    b = _beta_matrix(state, config)
    z = _drives(params, state, config, b) / config.temperature
    r = (x - _sigmoid(z)) / config.temperature
    gamma_post = state.gamma.ravel()[arr.gamma_post]
    grad = Gradient(
        d_bias=r,
        d_u=state.alpha * r[arr.post_k],
        d_v=-b * r[arr.post_l] - gamma_post * r[arr.pre_l],
    )
    return grad, _log_prob(z, x)


def _normalize_series(series, n_units: int) -> list[np.ndarray]:
    """Checked int slices of a non-empty series. A valid 2-D array is
    checked once and returned as row views, without a copy per slice;
    anything else is checked slice by slice by ``as_time_slice``, whose
    errors it raises."""
    arr = np.asarray(series)
    if arr.ndim == 2 and arr.shape[1] == n_units and ((arr == 0) | (arr == 1)).all():
        slices = list(arr.astype(np.int64, copy=False))
    else:
        slices = [as_time_slice(s, n_units) for s in series]
    if not slices:
        raise ValueError("series must contain at least one time slice")
    return slices


def _walk(
    config: ModelConfig, slices: list[np.ndarray]
) -> Iterator[tuple[TraceState, np.ndarray]]:
    """The one pass over a series: from the zero-history start state, yield
    each checked slice with the state that precedes it, then absorb the
    slice into the traces."""
    state = init_state(config)
    for x in slices:
        yield state, x
        state = advance(state, config, x)


def sequence_log_likelihood(params: Parameters, config: ModelConfig, series) -> float:
    """Log-probability of a whole series, chained step by step from the
    zero-history start state."""
    total = 0.0
    for state, x in _walk(config, _normalize_series(series, config.n_units)):
        total += _log_prob(_scaled_drives(params, state, config), x)
    return total


def sequence_gradient(params: Parameters, config: ModelConfig, series) -> Gradient:
    """Sum of step gradients along a series, traces advancing between
    steps; equals the gradient of ``sequence_log_likelihood``."""
    return _sequence_grad_ll(params, config, _normalize_series(series, config.n_units))[0]


def _sequence_grad_ll(
    params: Parameters,
    config: ModelConfig,
    slices: list[np.ndarray],
    step_nll: list[float] | None = None,
) -> tuple[Gradient, float]:
    """Gradient and log-likelihood of an already normalised series."""
    total = Gradient.zeros(config)
    ll = 0.0
    for state, x in _walk(config, slices):
        grad, log_p = _step_grad_logp(params, state, config, x)
        total.add_(grad)
        ll += log_p
        if step_nll is not None:
            step_nll.append(-log_p)
    return total, ll


def sgd_update(params: Parameters, grad: Gradient, learning_rate: float) -> Parameters:
    """One ascent step: parameters plus learning_rate times gradient."""
    if (
        grad.d_bias.shape != params.bias.shape
        or grad.d_u.shape != params.u.shape
        or grad.d_v.shape != params.v.shape
    ):
        raise ValueError("gradient shape does not match parameters")
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked below
        out = Parameters(
            bias=params.bias + learning_rate * grad.d_bias,
            u=params.u + learning_rate * grad.d_u,
            v=params.v + learning_rate * grad.d_v,
        )
    for name, arr in (("bias", out.bias), ("u", out.u), ("v", out.v)):
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError(f"update produced non-finite {name}")
    return out


def _check_guard(params: Parameters, epoch: int, step: int) -> None:
    for name, arr in (("bias", params.bias), ("u", params.u), ("v", params.v)):
        if arr.size == 0:
            continue
        worst = float(np.max(np.abs(arr)))
        if not worst <= DIVERGENCE_LIMIT:  # also catches nan and inf
            raise TrainingDiverged(
                f"parameter {name} reached magnitude {worst:.3e} "
                f"at epoch {epoch}, step {step}; training aborted",
                epoch=epoch,
                step=step,
            )


def train(
    params: Parameters,
    config: ModelConfig,
    dataset,
    trainer: TrainerConfig,
    record_sink: Callable[[dict], None] | None = None,
) -> tuple[Parameters, TrainMetrics]:
    """Run gradient ascent over a dataset of series.

    Traces restart from the zero-history state at every series boundary.
    Deterministic: identical inputs give bit-identical parameters.
    ``record_sink``, when given, receives one metrics dict per update
    ({epoch, step, log_likelihood, grad_norm, wall_ms}). An update that
    leaves the finite range or passes the divergence limit raises
    ``TrainingDiverged``.
    """
    series_list = [_normalize_series(s, config.n_units) for s in dataset]
    if not series_list:
        raise ValueError("dataset must contain at least one series")
    params = params.copy()
    params.validate_for(config)
    metrics = TrainMetrics()
    start = time.perf_counter()
    rng = (
        np.random.Generator(np.random.Philox(trainer.shuffle_seed))
        if trainer.shuffle_seed is not None
        else None
    )

    def elapsed_ms() -> float:
        return (time.perf_counter() - start) * 1000.0

    def update(grad: Gradient, log_likelihood: float, epoch: int, step: int) -> None:
        nonlocal params
        try:
            params = sgd_update(params, grad, trainer.learning_rate)
        except ValueError as exc:  # shapes match here, so the result was non-finite
            raise TrainingDiverged(
                f"{exc} at epoch {epoch}, step {step}; training aborted", epoch, step
            ) from None
        _check_guard(params, epoch, step)
        gnorm = grad.norm()
        metrics.grad_norms.append(gnorm)
        if record_sink is not None:
            record_sink(
                {
                    "epoch": epoch,
                    "step": step,
                    "log_likelihood": log_likelihood,
                    "grad_norm": gnorm,
                    "wall_ms": elapsed_ms(),
                }
            )

    global_step = 0
    for epoch in range(trainer.epochs):
        epoch_ll = 0.0
        if trainer.mode == "full_batch":
            total = Gradient.zeros(config)
            for series in series_list:
                grad, ll = _sequence_grad_ll(params, config, series, metrics.step_nll)
                total.add_(grad)
                epoch_ll += ll
                global_step += len(series)
            update(total, epoch_ll, epoch, global_step)
        else:
            order = list(range(len(series_list)))
            if rng is not None:
                rng.shuffle(order)
            for series_idx in order:
                for state, x in _walk(config, series_list[series_idx]):
                    grad, log_p = _step_grad_logp(params, state, config, x)
                    global_step += 1
                    update(grad, log_p, epoch, global_step)
                    epoch_ll += log_p
                    metrics.step_nll.append(-log_p)
        metrics.epoch_log_likelihood.append(epoch_ll)
    metrics.wall_ms = elapsed_ms()
    return params, metrics
