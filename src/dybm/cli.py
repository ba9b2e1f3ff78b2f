"""Command-line front end.

Subcommands: train, eval, generate, validate, kernel-dump, bench. Machine
output (metrics, reports, CSV) goes to stdout, its JSON strict (no NaN
or Infinity); human progress goes to stderr. Exit codes: 0 success, 1 validation-suite failure, 2 bad input or
configuration, 3 training divergence. All randomness flows from --seed
flags; nothing is seeded from the clock.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import fields

import numpy as np

from .checkpoint import _known, _parse, _read_config, _require, load_checkpoint, save_checkpoint
from .config import ConfigError, ModelConfig, Parameters, _count
from .generator import RolloutConfig, eval_prediction, rollout
from .learning import TrainerConfig, TrainingDiverged, train
from .model import advance, expected_footprint, init_state, measured_footprint
from .oracle import forward_kernel, reverse_kernel
from .seriesio import SeriesFormatError, format_series, read_series
from .validate import run_all

__all__ = ["main"]

# Machine output is strict JSON: a number that is not finite has no JSON form.
# The encoders are built once; json.dumps(…, allow_nan=False) builds one per call.
_JSON = json.JSONEncoder(allow_nan=False)
_JSON_REPORT = json.JSONEncoder(allow_nan=False, indent=2)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _json(doc: dict, encoder: json.JSONEncoder = _JSON) -> str:
    """``doc`` as strict JSON; raises ValueError naming a field that is not finite."""
    try:
        return encoder.encode(doc)
    except ValueError:
        field, value = _non_finite(doc, "")
        raise ValueError(f"{field} is {value}, which JSON output cannot hold") from None


def _non_finite(doc, path: str):
    """(dotted path, value) of the first number in ``doc`` that is not finite, or None."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else (path, doc)
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        found = _non_finite(value, f"{path}.{key}" if path else str(key))
        if found:
            return found
    return None


def _load_run_config(path: str) -> tuple[ModelConfig, dict]:
    """Read a run configuration file: the checkpoint's ``config`` section
    plus an optional ``trainer`` section."""
    text = _read(path)
    try:
        doc = _parse(text, "run config")
        _known(doc, ("config", "trainer"), "run config")
        config = _read_config(doc, "run config")
        trainer = _require(doc, "trainer", dict, "run config") if "trainer" in doc else {}
        _known(trainer, [f.name for f in fields(TrainerConfig)], "trainer")
    except ValueError as exc:  # CheckpointError or ConfigError
        raise ConfigError(f"{path}: {exc}") from exc
    return config, trainer


def _read_series_for(path: str, config: ModelConfig) -> np.ndarray:
    """Read a series CSV and check that it has one column per model unit."""
    series = read_series(path)
    if series.shape[1] != config.n_units:
        raise ConfigError(
            f"{path}: series has {series.shape[1]} units, model expects {config.n_units}"
        )
    return series


def _cmd_train(args: argparse.Namespace) -> int:
    config, trainer_doc = _load_run_config(args.config)
    # file-format defaults, then the file's trainer section, then the flags
    flags = {"learning_rate": args.learning_rate, "epochs": args.epochs, "mode": args.mode}
    settings = {"learning_rate": 1e-3, "epochs": 1, **trainer_doc}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    trainer = TrainerConfig(**settings)
    dataset = [_read_series_for(path, config) for path in args.data]
    _log(
        f"training on {len(dataset)} series, mode={trainer.mode}, "
        f"learning_rate={trainer.learning_rate}, epochs={trainer.epochs}"
    )
    params = Parameters.zeros(config)
    params, metrics = train(
        params,
        config,
        dataset,
        trainer,
        record_sink=lambda rec: sys.stdout.write(_json(rec) + "\n"),  # one write; print makes two
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(save_checkpoint(params, config))
    if metrics.epoch_log_likelihood:
        _log(
            f"done: log-likelihood {metrics.epoch_log_likelihood[0]:.6f} -> "
            f"{metrics.epoch_log_likelihood[-1]:.6f} over "
            f"{len(metrics.epoch_log_likelihood)} epochs"
        )
    _log(f"checkpoint written to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    params, config, _ = load_checkpoint(_read(args.model))
    data = _read_series_for(args.data, config)
    with np.errstate(over="ignore"):  # a score that overflows is refused by name below
        scores = eval_prediction(params, config, data)
    doc = {"log_likelihood": scores.log_likelihood, "nll_per_bit": scores.nll_per_bit, "accuracy": scores.accuracy}
    print(_json(doc))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    params, config, _ = load_checkpoint(_read(args.model))
    primer = None if args.primer is None else _read_series_for(args.primer, config)
    cfg = RolloutConfig(horizon=args.horizon, mode=args.mode, seed=args.seed, primer=primer)
    series = rollout(params, config, cfg)
    sys.stdout.write(format_series(series))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    reports = run_all(seed=_count("--seed", args.seed))
    for report in reports:
        print(report.line())
    elapsed = time.perf_counter() - started
    _log(f"validation suite finished in {elapsed:.1f}s")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_kernel_dump(args: argparse.Namespace) -> int:
    params, config, _ = load_checkpoint(_read(args.model))
    i, j = args.pre, args.post
    if (i, j) not in config.pair_index:
        raise ConfigError(f"pair ({i}, {j}) is not connected in this model")
    _count("--max-delta", args.max_delta, 1)
    print("delta,w_forward,w_reverse,w_total")
    for delta in range(1, args.max_delta + 1):
        fwd = forward_kernel(params, config, i, j, delta)
        rev = reverse_kernel(params, config, j, i, delta)
        print(
            f"{delta},{format(fwd, '.17g')},{format(rev, '.17g')},"
            f"{format(fwd + rev, '.17g')}"
        )
    return 0


def _bench_config(n_units: int, fan_in: int) -> ModelConfig:
    delays = {((j - r) % n_units, j): 3 for j in range(n_units) for r in range(1, fan_in + 1)}
    return ModelConfig(n_units, (0.5,), (0.25,), delays)


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated unit counts, got {args.sizes!r}") from None
    if not sizes:
        raise ConfigError("--sizes must name at least one unit count")
    _count("--steps", args.steps, 1)
    _count("--fan-in", args.fan_in, 1)
    _count("--seed", args.seed)
    for n in sizes:  # every size is checked before any is timed
        if args.fan_in >= _count("--sizes", n, 2):
            raise ConfigError(f"--fan-in must be below the smallest size, got {args.fan_in} vs {n}")
    report = {"fan_in": args.fan_in, "steps": args.steps, "sweep": []}
    trainer = TrainerConfig(learning_rate=1e-3, epochs=1, mode="online")
    for n in sizes:
        config = _bench_config(n, args.fan_in)
        rng = np.random.Generator(np.random.Philox(args.seed))
        data = (rng.random((args.steps, n)) < 0.5).astype(np.int64)
        train(Parameters.zeros(config), config, [data[:10]], trainer)  # warm caches before timing
        started = time.perf_counter()
        params, _ = train(Parameters.zeros(config), config, [data], trainer)
        elapsed = time.perf_counter() - started
        state = init_state(config)  # the audited state absorbs the whole series, untimed
        for x in data:
            state = advance(state, config, x)
        expected = expected_footprint(config)
        measured = measured_footprint(state, params)
        audit = {
            name: {"measured": getattr(measured, name), "expected": getattr(expected, name)}
            for name in ("trace_scalars", "param_scalars", "queue_bits")
        }
        per_synapse = elapsed / (args.steps * config.n_pairs) * 1e6
        report["sweep"].append(
            {"n_units": n, "pairs": config.n_pairs, "per_synapse_update_us": per_synapse, **audit}
        )
    print(_json(report, _JSON_REPORT))
    return 0


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@functools.cache  # once per process: the commands look up train, rollout and the rest when run
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dybm",
        description="Train, evaluate, and sample binary time-series models "
        "with exact trace-based online learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("config", help="run configuration JSON")
    p.add_argument("data", nargs="+", help="training series CSV file(s)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--learning-rate", type=float, default=None, help="override trainer.learning_rate")
    p.add_argument("--epochs", type=int, default=None, help="override trainer.epochs")
    p.add_argument("--mode", choices=("online", "full_batch"), default=None, help="override trainer.mode")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a series under a trained model")
    p.add_argument("model", help="checkpoint path")
    p.add_argument("data", help="series CSV path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("generate", help="roll the model forward, CSV to stdout")
    p.add_argument("model", help="checkpoint path")
    p.add_argument("--horizon", type=int, required=True, help="steps to generate")
    p.add_argument("--mode", choices=("sample", "argmax"), default="sample")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--primer", default=None, help="series CSV absorbed before generating")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="run the brute-force equivalence suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("kernel-dump", help="dump one pair's weight kernel as CSV")
    p.add_argument("model", help="checkpoint path")
    p.add_argument("--pre", type=int, required=True, help="source unit index")
    p.add_argument("--post", type=int, required=True, help="target unit index")
    p.add_argument("--max-delta", type=int, default=16, help="largest lag to emit")
    p.set_defaults(func=_cmd_kernel_dump)

    p = sub.add_parser("bench", help="update-cost and storage audit")
    p.add_argument("--sizes", default="8,32,128", help="comma-separated unit counts")
    p.add_argument("--fan-in", type=int, default=4, help="incoming pairs per unit")
    p.add_argument("--steps", type=int, default=200, help="timed steps per size")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        _log(f"error: {exc}")
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        # ConfigError, CheckpointError, SeriesFormatError and flag checks are
        # ValueErrors; unreadable or missing paths (directories too) OSErrors;
        # a horizon or step count too large to allocate raises MemoryError
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
