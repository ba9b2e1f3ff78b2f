#!/usr/bin/env python3
"""Benchmark for the dybm package: one workload per run, closed loop.

    python3 perfbench/run.py --workload online_wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout. One client, one process, one thread, with BLAS
pinned to one thread. Set-up runs several times and reports its median,
scaled for the host's speed; then passes of fixed work repeat until
``--seconds`` have passed; then the outputs are checked outside the timed
section. Timings are reported in units of a reference kernel timed between
operations (see workloads.py).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken from
a traced half of the run compared against an untraced half. Earlier lines
record the run environment, the footprint audit and, when traced, the span
totals. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up repeats until both minimums are met; ``setup_s`` is the median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.5
# ``setup_s`` is in seconds on a host where the reference kernel takes this
# long: about its median on the 2-vCPU Intel Xeon host the bounds were set on.
REF_NOMINAL_S = 600e-6


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="desk-scale sizes, for the schema test")
    return parser.parse_args(argv)


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
    }


def _held_bytes(obj) -> int:
    """Bytes a trace state holds: array buffers, plus list objects, which
    hold pointers (small ints are shared singletons and are not counted)."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return sys.getsizeof(obj) + sum(_held_bytes(x) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(_held_bytes(v) for v in vars(obj).values())
    return 0


def _median_call_us(fn, min_seconds: float = 0.2, min_calls: int = 5) -> float:
    """Median of repeated calls, in microseconds."""
    times = []
    deadline = time.perf_counter() + min_seconds
    while len(times) < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _time_setups(workload, workdir: Path) -> tuple[list[float], list[float]]:
    """Set-up times in seconds, raw and scaled to ``REF_NOMINAL_S`` by the
    reference kernel, which runs between set-ups."""
    from workloads import reference_seconds

    raw, scaled = [], []
    before = reference_seconds()
    while len(raw) < SETUP_MIN_REPEATS or sum(raw) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.setup(workdir)
        raw.append(time.perf_counter() - t0)
        after = reference_seconds()
        scaled.append(raw[-1] * 2.0 * REF_NOMINAL_S / (before + after))
        before = after
    return raw, scaled


def _run_passes(workload, seconds: float = 0.0, count: int = 0) -> list:
    """Passes until ``seconds`` have elapsed (at least one), or exactly
    ``count`` passes when ``count`` is given."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < count if count else (not passes or time.perf_counter() < deadline):
        passes.append(workload.run_pass())
    return passes


def _normalised(p) -> list[float]:
    """Each operation's latency over the mean of the reference times
    measured just before and just after it."""
    refs = p.ref_seconds
    return [2.0 * op / (refs[max(k - 1, 0)] + refs[k]) for k, op in enumerate(p.op_seconds)]


def _pass_ref(p) -> float:
    """A pass's wall time in units of the reference kernel."""
    return p.wall / statistics.fmean(p.ref_seconds)


def _end_to_end(setup_times, passes, audit) -> dict:
    ratios = [r for p in passes for r in _normalised(p)]
    pass_ref = [_pass_ref(p) for p in passes]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref": (statistics.median(pass_ref), "ref"),
        "slices_per_ref": (sum(p.slices for p in passes) / sum(pass_ref), "1/ref"),
        "op_p50_ref": (statistics.median(ratios), "ref"),
        "op_p90_ref": (statistics.quantiles(ratios, n=10, method="inclusive")[8], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "nll_per_bit": (audit.nll_per_bit, "nat"),
    }


def _raw_timings(passes, failed: int, raw_setup) -> dict:
    """The same timings in seconds, as this host ran them: printed for
    reading, not compared (they drift with the host's speed)."""
    op_ms = [s * 1e3 for p in passes for s in p.op_seconds]
    return {
        "setup_s": statistics.median(raw_setup) if raw_setup else None,
        "wall_s": statistics.median(p.wall for p in passes),
        "slices_per_s": sum(p.slices for p in passes) / sum(p.wall for p in passes),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
        "ref_us": statistics.median(r for p in passes for r in p.ref_seconds) * 1e6,
        "failed_frac": failed / len(op_ms),
    }


def _per_layer(workload, setup_stats, run_tracer, untraced, traced, micro, audit, footprint) -> dict:
    from spans import REFERENCE, SpanStats

    run_stats = run_tracer.stats()
    n = len(traced)

    def run(name):
        return run_stats.get(name, SpanStats())

    def per_call(name, field):
        """Mean per call over set-up and the traced passes."""
        both = [stats[name] for stats in (setup_stats, run_stats) if name in stats]
        calls = sum(s.calls for s in both)
        return sum(getattr(s, field) for s in both) / calls if calls else 0.0

    advance, train = run("model.advance"), run("learning.train")
    synapse_steps = workload.train_slices * n * workload.config.n_pairs
    # the reference kernel and the CLI's record printer run inside train
    train_s = run_tracer.total_without("learning.train", {REFERENCE, "cli.train"})
    traced_wall = sum(p.wall for p in traced)
    return {
        "model.advance.calls": (advance.calls / n, "count"),
        "model.advance.self_s": (advance.self_s / n, "s"),
        "model.advance.call_us": (advance.total_s / advance.calls * 1e6 if advance.calls else 0.0, "us"),
        "model.fire_probs.call_us": (micro["fire_probs"], "us"),
        "learning.step_gradient.call_us": (micro["step_gradient"], "us"),
        "learning.train.self_s": (train.self_s / n, "s"),
        "learning.sgd_update.calls": (run("learning.sgd_update").calls / n, "count"),
        "learning.sgd_update.self_s": (run("learning.sgd_update").self_s / n, "s"),
        "learning.us_per_synapse": (train_s / synapse_steps * 1e6 if synapse_steps else 0.0, "us"),
        "generator.rollout.self_s": (run("generator.rollout").self_s / n, "s"),
        "generator.eval_prediction.self_s": (run("generator.eval_prediction").self_s / n, "s"),
        "generator.sample_step.self_s": (run("generator.sample_step").self_s / n, "s"),
        "generator.fire_probs.calls": (run("generator.fire_probs").calls / n, "count"),
        "rng.step_stream.calls": (run("rng.step_stream").calls / n, "count"),
        "rng.step_stream.self_s": (run("rng.step_stream").self_s / n, "s"),
        "model.trace_state_bytes": (_held_bytes(audit.state), "B"),
        "model.queue_bits": (footprint["measured"]["queue_bits"], "bit"),
        "model.trace_scalars": (footprint["measured"]["trace_scalars"], "count"),
        "checkpoint.save.s": (per_call("checkpoint.save", "total_s"), "s"),
        "checkpoint.save.bytes": (per_call("checkpoint.save", "size"), "B"),
        "checkpoint.load.s": (per_call("checkpoint.load", "total_s"), "s"),
        "seriesio.read.s": (per_call("seriesio.read", "total_s"), "s"),
        "seriesio.read.bytes": (per_call("seriesio.read", "size"), "B"),
        "config.arrays.s": (per_call("config.arrays", "total_s"), "s"),
        "cli.train.self_s": (run("cli.train").self_s / n, "s"),
        "trace.overhead_frac": (
            statistics.median(map(_pass_ref, traced)) / statistics.median(map(_pass_ref, untraced)) - 1.0,
            "frac",
        ),
        "trace.span_frac": (
            sum(s.self_s for name, s in run_stats.items() if name != REFERENCE) / traced_wall,
            "frac",
        ),
    }


def _footprint(model, audit) -> dict:
    expected = model.expected_footprint(audit.config)
    measured = model.measured_footprint(audit.state, audit.params)
    return {"expected": vars(expected), "measured": vars(measured), "exact": expected == measured}


def _microbench(workload, learning, model) -> dict:
    """Per-call cost of the per-step kernels on a warmed state of the
    workload's configuration."""
    params, state, observed = workload.warm()
    config = workload.config
    return {
        "fire_probs": _median_call_us(lambda: model.fire_probs(params, state, config)),
        "step_gradient": _median_call_us(lambda: learning.step_gradient(params, state, config, observed)),
    }


def _measure(workload, args, workdir, learning, model):
    """Set up, time, check; returns (passes, audit, footprint, metrics)."""
    from spans import Tracer, installed

    if args.trace:
        setup_tracer, run_tracer = Tracer(), Tracer()
        raw_setup = []
        with installed(setup_tracer):
            workload.setup(workdir)
        untraced = _run_passes(workload, args.seconds / 2)
        with installed(run_tracer):
            traced = _run_passes(workload, count=len(untraced))
        passes = untraced + traced
    else:
        raw_setup, setup_times = _time_setups(workload, workdir)
        passes = _run_passes(workload, args.seconds)

    audit = workload.check()
    footprint = _footprint(model, audit)
    print(json.dumps({"footprint": footprint, "seconds": _raw_timings(passes, audit.failed_ops, raw_setup)}))
    if not args.trace:
        return passes, audit, footprint, _end_to_end(setup_times, passes, audit)
    print(json.dumps({"spans": {k: vars(v) for k, v in sorted(run_tracer.stats().items())}}))
    micro = _microbench(workload, learning, model)
    metrics = _per_layer(workload, setup_tracer.stats(), run_tracer, untraced, traced, micro, audit, footprint)
    return passes, audit, footprint, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "dybm" / "__init__.py").is_file():
        print(f"error: no dybm source tree under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np

    from dybm import learning, model
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    print(json.dumps({"env": _environment(np, args.seed), "workload": args.workload}))

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        passes, audit, footprint, metrics = _measure(workload, args, workdir, learning, model)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in audit.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": audit.failed_ops == 0 and not audit.problems and footprint["exact"],
        "attempted": sum(len(p.op_seconds) for p in passes),
        "failed": audit.failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
