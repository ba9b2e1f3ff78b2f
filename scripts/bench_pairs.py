#!/usr/bin/env python3
"""Compare HEAD with the working tree on the perfbench workloads.

    python3 scripts/bench_pairs.py --number N --first-seed 301

For every workload of ``BENCHMARK.json``, runs ``perfbench/run.py`` once on
HEAD and once on the working tree per pair of runs, both with the pair's
seed and the benchmark's ``run_seconds``, and alternates which side runs
first; ten pairs per workload, the fewest the gain rule accepts. HEAD is
exported with ``git archive`` into a temporary directory, so the comparison
uses its committed files only and leaves nothing behind in the repository.
Writes ``BENCH_<N>.json`` at the repo root: for each end-to-end metric, the
per-pair values of both sides, their medians and quartiles and how many
pairs the working tree won; plus the seeds, the run length, each run's
``correct`` flag and failure counts, the ``check failed`` lines of any run
whose checks did not hold, and the host line of the first run. Exits 1,
after writing the file, when any run was not correct. On SIGTERM, as on
Ctrl-C, it kills the running benchmark and removes the export.

Runs are sequential, so a full set takes about
10 x 2 x (run seconds + set-up) per workload.
"""

from __future__ import annotations

import argparse
import io
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PAIRS = 10
STDERR_TAIL = 40  # lines of a crashed run's stderr to show


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, unpacked into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """One benchmark run; returns (environment line, result line, the
    ``check failed`` lines it wrote to stderr). A crashed run's last stderr
    lines (its traceback) are printed before the error is raised."""
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True, check=True,
        )
    except subprocess.CalledProcessError as exc:
        print(*exc.stderr.splitlines()[-STDERR_TAIL:], sep="\n", file=sys.stderr)
        raise
    lines = done.stdout.strip().splitlines()
    problems = [line for line in done.stderr.splitlines() if line.startswith("check failed")]
    return json.loads(lines[0])["env"], json.loads(lines[-1]), problems


def _exit_on_signal(signum, frame):
    """SIGTERM as SystemExit, which unwinds like Ctrl-C: ``subprocess.run``
    kills its child and the temporary export is removed."""
    raise SystemExit(128 + signum)


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _workload(trees: dict, workload: str, seeds: list[int], seconds: float, metrics: list[dict]):
    """Alternated pairs of runs for one workload, and their summary."""
    results = {side: [] for side in SIDES}
    problems = []
    host = None
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            env, result, lines = _run(trees[side], workload, seed, seconds)
            host = host or {k: v for k, v in env.items() if k not in ("commit", "seed")}
            results[side].append(result)
            if not result["correct"] or lines:
                problems.append({"side": side, "seed": seed, "stderr": lines})
            print(f"{workload} seed {seed} {side}: wall_ref {result['metrics']['wall_ref']['value']:.2f}",
                  file=sys.stderr)
    out = {
        "seeds": seeds,
        "first": [SIDES[i % 2] for i in range(len(seeds))],
        "correct": {side: [r["correct"] for r in results[side]] for side in SIDES},
        "attempted": {side: [r["attempted"] for r in results[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
        "problems": problems,
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (b - c) > 0 for b, c in zip(values["base"], values["change"]))
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{side: _summary(values[side]) for side in SIDES},
            "change_wins": wins,
        }
    return out, host


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="N in the output name BENCH_<N>.json")
    parser.add_argument("--first-seed", type=int, default=1, help="pair i runs with seed first-seed + i")
    args = parser.parse_args(argv)
    if args.first_seed < 0:
        parser.error("--first-seed must be >= 0")
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    head = _git("rev-parse", "HEAD").decode().strip()
    doc = {
        "base": head,
        "change": "working tree on " + head,
        "run_seconds": seconds,
        "pairs": PAIRS,
        "host": None,
        "workloads": {},
    }
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        with tempfile.TemporaryDirectory(prefix="bench-base-") as base:
            _export(head, Path(base))
            trees = {"base": Path(base), "change": ROOT}
            for workload in (w["name"] for w in spec["workloads"]):
                doc["workloads"][workload], host = _workload(
                    trees, workload, seeds, seconds, spec["end_to_end"]
                )
                doc["host"] = doc["host"] or host
    finally:
        signal.signal(signal.SIGTERM, previous)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    bad = [(name, p["side"], p["seed"]) for name, w in doc["workloads"].items() for p in w["problems"]]
    if bad:
        print(f"error: runs whose checks did not hold: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
