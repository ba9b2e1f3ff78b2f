"""Schema test for the benchmark at desk scale: every workload, untraced and
traced, prints a final JSON line with the agreed keys and exactly the
metric names BENCHMARK.json lists. Timings are not checked.

    python -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_schema(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_unknown_workload_is_refused():
    done = _run("--workload", "nope", "--seed", "0", "--seconds", "1")
    assert done.returncode != 0 and done.stdout == ""


def test_refuses_to_run_without_the_source_tree(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("BENCHMARK.json", *(f"perfbench/{p.name}" for p in (ROOT / "perfbench").glob("*.py"))):
        (tmp_path / name).write_bytes((ROOT / name).read_bytes())
    done = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1", root=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_train_time_excludes_the_benchmarks_own_spans():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from spans import REFERENCE, Tracer

    tracer = Tracer()
    # cli.main > train > (record printer > reference), reference, advance
    tracer.spans = [
        ["cli.train", 0.0, 10.0, -1],
        ["learning.train", 1.0, 9.0, 0],
        ["cli.train", 2.0, 4.0, 1],
        [REFERENCE, 2.5, 3.5, 2],
        [REFERENCE, 5.0, 6.0, 1],
        ["model.advance", 6.0, 7.0, 1],
    ]
    assert tracer.total_without("learning.train", {REFERENCE, "cli.train"}) == 5.0
