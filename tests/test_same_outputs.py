"""``scripts/same_outputs.py`` masks only the timings (``wall_ms``,
``per_synapse_update_us``) and reports a changed output.

The script runs in-process with git patched out and HEAD's export replaced
by a copy of this tree's ``src/``, planted with a change or not, and with
its command list cut to one training run, its ``eval`` and one rejected
run configuration.
"""

import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNS = ("period4-full_batch", "eval-period4-full_batch", "zero-delay")
# (file, text, replacement, the outputs that then differ)
PLANTS = {
    "same": None,
    "changed-checkpoint": (
        "checkpoint.py",
        'separators=(",", ":")',
        'separators=(", ", ":")',
        # the checkpoint's spelling differs; the model it holds does not
        ["period4-full_batch checkpoint"],
    ),
    "changed-message": ("config.py", "must be >= 1, got", "must be at least 1, got", ["zero-delay stderr"]),
}


@pytest.fixture
def same_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import same_outputs

    runs = same_outputs._runs
    monkeypatch.setattr(same_outputs, "_git", lambda *args: b"0123abcd\n")
    monkeypatch.setattr(same_outputs, "_runs", lambda fix: [r for r in runs(fix) if r[0] in RUNS])
    return same_outputs


def test_only_wall_ms_is_masked(same_outputs):
    record = '{"epoch": 0, "log_likelihood": -1.5, "grad_norm": 0.25, "wall_ms": 12.75}\n'
    assert same_outputs._masked(record) == record.replace("12.75", "null")
    later = same_outputs._masked(record.replace("12.75", "3.5"))
    base = {"train stdout": same_outputs._masked(record), "eval stdout": "1\n2\n"}
    change = {"train stdout": later, "eval stdout": "1\n3\n"}
    assert same_outputs._differences(base, change) == ["eval stdout, line 2: '2' -> '3'"]


def test_every_differing_line_is_listed(same_outputs):
    base = {"bench stdout": "a\nb\nc\n", "eval stdout": "1\n2\n3\n4\n5\n6\n7\n8\n"}
    change = {"bench stdout": "A\nb\nC\n", "eval stdout": "0\n2\n0\n0\n5\n0\n0\n0\n9\n"}
    assert same_outputs._differences(base, change) == [
        "bench stdout, line 1: 'a' -> 'A'; line 3: 'c' -> 'C'",
        "eval stdout, line 1: '1' -> '0'; line 3: '3' -> '0'; line 4: '4' -> '0'; also lines 6-9",
    ]


def test_bench_timing_is_masked(same_outputs):
    # bench prints its report indented, one field a line
    entry = {"pairs": 24, "per_synapse_update_us": 2.5, "queue_bits": 48}
    report = json.dumps({"sweep": [entry, {**entry, "per_synapse_update_us": 0.75}]}, indent=2)
    assert same_outputs._masked(report) == report.replace("2.5", "null").replace("0.75", "null")


@pytest.mark.parametrize("plant", PLANTS)
def test_a_changed_output_is_reported(same_outputs, plant, monkeypatch, capsys):
    planted = PLANTS[plant]

    def export(rev, dest):
        shutil.copytree(ROOT / "src", dest / "src")
        if planted:
            path = dest / "src" / "dybm" / planted[0]
            text = path.read_text(encoding="utf-8")
            assert planted[1] in text
            path.write_text(text.replace(planted[1], planted[2]), encoding="utf-8")

    monkeypatch.setattr(same_outputs, "_export", export)
    assert same_outputs.main() == int(bool(planted))
    err = capsys.readouterr().err.splitlines()
    differ = planted[3] if planted else []
    assert [line.split(",")[0] for line in err[:-1]] == differ
    assert err[-1].startswith(f"{len(differ)} outputs differ")


def test_only_failed_runs_have_their_stderr_compared(same_outputs, tmp_path):
    outputs = same_outputs._outputs(ROOT, tmp_path)
    assert outputs["zero-delay exit code"] == "2"
    assert outputs["zero-delay stderr"] == (
        "error: zero-delay_run.json: delays[(1, 1)] must be >= 1, got 0\n"
    )
    assert outputs["period4-full_batch exit code"] == "0"
    assert not any(name.startswith("period4") and name.endswith("stderr") for name in outputs)
