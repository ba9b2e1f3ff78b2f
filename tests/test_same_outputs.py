"""``scripts/same_outputs.py`` masks only ``wall_ms`` and reports a changed
output.

The script runs in-process with git patched out and HEAD's export replaced
by a copy of this tree's ``src/``, planted with a change or not, and with
its command list cut to one training run and its ``eval``.
"""

import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEPARATORS = 'separators=(",", ":")'
RUNS = ("period4-full_batch", "eval-period4-full_batch")


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


@pytest.mark.parametrize("planted", [False, True], ids=["same", "changed-checkpoint"])
def test_a_changed_output_is_reported(same_outputs, planted, monkeypatch, capsys):
    def export(rev, dest):
        shutil.copytree(ROOT / "src", dest / "src")
        if planted:
            path = dest / "src" / "dybm" / "checkpoint.py"
            text = path.read_text(encoding="utf-8")
            assert SEPARATORS in text
            path.write_text(text.replace(SEPARATORS, 'separators=(", ", ":")'), encoding="utf-8")

    monkeypatch.setattr(same_outputs, "_export", export)
    assert same_outputs.main() == int(planted)
    err = capsys.readouterr().err.splitlines()
    if planted:
        # the checkpoint's spelling differs; the model it holds does not
        assert [line.split(",")[0] for line in err[:-1]] == ["period4-full_batch checkpoint"]
    assert err[-1].startswith(f"{int(planted)} outputs differ")
