#!/usr/bin/env python3
"""Check that the working tree gives the same outputs as HEAD.

    python3 scripts/same_outputs.py

Exports HEAD with ``git archive`` into a temporary directory, as
``bench_pairs.py`` does, and runs the same ``dybm`` commands on it and on
the working tree, each from ``src/`` of its own tree and in its own empty
directory: ``train`` on both bundled fixtures, on the ``random_n3``
fixture cut into series of 1, 7, 16 and 24 slices, on a copy of it
with CRLF line ends, a blank line and space-padded cells, and on the
fixture under a mixed run configuration (delays 1, 2, 5 and 9, two
arrival and three near-window rates), each in both modes; ``eval`` of
every checkpoint and of a hand-edited copy of it (pair rows reversed,
integral values written as JSON integers); ``generate`` (sample and
argmax, with and without ``--primer``, from an edited copy, and from the
mixed model); online ``train``, ``eval`` and a primed ``generate`` on the
``random_n3`` fixture tiled to 14,400 slices, so that the trace builder
reads it in several chunks and the chunk ends are compared; ``validate``;
``bench --sizes 8,16,64 --fan-in 3 --steps 30``; ``train`` on three
copies of the ``random_n3`` run configuration that ``ModelConfig`` rejects
(a pair with an index out of range, a zero delay, a delay past the
overflow guard), each of which exits 2; and ``train`` on the ``random_n3``
fixture at learning rates at which it diverges, each of which exits 3
after streaming its records: online at 1e5 (a parameter passes the
divergence limit in the third epoch), full-batch at 1e4 (in the 35th
epoch) and full-batch at 1e308 (the first update overflows to inf). The
checkpoint reader reads the edited copies and the files as written in
the same one pass, as the series reader reads the padded CSV and the rest.
Compares each command's exit code, stdout and written checkpoint byte for
byte, with ``wall_ms`` masked in the training records and
``per_synapse_update_us`` in the bench report, and the stderr of
each command that exits non-zero (the stderr of a command that succeeds
carries timings and is not compared). Prints one line per differing
output, with its first differing lines and the numbers of every other
one, and exits 1 when there is any, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, _export, _git

EPOCHS = "40"
SPLIT = (1, 7, 16, 24)  # random_n3's 48 slices, cut into series
TILES = 300  # random_n3's 48 slices, repeated: more than three chunks of its features
# run configurations that train must reject, by the connectivity row that
# replaces random_n3's fifth row, (1, 1) with delay 2
REJECTED = {
    "index-out-of-range": [1, 3, 2],
    "zero-delay": [1, 1, 0],
    "overflowing-delay": [1, 1, 2000],  # (1 / 0.25) ** 1999 is beyond the double range
}
# the mixed run configuration: random_n3's with these decay rates, these
# delays given to its pairs in turn and a learning rate at which both modes
# ascend (near-window coefficients grow to 0.75**-8 at delay 9)
MIXED_RATES = {"lambdas": [0.5, 0.8], "mus": [0.75, 0.85, 0.95]}
MIXED_DELAYS = (1, 2, 5, 9)
MIXED_LEARNING_RATE = 3e-4
SHOWN = 3  # differing lines of one output that are printed; the others are numbered
# diverging training runs on random_n3: name -> (mode, learning rate)
DIVERGING = {
    "diverged-online": ("online", "1e5"),
    "diverged-full_batch": ("full_batch", "1e4"),
    "overflowed-full_batch": ("full_batch", "1e308"),
}


def _runs(fix: Path) -> list[tuple[str, list[str]]]:
    """(name, dybm argv) of every compared command, in order, reading the
    fixtures in ``fix``; a train run named ``n`` writes ``n.json`` and
    ``n-edited.json``, which later commands read."""
    runs = []
    datasets = {
        "period4": (f"{fix}/period4_run.json", [f"{fix}/period4.csv"]),
        "random_n3": (f"{fix}/random_n3_run.json", [f"{fix}/random_n3.csv"]),
        "split": (f"{fix}/random_n3_run.json", [f"part{k}.csv" for k in range(len(SPLIT))]),
        "padded": (f"{fix}/random_n3_run.json", ["padded.csv"]),
        "mixed": ("mixed_run.json", [f"{fix}/random_n3.csv"]),
    }
    for name, (config, data) in datasets.items():
        for mode in ("full_batch", "online"):
            model = f"{name}-{mode}"
            runs.append((model, ["train", config, *data, "--out", f"{model}.json",
                                 "--epochs", EPOCHS, "--mode", mode]))
            runs.append((f"eval-{model}", ["eval", f"{model}.json", data[0]]))
            runs.append((f"eval-{model}-edited", ["eval", f"{model}-edited.json", data[0]]))
    for mode in ("sample", "argmax"):
        for primer in ([], ["--primer", f"{fix}/random_n3.csv"]):
            name = f"generate-{mode}" + ("-primed" if primer else "")
            runs.append((name, ["generate", "random_n3-online.json", "--horizon", "60",
                                "--mode", mode, "--seed", "5", *primer]))
    runs.append(("generate-edited", ["generate", "random_n3-online-edited.json", "--horizon",
                                     "60", "--mode", "sample", "--seed", "5"]))
    runs.append(("generate-mixed", ["generate", "mixed-online.json", "--horizon", "60",
                                    "--mode", "sample", "--seed", "5",
                                    "--primer", f"{fix}/random_n3.csv"]))
    runs.append(("tiled-online", ["train", f"{fix}/random_n3_run.json", "tiled.csv", "--out",
                                  "tiled-online.json", "--epochs", "1", "--mode", "online"]))
    runs.append(("eval-tiled-online", ["eval", "tiled-online.json", "tiled.csv"]))
    runs.append(("generate-tiled-primed", ["generate", "tiled-online.json", "--horizon", "60",
                                           "--mode", "sample", "--seed", "5", "--primer",
                                           "tiled.csv"]))
    runs.append(("validate", ["validate"]))
    runs.append(("bench", ["bench", "--sizes", "8,16,64", "--fan-in", "3", "--steps", "30"]))
    for name in REJECTED:
        runs.append((name, ["train", f"{name}_run.json", f"{fix}/random_n3.csv", "--out",
                            f"{name}.json", "--epochs", EPOCHS]))
    for name, (mode, rate) in DIVERGING.items():
        runs.append((name, ["train", f"{fix}/random_n3_run.json", f"{fix}/random_n3.csv", "--out",
                            f"{name}.json", "--epochs", EPOCHS, "--mode", mode,
                            "--learning-rate", rate]))
    return runs


def _split(fixture: Path, work: Path) -> None:
    """Write the fixture's slices as ``part<k>.csv``, one series per length."""
    header, *rows = fixture.read_text(encoding="utf-8").splitlines(keepends=True)
    start = 0
    for k, length in enumerate(SPLIT):
        part = header + "".join(rows[start : start + length])
        (work / f"part{k}.csv").write_text(part, encoding="utf-8")
        start += length


def _tiled(fixture: Path, work: Path) -> None:
    """Write the fixture's slices ``TILES`` times over as ``tiled.csv``."""
    header, *rows = fixture.read_text(encoding="utf-8").splitlines(keepends=True)
    (work / "tiled.csv").write_text(header + "".join(rows) * TILES, encoding="utf-8")


def _padded(fixture: Path, work: Path) -> None:
    """Write the fixture as ``padded.csv``: CRLF line ends, a blank line
    after the header and a space on each side of every cell."""
    header, *rows = fixture.read_text(encoding="utf-8").splitlines()
    lines = [header, ""] + [",".join(f" {cell} " for cell in row.split(",")) for row in rows]
    (work / "padded.csv").write_bytes("".join(f"{line}\r\n" for line in lines).encode())


def _rejected(run_config: Path, work: Path) -> None:
    """Write ``<name>_run.json`` for each of ``REJECTED``: the run
    configuration with its fifth connectivity row replaced."""
    for name, row in REJECTED.items():
        run = json.loads(run_config.read_text(encoding="utf-8"))
        run["config"]["connectivity"][4] = row
        (work / f"{name}_run.json").write_text(json.dumps(run), encoding="utf-8")


def _mixed(run_config: Path, work: Path) -> None:
    """Write ``mixed_run.json``: the run configuration with ``MIXED_RATES``,
    its pairs' delays taken from ``MIXED_DELAYS`` in turn and
    ``MIXED_LEARNING_RATE``."""
    run = json.loads(run_config.read_text(encoding="utf-8"))
    run["config"].update(MIXED_RATES)
    run["trainer"]["learning_rate"] = MIXED_LEARNING_RATE
    for k, row in enumerate(run["config"]["connectivity"]):
        row[2] = MIXED_DELAYS[k % len(MIXED_DELAYS)]
    (work / "mixed_run.json").write_text(json.dumps(run), encoding="utf-8")


def _edited(document: str) -> str:
    """The checkpoint with its pair rows reversed and every integral value
    but -0.0 written as a JSON integer: the same model, off the layout
    ``save_checkpoint`` writes."""

    def ints(x):
        if isinstance(x, dict):
            return {k: ints(v) for k, v in x.items()}
        if isinstance(x, list):
            return [ints(v) for v in x]
        if isinstance(x, float) and x.is_integer() and str(x) != "-0.0":
            return int(x)
        return x

    doc = json.loads(document)
    for rows in (doc["config"]["connectivity"], doc["u"], doc["v"]):
        rows.reverse()
    return json.dumps(ints(doc))


def _masked(stdout: str) -> str:
    """The output with its timings nulled: every training record's ``wall_ms``
    and every bench entry's ``per_synapse_update_us``."""
    return re.sub(r'"(wall_ms|per_synapse_update_us)": [^,}\n]*', r'"\1": null', stdout)


def _outputs(tree: Path, work: Path) -> dict[str, str]:
    """Every compared output of ``tree``'s package, run in ``work``."""
    fixtures = tree / "src" / "dybm" / "fixtures"
    _split(fixtures / "random_n3.csv", work)
    _tiled(fixtures / "random_n3.csv", work)
    _padded(fixtures / "random_n3.csv", work)
    _rejected(fixtures / "random_n3_run.json", work)
    _mixed(fixtures / "random_n3_run.json", work)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = {}
    for name, argv in _runs(fixtures):
        done = subprocess.run([sys.executable, "-m", "dybm.cli", *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        out[f"{name} exit code"] = str(done.returncode)
        out[f"{name} stdout"] = _masked(done.stdout)
        if done.returncode != 0:
            out[f"{name} stderr"] = done.stderr
        if argv[0] == "train":
            checkpoint = work / argv[argv.index("--out") + 1]
            written = checkpoint.read_text(encoding="utf-8") if checkpoint.exists() else ""
            out[f"{name} checkpoint"] = written
            if written:
                (work / f"{name}-edited.json").write_text(_edited(written), encoding="utf-8")
    return out


def _differences(base: dict[str, str], change: dict[str, str]) -> list[str]:
    """Names of the outputs that differ, each with its first ``SHOWN``
    differing lines and the numbers of all the others."""
    found = []
    for name in base.keys() | change.keys():
        a, b = base.get(name, "").splitlines(), change.get(name, "").splitlines()
        if a != b:
            at = [i for i in range(max(len(a), len(b))) if a[i : i + 1] != b[i : i + 1]]
            shown = [f"line {i + 1}: {_line(a, i)!r} -> {_line(b, i)!r}" for i in at[:SHOWN]]
            if len(at) > SHOWN:
                shown.append(f"also lines {_spans(at[SHOWN:])}")
            found.append(f"{name}, " + "; ".join(shown))
    return sorted(found)


def _line(lines: list[str], i: int) -> str:
    return lines[i][:60] if i < len(lines) else "<end>"


def _spans(at: list[int]) -> str:
    """1-based line numbers from sorted 0-based indices, runs written as ``first-last``."""
    runs = []
    for i in at:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i + 1, i + 1])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    head = _git("rev-parse", "HEAD").decode().strip()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        for side in ("base", "base-run", "change-run"):
            (tmp / side).mkdir()
        _export(head, tmp / "base")
        found = _differences(
            _outputs(tmp / "base", tmp / "base-run"), _outputs(ROOT, tmp / "change-run")
        )
    for line in found:
        print(line, file=sys.stderr)
    print(f"{len(found)} outputs differ between HEAD {head[:12]} and the working tree",
          file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
