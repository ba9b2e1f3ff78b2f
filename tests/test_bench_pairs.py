"""``scripts/bench_pairs.py`` cleans up when it is terminated, and shows
why a benchmark run crashed.

The script runs in a child process with git and the benchmark runs patched
out: its ``_workload`` starts one sleeping grandchild, as a benchmark run
would, and the test sends SIGTERM to the child only. For a crash, the child
runs ``_run`` on a tree whose ``perfbench/run.py`` fails with a traceback.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

CHILD = """
import signal, subprocess, sys
sys.path.insert(0, sys.argv[1])
import bench_pairs

pid_file = sys.argv[2]
sleeper = "import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid())); time.sleep(60)"

def export(rev, dest):
    (dest / "exported").write_text(rev)

def sleeping_workload(trees, *args):
    print(trees["base"], flush=True)
    subprocess.run([sys.executable, "-c", sleeper, pid_file], check=True, capture_output=True)

bench_pairs._git = lambda *args: b"0123abcd\\n"
bench_pairs._export = export
bench_pairs._workload = sleeping_workload
try:
    bench_pairs.main(["--number", "0"])
except SystemExit as exc:
    print("restored", signal.getsignal(signal.SIGTERM) is signal.SIG_DFL, flush=True)
    sys.exit(exc.code)
"""

CRASH_CHILD = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bench_pairs

bench_pairs._run(Path(sys.argv[2]), "online_wide", 1, 1.0)
"""

CRASHING_RUN = """
import sys
for k in range(100):
    print("set-up line", k, file=sys.stderr)
raise ZeroDivisionError("crashed inside the workload")
"""


def _wait_for(condition, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.02)


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_sigterm_kills_the_run_and_removes_the_export(tmp_path):
    pid_file = tmp_path / "sleeper.pid"
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(SCRIPTS), str(pid_file)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        export = Path(child.stdout.readline().strip())
        assert (export / "exported").read_text() == "0123abcd"
        _wait_for(lambda: pid_file.exists() and pid_file.read_text())
        sleeper = int(pid_file.read_text())
        child.send_signal(signal.SIGTERM)
        out, err = child.communicate(timeout=10)
    finally:
        child.kill()
    assert child.returncode == 128 + signal.SIGTERM, err
    assert out.split() == ["restored", "True"]
    assert not export.exists()
    _wait_for(lambda: _gone(sleeper))


def test_crashed_run_shows_its_stderr_tail(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(CRASHING_RUN)
    child = subprocess.run(
        [sys.executable, "-c", CRASH_CHILD, str(SCRIPTS), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 1
    assert "ZeroDivisionError: crashed inside the workload" in child.stderr
    assert "set-up line 99" in child.stderr
    assert "set-up line 0\n" not in child.stderr  # only the tail
    assert child.stderr.rstrip().splitlines()[-1].startswith("subprocess.CalledProcessError")
