from dataclasses import replace

import numpy as np

from dybm import learning, model
from dybm.validate import (
    check_block_gradient,
    check_energy_expansion,
    check_gradient_finite_difference,
    check_tiny_bm,
    check_trace_recursion,
    run_all,
)

from conftest import add_then_decay_advance


class TestChecks:
    def test_all_pass_with_default_seed(self):
        reports = run_all(seed=0)
        assert len(reports) == 5
        for report in reports:
            assert report.passed, report.line()

    def test_reports_deterministic(self):
        assert run_all(seed=7) == run_all(seed=7)

    def test_trace_recursion_catches_injected_fault(self, monkeypatch):
        # flipping the arrival-trace recursion to fold the new spike in
        # before the decay must make the equivalence check fail
        monkeypatch.setattr(model, "advance", add_then_decay_advance)
        report = check_trace_recursion(seed=3, cases=40)
        assert not report.passed
        assert report.max_error > 1e-3

    def test_individual_checks_pass(self):
        assert check_trace_recursion(seed=1, cases=50).passed
        assert check_energy_expansion(seed=1, cases=25).passed
        assert check_gradient_finite_difference(seed=1, cases=10).passed
        assert check_tiny_bm(seed=1).passed
        assert check_block_gradient(seed=1, cases=10).passed

    def test_block_gradient_catches_injected_fault(self, monkeypatch):
        # scoring each step's features against the next step's slice must
        # make the block check fail
        blocks = learning._blocks

        def shifted(*args):
            for b in blocks(*args):
                yield replace(b, x=np.roll(b.x, 1, axis=0))

        monkeypatch.setattr(learning, "_blocks", shifted)
        report = check_block_gradient(seed=3, cases=20)
        assert not report.passed
        assert report.max_error > 1e-3

    def test_report_line_format(self):
        report = check_trace_recursion(seed=2, cases=5)
        line = report.line()
        assert line.startswith("PASS") or line.startswith("FAIL")
        assert "max error" in line
