import math
from dataclasses import replace

import numpy as np
import pytest

from dybm import cli, config, learning, model
from dybm.validate import (
    check_block_gradient,
    check_energy_expansion,
    check_gradient_finite_difference,
    check_tiny_bm,
    check_trace_recursion,
    run_all,
)

from conftest import add_then_decay_advance


@pytest.fixture
def nan_drives(monkeypatch):
    """Every drive, along every fast path, is NaN."""
    drives = model._drives

    def nan(*args):
        return np.full_like(drives(*args), np.nan)

    monkeypatch.setattr(model, "_drives", nan)
    monkeypatch.setattr(learning, "_drives", nan)


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

    def test_oracle_checks_catch_a_misordered_delay_table(self, monkeypatch):
        # giving every pair its neighbour's delay in the derived tables must
        # make both checks fail: the oracle reads each pair's delay from
        # config.delays, not from the tables it checks
        connectivity = config._connectivity

        def rolled(*args):
            delays, (pre, post, delay) = connectivity(*args)
            return delays, (pre, post, np.roll(delay, 1))

        monkeypatch.setattr(config, "_connectivity", rolled)
        for report in (check_trace_recursion(seed=0, cases=40), check_energy_expansion(seed=0, cases=25)):
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


class TestNaNFails:
    """A fast path that returns NaN must fail its check, not vanish from
    the worst error."""

    def test_nan_alpha_fails_trace_recursion(self, monkeypatch):
        advance = model.advance

        def nan_alpha(*args):
            out = advance(*args)
            out.alpha[:] = np.nan
            return out

        monkeypatch.setattr(model, "advance", nan_alpha)
        report = check_trace_recursion(seed=0, cases=10)
        assert not report.passed
        assert math.isnan(report.max_error)

    @pytest.mark.parametrize(
        "check",
        [check_energy_expansion, check_gradient_finite_difference, check_block_gradient],
    )
    def test_nan_drives_fail(self, nan_drives, check):
        report = check(seed=0, cases=5)
        assert not report.passed
        assert math.isnan(report.max_error)
        assert report.cases == 5

    def test_validate_command_reports_nan_drives(self, nan_drives, capsys):
        assert cli.main(["validate", "--seed", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["PASS", "FAIL", "FAIL", "PASS", "FAIL"]
        assert all("max error nan" in line for line in lines if line.startswith("FAIL"))
