"""Negative tests: every diagnostic code must fire on its seeded-defect
fixture, and the differential campaign's cheap validators must agree with
the simulator.

A linter that never fires is indistinguishable from a working one on the
clean corpus; these fixtures are the proof that each pass actually
detects the defect class it claims to."""

import pytest

from repro.analysis import CODES, Severity, lint_launch, lint_program
from repro.analysis.campaign import run_case, run_clean_case
from repro.analysis.fixtures import DEFECTS


def _lint(bundle):
    if bundle.program is not None:
        return lint_program(bundle.program, bundle.config)
    return lint_launch(bundle.launch, bundle.config)


@pytest.mark.parametrize("code", sorted(DEFECTS))
def test_defect_fixture_trips_its_code(code):
    builder, _prediction = DEFECTS[code]
    bundle = builder(seed=0)
    report = _lint(bundle)
    assert code in report.codes(), (
        f"{code} fixture did not trip its diagnostic; "
        f"got {sorted(report.codes())}")


@pytest.mark.parametrize("code", sorted(DEFECTS))
def test_defect_fixture_fails_the_gate(code):
    """Error codes must flip the exit status; warning codes must flip it
    under --strict.  This is what 'exits 1 on every seeded fixture'
    means for the CLI."""
    builder, _prediction = DEFECTS[code]
    report = _lint(builder(seed=0))
    severity, _title = CODES[code]
    if severity is Severity.ERROR:
        assert not report.ok()
    assert not report.ok(strict=True)


@pytest.mark.parametrize("code", sorted(DEFECTS))
def test_defect_fixture_is_stable_across_seeds(code):
    builder, _prediction = DEFECTS[code]
    for seed in (1, 2):
        assert code in _lint(builder(seed)).codes()


class TestCampaignValidators:
    """Cheap differential cases exercised inline; the full campaign runs
    in CI via ``repro lint --campaign``."""

    def test_dead_code_is_semantics_preserving(self):
        result = run_case("RPL001", seed=0)
        assert result.ok, vars(result)
        assert result.outcome == "preserved"

    def test_oob_access_corrupts_memory(self):
        result = run_case("RPL041", seed=0)
        assert result.ok, vars(result)
        assert result.outcome == "corrupted"

    def test_extent_overrun_corrupts_neighbor(self):
        result = run_case("RPL042", seed=0)
        assert result.ok, vars(result)
        assert result.outcome == "corrupted"

    def test_clean_case_silent_and_oracle_identical(self):
        result = run_clean_case(seed=0)
        assert result.ok, vars(result)


@pytest.mark.resilience
class TestCampaignDynamic:
    """Slow validators: these spin up the timing simulator (DAC for the
    queue codes)."""

    def test_barrier_divergence_hangs(self):
        result = run_case("RPL011", seed=0)
        assert result.ok, vars(result)
        assert result.outcome == "hang"

    def test_missing_enqueue_hangs(self):
        result = run_case("RPL031", seed=0)
        assert result.ok, vars(result)
        assert result.outcome == "hang"

    def test_race_diverges_from_oracle(self):
        result = run_case("RPL021", seed=0)
        assert result.ok, vars(result)
        assert result.outcome == "oracle-mismatch"
