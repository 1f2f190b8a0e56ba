"""Differential validation of the lint diagnostics against the simulator.

Each seeded-defect fixture must (a) trip its diagnostic code statically
and (b) exhibit the dynamic behavior the diagnostic predicts — a hang, a
divergence from the functional oracle, a corruption relative to the clean
parent, or (for the two advisory codes) provable *harmlessness*.  The
clean corpus must lint silently and simulate bit-identically to the
oracle.

Outcome taxonomy per case:

* ``validated``        — lint fired and the predicted behavior occurred;
* ``lint-missed``      — the defect did not trip its diagnostic;
* ``not-manifested``   — lint fired but the simulator behaved normally;
* ``error``            — unexpected simulator failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import run_dac
from ..core.affine_warp import DecoupleRuntimeError
from ..sim.functional import run_functional
from ..sim.gpu import SimulationHang, simulate
from .fixtures import DEFECTS, FixtureBundle, clean_bundle
from .linter import lint_launch, lint_program


def _image(launch) -> np.ndarray:
    return launch.memory.words.copy()


def _lint(bundle: FixtureBundle):
    if bundle.program is not None:
        return lint_program(bundle.program, bundle.config)
    return lint_launch(bundle.launch, bundle.config)


def _run_timing(bundle: FixtureBundle):
    """Timing simulation of a fixture: DAC when it carries a pre-built
    program, the baseline SM otherwise."""
    if bundle.program is not None:
        return run_dac(bundle.launch, bundle.config, program=bundle.program)
    return simulate(bundle.launch, bundle.config)


@dataclass
class CaseResult:
    name: str
    code: str
    prediction: str
    lint_fired: bool
    dynamic_ok: bool
    outcome: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.lint_fired and self.dynamic_ok


@dataclass
class CleanResult:
    name: str
    silent: bool
    oracle_match: bool

    @property
    def ok(self) -> bool:
        return self.silent and self.oracle_match


@dataclass
class LintCampaignReport:
    cases: list[CaseResult] = field(default_factory=list)
    clean: list[CleanResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases) and \
            all(c.ok for c in self.clean)

    def render(self) -> str:
        lines = ["lint differential-validation campaign", ""]
        for c in self.cases:
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.name:<12} predict={c.prediction:<9} "
                         f"lint={'fired' if c.lint_fired else 'MISSED'} "
                         f"dynamic={c.outcome}"
                         + (f" ({c.detail})" if c.detail else ""))
        silent = sum(1 for c in self.clean if c.silent)
        matched = sum(1 for c in self.clean if c.oracle_match)
        lines.append("")
        lines.append(f"  clean corpus: {silent}/{len(self.clean)} silent, "
                     f"{matched}/{len(self.clean)} oracle-identical")
        lines.append("")
        lines.append("campaign " + ("PASSED" if self.ok else "FAILED"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cases": [vars(c) for c in self.cases],
            "clean": [vars(c) for c in self.clean],
        }


# ---------------------------------------------------------------------------
# Per-prediction dynamic validators.  Every run uses a freshly built
# bundle: the simulators mutate launch memory in place.
# ---------------------------------------------------------------------------

def _validate_preserve(builder, seed) -> tuple[bool, str, str]:
    bundle = builder(seed)
    run_functional(bundle.launch)
    run_functional(bundle.clean_launch)
    same = np.array_equal(_image(bundle.launch),
                          _image(bundle.clean_launch))
    return same, "preserved" if same else "image-changed", \
        "defect removal is semantics-preserving" if same else ""


def _validate_corrupt(builder, seed) -> tuple[bool, str, str]:
    bundle = builder(seed)
    run_functional(bundle.launch)
    run_functional(bundle.clean_launch)
    differs = not np.array_equal(_image(bundle.launch),
                                 _image(bundle.clean_launch))
    return differs, "corrupted" if differs else "not-manifested", \
        "output diverges from the intended computation" if differs else ""


def _validate_hang(builder, seed) -> tuple[bool, str, str]:
    bundle = builder(seed)
    try:
        _run_timing(bundle)
    except SimulationHang as exc:
        # The functional oracle must still terminate: serial warp
        # execution cannot deadlock on a skipped barrier.
        run_functional(builder(seed).launch)
        return True, "hang", f"hang ({exc.reason})"
    return False, "not-manifested", "simulation completed"


def _validate_mismatch(builder, seed) -> tuple[bool, str, str]:
    timing = builder(seed)
    _run_timing(timing)
    oracle = builder(seed)
    run_functional(oracle.launch)
    differs = not np.array_equal(_image(timing.launch),
                                 _image(oracle.launch))
    return differs, "oracle-mismatch" if differs else "not-manifested", \
        "timing result depends on warp scheduling" if differs else ""


def _validate_misbehave(builder, seed) -> tuple[bool, str, str]:
    timing = builder(seed)
    try:
        _run_timing(timing)
    except SimulationHang as exc:
        return True, "hang", f"({exc.reason})"
    except (DecoupleRuntimeError, Exception) as exc:  # noqa: BLE001
        return True, "runtime-error", type(exc).__name__
    oracle = builder(seed)
    run_functional(oracle.launch)
    differs = not np.array_equal(_image(timing.launch),
                                 _image(oracle.launch))
    return differs, "oracle-mismatch" if differs else "not-manifested", ""


def _validate_throttle(builder, seed) -> tuple[bool, str, str]:
    timing = builder(seed)
    _run_timing(timing)
    oracle = builder(seed)
    run_functional(oracle.launch)
    same = np.array_equal(_image(timing.launch), _image(oracle.launch))
    return same, "completed-correctly" if same else "oracle-mismatch", \
        "back-pressure throttles but does not corrupt" if same else ""


_VALIDATORS = {
    "preserve": _validate_preserve,
    "corrupt": _validate_corrupt,
    "hang": _validate_hang,
    "mismatch": _validate_mismatch,
    "misbehave": _validate_misbehave,
    "throttle": _validate_throttle,
}


def run_case(code: str, seed: int) -> CaseResult:
    builder, prediction = DEFECTS[code]
    bundle = builder(seed)
    report = _lint(bundle)
    lint_fired = code in report.codes()
    try:
        dynamic_ok, outcome, detail = _VALIDATORS[prediction](builder, seed)
    except Exception as exc:  # noqa: BLE001 — campaign must finish
        dynamic_ok, outcome, detail = False, "error", \
            f"{type(exc).__name__}: {exc}"
    return CaseResult(name=bundle.name, code=code, prediction=prediction,
                      lint_fired=lint_fired, dynamic_ok=dynamic_ok,
                      outcome=outcome, detail=detail)


def run_clean_case(seed: int) -> CleanResult:
    bundle = clean_bundle(seed)
    report = lint_launch(bundle.launch, bundle.config)
    silent = not report.diagnostics
    timing = clean_bundle(seed)
    simulate(timing.launch, timing.config)
    oracle = clean_bundle(seed)
    run_functional(oracle.launch)
    match = np.array_equal(_image(timing.launch), _image(oracle.launch))
    return CleanResult(name=bundle.name, silent=silent, oracle_match=match)


def run_campaign(seeds=range(3), clean_seeds=range(10),
                 codes=None) -> LintCampaignReport:
    """Validate every diagnostic class over ``seeds`` and the clean corpus
    over ``clean_seeds``."""
    report = LintCampaignReport()
    for code in sorted(codes or DEFECTS):
        for seed in seeds:
            report.cases.append(run_case(code, seed))
    for seed in clean_seeds:
        report.clean.append(run_clean_case(seed))
    return report
