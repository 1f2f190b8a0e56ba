"""The paper's claims, checked against a measured evaluation.

``repro figures claims`` prints one table: each row is one claim of the
paper's text with the paper's value, the measured value, and a pass rule
read from that text, never fitted to the measurements.  There are two
kinds of rule:

* a qualitative claim ("DAC is best in both classes", "CAE gains only on
  compute-bound code", "BFS gains nothing") compares speedups with 1.0
  and with each other;
* a headline ratio (the paper's 1.41x, 0.74x, ...) must hold its
  direction and its rough factor: within :data:`BAND` of the paper's
  value.

:data:`BAND` is also what "gains" and "gains nothing" mean: a speedup
above ``1 + BAND`` is a gain, one within ``BAND`` of 1.0 is none.  It is
half the smallest gain the paper reports for any technique (CAE's 1.11x
on compute-bound code), so no gain the paper reports can fall inside it.

A row the reproduction breaks for a reason that is understood carries
that reason as a known deviation; it is shown, and it does not fail the
gate.  Any other broken row does.  The claims are the paper's, so only
``--scale paper`` is expected to hold them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from ..config import GPUConfig
from ..energy import area_report
from .experiments import (
    FIGURES,
    Cell,
    fig6_affine_potential,
    fig16_speedup,
    fig17_instruction_counts,
    fig18_coverage,
    fig19_affine_loads,
    fig21_energy,
    table2_classification,
)
from .report import ascii_table
from .runner import run_one

#: Relative tolerance of every rule; see the module docstring.
BAND = 0.05

#: The benchmarks §5.5 names as gaining nothing from DAC.
NO_GAIN_BENCHMARKS = ("BFS", "BT", "SPV", "LBM")


@dataclass(frozen=True)
class Claim:
    source: str                         # where the paper makes it
    text: str
    paper: str                          # the paper's value, as printed
    rule: str                           # the pass rule, as printed
    measured: Callable[[dict], str]     # the measured value, as printed
    holds: Callable[[dict], bool]
    deviation: str = ""                 # why the reproduction breaks it


def _show(key: str, fmt: str = "{:.3f}") -> Callable[[dict], str]:
    return lambda m: fmt.format(m[key])


def _gain(source, text, key, **kw) -> Claim:
    return Claim(source, text, "gain", f"> {1 + BAND:.2f}", _show(key),
                 lambda m: m[key] > 1 + BAND, **kw)


def _no_gain(source, text, key, **kw) -> Claim:
    return Claim(source, text, "~1.0", f"1.00 +- {BAND:.2f}", _show(key),
                 lambda m: abs(m[key] - 1) <= BAND, **kw)


def _fewer(source, text, key, **kw) -> Claim:
    return Claim(source, text, "fewer", f"< {1 - BAND:.2f}", _show(key),
                 lambda m: m[key] < 1 - BAND, **kw)


def _ratio(source, text, key, paper: float, fmt: str = "{:.3f}",
           **kw) -> Claim:
    """The paper's ratio: same side of 1.0, and within BAND of it."""
    def holds(m):
        same_side = (m[key] > 1) == (paper > 1)
        return same_side and abs(m[key] / paper - 1) <= BAND
    return Claim(source, text, fmt.format(paper),
                 f"{fmt.format(paper)} +- {BAND:.0%}", _show(key, fmt),
                 holds, **kw)


def _best(cls: str) -> Claim:
    def holds(m):
        return m[f"dac.{cls}"] > max(m[f"cae.{cls}"], m[f"mta.{cls}"])

    def measured(m):
        return " ".join(f"{t.upper()} {m[f'{t}.{cls}']:.3f}"
                        for t in ("dac", "cae", "mta"))
    return Claim("Fig. 16a" if cls == "memory" else "Fig. 16b",
                 f"DAC beats CAE and MTA on {cls}-bound code",
                 "DAC best", "DAC > CAE, MTA", measured, holds)


CLAIMS: tuple[Claim, ...] = (
    _best("memory"),
    _best("compute"),
    _gain("Fig. 16b", "CAE gains on compute-bound code", "cae.compute"),
    _no_gain("Fig. 16a", "CAE gains nothing on memory-bound code",
             "cae.memory"),
    _gain("Fig. 16a", "MTA gains on memory-bound code", "mta.memory"),
    _no_gain("Fig. 16b", "MTA gains nothing on compute-bound code",
             "mta.compute", deviation=(
                 "the gain comes from HS and SR1, which fall in the memory "
                 "class under the paper's own perfect-memory rule here "
                 "(see the Table 2 row)")),
    *(_no_gain("§5.5", f"{abbr} gains nothing from DAC", f"dac.{abbr}")
      for abbr in NO_GAIN_BENCHMARKS),
    _fewer("Fig. 17", "DAC executes fewer warp instructions",
           "warp_instructions"),
    _gain("§5.3", "an affine instruction replaces several baseline ones",
          "replaced_per_affine"),
    _fewer("Fig. 21", "DAC spends less energy than the baseline", "energy"),
    Claim("§4.2", "locked lines are never refetched (LIB, 4 KB L1)",
          "0", "= 0", lambda m: "{:.0f} (unlocked {:.0f})".format(
              m["refetches.locked"], m["refetches.unlocked"]),
          lambda m: m["refetches.locked"] == 0),
    _ratio("abstract", "DAC speedup, all 29 (geomean)", "dac.all", 1.407),
    _ratio("Fig. 16b", "DAC speedup, compute-bound", "dac.compute", 1.34),
    _ratio("Fig. 16a", "DAC speedup, memory-bound", "dac.memory", 1.44),
    _ratio("Fig. 16b", "CAE speedup, compute-bound", "cae.compute", 1.11),
    _ratio("Fig. 16a", "MTA speedup, memory-bound", "mta.memory", 1.16),
    _ratio("Fig. 17", "warp instructions, DAC vs baseline",
           "warp_instructions", 0.74, deviation=(
               "memory-bound grids keep 8 warps/SM resident, so one "
               "affine warp amortizes over 8-48 warps, not 48 "
               "(EXPERIMENTS.md, Figure 17)")),
    _ratio("§5.3", "baseline instructions replaced per affine one",
           "replaced_per_affine", 9.0, fmt="{:.1f}", deviation=(
               "the same smaller amortization as the Figure 17 row")),
    _ratio("Fig. 19", "loads issued by the affine warp", "affine_loads",
           0.798),
    _ratio("Fig. 21", "total energy, DAC vs baseline", "energy", 0.798,
           deviation=(
               "static energy scales with run time, and the memory-bound "
               "speedups here exceed the paper's (EXPERIMENTS.md, "
               "Figure 21)")),
    _ratio("§4.8", "area overhead", "area", 0.0106, fmt="{:.2%}"),
    _ratio("Fig. 6", "static instructions potentially affine",
           "potential_affine", 0.5, deviation=(
               "the synthetic kernels lack the scaffolding code of real "
               "programs, so index arithmetic is a larger share "
               "(EXPERIMENTS.md, Figure 6)")),
    Claim("Fig. 18", "DAC covers more affine instructions than CAE",
          "DAC > CAE", "DAC > CAE", lambda m: "DAC {:.3f} CAE {:.3f}".format(
              m["coverage.dac"], m["coverage.cae"]),
          lambda m: m["coverage.dac"] > m["coverage.cae"], deviation=(
              "DAC's coverage here is the net fraction of instructions "
              "removed; the paper counts decoupled instructions before "
              "amortization (EXPERIMENTS.md, Figure 18)")),
    Claim("Table 2", "the perfect-memory rule gives the paper's class",
          "29/29", "all 29", lambda m: "{:.0f}/{:.0f}".format(
              m["classes_agree"], m["classes"]),
          lambda m: m["classes_agree"] == m["classes"],
          deviation=(
              "the borderline benchmarks sit within about 0.5 of the "
              "1.5x threshold, which is sensitive to the synthetic "
              "kernels' compute density (EXPERIMENTS.md, Table 2)")),
)


# ---------------------------------------------------------------------------
# Measuring.

def _locking(config: GPUConfig, lock: bool) -> GPUConfig:
    """§4.2's setting for line locking: an L1 small enough (4 KB) that
    early-fetched lines face eviction before their demand access."""
    return dataclasses.replace(
        config, l1=dataclasses.replace(config.l1, size_bytes=4 * 1024),
        dac=dataclasses.replace(config.dac, lock_lines=lock))


def claims_cells(config: GPUConfig) -> list[Cell]:
    """Every simulation cell :func:`measure` reads."""
    return (FIGURES["fig16"].cells(config) + FIGURES["table2"].cells(config)
            + [("LIB", "dac", _locking(config, lock))
               for lock in (True, False)])


def measure(scale: str, config: GPUConfig) -> dict[str, float]:
    """The measured value behind every claim, by name."""
    speedups = fig16_speedup(scale, config)
    m = {f"{tech}.{cls}": mean for cls, techs in speedups.means.items()
         for tech, mean in techs.items()}
    for abbr in NO_GAIN_BENCHMARKS:
        m[f"dac.{abbr}"] = speedups.per_bench[abbr]["dac"]
    counts = fig17_instruction_counts(scale, config)["MEAN"]
    m["warp_instructions"] = counts["total"]
    m["replaced_per_affine"] = counts["replaced_per_affine"]
    coverage = fig18_coverage(scale, config)["MEAN"]
    m["coverage.dac"], m["coverage.cae"] = coverage["dac"], coverage["cae"]
    m["affine_loads"] = fig19_affine_loads(scale, config)["MEAN"]
    m["energy"] = fig21_energy(scale, config)["MEAN"]["total"]
    m["area"] = area_report().overhead_fraction
    m["potential_affine"] = sum(fig6_affine_potential()["MEAN"].values())
    classes = table2_classification(scale, config)
    m["classes"] = len(classes)
    m["classes_agree"] = sum(d["measured"] == d["paper"]
                             for d in classes.values())
    for lock in (True, False):
        run = run_one("LIB", "dac", scale, _locking(config, lock))
        m[f"refetches.{'locked' if lock else 'unlocked'}"] = \
            run.stats["dac.deq_refetches"]
    return m


# ---------------------------------------------------------------------------
# Judging and reporting.

@dataclass(frozen=True)
class Verdict:
    claim: Claim
    measured: str
    holds: bool

    @property
    def status(self) -> str:
        if self.holds:
            return "holds"
        return "deviation" if self.claim.deviation else "BROKEN"


def evaluate(measured: dict[str, float]) -> list[Verdict]:
    return [Verdict(c, c.measured(measured), c.holds(measured))
            for c in CLAIMS]


def claims_ok(verdicts: list[Verdict]) -> bool:
    """False when any claim breaks that is not a known deviation."""
    return all(v.status != "BROKEN" for v in verdicts)


def claims_report(verdicts: list[Verdict]) -> str:
    rows = [[i, v.claim.source, v.claim.text, v.claim.paper,
             v.measured, v.claim.rule, v.status]
            for i, v in enumerate(verdicts, 1)]
    counts = {s: sum(v.status == s for v in verdicts)
              for s in ("holds", "deviation", "BROKEN")}
    table = ascii_table(
        ["#", "source", "claim", "paper", "measured", "rule", "status"],
        rows, "Claims of the paper: {holds} hold, {deviation} known "
              "deviations, {BROKEN} broken".format(**counts))
    # Every column is padded; strip the last one's padding.
    lines = [line.rstrip() for line in table.splitlines()]
    lines += ["", "Known deviations:"]
    for i, v in enumerate(verdicts, 1):
        if v.claim.deviation:
            note = "" if not v.holds else " (holds now)"
            lines.append(f"  {i}. {v.claim.deviation}{note}")
    return "\n".join(lines)
