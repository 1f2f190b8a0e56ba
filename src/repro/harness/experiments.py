"""Per-figure experiment drivers: one function per table/figure of the
paper's evaluation (see the experiment index in DESIGN.md), one
``*_report`` formatter per figure, and :data:`FIGURES`, the registry
``repro figures NAME`` prints from."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..compiler.affine_analysis import AffineAnalysis
from ..config import GPUConfig
from ..energy import area_report, energy_of
from ..workloads import COMPUTE_ORDER, MEMORY_ORDER, get, table2
from .report import ascii_table, bar
from .runner import TECHNIQUES, Geomean, experiment_config, run_one, run_suite

ALL_ORDER = COMPUTE_ORDER + MEMORY_ORDER


# ---------------------------------------------------------------------------
# Figure 6: percentage of potentially affine static instructions.

def fig6_affine_potential() -> dict[str, dict[str, float]]:
    out = {}
    for abbr in ALL_ORDER:
        kernel = get(abbr).launch("tiny").kernel
        out[abbr] = AffineAnalysis(kernel).potential_affine_fractions()
    means = {cat: sum(v[cat] for v in out.values()) / len(out)
             for cat in ("arithmetic", "memory", "branch")}
    out["MEAN"] = means
    return out


def fig6_report() -> str:
    data = fig6_affine_potential()
    rows = [[abbr, v["arithmetic"], v["memory"], v["branch"],
             v["arithmetic"] + v["memory"] + v["branch"]]
            for abbr, v in data.items()]
    return ascii_table(
        ["bench", "arith", "memory", "branch", "total"], rows,
        "Figure 6: fraction of static instructions that are potentially "
        "affine")


# ---------------------------------------------------------------------------
# Table 2 classification: memory-intensive = >= 1.5x speedup with perfect
# memory (paper §5.1.2).

def table2_classification(scale: str = "paper",
                          config: GPUConfig | None = None) \
        -> dict[str, dict]:
    config = config or experiment_config()
    perfect_config = config.with_perfect_memory()
    out = {}
    for abbr in ALL_ORDER:
        base = run_one(abbr, "baseline", scale, config)
        perfect = run_one(abbr, "baseline", scale, perfect_config)
        speedup = base.cycles / max(1, perfect.cycles)
        out[abbr] = {
            "perfect_speedup": speedup,
            "measured": "memory" if speedup >= 1.5 else "compute",
            "paper": get(abbr).category,
        }
    return out


def table2_report(data: dict[str, dict]) -> str:
    rows = [[abbr, d["perfect_speedup"], d["measured"], d["paper"]]
            for abbr, d in data.items()]
    return (table2() + "\n\n" + ascii_table(
        ["bench", "perfect-mem speedup", "measured", "paper"], rows,
        "Classification by the perfect-memory rule (>= 1.5x)"))


# ---------------------------------------------------------------------------
# Figure 16: speedups of CAE, MTA, DAC over the baseline.

@dataclass
class SpeedupData:
    per_bench: dict[str, dict[str, float]] = field(default_factory=dict)
    means: dict[str, dict[str, float]] = field(default_factory=dict)


def fig16_speedup(scale: str = "paper",
                  config: GPUConfig | None = None) -> SpeedupData:
    config = config or experiment_config()
    data = SpeedupData()
    geo = {cat: {t: Geomean() for t in ("cae", "mta", "dac")}
           for cat in ("compute", "memory", "all")}
    for abbr in ALL_ORDER:
        runs = run_suite([abbr], scale, config)[abbr]
        base = runs["baseline"].cycles
        cat = get(abbr).category
        entry = {}
        for tech in ("cae", "mta", "dac"):
            speedup = base / max(1, runs[tech].cycles)
            entry[tech] = speedup
            geo[cat][tech].add(speedup)
            geo["all"][tech].add(speedup)
        data.per_bench[abbr] = entry
    data.means = {cat: {t: g.mean for t, g in techs.items()}
                  for cat, techs in geo.items()}
    return data


def fig16_report(data: SpeedupData) -> str:
    sections = []
    for cat, order in (("memory", MEMORY_ORDER), ("compute", COMPUTE_ORDER)):
        rows = []
        for abbr in order:
            e = data.per_bench[abbr]
            rows.append([abbr, e["cae"], e["mta"], e["dac"],
                         bar(e["dac"])])
        m = data.means[cat]
        rows.append(["MEAN", m["cae"], m["mta"], m["dac"], bar(m["dac"])])
        sections.append(ascii_table(
            ["bench", "CAE", "MTA", "DAC", "DAC bar"], rows,
            f"Figure 16{'a' if cat == 'memory' else 'b'}: speedup over "
            f"baseline ({cat}-intensive)"))
    g = data.means["all"]
    sections.append(f"Global geomean: CAE {g['cae']:.3f}  MTA {g['mta']:.3f}"
                    f"  DAC {g['dac']:.3f}")
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# Figure 17: warp instructions executed by DAC, normalized to baseline.

def fig17_instruction_counts(scale: str = "paper",
                             config: GPUConfig | None = None) \
        -> dict[str, dict[str, float]]:
    config = config or experiment_config()
    out = {}
    na_geo, total_geo, ratio = Geomean(), Geomean(), Geomean()
    affine_shares = []
    for abbr in ALL_ORDER:
        base = run_one(abbr, "baseline", scale, config)
        dac = run_one(abbr, "dac", scale, config)
        base_insts = base.stats["warp_instructions"]
        nonaffine = dac.stats["warp_instructions"] / base_insts
        affine = dac.stats["affine_warp_instructions"] / base_insts
        replaced = base_insts - dac.stats["warp_instructions"]
        per_affine = (replaced / dac.stats["affine_warp_instructions"]
                      if dac.stats["affine_warp_instructions"] else 0.0)
        out[abbr] = {"nonaffine": nonaffine, "affine": affine,
                     "total": nonaffine + affine,
                     "replaced_per_affine": per_affine}
        na_geo.add(nonaffine)
        total_geo.add(nonaffine + affine)
        affine_shares.append(affine)
        if per_affine > 0:
            ratio.add(per_affine)
    out["MEAN"] = {"nonaffine": na_geo.mean,
                   "affine": sum(affine_shares) / len(affine_shares),
                   "total": total_geo.mean,
                   "replaced_per_affine": ratio.mean}
    return out


def fig17_report(data: dict[str, dict[str, float]]) -> str:
    rows = [[a, v["nonaffine"], v["affine"], v["total"]]
            for a, v in data.items()]
    return ascii_table(["bench", "non-affine", "affine", "total"], rows,
                       "Figure 17")


# ---------------------------------------------------------------------------
# Figure 18: affine instruction coverage, DAC vs CAE (compute benchmarks).

def fig18_coverage(scale: str = "paper",
                   config: GPUConfig | None = None) \
        -> dict[str, dict[str, float]]:
    config = config or experiment_config()
    out = {}
    dac_geo, cae_geo = Geomean(), Geomean()
    for abbr in COMPUTE_ORDER:
        base = run_one(abbr, "baseline", scale, config)
        cae = run_one(abbr, "cae", scale, config)
        dac = run_one(abbr, "dac", scale, config)
        base_insts = base.stats["warp_instructions"]
        dac_cov = max(0.0, 1.0 - dac.stats["warp_instructions"] / base_insts)
        cae_cov = cae.stats["cae.affine_instructions"] / base_insts
        out[abbr] = {"dac": dac_cov, "cae": cae_cov}
        dac_geo.add(max(dac_cov, 1e-3))
        cae_geo.add(max(cae_cov, 1e-3))
    out["MEAN"] = {"dac": dac_geo.mean, "cae": cae_geo.mean}
    return out


def fig18_report(data: dict[str, dict[str, float]]) -> str:
    return ascii_table(["bench", "CAE", "DAC"],
                       [[a, v["cae"], v["dac"]] for a, v in data.items()],
                       "Figure 18")


def _two_column(title: str, data: dict[str, float]) -> str:
    return ascii_table(["bench", "value"],
                       [[a, v] for a, v in data.items()], title)


# ---------------------------------------------------------------------------
# Figure 19: % of global/local load requests issued by the affine warp.

def fig19_affine_loads(scale: str = "paper",
                       config: GPUConfig | None = None) \
        -> dict[str, float]:
    config = config or experiment_config()
    out = {}
    for abbr in MEMORY_ORDER:
        dac = run_one(abbr, "dac", scale, config)
        affine = dac.stats["dac.affine_load_lines"]
        demand = dac.stats["gmem_load_lines"]
        frac = affine / max(1.0, affine + demand)
        out[abbr] = frac
    out["MEAN"] = sum(v for k, v in out.items() if k != "MEAN") \
        / len(MEMORY_ORDER)
    return out


def fig19_report(data: dict[str, float]) -> str:
    return _two_column("Figure 19", data)


# ---------------------------------------------------------------------------
# Figure 20: MTA prefetcher coverage.

def fig20_mta_coverage(scale: str = "paper",
                       config: GPUConfig | None = None) -> dict[str, float]:
    config = config or experiment_config()
    out = {}
    for abbr in MEMORY_ORDER:
        mta = run_one(abbr, "mta", scale, config)
        hits = mta.stats["mta.buffer_hits"]
        misses = mta.stats["mta.uncovered_misses"]
        out[abbr] = hits / max(1.0, hits + misses)
    out["MEAN"] = sum(v for k, v in out.items() if k != "MEAN") \
        / len(MEMORY_ORDER)
    return out


def fig20_report(data: dict[str, float]) -> str:
    return _two_column("Figure 20", data)


# ---------------------------------------------------------------------------
# Figure 21: DAC energy normalized to the baseline.

def fig21_energy(scale: str = "paper",
                 config: GPUConfig | None = None) \
        -> dict[str, dict[str, float]]:
    config = config or experiment_config()
    out = {}
    total_geo, dynamic_geo = Geomean(), Geomean()
    for abbr in ALL_ORDER:
        base_e = energy_of(run_one(abbr, "baseline", scale, config))
        dac_e = energy_of(run_one(abbr, "dac", scale, config))
        norm = dac_e.normalized_to(base_e)
        out[abbr] = norm
        total_geo.add(norm["total"])
        dynamic_geo.add(dac_e.dynamic / max(base_e.dynamic, 1e-12))
    out["MEAN"] = {"total": total_geo.mean, "dynamic": dynamic_geo.mean}
    return out


def fig21_report(data: dict[str, dict[str, float]]) -> str:
    rows = []
    for abbr, v in data.items():
        if abbr == "MEAN":
            continue
        rows.append([abbr, v["dac_overhead"], v["alu"], v["register"],
                     v["other_dynamic"], v["static"], v["total"]])
    rows.append(["MEAN", "", "", "", "", "", data["MEAN"]["total"]])
    return ascii_table(
        ["bench", "DAC ovh", "ALU", "RF", "other dyn", "static", "total"],
        rows, "Figure 21: DAC energy normalized to baseline")


# ---------------------------------------------------------------------------
# The registry behind ``repro figures NAME``.

Cell = tuple[str, str, GPUConfig]       # (benchmark, technique, config)


def _grid(order, techniques) -> Callable[[GPUConfig], list[Cell]]:
    return lambda config: [(abbr, tech, config) for abbr in order
                           for tech in techniques]


def _table2_cells(config: GPUConfig) -> list[Cell]:
    return [(abbr, "baseline", c) for abbr in ALL_ORDER
            for c in (config, config.with_perfect_memory())]


@dataclass(frozen=True)
class Figure:
    """One name of ``repro figures``: its text at a scale and machine,
    and the simulation cells it reads (prewarmed over the worker pool
    before a ``--jobs N`` run formats anything)."""

    report: Callable[[str, GPUConfig], str]
    cells: Callable[[GPUConfig], list[Cell]] = _grid((), ())


#: Every name ``repro figures all`` prints, in order.
FIGURES: dict[str, Figure] = {
    "table1": Figure(lambda scale, config: config.table1()),
    "table2": Figure(lambda scale, config: table2_report(
        table2_classification(scale, config)), _table2_cells),
    "fig6": Figure(lambda scale, config: fig6_report()),
    "fig16": Figure(lambda scale, config: fig16_report(
        fig16_speedup(scale, config)), _grid(ALL_ORDER, TECHNIQUES)),
    "fig17": Figure(lambda scale, config: fig17_report(
        fig17_instruction_counts(scale, config)),
        _grid(ALL_ORDER, ("baseline", "dac"))),
    "fig18": Figure(lambda scale, config: fig18_report(
        fig18_coverage(scale, config)),
        _grid(COMPUTE_ORDER, ("baseline", "cae", "dac"))),
    "fig19": Figure(lambda scale, config: fig19_report(
        fig19_affine_loads(scale, config)), _grid(MEMORY_ORDER, ("dac",))),
    "fig20": Figure(lambda scale, config: fig20_report(
        fig20_mta_coverage(scale, config)), _grid(MEMORY_ORDER, ("mta",))),
    "fig21": Figure(lambda scale, config: fig21_report(
        fig21_energy(scale, config)), _grid(ALL_ORDER, ("baseline", "dac"))),
    "area": Figure(lambda scale, config: area_report().table()),
}
