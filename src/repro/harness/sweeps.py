"""Design-space sweep utilities.

A sweep varies one knob of the machine (a nested ``GPUConfig`` field, the
technique, or the SM count) across a list of values and reports each
variant's speedup over a shared baseline.  Used by the ablation benches and
``examples/design_space.py``.

Sweep points go through the same cached/parallel pipeline as the figure
grid: each variant is one (benchmark, technique, config) cell, so warm
sweeps load from the disk cache and ``jobs > 1`` fans variants out over
worker processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..config import GPUConfig


def override(config: GPUConfig, path: str, value) -> GPUConfig:
    """Return ``config`` with the dotted ``path`` (e.g. ``dac.pwaq_entries``
    or ``l1.size_bytes``) replaced by ``value``."""
    parts = path.split(".")
    if len(parts) == 1:
        return dataclasses.replace(config, **{parts[0]: value})
    if len(parts) == 2:
        group = getattr(config, parts[0])
        return dataclasses.replace(
            config, **{parts[0]: dataclasses.replace(group,
                                                     **{parts[1]: value})})
    raise ValueError(f"path too deep: {path}")


@dataclass
class SweepPoint:
    value: object
    cycles: int
    speedup: float
    stats: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    benchmark: str
    knob: str
    points: list[SweepPoint]

    def table(self) -> str:
        from .report import ascii_table
        rows = [[str(p.value), p.cycles, p.speedup] for p in self.points]
        return ascii_table([self.knob, "cycles", "speedup"], rows,
                           f"sweep of {self.knob} on {self.benchmark}")


def sweep(benchmark: str, knob: str, values, config: GPUConfig,
          technique: str = "dac", scale: str = "paper",
          keep_stats: tuple[str, ...] = (), jobs: int = 1,
          use_cache: bool = True) -> SweepResult:
    """Run ``benchmark`` once per knob value; speedups are against the
    *baseline technique on the unmodified config*."""
    from .runner import run_one

    variants = [override(config, knob, value) for value in values]
    grid: dict = {}
    if jobs and jobs > 1:
        from .parallel import run_grid
        grid = run_grid([(benchmark, "baseline", config)]
                        + [(benchmark, technique, v) for v in variants],
                        scale, jobs=jobs, use_cache=use_cache)

    def cell(tech: str, cfg: GPUConfig):
        return grid.get((benchmark, tech, cfg)) \
            or run_one(benchmark, tech, scale, cfg, use_cache=use_cache)

    base = cell("baseline", config)
    points = []
    for value, variant in zip(values, variants):
        result = cell(technique, variant)
        points.append(SweepPoint(
            value=value, cycles=result.cycles,
            speedup=base.cycles / result.cycles,
            stats={k: result.stats[k] for k in keep_stats}))
    return SweepResult(benchmark, knob, points)
