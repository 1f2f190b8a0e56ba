"""Flat counter store used by every timing component."""

from __future__ import annotations

from collections import defaultdict


class Stats:
    """A defaultdict of numeric counters with convenience helpers.

    Every hardware model increments named counters here; the harness and the
    energy model read them.  Keeping one flat namespace makes experiment
    reporting trivial and keeps the component code free of bookkeeping
    classes.
    """

    def __init__(self) -> None:
        self.counters: defaultdict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def get(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def __getitem__(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def __contains__(self, name: str) -> bool:
        return name in self.counters

    def as_dict(self) -> dict[str, float]:
        return dict(self.counters)

    def merged_with(self, other: "Stats") -> "Stats":
        out = Stats()
        for src in (self, other):
            for key, val in src.counters.items():
                out.counters[key] += val
        return out

    def report(self, prefix: str = "") -> str:
        lines = [f"{k:<44s} {v:>16,.0f}" if float(v).is_integer()
                 else f"{k:<44s} {v:>16,.3f}"
                 for k, v in sorted(self.counters.items())
                 if k.startswith(prefix)]
        return "\n".join(lines)
