"""Tabular exports: per-interval occupancy CSV and the stall-attribution
report an architect reads first."""

from __future__ import annotations

import csv

from .tracer import AFFINE_SLOT, STALL_REASONS, Tracer

OCCUPANCY_COLUMNS = ("cycle", "sm", "atq", "pwaq", "pwpq", "runahead")


def write_occupancy_csv(tracer: Tracer, path) -> None:
    """Write the queue-occupancy / runahead time series as CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(OCCUPANCY_COLUMNS)
        writer.writerows(tracer.samples)


def stall_buckets(result) -> dict[str, int]:
    """The issue-slot attribution buckets every run carries (reason ->
    scheduler-slot cycles); empty for a hand-built result without them."""
    return dict(result.extra.get("stalls", {}))


def stall_report(result, tracer: Tracer | None = None,
                 top_warps: int = 8) -> str:
    """Render the per-slot attribution table (and, when the tracer is
    available, the most-stalled warp slots).

    Every scheduler slot of every cycle lands in exactly one bucket, so the
    ``cycles`` column sums to ``cycles x num_sms x num_schedulers``.
    """
    buckets = stall_buckets(result)
    if not buckets:
        return "no stall attribution recorded"
    slots = result.cycles * result.config.num_sms \
        * result.config.num_schedulers
    order = {reason: i for i, reason in enumerate(STALL_REASONS)}
    lines = ["stall attribution (per scheduler slot)",
             f"{'bucket':<14} {'cycles':>14} {'share':>8}"]
    for reason in sorted(buckets, key=lambda r: order.get(r, 99)):
        cyc = buckets[reason]
        lines.append(f"{reason:<14} {cyc:>14,.0f} {cyc / slots:>8.1%}")
    lines.append(f"{'total':<14} {sum(buckets.values()):>14,.0f} "
                 f"{sum(buckets.values()) / slots:>8.1%}")

    if tracer is not None and tracer.warp_stalls:
        stalled = {}
        for (sm, slot, reason), cyc in tracer.warp_stalls.items():
            if reason in ("issued", "busy", "idle"):
                continue
            key = (sm, slot)
            stalled[key] = stalled.get(key, 0) + cyc
        if stalled:
            lines.append("")
            lines.append(f"most-stalled warp slots (top {top_warps})")
            ranked = sorted(stalled.items(), key=lambda kv: -kv[1])
            for (sm, slot), cyc in ranked[:top_warps]:
                name = "affine" if slot == AFFINE_SLOT else f"w{slot}"
                lines.append(f"  sm{sm} {name:<8} {cyc:>12,.0f} cycles")
    return "\n".join(lines)
