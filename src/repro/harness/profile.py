"""Post-run profiling: turn a RunResult's raw counters into the derived
metrics an architect actually reads (issue utilization, hit rates, memory
behaviour, DAC pipeline health)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.gpu import RunResult
from ..trace.export import stall_buckets


@dataclass
class Profile:
    """Derived metrics for one simulation run."""

    cycles: int
    warp_instructions: float
    affine_instructions: float
    issue_utilization: float       # fraction of issue slots used
    ipc_thread: float
    l1_hit_rate: float
    l2_hit_rate: float
    dram_row_hit_rate: float
    memory_fraction: float         # memory instructions / all instructions
    divergence_rate: float         # divergent branches / branches
    dac_load_fraction: float       # affine-issued load lines / all lines
    dac_lead_cycles: float         # mean fill-to-dequeue slack
    mta_accuracy: float            # useful / issued prefetches
    stall_breakdown: dict = field(default_factory=dict)
    # issue-slot attribution shares (sums to 1.0)

    def report(self) -> str:
        rows = [
            ("cycles", f"{self.cycles:,}"),
            ("warp instructions", f"{self.warp_instructions:,.0f}"),
            ("affine warp instructions",
             f"{self.affine_instructions:,.0f}"),
            ("issue utilization", f"{self.issue_utilization:.1%}"),
            ("thread IPC", f"{self.ipc_thread:.2f}"),
            ("L1 hit rate", f"{self.l1_hit_rate:.1%}"),
            ("L2 hit rate", f"{self.l2_hit_rate:.1%}"),
            ("DRAM row-buffer hit rate", f"{self.dram_row_hit_rate:.1%}"),
            ("memory instruction share", f"{self.memory_fraction:.1%}"),
            ("divergent branch share", f"{self.divergence_rate:.1%}"),
        ]
        if self.dac_load_fraction:
            rows += [
                ("loads issued by affine warp",
                 f"{self.dac_load_fraction:.1%}"),
                ("mean prefetch lead", f"{self.dac_lead_cycles:.0f} cyc"),
            ]
        if self.mta_accuracy:
            rows.append(("MTA prefetch accuracy",
                         f"{self.mta_accuracy:.1%}"))
        for reason, share in sorted(self.stall_breakdown.items(),
                                    key=lambda kv: -kv[1]):
            rows.append((f"issue slot: {reason}", f"{share:.1%}"))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}"
                         for name, value in rows)


def _rate(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def profile(result: RunResult) -> Profile:
    """Derive a :class:`Profile` from a finished run."""
    s = result.stats
    config = result.config
    issue_slots = (result.cycles * config.num_sms * config.num_schedulers
                   / config.issue_interval)
    total_insts = s["warp_instructions"] + s["affine_warp_instructions"]
    deqs = s["dac.deq_loads"]
    all_load_lines = s["dac.affine_load_lines"] + s["gmem_load_lines"]
    prefetches = s["mta.prefetches"]
    buckets = stall_buckets(result)
    slot_total = sum(buckets.values())
    breakdown = {reason: cyc / slot_total
                 for reason, cyc in buckets.items()} if slot_total else {}
    return Profile(
        cycles=result.cycles,
        warp_instructions=s["warp_instructions"],
        affine_instructions=s["affine_warp_instructions"],
        issue_utilization=_rate(total_insts, issue_slots),
        ipc_thread=result.ipc,
        l1_hit_rate=_rate(s["l1.hits"], s["l1.accesses"]),
        l2_hit_rate=_rate(s["l2.hits"], s["l2.accesses"]),
        dram_row_hit_rate=_rate(s["dram.row_hits"],
                                s["dram.row_hits"] + s["dram.row_misses"]),
        memory_fraction=_rate(s["inst.memory"], s["warp_instructions"]),
        divergence_rate=_rate(s["divergent_branches"], s["inst.branch"]),
        dac_load_fraction=_rate(s["dac.affine_load_lines"], all_load_lines),
        dac_lead_cycles=_rate(s["dac.lead_cycles"], deqs),
        mta_accuracy=_rate(prefetches - s["mta.useless_prefetches"],
                           prefetches),
        stall_breakdown=breakdown,
    )
