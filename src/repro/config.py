"""Simulation configuration (paper Table 1).

The default models the paper's baseline: a Fermi GTX 480 with 15 SMs, 48
warps/SM, 32 SIMT lanes, two schedulers per SM, 48 KB 4-way L1 per SM and a
768 KB 8-way L2 over 6 partitions.  Latency constants are chosen to land in
the ranges GPGPU-sim reports for Fermi (L1 hit ≈ tens of cycles, L2 round
trip ≈ 150, DRAM round trip ≈ 400+).

``GPUConfig.gtx480()`` is the paper configuration; ``GPUConfig.scaled(n)``
keeps per-SM resources identical but runs ``n`` SMs with L2 and DRAM
bandwidth scaled proportionally — used to keep Python-side experiment time
reasonable (see DESIGN.md substitution table).

Every field is read by some part of the model; ``tests/test_config_events.py``
checks that.  Parts of Table 1 the model does not vary — 32 SIMT lanes, the
128 KB register file (registers do not limit occupancy), CAE's two affine
units, the DCRF (sized from ``stack_depth`` by the area model) — are not
fields: ``table1()`` prints them as literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int
    ways: int
    line_size: int = 128
    hit_latency: int = 28
    num_mshrs: int = 32
    accept_interval: float = 1.0     # cycles between accepted requests


@dataclass(frozen=True)
class DRAMConfig:
    latency: int = 280               # controller + device pipeline
    num_banks: int = 16
    row_size: int = 2048             # bytes per row per bank
    t_row_hit: int = 8               # bank busy cycles, row buffer hit
    t_row_miss: int = 26             # bank busy cycles, activate + access
    burst_cycles: int = 1            # bus cycles per 128 B line (~177 GB/s)


@dataclass(frozen=True)
class DACConfig:
    """DAC hardware structures, sizes from paper §4.8 / Table 1."""

    atq_entries: int = 24            # Affine Tuple Queue
    pwaq_entries: int = 192          # Per-Warp Address Queue, total
    pwpq_entries: int = 192          # Per-Warp Predicate Queue, total
    stack_depth: int = 8             # Affine SIMT Stack depth
    expansion_alus: int = 2          # one in the AEU, one in the PEU
    lock_lines: bool = True          # §4.2 L1 line locking (ablation knob)


@dataclass(frozen=True)
class MTAConfig:
    """Many-Thread-Aware prefetcher baseline (Lee et al. [15]) with the
    paper's generous 16 KB dedicated prefetch buffer per SM."""

    buffer_bytes: int = 16 * 1024
    table_entries: int = 64          # per-PC stride table
    prefetch_degree: int = 8         # lines prefetched per trigger
    throttle_window: int = 256       # prefetches per accuracy evaluation
    throttle_low_accuracy: float = 0.4


@dataclass(frozen=True)
class GPUConfig:
    # SM organization.
    num_sms: int = 15
    warps_per_sm: int = 48
    num_schedulers: int = 2
    scheduler: str = "two_level"     # "two_level" or "lrr"
    issue_interval: int = 2          # 32-thread warp over 16 lanes (§5.1.1)
    max_ctas_per_sm: int = 8

    # Functional unit latencies (cycles).
    alu_latency: int = 10
    sfu_latency: int = 24
    shared_latency: int = 26

    # Memory system.
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=48 * 1024, ways=4, hit_latency=28, num_mshrs=32))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=768 * 1024, ways=8, hit_latency=30, num_mshrs=384,
        accept_interval=0.17))       # ~6 partitions, 32+ MSHRs each
    interconnect_latency: int = 40   # each direction
    dram: DRAMConfig = field(default_factory=DRAMConfig)

    # Technique selection: "baseline", "dac", "cae", or "mta".
    technique: str = "baseline"
    dac: DACConfig = field(default_factory=DACConfig)
    mta: MTAConfig = field(default_factory=MTAConfig)

    # Perfect-memory mode (used to classify benchmarks, §5.1.2).
    perfect_memory: bool = False

    # Safety valve for runaway kernels.
    max_cycles: int = 50_000_000

    @classmethod
    def gtx480(cls, **overrides) -> "GPUConfig":
        """The paper's Table 1 baseline."""
        return cls(**overrides)

    @classmethod
    def from_dict(cls, data: dict) -> "GPUConfig":
        """Inverse of :func:`dataclasses.asdict` (the JSON round-trip
        path): rebuilds the nested sub-config dataclasses."""
        data = dict(data)
        nested = {"l1": CacheConfig, "l2": CacheConfig, "dram": DRAMConfig,
                  "dac": DACConfig, "mta": MTAConfig}
        for name, sub_cls in nested.items():
            if name in data and isinstance(data[name], dict):
                data[name] = sub_cls(**data[name])
        return cls(**data)

    def scaled(self, num_sms: int) -> "GPUConfig":
        """Same per-SM machine with ``num_sms`` SMs.  L2 *capacity* and
        MSHRs scale with the SM count (preserving per-SM cache pressure);
        L2/DRAM bandwidth and bank parallelism are left at full-chip values,
        which is generous per SM but keeps the workloads latency-bound
        rather than bandwidth-bound — the regime the paper's benchmarks run
        in (see EXPERIMENTS.md).  The bias applies equally to baseline,
        CAE, MTA, and DAC."""
        factor = num_sms / self.num_sms
        l2 = replace(self.l2,
                     size_bytes=max(self.l2.line_size * self.l2.ways * 8,
                                    int(self.l2.size_bytes * factor)),
                     num_mshrs=max(96, int(self.l2.num_mshrs * factor)))
        return replace(self, num_sms=num_sms, l2=l2)

    def with_technique(self, technique: str) -> "GPUConfig":
        if technique not in ("baseline", "dac", "cae", "mta"):
            raise ValueError(f"unknown technique: {technique}")
        return replace(self, technique=technique)

    def with_perfect_memory(self) -> "GPUConfig":
        return replace(self, perfect_memory=True)

    def table1(self) -> str:
        """Render the configuration as the paper's Table 1."""
        lines = [
            "Baseline GPU",
            f"  GPU        Fermi (GTX480), {self.num_sms} SMs, "
            f"{self.warps_per_sm} warps/SM",
            "  SM         32 SIMT lanes, 128KB register file",
            f"  Scheduler  {self.num_schedulers} Schedulers/SM, "
            f"{'Two Level Active' if self.scheduler == 'two_level' else 'LRR'}",
            f"  L1         {self.l1.size_bytes // 1024} KB/SM, "
            f"{self.l1.ways} Ways, {self.l1.num_mshrs} MSHRs",
            f"  L2         {self.l2.size_bytes // 1024} KB, 6 Partitions, "
            f"{self.l2.ways} Ways",
            "GPU Prefetcher (MTA)",
            f"  Prefetch Buffer  {self.mta.buffer_bytes // 1024}KB/SM "
            "(in addition to the L1)",
            "Compact Affine Execution (CAE)",
            "  Affine Units     2 per SM",
            "Decoupled Affine Computation (DAC)",
            f"  ATQ (per SM)   {self.dac.atq_entries} Entries",
            f"  PWAQ (per SM)  {self.dac.pwaq_entries} Entries",
            f"  PWPQ (per SM)  {self.dac.pwpq_entries} Entries",
            f"  Affine Stack   depth {self.dac.stack_depth}, "
            f"{self.warps_per_sm} PWSs",
        ]
        return "\n".join(lines)
