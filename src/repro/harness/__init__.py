"""Experiment harness: runners, caching, parallel fan-out, per-figure
drivers, reporting."""

from .experiments import (
    FIGURES,
    Figure,
    fig6_affine_potential,
    fig6_report,
    fig16_report,
    fig16_speedup,
    fig17_instruction_counts,
    fig17_report,
    fig18_coverage,
    fig18_report,
    fig19_affine_loads,
    fig19_report,
    fig20_mta_coverage,
    fig20_report,
    fig21_energy,
    fig21_report,
    table2_classification,
    table2_report,
)
from .diskcache import (
    DiskCache,
    cache_key,
    default_cache_dir,
)
from .client import (
    RemoteTaskError,
    ServiceClient,
    ServiceUnavailable,
    default_socket_path,
    try_connect,
)
from .parallel import GridReport, default_jobs, run_grid
from .report import ascii_table, bar
from .export import to_csv, to_json
from .profile import Profile, profile
from .sweeps import SweepPoint, SweepResult, override, sweep
from .runner import (
    Geomean,
    TECHNIQUES,
    clear_cache,
    configure_cache,
    disk_cache,
    experiment_config,
    run_benchmark,
    run_launch,
    run_one,
    run_suite,
    simulate_launch,
)

__all__ = [
    "DiskCache", "FIGURES", "Figure", "Geomean", "GridReport", "Profile",
    "RemoteTaskError", "ServiceClient",
    "ServiceUnavailable", "SweepPoint", "SweepResult", "TECHNIQUES",
    "ascii_table",
    "bar", "cache_key", "clear_cache",
    "configure_cache", "default_cache_dir", "default_jobs",
    "default_socket_path", "disk_cache", "try_connect",
    "experiment_config", "fig6_affine_potential", "fig6_report",
    "fig16_report", "fig16_speedup", "fig17_instruction_counts",
    "fig17_report", "fig18_coverage", "fig18_report", "fig19_affine_loads",
    "fig19_report", "fig20_mta_coverage", "fig20_report",
    "fig21_energy", "fig21_report", "override", "profile",
    "run_benchmark", "run_grid", "run_launch",
    "run_one", "run_suite", "simulate_launch", "sweep",
    "to_csv", "to_json", "table2_classification", "table2_report",
]
