"""Experiment harness: runners, caching, parallel fan-out, per-figure
drivers, reporting."""

from .experiments import (
    fig6_affine_potential,
    fig6_report,
    fig16_report,
    fig16_speedup,
    fig17_instruction_counts,
    fig18_coverage,
    fig19_affine_loads,
    fig20_mta_coverage,
    fig21_energy,
    fig21_report,
    table2_classification,
)
from .diskcache import (
    DiskCache,
    cache_key,
    default_cache_dir,
    result_from_json,
    result_from_json_dict,
    result_to_json,
    result_to_json_dict,
)
from .backoff import backoff_delay, backoff_schedule
from .client import (
    RemoteTaskError,
    ServiceBusy,
    ServiceClient,
    ServiceUnavailable,
    default_socket_path,
    try_connect,
)
from .parallel import GridReport, default_jobs, run_grid
from .perfstats import (
    Summary,
    TTestResult,
    summarize,
    t_critical,
    verdict,
    welch_t_test,
)
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
    "DiskCache", "Geomean", "GridReport", "Profile",
    "RemoteTaskError", "ServiceBusy", "ServiceClient",
    "ServiceUnavailable", "Summary", "SweepPoint", "SweepResult",
    "TTestResult",
    "TECHNIQUES", "ascii_table", "backoff_delay", "backoff_schedule",
    "bar", "cache_key", "clear_cache",
    "configure_cache", "default_cache_dir", "default_jobs",
    "default_socket_path", "disk_cache", "try_connect",
    "experiment_config", "fig6_affine_potential", "fig6_report",
    "fig16_report", "fig16_speedup", "fig17_instruction_counts",
    "fig18_coverage", "fig19_affine_loads", "fig20_mta_coverage",
    "fig21_energy", "fig21_report", "override", "profile",
    "result_from_json", "result_from_json_dict", "result_to_json",
    "result_to_json_dict", "run_benchmark", "run_grid", "run_launch",
    "run_one", "run_suite", "simulate_launch", "summarize", "sweep",
    "t_critical", "to_csv", "to_json", "table2_classification",
    "verdict", "welch_t_test",
]
