"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the Table 2 benchmark registry;
* ``run ABBR`` — simulate one benchmark under one technique;
* ``compare ABBR`` — all four techniques side by side;
* ``trace ABBR`` — traced run: stall attribution, Chrome trace JSON,
  queue-occupancy CSV;
* ``decouple ABBR | --file F`` — show a kernel's affine / non-affine
  streams and the verifier's verdict;
* ``table1`` — the simulated machine configuration;
* ``area`` — DAC's §4.8 area overhead;
* ``figures [NAME]`` — regenerate evaluation figures (fig6, fig16, fig17,
  fig18, fig19, fig20, fig21, or ``all``);
* ``lint`` — static diagnostics (``RPL0xx``) over benchmarks or an
  assembly file; ``--campaign`` differentially validates every diagnostic
  class against the simulator; ``--sarif`` exports findings as SARIF;
* ``certify`` — translation validation of the decoupling compiler: prove
  every queue tuple equivalent to the original access (RPL05x) over
  benchmarks, fuzz kernels, or an assembly file; ``--campaign`` runs the
  seeded decoupler-mutation campaign (no silent escapes allowed);
* ``serve`` — the supervised experiment daemon for concurrent clients on
  one host: journaled jobs over a unix socket (the one durable job
  state), worker heartbeats + watchdog respawn, per-workload circuit
  breakers, graceful drain; ``compare`` and ``figures`` route their grids
  through a running daemon automatically (``--service``/``--no-service``).
"""

from __future__ import annotations

import argparse
import sys

from .compiler import decouple, verify
from .energy import area_report, energy_of
from .harness import (
    ascii_table,
    configure_cache,
    profile,
    experiment_config,
    fig6_report,
    fig16_report,
    fig16_speedup,
    fig17_instruction_counts,
    fig18_coverage,
    fig19_affine_loads,
    fig20_mta_coverage,
    fig21_energy,
    fig21_report,
    run_one,
    run_suite,
)
from .harness.parallel import run_grid
from .isa import Kernel, parse_kernel
from .trace import (
    Tracer,
    stall_report,
    write_chrome_trace,
    write_occupancy_csv,
)
from .workloads import (
    ALL_BENCHMARKS,
    COMPUTE_ORDER,
    MEMORY_ORDER,
    get,
    table2,
)


def _add_cache_args(parser) -> None:
    """Flags shared by the commands that simulate: the persistent result
    cache (see EXPERIMENTS.md)."""
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent result cache location "
                             "(default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro-dac)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")


def _add_grid_args(parser) -> None:
    """Flags of the commands that simulate a grid of cells: parallelism,
    its hardening, and routing through the experiment daemon."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan simulations out over N worker processes")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-simulation wall-clock bound in seconds "
                             "(parallel runs only); expired cells are "
                             "retried, then quarantined")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="re-submissions per cell after a timeout or "
                             "worker crash before it is quarantined "
                             "(default 1)")
    parser.add_argument("--service", default=None, metavar="SOCK",
                        help="route simulations through the experiment "
                             "daemon at SOCK (default: auto-detect "
                             "$REPRO_SERVICE_SOCKET or service.sock next "
                             "to the disk cache; falls back to the local "
                             "pool)")
    parser.add_argument("--no-service", action="store_true",
                        help="never route through a daemon, even if one "
                             "is running")


def _configure_harness(args) -> bool:
    """Apply the shared cache flags; returns whether caching is on."""
    use_cache = not args.no_cache
    configure_cache(args.cache_dir, enabled=use_cache)
    return use_cache


def _service_arg(args):
    """The ``service`` value for run_grid/run_suite from the grid flags:
    ``False`` disables routing, a path pins a daemon, ``None``
    auto-detects."""
    if args.no_service:
        return False
    return args.service


def _cmd_list(args) -> int:
    print(table2())
    print()
    rows = [[b.abbr, b.category, b.description] for b in ALL_BENCHMARKS]
    print(ascii_table(["bench", "class", "structure"], rows))
    return 0


def _cmd_run(args) -> int:
    use_cache = _configure_harness(args)
    config = experiment_config(args.sms)
    result = run_one(args.benchmark.upper(), args.technique, args.scale,
                     config, use_cache=use_cache)
    energy = energy_of(result)
    print(f"{args.benchmark} under {args.technique} "
          f"({args.scale} scale, {args.sms} SMs):")
    print(f"  cycles             {result.cycles:,}")
    print(f"  warp instructions  {result.stats['warp_instructions']:,.0f}")
    if result.stats["affine_warp_instructions"]:
        print(f"  affine warp insts  "
              f"{result.stats['affine_warp_instructions']:,.0f}")
    print(f"  IPC (thread)       {result.ipc:.2f}")
    print(f"  energy             {energy.total * 1e6:.1f} uJ "
          f"(dynamic {energy.dynamic * 1e6:.1f})")
    if args.profile:
        print()
        print(profile(result).report())
    if args.stats:
        print()
        print(result.stats.report(args.stats if args.stats != "all" else ""))
    return 0


def _cmd_compare(args) -> int:
    use_cache = _configure_harness(args)
    config = experiment_config(args.sms)
    results = run_suite([args.benchmark.upper()], args.scale, config,
                        jobs=args.jobs, use_cache=use_cache,
                        timeout=args.timeout, retries=args.retries,
                        service=_service_arg(args))[args.benchmark.upper()]
    rows = []
    base_cycles = None
    for technique in ("baseline", "cae", "mta", "dac"):
        result = results[technique]
        if base_cycles is None:
            base_cycles = result.cycles
        rows.append([technique, result.cycles,
                     base_cycles / result.cycles,
                     result.stats["warp_instructions"]
                     + result.stats["affine_warp_instructions"],
                     energy_of(result).total * 1e6])
    print(ascii_table(["technique", "cycles", "speedup", "instructions",
                       "energy (uJ)"], rows,
                      f"{args.benchmark} at {args.scale} scale"))
    return 0


def _cmd_trace(args) -> int:
    tracer = Tracer(sample_interval=args.sample,
                    trace_memory=not args.no_memory)
    config = experiment_config(args.sms)
    result = run_one(args.benchmark.upper(), args.technique, args.scale,
                     config, use_cache=False, trace=tracer)
    print(f"{args.benchmark} under {args.technique} "
          f"({args.scale} scale, {args.sms} SMs): "
          f"{result.cycles:,} cycles, {len(tracer.events):,} events")
    print()
    print(stall_report(result, tracer))
    write_chrome_trace(tracer, args.out)
    print(f"\nChrome trace written to {args.out} "
          f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.csv:
        write_occupancy_csv(tracer, args.csv)
        print(f"occupancy time series written to {args.csv}")
    return 0


def _cmd_decouple(args) -> int:
    if args.file:
        with open(args.file) as handle:
            kernel = parse_kernel(handle.read())
    else:
        kernel = get(args.benchmark).launch("tiny").kernel
    program = decouple(kernel)
    print(program.summary())
    report = verify(program)
    print(report)
    if program.is_decoupled and not args.quiet:
        print("\n--- affine stream ---")
        print(program.affine.source())
        print("--- non-affine stream ---")
        print(program.nonaffine.source())
    return 0 if report.ok else 1


def _cmd_table1(args) -> int:
    print(experiment_config(args.sms).table1())
    return 0


def _cmd_area(args) -> int:
    print(area_report().table())
    return 0


#: Simulation grid each figure needs — used to prewarm caches in parallel
#: before the (serial) figure drivers assemble their tables.
_FIGURE_NEEDS = {
    "fig6": ((), ()),                 # static analysis only
    "fig16": ("all", ("baseline", "cae", "mta", "dac")),
    "fig17": ("all", ("baseline", "dac")),
    "fig18": ("compute", ("baseline", "cae", "dac")),
    "fig19": ("memory", ("dac",)),
    "fig20": ("memory", ("mta",)),
    "fig21": ("all", ("baseline", "dac")),
}


def _prewarm_figures(names, scale, config, jobs, timeout=None, retries=1,
                     service=None) -> None:
    orders = {"all": COMPUTE_ORDER + MEMORY_ORDER,
              "compute": COMPUTE_ORDER, "memory": MEMORY_ORDER, "": []}
    tasks = []
    seen = set()
    for name in names:
        benches, techniques = _FIGURE_NEEDS.get(name, ((), ()))
        for abbr in orders.get(benches, []):
            for technique in techniques:
                if (abbr, technique) not in seen:
                    seen.add((abbr, technique))
                    tasks.append((abbr, technique, config))
    if tasks:
        from .harness.parallel import GridReport
        report = GridReport()
        run_grid(tasks, scale, jobs=jobs, timeout=timeout, retries=retries,
                 report=report, service=service,
                 progress=lambda done, total, abbr, tech, _res: print(
                     f"  [{done}/{total}] {abbr}/{tech}", file=sys.stderr))
        print(f"  prewarm: {report.summary()}", file=sys.stderr)


def _cmd_figures(args) -> int:
    _configure_harness(args)
    config = experiment_config(args.sms)
    name = args.figure

    def fig17():
        data = fig17_instruction_counts(args.scale, config)
        rows = [[a, v["nonaffine"], v["affine"], v["total"]]
                for a, v in data.items()]
        return ascii_table(["bench", "non-affine", "affine", "total"], rows,
                           "Figure 17")

    def two_col(title, data):
        return ascii_table(["bench", "value"],
                           [[a, v] for a, v in data.items()], title)

    figures = {
        "fig6": lambda: fig6_report(),
        "fig16": lambda: fig16_report(fig16_speedup(args.scale, config)),
        "fig17": fig17,
        "fig18": lambda: ascii_table(
            ["bench", "CAE", "DAC"],
            [[a, v["cae"], v["dac"]]
             for a, v in fig18_coverage(args.scale, config).items()],
            "Figure 18"),
        "fig19": lambda: two_col("Figure 19",
                                 fig19_affine_loads(args.scale, config)),
        "fig20": lambda: two_col("Figure 20",
                                 fig20_mta_coverage(args.scale, config)),
        "fig21": lambda: fig21_report(fig21_energy(args.scale, config)),
    }
    names = list(figures) if name == "all" else [name]
    for key in names:
        if key not in figures:
            print(f"unknown figure {key!r}; choose from "
                  f"{', '.join(figures)} or 'all'", file=sys.stderr)
            return 2
    if args.jobs > 1:
        _prewarm_figures(names, args.scale, config, args.jobs,
                         timeout=args.timeout, retries=args.retries,
                         service=_service_arg(args))
    for key in names:
        print(figures[key]())
        print()
    return 0


def _parse_seeds(spec: str):
    """``"0:20"`` → range(0, 20); ``"3,7,11"`` → [3, 7, 11]; ``"5"`` → [5]."""
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return range(int(lo or 0), int(hi))
    return [int(s) for s in spec.split(",") if s]


def _cmd_serve(args) -> int:
    from .harness.client import default_socket_path
    from .harness.parallel import default_jobs
    from .service.daemon import run_daemon
    socket_path = args.socket or default_socket_path(args.cache_dir)
    return run_daemon(
        socket_path,
        state_dir=args.state,
        cache_dir=args.cache_dir,
        workers=args.workers or default_jobs(),
        job_timeout=args.timeout,
        max_strikes=args.strikes,
    )


def _cmd_lint(args) -> int:
    import json as json_mod

    from .analysis import lint_kernel, lint_launch
    from .workloads import BY_ABBR, get

    if args.campaign:
        from .analysis.campaign import run_campaign as run_lint_campaign
        report = run_lint_campaign(
            seeds=_parse_seeds(args.seeds),
            clean_seeds=_parse_seeds(args.clean_seeds))
        if args.json:
            print(json_mod.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        return 0 if report.ok else 1

    targets: list[tuple[str, object]] = []
    if args.file:
        with open(args.file) as handle:
            kernel = parse_kernel(handle.read())
        targets.append((kernel.name, kernel))
    else:
        names = [a.upper() for a in args.benchmarks] or sorted(BY_ABBR)
        unknown = [n for n in names if n not in BY_ABBR]
        if unknown:
            print(f"unknown benchmark(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        for name in names:
            targets.append((name, get(name).launch(args.scale)))

    failed = False
    results = {}
    for name, target in targets:
        if isinstance(target, Kernel):
            report = lint_kernel(target)
        else:
            report = lint_launch(target)
        results[name] = report
        if not report.ok(strict=args.strict):
            failed = True
        if not args.json:
            status = "clean" if not report.diagnostics else \
                f"{len(report.errors)} error(s), " \
                f"{len(report.warnings)} warning(s)"
            print(f"== {name}: {status}")
            for diag in report.diagnostics:
                print(f"  {diag.render()}")
    if args.sarif:
        from .analysis import LintReport, write_sarif
        merged = LintReport()
        for rep in results.values():
            merged.merge(rep)
        write_sarif(merged.finalize(), args.sarif)
        if not args.json:
            print(f"sarif report written to {args.sarif}")
    if args.json:
        print(json_mod.dumps(
            {name: rep.to_dict() for name, rep in results.items()},
            indent=2))
    elif not failed:
        print(f"lint: {len(targets)} target(s) clean"
              + (" (strict)" if args.strict else ""))
    return 1 if failed else 0


def _cmd_certify(args) -> int:
    import json as json_mod

    from .analysis import certify_program
    from .compiler.decouple import decouple
    from .workloads import BY_ABBR, get

    if args.campaign:
        from .analysis.mutate import MUTATORS, run_mutation_campaign
        classes = None
        if args.classes:
            classes = [c.strip() for c in args.classes.split(",") if c]
            unknown = [c for c in classes if c not in MUTATORS]
            if unknown:
                print(f"unknown mutation class(es) {', '.join(unknown)}; "
                      f"choose from {', '.join(MUTATORS)}", file=sys.stderr)
                return 2
        report = run_mutation_campaign(classes=classes, seed=args.seed)
        if args.json:
            print(json_mod.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        return 0 if report.ok else 1

    targets: list[tuple[str, Kernel]] = []
    if args.file:
        with open(args.file) as handle:
            targets.append(("file", parse_kernel(handle.read())))
    else:
        names = [a.upper() for a in args.benchmarks]
        if not names and not args.fuzz:
            names = sorted(BY_ABBR)
        unknown = [n for n in names if n not in BY_ABBR]
        if unknown:
            print(f"unknown benchmark(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        for name in names:
            targets.append((name, get(name).launch(args.scale).kernel))
    if args.fuzz:
        from .workloads.fuzz import build_fuzz_launch
        for seed in _parse_seeds(args.fuzz):
            targets.append((f"fuzz-{seed}", build_fuzz_launch(seed).kernel))

    failed = False
    results = {}
    for name, kernel in targets:
        program = decouple(kernel)
        report = certify_program(program)
        results[name] = report
        if not report.ok(strict=args.strict):
            failed = True
        if not args.json:
            if not program.is_decoupled:
                status = "not decoupled (nothing to certify)"
            elif not report.diagnostics:
                status = (f"certified: {program.num_queues} queue(s) "
                          "proven equivalent")
            else:
                status = (f"{len(report.errors)} error(s), "
                          f"{len(report.warnings)} warning(s)")
            print(f"== {name}: {status}")
            for diag in report.diagnostics:
                print(f"  {diag.render()}")
    if args.sarif:
        from .analysis import LintReport, write_sarif
        merged = LintReport()
        for rep in results.values():
            merged.merge(rep)
        write_sarif(merged.finalize(), args.sarif,
                    tool_name="repro-certify")
        if not args.json:
            print(f"sarif report written to {args.sarif}")
    if args.json:
        print(json_mod.dumps(
            {name: rep.to_dict() for name, rep in results.items()},
            indent=2))
    elif not failed:
        print(f"certify: {len(targets)} target(s) clean"
              + (" (strict)" if args.strict else ""))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Decoupled Affine Computation (ISCA 2017) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 29 benchmarks") \
        .set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="simulate one benchmark")
    run.add_argument("benchmark")
    run.add_argument("--technique", default="dac",
                     choices=("baseline", "cae", "mta", "dac"))
    run.add_argument("--scale", default="tiny", choices=("tiny", "paper"))
    run.add_argument("--sms", type=int, default=4)
    run.add_argument("--stats", nargs="?", const="all",
                     help="dump raw counters (optionally a prefix)")
    run.add_argument("--profile", action="store_true",
                     help="print derived metrics (hit rates, utilization)")
    _add_cache_args(run)
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare",
                             help="baseline vs CAE vs MTA vs DAC")
    compare.add_argument("benchmark")
    compare.add_argument("--scale", default="tiny",
                         choices=("tiny", "paper"))
    compare.add_argument("--sms", type=int, default=4)
    _add_cache_args(compare)
    _add_grid_args(compare)
    compare.set_defaults(func=_cmd_compare)

    trace = sub.add_parser(
        "trace", help="traced run: stall attribution + Chrome trace")
    trace.add_argument("benchmark")
    trace.add_argument("--technique", default="dac",
                       choices=("baseline", "cae", "mta", "dac"))
    trace.add_argument("--scale", default="tiny", choices=("tiny", "paper"))
    trace.add_argument("--sms", type=int, default=4)
    trace.add_argument("--out", default="trace.json", metavar="FILE",
                       help="Chrome trace JSON destination "
                            "(default: trace.json)")
    trace.add_argument("--csv", default=None, metavar="FILE",
                       help="also write the queue-occupancy time series")
    trace.add_argument("--sample", type=int, default=64, metavar="N",
                       help="occupancy sampling interval in cycles")
    trace.add_argument("--no-memory", action="store_true",
                       help="skip per-access cache events (smaller trace)")
    trace.set_defaults(func=_cmd_trace)

    dec = sub.add_parser("decouple", help="show a kernel's streams")
    dec.add_argument("benchmark", nargs="?")
    dec.add_argument("--file", help="assembly file instead of a benchmark")
    dec.add_argument("--quiet", action="store_true",
                     help="summary and verification only")
    dec.set_defaults(func=_cmd_decouple)

    t1 = sub.add_parser("table1", help="print the machine configuration")
    t1.add_argument("--sms", type=int, default=4)
    t1.set_defaults(func=_cmd_table1)

    sub.add_parser("area", help="DAC area overhead (§4.8)") \
        .set_defaults(func=_cmd_area)

    figs = sub.add_parser("figures", help="regenerate evaluation figures")
    figs.add_argument("figure", nargs="?", default="all")
    figs.add_argument("--scale", default="tiny", choices=("tiny", "paper"))
    figs.add_argument("--sms", type=int, default=4)
    _add_cache_args(figs)
    _add_grid_args(figs)
    figs.set_defaults(func=_cmd_figures)

    serve = sub.add_parser(
        "serve", help="run the supervised experiment daemon "
                      "(unix socket, journaled jobs, worker heartbeats)")
    serve.add_argument("--socket", default=None, metavar="SOCK",
                       help="unix socket to listen on (default: "
                            "$REPRO_SERVICE_SOCKET or service.sock next "
                            "to the disk cache)")
    serve.add_argument("--state", default=None, metavar="DIR",
                       help="journal directory (default: "
                            "$REPRO_SERVICE_STATE or a service/ dir next "
                            "to the disk cache); a restarted daemon "
                            "replays it")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="supervised worker processes "
                            "(default: $REPRO_JOBS or cpu count)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared content-hash result cache, the "
                            "daemon's only result store (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-dac)")
    serve.add_argument("--timeout", type=float, default=120.0,
                       metavar="S",
                       help="per-cell wall-clock bound; a worker past it "
                            "is killed, respawned, and the cell struck; "
                            "shutdown drains in-flight cells for at most "
                            "this plus 5 s (default 120)")
    serve.add_argument("--strikes", type=int, default=2, metavar="N",
                       help="circuit breaker: strikes before a cell is "
                            "quarantined (default 2)")
    serve.set_defaults(func=_cmd_serve)

    lint = sub.add_parser(
        "lint", help="static diagnostics for kernels (RPL0xx codes)")
    lint.add_argument("benchmarks", nargs="*", metavar="ABBR",
                      help="benchmarks to lint (default: all 29)")
    lint.add_argument("--file", default=None,
                      help="lint an assembly file instead of a benchmark "
                           "(kernel-only passes; no launch geometry)")
    lint.add_argument("--scale", default="tiny", choices=("tiny", "paper"))
    lint.add_argument("--strict", action="store_true",
                      help="warnings also fail the run")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable output")
    lint.add_argument("--campaign", action="store_true",
                      help="differential validation: seeded defects must "
                           "trip their code AND misbehave as predicted")
    lint.add_argument("--seeds", default="0:2", metavar="LO:HI|A,B,C",
                      help="defect seeds for --campaign (default 0:2)")
    lint.add_argument("--sarif", default=None, metavar="PATH",
                      help="write findings as a SARIF 2.1.0 report")
    lint.add_argument("--clean-seeds", default="0:10",
                      metavar="LO:HI|A,B,C",
                      help="clean-corpus seeds for --campaign "
                           "(default 0:10)")
    lint.set_defaults(func=_cmd_lint)

    cert = sub.add_parser(
        "certify",
        help="prove decoupled streams equivalent to their kernel (RPL05x)")
    cert.add_argument("benchmarks", nargs="*", metavar="ABBR",
                      help="benchmarks to certify (default: all 29)")
    cert.add_argument("--file", default=None,
                      help="certify an assembly file instead of a "
                           "benchmark")
    cert.add_argument("--scale", default="tiny", choices=("tiny", "paper"))
    cert.add_argument("--fuzz", default=None, metavar="LO:HI|A,B,C",
                      help="also certify fuzz-generated kernels by seed")
    cert.add_argument("--strict", action="store_true",
                      help="missed-optimization warnings (RPL051) also "
                           "fail")
    cert.add_argument("--json", action="store_true",
                      help="emit machine-readable reports")
    cert.add_argument("--sarif", default=None, metavar="PATH",
                      help="write findings as a SARIF 2.1.0 report")
    cert.add_argument("--campaign", action="store_true",
                      help="run the seeded decoupler-mutation campaign "
                           "instead of certifying the corpus")
    cert.add_argument("--classes", default=None, metavar="A,B,C",
                      help="mutation classes for --campaign (default all)")
    cert.add_argument("--seed", type=int, default=0,
                      help="campaign site-selection seed (default 0)")
    cert.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "decouple" and not args.benchmark and not args.file:
        parser.error("decouple needs a benchmark name or --file")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
