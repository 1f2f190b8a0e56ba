"""Process-level chaos hooks for the supervised experiment service.

This module injects *infrastructure* faults — a worker process that
dies, wedges, or slows down mid-cell — which is what the
service supervisor (heartbeats, watchdog, circuit breakers, journal
replay) exists to survive.  Hooks are driven entirely by environment
variables so they cross every process boundary (spawned workers,
daemon subprocesses, restarts) without monkeypatching:

``REPRO_CHAOS``
    Semicolon-separated directives ``KIND:ABBR/TECH[:ARG][@LIMIT]``.
    ``ABBR`` and ``TECH`` may be ``*``.  Kinds:

    * ``die`` — ``os._exit(86)`` at the start of a matching simulation
      (indistinguishable from a SIGKILL'd worker mid-cell);
    * ``hang`` — sleep ``ARG`` seconds (default 3600) before simulating,
      i.e. a wedged worker the watchdog must kill;
    * ``delay`` — sleep ``ARG`` seconds (default 0.25) then simulate
      normally, to widen race windows in chaos tests.

    ``@LIMIT`` bounds total firings *across all processes*: each firing
    atomically claims a token file under ``REPRO_CHAOS_DIR`` via
    ``O_CREAT | O_EXCL``, so ``die:CP/dac@1`` kills exactly one worker
    no matter how many are racing, and the retry then succeeds.

``REPRO_CHAOS_DIR``
    Token directory for ``@LIMIT`` accounting (required when any
    directive carries a limit).

``REPRO_CHAOS_LOG``
    Append ``abbr/technique\\n`` per *actual* simulation (a single
    ``O_APPEND`` write, atomic at this size on POSIX).  Cache hits
    never log — which is exactly how the chaos campaign
    proves that replayed cells were not re-simulated.

Everything is a no-op when the variables are unset: the directives are
parsed once per process and the fast path is one ``if`` on an empty
tuple.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

#: Exit code of a chaos-killed worker (distinctive in supervisor logs).
CHAOS_EXIT = 86

ENV_SPEC = "REPRO_CHAOS"
ENV_DIR = "REPRO_CHAOS_DIR"
ENV_LOG = "REPRO_CHAOS_LOG"

_DEFAULT_ARG = {"die": 0.0, "hang": 3600.0, "delay": 0.25}


@dataclass(frozen=True)
class ChaosDirective:
    kind: str                 # die | hang | delay
    abbr: str                 # benchmark abbr or "*"
    technique: str            # technique or "*"
    arg: float                # seconds (hang/delay)
    limit: int | None         # max global firings (None = unlimited)
    index: int                # position in the spec (token namespace)

    def matches(self, abbr: str, technique: str) -> bool:
        return (self.abbr in ("*", abbr)
                and self.technique in ("*", technique))


class ChaosSpecError(ValueError):
    pass


def parse_spec(spec: str) -> tuple[ChaosDirective, ...]:
    """``"die:CP/dac@1;delay:*/*:0.1"`` → directives.  Raises
    :class:`ChaosSpecError` on malformed input — a chaos campaign that
    silently injects nothing would vacuously pass."""
    directives = []
    for index, part in enumerate(p for p in spec.split(";") if p.strip()):
        part = part.strip()
        limit = None
        if "@" in part:
            part, _, limit_s = part.rpartition("@")
            try:
                limit = int(limit_s)
            except ValueError:
                raise ChaosSpecError(f"bad @LIMIT in {part!r}@{limit_s!r}")
        fields = part.split(":")
        if len(fields) not in (2, 3) or "/" not in fields[1]:
            raise ChaosSpecError(
                f"expected KIND:ABBR/TECH[:ARG][@LIMIT], got {part!r}")
        kind, target = fields[0], fields[1]
        if kind not in _DEFAULT_ARG:
            raise ChaosSpecError(f"unknown chaos kind {kind!r}")
        abbr, _, technique = target.partition("/")
        arg = _DEFAULT_ARG[kind]
        if len(fields) == 3:
            try:
                arg = float(fields[2])
            except ValueError:
                raise ChaosSpecError(f"bad ARG in {part!r}")
        directives.append(ChaosDirective(kind, abbr, technique, arg,
                                         limit, index))
    return tuple(directives)


def _claim_token(directive: ChaosDirective, token_dir: str) -> bool:
    """Atomically claim one of the directive's ``limit`` firing slots;
    False once they are exhausted (across every process sharing the
    directory)."""
    assert directive.limit is not None
    os.makedirs(token_dir, exist_ok=True)
    stem = f"chaos-{directive.index}-{directive.kind}"
    for slot in range(directive.limit):
        path = os.path.join(token_dir, f"{stem}-{slot}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        return True
    return False


def maybe_fire(abbr: str, technique: str,
               directives: tuple[ChaosDirective, ...] | None = None,
               token_dir: str | None = None) -> None:
    """Fire the first matching directive (if any) for this cell."""
    if directives is None:
        directives = _ENV_DIRECTIVES
    if not directives:
        return
    if token_dir is None:
        token_dir = os.environ.get(ENV_DIR)
    for directive in directives:
        if not directive.matches(abbr, technique):
            continue
        if directive.limit is not None:
            if token_dir is None:
                raise ChaosSpecError(
                    f"@LIMIT directive needs {ENV_DIR} set")
            if not _claim_token(directive, token_dir):
                continue
        if directive.kind == "die":
            os._exit(CHAOS_EXIT)
        elif directive.kind == "hang":
            time.sleep(directive.arg)
        elif directive.kind == "delay":
            time.sleep(directive.arg)
        return


def log_simulation(abbr: str, technique: str,
                   path: str | None = None) -> None:
    """Record one actual simulation in the chaos log (atomic append)."""
    if path is None:
        path = os.environ.get(ENV_LOG)
    if not path:
        return
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, f"{abbr}/{technique}\n".encode())
    finally:
        os.close(fd)


def read_log(path: str | os.PathLike) -> list[tuple[str, str]]:
    """The ``(abbr, technique)`` simulation events recorded at ``path``."""
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except FileNotFoundError:
        return []
    return [tuple(line.split("/", 1)) for line in lines if "/" in line]


_ENV_DIRECTIVES: tuple[ChaosDirective, ...] = ()
_installed = False


def install_from_env() -> bool:
    """Wrap :func:`repro.harness.runner.simulate_launch` with the chaos
    gate and simulation log.  Called by every worker entry point; a
    no-op (and cheap) when ``REPRO_CHAOS``/``REPRO_CHAOS_LOG`` are unset.

    The wrapper sits *below* the caches on purpose: a cell answered from
    the disk cache never fires chaos and never logs,
    so the log is a census of genuine re-simulations.
    """
    global _ENV_DIRECTIVES, _installed
    spec = os.environ.get(ENV_SPEC, "")
    log = os.environ.get(ENV_LOG)
    if not spec and not log:
        return False
    _ENV_DIRECTIVES = parse_spec(spec) if spec else ()
    if _installed:
        return True

    from ..harness import runner
    inner = runner.simulate_launch

    def chaotic_simulate_launch(launch, technique, config, tracer=None):
        # Benchmark kernels are named after their abbr (cp -> CP); fuzz
        # and ad-hoc kernels match only "*" directives.
        abbr = launch.kernel.name.upper()
        maybe_fire(abbr, technique)
        log_simulation(abbr, technique)
        return inner(launch, technique, config, tracer=tracer)

    runner.simulate_launch = chaotic_simulate_launch
    _installed = True
    return True
