"""Diagnostic framework for the kernel lint subsystem.

Every finding is a :class:`Diagnostic` with a stable code (``RPL0xx``), a
severity, and a source location (kernel name, instruction index, and the
1-based source line threaded through the assembler/builder).  Codes are
grouped by decade:

======  ========  ===================================================
code    severity  meaning
======  ========  ===================================================
RPL001  warning   dead code / unused definition
RPL002  error     read of a register with no reaching definition
RPL003  warning   register may be read before it is assigned
RPL011  error     barrier under thread-divergent (affine) control
RPL012  warning   barrier under data-dependent control
RPL021  error     unguarded warp-uniform store of a varying value
RPL022  warning   cross-thread load/store overlap with no barrier
RPL031  error     dequeue with no matching enqueue (starvation hang)
RPL032  error     enqueue with no matching dequeue (queue leak)
RPL033  error     queue class used but configured with zero capacity
RPL034  warning   static queue pressure exceeds configured capacity
RPL041  error     access provably outside device memory
RPL042  warning   access beyond the parameter's allocation extent
RPL050  error     decoupled program fails structural verification
RPL051  warning   provably affine access the decoupler missed
RPL052  error     decoupled access not provably equivalent (soundness)
RPL053  error     loop-carried closed forms disagree across streams
RPL054  error     mod-type (rem) classification disagrees across streams
======  ========  ===================================================

The RPL05x family is emitted by the translation-validation certifier
(:mod:`repro.analysis.certify`), which symbolically executes the affine
stream against the original kernel and proves every ENQ tuple equivalent
to the original address/predicate closed form.

Severity semantics follow the CLI contract: errors make ``repro lint``
exit 1; ``--strict`` promotes warnings to the same fate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..isa import Kernel


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


#: Stable registry: code -> (default severity, short title).
CODES: dict[str, tuple[Severity, str]] = {
    "RPL001": (Severity.WARNING, "dead code / unused definition"),
    "RPL002": (Severity.ERROR, "read of register with no reaching definition"),
    "RPL003": (Severity.WARNING, "register may be read before assignment"),
    "RPL011": (Severity.ERROR, "barrier under thread-divergent control"),
    "RPL012": (Severity.WARNING, "barrier under data-dependent control"),
    "RPL021": (Severity.ERROR, "unguarded warp-uniform store of varying value"),
    "RPL022": (Severity.WARNING, "cross-thread memory overlap without barrier"),
    "RPL031": (Severity.ERROR, "dequeue with no matching enqueue"),
    "RPL032": (Severity.ERROR, "enqueue with no matching dequeue"),
    "RPL033": (Severity.ERROR, "queue class used with zero capacity"),
    "RPL034": (Severity.WARNING, "static queue pressure exceeds capacity"),
    "RPL041": (Severity.ERROR, "access outside device memory"),
    "RPL042": (Severity.WARNING, "access beyond allocation extent"),
    "RPL050": (Severity.ERROR, "structural verification failure"),
    "RPL051": (Severity.WARNING, "provably affine access not decoupled"),
    "RPL052": (Severity.ERROR, "decoupled access not provably equivalent"),
    "RPL053": (Severity.ERROR, "loop-carried closed forms disagree"),
    "RPL054": (Severity.ERROR, "mod-type classification disagrees"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, pointing at one instruction (or a whole kernel)."""

    code: str
    severity: Severity
    message: str
    kernel: str
    inst_index: int | None = None
    source_line: int | None = None

    @property
    def location(self) -> str:
        if self.inst_index is None:
            return self.kernel
        loc = f"{self.kernel}[{self.inst_index}]"
        if self.source_line is not None:
            loc += f" (line {self.source_line})"
        return loc

    def render(self) -> str:
        return (f"{self.location}: {self.code} "
                f"{self.severity.value}: {self.message}")

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "kernel": self.kernel,
            "inst_index": self.inst_index,
            "source_line": self.source_line,
        }

    def sort_key(self):
        return (self.kernel, self.inst_index if self.inst_index is not None
                else -1, self.code, self.message)


def make_diagnostic(code: str, message: str, kernel: Kernel | str,
                    inst_index: int | None = None) -> Diagnostic:
    """Build a diagnostic, pulling severity from the registry and the source
    line from the instruction (when an index is given)."""
    severity, _title = CODES[code]
    if isinstance(kernel, Kernel):
        line = None
        if inst_index is not None:
            line = kernel.instructions[inst_index].source_line
        return Diagnostic(code=code, severity=severity, message=message,
                          kernel=kernel.name, inst_index=inst_index,
                          source_line=line)
    return Diagnostic(code=code, severity=severity, message=message,
                      kernel=kernel, inst_index=inst_index)


@dataclass
class LintReport:
    """Aggregated findings for one kernel / launch / program."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    skipped_passes: list[str] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags) -> None:
        self.diagnostics.extend(diags)

    def merge(self, other: "LintReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.skipped_passes.extend(other.skipped_passes)

    def finalize(self) -> "LintReport":
        """Deterministic order: by kernel, instruction, code."""
        self.diagnostics.sort(key=Diagnostic.sort_key)
        return self

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    def ok(self, strict: bool = False) -> bool:
        if strict:
            return not self.diagnostics
        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def render(self) -> str:
        if not self.diagnostics:
            return "lint: clean"
        lines = [d.render() for d in self.diagnostics]
        lines.append(f"lint: {len(self.errors)} error(s), "
                     f"{len(self.warnings)} warning(s)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "skipped_passes": list(self.skipped_passes),
        }
