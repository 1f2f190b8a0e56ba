"""Kernel lint subsystem: simulation-validated static diagnostics.

Static passes over kernels and decoupled programs, reusing the compiler's
CFG / dataflow / affine analyses, with stable ``RPL0xx`` diagnostic codes.
Lint and the certifier share one symbolic domain: the barrier, race and
bounds passes read the closed forms of :mod:`repro.analysis.symexec`
from the same :class:`SymbolicKernel` the certifier proves against.
Every diagnostic class is validated dynamically by the campaign in
:mod:`repro.analysis.campaign`: seeded defects must both trip the lint and
exhibit the predicted simulator behavior (hang, oracle divergence, or
corruption), and a clean fuzz corpus must lint silently.

The translation-validation layer lives alongside the lint passes:
:mod:`repro.analysis.symexec` symbolically executes kernels into affine
closed forms, :mod:`repro.analysis.certify` proves decoupled streams
equivalent to their source kernel (RPL05x), and
:mod:`repro.analysis.mutate` hammers that proof with seeded compiler
defects.  :mod:`repro.analysis.sarif` exports any report as SARIF 2.1.0.

Entry points: :func:`lint_kernel`, :func:`lint_launch`,
:func:`lint_program`, :func:`certify_kernel`, :func:`certify_program`,
:func:`run_mutation_campaign`; CLI: ``python -m repro lint`` and
``python -m repro certify``.
"""

from .certify import certify_kernel, certify_program
from .diagnostics import CODES, Diagnostic, LintReport, Severity
from .linter import lint_kernel, lint_launch, lint_program
from .mutate import MUTATORS, MutationReport, run_mutation_campaign
from .sarif import to_sarif, write_sarif
from .symexec import SymbolicKernel, symexec

__all__ = [
    "CODES",
    "Diagnostic",
    "LintReport",
    "MUTATORS",
    "MutationReport",
    "Severity",
    "SymbolicKernel",
    "certify_kernel",
    "certify_program",
    "lint_kernel",
    "lint_launch",
    "lint_program",
    "run_mutation_campaign",
    "symexec",
    "to_sarif",
    "write_sarif",
]
