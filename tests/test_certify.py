"""Tests for the translation-validation certifier
(:mod:`repro.analysis.certify`) and the enriched verifier/summary
formatting that rides along with it."""

import random

import pytest

from repro.analysis.certify import certify_kernel, certify_program
from repro.analysis.mutate import (
    MUTATORS,
    _synthetic_launch,
)
from repro.analysis.symexec import symexec
from repro.compiler.decouple import decouple
from repro.compiler.verifier import verify
from repro.isa import parse_kernel
from repro.workloads import BY_ABBR, get
from repro.workloads.fuzz import build_fuzz_launch


def _mutant(klass, program=None, seed=0):
    if program is None:
        program = decouple(_synthetic_launch().kernel)
    m = MUTATORS[klass](program, random.Random(seed))
    assert m is not None, f"{klass} found no site"
    return m


# ---------------------------------------------------------------------------
# The acceptance gate: the whole corpus certifies clean.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("abbr", sorted(BY_ABBR))
def test_every_benchmark_certifies(abbr):
    report, program = certify_kernel(get(abbr).launch("tiny").kernel)
    assert not report.diagnostics, f"{abbr}:\n{report.render()}"


@pytest.mark.parametrize("seed", range(0, 20))
def test_fuzz_corpus_certifies(seed):
    report, _ = certify_kernel(build_fuzz_launch(seed).kernel)
    assert not report.diagnostics, f"seed {seed}:\n{report.render()}"


def test_not_decoupled_kernel_is_trivially_clean():
    kernel = parse_kernel("""
        add r0, %tid.x, 1;
        add r1, r0, r0;
    """, name="nomem", params=())
    report, program = certify_kernel(kernel)
    assert not program.is_decoupled
    assert not report.diagnostics


# ---------------------------------------------------------------------------
# One negative case per RPL05x code.
# ---------------------------------------------------------------------------

def test_structural_break_reports_rpl050():
    m = _mutant("barrier_drop")
    report = certify_program(m.program)
    assert "RPL050" in report.codes()


def test_missed_candidate_reports_rpl051():
    program = decouple(get("SP").launch("tiny").kernel)
    m = _mutant("slice_widen", program=program)
    report = certify_program(m.program)
    assert "RPL051" in report.codes()


def test_shared_forms_must_come_from_the_original_kernel():
    program = decouple(get("SP").launch("tiny").kernel)
    other = symexec(get("BFS").launch("tiny").kernel)
    with pytest.raises(ValueError):
        certify_program(program, other)
    shared = symexec(program.original)
    assert certify_program(program, shared).render() == \
        certify_program(program).render()


def test_perturbed_coefficient_reports_rpl052():
    m = _mutant("coeff_perturb")
    report = certify_program(m.program)
    assert "RPL052" in report.codes()
    assert all(d.severity.value == "error" for d in report.diagnostics)


def test_stale_loop_counter_reports_rpl053():
    m = _mutant("stale_loop")
    assert certify_program(m.program).codes() == {"RPL053"}


def test_mod_divisor_reports_rpl054():
    m = _mutant("mod_divisor")
    assert certify_program(m.program).codes() == {"RPL054"}


def test_diagnostics_point_at_original_instruction():
    m = _mutant("coeff_perturb")
    report = certify_program(m.program)
    diag = report.errors[0]
    assert diag.kernel == m.program.original.name
    assert diag.inst_index is not None
    assert 0 <= diag.inst_index < len(m.program.original)


# ---------------------------------------------------------------------------
# verify() is semantic by default.
# ---------------------------------------------------------------------------

def test_verify_folds_certifier_errors_in():
    program = decouple(_synthetic_launch().kernel)
    assert verify(program).ok
    m = _mutant("coeff_perturb", program=program)
    report = verify(m.program)
    assert not report.ok
    assert any("RPL052" in err for err in report.errors)
    # The structural half alone is blind to this defect.
    assert verify(m.program, semantic=False).ok


def _paper_kernel():
    return parse_kernel("""
        mul r0, %ctaid.x, %ntid.x;
        add tid, %tid.x, r0;
        mul r1, tid, 4;
        add addrA, param.A, r1;
        ld.global x, [addrA];
        add r2, x, 1;
        st.global [addrA], r2;
    """, name="paperline", params=("A",))


def _enqueue_deleted_program():
    program = decouple(_paper_kernel())
    assert program.is_decoupled
    # Drop a guard... this kernel has none; drop the deq's enq instead.
    affine = program.affine
    enq_i = next(i for i, inst in enumerate(affine.instructions)
                 if inst.is_enq)
    from repro.analysis.mutate import _delete
    import dataclasses
    return dataclasses.replace(program, affine=_delete(affine, enq_i))


def test_verifier_errors_carry_source_lines():
    report = verify(_enqueue_deleted_program(), semantic=False)
    assert not report.ok
    assert any("(line " in err and "deq" in err for err in report.errors), \
        report.errors


def test_run_dac_refuses_a_structurally_broken_decoupling(monkeypatch):
    """``run_dac`` verifies only structurally, but that check still gates
    every program it decouples itself."""
    import repro.core
    from repro.harness.runner import experiment_config
    broken = _enqueue_deleted_program()
    monkeypatch.setattr(repro.core, "decouple", lambda kernel: broken)
    with pytest.raises(RuntimeError, match="inconsistent streams"):
        repro.core.run_dac(get("ST").launch("tiny"), experiment_config())


def test_summary_lists_queues_with_source_lines():
    program = decouple(_paper_kernel())
    summary = program.summary()
    assert "decoupled" in summary
    lines = summary.splitlines()
    assert len(lines) == 1 + len(program.queue_origin)
    for qid in program.queue_origin:
        assert any(line.lstrip().startswith(f"q{qid}:") for line in lines)
    assert all("line" in line for line in lines[1:])


def test_summary_without_source_lines_falls_back_to_index():
    from repro.isa import Kernel
    kernel = _paper_kernel()
    stripped = Kernel(kernel.name, kernel.params,
                      [i.clone(source_line=None)
                       for i in kernel.instructions], dict(kernel.labels))
    program = decouple(stripped)
    lines = program.summary().splitlines()
    assert len(lines) > 1
    assert all("at index" in line for line in lines[1:])
