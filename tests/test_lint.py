"""Positive-path tests for the kernel lint subsystem.

The whole workload suite must lint without errors (the CI gate relies on
this), reports must be deterministic and JSON-serializable, and linting
must never mutate the kernel or launch it inspects.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CODES, LintReport, Severity, lint_kernel, lint_launch
from repro.analysis.diagnostics import make_diagnostic
from repro.analysis.fixtures import FIXTURE_CONFIG, clean_bundle
from repro.analysis.passes import LintContext
from repro.analysis.symexec import (
    Atom,
    Pred,
    _Evaluator,
    atom_expr,
    cmp_pred,
    from_atom,
    is_thread_varying,
    negate,
    symbol,
)
from repro.isa import CmpOp
from repro.isa.assembler import parse_kernel
from repro.sim import GlobalMemory, KernelLaunch
from repro.workloads import BY_ABBR


def test_code_registry_well_formed():
    assert len(CODES) >= 12
    for code, (severity, title) in CODES.items():
        assert code.startswith("RPL") and len(code) == 6
        assert severity in (Severity.WARNING, Severity.ERROR)
        assert title


def test_all_workloads_lint_without_errors():
    for abbr, bench in sorted(BY_ABBR.items()):
        report = lint_launch(bench.launch("tiny"))
        assert report.ok(), (
            f"{abbr} has lint errors: "
            + "; ".join(d.render() for d in report.errors))


def test_diagnostic_render_includes_location():
    bundle = clean_bundle(0)
    diag = make_diagnostic("RPL001", "synthetic", bundle.launch.kernel, 0)
    assert bundle.launch.kernel.name in diag.render()
    assert "[0]" in diag.render()


def test_report_json_round_trip():
    bundle = clean_bundle(0)
    report = lint_launch(bundle.launch, bundle.config)
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert set(back) == {"diagnostics", "errors", "warnings",
                         "skipped_passes"}


def test_strict_promotes_warnings():
    report = LintReport()
    report.add(make_diagnostic("RPL001", "w", "k", None))
    assert report.ok()
    assert not report.ok(strict=True)


def test_kernel_only_lint_skips_launch_passes():
    kernel = clean_bundle(0).launch.kernel
    report = lint_kernel(kernel)
    assert "races" in report.skipped_passes
    assert "bounds" in report.skipped_passes


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=300))
def test_lint_is_pure_and_deterministic(seed):
    bundle = clean_bundle(seed)
    kernel = bundle.launch.kernel
    insts_before = [repr(i) for i in kernel.instructions]
    mem_before = bundle.launch.memory.words.copy()

    first = lint_launch(bundle.launch, FIXTURE_CONFIG)
    second = lint_launch(bundle.launch, FIXTURE_CONFIG)

    assert [repr(i) for i in kernel.instructions] == insts_before
    assert (bundle.launch.memory.words == mem_before).all()
    assert first.render() == second.render()
    assert [d.to_dict() for d in first.diagnostics] == \
        [d.to_dict() for d in second.diagnostics]


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=300))
def test_clean_corpus_lints_silently(seed):
    bundle = clean_bundle(seed)
    report = lint_launch(bundle.launch, bundle.config)
    assert not report.diagnostics, report.render()


# ---------------------------------------------------------------------------
# The barrier / race / bounds passes read symexec closed forms.
# ---------------------------------------------------------------------------

NESTED_BARRIER = """
.kernel nested_bar (n)
    mov j, 0;
    setp.lt p1, %tid.x, 32;
    @!p1 bra DONE;
LOOP:
    bar.sync;
    add j, j, 1;
    setp.lt p0, j, param.n;
    @p0 bra LOOP;
DONE:
    exit;
"""


def test_uniform_loop_under_divergent_branch_blames_only_the_outer_branch():
    """The loop branch ``j < param.n`` is CTA-invariant among the threads
    that run the loop; only the ``tid.x < 32`` branch splits the CTA."""
    report = lint_kernel(parse_kernel(NESTED_BARRIER))
    assert [d.code for d in report.diagnostics] == ["RPL011"], \
        report.render()
    assert "branch at nested_bar[2]" in report.diagnostics[0].message


def test_unreachable_code_gets_no_finding():
    kernel = parse_kernel("""
    .kernel unreach (O)
        bra END;
        setp.lt p0, %tid.x, 32;
        @p0 bra SKIP;
        bar.sync;
    SKIP:
        st.global [param.O], %tid.x;
    END:
        exit;
    """)
    memory = GlobalMemory(1 << 12)
    launch = KernelLaunch(kernel=kernel, grid_dim=(1, 1, 1),
                          block_dim=(64, 1, 1),
                          params={"O": float(memory.alloc(64))},
                          memory=memory)
    report = lint_launch(launch)
    assert not report.codes() & {"RPL011", "RPL012", "RPL021", "RPL041",
                                 "RPL042"}, report.render()


def _small_launch(kernel, **params) -> KernelLaunch:
    memory = GlobalMemory(1 << 12)
    return KernelLaunch(kernel=kernel, grid_dim=(1, 1, 1),
                        block_dim=(64, 1, 1),
                        params={"out": float(memory.alloc(64)), **params},
                        memory=memory)


#: ``s`` joins two paths inside the loop, so it is no polynomial in the
#: iteration count and symexec walls it off as ``opaque("loop", ...)``.
#: Every thread still computes the same ``s``.
OPAQUE_SUM = """
.kernel opaque_sum (out, flag, n)
    mov s, 0;
    mov j, 0;
LOOP:
    setp.ne p1, param.flag, 0;
    @!p1 bra SKIP;
    add s, s, j;
SKIP:
    add j, j, 1;
    setp.lt p0, j, param.n;
    @p0 bra LOOP;
    st.global [param.out], s;
    exit;
"""


class TestLoopPlaceholders:
    def lint(self, src):
        return lint_launch(_small_launch(parse_kernel(src), flag=1.0,
                                         n=4.0))

    def test_uniform_loop_value_stored_by_every_thread_is_benign(self):
        report = self.lint(OPAQUE_SUM)
        assert "RPL021" not in report.codes(), report.render()

    def test_thread_varying_body_makes_the_placeholder_vary(self):
        report = self.lint(OPAQUE_SUM.replace("add s, s, j;",
                                              "add s, s, %tid.x;"))
        assert "RPL021" in report.codes(), report.render()

    def test_thread_varying_entry_value_makes_the_placeholder_vary(self):
        # The placeholder hides the entry value; the loop's entry state
        # does not.
        report = self.lint(OPAQUE_SUM.replace("mov s, 0;",
                                              "mov s, %tid.x;"))
        assert "RPL021" in report.codes(), report.render()

    def test_barrier_in_loop_exiting_on_a_uniform_placeholder(self):
        src = OPAQUE_SUM.replace("setp.lt p0, j, param.n;",
                                 "bar.sync;\n    setp.lt p0, s, param.n;")
        report = self.lint(src)
        assert not report.codes() & {"RPL011", "RPL012"}, report.render()
        varying = self.lint(src.replace("add s, s, j;",
                                        "add s, s, %tid.x;"))
        assert "RPL011" in varying.codes(), varying.render()


SHIFTED_ADDRESS = """
.kernel shifted (out)
    add r, param.out, %tid.x;
    shl r, r, {k};
    st.global [r], %tid.x;
    exit;
"""


def test_shifted_param_address_is_linear():
    """``(param + tid) << k`` is read as ``(param + tid) * 2**k``, so the
    race and bounds passes check it."""
    launch = _small_launch(parse_kernel(SHIFTED_ADDRESS.format(k=2)))
    ctx = LintContext(launch.kernel, launch)
    assert ctx.address_form(2) == (0.0, {"param:out": 4.0, "tid.x": 4.0})
    assert not lint_launch(launch).diagnostics
    # 63 << 7 lands past the 4 KiB device memory.
    wide = lint_launch(_small_launch(parse_kernel(
        SHIFTED_ADDRESS.format(k=7))))
    assert "RPL041" in wide.codes(), wide.render()


class TestThreadVariance:
    def test_opaque_loop_placeholder_varies(self):
        # The shape of symexec's widening-failure fallback: varying unless
        # its loop is known to run alike in every thread.
        placeholder = from_atom(Atom("opaque", ("loop", "LOOP", "r1")))
        assert is_thread_varying(placeholder)
        assert not is_thread_varying(placeholder, frozenset({"LOOP"}))
        assert is_thread_varying(placeholder, frozenset({"OTHER"}))

    def test_other_opaque_atoms_vary(self):
        assert is_thread_varying(
            from_atom(Atom("opaque", ("nonconvergent", "k"))),
            frozenset({"k"}))

    def test_dequeued_value_varies(self):
        assert is_thread_varying(atom_expr("deq", ("data", 3)))

    def test_cancelled_thread_index_is_uniform(self):
        # fuzz seed 74: sub v5, tid, tid
        assert not is_thread_varying(symbol("tid.x") - symbol("tid.x"))

    def test_cta_index_is_uniform(self):
        assert not is_thread_varying(symbol("ctaid.x"))

    def test_load_at_thread_invariant_address_is_uniform(self):
        addr = symbol("param:A") + symbol("ctaid.x")
        assert not is_thread_varying(atom_expr("load", ("global", addr, 4)))
        assert is_thread_varying(
            atom_expr("load", ("global", addr + symbol("tid.x"), 4)))

    def test_formal_negation_varies_with_its_operand(self):
        merge = Pred("merge", (((frozenset(), cmp_pred(
            CmpOp.LT, symbol("ctaid.x"), symbol("param:n"))),),))
        assert not is_thread_varying(negate(merge))
        assert is_thread_varying(
            negate(Pred("opaque", ("loop", "LOOP", "p0"))))


def test_lint_runs_symexec_once_per_kernel(monkeypatch):
    """The lint passes and the certifier share one symexec of the
    original kernel; the only other run is the affine stream's."""
    launch = BY_ABBR["BFS"].launch("tiny")
    seen = []
    real_run = _Evaluator.run

    def counting_run(self):
        seen.append(self.kernel)
        return real_run(self)

    monkeypatch.setattr(_Evaluator, "run", counting_run)
    report = lint_launch(launch)
    assert report.ok()
    assert sum(k is launch.kernel for k in seen) == 1
    assert len(seen) == 2
