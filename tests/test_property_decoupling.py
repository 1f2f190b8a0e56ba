"""Property-based end-to-end test: for randomly generated kernels built
from affine-eligible operations, the decoupled (DAC) execution must produce
a memory image bit-identical to the baseline's.

This exercises the whole stack at once — classification, stream splitting,
tuple algebra, expansion, queue ordering — against the functional executor
as an oracle.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler.decouple import decouple
from repro.compiler.verifier import verify
from repro.core import run_dac
from repro.isa import parse_kernel
from repro.sim import GPUConfig, GlobalMemory, KernelLaunch, simulate

CFG = GPUConfig(num_sms=1)

#: Operations the generator may apply to index registers.  (op, needs_imm)
_OPS = ["add_rr", "add_ri", "sub_ri", "mul_ri", "shl_ri", "min_ri",
        "max_ri", "rem_ri"]

ARRAY_WORDS = 256                      # data array size (power of two)
MOD_BYTES = ARRAY_WORDS * 4


@st.composite
def kernels(draw):
    """A random kernel: affine index arithmetic, bounded loads, a store."""
    lines = [
        "mul r0, %ctaid.x, %ntid.x;",
        "add tid, %tid.x, r0;",
        "mov a0, tid;",
        "mov a1, 3;",
    ]
    regs = ["a0", "a1"]
    n_ops = draw(st.integers(min_value=1, max_value=8))
    for i in range(n_ops):
        op = draw(st.sampled_from(_OPS))
        dst = f"a{len(regs)}"
        src = draw(st.sampled_from(regs))
        if op == "add_rr":
            src2 = draw(st.sampled_from(regs))
            lines.append(f"add {dst}, {src}, {src2};")
        elif op == "add_ri":
            lines.append(f"add {dst}, {src}, "
                         f"{draw(st.integers(0, 64))};")
        elif op == "sub_ri":
            lines.append(f"sub {dst}, {src}, "
                         f"{draw(st.integers(0, 64))};")
        elif op == "mul_ri":
            lines.append(f"mul {dst}, {src}, {draw(st.integers(0, 8))};")
        elif op == "shl_ri":
            lines.append(f"shl {dst}, {src}, {draw(st.integers(0, 3))};")
        elif op == "min_ri":
            lines.append(f"min {dst}, {src}, {draw(st.integers(0, 128))};")
        elif op == "max_ri":
            lines.append(f"max {dst}, {src}, {draw(st.integers(0, 128))};")
        elif op == "rem_ri":
            divisor = draw(st.sampled_from([16, 64, 256]))
            lines.append(f"rem {dst}, {src}, {divisor};")
        regs.append(dst)

    # Optionally a divergent guarded override of one index register
    # (exercises §4.6 divergent tuples).
    if draw(st.booleans()):
        victim = draw(st.sampled_from(regs))
        bound = draw(st.integers(1, 63))
        lines.append(f"setp.lt p1, tid, {bound};")
        lines.append(f"@p1 mov {victim}, {draw(st.integers(0, 32))};")

    # 1-3 loads at wrapped (in-bounds, word-aligned) addresses.
    n_loads = draw(st.integers(min_value=1, max_value=3))
    acc_terms = []
    for i in range(n_loads):
        idx = draw(st.sampled_from(regs))
        lines.append(f"mul b{i}, {idx}, 4;")
        lines.append(f"rem c{i}, b{i}, {MOD_BYTES};")
        lines.append(f"add d{i}, param.data, c{i};")
        lines.append(f"ld.global v{i}, [d{i}];")
        acc_terms.append(f"v{i}")
    lines.append(f"mov acc, {acc_terms[0]};")
    for term in acc_terms[1:]:
        lines.append(f"add acc, acc, {term};")

    lines.append("mul ob, tid, 4;")
    lines.append("add oaddr, param.out, ob;")
    lines.append("st.global [oaddr], acc;")
    return "\n".join(lines)


def _run(source, technique):
    mem = GlobalMemory(1 << 20)
    rng = np.random.default_rng(7)
    data = mem.alloc_array(rng.integers(0, 1000, ARRAY_WORDS))
    out = mem.alloc(128)
    kernel = parse_kernel(source, name="prop",
                          params=("data", "out"))
    launch = KernelLaunch(kernel, (2, 1, 1), (64, 1, 1),
                          dict(data=data, out=out), mem)
    if technique == "dac":
        assert verify(decouple(kernel)).ok
        result = run_dac(launch, CFG)
    else:
        result = simulate(launch, CFG)
    return result, mem.words


@given(kernels())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_dac_matches_baseline_on_random_affine_kernels(source):
    base_result, base_words = _run(source, "baseline")
    dac_result, dac_words = _run(source, "dac")
    assert np.array_equal(base_words, dac_words), \
        f"functional mismatch for kernel:\n{source}"
    stats = dac_result.stats
    assert stats["dac.leftover_records"] == 0
    assert stats["dac.affine_unfinished"] == 0


@given(kernels())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cae_and_mta_match_baseline_on_random_kernels(source):
    _, base_words = _run(source, "baseline")
    for technique in ("cae", "mta"):
        mem = _run(source, technique)[1]
        assert np.array_equal(base_words, mem), \
            f"{technique} mismatch for kernel:\n{source}"
