"""Property tests: symexec closed forms, concretized at the launch's
(tid, ctaid, param) points, must match the functional executor on
randomly generated straight-line and single-loop kernels."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.analysis.symexec import concretize, symexec
from repro.isa import KernelBuilder
from repro.sim import GlobalMemory, KernelLaunch
from repro.sim.functional import run_functional

#: (opcode tag, immediate range) — immediates stay small so value chains
#: cannot overflow 32-bit arithmetic even six operations deep.
_OPS = ("add", "sub", "mul_imm", "mad", "min", "max", "shl", "rem", "div")

_op = st.tuples(st.sampled_from(_OPS),
                st.integers(0, 7),       # first operand pick
                st.integers(0, 7),       # second operand pick
                st.integers(1, 8))       # immediate

_settings = settings(max_examples=25, deadline=None)


def _apply(kb, vals, op):
    name, i1, i2, imm = op
    a = vals[i1 % len(vals)]
    b = vals[i2 % len(vals)]
    if name == "add":
        return kb.add(a, b)
    if name == "sub":
        return kb.sub(a, b)
    if name == "mul_imm":
        return kb.mul(a, imm)
    if name == "mad":
        return kb.mad(a, imm, b)
    if name == "min":
        return kb.min(a, b)
    if name == "max":
        return kb.max(a, b)
    if name == "shl":
        return kb.shl(a, imm % 4)
    if name == "rem":
        return kb.rem(a, imm)
    return kb.div(a, imm)


def _lane_env(launch):
    bx = launch.block_dim[0]
    gx = launch.grid_dim[0]
    env = {
        "tid.x": np.tile(np.arange(bx), gx),
        "ctaid.x": np.repeat(np.arange(gx), bx),
        "ntid.x": bx,
        "nctaid.x": gx,
    }
    for name, value in launch.params.items():
        env[f"param:{name}"] = value
    return env


def _run_and_compare(kernel, params):
    memory = GlobalMemory(4096)
    memory.words[:] = (5 * np.arange(len(memory.words),
                                     dtype=memory.words.dtype)) % 89
    launch = KernelLaunch(kernel=kernel, grid_dim=(2, 1, 1),
                          block_dim=(16, 1, 1), params=params,
                          memory=memory)
    expected = launch.memory.words.copy()

    sym = symexec(kernel)
    env = _lane_env(launch)
    store_idx, site = next(
        (i, s) for i, s in sym.sites.items() if s.kind == "store")
    addr = np.broadcast_to(
        concretize(site.value, env), env["tid.x"].shape).astype(np.int64)
    value = np.broadcast_to(
        concretize(sym.value_at(store_idx, site.inst.srcs[0]), env),
        env["tid.x"].shape)
    expected[addr // 4] = value

    run_functional(launch)
    np.testing.assert_array_equal(launch.memory.words, expected)


@_settings
@given(ops=st.lists(_op, min_size=0, max_size=6), n=st.integers(0, 40))
def test_straightline_kernels(ops, n):
    kb = KernelBuilder("propline", params=("O", "n"))
    gtid = kb.global_tid_x()
    vals = [gtid, kb.mov(3), kb.param("n")]
    for op in ops:
        vals.append(_apply(kb, vals, op))
    kb.store(kb.mad(gtid, 4, kb.param("O")), vals[-1])
    _run_and_compare(kb.build(), {"O": 2048, "n": n})


@_settings
@given(ops=st.lists(_op, min_size=0, max_size=3),
       bound=st.integers(1, 5), stride=st.integers(0, 4),
       n=st.integers(0, 40))
# shl of a non-integer truncates first: shl(div(gtid, 2), 1) != gtid.
@example(ops=[("div", 0, 0, 2), ("shl", 4, 0, 1)], bound=1, stride=0, n=0)
def test_single_loop_kernels(ops, bound, stride, n):
    kb = KernelBuilder("proploop", params=("O", "n"))
    gtid = kb.global_tid_x()
    vals = [gtid, kb.mov(2), kb.param("n")]
    acc = kb.mov(0)
    i = kb.loop_counter(bound)
    kb.assign(acc, kb.add(acc, kb.mad(i, stride, gtid)))
    kb.end_loop()
    vals.append(acc)
    for op in ops:
        vals.append(_apply(kb, vals, op))
    kb.store(kb.mad(gtid, 4, kb.param("O")), vals[-1])
    _run_and_compare(kb.build(), {"O": 2048, "n": n})


@_settings
@given(bound_mod=st.integers(1, 4), step=st.integers(1, 3))
def test_divergent_trip_count_kernels(bound_mod, step):
    kb = KernelBuilder("propragged", params=("O",))
    gtid = kb.global_tid_x()
    bound = kb.add(kb.rem(gtid, bound_mod), 1)
    acc = kb.mov(0)
    kb.loop_counter(bound)
    kb.assign(acc, kb.add(acc, step))
    kb.end_loop()
    kb.store(kb.mad(gtid, 4, kb.param("O")), acc)
    _run_and_compare(kb.build(), {"O": 2048})
