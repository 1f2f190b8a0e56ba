"""The 11 compute-intensive benchmarks (paper Table 2).

Each synthetic kernel mirrors the compute/memory/control structure of its
namesake; see the module docstring of :mod:`repro.workloads.base`.  Grids
use large CTAs (8 warps) at high occupancy so the baseline is issue-bound —
the regime where DAC's warp-instruction reduction, and CAE's off-lane affine
units, turn into speedup.  Loop bodies carry the address/index arithmetic
that dominates real kernels (paper Fig. 6: about half of static
instructions compute on scalars and thread IDs).
"""

from __future__ import annotations

from ..sim.launch import GlobalMemory, KernelLaunch
from .base import Benchmark, TID_X, TID_XY, kernel, pick, rng_for

# --------------------------------------------------------------------------
# CP: coulombic potential — scalar atom loop, heavy FP per iteration.

_CP = kernel(TID_X + """
    mul px, tid, 3;
    mul py, tid, 5;
    mov acc, 0;
    mov j, 0;
LOOP:
    mul r2, j, 16;
    add r3, r2, param.aoff;
    add aaddr, param.atoms, r3;
    ld.global ax, [aaddr];
    ld.global ay, [aaddr+4];
    ld.global aq, [aaddr+12];
    sub dx, px, ax;
    sub dy, py, ay;
    mul dx2, dx, dx;
    mad r4, dy, dy, dx2;
    add r4, r4, 1;
    sqrt r5, r4;
    rcp r6, r5;
    mul r6, r6, 0.5;
    mad acc, aq, r6, acc;
    add j, j, 1;
    setp.lt p0, j, param.natoms;
    @p0 bra LOOP;
    mul r7, tid, 4;
    add oaddr, param.out, r7;
    st.global [oaddr], acc;
""", "cp", ("atoms", "aoff", "out", "natoms"))


def _build_cp(scale: str) -> KernelLaunch:
    blocks, threads, natoms = pick(scale, (2, 64, 6), (8, 256, 40))
    rng = rng_for("CP")
    mem = GlobalMemory()
    atoms = mem.alloc_array(rng.integers(0, 50, natoms * 4))
    out = mem.alloc(blocks * threads)
    return KernelLaunch(_CP, (blocks, 1, 1), (threads, 1, 1),
                        dict(atoms=atoms, aoff=0, out=out, natoms=natoms),
                        mem)


# --------------------------------------------------------------------------
# STO: StoreGPU sliding-window hashing — integer mixing rounds over a
# window of words re-loaded per round at affine offsets.

_STO = kernel(TID_X + """
    mul r1, tid, 16;
    add inaddr, param.inp, r1;
    ld.global w0, [inaddr];
    ld.global w1, [inaddr+4];
    mov d2, 0;
    mov j, 0;
LOOP:
    shl t0, w0, 3;
    shr t1, w1, 5;
    xor w0, t0, w1;
    xor w1, t1, w0;
    add w0, w0, j;
    and w0, w0, 1048575;
    and w1, w1, 1048575;
    add d2, d2, w0;
    and d2, d2, 1048575;
    add j, j, 1;
    setp.lt p0, j, param.rounds;
    @p0 bra LOOP;
    mul r2, tid, 4;
    add r3, r2, param.ooff;
    add oaddr, param.out, r3;
    st.global [oaddr], d2;
""", "sto", ("inp", "out", "ooff", "rounds"))


def _build_sto(scale: str) -> KernelLaunch:
    blocks, threads, rounds = pick(scale, (2, 64, 6), (8, 256, 36))
    rng = rng_for("STO")
    mem = GlobalMemory()
    n = blocks * threads
    inp = mem.alloc_array(rng.integers(0, 1 << 20, n * 4))
    out = mem.alloc(n)
    return KernelLaunch(_STO, (blocks, 1, 1), (threads, 1, 1),
                        dict(inp=inp, out=out, ooff=0, rounds=rounds), mem)


# --------------------------------------------------------------------------
# AES: table-lookup rounds — data-dependent (non-affine) table addresses
# mixed with affine round-key loads.

_AES = kernel(TID_X + """
    mul r1, tid, 4;
    add saddr, param.inp, r1;
    ld.global state, [saddr];
    mov j, 0;
LOOP:
    and idx, state, 255;
    mul r2, idx, 4;
    add taddr, param.tbox, r2;
    ld.global tval, [taddr];
    mul r3, j, 4;
    add kaddr, param.rkey, r3;
    ld.global kv, [kaddr];
    xor state, state, tval;
    xor state, state, kv;
    shl r4, state, 1;
    shr r5, state, 7;
    xor state, r4, r5;
    and state, state, 16777215;
    add j, j, 1;
    setp.lt p0, j, param.rounds;
    @p0 bra LOOP;
    add oaddr, param.out, r1;
    st.global [oaddr], state;
""", "aes", ("inp", "tbox", "rkey", "out", "rounds"))


def _build_aes(scale: str) -> KernelLaunch:
    blocks, threads, rounds = pick(scale, (2, 64, 4), (8, 256, 20))
    rng = rng_for("AES")
    mem = GlobalMemory()
    n = blocks * threads
    inp = mem.alloc_array(rng.integers(0, 1 << 24, n))
    tbox = mem.alloc_array(rng.integers(0, 1 << 24, 256))
    rkey = mem.alloc_array(rng.integers(0, 1 << 24, rounds))
    out = mem.alloc(n)
    return KernelLaunch(_AES, (blocks, 1, 1), (threads, 1, 1),
                        dict(inp=inp, tbox=tbox, rkey=rkey, out=out,
                             rounds=rounds), mem)


# --------------------------------------------------------------------------
# MQ: mri-q — trig-heavy accumulation over shared k-space samples.

_MQ = kernel(TID_X + """
    mul x, tid, 2;
    mul y, tid, 3;
    mov qr, 0;
    mov qi, 0;
    mov j, 0;
LOOP:
    mul r2, j, 12;
    add kaddr, param.ksp, r2;
    ld.global kx, [kaddr];
    ld.global ky, [kaddr+4];
    ld.global kph, [kaddr+8];
    mul arg, kx, x;
    mad arg, ky, y, arg;
    sin sr, arg;
    cos cr, arg;
    mul t0, kph, sr;
    mul t1, kph, cr;
    add qr, qr, t1;
    add qi, qi, t0;
    add j, j, 1;
    setp.lt p0, j, param.nk;
    @p0 bra LOOP;
    mul r3, tid, 4;
    add oaddr, param.qre, r3;
    st.global [oaddr], qr;
    add oaddr2, param.qim, r3;
    st.global [oaddr2], qi;
""", "mq", ("ksp", "qre", "qim", "nk"))


def _build_mq(scale: str) -> KernelLaunch:
    blocks, threads, nk = pick(scale, (2, 64, 5), (8, 256, 32))
    rng = rng_for("MQ")
    mem = GlobalMemory()
    n = blocks * threads
    ksp = mem.alloc_array(rng.uniform(0, 2, nk * 3))
    qre = mem.alloc(n)
    qim = mem.alloc(n)
    return KernelLaunch(_MQ, (blocks, 1, 1), (threads, 1, 1),
                        dict(ksp=ksp, qre=qre, qim=qim, nk=nk), mem)


# --------------------------------------------------------------------------
# TP: tpacf — dot products against shared points with data-dependent binning.

_TP = kernel(TID_X + """
    mul r1, tid, 12;
    add paddr, param.pts, r1;
    ld.global x1, [paddr];
    ld.global y1, [paddr+4];
    ld.global z1, [paddr+8];
    mov b0, 0;
    mov b1, 0;
    mov b2, 0;
    mov j, 0;
LOOP:
    mul r2, j, 12;
    add r3, r2, param.poff;
    add qaddr, param.pts2, r3;
    ld.global x2, [qaddr];
    ld.global y2, [qaddr+4];
    ld.global z2, [qaddr+8];
    mul d0, x1, x2;
    mad d0, y1, y2, d0;
    mad d0, z1, z2, d0;
    setp.gt p1, d0, 500;
    @p1 add b0, b0, 1;
    setp.le p2, d0, 100;
    @p2 add b1, b1, 1;
    add b2, b2, 1;
    add j, j, 1;
    setp.lt p0, j, param.npts;
    @p0 bra LOOP;
    add oaddr, param.bins, r1;
    st.global [oaddr], b0;
    st.global [oaddr+4], b1;
    st.global [oaddr+8], b2;
""", "tp", ("pts", "pts2", "poff", "bins", "npts"))


def _build_tp(scale: str) -> KernelLaunch:
    blocks, threads, npts = pick(scale, (2, 64, 5), (8, 256, 28))
    rng = rng_for("TP")
    mem = GlobalMemory()
    n = blocks * threads
    pts = mem.alloc_array(rng.integers(0, 20, n * 3))
    pts2 = mem.alloc_array(rng.integers(0, 20, npts * 3))
    bins = mem.alloc(n * 3)
    return KernelLaunch(_TP, (blocks, 1, 1), (threads, 1, 1),
                        dict(pts=pts, pts2=pts2, poff=0, bins=bins,
                             npts=npts), mem)


# --------------------------------------------------------------------------
# FFT: butterfly stages — XOR partner addressing (non-affine) mixed with
# affine twiddle-table loads.

_FFT = kernel(TID_X + """
    mul r1, tid, 4;
    add vaddr, param.data, r1;
    ld.global vre, [vaddr];
    mov s, 0;
LOOP:
    shl stride, 1, s;
    xor pidx, tid, stride;
    mul r2, pidx, 4;
    add paddr, param.data, r2;
    ld.global pre, [paddr];
    mul r3, s, param.nbytes;
    add r4, r3, r1;
    add twaddr, param.tw, r4;
    ld.global tw, [twaddr];
    mul t0, pre, tw;
    sub t1, vre, t0;
    mad vre, vre, 0.5, t1;
    add s, s, 1;
    setp.lt p0, s, param.stages;
    @p0 bra LOOP;
    add oaddr, param.out, r1;
    st.global [oaddr], vre;
""", "fft", ("data", "tw", "out", "nbytes", "stages"))


def _build_fft(scale: str) -> KernelLaunch:
    blocks, threads, stages = pick(scale, (2, 64, 3), (8, 256, 10))
    rng = rng_for("FFT")
    mem = GlobalMemory()
    n = blocks * threads
    data = mem.alloc_array(rng.uniform(-1, 1, n))
    tw = mem.alloc_array(rng.uniform(-1, 1, n * stages))
    out = mem.alloc(n)
    return KernelLaunch(_FFT, (blocks, 1, 1), (threads, 1, 1),
                        dict(data=data, tw=tw, out=out, nbytes=n * 4,
                             stages=stages), mem)


# --------------------------------------------------------------------------
# BP: backprop — 16-wide inner block dimension (CAE's weak spot, §5.4),
# shared-memory tree reduction with barriers.

_BP = kernel(TID_XY + """
    mul r2, %ntid.x, %nctaid.x;
    mul r3, gy, r2;
    add r4, r3, gx;
    mul r5, r4, 4;
    add waddr, param.w, r5;
    ld.global wv, [waddr];
    mul r6, gx, 4;
    add iaddr, param.inp, r6;
    ld.global iv, [iaddr];
    mul prod, wv, iv;
    mul r7, %tid.y, %ntid.x;
    add r8, r7, %tid.x;
    mul r9, r8, 4;
    st.shared [r9], prod;
    bar.sync;
    mov k, 8;
RED:
    setp.lt p1, %tid.x, k;
    add r10, %tid.x, k;
    add r12, r7, r10;
    mul r13, r12, 4;
    @p1 ld.shared t0, [r13];
    @p1 ld.shared t1, [r9];
    @p1 add t2, t0, t1;
    @p1 st.shared [r9], t2;
    bar.sync;
    shr k, k, 1;
    setp.ge p0, k, 1;
    @p0 bra RED;
    setp.eq p2, %tid.x, 0;
    mul r14, gy, 4;
    add oaddr, param.out, r14;
    @p2 st.global [oaddr], t2;
""", "bp", ("w", "inp", "out"))


def _build_bp(scale: str) -> KernelLaunch:
    gx, gy = pick(scale, (1, 2), (2, 12))
    rng = rng_for("BP")
    mem = GlobalMemory()
    width, height = gx * 16, gy * 16
    w = mem.alloc_array(rng.integers(0, 9, width * height))
    inp = mem.alloc_array(rng.integers(0, 9, width))
    out = mem.alloc(height)
    return KernelLaunch(_BP, (gx, gy, 1), (16, 16, 1),
                        dict(w=w, inp=inp, out=out), mem,
                        shared_words=256)


# --------------------------------------------------------------------------
# SR1: srad v1 — time-stepped 2-D stencil with a heavy exp/div diffusion
# update per point.

_SR1 = kernel(TID_XY + """
    mul width, %ntid.x, %nctaid.x;
    mul rowb, width, 4;
    mul r3, gy, width;
    add idx, r3, gx;
    mul r4, idx, 4;
    mov res, 0;
    mov t, 0;
LOOP:
    mul r5, t, param.planeb;
    add r6, r4, r5;
    add caddr, param.img, r6;
    ld.global c0, [caddr];
    add naddr, caddr, rowb;
    ld.global cn, [naddr];
    sub saddr, caddr, rowb;
    ld.global cs, [saddr];
    ld.global ce, [caddr+4];
    sub waddr, caddr, 4;
    ld.global cw, [waddr];
    sub dn, cn, c0;
    sub ds, cs, c0;
    sub de, ce, c0;
    sub dw, cw, c0;
    mul g0, dn, dn;
    mad g0, ds, ds, g0;
    mad g0, de, de, g0;
    mad g0, dw, dw, g0;
    mul l0, c0, c0;
    add l0, l0, 1;
    div q0, g0, l0;
    mul q1, q0, 0.25;
    exp e0, q1;
    rcp cdiff, e0;
    add sum, dn, ds;
    add sum, sum, de;
    add sum, sum, dw;
    mul upd, cdiff, sum;
    mad r7, upd, 0.25, c0;
    add res, res, r7;
    add t, t, 1;
    setp.lt p0, t, param.steps;
    @p0 bra LOOP;
    add oaddr, param.out, r4;
    st.global [oaddr], res;
""", "sr1", ("img", "out", "planeb", "steps"))


def _stencil_launch(kern, abbr: str, scale: str, steps_pick=(2, 4),
                    extra_params=None) -> KernelLaunch:
    gx, gy = pick(scale, (2, 2), (4, 2))
    bx, by = 32, pick(scale, 4, 8)
    steps = pick(scale, *steps_pick)
    rng = rng_for(abbr)
    mem = GlobalMemory()
    width, height = gx * bx, gy * by
    plane = width * height
    total = (steps + 1) * plane + 2 * width + 8
    base = mem.alloc(total)
    mem.words[base // 4: base // 4 + total] = rng.uniform(0, 4, total)
    img = base + width * 4                  # halo row above and below
    out = mem.alloc(plane + 4)
    params = dict(img=img, out=out, planeb=plane * 4, steps=steps)
    if extra_params:
        params.update(extra_params(width, height))
    return KernelLaunch(kern, (gx, gy, 1), (bx, by, 1), params, mem)


def _build_sr1(scale: str) -> KernelLaunch:
    return _stencil_launch(_SR1, "SR1", scale)


# --------------------------------------------------------------------------
# HS: hotspot — time-stepped stencil with affine min/max index clamping
# (§4.6 clamp ops).

_HS = kernel(TID_XY + """
    mul width, %ntid.x, %nctaid.x;
    mul rowb, width, 4;
    min cx, gx, param.wmax;
    max cx, cx, 0;
    mul r3, gy, width;
    add idx, r3, cx;
    mul r4, idx, 4;
    mov res, 0;
    mov t, 0;
LOOP:
    mul r5, t, param.planeb;
    add r6, r4, r5;
    add caddr, param.img, r6;
    ld.global c0, [caddr];
    add naddr, caddr, rowb;
    ld.global cn, [naddr];
    sub saddr, caddr, rowb;
    ld.global cs, [saddr];
    ld.global ce, [caddr+4];
    sub waddr, caddr, 4;
    ld.global cw, [waddr];
    add sum, cn, cs;
    add sum, sum, ce;
    add sum, sum, cw;
    mul r7, c0, 4;
    sub delta, sum, r7;
    mul d2, delta, 0.2;
    mul amb, c0, 0.05;
    sub d3, d2, amb;
    add r8, c0, d3;
    add res, res, r8;
    add t, t, 1;
    setp.lt p0, t, param.steps;
    @p0 bra LOOP;
    mul r9, gy, width;
    add r10, r9, gx;
    mul r11, r10, 4;
    add oaddr, param.out, r11;
    st.global [oaddr], res;
""", "hs", ("img", "out", "planeb", "steps", "wmax"))


def _build_hs(scale: str) -> KernelLaunch:
    return _stencil_launch(
        _HS, "HS", scale,
        extra_params=lambda w, h: dict(wmax=w - 1))


# --------------------------------------------------------------------------
# PF: pathfinder — row-sweep dynamic programming, shared memory + barriers,
# affine min/max clamps for neighbor indices.

_PF = kernel(TID_X + """
    mul r1, tid, 4;
    add srcaddr, param.wall, r1;
    ld.global cur, [srcaddr];
    mul myoff, %tid.x, 4;
    mov lim, %ntid.x;
    sub lim, lim, 1;
    mov t, 0;
LOOP:
    st.shared [myoff], cur;
    bar.sync;
    sub r3, %tid.x, 1;
    max r4, r3, 0;
    mul r5, r4, 4;
    ld.shared lv, [r5];
    add r6, %tid.x, 1;
    min r8, r6, lim;
    mul r9, r8, 4;
    ld.shared rv, [r9];
    min m0, lv, rv;
    min m1, m0, cur;
    add t, t, 1;
    mul r10, t, param.rowbytes;
    add waddr2, srcaddr, r10;
    ld.global w0, [waddr2];
    add cur, w0, m1;
    bar.sync;
    setp.lt p0, t, param.steps;
    @p0 bra LOOP;
    add oaddr, param.out, r1;
    st.global [oaddr], cur;
""", "pf", ("wall", "out", "rowbytes", "steps"))


def _build_pf(scale: str) -> KernelLaunch:
    blocks, threads, steps = pick(scale, (2, 64, 3), (8, 256, 14))
    rng = rng_for("PF")
    mem = GlobalMemory()
    width = blocks * threads
    wall = mem.alloc_array(rng.integers(0, 10, width * (steps + 1)))
    out = mem.alloc(width)
    return KernelLaunch(_PF, (blocks, 1, 1), (threads, 1, 1),
                        dict(wall=wall, out=out, rowbytes=width * 4,
                             steps=steps), mem, shared_words=threads)


# --------------------------------------------------------------------------
# BS: blackscholes — SFU-heavy pricing loop over a strip of options per
# thread.

_BS = kernel(TID_X + """
    mov csum, 0;
    mov psum, 0;
    mov j, 0;
LOOP:
    mul r0b, j, param.nbytes;
    mul r1, tid, 4;
    add r2, r0b, r1;
    add saddr, param.S, r2;
    ld.global sv, [saddr];
    add xaddr, param.X, r2;
    ld.global xv, [xaddr];
    add taddr, param.T, r2;
    ld.global tv, [taddr];
    sqrt sq, tv;
    div ra, sv, xv;
    log l0, ra;
    mul r3, tv, 0.06;
    add l1, l0, r3;
    mul vol, sq, 0.3;
    add vol, vol, 0.0001;
    div d1, l1, vol;
    sub d2, d1, vol;
    mul n1a, d1, d1;
    mul n1b, n1a, -0.5;
    exp n1, n1b;
    mul n2a, d2, d2;
    mul n2b, n2a, -0.5;
    exp n2, n2b;
    mul disc, tv, -0.06;
    exp df, disc;
    mul xd, xv, df;
    mul c0, sv, n1;
    mul c1, xd, n2;
    sub call, c0, c1;
    sub put, c1, c0;
    abs put, put;
    add csum, csum, call;
    add psum, psum, put;
    add j, j, 1;
    setp.lt p0, j, param.nopt;
    @p0 bra LOOP;
    mul r4, tid, 4;
    add caddr2, param.call, r4;
    st.global [caddr2], csum;
    add paddr2, param.put, r4;
    st.global [paddr2], psum;
""", "bs", ("S", "X", "T", "call", "put", "nbytes", "nopt"))


def _build_bs(scale: str) -> KernelLaunch:
    blocks, threads, nopt = pick(scale, (2, 64, 2), (8, 256, 8))
    rng = rng_for("BS")
    mem = GlobalMemory()
    n = blocks * threads
    s = mem.alloc_array(rng.uniform(10, 100, n * nopt))
    x = mem.alloc_array(rng.uniform(10, 100, n * nopt))
    t = mem.alloc_array(rng.uniform(0.2, 2, n * nopt))
    call = mem.alloc(n)
    put = mem.alloc(n)
    return KernelLaunch(_BS, (blocks, 1, 1), (threads, 1, 1),
                        dict(S=s, X=x, T=t, call=call, put=put,
                             nbytes=n * 4, nopt=nopt), mem)


COMPUTE_BENCHMARKS = [
    Benchmark("CP", "coulombic potential", "G", "compute", _build_cp,
              "scalar atom loop, heavy FP per iteration"),
    Benchmark("STO", "StoreGPU hashing", "G", "compute", _build_sto,
              "integer mixing rounds on loaded words"),
    Benchmark("AES", "AES rounds", "G", "compute", _build_aes,
              "data-dependent table lookups + affine round keys"),
    Benchmark("MQ", "mri-q", "G", "compute", _build_mq,
              "trig accumulation over shared samples"),
    Benchmark("TP", "tpacf", "G", "compute", _build_tp,
              "dot products with data-dependent binning"),
    Benchmark("FFT", "FFT butterflies", "G", "compute", _build_fft,
              "XOR partner addressing plus affine twiddles"),
    Benchmark("BP", "backprop", "C", "compute", _build_bp,
              "16-wide block rows, shared reduction"),
    Benchmark("SR1", "srad v1", "C", "compute", _build_sr1,
              "stencil with exp/div diffusion update"),
    Benchmark("HS", "hotspot", "C", "compute", _build_hs,
              "stencil with affine min/max clamps"),
    Benchmark("PF", "pathfinder", "C", "compute", _build_pf,
              "row-sweep DP, shared memory + barriers"),
    Benchmark("BS", "blackscholes", "P", "compute", _build_bs,
              "SFU-heavy option pricing loop"),
]
