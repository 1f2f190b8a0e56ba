"""The 18 memory-intensive benchmarks (paper Table 2).

Grids are sized so the baseline sits in the latency-bound regime the
paper's memory-intensive suite occupies: a couple of resident CTAs per SM
(8 warps), streaming footprints that miss in the L1, and loop bodies that
stall on loaded values — leaving memory-level-parallelism headroom that the
AEU's early requests (and, speculatively, MTA's prefetches) can fill.
"""

from __future__ import annotations

import numpy as np

from ..sim.launch import GlobalMemory, KernelLaunch
from .base import Benchmark, TID_X, TID_XY, kernel, pick, rng_for

# --------------------------------------------------------------------------
# LIB: LIBOR Monte Carlo — streaming strided loads with light compute.

_LIB = kernel(TID_X + """
    mov acc, 1;
    mov j, 0;
LOOP:
    mul r2, j, 4;
    add zaddr, param.z, r2;
    ld.global zv, [zaddr];
    mul r3, j, param.nbytes;
    mul r4, tid, 4;
    add r5, r3, r4;
    add raddr, param.rates, r5;
    ld.global rv, [raddr];
    mul t0, acc, zv;
    mad acc, rv, 0.01, t0;
    add j, j, 1;
    setp.lt p0, j, param.steps;
    @p0 bra LOOP;
    mul r6, tid, 4;
    add oaddr, param.out, r6;
    st.global [oaddr], acc;
""", "lib", ("z", "rates", "out", "nbytes", "steps"))


def _build_lib(scale: str) -> KernelLaunch:
    blocks, threads, steps = pick(scale, (2, 64, 4), (8, 128, 32))
    rng = rng_for("LIB")
    mem = GlobalMemory()
    n = blocks * threads
    z = mem.alloc_array(rng.uniform(0.9, 1.1, steps))
    rates = mem.alloc_array(rng.uniform(0, 1, steps * n))
    out = mem.alloc(n)
    return KernelLaunch(_LIB, (blocks, 1, 1), (threads, 1, 1),
                        dict(z=z, rates=rates, out=out, nbytes=n * 4,
                             steps=steps), mem)


# --------------------------------------------------------------------------
# SG: sgemm — blocked inner-product loop, two streaming loads per FMA.

_SG = kernel(TID_X + """
    mov acc, 0;
    mov k, 0;
LOOP:
    mul r2, tid, param.kbytes;
    mul r3, k, 4;
    add r4, r2, r3;
    add aaddr, param.A, r4;
    ld.global av, [aaddr];
    mul r5, k, param.nbytes;
    mul r6, %ctaid.y, 4;
    add r7, r5, r6;
    add baddr, param.B, r7;
    ld.global bv, [baddr];
    mad acc, av, bv, acc;
    add k, k, 1;
    setp.lt p0, k, param.K;
    @p0 bra LOOP;
    mul r8, tid, param.nbytes;
    mul r9, %ctaid.y, 4;
    add r10, r8, r9;
    add oaddr, param.C, r10;
    st.global [oaddr], acc;
""", "sg", ("A", "B", "C", "K", "kbytes", "nbytes"))


def _build_sg(scale: str) -> KernelLaunch:
    blocks, threads, kk = pick(scale, (2, 64, 6), (4, 128, 40))
    rng = rng_for("SG")
    mem = GlobalMemory()
    m = blocks * threads
    ncols = 2
    a = mem.alloc_array(rng.integers(0, 9, m * kk))
    b = mem.alloc_array(rng.integers(0, 9, kk * ncols))
    c = mem.alloc(m * ncols)
    return KernelLaunch(_SG, (blocks, ncols, 1), (threads, 1, 1),
                        dict(A=a, B=b, C=c, K=kk, kbytes=kk * 4,
                             nbytes=ncols * 4), mem)


# --------------------------------------------------------------------------
# ST: stencil — time-stepped 5-point sweep with plane streaming.

_ST = kernel(TID_XY + """
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
    add uaddr, caddr, param.planeb;
    ld.global cu, [uaddr];
    add s0, cn, cs;
    add s1, ce, cw;
    add s2, s0, s1;
    add s2, s2, cu;
    mad r7, c0, -5, s2;
    add res, res, r7;
    add t, t, 1;
    setp.lt p0, t, param.steps;
    @p0 bra LOOP;
    add oaddr, param.out, r4;
    st.global [oaddr], res;
""", "st", ("img", "out", "planeb", "steps"))


def _build_st(scale: str) -> KernelLaunch:
    gx, gy = pick(scale, (2, 2), (4, 2))
    bx, by = 32, pick(scale, 4, 8)
    steps = pick(scale, 2, 6)
    rng = rng_for("ST")
    mem = GlobalMemory()
    width, height = gx * bx, gy * by
    plane = width * height
    total = (steps + 2) * plane + 2 * width + 8
    base = mem.alloc(total)
    mem.words[base // 4: base // 4 + total] = rng.uniform(0, 4, total)
    img = base + width * 4
    out = mem.alloc(plane + 4)
    return KernelLaunch(_ST, (gx, gy, 1), (bx, by, 1),
                        dict(img=img, out=out, planeb=plane * 4,
                             steps=steps), mem)


# --------------------------------------------------------------------------
# IMG: imghisto — strided pixel streaming + global atomic scatter.

_IMG = kernel(TID_X + """
    mov j, 0;
LOOP:
    mul r1, j, param.strideb;
    mul r2, tid, 4;
    add r3, r1, r2;
    add paddr, param.pix, r3;
    ld.global pv, [paddr];
    and bin, pv, 63;
    mul r4, bin, 4;
    add haddr, param.hist, r4;
    atom.global [haddr], 1;
    add j, j, 1;
    setp.lt p0, j, param.iters;
    @p0 bra LOOP;
""", "img", ("pix", "hist", "strideb", "iters"))


def _build_img(scale: str) -> KernelLaunch:
    blocks, threads, iters = pick(scale, (2, 64, 2), (8, 128, 12))
    rng = rng_for("IMG")
    mem = GlobalMemory()
    n = blocks * threads
    pix = mem.alloc_array(rng.integers(0, 256, n * iters))
    hist = mem.alloc(64)
    return KernelLaunch(_IMG, (blocks, 1, 1), (threads, 1, 1),
                        dict(pix=pix, hist=hist, strideb=n * 4,
                             iters=iters), mem)


# --------------------------------------------------------------------------
# HI: histogram — shared-memory privatized bins, barrier, global merge.

_HI = kernel(TID_X + """
    mul r0b, %tid.x, 4;
    st.shared [r0b], 0;
    bar.sync;
    mov j, 0;
LOOP:
    mul r2, j, param.strideb;
    mul r3, tid, 4;
    add r4, r2, r3;
    add paddr, param.pix, r4;
    ld.global pv, [paddr];
    and bin, pv, 63;
    mul r5, bin, 4;
    atom.shared [r5], 1;
    add j, j, 1;
    setp.lt p0, j, param.iters;
    @p0 bra LOOP;
    bar.sync;
    setp.lt p1, %tid.x, 64;
    @p1 ld.shared cnt, [r0b];
    mul r6, %tid.x, 4;
    add haddr, param.hist, r6;
    @p1 atom.global [haddr], cnt;
""", "hi", ("pix", "hist", "strideb", "iters"))


def _build_hi(scale: str) -> KernelLaunch:
    blocks, threads, iters = pick(scale, (2, 128, 2), (8, 128, 12))
    rng = rng_for("HI")
    mem = GlobalMemory()
    n = blocks * threads
    pix = mem.alloc_array(rng.integers(0, 256, n * iters))
    hist = mem.alloc(64)
    return KernelLaunch(_HI, (blocks, 1, 1), (threads, 1, 1),
                        dict(pix=pix, hist=hist, strideb=n * 4,
                             iters=iters), mem, shared_words=threads)


# --------------------------------------------------------------------------
# LBM: lattice-Boltzmann — many streaming loads/stores per cell, several
# cells per thread.

_LBM = kernel(TID_X + """
    mov i, 0;
LOOP:
    mul r0b, i, param.nbytes;
    mul r1, tid, 4;
    add r2, r0b, r1;
    add a0, param.fin, r2;
    ld.global v0, [a0];
    add a1, a0, param.slot;
    ld.global v1, [a1];
    add a2, a1, param.slot;
    ld.global v2, [a2];
    add a3, a2, param.slot;
    ld.global v3, [a3];
    add a4, a3, param.slot;
    ld.global v4, [a4];
    add a5, a4, param.slot;
    ld.global v5, [a5];
    add s0, v0, v1;
    add s1, v2, v3;
    add s2, v4, v5;
    add rho, s0, s1;
    add rho, rho, s2;
    mul m0, rho, 0.166;
    sub m1, v1, m0;
    sub m2, v2, m0;
    add o0, param.fout, r2;
    st.global [o0], m0;
    add o1, o0, param.slot;
    st.global [o1], m1;
    add o2, o1, param.slot;
    st.global [o2], m2;
    add i, i, 1;
    setp.lt p0, i, param.cells;
    @p0 bra LOOP;
""", "lbm", ("fin", "fout", "slot", "nbytes", "cells"))


def _build_lbm(scale: str) -> KernelLaunch:
    blocks, threads, cells = pick(scale, (2, 64, 1), (8, 128, 4))
    rng = rng_for("LBM")
    mem = GlobalMemory()
    n = blocks * threads * cells
    fin = mem.alloc_array(rng.uniform(0, 1, n * 6))
    fout = mem.alloc(n * 3)
    return KernelLaunch(_LBM, (blocks, 1, 1), (threads, 1, 1),
                        dict(fin=fin, fout=fout, slot=n * 4,
                             nbytes=blocks * threads * 4, cells=cells), mem)


# --------------------------------------------------------------------------
# SPV: spmv (CSR) — affine row-pointer loads, then a data-dependent inner
# loop with indirect x[col] gathers.

_SPV = kernel(TID_X + """
    mul r1, tid, 4;
    add rpaddr, param.rp, r1;
    ld.global start, [rpaddr];
    ld.global end, [rpaddr+4];
    mov acc, 0;
    mov j, start;
INNER:
    setp.ge p1, j, end;
    @p1 bra DONE;
    mul r2, j, 4;
    add ciaddr, param.ci, r2;
    ld.global col, [ciaddr];
    add vaddr, param.val, r2;
    ld.global vv, [vaddr];
    mul r3, col, 4;
    add xaddr, param.x, r3;
    ld.global xv, [xaddr];
    mad acc, vv, xv, acc;
    add j, j, 1;
    bra INNER;
DONE:
    add yaddr, param.y, r1;
    st.global [yaddr], acc;
""", "spv", ("rp", "ci", "val", "x", "y"))


def _build_spv(scale: str) -> KernelLaunch:
    blocks, threads, nnz_row = pick(scale, (2, 64, 3), (8, 128, 10))
    rng = rng_for("SPV")
    mem = GlobalMemory()
    n = blocks * threads
    rp = mem.alloc_array(np.arange(n + 1) * nnz_row)
    ci = mem.alloc_array(rng.integers(0, n, n * nnz_row))
    val = mem.alloc_array(rng.integers(0, 9, n * nnz_row))
    x = mem.alloc_array(rng.integers(0, 9, n))
    y = mem.alloc(n)
    return KernelLaunch(_SPV, (blocks, 1, 1), (threads, 1, 1),
                        dict(rp=rp, ci=ci, val=val, x=x, y=y), mem)


# --------------------------------------------------------------------------
# BT: b+tree — pointer chasing, serially dependent loads.

_BT = kernel(TID_X + """
    mul r1, tid, 4;
    add kaddr, param.keys, r1;
    ld.global key, [kaddr];
    mov node, 0;
    mov d, 0;
LOOP:
    shr kb, key, d;
    and way, kb, 3;
    mul r2, node, 16;
    mul r3, way, 4;
    add r4, r2, r3;
    add taddr, param.tree, r4;
    ld.global node, [taddr];
    add d, d, 1;
    setp.lt p0, d, param.depth;
    @p0 bra LOOP;
    add oaddr, param.out, r1;
    st.global [oaddr], node;
""", "bt", ("keys", "tree", "out", "depth"))


def _build_bt(scale: str) -> KernelLaunch:
    blocks, threads, depth = pick(scale, (2, 64, 3), (8, 128, 10))
    rng = rng_for("BT")
    mem = GlobalMemory()
    n = blocks * threads
    nnodes = 4096
    keys = mem.alloc_array(rng.integers(0, 1 << 20, n))
    tree = mem.alloc_array(rng.integers(0, nnodes, nnodes * 4))
    out = mem.alloc(n)
    return KernelLaunch(_BT, (blocks, 1, 1), (threads, 1, 1),
                        dict(keys=keys, tree=tree, out=out, depth=depth),
                        mem)


# --------------------------------------------------------------------------
# LUD: LU decomposition row elimination — pivot-row (scalar) and own-row
# (affine) streaming loads.

_LUD = kernel(TID_X + """
    mov acc, 0;
    mov k, 0;
LOOP:
    mul r2, k, 4;
    add r3, r2, param.poff;
    add pivaddr, param.pivot, r3;
    ld.global pv, [pivaddr];
    mul r4, tid, param.rowbytes;
    add r5, r4, r2;
    add maddr, param.mat, r5;
    ld.global mv, [maddr];
    mul t0, mv, pv;
    sub acc, acc, t0;
    add k, k, 1;
    setp.lt p0, k, param.cols;
    @p0 bra LOOP;
    mul r6, tid, 4;
    add oaddr, param.out, r6;
    st.global [oaddr], acc;
""", "lud", ("pivot", "mat", "out", "poff", "rowbytes", "cols"))


def _build_lud(scale: str) -> KernelLaunch:
    blocks, threads, cols = pick(scale, (2, 64, 4), (8, 128, 24))
    rng = rng_for("LUD")
    mem = GlobalMemory()
    n = blocks * threads
    pivot = mem.alloc_array(rng.integers(0, 9, cols))
    mat = mem.alloc_array(rng.integers(0, 9, n * cols))
    out = mem.alloc(n)
    return KernelLaunch(_LUD, (blocks, 1, 1), (threads, 1, 1),
                        dict(pivot=pivot, mat=mat, out=out, poff=0,
                             rowbytes=cols * 4, cols=cols), mem)


# --------------------------------------------------------------------------
# SR2: srad v2 — time-stepped stencil with a light update (memory bound
# where SR1 is compute bound).

_SR2 = kernel(TID_XY + """
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
    add s0, cn, cs;
    add s1, ce, cw;
    add s2, s0, s1;
    mad r7, c0, 0.5, s2;
    add res, res, r7;
    add t, t, 1;
    setp.lt p0, t, param.steps;
    @p0 bra LOOP;
    add oaddr, param.out, r4;
    st.global [oaddr], res;
""", "sr2", ("img", "out", "planeb", "steps"))


def _build_sr2(scale: str) -> KernelLaunch:
    from .compute import _stencil_launch
    return _stencil_launch(_SR2, "SR2", scale, steps_pick=(2, 6))


# --------------------------------------------------------------------------
# SC: streamcluster — distances from streamed points to scalar centers.

_SC = kernel(TID_X + """
    mov best, 1000000;
    mov c, 0;
LOOP:
    mul r1, c, param.nbytes;
    mul r2, tid, 8;
    add r3, r1, r2;
    add paddr, param.pts, r3;
    ld.global px, [paddr];
    ld.global py, [paddr+4];
    mul r4, c, 8;
    add caddr, param.centers, r4;
    ld.global cx, [caddr];
    ld.global cy, [caddr+4];
    sub dx, px, cx;
    sub dy, py, cy;
    mul d2, dx, dx;
    mad d2, dy, dy, d2;
    min best, best, d2;
    add c, c, 1;
    setp.lt p0, c, param.ncenters;
    @p0 bra LOOP;
    mul r5, tid, 4;
    add oaddr, param.out, r5;
    st.global [oaddr], best;
""", "sc", ("pts", "centers", "out", "nbytes", "ncenters"))


def _build_sc(scale: str) -> KernelLaunch:
    blocks, threads, ncenters = pick(scale, (2, 64, 3), (8, 128, 16))
    rng = rng_for("SC")
    mem = GlobalMemory()
    n = blocks * threads
    pts = mem.alloc_array(rng.integers(0, 100, n * 2 * ncenters))
    centers = mem.alloc_array(rng.integers(0, 100, ncenters * 2))
    out = mem.alloc(n)
    return KernelLaunch(_SC, (blocks, 1, 1), (threads, 1, 1),
                        dict(pts=pts, centers=centers, out=out,
                             nbytes=n * 8, ncenters=ncenters), mem)


# --------------------------------------------------------------------------
# KM: kmeans — feature-strided loads + data-dependent argmin (selp).

_KM = kernel(TID_X + """
    mul r1, tid, 4;
    mov best, 1000000;
    mov bestc, 0;
    mov c, 0;
CLOOP:
    mov acc, 0;
    mov f, 0;
FLOOP:
    mul r2, f, param.nbytes;
    add r3, r2, r1;
    add faddr, param.feat, r3;
    ld.global fv, [faddr];
    mul r4, c, param.fbytes;
    mul r5, f, 4;
    add r6, r4, r5;
    add caddr, param.cent, r6;
    ld.global cv, [caddr];
    sub d0, fv, cv;
    mad acc, d0, d0, acc;
    add f, f, 1;
    setp.lt p1, f, param.nfeat;
    @p1 bra FLOOP;
    setp.lt p2, acc, best;
    selp best, acc, best, p2;
    selp bestc, c, bestc, p2;
    add c, c, 1;
    setp.lt p0, c, param.nclusters;
    @p0 bra CLOOP;
    add oaddr, param.assign, r1;
    st.global [oaddr], bestc;
""", "km", ("feat", "cent", "assign", "nbytes", "fbytes", "nfeat",
            "nclusters"))


def _build_km(scale: str) -> KernelLaunch:
    blocks, threads, nfeat, ncl = pick(scale, (2, 64, 2, 2),
                                       (8, 128, 6, 5))
    rng = rng_for("KM")
    mem = GlobalMemory()
    n = blocks * threads
    feat = mem.alloc_array(rng.integers(0, 50, n * nfeat))
    cent = mem.alloc_array(rng.integers(0, 50, ncl * nfeat))
    assign = mem.alloc(n)
    return KernelLaunch(_KM, (blocks, 1, 1), (threads, 1, 1),
                        dict(feat=feat, cent=cent, assign=assign,
                             nbytes=n * 4, fbytes=nfeat * 4, nfeat=nfeat,
                             nclusters=ncl), mem)


# --------------------------------------------------------------------------
# BFS: frontier expansion — data-dependent control flow around indirect
# neighbor updates (DAC sees little benefit here, §5.5).

_BFS = kernel(TID_X + """
    mul r1, tid, 4;
    add laddr, param.levels, r1;
    ld.global lv, [laddr];
    setp.eq p1, lv, param.cur;
    @!p1 bra DONE;
    mul r2, tid, param.degbytes;
    add eaddr, param.edges, r2;
    add nxt, param.cur, 1;
    mov j, 0;
ELOOP:
    mul r3, j, 4;
    add e2, eaddr, r3;
    ld.global nid, [e2];
    mul r4, nid, 4;
    add nladdr, param.levels, r4;
    ld.global nl, [nladdr];
    setp.gt p2, nl, nxt;
    @p2 st.global [nladdr], nxt;
    add j, j, 1;
    setp.lt p0, j, param.degree;
    @p0 bra ELOOP;
DONE:
    exit;
""", "bfs", ("levels", "edges", "cur", "degree", "degbytes"))


def _build_bfs(scale: str) -> KernelLaunch:
    blocks, threads, degree = pick(scale, (2, 64, 2), (8, 128, 8))
    rng = rng_for("BFS")
    mem = GlobalMemory()
    n = blocks * threads
    levels = rng.integers(0, 4, n).astype(np.float64)
    levels[levels > 1] = 99
    laddr = mem.alloc_array(levels)
    edges = mem.alloc_array(rng.integers(0, n, n * degree))
    return KernelLaunch(_BFS, (blocks, 1, 1), (threads, 1, 1),
                        dict(levels=laddr, edges=edges, cur=1,
                             degree=degree, degbytes=degree * 4), mem)


# --------------------------------------------------------------------------
# CFD: unstructured flux — affine self loads + indirect neighbor gathers,
# several sweeps.

_CFD = kernel(TID_X + """
    mov flux, 0;
    mov s, 0;
SWEEP:
    mul r0b, s, param.nbytes;
    mul r1, tid, 4;
    add r2, r0b, r1;
    add vaddr, param.vars, r2;
    ld.global v0, [vaddr];
    mul r3, tid, 16;
    add niaddr, param.nbr, r3;
    mov e, 0;
NLOOP:
    mul r4, e, 4;
    add n2, niaddr, r4;
    ld.global nid, [n2];
    mul r5, nid, 4;
    add r6, r0b, r5;
    add nvaddr, param.vars, r6;
    ld.global nv, [nvaddr];
    sub d0, nv, v0;
    mul d1, d0, 0.25;
    add flux, flux, d1;
    add e, e, 1;
    setp.lt p1, e, 4;
    @p1 bra NLOOP;
    add s, s, 1;
    setp.lt p0, s, param.sweeps;
    @p0 bra SWEEP;
    mul r7, tid, 4;
    add oaddr, param.fluxes, r7;
    st.global [oaddr], flux;
""", "cfd", ("vars", "nbr", "fluxes", "nbytes", "sweeps"))


def _build_cfd(scale: str) -> KernelLaunch:
    blocks, threads, sweeps = pick(scale, (2, 64, 1), (8, 128, 3))
    rng = rng_for("CFD")
    mem = GlobalMemory()
    n = blocks * threads
    vars_ = mem.alloc_array(rng.uniform(0, 10, n * sweeps))
    nbr = mem.alloc_array(rng.integers(0, n, n * 4))
    fluxes = mem.alloc(n)
    return KernelLaunch(_CFD, (blocks, 1, 1), (threads, 1, 1),
                        dict(vars=vars_, nbr=nbr, fluxes=fluxes,
                             nbytes=n * 4, sweeps=sweeps), mem)


# --------------------------------------------------------------------------
# MC: Monte Carlo — streaming random-number loads + Box-Muller compute.

_MC = kernel(TID_X + """
    mov acc, 0;
    mov j, 0;
LOOP:
    mul r2, j, param.nbytes;
    mul r3, tid, 4;
    add r4, r2, r3;
    add u1addr, param.u1, r4;
    ld.global u1, [u1addr];
    add u2addr, param.u2, r4;
    ld.global u2, [u2addr];
    log l0, u1;
    mul l1, l0, -2;
    sqrt rr, l1;
    mul ang, u2, 6.2831853;
    cos cc, ang;
    mad acc, rr, cc, acc;
    add j, j, 1;
    setp.lt p0, j, param.paths;
    @p0 bra LOOP;
    add oaddr, param.out, r3;
    st.global [oaddr], acc;
""", "mc", ("u1", "u2", "out", "nbytes", "paths"))


def _build_mc(scale: str) -> KernelLaunch:
    blocks, threads, paths = pick(scale, (2, 64, 3), (8, 128, 24))
    rng = rng_for("MC")
    mem = GlobalMemory()
    n = blocks * threads
    u1 = mem.alloc_array(rng.uniform(0.01, 1, n * paths))
    u2 = mem.alloc_array(rng.uniform(0, 1, n * paths))
    out = mem.alloc(n)
    return KernelLaunch(_MC, (blocks, 1, 1), (threads, 1, 1),
                        dict(u1=u1, u2=u2, out=out, nbytes=n * 4,
                             paths=paths), mem)


# --------------------------------------------------------------------------
# MT: Mersenne-twister-style state updates — modulo index mapping
# (exercises DAC's mod-type tuples, §4.4).

_MT = kernel(TID_X + """
    mul r3, tid, 4;
    mov i, 0;
LOOP:
    mul r2, i, param.strideb;
    add r4, r3, r2;
    rem r5, r4, param.modbytes;
    add maddr, param.state, r5;
    ld.global sv, [maddr];
    shr r6, sv, 1;
    xor r7, sv, r6;
    and r7, r7, 1048575;
    mul r8, i, param.outrow;
    add r9, r8, r3;
    add oaddr, param.out, r9;
    st.global [oaddr], r7;
    add i, i, 1;
    setp.lt p0, i, param.iters;
    @p0 bra LOOP;
""", "mt", ("state", "out", "strideb", "modbytes", "outrow", "iters"))


def _build_mt(scale: str) -> KernelLaunch:
    blocks, threads, iters = pick(scale, (2, 64, 3), (8, 128, 20))
    rng = rng_for("MT")
    mem = GlobalMemory()
    n = blocks * threads
    state_words = 16384
    state = mem.alloc_array(rng.integers(0, 1 << 20, state_words))
    out = mem.alloc(n * iters)
    return KernelLaunch(_MT, (blocks, 1, 1), (threads, 1, 1),
                        dict(state=state, out=out, strideb=1604,
                             modbytes=state_words * 4, outrow=n * 4,
                             iters=iters), mem)


# --------------------------------------------------------------------------
# SP: scalar product — streaming dot product with a shared-memory tree
# reduction per block.

_SP = kernel(TID_X + """
    mov acc, 0;
    mov j, 0;
LOOP:
    mul r2, j, param.nbytes;
    mul r3, tid, 4;
    add r4, r2, r3;
    add aaddr, param.A, r4;
    ld.global av, [aaddr];
    add baddr, param.B, r4;
    ld.global bv, [baddr];
    mad acc, av, bv, acc;
    add j, j, 1;
    setp.lt p0, j, param.chunks;
    @p0 bra LOOP;
    mul r5, %tid.x, 4;
    st.shared [r5], acc;
    bar.sync;
    mov k, param.half;
RED:
    setp.lt p1, %tid.x, k;
    add r6, %tid.x, k;
    mul r7, r6, 4;
    @p1 ld.shared t0, [r7];
    @p1 ld.shared t1, [r5];
    @p1 add t2, t0, t1;
    @p1 st.shared [r5], t2;
    bar.sync;
    shr k, k, 1;
    setp.ge p0, k, 1;
    @p0 bra RED;
    setp.eq p2, %tid.x, 0;
    mul r8, %ctaid.x, 4;
    add oaddr, param.out, r8;
    @p2 st.global [oaddr], t2;
""", "sp", ("A", "B", "out", "nbytes", "chunks", "half"))


def _build_sp(scale: str) -> KernelLaunch:
    blocks, threads, chunks = pick(scale, (2, 64, 2), (8, 128, 20))
    rng = rng_for("SP")
    mem = GlobalMemory()
    n = blocks * threads
    a = mem.alloc_array(rng.integers(0, 9, n * chunks))
    b = mem.alloc_array(rng.integers(0, 9, n * chunks))
    out = mem.alloc(blocks)
    return KernelLaunch(_SP, (blocks, 1, 1), (threads, 1, 1),
                        dict(A=a, B=b, out=out, nbytes=n * 4,
                             chunks=chunks, half=threads // 2), mem,
                        shared_words=threads)


# --------------------------------------------------------------------------
# CS: convolution separable — sliding-window loads with a boundary-clamped
# start offset (exercises §4.6 divergent affine tuples), several rows.

_CS = kernel(TID_X + """
    setp.lt p1, tid, param.border;
    mul off, tid, 4;
    @p1 mov off, 0;
    mov acc, 0;
    mov row, 0;
RLOOP:
    mul rbase, row, param.rowbytes;
    add ibase, param.inp, rbase;
    add iaddr, ibase, off;
    mov k, 0;
KLOOP:
    mul r2, k, 4;
    add caddr, param.coef, r2;
    ld.global cv, [caddr];
    add a2, iaddr, r2;
    ld.global iv, [a2];
    mad acc, cv, iv, acc;
    add k, k, 1;
    setp.lt p0, k, param.taps;
    @p0 bra KLOOP;
    add row, row, 1;
    setp.lt p2, row, param.rows;
    @p2 bra RLOOP;
    mul r4, tid, 4;
    add oaddr, param.out, r4;
    st.global [oaddr], acc;
""", "cs", ("inp", "coef", "out", "rowbytes", "border", "taps", "rows"))


def _build_cs(scale: str) -> KernelLaunch:
    blocks, threads, taps, rows = pick(scale, (2, 64, 3, 1), (8, 128, 7, 4))
    rng = rng_for("CS")
    mem = GlobalMemory()
    n = blocks * threads
    row_words = n + taps + 2
    inp = mem.alloc_array(rng.integers(0, 9, row_words * rows))
    coef = mem.alloc_array(rng.integers(1, 5, taps))
    out = mem.alloc(n)
    return KernelLaunch(_CS, (blocks, 1, 1), (threads, 1, 1),
                        dict(inp=inp, coef=coef, out=out,
                             rowbytes=row_words * 4, border=16, taps=taps,
                             rows=rows), mem)


MEMORY_BENCHMARKS = [
    Benchmark("LIB", "LIBOR Monte Carlo", "G", "memory", _build_lib,
              "streaming strided loads, light compute"),
    Benchmark("SG", "sgemm", "R", "memory", _build_sg,
              "blocked inner-product loop"),
    Benchmark("ST", "stencil", "R", "memory", _build_st,
              "time-stepped 5-point streaming sweep"),
    Benchmark("IMG", "imghisto", "G", "memory", _build_img,
              "pixel streaming + global atomic scatter"),
    Benchmark("HI", "histogram", "R", "memory", _build_hi,
              "shared privatized bins, global merge"),
    Benchmark("LBM", "lattice-Boltzmann", "R", "memory", _build_lbm,
              "bandwidth-heavy load/store streaming"),
    Benchmark("SPV", "spmv (CSR)", "R", "memory", _build_spv,
              "affine row pointers, indirect gathers"),
    Benchmark("BT", "b+tree", "C", "memory", _build_bt,
              "pointer chasing, dependent loads"),
    Benchmark("LUD", "LU decomposition", "C", "memory", _build_lud,
              "pivot-row and own-row streaming"),
    Benchmark("SR2", "srad v2", "C", "memory", _build_sr2,
              "time-stepped stencil, light update"),
    Benchmark("SC", "streamcluster", "C", "memory", _build_sc,
              "points versus centers distances"),
    Benchmark("KM", "kmeans", "C", "memory", _build_km,
              "feature-strided loads, selp argmin"),
    Benchmark("BFS", "breadth-first search", "C", "memory", _build_bfs,
              "data-dependent control + indirect"),
    Benchmark("CFD", "unstructured flux", "C", "memory", _build_cfd,
              "indirect neighbor gathers"),
    Benchmark("MC", "Monte Carlo", "P", "memory", _build_mc,
              "random-stream loads + Box-Muller"),
    Benchmark("MT", "Mersenne twister", "P", "memory", _build_mt,
              "modulo index mapping (mod tuples)"),
    Benchmark("SP", "scalar product", "P", "memory", _build_sp,
              "dot product with shared reduction"),
    Benchmark("CS", "convolution separable", "P", "memory", _build_cs,
              "sliding window, divergent boundary tuple"),
]
