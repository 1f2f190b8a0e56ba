"""Tests for the energy and area models."""

import numpy as np
import pytest

from repro.compiler.decouple import decouple
from repro.compiler.verifier import verify
from repro.core import run_dac
from repro.energy import area_report, dac_sram_bytes, energy_of
from repro.isa import parse_kernel
from repro.sim import GPUConfig, GlobalMemory, KernelLaunch, simulate

CFG = GPUConfig(num_sms=1)

SRC = """
    mul r0, %ctaid.x, %ntid.x;
    add tid, %tid.x, r0;
    mul r1, tid, 4;
    add xaddr, param.X, r1;
    ld.global v, [xaddr];
    add w, v, 1;
    add oaddr, param.O, r1;
    st.global [oaddr], w;
"""


def _launch():
    mem = GlobalMemory(1 << 20)
    params = dict(X=mem.alloc_array(np.arange(128)), O=mem.alloc(128))
    kernel = parse_kernel(SRC, name="t", params=("X", "O"))
    assert verify(decouple(kernel)).ok
    return KernelLaunch(kernel, (2, 1, 1), (64, 1, 1), params, mem)


class TestEnergyModel:
    def test_breakdown_sums(self):
        result = simulate(_launch(), CFG)
        e = energy_of(result)
        assert e.total == pytest.approx(e.dynamic + e.static)
        assert e.dynamic == pytest.approx(
            e.alu + e.register_file + e.dac_overhead + e.other_dynamic)
        assert e.total > 0

    def test_baseline_has_no_dac_overhead(self):
        e = energy_of(simulate(_launch(), CFG))
        assert e.dac_overhead == 0.0

    def test_dac_has_overhead_but_lower_total(self):
        base = energy_of(simulate(_launch(), CFG))
        dac = energy_of(run_dac(_launch(), CFG))
        assert dac.dac_overhead > 0
        norm = dac.normalized_to(base)
        assert norm["total"] < 1.1          # never dramatically worse
        assert 0 < norm["dac_overhead"] < 0.1   # small overhead (§5.6)

    def test_static_scales_with_cycles(self):
        short = energy_of(simulate(_launch(), CFG))
        long_cfg = GPUConfig(num_sms=1).with_perfect_memory()
        fast = energy_of(simulate(_launch(), long_cfg))
        assert fast.static < short.static

    def test_normalized_keys(self):
        base = energy_of(simulate(_launch(), CFG))
        norm = base.normalized_to(base)
        assert norm["total"] == pytest.approx(1.0)
        assert set(norm) == {"dac_overhead", "alu", "register",
                             "other_dynamic", "static", "total"}


class TestAreaModel:
    def test_matches_paper_overhead(self):
        report = area_report()
        # Paper §4.8: 1.06 %; our per-entry sizes reproduce ~1.08 %.
        assert report.overhead_fraction == pytest.approx(0.0106, abs=0.002)

    def test_sram_budget_near_6kb(self):
        # Paper: "the various SRAM components ... add 6 KB per SM".
        assert dac_sram_bytes(GPUConfig().dac) == pytest.approx(6 * 1024,
                                                                rel=0.05)

    def test_components_positive(self):
        report = area_report()
        assert report.sram_mm2_per_sm > 0
        assert report.alu_mm2_per_sm == pytest.approx(0.16, abs=0.01)
        assert report.total_mm2 < 10

    def test_table_renders(self):
        text = area_report().table()
        assert "Overhead" in text and "%" in text

    def test_table_pinned(self):
        """``repro area`` output, byte for byte."""
        assert area_report().table() == (
            "SRAM per SM          6241 B  0.213 mm2\n"
            "ALUs per SM                    0.160 mm2\n"
            "Total (15 SMs)               5.60 mm2\n"
            "Die                          520 mm2\n"
            "Overhead                     1.08 %")
