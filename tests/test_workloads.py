"""Tests for the benchmark registry and the 29 workloads (Table 2)."""

import numpy as np
import pytest

from repro.compiler.decouple import decouple
from repro.sim.launch import GlobalMemory
from repro.workloads import (
    ALL_BENCHMARKS,
    BY_ABBR,
    COMPUTE_ORDER,
    MEMORY_ORDER,
    by_category,
    get,
    table2,
)


class TestRegistry:
    def test_twenty_nine_benchmarks(self):
        assert len(ALL_BENCHMARKS) == 29

    def test_category_split_matches_table2(self):
        assert len(by_category("compute")) == 11
        assert len(by_category("memory")) == 18

    def test_orders_cover_everything(self):
        assert sorted(COMPUTE_ORDER + MEMORY_ORDER) == sorted(BY_ABBR)

    def test_get_is_case_insensitive(self):
        assert get("bfs").abbr == "BFS"
        with pytest.raises(KeyError):
            get("NOPE")

    def test_bad_category(self):
        with pytest.raises(ValueError):
            by_category("weird")

    def test_table2_renders(self):
        text = table2()
        assert "Compute Intensive" in text and "Memory Intensive" in text
        for b in ALL_BENCHMARKS:
            assert b.abbr in text

    def test_suites_are_papers(self):
        assert {b.suite for b in ALL_BENCHMARKS} <= {"G", "R", "C", "P"}


def _check_launch(abbr: str, scale: str) -> None:
    launch = get(abbr).launch(scale)
    assert launch.num_blocks >= 1
    assert 32 <= launch.threads_per_block <= 1024
    # Every launch runs on the default device memory, with headroom.
    assert launch.memory.size_bytes == GlobalMemory().size_bytes
    assert launch.memory._next_free <= launch.memory.size_bytes // 4


class TestLaunchConstruction:
    @pytest.mark.parametrize("abbr", sorted(BY_ABBR))
    def test_tiny_launch_builds(self, abbr):
        _check_launch(abbr, "tiny")

    @pytest.mark.parametrize("abbr", sorted(BY_ABBR))
    def test_paper_launch_builds(self, abbr):
        _check_launch(abbr, "paper")

    @pytest.mark.parametrize("abbr", sorted(BY_ABBR))
    def test_launches_are_fresh(self, abbr):
        a = get(abbr).launch("tiny")
        b = get(abbr).launch("tiny")
        assert a.memory is not b.memory
        np.testing.assert_array_equal(a.memory.words, b.memory.words)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get("CP").launch("huge")


class TestKernelStructure:
    @pytest.mark.parametrize("abbr", sorted(BY_ABBR))
    def test_kernel_decouples_cleanly(self, abbr):
        """The decoupler must run without error on every benchmark and
        produce paired streams when it decouples at all."""
        program = decouple(get(abbr).launch("tiny").kernel)
        if program.is_decoupled:
            assert len(program.affine) > 0
            assert program.nonaffine.instructions[-1].is_exit

    def test_irregular_benchmarks_decouple_little(self):
        """BFS and BT are the paper's low-coverage cases (§5.5)."""
        for abbr in ("BFS", "BT"):
            program = decouple(get(abbr).launch("tiny").kernel)
            total = len(program.original)
            assert program.removed_instructions <= total * 0.35

    def test_streaming_benchmarks_decouple_heavily(self):
        for abbr in ("LIB", "MT", "KM"):
            program = decouple(get(abbr).launch("tiny").kernel)
            assert program.removed_instructions >= len(program.original) * 0.3

    def test_mt_exercises_mod_tuples(self):
        from repro.isa import Opcode
        kernel = get("MT").launch("tiny").kernel
        assert any(i.opcode is Opcode.REM for i in kernel.instructions)
        program = decouple(kernel)
        assert program.decoupled_loads >= 1

    def test_hs_pf_exercise_clamps(self):
        from repro.isa import Opcode
        for abbr in ("HS", "PF"):
            kernel = get(abbr).launch("tiny").kernel
            ops = {i.opcode for i in kernel.instructions}
            assert Opcode.MIN in ops or Opcode.MAX in ops

    def test_bp_uses_16_wide_blocks(self):
        launch = get("BP").launch("paper")
        assert launch.block_dim[0] == 16      # CAE's weak spot (§5.4)

    def test_barrier_benchmarks(self):
        for abbr in ("BP", "HI", "SP", "PF"):
            kernel = get(abbr).launch("tiny").kernel
            assert kernel.has_barrier()
