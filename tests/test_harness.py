"""Tests for the experiment harness (runner, figure drivers, reporting)."""

import numpy as np
import pytest

from repro.harness import (
    Geomean,
    ascii_table,
    bar,
    clear_cache,
    experiment_config,
    fig6_affine_potential,
    fig16_speedup,
    fig17_instruction_counts,
    fig18_coverage,
    fig19_affine_loads,
    fig20_mta_coverage,
    fig21_energy,
    run_benchmark,
    run_one,
    table2_classification,
)
from repro.harness import runner
from repro.workloads import COMPUTE_ORDER, MEMORY_ORDER

CFG = experiment_config(num_sms=2)


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestRunner:
    def test_run_one_caches(self):
        a = run_one("CP", "baseline", "tiny", CFG)
        b = run_one("CP", "baseline", "tiny", CFG)
        assert a is b

    def test_run_benchmark_cross_checks(self):
        results = run_benchmark("LIB", "tiny", CFG,
                                techniques=("baseline", "dac"))
        assert set(results) == {"baseline", "dac"}
        ref = results["baseline"].extra["memory_words"]
        assert np.array_equal(ref, results["dac"].extra["memory_words"])

    def test_cross_check_sees_a_write_past_the_image(self, monkeypatch):
        """A stray write at the very end of device memory, far past every
        allocation, still fails the cross-technique check."""
        real = runner.run_dac

        def stray(launch, config, tracer=None):
            result = real(launch, config, tracer=tracer)
            launch.memory.words[-1] = 1.0
            return result

        monkeypatch.setattr(runner, "run_dac", stray)
        monkeypatch.setattr(runner, "_disk", None)
        clear_cache()
        with pytest.raises(AssertionError, match="dac output differs"):
            run_benchmark("LIB", "tiny", CFG,
                          techniques=("baseline", "dac"))
        clear_cache()

    def test_geomean(self):
        g = Geomean()
        g.add(2.0)
        g.add(8.0)
        assert g.mean == pytest.approx(4.0)

    def test_geomean_empty_is_nan(self):
        assert np.isnan(Geomean().mean)

    def test_experiment_config_scales_l2(self):
        cfg = experiment_config(num_sms=3)
        assert cfg.num_sms == 3
        assert cfg.l2.size_bytes < 768 * 1024


class TestReport:
    def test_ascii_table(self):
        text = ascii_table(["a", "bb"], [["x", 1.5], ["y", 2.0]], "T")
        assert "T" in text and "1.500" in text
        lines = text.splitlines()
        assert len(lines) == 5

    def test_bar(self):
        assert len(bar(2.0)) == 20
        assert bar(0.0) == ""
        assert len(bar(99.0)) == 20              # clamped


class TestFigureDrivers:
    """Each driver must produce the right keys and plausible ranges.
    Uses tiny scale on the 2-SM machine for speed."""

    def test_fig6(self):
        data = fig6_affine_potential()
        assert set(data) == set(COMPUTE_ORDER + MEMORY_ORDER + ["MEAN"])
        for values in data.values():
            assert set(values) == {"arithmetic", "memory", "branch"}
            assert all(0 <= v <= 1 for v in values.values())

    def test_fig16(self):
        data = fig16_speedup("tiny", CFG)
        assert set(data.per_bench) == set(COMPUTE_ORDER + MEMORY_ORDER)
        assert set(data.means) == {"compute", "memory", "all"}
        for entry in data.per_bench.values():
            for technique in ("cae", "mta", "dac"):
                assert 0.3 < entry[technique] < 10

    def test_fig17(self):
        data = fig17_instruction_counts("tiny", CFG)
        for abbr, v in data.items():
            if abbr == "MEAN":
                continue
            assert 0 < v["nonaffine"] <= 1.001
            assert v["affine"] >= 0
        assert data["MEAN"]["total"] <= 1.05

    def test_fig18(self):
        data = fig18_coverage("tiny", CFG)
        assert set(data) == set(COMPUTE_ORDER + ["MEAN"])
        for v in data.values():
            assert 0 <= v["dac"] <= 1 and 0 <= v["cae"] <= 1

    def test_fig19(self):
        data = fig19_affine_loads("tiny", CFG)
        assert set(data) == set(MEMORY_ORDER + ["MEAN"])
        assert all(0 <= v <= 1 for v in data.values())
        # Irregular benchmarks decouple few loads.
        assert data["BT"] < data["LIB"]

    def test_fig20(self):
        data = fig20_mta_coverage("tiny", CFG)
        assert all(0 <= v <= 1 for v in data.values())

    def test_fig21(self):
        data = fig21_energy("tiny", CFG)
        for abbr, v in data.items():
            if abbr == "MEAN":
                continue
            assert v["total"] > 0
            assert v["dac_overhead"] < 0.2

    def test_table2_keys(self):
        data = table2_classification("tiny", CFG)
        assert set(data) == set(COMPUTE_ORDER + MEMORY_ORDER)
        for v in data.values():
            assert v["measured"] in ("compute", "memory")
            assert v["perfect_speedup"] >= 0.9
