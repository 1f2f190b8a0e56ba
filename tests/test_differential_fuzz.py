"""Differential fuzzing: random mini-kernels against the functional oracle.

The generator (:mod:`repro.workloads.fuzz`) only emits programs whose
final memory image is deterministic — integer-exact arithmetic,
thread-exclusive output slots, order-independent atomics — so the
functional interpreter's memory is a bit-exact oracle for baseline, CAE,
MTA, and DAC alike: every timing technique's final memory image must
equal it, seed by seed.
"""

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.harness.runner import TECHNIQUES, simulate_launch
from repro.sim.functional import run_functional
from repro.workloads.fuzz import build_fuzz_launch

SEEDS = range(100)


@pytest.fixture(scope="module")
def config():
    return GPUConfig(num_sms=1)


@pytest.fixture(scope="module")
def oracle_memory():
    """Final memory image per seed, from the functional interpreter."""
    images = {}
    for seed in SEEDS:
        launch = build_fuzz_launch(seed)
        run_functional(launch)
        images[seed] = launch.memory.words
    return images


class TestGenerator:
    def test_same_seed_same_kernel(self):
        a = build_fuzz_launch(7)
        b = build_fuzz_launch(7)
        assert [str(i) for i in a.kernel.instructions] \
            == [str(i) for i in b.kernel.instructions]
        assert np.array_equal(a.memory.words, b.memory.words)
        assert a.memory.words is not b.memory.words   # fresh images

    def test_seeds_vary(self):
        kernels = {tuple(str(i) for i in build_fuzz_launch(s)
                         .kernel.instructions)
                   for s in range(20)}
        assert len(kernels) > 10

    def test_structures_covered(self):
        """Across the seed set the generator exercises every construct."""
        text = "\n".join(
            "\n".join(str(i) for i in build_fuzz_launch(s)
                      .kernel.instructions)
            for s in SEEDS)
        assert "ld.global" in text
        assert "bra" in text
        assert "bar" in text
        assert "atom" in text
        assert "st.global" in text


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_differential(technique, config, oracle_memory):
    """Timing-model memory == functional-oracle memory, per seed."""
    for seed in SEEDS:
        launch = build_fuzz_launch(seed)
        simulate_launch(launch, technique, config)
        if not np.array_equal(oracle_memory[seed], launch.memory.words):
            diff = np.nonzero(oracle_memory[seed]
                              != launch.memory.words)[0]
            raise AssertionError(
                f"seed {seed}: {technique} memory differs from the "
                f"functional oracle at words {diff[:8].tolist()}")
