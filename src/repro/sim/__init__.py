"""Cycle-level SIMT GPU timing model (the GPGPU-sim substitute)."""

from ..config import (
    CacheConfig,
    DACConfig,
    DRAMConfig,
    GPUConfig,
    MTAConfig,
)
from ..stats import Stats
from .executor import WarpExecutor, alu
from .functional import (
    FunctionalInterpreter,
    FunctionalResult,
    TraceEntry,
    run_functional,
)
from .gpu import GPU, DeadlockError, RunResult, SimulationHang, simulate
from .launch import CTAState, GlobalMemory, KernelLaunch
from .scheduler import Scheduler
from .simt_stack import SIMTStack
from .sm import SM
from .warp import WarpContext

__all__ = [
    "CTAState", "CacheConfig", "DACConfig", "DRAMConfig",
    "DeadlockError", "FunctionalInterpreter", "FunctionalResult", "GPU",
    "GPUConfig", "GlobalMemory", "KernelLaunch", "MTAConfig", "RunResult",
    "SIMTStack", "SM", "Scheduler", "SimulationHang", "Stats", "TraceEntry",
    "WarpContext", "WarpExecutor", "alu", "run_functional", "simulate",
]
