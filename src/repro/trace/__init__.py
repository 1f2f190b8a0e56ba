"""Cycle-level observability: structured event tracing, stall attribution,
queue-occupancy sampling, and Chrome-trace / CSV export.

Every run carries its issue-slot attribution in ``result.extra["stalls"]``
(:func:`stall_buckets`, :func:`stall_report`); tracing adds the per-warp
breakdown and the event timelines.  Tracing is off by default: every GPU
carries a :data:`NULL_TRACER` whose ``enabled`` flag gates all
instrumentation, so untraced (and cached / parallel) runs pay nothing, and
traced runs produce bit-identical Stats.  Pass a
:class:`Tracer` to :func:`repro.sim.gpu.simulate`, :func:`repro.core.run_dac`,
or ``run_one(..., trace=...)`` to record a run, then export it::

    tracer = Tracer(sample_interval=32)
    result = run_one("LIB", "dac", trace=tracer)
    write_chrome_trace(tracer, "lib_dac.json")   # open in chrome://tracing
    print(stall_report(result, tracer))
"""

from .chrome import chrome_trace, write_chrome_trace
from .export import (
    OCCUPANCY_COLUMNS,
    stall_buckets,
    stall_report,
    write_occupancy_csv,
)
from .tracer import (
    AFFINE_SLOT,
    NULL_TRACER,
    NullTracer,
    STALL_REASONS,
    Tracer,
)

__all__ = [
    "AFFINE_SLOT", "NULL_TRACER", "NullTracer", "OCCUPANCY_COLUMNS",
    "STALL_REASONS", "Tracer", "chrome_trace", "stall_buckets",
    "stall_report", "write_chrome_trace", "write_occupancy_csv",
]
