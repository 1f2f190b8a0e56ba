"""Chrome Trace Event Format export.

Turns a :class:`~repro.trace.tracer.Tracer`'s event stream into the JSON
object-format trace that ``chrome://tracing`` / Perfetto load directly:
one process per SM (plus one for the memory hierarchy), one thread row per
warp slot, scheduler, and hardware unit.  Timestamps are cycles reported as
microseconds, so one trace-viewer microsecond is one simulated cycle.

Reference: "Trace Event Format" (Google), the ``ph`` codes used here:
``X`` complete events, ``i`` instant events, ``C`` counters, ``M``
metadata.
"""

from __future__ import annotations

import json

from .tracer import AFFINE_SLOT, Tracer

#: Thread-id layout inside an SM process.  Warp slots use their own ids
#: (0..warps_per_sm-1); the rows below sit above them.
_SCHED_TID_BASE = 900        # scheduler attribution timelines
_AFFINE_TID = 890            # the DAC affine warp
_UNIT_TID = 880              # AEU/PEU expansion + queue events
_CTA_TID = 870               # CTA lifecycle + barriers
_MEM_PID = 10_000            # the memory-hierarchy pseudo-process


def _tid_of(slot: int) -> int:
    return _AFFINE_TID if slot == AFFINE_SLOT else slot


def chrome_trace(tracer: Tracer) -> dict:
    """Build the Trace Event Format dict for one traced run."""
    events: list[dict] = []
    sms_seen: set[int] = set()
    mem_levels: dict[str, int] = {}

    for kind, ts, sm, tid, name, args in tracer.events:
        if kind == "mem":
            level_tid = mem_levels.setdefault(sm, len(mem_levels))
            events.append({"name": f"{sm}.{name}", "ph": "i", "s": "t",
                           "ts": float(ts), "pid": _MEM_PID,
                           "tid": level_tid, "args": args or {}})
            continue
        sms_seen.add(sm)
        if kind == "issue":
            events.append({"name": name, "ph": "X", "ts": float(ts),
                           "dur": float(args["dur"]), "pid": sm,
                           "tid": _tid_of(tid), "cat": "issue",
                           "args": {"active": args["active"]}})
        elif kind == "slot":
            events.append({"name": name, "ph": "X", "ts": float(ts),
                           "dur": float(args["dur"]), "pid": sm,
                           "tid": _SCHED_TID_BASE + tid, "cat": "slot",
                           "args": {}})
        elif kind in ("enq", "deq", "expand", "fill", "load"):
            row = (_UNIT_TID if kind in ("enq", "expand", "fill")
                   else _tid_of(tid))
            events.append({"name": name, "ph": "i", "s": "t",
                           "ts": float(ts), "pid": sm, "tid": row,
                           "cat": kind, "args": args or {}})
        elif kind in ("barrier", "cta"):
            payload = dict(args or {})
            if "block" in payload:
                payload["block"] = list(payload["block"])
            events.append({"name": name, "ph": "i", "s": "p",
                           "ts": float(ts), "pid": sm, "tid": _CTA_TID,
                           "cat": kind, "args": payload})

    for cycle, sm, atq, pwaq, pwpq, runahead in tracer.samples:
        sms_seen.add(sm)
        events.append({"name": "queues", "ph": "C", "ts": float(cycle),
                       "pid": sm, "tid": 0,
                       "args": {"atq": atq, "pwaq": pwaq, "pwpq": pwpq}})
        events.append({"name": "runahead", "ph": "C", "ts": float(cycle),
                       "pid": sm, "tid": 0,
                       "args": {"records": runahead}})

    meta: list[dict] = []
    for sm in sorted(sms_seen):
        meta.append({"name": "process_name", "ph": "M", "pid": sm, "tid": 0,
                     "args": {"name": f"SM {sm}"}})
        meta.append({"name": "thread_name", "ph": "M", "pid": sm,
                     "tid": _AFFINE_TID, "args": {"name": "affine warp"}})
        meta.append({"name": "thread_name", "ph": "M", "pid": sm,
                     "tid": _UNIT_TID, "args": {"name": "expansion units"}})
        meta.append({"name": "thread_name", "ph": "M", "pid": sm,
                     "tid": _CTA_TID, "args": {"name": "CTA / barrier"}})
    if mem_levels:
        meta.append({"name": "process_name", "ph": "M", "pid": _MEM_PID,
                     "tid": 0, "args": {"name": "memory hierarchy"}})
        for level, tid in mem_levels.items():
            meta.append({"name": "thread_name", "ph": "M", "pid": _MEM_PID,
                         "tid": tid, "args": {"name": level}})

    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "cycles": tracer.cycles,
            "issue_slots": tracer.issue_slots,
            "unit": "1 trace us = 1 simulated cycle",
        },
    }


def write_chrome_trace(tracer: Tracer, path) -> None:
    """Serialize :func:`chrome_trace` to ``path`` as JSON."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(tracer), handle)
