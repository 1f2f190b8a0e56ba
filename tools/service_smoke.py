#!/usr/bin/env python3
"""CI smoke test for the experiment daemon.

Run against an already-listening daemon (``$REPRO_SERVICE_SOCKET``):
submits one small grid from two concurrent clients, SIGKILLs a worker
mid-flight, and requires both clients to receive the complete grid —
the minimum end-to-end proof that supervision (respawn + retry + dedup)
works outside pytest.  After the ``shutdown`` op it also requires every
worker pid that ``status`` ever reported (the respawned one included) to
exit within 10 s: no worker outlives the daemon.  Exits non-zero on any
shortfall; the caller owns the daemon's lifecycle (this script only
sends the ``shutdown`` op).
"""

import os
import signal
import sys
import threading
import time

from repro.harness import experiment_config
from repro.harness.client import ServiceClient, try_connect


def main() -> int:
    cfg = experiment_config(num_sms=2)
    grid = [(abbr, tech, cfg)
            for abbr in ("CP", "ST") for tech in ("baseline", "dac")]

    deadline = time.monotonic() + 60.0
    client = None
    while client is None and time.monotonic() < deadline:
        client = try_connect()
        if client is None:
            time.sleep(0.2)
    if client is None:
        print("service smoke: daemon never answered a ping",
              file=sys.stderr)
        return 1
    client.close()

    outcomes: dict = {}

    def run_one_client(name: str) -> None:
        with ServiceClient() as conn:
            outcomes[name] = conn.run_tasks(grid, "tiny")

    threads = [threading.Thread(target=run_one_client, args=(name,))
               for name in ("a", "b")]
    for thread in threads:
        thread.start()

    with ServiceClient() as conn:
        workers = conn.status()["workers"]
        pids = {w["pid"] for w in workers}
        os.kill(workers[0]["pid"], signal.SIGKILL)
        print(f"service smoke: killed worker pid={workers[0]['pid']}")

    for thread in threads:
        thread.join(timeout=120.0)
    if any(thread.is_alive() for thread in threads):
        print("service smoke: a client never finished", file=sys.stderr)
        return 1

    status = 0
    for name in ("a", "b"):
        results, quarantined, failures = outcomes[name]
        if quarantined or failures or len(results) != len(grid):
            print(f"service smoke: client {name} incomplete "
                  f"({len(results)}/{len(grid)} done, "
                  f"{len(quarantined)} quarantined, "
                  f"{len(failures)} failed)", file=sys.stderr)
            status = 1

    with ServiceClient() as conn:
        # The watchdog notices the kill on its next poll tick; give it a
        # moment rather than racing a single status read.
        deadline = time.monotonic() + 10.0
        respawns = 0
        while respawns < 1 and time.monotonic() < deadline:
            workers = conn.status()["workers"]
            pids.update(w["pid"] for w in workers)
            respawns = sum(w["respawns"] for w in workers)
            if respawns < 1:
                time.sleep(0.1)
        if respawns < 1:
            print("service smoke: no worker respawn recorded",
                  file=sys.stderr)
            status = 1
        conn.shutdown()

    deadline = time.monotonic() + 10.0
    while pids and time.monotonic() < deadline:
        time.sleep(0.1)
        pids = {pid for pid in pids if _exists(pid)}
    if pids:
        print(f"service smoke: workers outlived the daemon: "
              f"{sorted(pids)}", file=sys.stderr)
        status = 1
    if status == 0:
        print("service smoke: ok")
    return status


def _exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
