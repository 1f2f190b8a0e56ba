"""Capped exponential retry backoff with deterministic jitter.

The schedule of the service client's ``busy`` retries, so N clients
hammering one daemon decorrelate instead of thundering in lock-step, yet
any given (seed, attempt) pair always sleeps the same amount
(reproducible tests, reproducible logs).

The delay for attempt *k* (0-based) is::

    raw    = min(cap, base * 2**k)
    jitter = raw * jitter_frac * U(seed, k)        # U in [0, 1), hashed
    delay  = min(cap, raw + jitter)

``U`` is derived from SHA-256 of ``(seed, k)`` rather than a PRNG: no
global random state, no cross-thread interference, and two clients with
different seeds (e.g. their job digests) spread out deterministically.
"""

from __future__ import annotations

import hashlib

#: Default shape: 0.5s, 1s, 2s, ... capped at 30s, up to +25% jitter.
DEFAULT_BASE = 0.5
DEFAULT_CAP = 30.0
DEFAULT_JITTER = 0.25


def jitter_fraction(seed: str, attempt: int) -> float:
    """Deterministic stand-in for ``random.random()``: a uniform-ish value
    in ``[0, 1)`` fully determined by ``(seed, attempt)``."""
    digest = hashlib.sha256(f"{seed}\x00{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def backoff_delay(attempt: int, *, base: float = DEFAULT_BASE,
                  cap: float = DEFAULT_CAP, jitter: float = DEFAULT_JITTER,
                  seed: str = "") -> float:
    """Seconds to sleep before retry ``attempt`` (0-based).

    ``base <= 0`` disables sleeping entirely (tests), and the returned
    delay never exceeds ``cap`` even after jitter.
    """
    if base <= 0.0:
        return 0.0
    raw = min(cap, base * (2.0 ** max(0, attempt)))
    if jitter > 0.0:
        raw = min(cap, raw * (1.0 + jitter * jitter_fraction(seed, attempt)))
    return raw


def backoff_schedule(attempts: int, *, base: float = DEFAULT_BASE,
                     cap: float = DEFAULT_CAP,
                     jitter: float = DEFAULT_JITTER,
                     seed: str = "") -> list[float]:
    """The full delay schedule for ``attempts`` retries."""
    return [backoff_delay(k, base=base, cap=cap, jitter=jitter, seed=seed)
            for k in range(attempts)]
