"""Retry policy: bounded, backed-off retries of a failed operation.

A :class:`RetryPolicy` decides, after a failure, whether the caller may
try again and how long to wait first.  The dispatcher uses one for a
worker handshake that misses its deadline, the journal for a transient
write error.  The delay is exponential with a cap -- failure storms get
geometrically rarer retries instead of a tight loop -- plus optional
proportional jitter so independent retriers sharing one host do not
retry in lockstep.

The jitter is *deterministic per attempt* (a hash of the attempt number
and the policy's ``jitter_seed``): the same failures produce the same
schedule, which keeps runs reproducible and the backoff unit-testable
without patching ``random``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """When and how fast to retry a failed operation -- a worker
    handshake in the dispatcher, a journal flush.

    Attributes
    ----------
    max_retries:
        Retries allowed after the initial attempt.  ``0`` disables
        retries: the first failure is final.
    backoff_base:
        Delay in seconds before the first retry.
    backoff_factor:
        Multiplier applied per further retry.
    backoff_cap:
        Upper bound on the pre-jitter delay.
    jitter:
        Fraction of the delay added as deterministic pseudo-random
        jitter (``0.1`` = up to +10%).  ``0`` disables jitter.
    jitter_seed:
        Seed folded into the per-attempt jitter hash.
    deadline:
        Overall wall-clock budget (seconds) measured from the first
        attempt; once exceeded, no further retries are allowed even if
        some remain.  ``None`` means no deadline.
    """

    max_retries: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_cap: float = 30.0
    jitter: float = 0.1
    jitter_seed: int = 0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0 seconds")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_cap < 0:
            raise ValueError("backoff_cap must be >= 0 seconds")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be > 0 seconds")

    # ------------------------------------------------------------------
    def allows(self, retries_done: int) -> bool:
        """May the supervisor relaunch after *retries_done* relaunches?"""
        return retries_done < self.max_retries

    def backoff(self, attempt: int) -> float:
        """Delay in seconds before relaunch number *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_cap,
        )
        if self.jitter > 0 and delay > 0:
            rng = random.Random(f"{self.jitter_seed}:{attempt}")
            delay += delay * self.jitter * rng.random()
        return delay

    def within_deadline(self, elapsed: float) -> bool:
        """True while *elapsed* seconds leave room for another attempt."""
        return self.deadline is None or elapsed < self.deadline
