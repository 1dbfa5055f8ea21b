"""Retry policy: bounded, backed-off retries of a failed operation.

A :class:`RetryPolicy` decides, after a failure, whether the caller may
try again and how long to wait first.  The dispatcher uses one for a
worker handshake that misses its deadline, the journal for a transient
write error.  The delay is exponential with a cap -- failure storms get
geometrically rarer retries instead of a tight loop -- and a pure
function of the attempt number, so the same failures produce the same
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        Upper bound on the delay.
    """

    max_retries: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_cap: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0 seconds")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_cap < 0:
            raise ValueError("backoff_cap must be >= 0 seconds")

    # ------------------------------------------------------------------
    def allows(self, retries_done: int) -> bool:
        """May the supervisor relaunch after *retries_done* relaunches?"""
        return retries_done < self.max_retries

    def backoff(self, attempt: int) -> float:
        """Delay in seconds before relaunch number *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_cap,
        )
