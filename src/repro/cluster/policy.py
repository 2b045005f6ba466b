"""The failure policy engine: how a coordinator treats a failing worker.

PR 4's coordinator improvised per-failure: one ``reprobe_interval`` for
every dead worker, re-probed in lockstep, retried without limit.  This
module makes the policy explicit and per-worker:

- :class:`FailurePolicy` — the knobs in one value object: how many
  consecutive failures trip the breaker, how re-probe backoff grows,
  how much per-worker jitter staggers a fleet, and how many failover
  retries one run may spend before degrading to local execution.
- :class:`CircuitBreaker` — one worker's failure state machine::

      CLOSED --[threshold consecutive failures]--> OPEN
      OPEN   --[backoff elapsed]-----------------> HALF_OPEN
      HALF_OPEN --[probe chunk ok]---------------> CLOSED
      HALF_OPEN --[probe chunk fails]------------> OPEN (longer backoff)

  *Closed* workers are scheduled normally; failures below the
  threshold just delay the next health probe by a jittered re-probe
  interval (each breaker draws its own delays from an address-seeded
  RNG, so a recovering host is never hit by a probe thundering herd).
  An *open* breaker swallows probes entirely until its backoff —
  exponential in the consecutive-failure count, jittered, capped —
  elapses.  *Half-open* admits exactly one trial ("probe") chunk; its
  outcome closes the breaker or re-opens it with a longer backoff.

Timing here shapes *scheduling*, never results: a chunk executed after
any sequence of breaker transitions still runs at its absolute trial
indices, so labels stay byte-identical to a local build no matter how the
fleet flapped.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ClusterError

__all__ = ["FailurePolicy", "CircuitBreaker", "BREAKER_STATES"]

#: breaker states, in gauge-value order (repro_cluster_breaker_state)
BREAKER_STATES = ("closed", "open", "half_open")


@dataclass(frozen=True)
class FailurePolicy:
    """Every failure-handling knob of a coordinator, in one place.

    Parameters
    ----------
    breaker_threshold:
        Consecutive failures (probe or chunk) that trip a worker's
        breaker from closed to open.
    reprobe_interval:
        Base delay before re-probing a worker that failed *below* the
        threshold; jittered per worker (PR 4's fixed knob, kept as the
        backoff floor).
    backoff_factor:
        Multiplier applied per consecutive failure past the threshold.
    backoff_max:
        Ceiling on any computed backoff, seconds.
    jitter:
        Fraction of every delay randomized per worker: a delay ``d``
        becomes uniform in ``[d * (1 - jitter), d * (1 + jitter)]``.
    retry_budget:
        Failover retries one run may spend across all its chunks;
        ``None`` sizes the budget at twice the chunk count.  When the
        budget runs dry, remaining failures degrade straight to local
        execution with the reason recorded — a flapping fleet cannot
        retry forever.
    """

    breaker_threshold: int = 3
    reprobe_interval: float = 10.0
    backoff_factor: float = 2.0
    backoff_max: float = 120.0
    jitter: float = 0.5
    retry_budget: int | None = None

    def __post_init__(self):
        if self.breaker_threshold < 1:
            raise ClusterError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.reprobe_interval < 0:
            raise ClusterError(
                f"reprobe_interval must be >= 0, got {self.reprobe_interval}"
            )
        if self.backoff_factor < 1.0:
            raise ClusterError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ClusterError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ClusterError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )

    def budget_for(self, chunks: int) -> int:
        """The retry budget for a run of ``chunks`` chunks."""
        if self.retry_budget is not None:
            return self.retry_budget
        return 2 * chunks

    def backoff_for(self, consecutive_failures: int) -> float:
        """Un-jittered backoff after ``consecutive_failures`` failures.

        Below the threshold this is the flat re-probe interval; at and
        past it, the interval grows geometrically, capped.
        """
        if consecutive_failures < self.breaker_threshold:
            return min(self.reprobe_interval, self.backoff_max)
        exponent = consecutive_failures - self.breaker_threshold
        return min(
            self.reprobe_interval * (self.backoff_factor ** exponent)
            if self.reprobe_interval > 0
            else 0.0,
            self.backoff_max,
        )


class CircuitBreaker:
    """One worker's failure state machine (see the module docstring).

    Not thread-safe by itself — the coordinator already serializes slot
    mutation under its registry lock, and doubling the locking here
    would only invite ordering bugs.  ``clock`` is injectable so the
    tests can step time instead of sleeping.

    ``on_transition(new_state)`` fires on every state *change* — the
    coordinator hangs its breaker gauge and transition counter there.
    """

    __slots__ = (
        "policy", "state", "consecutive_failures", "next_attempt_at",
        "opened_count", "_half_open_inflight", "_rng", "_clock",
        "_on_transition",
    )

    def __init__(
        self,
        policy: FailurePolicy,
        seed: object = None,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str], None] | None = None,
    ):
        self.policy = policy
        self.state = "closed"
        self.consecutive_failures = 0
        #: earliest monotonic time the next probe attempt is allowed
        self.next_attempt_at = float("-inf")
        self.opened_count = 0
        self._half_open_inflight = False
        # address-seeded: each worker draws its own jitter sequence, so
        # a fleet that failed together never re-probes in lockstep
        self._rng = random.Random(seed if seed is not None else None)
        self._clock = clock
        self._on_transition = on_transition

    def _transition(self, state: str) -> None:
        if state != self.state:
            self.state = state
            if self._on_transition is not None:
                self._on_transition(state)

    def _jittered(self, delay: float) -> float:
        jitter = self.policy.jitter
        if jitter <= 0.0 or delay <= 0.0:
            return delay
        return delay * (1.0 - jitter + 2.0 * jitter * self._rng.random())

    # -- queries ----------------------------------------------------------------

    def allows_dispatch(self) -> bool:
        """Whether normal chunk scheduling may use this worker now."""
        return self.state == "closed"

    def try_acquire_probe(self) -> bool:
        """Claim the right to probe (healthz, and in half-open one chunk).

        Closed: allowed once the jittered re-probe delay has elapsed.
        Open: allowed only when the backoff elapses — which moves the
        breaker to half-open.  Half-open: denied while the single probe
        attempt is already in flight.
        """
        now = self._clock()
        if self.state == "closed":
            return now >= self.next_attempt_at
        if self.state == "open":
            if now < self.next_attempt_at:
                return False
            self._transition("half_open")
            self._half_open_inflight = False
            return True
        return not self._half_open_inflight

    def try_acquire_half_open_chunk(self) -> bool:
        """Claim the half-open state's single probe chunk."""
        if self.state != "half_open" or self._half_open_inflight:
            return False
        self._half_open_inflight = True
        return True

    # -- outcomes ---------------------------------------------------------------

    def record_success(self) -> None:
        """A probe chunk (or any chunk) completed: close and reset."""
        self.consecutive_failures = 0
        self.next_attempt_at = float("-inf")
        self._half_open_inflight = False
        self._transition("closed")

    def record_failure(self) -> None:
        """A probe or chunk failed: back off, maybe trip the breaker."""
        self.consecutive_failures += 1
        self._half_open_inflight = False
        tripped = (
            self.state in ("open", "half_open")
            or self.consecutive_failures >= self.policy.breaker_threshold
        )
        delay = self._jittered(
            self.policy.backoff_for(self.consecutive_failures)
        )
        self.next_attempt_at = self._clock() + delay
        if tripped:
            if self.state != "open":
                self.opened_count += 1
            self._transition("open")

    # -- observability ----------------------------------------------------------

    def view(self) -> dict[str, object]:
        """The breaker's state for ``stats()`` / ``fleet status``."""
        now = self._clock()
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "retry_in": (
                None
                if self.next_attempt_at == float("-inf")
                else max(0.0, self.next_attempt_at - now)
            ),
            "opened": self.opened_count,
        }
