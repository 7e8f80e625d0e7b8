"""Weighted deficit round-robin across tenant request queues.

The dispatcher's fairness core: each drain pass walks the registered
tenants in registration order, tops every backlogged tenant's deficit
up by ``quantum * weight``, and dispatches whole requests while the
deficit covers them.  Properties the tests pin down:

* *starvation-freedom* — any tenant with backlog receives at least
  ``floor(quantum * weight)`` dispatches' worth of credit per pass, no
  matter how large another tenant's backlog is;
* *work conservation* — the drain never returns fewer items than the
  budget allows while any queue is non-empty;
* *determinism* — tenants are visited in registration order from a
  persistent cursor, so equal inputs drain identically everywhere.
"""

from __future__ import annotations

from typing import Any, Deque, Dict, List, Tuple


class WeightedDeficitRoundRobin:
    """Deficit round-robin over named queues with per-tenant weights.

    ``cost`` is 1 per request (requests are batches already; weighting
    by item count would let one tenant's giant batches starve the
    grid's cadence guarantee).
    """

    def __init__(self, quantum: float = 1.0):
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = float(quantum)
        self._weights: Dict[str, float] = {}
        self._deficits: Dict[str, float] = {}
        self._cursor = 0

    def register(self, tenant: str, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        if tenant in self._weights:
            self._weights[tenant] = float(weight)
            return
        self._weights[tenant] = float(weight)
        self._deficits[tenant] = 0.0

    def drain(self, queues: Dict[str, Deque[Any]],
              budget: int) -> List[Tuple[str, Any]]:
        """Dispatch up to ``budget`` requests fairly; returns
        ``(tenant, item)`` pairs in dispatch order.

        ``queues`` maps tenant -> deque of pending requests (only
        registered tenants are served).  Queues the caller mutates
        between calls are fine — the scheduler holds no queue state,
        only deficits and the round-robin cursor.
        """
        order = list(self._weights)
        if not order or budget <= 0:
            return []
        out: List[Tuple[str, Any]] = []
        n = len(order)
        # Passes restart from the persistent cursor so a small budget
        # does not always favour the earliest-registered tenant.
        while len(out) < budget:
            if not any(queues.get(t) for t in order):
                break
            tenant = order[self._cursor % n]
            self._cursor = (self._cursor + 1) % n
            queue = queues.get(tenant)
            if not queue:
                # Standard DRR: an idle tenant's deficit resets, so it
                # cannot bank credit and later burst past the others.
                self._deficits[tenant] = 0.0
                continue
            # One quantum per visit; visits interleave in registration
            # order, so the per-round share converges to the weights
            # while the drain itself stays work-conserving (it keeps
            # cycling until the budget or the backlog runs out).
            self._deficits[tenant] += self.quantum * self._weights[tenant]
            while queue and len(out) < budget \
                    and self._deficits[tenant] >= 1.0:
                self._deficits[tenant] -= 1.0
                out.append((tenant, queue.popleft()))
            if not queue:
                self._deficits[tenant] = 0.0
        return out
