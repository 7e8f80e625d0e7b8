"""Agent schedulers: assign Compute-Units to resource slots.

Two of the paper's schedulers:

* :class:`ContinuousScheduler` — the default HPC scheduler: allocates
  CPU cores over the allocation's nodes (filling nodes in order,
  spanning nodes for multi-core units), FIFO with no overtaking.
* :class:`YarnAgentScheduler` — the paper's YARN extension (§III-C):
  sizes slots by *memory in addition to cores*, with capacity read from
  the YARN ResourceManager's REST-style metrics (``availableMB`` /
  ``availableVirtualCores``); the actual container placement is then
  performed by YARN itself when the unit's application runs.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush, heapreplace
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.node import Node
from repro.sim.engine import Environment, Event, SimulationError


class SlotAllocation:
    """Cores granted to one unit: (node, cores) pairs.

    YARN slots carry no node assignments (placement is YARN's job);
    for those, ``cores`` records the reserved vcount explicitly so
    ``release`` returns exactly what ``allocate`` took.
    """

    def __init__(self, assignments: List[Tuple[Node, int]],
                 memory_mb: int = 0, cores: Optional[int] = None):
        self.assignments = assignments
        self.memory_mb = memory_mb
        self._cores = cores

    @property
    def nodes(self) -> List[Node]:
        return [node for node, _ in self.assignments]

    @property
    def total_cores(self) -> int:
        if self._cores is not None:
            return self._cores
        return sum(c for _, c in self.assignments)

    @property
    def primary_node(self) -> Node:
        return self.assignments[0][0]


class ContinuousScheduler:
    """Core-counting FIFO scheduler over the allocation's nodes.

    ``policy`` controls placement of single-node-fitting requests:
    ``"pack"`` fills nodes in order (RP's default — concentrates load);
    ``"spread"`` picks the node with the most free cores (what the
    paper's task/node ratios imply: 8 tasks on 1 node, 16 on 2, 32 on
    3 spreads evenly).

    Counter cross-checks run whenever the environment's
    :class:`~repro.analysis.sanitizer.SimSanitizer` is installed
    (``REPRO_SANITIZE=1`` / ``Session(sanitize=True)``).
    """

    def __init__(self, env: Environment, nodes: List[Node],
                 policy: str = "pack"):
        if not nodes:
            raise SimulationError("scheduler needs nodes")
        if policy not in ("pack", "spread"):
            raise SimulationError(f"unknown placement policy {policy!r}")
        self.env = env
        self.nodes = list(nodes)
        self.policy = policy
        self._free: Dict[str, int] = {n.name: n.num_cores for n in nodes}
        self._queue: Deque[Tuple[int, Event]] = deque()
        # Capacity totals are maintained incrementally: the node set is
        # fixed for the scheduler's lifetime, and allocate/release are
        # the only paths that move cores — re-summing either per call
        # made allocate O(nodes) for no reason.
        self._total_cores = sum(n.num_cores for n in nodes)
        self._free_cores = self._total_cores
        self._waiting = 0
        #: Names of nodes removed by :meth:`deactivate_node`; releases
        #: of cores carved from them are dropped, not re-added.
        self._retired: set = set()
        # Spread-policy order cache: valid while no free count changed.
        self._free_version = 0
        self._order_version = -1
        self._order: List[Node] = self.nodes
        # Lazy free-core index (the scale fix): construction-order node
        # array + per-index free counts mirroring ``_free``, plus a lazy
        # heap per policy.  Entries are validated against the current
        # free count on pop, so no entry is ever removed eagerly:
        #   spread — (-free, idx): valid top == node with the most free
        #     cores, earliest construction index on ties (exactly the
        #     first-max linear scan it replaces);
        #   pack — idx for nodes with free > 0: valid top == earliest
        #     node with capacity (exactly the in-order walk it replaces).
        # Retired nodes get a -1 sentinel no live entry can match.
        self._all_nodes: List[Node] = self.nodes[:]
        self._index: Dict[str, int] = {
            n.name: i for i, n in enumerate(self._all_nodes)}
        self._free_arr: List[int] = [n.num_cores for n in self._all_nodes]
        self._is_spread = policy == "spread"
        if self._is_spread:
            self._spread_heap: List[Tuple[int, int]] = [
                (-f, i) for i, f in enumerate(self._free_arr)]
            heapify(self._spread_heap)
            self._pack_heap: List[int] = []
        else:
            self._spread_heap = []
            self._pack_heap = list(range(len(self._all_nodes)))
        # Gauge handles cached per telemetry hub: _report runs on every
        # drain, and the registry lookup (sorted label key + dict get)
        # dominates the actual sample append at scale.
        self._report_gauges: Optional[tuple] = None

    @property
    def total_cores(self) -> int:
        return self._total_cores

    @property
    def free_cores(self) -> int:
        return self._free_cores

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint: the full free-core ledger.

        Per-node free counts (name-sorted) pin down placement state
        exactly; the aggregate counters alone could mask a transposed
        allocation after restore-replay.
        """
        return {"kind": "continuous_scheduler",
                "free": dict(sorted(self._free.items())),
                "free_cores": self._free_cores,
                "total_cores": self._total_cores,
                "waiting": self._waiting}

    def allocate(self, cores: int) -> Event:
        """Request ``cores``; event fires with a :class:`SlotAllocation`."""
        if cores < 1:
            raise SimulationError("must request >= 1 core")
        if cores > self._total_cores:
            raise SimulationError(
                f"unit wants {cores} cores, allocation has "
                f"{self._total_cores}")
        event = Event(self.env)
        self._queue.append((cores, event))
        self._waiting += 1
        self._drain()
        return event

    def release(self, allocation: SlotAllocation) -> None:
        free = self._free
        retired = self._retired
        free_arr = self._free_arr
        index = self._index
        is_spread = self._is_spread
        returned = 0
        for node, cores in allocation.assignments:
            name = node.name
            if retired and name in retired:
                # The node died while this unit held it; its cores left
                # the capacity pool with it.
                continue
            idx = index[name]
            old = free_arr[idx]
            new = old + cores
            free_arr[idx] = new
            free[name] = new
            if is_spread:
                heappush(self._spread_heap, (-new, idx))
            elif old == 0:
                heappush(self._pack_heap, idx)
            returned += cores
        self._free_cores += returned
        self._free_version += 1
        # Compact the lazy heaps once stale entries dominate: every
        # release pushes a fresh entry while its stale predecessor only
        # leaves when popped, so a long allocate/release stream would
        # otherwise grow the heap (and its log factor) without bound.
        # Rebuilding from the free array keeps exactly the valid
        # entries, so placement is unchanged; the 4x threshold makes
        # the O(nodes) rebuild amortized O(1) per release.
        if is_spread:
            if len(self._spread_heap) > max(64, 4 * len(free_arr)):
                self._spread_heap = [
                    (-f, i) for i, f in enumerate(free_arr) if f > 0]
                heapify(self._spread_heap)
        elif len(self._pack_heap) > max(64, 4 * len(free_arr)):
            self._pack_heap = [
                i for i, f in enumerate(free_arr) if f > 0]
            # Already index-sorted, hence a valid min-heap.
        self._drain()

    def deactivate_node(self, node: Node) -> None:
        """Remove a dead node from the capacity pool.

        Free cores on the node vanish from the ledger immediately;
        cores still held by executing units are forgotten when their
        allocations release (see :meth:`release`), so the sanitizer's
        conservation checks hold at every step.  Queued requests that
        no longer fit the shrunk allocation are failed rather than left
        to deadlock the FIFO queue.
        """
        name = node.name
        if name in self._retired:
            return
        self._retired.add(name)
        # Sentinel: stale heap entries for the node can never validate.
        self._free_arr[self._index[name]] = -1
        self.nodes = [n for n in self.nodes if n.name != name]
        if not self.nodes:
            # Whole allocation gone: fail everything still queued.
            self._total_cores = 0
            self._free_cores = 0
            self._free.clear()
        else:
            freed = self._free.pop(name, 0)
            self._free_cores -= freed
            self._total_cores -= node.num_cores
        self._free_version += 1
        survivors: Deque[Tuple[int, Event]] = deque()
        for cores, event in self._queue:
            if not event._triggered and cores > self._total_cores:
                self._waiting -= 1
                event.fail(SimulationError(
                    f"allocation lost node {name}: {cores}-core request "
                    f"exceeds the remaining {self._total_cores} cores"))
            else:
                survivors.append((cores, event))
        self._queue = survivors
        self._drain()

    def _report(self) -> None:
        """Queue-depth and occupancy gauges (no-op unless installed)."""
        tel = self.env.telemetry
        if tel is None:
            return
        gauges = self._report_gauges
        if gauges is None or gauges[0] is not tel:
            gauges = (tel,
                      tel.gauge("agent.scheduler.queue_depth",
                                backend="continuous"),
                      tel.gauge("agent.executor.busy_cores",
                                backend="continuous"),
                      tel.gauge("agent.executor.occupancy",
                                backend="continuous"))
            self._report_gauges = gauges
        total = self._total_cores
        busy = total - self._free_cores
        gauges[1].set(self._waiting)
        gauges[2].set(busy)
        gauges[3].set(busy / total if total else 0.0)

    def _drain(self) -> None:
        # FIFO, no overtaking: a blocked head blocks the queue (matches
        # RP's continuous scheduler and keeps large units from starving).
        try:
            while self._queue:
                cores, event = self._queue[0]
                if event._triggered:
                    self._queue.popleft()
                    self._waiting -= 1
                    continue
                if cores > self._free_cores:
                    return
                self._queue.popleft()
                self._waiting -= 1
                event.succeed(self._carve(cores))
        finally:
            sanitizer = self.env.sanitizer
            if sanitizer is not None:
                sanitizer.check_scheduler(self)
            self._report()

    def _spread_order(self) -> List[Node]:
        """Nodes by descending free cores, memoised until occupancy moves.

        Always derived from the construction order (stable sort), so a
        cache hit and a fresh sort give the same placement.
        """
        if self._order_version != self._free_version:
            free = self._free
            self._order = sorted(self.nodes, key=lambda n: -free[n.name])
            self._order_version = self._free_version
        return self._order

    def _carve(self, cores: int) -> SlotAllocation:
        free_map = self._free
        free_arr = self._free_arr
        index = self._index
        if self._is_spread:
            # Fast path: the request fits on the single most-free node
            # (earliest such node in construction order — identical to
            # the head of the stable descending sort).  The lazy heap
            # makes this O(log nodes) amortized: stale entries are
            # discarded on peek, and every free-count change pushed a
            # fresh one, so the first valid top *is* the first max the
            # old linear rescan found.
            heap = self._spread_heap
            while heap:
                negf, idx = heap[0]
                if free_arr[idx] == -negf:
                    if -negf < cores:
                        break
                    node = self._all_nodes[idx]
                    new = -negf - cores
                    free_arr[idx] = new
                    free_map[node.name] = new
                    heapreplace(heap, (-new, idx))
                    self._free_cores -= cores
                    self._free_version += 1
                    return SlotAllocation([(node, cores)])
                heappop(heap)
            # Multi-node request: rare, keeps the stable descending sort.
            assignments: List[Tuple[Node, int]] = []
            remaining = cores
            for node in self._spread_order():
                free = free_map[node.name]
                if free <= 0:
                    continue
                take = free if free < remaining else remaining
                new = free - take
                idx = index[node.name]
                free_map[node.name] = new
                free_arr[idx] = new
                heappush(heap, (-new, idx))
                assignments.append((node, take))
                remaining -= take
                if remaining == 0:
                    break
            assert remaining == 0, "free_cores accounting broken"
            self._free_cores -= cores
            self._free_version += 1
            return SlotAllocation(assignments)
        # Pack: fill the earliest nodes with capacity.  The lazy min-
        # index heap replaces the front-to-back walk (O(nodes) per carve
        # once early nodes fill up) with the same fill order: the valid
        # top is always the first node in construction order with
        # free > 0.  Nodes are popped exactly when drained to zero;
        # release pushes them back on the 0 -> positive transition.
        heap = self._pack_heap
        all_nodes = self._all_nodes
        assignments = []
        remaining = cores
        while remaining:
            assert heap, "free_cores accounting broken"
            idx = heap[0]
            free = free_arr[idx]
            if free <= 0:
                heappop(heap)
                continue
            node = all_nodes[idx]
            take = free if free < remaining else remaining
            new = free - take
            free_arr[idx] = new
            free_map[node.name] = new
            if new == 0:
                heappop(heap)
            assignments.append((node, take))
            remaining -= take
        self._free_cores -= cores
        self._free_version += 1
        return SlotAllocation(assignments)


class YarnAgentScheduler:
    """Cores **and memory** scheduler, fed by YARN cluster metrics.

    The agent throttles unit submission so the sum of in-flight slot
    reservations never exceeds what the RM reports as available —
    exactly how the paper's scheduler uses the REST API.  Node choice
    is left to YARN's own scheduler at container-allocation time.
    """

    def __init__(self, env: Environment, resource_manager,
                 am_memory_mb: int = 512):
        self.env = env
        self.rm = resource_manager
        self.am_memory_mb = am_memory_mb
        self._reserved_mb = 0
        self._reserved_cores = 0
        self._queue: Deque[Tuple[int, int, Event]] = deque()
        self._waiting = 0
        self._report_gauges: Optional[tuple] = None

    def cluster_state(self) -> Dict[str, float]:
        """The RM metrics snapshot the scheduler works from."""
        return self.rm.cluster_metrics()

    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint: reservations + RM-visible capacity."""
        return {"kind": "yarn_agent_scheduler",
                "reserved_mb": self._reserved_mb,
                "reserved_cores": self._reserved_cores,
                "waiting": self._waiting,
                "cluster": {k: v for k, v in
                            sorted(self.cluster_state().items())}}

    def allocate(self, cores: int, memory_mb: int) -> Event:
        """Reserve a (cores, memory) slot; fires with a SlotAllocation."""
        metrics = self.cluster_state()
        need_mb = memory_mb + self.am_memory_mb
        if need_mb > metrics["totalMB"] or cores > metrics["totalVirtualCores"]:
            raise SimulationError(
                f"unit slot ({need_mb} MB, {cores} vcores) exceeds the "
                f"YARN cluster ({metrics['totalMB']} MB, "
                f"{metrics['totalVirtualCores']} vcores)")
        event = Event(self.env)
        self._queue.append((cores, need_mb, event))
        self._waiting += 1
        self._drain()
        return event

    def release(self, allocation: SlotAllocation) -> None:
        self._reserved_mb -= allocation.memory_mb
        self._reserved_cores -= allocation.total_cores
        self._drain()

    def _drain(self) -> None:
        metrics = self.cluster_state()
        try:
            while self._queue:
                cores, need_mb, event = self._queue[0]
                if event.triggered:
                    self._queue.popleft()
                    self._waiting -= 1
                    continue
                # Throttle against the RM-reported capacity.  Our own
                # in-flight reservations stand in for allocations that
                # have not manifested in the metrics yet
                # (submission lag).
                if (self._reserved_mb + need_mb > metrics["totalMB"]
                        or self._reserved_cores + cores
                        > metrics["totalVirtualCores"]):
                    return
                self._queue.popleft()
                self._waiting -= 1
                self._reserved_mb += need_mb
                self._reserved_cores += cores
                # Node placement is YARN's job; the slot is cluster-wide.
                event.succeed(SlotAllocation([], memory_mb=need_mb,
                                             cores=cores))
        finally:
            sanitizer = self.env.sanitizer
            if sanitizer is not None:
                sanitizer.check_yarn_agent_scheduler(self)
            self._report(metrics)

    def _report(self, metrics: Dict[str, float]) -> None:
        """Queue-depth and occupancy gauges (no-op unless installed)."""
        tel = self.env.telemetry
        if tel is None:
            return
        gauges = self._report_gauges
        if gauges is None or gauges[0] is not tel:
            gauges = (tel,
                      tel.gauge("agent.scheduler.queue_depth",
                                backend="yarn"),
                      tel.gauge("agent.executor.busy_cores",
                                backend="yarn"),
                      tel.gauge("agent.executor.occupancy",
                                backend="yarn"),
                      tel.gauge("agent.executor.reserved_mb",
                                backend="yarn"))
            self._report_gauges = gauges
        gauges[1].set(self._waiting)
        gauges[2].set(self._reserved_cores)
        total = metrics["totalVirtualCores"]
        gauges[3].set(self._reserved_cores / total if total else 0.0)
        gauges[4].set(self._reserved_mb)
