"""ResourceManager: application lifecycle + heartbeat-driven scheduling.

Scheduling is *pull-based*, as in real YARN: every NodeManager
heartbeat is a scheduling opportunity for that node.  The pluggable
policy (:class:`FifoPolicy`, :class:`FairPolicy` or
:class:`CapacityPolicy`) decides which application's pending request,
if any, gets a container there.  AM containers are ordinary requests
tagged at highest priority.

The RM keeps a *runnable index* — the non-final apps with a non-empty
``pending`` deque, in submission order — so an opportunity costs
O(assignments made), however many applications are merely waiting.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import defaultdict, deque
from operator import attrgetter
from typing import Deque, Dict, Iterable, List, Optional

from repro.sim.engine import Environment
from repro.yarn.config import YarnConfig
from repro.yarn.node_manager import NodeManager
from repro.yarn.records import (
    ZERO_RESOURCE,
    ApplicationReport,
    ApplicationState,
    AppSpec,
    Container,
    ContainerRequest,
    ContainerState,
    YarnResource,
)

_BY_SEQ = attrgetter("seq")


class AppRecord:
    """RM-side bookkeeping for one application."""

    def __init__(self, env: Environment, app_id: str, spec: AppSpec,
                 seq: int = 0):
        self.env = env
        self.app_id = app_id
        #: Submission sequence number: the scheduling order key (the
        #: zero-padded ``app_id`` string mis-sorts past 9,999 apps).
        self.seq = seq
        self.spec = spec
        self.state = ApplicationState.NEW
        self.queue = spec.queue
        self.am_container: Optional[Container] = None
        self._am_pending = False    # the AM ask has been queued
        self.pending: Deque[ContainerRequest] = deque()
        self.granted: List[Container] = []          # awaiting AM pickup
        self.completed: List[Container] = []        # awaiting AM pickup
        self.live_containers: Dict[str, Container] = {}
        self.usage = ZERO_RESOURCE
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.final_status: Optional[str] = None
        self.diagnostics = ""
        self.finished = env.event()
        #: Set by the RM so it can keep aggregate state counts current
        #: without scanning every app on each metrics call.
        self.on_advance = None

    def advance(self, state: ApplicationState) -> None:
        previous = self.state
        self.state = state
        if self.on_advance is not None:
            self.on_advance(self, previous, state)
        if state is ApplicationState.RUNNING and self.start_time is None:
            self.start_time = self.env.now
        if state.is_final:
            self.finish_time = self.env.now
            if not self.finished.triggered:
                self.finished.succeed(self)
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("yarn", "app_state", uid=self.app_id,
                     state=state.value, queue=self.queue)


class SchedulingPolicy:
    """Decides whether an app may receive a container on a node."""

    def attach(self, rm: "ResourceManager") -> None:
        self.rm = rm

    def app_order(self, apps: List[AppRecord]) -> Iterable[AppRecord]:
        """Order in which one opportunity is offered to ``apps``.

        ``apps`` is the RM's runnable index: already in submission
        (``seq``) order and not to be mutated.  The RM stops consuming
        the result once the node or the assignment budget is exhausted.
        """
        raise NotImplementedError

    def may_allocate(self, app: AppRecord,
                     resource: YarnResource) -> bool:
        raise NotImplementedError


class FifoPolicy(SchedulingPolicy):
    """YARN's FIFO scheduler: strict submission order, no queue caps."""

    def app_order(self, apps: List[AppRecord]) -> Iterable[AppRecord]:
        return apps

    def may_allocate(self, app: AppRecord, resource: YarnResource) -> bool:
        return True


class FairPolicy(SchedulingPolicy):
    """Fair scheduler: scheduling opportunities go to the application
    furthest below its (weighted) fair share of cluster memory.

    Matches YARN's FairScheduler in spirit: ordering by
    ``usage / weight``, no hard caps — starved apps catch up first.
    """

    def __init__(self, weights: Optional[Dict[str, float]] = None):
        self.weights = dict(weights or {})
        for queue, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(f"weight for {queue!r} must be positive")

    def _weight(self, app: AppRecord) -> float:
        return self.weights.get(app.queue, 1.0)

    def app_order(self, apps: List[AppRecord]) -> Iterable[AppRecord]:
        # Stable sort: submission order breaks usage ties.
        return sorted(
            apps, key=lambda a: a.usage.memory_mb / self._weight(a))

    def may_allocate(self, app: AppRecord, resource: YarnResource) -> bool:
        return True


class CapacityPolicy(SchedulingPolicy):
    """Capacity scheduler: per-queue shares of cluster memory.

    ``queues`` maps queue name to capacity fraction; a queue may grow
    to ``max_capacity`` times its share (elasticity).  Apps in the same
    queue are FIFO.
    """

    def __init__(self, queues: Optional[Dict[str, float]] = None,
                 max_capacity: float = 1.0):
        self.queues = dict(queues or {"default": 1.0})
        self.max_capacity = max_capacity
        total = sum(self.queues.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"queue capacities must sum to 1, got {total}")

    def app_order(self, apps: List[AppRecord]) -> Iterable[AppRecord]:
        # Round-robin across queues (by name), FIFO within a queue.
        by_queue: Dict[str, List[AppRecord]] = defaultdict(list)
        for app in apps:
            by_queue[app.queue].append(app)
        lanes = [by_queue[queue] for queue in sorted(by_queue)]
        return [app for rank in itertools.zip_longest(*lanes) for app in rank
                if app is not None]

    def may_allocate(self, app: AppRecord, resource: YarnResource) -> bool:
        share = self.queues.get(app.queue)
        if share is None:
            return False  # unknown queue: rejected at submit, belt+braces
        total_mb = self.rm.total_capacity().memory_mb
        queue_used = self.rm._queue_used_mb[app.queue]
        limit = total_mb * min(1.0, share * self.max_capacity)
        return queue_used + resource.memory_mb <= limit + 1e-9


class ResourceManager:
    """The YARN master."""

    def __init__(self, env: Environment, config: Optional[YarnConfig] = None,
                 policy: Optional[SchedulingPolicy] = None):
        self.env = env
        self.config = config or YarnConfig()
        self.policy = policy or FifoPolicy()
        self.policy.attach(self)
        self.node_managers: Dict[str, NodeManager] = {}
        self.apps: Dict[str, AppRecord] = {}
        # Non-final apps only, in submission order.
        self._active_apps: Dict[str, AppRecord] = {}
        # The runnable index: active apps with a non-empty ``pending``
        # deque, sorted by ``seq``; with it the total of their queued
        # asks and the memory active apps hold per queue.  All three
        # are maintained where they change (see _request_queued,
        # _schedule_on, _allocate, _on_container_complete,
        # _track_app_state) so no scheduling opportunity rescans apps.
        self._runnable: List[AppRecord] = []
        self._pending_requests = 0
        self._queue_used_mb: Dict[str, int] = defaultdict(int)
        self._apps_running = 0
        self._apps_pending = 0
        self._app_counter = itertools.count(1)
        self._container_counter = itertools.count(1)
        self.running = False
        self._heartbeat_procs: List[object] = []
        #: Nodes declared LOST after missing ``nm_liveness_heartbeats``
        #: consecutive heartbeats; cleared again if the node comes back.
        self.lost_nodes: set = set()
        # Cluster-wide capacity tallies over *live* NMs, maintained
        # incrementally from NM liveness/usage hooks so the REST-shaped
        # metrics (the YARN agent scheduler's hottest read path) are
        # O(1) instead of an O(nodes) rescan.  ``_counted`` holds the
        # names currently folded into the aggregates.
        self._counted: set = set()
        self._agg_total_mb = 0
        self._agg_total_vc = 0
        self._agg_used_mb = 0
        self._agg_used_vc = 0
        # Backlog gauge handle cached per telemetry hub (sampled on
        # every heartbeat-driven scheduling opportunity).
        self._backlog_gauge: Optional[object] = None
        self._backlog_gauge_tel: Optional[object] = None
        self.metrics_counters = {"appsSubmitted": 0, "appsCompleted": 0,
                                 "appsFailed": 0, "appsKilled": 0,
                                 "containersAllocated": 0}

    # ----------------------------------------------------------- lifecycle
    def start(self):
        """RM daemon startup.  Generator."""
        yield self.env.timeout(self.config.rm_startup_seconds)
        self.running = True
        for nm in self.node_managers.values():
            self._start_heartbeat(nm)

    def stop(self) -> None:
        self.running = False
        for app in self.apps.values():
            if not app.state.is_final:
                self._finish_app(app, ApplicationState.KILLED, "RM shutdown")

    def register_node_manager(self, nm: NodeManager) -> None:
        self.node_managers[nm.name] = nm
        nm._attach_rm(self)
        self._nm_liveness_changed(nm)
        if self.running:
            self._start_heartbeat(nm)

    # ------------------------------------------------- incremental tallies
    def _nm_liveness_changed(self, nm: NodeManager) -> None:
        """Fold ``nm`` into (or out of) the live-capacity aggregates.

        Called by the NM on running-flips and by the Node liveness
        watcher, i.e. on every transition of ``nm.alive``; idempotent so
        redundant notifications are harmless.
        """
        counted = nm.name in self._counted
        if nm.alive and not counted:
            self._counted.add(nm.name)
            self._agg_total_mb += nm.capacity.memory_mb
            self._agg_total_vc += nm.capacity.vcores
            self._agg_used_mb += nm.used.memory_mb
            self._agg_used_vc += nm.used.vcores
        elif not nm.alive and counted:
            self._counted.discard(nm.name)
            self._agg_total_mb -= nm.capacity.memory_mb
            self._agg_total_vc -= nm.capacity.vcores
            self._agg_used_mb -= nm.used.memory_mb
            self._agg_used_vc -= nm.used.vcores

    def _nm_used_changed(self, nm: NodeManager, memory_mb: int,
                         vcores: int) -> None:
        """Apply a reserve/release delta from a *counted* NM."""
        if nm.name in self._counted:
            self._agg_used_mb += memory_mb
            self._agg_used_vc += vcores

    def _start_heartbeat(self, nm: NodeManager) -> None:
        self._heartbeat_procs.append(self.env.process(
            self._heartbeat_loop(nm), name=f"hb-{nm.name}"))

    def _heartbeat_loop(self, nm: NodeManager):
        """Heartbeat-driven scheduling *and* liveness detection for one
        NM: a node silent for ``nm_liveness_heartbeats`` consecutive
        beats is declared lost and its containers reclaimed — the RM
        half of the paper's heartbeat-timeout failure handling."""
        missed = 0
        while self.running:
            yield self.env.timeout(self.config.nm_heartbeat)
            if nm.alive:
                if missed:
                    self.lost_nodes.discard(nm.name)
                missed = 0
                self._schedule_on(nm)
            else:
                missed += 1
                if (missed >= self.config.nm_liveness_heartbeats
                        and nm.name not in self.lost_nodes):
                    self._handle_node_loss(nm)

    def _handle_node_loss(self, nm: NodeManager) -> None:
        """Declare ``nm`` LOST: kill its containers so their apps see
        the completions and the capacity ledgers stay exact."""
        self.lost_nodes.add(nm.name)
        live = [c for c in nm.containers.values() if not c.state.is_final]
        for container in live:
            nm.kill_container(container.container_id, ContainerState.KILLED,
                              f"node {nm.name} lost")
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("yarn", "node_lost", node=nm.name,
                     containers=len(live))
            tel.counter("yarn.rm.nodes_lost").inc()
        sanitizer = self.env.sanitizer
        if sanitizer is not None:
            sanitizer.check_resource_manager(self)

    # ---------------------------------------------------------- submission
    def submit_application(self, spec: AppSpec) -> AppRecord:
        """Accept an application; AM container allocation is queued."""
        if isinstance(self.policy, CapacityPolicy) and \
                spec.queue not in self.policy.queues:
            raise ValueError(f"unknown queue {spec.queue!r}")
        seq = next(self._app_counter)
        app_id = f"application_{seq:04d}"
        app = AppRecord(self.env, app_id, spec, seq)
        app.on_advance = self._track_app_state
        self.apps[app_id] = app
        self._active_apps[app_id] = app
        self.metrics_counters["appsSubmitted"] += 1
        app.advance(ApplicationState.SUBMITTED)
        self.env.timeout(self.config.rm_submit_latency).callbacks.append(
            lambda _event: self._accept(app))
        return app

    def _accept(self, app: AppRecord) -> None:
        if app.state.is_final:
            return
        app.advance(ApplicationState.ACCEPTED)
        # The AM container is a pending request served by the scheduler.
        app.pending.appendleft(ContainerRequest(
            resource=self._normalize(app.spec.am_resource),
            requested_at=self.env.now))
        app._am_pending = True
        self._request_queued(app)

    def _request_queued(self, app: AppRecord) -> None:
        """``app.pending`` just grew by one ask."""
        if app.app_id in self._active_apps:
            self._pending_requests += 1
            if len(app.pending) == 1:
                insort(self._runnable, app, key=_BY_SEQ)

    def _unindex(self, app: AppRecord) -> None:
        del self._runnable[bisect_left(self._runnable, app.seq, key=_BY_SEQ)]

    def kill_application(self, app_id: str, diagnostics: str = "killed") -> None:
        app = self.apps[app_id]
        if app.state.is_final:
            return
        for cid in list(app.live_containers):
            container = app.live_containers[cid]
            nm = self.node_managers.get(container.node_name)
            if nm is not None:
                nm.kill_container(cid, ContainerState.KILLED, diagnostics)
        self._finish_app(app, ApplicationState.KILLED, diagnostics)
        self.metrics_counters["appsKilled"] += 1

    def _finish_app(self, app: AppRecord, state: ApplicationState,
                    diagnostics: str = "") -> None:
        app.diagnostics = diagnostics
        app.advance(state)

    def _track_app_state(self, app: AppRecord, previous: ApplicationState,
                         state: ApplicationState) -> None:
        """Keep the running/pending tallies, the active-app index and
        the scheduling state that covers active apps only current;
        called from :meth:`AppRecord.advance`."""
        pending = (ApplicationState.SUBMITTED, ApplicationState.ACCEPTED)
        if previous is ApplicationState.RUNNING:
            self._apps_running -= 1
        elif previous in pending:
            self._apps_pending -= 1
        if state is ApplicationState.RUNNING:
            self._apps_running += 1
        elif state in pending:
            self._apps_pending += 1
        if state.is_final and \
                self._active_apps.pop(app.app_id, None) is not None:
            self._queue_used_mb[app.queue] -= app.usage.memory_mb
            if app.pending:
                self._pending_requests -= len(app.pending)
                self._unindex(app)

    # ---------------------------------------------------------- scheduling
    def _normalize(self, resource: YarnResource) -> YarnResource:
        """Round memory up to the scheduler increment, clamp to max."""
        increment = self.config.min_allocation_mb
        mem = max(increment,
                  ((resource.memory_mb + increment - 1) // increment)
                  * increment)
        mem = min(mem, self.config.max_allocation_mb)
        return YarnResource(memory_mb=mem, vcores=max(1, resource.vcores))

    def _schedule_on(self, nm: NodeManager) -> None:
        """One scheduling opportunity for node ``nm``.

        At most ``max_assignments_per_heartbeat`` containers are placed
        per opportunity, so load spreads over nodes (and heartbeats)
        rather than piling onto whichever NM reports first.
        """
        budget = self.config.max_assignments_per_heartbeat
        tel = self.env.telemetry
        if tel is not None:
            # The RM-side scheduling backlog, sampled at every
            # heartbeat-driven scheduling opportunity.
            if self._backlog_gauge_tel is not tel:
                self._backlog_gauge = tel.gauge("yarn.rm.heartbeat_backlog")
                self._backlog_gauge_tel = tel
            self._backlog_gauge.set(self._pending_requests)
        drained: List[AppRecord] = []
        for app in self.policy.app_order(self._runnable):
            while app.pending and budget > 0:
                request = app.pending[0]
                if not request.resource.fits_in(nm.available):
                    break
                if not self.policy.may_allocate(app, request.resource):
                    break
                if (request.preferred_nodes
                        and nm.name not in request.preferred_nodes):
                    # Delay scheduling: skip until locality relaxes.
                    if (not request.relax_locality
                            or request.missed_opportunities
                            < self.config.locality_delay_heartbeats):
                        request.missed_opportunities += 1
                        break
                app.pending.popleft()
                self._pending_requests -= 1
                self._allocate(app, request, nm)
                budget -= 1
            if not app.pending:
                drained.append(app)
            # Keep offering this node to later apps while space remains.
            if budget <= 0 or \
                    nm.available.memory_mb < self.config.min_allocation_mb:
                break
        for app in drained:     # after the walk: the index was being read
            self._unindex(app)
        sanitizer = self.env.sanitizer
        if sanitizer is not None:
            sanitizer.check_resource_manager(self)

    def _allocate(self, app: AppRecord, request: ContainerRequest,
                  nm: NodeManager) -> None:
        container = Container(
            container_id=f"container_{next(self._container_counter):06d}",
            app_id=app.app_id, node_name=nm.name,
            resource=request.resource)
        nm.reserve(container)
        app.usage = app.usage.plus(container.resource)
        self._queue_used_mb[app.queue] += container.resource.memory_mb
        app.live_containers[container.container_id] = container
        self.metrics_counters["containersAllocated"] += 1
        tel = self.env.telemetry
        if tel is not None:
            tel.counter("yarn.rm.containers_allocated").inc()
            tel.emit("yarn", "container_allocated",
                     container_id=container.container_id,
                     app=app.app_id, node=nm.name,
                     memory_mb=container.resource.memory_mb)
            if request.requested_at is not None:
                tel.histogram("yarn.container.allocation_latency").observe(
                    self.env.now - request.requested_at)
        if app._am_pending and app.am_container is None:
            app.am_container = container
            self._launch_am(app, container)
        else:
            app.granted.append(container)

    def _launch_am(self, app: AppRecord, container: Container) -> None:
        from repro.yarn.application import AmContext  # cycle-free import
        nm = self.node_managers[container.node_name]
        ctx = AmContext(self, app, container)

        def am_payload(env, c):
            # The AM program runs in the container's own process, so it
            # lives and dies with the AM container.
            yield env.timeout(self.config.am_register_seconds)
            app.advance(ApplicationState.RUNNING)
            return (yield from app.spec.am_program(ctx))

        done = nm.start_container(container, am_payload,
                                  on_complete=self._on_container_complete)

        def _am_done(event):
            am_container = event.value
            if app.state.is_final:
                return
            if am_container.state is ContainerState.COMPLETED:
                status = app.final_status or "SUCCEEDED"
                if status == "SUCCEEDED":
                    self._finish_app(app, ApplicationState.FINISHED)
                    self.metrics_counters["appsCompleted"] += 1
                else:
                    self._finish_app(app, ApplicationState.FAILED,
                                     app.diagnostics or "AM reported failure")
                    self.metrics_counters["appsFailed"] += 1
            else:
                self._finish_app(app, ApplicationState.FAILED,
                                 am_container.diagnostics or "AM died")
                self.metrics_counters["appsFailed"] += 1
            # Reclaim any containers the AM left behind.
            for cid in list(app.live_containers):
                c = app.live_containers[cid]
                nm2 = self.node_managers.get(c.node_name)
                if nm2 is not None:
                    nm2.kill_container(cid, ContainerState.KILLED,
                                       "app finished")

        done.callbacks.append(_am_done)

    def _on_container_complete(self, container: Container) -> None:
        app = self.apps.get(container.app_id)
        if app is None:
            return
        if container.container_id in app.live_containers:
            del app.live_containers[container.container_id]
            app.usage = app.usage.minus(container.resource)
            if app.app_id in self._active_apps:
                self._queue_used_mb[app.queue] -= container.resource.memory_mb
        if container is not app.am_container:
            app.completed.append(container)
        sanitizer = self.env.sanitizer
        if sanitizer is not None:
            sanitizer.check_resource_manager(self)

    # ---------------------------------------------------------- preemption
    def preempt_containers(self, app_id: str, count: int) -> List[str]:
        """Preempt up to ``count`` newest task containers of an app."""
        app = self.apps[app_id]
        victims = [c for c in app.live_containers.values()
                   if c is not app.am_container]
        victims.sort(key=lambda c: c.container_id, reverse=True)
        preempted = []
        for container in victims[:count]:
            nm = self.node_managers.get(container.node_name)
            if nm is not None:
                nm.kill_container(container.container_id,
                                  ContainerState.PREEMPTED,
                                  "preempted by scheduler")
                preempted.append(container.container_id)
        return preempted

    # ------------------------------------------------------------- metrics
    def total_capacity(self) -> YarnResource:
        return YarnResource(memory_mb=self._agg_total_mb,
                            vcores=self._agg_total_vc)

    def used_capacity(self) -> YarnResource:
        return YarnResource(memory_mb=self._agg_used_mb,
                            vcores=self._agg_used_vc)

    def cluster_metrics(self) -> Dict[str, float]:
        """RM REST ``/ws/v1/cluster/metrics``-shaped snapshot.

        This is what the RADICAL-Pilot YARN agent scheduler polls to
        size its resource slots (paper §III-C) — on every unit
        submission and queue drain, which makes this the RM's hottest
        read path.  Everything here is O(1): app-state tallies are
        maintained incrementally (see :meth:`_track_app_state`) and the
        live-capacity aggregates are folded in and out by NM
        liveness/usage hooks (see :meth:`_nm_liveness_changed`) instead
        of rescanning every NodeManager.
        """
        total_mb, total_vc = self._agg_total_mb, self._agg_total_vc
        used_mb, used_vc = self._agg_used_mb, self._agg_used_vc
        active_nodes = len(self._counted)
        counters = self.metrics_counters
        return {
            "appsSubmitted": counters["appsSubmitted"],
            "appsCompleted": counters["appsCompleted"],
            "appsFailed": counters["appsFailed"],
            "appsKilled": counters["appsKilled"],
            "appsRunning": self._apps_running,
            "appsPending": self._apps_pending,
            "containersAllocated": counters["containersAllocated"],
            "totalMB": total_mb,
            "allocatedMB": used_mb,
            "availableMB": total_mb - used_mb,
            "totalVirtualCores": total_vc,
            "allocatedVirtualCores": used_vc,
            "availableVirtualCores": total_vc - used_vc,
            "activeNodes": active_nodes,
            "totalNodes": len(self.node_managers),
        }

    def application_list(self) -> List[Dict[str, object]]:
        """RM REST ``/ws/v1/cluster/apps``-shaped listing."""
        return [{
            "id": app.app_id,
            "name": app.spec.name,
            "queue": app.queue,
            "state": app.state.value,
            "applicationType": app.spec.app_type,
            "allocatedMB": app.usage.memory_mb,
            "allocatedVCores": app.usage.vcores,
            "runningContainers": len(app.live_containers),
            "startedTime": app.start_time,
            "finishedTime": app.finish_time,
        } for app in self.apps.values()]

    def node_reports(self) -> List[Dict[str, object]]:
        """RM REST ``/ws/v1/cluster/nodes``-shaped listing."""
        return [{
            "id": nm.name,
            "state": "RUNNING" if nm.alive else "LOST",
            "availMemoryMB": nm.available.memory_mb,
            "usedMemoryMB": nm.used.memory_mb,
            "availableVirtualCores": nm.available.vcores,
            "usedVirtualCores": nm.used.vcores,
            "numContainers": len(nm.containers),
        } for nm in self.node_managers.values()]

    def application_report(self, app_id: str) -> ApplicationReport:
        app = self.apps[app_id]
        return ApplicationReport(
            app_id=app.app_id, name=app.spec.name, state=app.state,
            queue=app.queue, tracking_diagnostics=app.diagnostics,
            start_time=app.start_time, finish_time=app.finish_time,
            final_status=app.final_status)
