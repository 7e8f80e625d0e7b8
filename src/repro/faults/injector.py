"""The fault-injection engine: arms :class:`FaultSpec`s on an environment.

One :class:`FaultInjector` per :class:`~repro.sim.engine.Environment`,
installed as ``env.faults`` (same opt-in hub pattern as
``env.telemetry``/``env.sanitizer`` — components pay one attribute load
and a branch when no injector is installed).  Machines and HDFS/YARN
clusters register themselves as targets at construction when an
injector is present; sites registered with the session's SAGA registry
are resolved lazily, so a plan can be armed before any pilot exists.

Everything the injector does is a deterministic function of the armed
specs: faults fire at fixed simulation times, target selection iterates
sorted name order, and the only randomness anywhere in a chaos run
comes from the session's seeded RNG streams.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.faults.spec import FaultSpec
from repro.sim.engine import Environment, SimulationError


class FaultInjector:
    """Executes armed fault specs against registered targets."""

    def __init__(self, env: Environment):
        self.env = env
        self.machines: List[object] = []
        self.hdfs_clusters: List[object] = []
        self.yarn_clusters: List[object] = []
        self._registries: List[object] = []
        #: unit uid -> remaining attempts to poison with a transient
        #: executor error (consumed by the agent pipeline).
        self._unit_errors: Dict[str, int] = {}
        self.fired: List[FaultSpec] = []

    # -- installation -------------------------------------------------------
    @classmethod
    def install(cls, env: Environment) -> "FaultInjector":
        """Attach (or return the existing) injector on ``env``."""
        existing = env.faults
        if existing is not None:
            return existing
        injector = cls(env)
        env.faults = injector
        return injector

    # -- target registration ------------------------------------------------
    def register_machine(self, machine) -> None:
        if machine not in self.machines:
            self.machines.append(machine)

    def register_hdfs(self, cluster) -> None:
        if cluster not in self.hdfs_clusters:
            self.hdfs_clusters.append(cluster)

    def register_yarn(self, cluster) -> None:
        if cluster not in self.yarn_clusters:
            self.yarn_clusters.append(cluster)

    def bind_registry(self, registry) -> None:
        """Resolve node targets through a SAGA site registry too."""
        if registry not in self._registries:
            self._registries.append(registry)

    def _all_machines(self) -> List[object]:
        machines = list(self.machines)
        for registry in self._registries:
            for hostname in sorted(registry._sites):
                machine = registry._sites[hostname].machine
                if machine not in machines:
                    machines.append(machine)
        return machines

    def _resolve_node(self, name: str):
        for machine in self._all_machines():
            for node in machine.nodes:
                if node.name == name:
                    return node
        raise SimulationError(
            f"fault target node {name!r} not found on any registered "
            f"machine")

    # -- scheduling ---------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Checkpoint fingerprint: fired faults + poison ledger.

        Scheduled-but-unfired specs live as pending timer processes on
        the event queue (covered by the engine fingerprint); what needs
        capturing here is the injector's own mutable state.
        """
        from dataclasses import asdict
        return {"fired": [asdict(spec) for spec in self.fired],
                "unit_errors": dict(sorted(self._unit_errors.items())),
                "targets": {"machines": len(self._all_machines()),
                            "hdfs": len(self.hdfs_clusters),
                            "yarn": len(self.yarn_clusters)}}

    def schedule(self, spec: FaultSpec) -> None:
        """Arm one validated spec.

        ``unit_error`` specs poison the uid ledger immediately; every
        other kind fires at ``spec.at`` (with a healing edge after
        ``spec.duration`` when set).
        """
        if spec.kind == "unit_error":
            self._unit_errors[spec.target] = (
                self._unit_errors.get(spec.target, 0) + spec.times)
            tel = self.env.telemetry
            if tel is not None:
                tel.emit("fault", "armed", kind=spec.kind,
                         target=spec.target, times=spec.times)
            return
        self.env.process(self._fire_later(spec),
                         name=f"fault-{spec.label}")

    def _fire_later(self, spec: FaultSpec):
        delay = spec.at - self.env.now
        yield self.env.timeout(delay if delay > 0 else 0.0)
        self.fire(spec)
        if spec.duration is not None:
            yield self.env.timeout(spec.duration)
            self.heal(spec)

    # -- fault edges --------------------------------------------------------
    def fire(self, spec: FaultSpec) -> None:
        """Apply a fault's failure edge right now."""
        kind = spec.kind
        if kind == "node_crash":
            self._resolve_node(spec.target).fail()
        elif kind == "datanode_loss":
            self._datanode(spec.target).fail()
        elif kind == "nodemanager_loss":
            self._node_manager(spec.target).fail()
        elif kind == "straggler":
            self._resolve_node(spec.target).slow_down(spec.factor)
        elif kind == "network_degrade":
            for network in self._networks(spec.target):
                network.degrade(spec.factor)
        elif kind == "network_partition":
            for network in self._networks(""):
                network.partition(spec.partition_group())
        elif kind == "container_kill":
            self._kill_one_container(spec.target)
        else:  # pragma: no cover - validate() rejects unknown kinds
            raise SimulationError(f"unhandled fault kind {kind!r}")
        self.fired.append(spec)
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("fault", kind, target=spec.target, label=spec.label,
                     duration=spec.duration, factor=spec.factor)
            tel.counter("faults.injected", kind=kind).inc()

    def heal(self, spec: FaultSpec) -> None:
        """Apply a duration-bearing fault's healing edge."""
        kind = spec.kind
        if kind == "node_crash":
            self._resolve_node(spec.target).recover()
        elif kind == "straggler":
            self._resolve_node(spec.target).restore_speed()
        elif kind == "network_degrade":
            for network in self._networks(spec.target):
                network.restore()
        elif kind == "network_partition":
            for network in self._networks(""):
                network.heal()
        # datanode/nodemanager loss and container kills have no
        # injector-side healing: recovery is the stack's job
        # (re-replication, re-attempts, restarts).
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("fault", "healed", kind=kind, target=spec.target,
                     label=spec.label)
            tel.counter("faults.healed", kind=kind).inc()

    # -- unit-error ledger --------------------------------------------------
    def take_unit_error(self, uid: str) -> Optional[str]:
        """Consume one poisoned attempt for ``uid`` (None = clean)."""
        remaining = self._unit_errors.get(uid)
        if not remaining:
            return None
        remaining -= 1
        if remaining:
            self._unit_errors[uid] = remaining
        else:
            del self._unit_errors[uid]
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("fault", "unit_error", target=uid,
                     remaining=remaining)
            tel.counter("faults.injected", kind="unit_error").inc()
        return f"injected transient executor error on {uid}"

    def transfer_unit_error(self, old_uid: str, new_uid: str) -> None:
        """Re-key remaining poison when a unit restarts under a new uid."""
        remaining = self._unit_errors.pop(old_uid, 0)
        if remaining:
            self._unit_errors[new_uid] = (
                self._unit_errors.get(new_uid, 0) + remaining)

    # -- target resolution --------------------------------------------------
    def _datanode(self, node_name: str):
        for cluster in self.hdfs_clusters:
            for dn in cluster.datanodes:
                if dn.name == node_name:
                    return dn
        raise SimulationError(
            f"fault target DataNode {node_name!r} not found on any "
            f"registered HDFS cluster")

    def _node_manager(self, node_name: str):
        for cluster in self.yarn_clusters:
            for nm in cluster.node_managers:
                if nm.name == node_name:
                    return nm
        raise SimulationError(
            f"fault target NodeManager {node_name!r} not found on any "
            f"registered YARN cluster")

    def _networks(self, machine_name: str) -> List[object]:
        networks = [machine.network for machine in self._all_machines()
                    if not machine_name or machine.name == machine_name]
        if not networks:
            raise SimulationError(
                f"no registered machine matches {machine_name!r} for a "
                f"network fault")
        return networks

    def _kill_one_container(self, node_name: str) -> None:
        """Kill the first live non-AM container, sorted-name order."""
        from repro.yarn.records import ContainerState
        for cluster in self.yarn_clusters:
            am_ids = {
                app.am_container.container_id
                for app in cluster.resource_manager.apps.values()
                if app.am_container is not None}
            managers = sorted(cluster.node_managers, key=lambda nm: nm.name)
            for nm in managers:
                if node_name and nm.name != node_name:
                    continue
                for cid in sorted(nm.containers):
                    container = nm.containers[cid]
                    if container.state.is_final or cid in am_ids:
                        continue
                    nm.kill_container(cid, ContainerState.KILLED,
                                      "fault injection: container_kill")
                    return
        tel = self.env.telemetry
        if tel is not None:
            tel.emit("fault", "container_kill_noop", target=node_name)
