"""The MapReduce job engine."""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.hashing import stable_hash
from repro.hdfs.cluster import HdfsCluster
from repro.sim.engine import Environment
from repro.yarn.cluster import YarnCluster
from repro.yarn.records import (
    AppSpec,
    ApplicationState,
    ContainerState,
    YarnResource,
)

#: Type aliases for readability.
Mapper = Callable[[Any], Iterable[Tuple[Any, Any]]]
Reducer = Callable[[Any, List[Any]], Iterable[Any]]


@dataclass
class MRJobSpec:
    """Everything that defines one MapReduce job.

    ``mapper(record)`` yields (key, value) pairs; ``reducer(key,
    values)`` yields output records; the optional ``combiner(key,
    values)`` runs on map output before the spill and yields the
    *combined values* for that key (they are re-paired with the key).

    The compute-cost model is explicit: ``map_cpu_per_record`` /
    ``reduce_cpu_per_record`` are *abstract reference-CPU seconds*
    (scaled by node speed at runtime), and ``bytes_per_pair`` sizes the
    shuffle traffic generated per emitted (key, value) pair.
    """

    name: str
    input_path: str
    output_path: str
    mapper: Mapper
    reducer: Reducer
    combiner: Optional[Reducer] = None
    num_reducers: int = 1
    map_cpu_per_record: float = 0.0
    reduce_cpu_per_record: float = 0.0
    bytes_per_pair: float = 64.0
    map_memory_mb: int = 1024
    reduce_memory_mb: int = 1024
    am_memory_mb: int = 512
    #: Default partitioner uses :func:`repro.hashing.stable_hash`, not
    #: builtin ``hash`` — the builtin is salted per process for string
    #: keys, which would shuffle the same job differently across pool
    #: workers and break sweep determinism.
    partitioner: Callable[[Any, int], int] = field(
        default=lambda key, n: stable_hash(key) % n)
    #: Task attempts before the job fails (MR's
    #: ``mapreduce.map.maxattempts``); failed tasks are re-run in fresh
    #: containers, as the MRAppMaster does.
    max_task_attempts: int = 2
    #: Shuffle transport (paper §II/§V related work):
    #: * "local"  — the Hadoop default: spill to the map node's local
    #:   disk, reducers fetch over the network;
    #: * "lustre" — the Intel Hadoop-Lustre adaptor: map output goes to
    #:   the shared filesystem, reducers read it back from there (no
    #:   network fetch, but the shared pipe is contended);
    #: * "rdma"   — Panda et al.'s RDMA shuffle: map output streams
    #:   directly reducer-ward over the high-performance interconnect,
    #:   bypassing the disk on both sides.
    shuffle_transport: str = "local"

    def validate(self) -> None:
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        if self.map_cpu_per_record < 0 or self.reduce_cpu_per_record < 0:
            raise ValueError("cpu costs must be non-negative")
        if self.shuffle_transport not in ("local", "lustre", "rdma"):
            raise ValueError(
                f"unknown shuffle transport {self.shuffle_transport!r}")


@dataclass
class JobCounters:
    """The familiar MR counter block."""

    maps_launched: int = 0
    reduces_launched: int = 0
    map_input_records: int = 0
    map_output_records: int = 0
    combine_output_records: int = 0
    reduce_input_groups: int = 0
    reduce_output_records: int = 0
    shuffle_bytes: float = 0.0
    data_local_maps: int = 0


class MapReduceJob:
    """Executes an :class:`MRJobSpec` over an HDFS cluster.

    ``run_on_yarn`` is the production path: an MRAppMaster drives map
    and reduce waves in YARN containers.  ``run_inline`` executes the
    identical dataflow directly (used to validate engine semantics and
    by unit tests).  Both return the job's output: a dict
    ``partition -> list of records``, also persisted to HDFS under
    ``spec.output_path/part-r-NNNNN``.
    """

    def __init__(self, env: Environment, spec: MRJobSpec,
                 hdfs: HdfsCluster):
        spec.validate()
        self.env = env
        self.spec = spec
        self.hdfs = hdfs
        self.counters = JobCounters()
        #: map task id -> (node_name, {partition: [(k, v), ...]})
        self._map_outputs: Dict[int, Tuple[str, Dict[int, list]]] = {}
        self.output: Dict[int, list] = {}

    # ------------------------------------------------------------ plumbing
    def _input_blocks(self):
        return self.hdfs.namenode.file_meta(self.spec.input_path).blocks

    def _records_of(self, payload: Any) -> list:
        if payload is None:
            return []
        return list(payload)

    def _run_map_task(self, map_id: int, block, node_name: str):
        """Map task body (generator): read, map, combine, spill."""
        spec = self.spec
        client = self.hdfs.client(node_name)
        if client.is_block_local(block, node_name):
            self.counters.data_local_maps += 1
        payload = yield from client.read_block(block)
        records = self._records_of(payload)
        self.counters.map_input_records += len(records)

        mapper = spec.mapper
        pairs: List[Tuple[Any, Any]] = [
            pair for record in records for pair in mapper(record)]
        self.counters.map_output_records += len(pairs)

        cpu = spec.map_cpu_per_record * len(records)
        if cpu > 0:
            node = self.hdfs.machine.node_by_name(node_name)
            yield self.env.timeout(node.compute_seconds(cpu))

        if spec.combiner is not None:
            grouped: Dict[Any, list] = defaultdict(list)
            for k, v in pairs:
                grouped[k].append(v)
            combiner = spec.combiner
            pairs = [(k, v) for k, values in grouped.items()
                     for v in combiner(k, values)]
            self.counters.combine_output_records += len(pairs)

        # Partition assignment is memoised per key: the partitioner runs
        # once per distinct key instead of once per pair.
        partitions: Dict[int, list] = defaultdict(list)
        partition_of: Dict[Any, int] = {}
        partitioner, n_reducers = spec.partitioner, spec.num_reducers
        for kv in pairs:
            key = kv[0]
            part = partition_of.get(key)
            if part is None:
                part = partition_of[key] = partitioner(key, n_reducers)
            partitions[part].append(kv)

        spill_bytes = len(pairs) * spec.bytes_per_pair
        if spill_bytes > 0:
            if spec.shuffle_transport == "local":
                node = self.hdfs.machine.node_by_name(node_name)
                yield node.local_disk.write(spill_bytes)
            elif spec.shuffle_transport == "lustre":
                yield self.hdfs.machine.shared_fs.write(spill_bytes)
            # rdma: no spill — map output streams directly at fetch time
        self._map_outputs[map_id] = (node_name, dict(partitions))

    def _fetch(self, partition: int, node_name: str, fetched):
        """Batched shuffle fetch: one disk read + one fabric transfer
        per (map node -> reduce node) pair, regardless of how many map
        tasks ran on that node — one transfer latency per node, as a
        real batched fetch charges.  Generator; extends ``fetched`` in
        map-id order."""
        spec = self.spec
        machine = self.hdfs.machine
        #: map_node -> per-map-task chunk sizes, in first-seen (map id)
        #: order so the transfer schedule is deterministic.
        chunks_by_node: Dict[str, List[float]] = {}
        for _map_id, (map_node, partitions) in sorted(
                self._map_outputs.items()):
            pairs = partitions.get(partition, [])
            if pairs:
                chunks_by_node.setdefault(map_node, []).append(
                    len(pairs) * spec.bytes_per_pair)
            fetched.extend(pairs)

        for map_node, sizes in chunks_by_node.items():
            nbytes = sum(sizes)
            if spec.shuffle_transport == "local":
                src = machine.node_by_name(map_node)
                yield src.local_disk.read_many(sizes)
                yield machine.network.send_many(map_node, node_name, sizes)
            elif spec.shuffle_transport == "lustre":
                # read back from the shared filesystem; no explicit
                # node-to-node hop (the FS *is* the transport)
                yield machine.shared_fs.read_many(sizes)
                machine.shared_fs.delete(nbytes)
            else:  # rdma: direct memory-to-memory over the fabric
                yield machine.network.send_many(map_node, node_name, sizes)
            self.counters.shuffle_bytes += nbytes

    def _run_reduce_task(self, partition: int, node_name: str):
        """Reduce task body (generator): fetch, merge, reduce, write."""
        spec = self.spec
        machine = self.hdfs.machine
        fetched: List[Tuple[Any, Any]] = []
        yield from self._fetch(partition, node_name, fetched)

        # Insertion-order grouping: the fetch order (sorted map ids) is
        # deterministic, so no sort is needed — and the old
        # ``sorted(..., key=repr)`` was an O(n log n · cost(repr)) tax
        # on every reduce task.
        grouped: Dict[Any, list] = defaultdict(list)
        for k, v in fetched:
            grouped[k].append(v)
        self.counters.reduce_input_groups += len(grouped)

        cpu = spec.reduce_cpu_per_record * len(fetched)
        if cpu > 0:
            node = machine.node_by_name(node_name)
            yield self.env.timeout(node.compute_seconds(cpu))

        reducer = spec.reducer
        results = [out for k, values in grouped.items()
                   for out in reducer(k, values)]
        self.counters.reduce_output_records += len(results)
        self.output[partition] = results

        out_bytes = len(results) * spec.bytes_per_pair
        client = self.hdfs.client(node_name)
        yield self.env.process(client.put(
            f"{spec.output_path}/part-r-{partition:05d}",
            out_bytes, payload_slices=[results]))

    def _with_retries(self, factory, label: str):
        """Run ``factory()`` as a process, retrying on failure."""

        def runner():
            last = None
            for _ in range(self.spec.max_task_attempts):
                try:
                    result = yield self.env.process(factory())
                    return result
                except Exception as exc:
                    last = exc
            raise RuntimeError(
                f"{label} failed {self.spec.max_task_attempts} "
                f"times: {last!r}")

        return self.env.process(runner())

    # --------------------------------------------------------------- inline
    def run_inline(self, parallelism: Optional[int] = None):
        """Run the dataflow without YARN.  Generator returning output.

        ``parallelism`` caps concurrent tasks (None = all at once);
        tasks round-robin over the cluster's nodes.  Failed tasks are
        retried up to ``spec.max_task_attempts``, as on YARN.
        """
        blocks = self._input_blocks()
        nodes = [dn.name for dn in self.hdfs.datanodes]
        cycle = itertools.cycle(nodes)

        map_procs = []
        for map_id, block in enumerate(blocks):
            holders = self.hdfs.namenode.block_map.get(block.block_id, ())
            node_name = holders[0] if holders else next(cycle)
            self.counters.maps_launched += 1
            map_procs.append(self._with_retries(
                lambda _m=map_id, _b=block, _n=node_name:
                self._run_map_task(_m, _b, _n),
                label=f"map {map_id}"))
            if parallelism and len(map_procs) >= parallelism:
                yield self.env.all_of(map_procs)
                map_procs = []
        if map_procs:
            yield self.env.all_of(map_procs)

        reduce_procs = []
        for partition in range(self.spec.num_reducers):
            self.counters.reduces_launched += 1
            reduce_procs.append(self._with_retries(
                lambda _p=partition, _n=next(cycle):
                self._run_reduce_task(_p, _n),
                label=f"reduce {partition}"))
        yield self.env.all_of(reduce_procs)
        return self.output

    # ---------------------------------------------------------------- YARN
    def run_on_yarn(self, yarn: YarnCluster):
        """Run as a YARN application.  Generator returning output.

        Submits an MRAppMaster that requests one container per map task
        (block-local when possible), waits for the map wave, then runs
        the reduce wave, and finishes the application.
        """
        job = self

        def run_task_wave(ctx, tasks, resource, make_payload,
                          locality_of, count_launch):
            """Run a set of tasks in YARN containers with retries.

            ``tasks`` is a list of hashable task ids; ``make_payload``
            builds the container payload for a task; ``locality_of``
            returns its preferred nodes.  Tasks start as containers
            arrive (pipelining beyond cluster capacity); failed tasks
            are retried in fresh containers up to
            ``spec.max_task_attempts``.  Generator; raises on a task
            exhausting its attempts.
            """
            spec = job.spec
            for task in tasks:
                ctx.request_containers(1, resource,
                                       preferred_nodes=locality_of(task))
            pending = list(tasks)
            attempts = {task: 0 for task in tasks}
            running = {}
            while pending or running:
                granted, _ = yield from ctx.allocate()
                for container in granted:
                    if not pending:
                        ctx.release_container(container)
                        continue
                    # Prefer a task local to the granted node.
                    pick = next(
                        (i for i, t in enumerate(pending)
                         if container.node_name in locality_of(t)), 0)
                    task = pending.pop(pick)
                    attempts[task] += 1
                    count_launch()
                    done = ctx.start_container(container,
                                               make_payload(task))
                    running[done] = task
                for event in [e for e in list(running) if e.processed]:
                    task = running.pop(event)
                    container = event.value
                    if container.state is ContainerState.COMPLETED:
                        continue
                    if attempts[task] >= spec.max_task_attempts:
                        raise RuntimeError(
                            f"task {task!r} failed "
                            f"{attempts[task]} times: "
                            f"{container.diagnostics}")
                    # schedule a fresh attempt
                    pending.append(task)
                    ctx.request_containers(
                        1, resource, preferred_nodes=locality_of(task))

        def mr_app_master(ctx):
            spec = job.spec
            blocks = job._input_blocks()
            block_by_id = dict(enumerate(blocks))

            def map_locality(map_id):
                block = block_by_id[map_id]
                return tuple(
                    job.hdfs.namenode.block_map.get(block.block_id, ()))

            def make_map_payload(map_id):
                def payload(env, c, _mid=map_id):
                    yield from job._run_map_task(
                        _mid, block_by_id[_mid], c.node_name)
                return payload

            def count_map():
                job.counters.maps_launched += 1

            try:
                yield from run_task_wave(
                    ctx, list(block_by_id), YarnResource(
                        spec.map_memory_mb, 1),
                    make_map_payload, map_locality, count_map)

                def make_reduce_payload(partition):
                    def payload(env, c, _p=partition):
                        yield from job._run_reduce_task(_p, c.node_name)
                    return payload

                def count_reduce():
                    job.counters.reduces_launched += 1

                yield from run_task_wave(
                    ctx, list(range(spec.num_reducers)),
                    YarnResource(spec.reduce_memory_mb, 1),
                    make_reduce_payload, lambda _: (), count_reduce)
            except RuntimeError as exc:
                ctx.finish("FAILED", diagnostics=str(exc))
                return
            ctx.finish("SUCCEEDED")

        client = yarn.client()
        app = yield from client.submit(AppSpec(
            name=self.spec.name,
            am_resource=YarnResource(self.spec.am_memory_mb, 1),
            am_program=mr_app_master, app_type="MAPREDUCE"))
        report = yield from client.wait_for_completion(app)
        if report.state is not ApplicationState.FINISHED:
            raise RuntimeError(
                f"MR job {self.spec.name} failed: "
                f"{report.tracking_diagnostics}")
        return self.output
