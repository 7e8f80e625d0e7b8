"""Pilot-Data: the data side of the Pilot-Abstraction.

The paper (§II) builds on Pilot-Data [Luckow et al., JPDC 2014] as the
companion of Pilot-Compute: *Pilot-Data* is a placeholder allocation
of storage on a resource, and a *Data-Unit* is a self-contained,
location-independent dataset that lives in one or more Pilot-Data
allocations.  The Compute-Data-Service matches Compute-Units to
Data-Units: units are scheduled where their inputs already are
(affinity), and data is replicated across sites when they are not.

This module implements that trio against the simulated testbed:

* :class:`PilotDataDescription` / :class:`PilotData` — a capacity
  reservation on a site's shared filesystem, with a private namespace;
* :class:`DataUnitDescription` / :class:`DataUnit` — a named dataset
  with replicas across Pilot-Data allocations and timed transfers;
* :class:`ComputeDataService` — affinity-aware co-scheduling of
  Compute-Units and their input Data-Units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.description import ComputeUnitDescription, Description
from repro.core.pilot import ComputePilot
from repro.core.session import Session
from repro.core.unit_manager import UnitManager
from repro.saga.filesystem import copy_file
from repro.saga.url import Url
from repro.sim.engine import SimulationError


# ------------------------------------------------------------- descriptions
@dataclass
class PilotDataDescription(Description):
    """A storage reservation request (mirrors BigJob's pilot data API)."""

    resource: str                 # SAGA URL of the site, e.g. "slurm://stampede"
    size_bytes: float = 100 * 1024 ** 3

    def _check(self) -> None:
        self._require(self.size_bytes > 0,
                      "pilot-data size must be positive")


@dataclass
class DataUnitDescription(Description):
    """A dataset: named files with sizes (no real payloads needed)."""

    name: str
    files: Tuple[Tuple[str, float], ...] = ()   # (filename, nbytes)

    @property
    def nbytes(self) -> float:
        return sum(size for _, size in self.files)

    def _check(self) -> None:
        self._require(bool(self.name), "data unit needs a name")
        self._require(all(size >= 0 for _, size in self.files),
                      "file sizes must be non-negative")


# ------------------------------------------------------------------ handles
class PilotData:
    """A live storage allocation on one site."""

    def __init__(self, session: Session, uid: str,
                 description: PilotDataDescription):
        self.session = session
        self.uid = uid
        self.description = description
        self.site = session.registry.lookup(
            Url.parse(description.resource).host)
        self.used = 0.0
        if description.size_bytes > self.site.scratch.volume.free:
            raise SimulationError(
                f"site {self.site.hostname} cannot reserve "
                f"{description.size_bytes} bytes")

    @property
    def free(self) -> float:
        return self.description.size_bytes - self.used

    def _charge(self, nbytes: float) -> None:
        if nbytes > self.free:
            raise SimulationError(
                f"pilot-data {self.uid} full: need {nbytes:.0f}, "
                f"free {self.free:.0f}")
        self.used += nbytes

    def _release(self, nbytes: float) -> None:
        self.used = max(0.0, self.used - nbytes)

    def path_for(self, du_uid: str, filename: str) -> str:
        return f"/pilot-data/{self.uid}/{du_uid}/{filename}"


class DataUnit:
    """A dataset with replicas across Pilot-Data allocations."""

    def __init__(self, env, uid: str, description: DataUnitDescription):
        self.env = env
        self.uid = uid
        self.description = description
        self.replicas: List[PilotData] = []

    @property
    def state(self) -> str:
        return "Available" if self.replicas else "New"

    @property
    def nbytes(self) -> float:
        return self.description.nbytes

    def located_on(self, hostname: str) -> Optional[PilotData]:
        for pd in self.replicas:
            if pd.site.hostname == hostname:
                return pd
        return None

    def _add_replica(self, pd: PilotData) -> None:
        self.replicas.append(pd)


# ------------------------------------------------------------------ service
class ComputeDataService:
    """Co-scheduling of Compute-Units and Data-Units (BigJob's CDS).

    The affinity policy: a unit that names ``input_data`` is submitted
    to the pilot whose site already holds the largest share of those
    bytes; missing Data-Units are replicated there first (timed,
    through the inter-site WAN), so by the time the unit runs all its
    inputs are site-local — the paper's "application-level scheduler
    [that is] aware of the localities of the data sources".
    """

    def __init__(self, session: Session, unit_manager: UnitManager,
                 inter_site_bw: float = 50e6):
        self.session = session
        self.env = session.env
        self.umgr = unit_manager
        self.inter_site_bw = inter_site_bw
        self.pilot_data: Dict[str, PilotData] = {}
        self.data_units: Dict[str, DataUnit] = {}

    # ------------------------------------------------------------- storage
    def create_pilot_data(self, description: PilotDataDescription) -> PilotData:
        description.validate()
        uid = self.session.next_uid("pd")
        pd = PilotData(self.session, uid, description)
        self.pilot_data[uid] = pd
        return pd

    # ---------------------------------------------------------------- data
    def submit_data_unit(self, description: DataUnitDescription,
                         pilot_data: PilotData):
        """Create a Data-Unit in ``pilot_data``.  Generator -> DataUnit.

        Pays the initial upload (client -> site) through the site's
        shared filesystem.
        """
        description.validate()
        uid = self.session.next_uid("du", width=6)
        du = DataUnit(self.env, uid, description)
        self.data_units[uid] = du
        pilot_data._charge(du.nbytes)
        for filename, nbytes in description.files:
            yield pilot_data.site.scratch.create(
                pilot_data.path_for(uid, filename), nbytes)
        du._add_replica(pilot_data)
        return du

    def replicate(self, du: DataUnit, target: PilotData):
        """Copy a Data-Unit to another Pilot-Data.  Generator.

        Same-site replication moves bytes through the site filesystem;
        cross-site replication additionally crosses the WAN at
        ``inter_site_bw``.
        """
        if not du.replicas:
            raise SimulationError(f"{du.uid} has no replica to copy from")
        if du.located_on(target.site.hostname) is target:
            return du
        source = du.replicas[0]
        cross_site = source.site.hostname != target.site.hostname
        target._charge(du.nbytes)
        for filename, _nbytes in du.description.files:
            yield copy_file(
                self.env,
                source.site.scratch, source.path_for(du.uid, filename),
                target.site.scratch, target.path_for(du.uid, filename),
                wire_bw=self.inter_site_bw if cross_site else None)
        du._add_replica(target)
        return du

    def delete_data_unit(self, du: DataUnit) -> None:
        for pd in du.replicas:
            for filename, _ in du.description.files:
                path = pd.path_for(du.uid, filename)
                if pd.site.scratch.exists(path):
                    pd.site.scratch.delete(path)
            pd._release(du.nbytes)
        du.replicas.clear()
        self.data_units.pop(du.uid, None)

    # ------------------------------------------------------------- compute
    def submit_compute_unit(self, description: ComputeUnitDescription,
                            input_data: Sequence[DataUnit] = ()):
        """Submit a unit near its data.  Generator -> ComputeUnit.

        Chooses the pilot whose site holds the most input bytes,
        replicates the rest there, rewrites the unit's
        ``input_staging`` to the site-local replica paths, then submits
        through the Unit-Manager.
        """
        pilots = [p for p in self.umgr.pilots if not p.state.is_final]
        if not pilots:
            raise SimulationError("no usable pilots attached to the UM")
        target_pilot = self._pick_pilot(pilots, input_data)
        target_host = Url.parse(target_pilot.description.resource).host
        target_pd = self._pilot_data_on(target_host)
        if input_data and target_pd is None:
            raise SimulationError(
                f"no pilot-data allocation on {target_host}")

        staging: List[Tuple[str, float]] = []
        for du in input_data:
            local = du.located_on(target_host)
            if local is None:
                yield self.env.process(self.replicate(du, target_pd))
                local = target_pd
            for filename, nbytes in du.description.files:
                staging.append((local.path_for(du.uid, filename), nbytes))

        description.input_staging = tuple(staging)
        return self.umgr._submit_unit(description, target_pilot)

    def _pick_pilot(self, pilots: List[ComputePilot],
                    input_data: Sequence[DataUnit]) -> ComputePilot:
        def local_bytes(pilot: ComputePilot) -> float:
            host = Url.parse(pilot.description.resource).host
            return sum(du.nbytes for du in input_data
                       if du.located_on(host) is not None)

        return max(pilots, key=local_bytes)

    def _pilot_data_on(self, hostname: str) -> Optional[PilotData]:
        for pd in self.pilot_data.values():
            if pd.site.hostname == hostname:
                return pd
        return None

