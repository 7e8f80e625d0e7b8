"""Simulated sites and the registry SAGA URLs resolve against."""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.machine import Machine, MachineSpec
from repro.rms import RmsConfig, make_scheduler
from repro.saga.filesystem import FileCatalog
from repro.sim.engine import Environment


class Site:
    """One simulated resource: machine + batch system + scratch space.

    ``hostname`` is what SAGA URLs refer to (defaults to the machine
    template name, e.g. ``slurm://stampede``).
    """

    def __init__(self, env: Environment, spec: MachineSpec,
                 rms_kind: str = "slurm",
                 rms_config: Optional[RmsConfig] = None,
                 hostname: Optional[str] = None):
        self.env = env
        self.machine = Machine(env, spec)
        self.rms_kind = rms_kind
        self.rms = make_scheduler(rms_kind, env, self.machine, rms_config)
        self.scratch = FileCatalog(env, self.machine.shared_fs,
                                   name=f"{spec.name}-scratch")
        self.hostname = hostname or spec.name


class Registry:
    """Maps hostnames to :class:`Site` objects."""

    def __init__(self):
        self._sites: Dict[str, Site] = {}

    def register(self, site: Site) -> Site:
        self._sites[site.hostname] = site
        return site

    def lookup(self, hostname: str) -> Site:
        try:
            return self._sites[hostname]
        except KeyError:
            raise KeyError(
                f"no registered site {hostname!r}; known: "
                f"{sorted(self._sites)}") from None
