"""SAGA: a standardized access layer to heterogeneous infrastructure.

A faithful-in-shape reduction of SAGA-Python (radical.saga), the
interoperability layer both BigJob and RADICAL-Pilot build on (paper
§II): a uniform job API whose URL scheme selects a backend *adaptor*
(``slurm://``, ``torque://``, ``sge://``, ``fork://``), plus a small
filesystem API for staging.

Simulated sites (machine + batch system + scratch filesystem) register
with a :class:`Registry`; SAGA URLs resolve against it.
"""

from repro.saga.filesystem import FileCatalog, copy_file
from repro.saga.job import Description, Job, Service
from repro.saga.registry import Registry, Site
from repro.saga.url import Url

__all__ = [
    "Description",
    "FileCatalog",
    "Job",
    "Registry",
    "Service",
    "Site",
    "Url",
    "copy_file",
]
