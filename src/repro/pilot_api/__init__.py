"""The BigJob-flavoured Pilot-API (dict descriptions, service objects).

The paper (§II) notes the Pilot-Abstraction "has been implemented
within BigJob [14], [33] and its second generation prototype
RADICAL-Pilot [34]".  This package provides the *first generation's*
API shape — ``PilotComputeService`` / ``PilotDataService`` /
``ComputeDataService`` with plain-dict descriptions, as in BigJob —
as a thin facade over the same :mod:`repro.core` machinery, so
applications written against either API run on one implementation
(the interoperability story, demonstrated rather than claimed).

Usage (inside a simulation process)::

    pcs = PilotComputeService(session)
    pilot = pcs.create_pilot({
        "service_url": "slurm://stampede",
        "number_of_nodes": 2,
        "walltime": 60,
    })
    cds = ComputeDataService(session)
    cds.add_pilot_compute_service(pcs)
    yield pilot.wait_active()
    cu = cds.submit_compute_unit({
        "executable": "/bin/date",
        "number_of_processes": 1,
    })
    yield cds.wait()
"""

from repro.core.states import ServiceState
from repro.pilot_api.service import (
    ComputeDataService,
    PilotComputeService,
)

__all__ = ["ComputeDataService", "PilotComputeService", "ServiceState"]
