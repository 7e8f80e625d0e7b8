"""RADICAL-Pilot: the Pilot-Abstraction with Hadoop/Spark extensions.

This is the paper's primary contribution, reproduced in full:

* **Client side** — :class:`PilotManager` (launches pilots through SAGA
  onto batch systems) and :class:`UnitManager` (schedules Compute-Units
  onto pilots), coordinating with agents through a shared MongoDB-like
  document store (:mod:`repro.core.db`).
* **Agent side** (:mod:`repro.core.agent`) — the RADICAL-Pilot-Agent
  with its pluggable components: Local Resource Managers (fork/SLURM/
  Torque/SGE plus the paper's **YARN Mode I/II** and **Spark**
  extensions), schedulers (continuous cores vs. cores+memory fed by the
  YARN RM metrics API), Task Spawner, Launch Methods (fork, mpiexec,
  aprun, ``yarn`` CLI, ``spark-submit``) and the RADICAL-Pilot YARN
  Application Master (one YARN app per Compute-Unit, optional AM
  re-use).

The public classes are exported by :mod:`repro.api`, the unified
facade::

    from repro.api import Session, ComputeUnitDescription
"""
