"""Deterministic, seeded fault injection for the storage simulation.

The paper evaluates its schedulers on a fleet where every disk always
works; this package asks the follow-up question every operator asks:
*what do those schedulers cost you when disks fail?*  It layers three
seeded failure models — permanent death (Weibull/exponential MTTF),
transient outages (alternating renewal with exponential repair) and
probabilistic spin-up failure with bounded retry — on top of the
existing event engine, plus scripted faults for deterministic drills.

Design invariants:

* **Zero overlay.** Without an active plan no injector exists, no RNG
  stream is consumed and no report field is emitted: serialised results
  are byte-identical to the pre-fault code.
* **Fault determinism.** Each disk's faults are drawn, as the run
  reaches them, from per-disk streams of the plan seed alone
  (:mod:`repro.faults.schedule`), so the same plan yields the same
  faults across serial, process-pool and cache-replayed runs, and fault
  draws never perturb service-time streams.
* **Health is orthogonal to power.** A failed disk is ``FAILED`` on the
  :class:`DiskHealth` axis while its power ledger keeps the ordinary
  five states (:mod:`repro.faults.health` explains why).

Entry points: embed a :class:`FaultPlan` in a
:class:`~repro.sim.config.SimulationConfig`, or sweep failure rates via
the ``fault_sweep`` bench.
"""

from __future__ import annotations

from repro.faults.health import DiskHealth
from repro.faults.injector import DiskFailedCallback, FaultInjector
from repro.faults.plan import (
    FaultPlan,
    PermanentFaults,
    ScriptedFault,
    SpinUpFaults,
    TransientFaults,
)
from repro.faults.schedule import (
    death_time_s,
    outages,
    spin_up_stream,
    weibull_time_s,
)

__all__ = [
    "DiskFailedCallback",
    "DiskHealth",
    "FaultInjector",
    "FaultPlan",
    "PermanentFaults",
    "ScriptedFault",
    "SpinUpFaults",
    "TransientFaults",
    "death_time_s",
    "outages",
    "spin_up_stream",
    "weibull_time_s",
]
