"""Per-disk fault draws: the pure functions behind the fault injector.

Every stochastic fault of a disk comes from a dedicated per-disk RNG
stream derived from the plan seed alone, and
:class:`~repro.faults.injector.FaultInjector` draws from it only as the
run reaches each fault. Consequences:

* the same ``(plan, disk)`` pair always yields the same faults — in this
  process, in a process-pool worker, and on a cache-replayed run — and a
  disk's faults do not depend on how many disks the fleet has or how
  long the run lasts;
* fault draws never interleave with (and therefore never perturb)
  service-time draws, which use separate streams;
* the permanent-failure time of each disk is an *inverse-CDF transform
  of one per-disk uniform drawn independently of the failure rate*, so
  for a fixed seed a higher rate strictly advances every failure —
  downtime, and hence unavailability, is monotone in the rate.  The
  ``fault_sweep`` bench leans on this to produce clean degradation
  curves.

Stream derivation uses distinct odd multipliers per fault kind (the
simulated disks' service streams use ``config.seed * 1_000_003 +
disk_id``; these must never collide with them even when the plan seed
equals the config seed).
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.types import DiskId

_PERMANENT_STREAM = 1_000_033
_TRANSIENT_STREAM = 1_000_037
_SPIN_UP_STREAM = 1_000_039


def _stream(seed: int, disk_id: DiskId, kind: int) -> random.Random:
    """The dedicated RNG stream of one (disk, fault-kind) pair."""
    return random.Random(seed * kind + disk_id)


def spin_up_stream(plan: FaultPlan, disk_id: DiskId) -> random.Random:
    """The per-disk RNG stream feeding spin-up failure draws."""
    return _stream(plan.seed, disk_id, _SPIN_UP_STREAM)


def weibull_time_s(u: float, mttf_s: float, shape: float) -> float:
    """Inverse-CDF Weibull draw with the given mean, in seconds.

    ``u`` is a uniform in [0, 1); for a fixed ``u`` the result scales
    linearly with ``mttf_s`` — the monotonicity the sweeps rely on.
    """
    if not 0.0 <= u < 1.0:
        raise ConfigurationError(f"u must be in [0, 1), got {u}")
    scale_s = mttf_s / math.gamma(1.0 + 1.0 / shape)
    return scale_s * (-math.log(1.0 - u)) ** (1.0 / shape)


def death_time_s(plan: FaultPlan, disk_id: DiskId) -> Optional[float]:
    """Instant of the disk's stochastic permanent death, in simulated
    seconds; ``None`` without a permanent-fault model."""
    if plan.permanent is None:
        return None
    rng = _stream(plan.seed, disk_id, _PERMANENT_STREAM)
    return weibull_time_s(
        rng.random(), plan.permanent.mttf_s, plan.permanent.weibull_shape
    )


def outages(plan: FaultPlan, disk_id: DiskId) -> Iterator[Tuple[float, float]]:
    """The disk's transient ``(down_at_s, up_at_s)`` outages, ascending
    and without end; empty without a transient-fault model."""
    transient = plan.transient
    if transient is None:
        return
    rng = _stream(plan.seed, disk_id, _TRANSIENT_STREAM)
    up_at_s = 0.0
    while True:
        down_at_s = up_at_s + rng.expovariate(1.0 / transient.mtbf_s)
        up_at_s = down_at_s + rng.expovariate(1.0 / transient.mean_repair_s)
        yield down_at_s, up_at_s
