"""Fleet partitioning: how N shards split disks, data, and seeds.

A sharded deployment is a pure function of one
:class:`ShardedServiceConfig`:

* **Disks** split contiguously and near-evenly — shard ``k`` of ``N``
  over ``D`` disks owns a ``D//N``-or-one-more slice, so global disk ids
  map back to ``(shard, local disk)`` by arithmetic alone.
* **Data ids** are assigned to shards popularity-aware: the hot head
  of the Zipf popularity distribution (the first ``hot_data_ids``
  ranks) is spread greedily by expected request weight — pure
  consistent hashing would hand whichever shard drew rank 0 an extra
  ~``1/H(num_data)`` of *all* traffic — and the flat tail goes to the
  consistent-hash ring (:class:`~repro.serve.shard.ring.HashRing`).
  The router routes with :func:`assign_data`'s exact output, so
  placement and routing can never disagree.
* **Replicas are shard-local by default** (``shard_replication_factor
  = 1``): each shard builds its placement catalog over *its own* data
  subset and *its own* disks (``ServiceConfig.make_catalog(data_ids)``),
  so every replica of an object lives on exactly one shard. That is
  what makes a shard worker a complete, independently-deterministic
  service — and what makes a dead shard's keyspace unservable (typed
  ``shard_down``) rather than silently degraded.
* **Cross-shard replication** (``shard_replication_factor = R > 1``)
  trades that amputation for availability: every data id is placed on
  ``R`` distinct shards — its primary owner plus ring successors (flat
  tail) or greedy weight-balanced picks (hot head) — and the router
  fails a dead shard's keys over to the next live replica shard in
  :func:`replica_table` order. The R=1 topology is bit-for-bit the
  pre-replication one, so the pinned R=1 determinism digest is
  untouched.
* **Seeds** are decorrelated per shard (``seed + 7919 * (shard+1)``) so
  shard workloads don't mirror each other, while the whole deployment
  stays reproducible from the one top-level seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.placement.catalog import PlacementCatalog
from repro.serve.service import ServiceConfig
from repro.serve.shard.ring import DEFAULT_VNODES, HashRing
from repro.types import DataId, DiskId

#: Per-shard seed stride (prime, so shard seed sequences never collide
#: with the +7 catalog offset or the *97 loadgen client streams).
SHARD_SEED_STRIDE = 7_919


@dataclass(frozen=True)
class ShardedServiceConfig:
    """One sharded serving deployment (the router-side config).

    A deployment is ``num_shards`` copies of one serving session plus
    the shard-only knobs below.

    Attributes:
        service: The session every shard runs, with deployment-wide
            values: ``num_disks`` is the whole fleet, ``seed`` the
            deployment seed (shard seeds derive from it), and
            ``disk_deaths`` name global disk ids (mapped onto the
            owning shard's local ids at topology build).
        num_shards: Worker process count (>= 1).
        vnodes: Virtual nodes per shard on the routing ring.
        hot_data_ids: Popularity ranks assigned greedily by Zipf weight
            instead of by the ring (0 = pure consistent hashing).
        drain_grace_s: Per-shard drain deadline in seconds.
        shard_replication_factor: Distinct shards holding each data id
            (1 = shard-local replicas only, the pre-replication
            topology; R > 1 enables cross-shard failover).
    """

    service: ServiceConfig = field(default_factory=ServiceConfig)
    num_shards: int = 2
    vnodes: int = DEFAULT_VNODES
    hot_data_ids: int = 64
    drain_grace_s: float = 2.0
    shard_replication_factor: int = 1

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.hot_data_ids < 0:
            raise ConfigurationError(
                f"hot_data_ids must be >= 0, got {self.hot_data_ids}"
            )
        service = self.service
        smallest = service.num_disks // self.num_shards
        if smallest < service.replication_factor:
            raise ConfigurationError(
                f"{service.num_disks} disks over {self.num_shards} shards "
                f"leaves {smallest} disks on the smallest shard, fewer "
                f"than replication_factor={service.replication_factor}; "
                "add disks or drop shards"
            )
        if not 1 <= self.shard_replication_factor <= self.num_shards:
            raise ConfigurationError(
                f"shard_replication_factor must be in [1, num_shards="
                f"{self.num_shards}], got {self.shard_replication_factor}"
            )

    def ring(self) -> HashRing:
        """The deployment's routing ring (also used at topology build)."""
        return HashRing(
            self.num_shards, vnodes=self.vnodes, seed=self.service.seed
        )

    def shard_seed(self, shard_id: int) -> int:
        """The service seed of shard ``shard_id``."""
        return self.service.seed + SHARD_SEED_STRIDE * (shard_id + 1)

    def disk_slices(self) -> List[Tuple[DiskId, DiskId]]:
        """Per-shard ``(first_global_disk, past_end)`` contiguous slices."""
        base, extra = divmod(self.service.num_disks, self.num_shards)
        slices: List[Tuple[DiskId, DiskId]] = []
        start = 0
        for shard in range(self.num_shards):
            count = base + (1 if shard < extra else 0)
            slices.append((start, start + count))
            start += count
        return slices


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker process needs — picklable by construction.

    Attributes:
        shard_id: Position in the deployment (0-based).
        service: The shard's own :class:`ServiceConfig` (local disk
            count, derived seed).
        data_ids: Sorted data ids this shard owns (ring assignment).
        global_disk_ids: The global ids of this shard's disks, for
            report readers mapping local disk 0.. back to the fleet.
        drain_grace_s: Drain deadline in seconds for this shard.
    """

    shard_id: int
    service: ServiceConfig
    data_ids: Tuple[DataId, ...]
    global_disk_ids: Tuple[DiskId, ...]
    drain_grace_s: float = 2.0

    def make_catalog(self) -> PlacementCatalog:
        """Placement over this shard's own data ids and disks."""
        return self.service.make_catalog(self.data_ids)


def assign_data(config: ShardedServiceConfig) -> List[int]:
    """Owner shard of every data id — the routing table, by rank.

    Data ids are Zipf popularity ranks (the load generator samples id
    ``r`` with weight ``(r+1)^-s``), so ownership is split in two
    regimes:

    * **hot head** (rank < ``hot_data_ids``): greedy assignment to the
      shard with the smallest accumulated expected weight, rank order,
      lowest shard id on ties. This is what keeps rank 0 — alone worth
      ~``1/H(num_data)`` of all traffic — from skewing one shard's
      load by double digits.
    * **flat tail**: the consistent-hash ring; per-id weights are small
      and near-uniform there, so hash balance is weight balance.

    Both the topology (which shard's catalog holds which ids) and the
    router consume this exact table, so they cannot disagree.
    """
    ring = config.ring()
    num_data = config.service.num_data
    owners = [0] * num_data
    exponent = config.service.zipf_exponent
    loads = [0.0] * config.num_shards
    hot = min(config.hot_data_ids, num_data)
    for rank in range(hot):
        lightest = min(range(config.num_shards), key=lambda s: (loads[s], s))
        owners[rank] = lightest
        loads[lightest] += (rank + 1) ** -exponent
    for data_id in range(hot, num_data):
        owners[data_id] = ring.lookup(data_id)
    return owners


def replica_table(
    config: ShardedServiceConfig,
    routing_table: Optional[Sequence[int]] = None,
) -> List[Tuple[int, ...]]:
    """Replica shards of every data id, failover-priority order.

    Element 0 of each tuple is the primary owner — exactly
    :func:`assign_data`'s answer, so R=1 routing is unchanged. The
    remaining ``shard_replication_factor - 1`` entries are the shards a
    dead primary's traffic fails over to, tried left to right:

    * **flat tail**: the key's ring successors
      (:meth:`~repro.serve.shard.ring.HashRing.successors`) — a pure
      function of the ring, so the failover order is stable across
      processes and across live-set changes (a key never re-targets
      because some *other* shard died).
    * **hot head**: successive greedy picks by accumulated expected
      replica weight — the energy-aware tie-break: rank 0's failover
      copy alone is worth ~``1/H(num_data)`` of all traffic, so pushing
      it onto whichever shard is already lightest keeps a degraded
      deployment's load (and therefore its spun-up disk population)
      balanced.

    The router and the topology consume this exact table, so placement
    and failover can never disagree.
    """
    if routing_table is None:
        routing_table = assign_data(config)
    replicas = config.shard_replication_factor
    if replicas == 1:
        return [(owner,) for owner in routing_table]
    ring = config.ring()
    num_data = config.service.num_data
    exponent = config.service.zipf_exponent
    hot = min(config.hot_data_ids, num_data)
    # Start from the primaries' accumulated hot-head weights (the same
    # sums assign_data's greedy built), so replica copies steer away
    # from shards that are already hot with primary traffic.
    loads = [0.0] * config.num_shards
    for rank in range(hot):
        loads[routing_table[rank]] += (rank + 1) ** -exponent
    table: List[Tuple[int, ...]] = []
    for rank in range(hot):
        weight = (rank + 1) ** -exponent
        chosen = [routing_table[rank]]
        while len(chosen) < replicas:
            lightest = min(
                (s for s in range(config.num_shards) if s not in chosen),
                key=lambda s: (loads[s], s),
            )
            chosen.append(lightest)
            loads[lightest] += weight
        table.append(tuple(chosen))
    for data_id in range(hot, num_data):
        order = ring.successors(data_id)
        # successors()[0] is assign_data's tail owner by construction.
        table.append(tuple(order[:replicas]))
    return table


def build_topology(
    config: ShardedServiceConfig,
    routing_table: Optional[Sequence[int]] = None,
) -> Tuple[ShardSpec, ...]:
    """Deterministically expand a deployment config into shard specs.

    Every data id in ``range(num_data)`` lands on every shard in its
    :func:`replica_table` row — at the default
    ``shard_replication_factor = 1`` that is exactly its
    :func:`assign_data` owner, so shard data sets are pairwise disjoint
    and their union is the global population (pinned by
    ``tests/serve/test_shard_topology.py``); at R > 1 each id appears
    on R distinct shards. Each shard's :class:`ServiceConfig` is the
    deployment's ``service`` scoped to the shard's disk slice and
    derived seed, with the scripted global ``disk_deaths`` translated
    to the owning shard's local disk ids.

    Args:
        config: The deployment.
        routing_table: An :func:`assign_data` result to reuse when the
            caller already computed it (the router does); ``None``
            computes it here. Passing anything else desynchronises the
            router from the catalogs — don't.
    """
    if routing_table is None:
        routing_table = assign_data(config)
    replicas = replica_table(config, routing_table)
    owned: Dict[int, List[DataId]] = {
        shard: [] for shard in range(config.num_shards)
    }
    for data_id, holders in enumerate(replicas):
        for shard in holders:
            owned[shard].append(data_id)
    specs: List[ShardSpec] = []
    for shard_id, (start, stop) in enumerate(config.disk_slices()):
        local_deaths = tuple(
            (disk_id - start, at_s)
            for disk_id, at_s in config.service.disk_deaths
            if start <= disk_id < stop
        )
        service = replace(
            config.service,
            num_disks=stop - start,
            seed=config.shard_seed(shard_id),
            disk_deaths=local_deaths,
        )
        specs.append(
            ShardSpec(
                shard_id=shard_id,
                service=service,
                data_ids=tuple(owned[shard_id]),
                global_disk_ids=tuple(range(start, stop)),
                drain_grace_s=config.drain_grace_s,
            )
        )
    return tuple(specs)


__all__ = [
    "SHARD_SEED_STRIDE",
    "ShardSpec",
    "ShardedServiceConfig",
    "assign_data",
    "build_topology",
    "replica_table",
]
