"""Built-in RPL rules; importing this package registers all of them.

Codes are grouped in families: RPL0xx per-file domain rules, RPL1xx
whole-program determinism, RPL2xx asyncio correctness, RPL3xx
architecture layering.
"""

from __future__ import annotations

from repro.checks.rules.rpl001_float_equality import FloatEqualityRule
from repro.checks.rules.rpl002_unit_suffixes import UnitSuffixRule
from repro.checks.rules.rpl003_unseeded_random import UnseededRandomRule
from repro.checks.rules.rpl004_scheduler_contract import SchedulerContractRule
from repro.checks.rules.rpl005_mutable_defaults import MutableDefaultRule
from repro.checks.rules.rpl006_broad_except import BroadExceptRule
from repro.checks.rules.rpl007_hot_path_allocation import HotPathAllocationRule
from repro.checks.rules.rpl008_invariant_filter_container import (
    InvariantFilterContainerRule,
)
from repro.checks.rules.rpl101_wall_clock import WallClockRule
from repro.checks.rules.rpl102_seed_fallthrough import SeedFallthroughRule
from repro.checks.rules.rpl103_unordered_serialisation import (
    UnorderedSerialisationRule,
)
from repro.checks.rules.rpl201_blocking_in_async import BlockingInAsyncRule
from repro.checks.rules.rpl202_unawaited_coroutine import UnawaitedCoroutineRule
from repro.checks.rules.rpl203_orphan_task import OrphanTaskRule
from repro.checks.rules.rpl301_layering import LayeringRule

__all__ = [
    "BlockingInAsyncRule",
    "BroadExceptRule",
    "FloatEqualityRule",
    "HotPathAllocationRule",
    "InvariantFilterContainerRule",
    "LayeringRule",
    "MutableDefaultRule",
    "OrphanTaskRule",
    "SchedulerContractRule",
    "SeedFallthroughRule",
    "UnitSuffixRule",
    "UnorderedSerialisationRule",
    "UnseededRandomRule",
    "WallClockRule",
]
