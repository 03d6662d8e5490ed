"""The data the reprolint rules read, plus the per-run rule selection.

The unit domains drive the two unit-discipline rules (RPL001/RPL002):
each names the *stems* that mark an identifier as carrying a physical
quantity (time, energy, power), the *suffixes* that make the unit explicit
in the name itself, and the *unit words* that count as documentation when
they appear in a docstring.  The other constants name the scopes and call
vocabularies of the rest of the catalogue; each rule imports what it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple


@dataclass(frozen=True)
class UnitDomain:
    """One physical quantity: how names betray it and how units satisfy it.

    Attributes:
        stems: Lower-case words that mark an identifier as carrying this
            quantity (matched as whole ``snake_case`` components).
        suffixes: Name endings that make the unit explicit (``gap_seconds``).
        unit_words: Words whose presence in a docstring counts as
            documenting the unit (``"Gap length in seconds."``).  The
            words "fraction", "ratio", and "unitless" are accepted for
            every domain — an explicitly unitless quantity (a normalized
            energy, a reduction fraction) is documented too.
    """

    stems: Tuple[str, ...]
    suffixes: Tuple[str, ...]
    unit_words: Tuple[str, ...]

    def name_matches(self, name: str) -> bool:
        """True when a snake_case component of ``name`` is a domain stem."""
        parts = name.lower().split("_")
        return any(part in self.stems or part.rstrip("s") in self.stems for part in parts)

    def name_carries_unit(self, name: str) -> bool:
        """True when ``name`` ends in an approved unit suffix."""
        lowered = name.lower()
        return any(
            lowered == suffix.lstrip("_") or lowered.endswith(suffix)
            for suffix in self.suffixes
        )

    def documented_in(self, docstring: Optional[str]) -> bool:
        """True when ``docstring`` mentions one of the domain's unit words."""
        if not docstring:
            return False
        lowered = docstring.lower()
        return any(
            word in lowered for word in (*self.unit_words, *UNITLESS_WORDS)
        )


#: Docstring words declaring a quantity explicitly unitless (any domain).
UNITLESS_WORDS: Tuple[str, ...] = ("fraction", "ratio", "unitless", "normalized")

#: The unit domains reprolint knows about (paper Table 1 quantities).
UNIT_DOMAINS: Dict[str, UnitDomain] = {
    "time": UnitDomain(
        stems=("time", "interval", "duration", "deadline", "timeout", "elapsed", "gap"),
        suffixes=("_seconds", "_secs", "_sec", "_s", "_ms", "_us", "_ns"),
        unit_words=("second", "seconds", "secs", "millisecond", "milliseconds", "ms"),
    ),
    "energy": UnitDomain(
        stems=("energy", "joule", "joules"),
        suffixes=("_joules", "_j", "_wh", "_kwh"),
        unit_words=("joule", "joules", "watt-hour", "watt-hours", "kwh"),
    ),
    "power": UnitDomain(
        stems=("power", "watt", "watts"),
        suffixes=("_watts", "_w", "_kw"),
        unit_words=("watt", "watts", "kilowatt", "kilowatts", "kw"),
    ),
}


def matching_domains(name: str) -> Tuple[str, ...]:
    """Unit domains whose stems appear in ``name``, in declaration order."""
    return tuple(
        key for key, domain in UNIT_DOMAINS.items() if domain.name_matches(name)
    )


#: Scheduler base classes and the methods each contract accepts (RPL004):
#: a subclass must define at least one of them. An online scheduler may
#: bind a picker or only choose per request (the base bind falls back
#: to its choose).
SCHEDULER_CONTRACTS: Dict[str, Tuple[str, ...]] = {
    "OnlineScheduler": ("bind", "choose"),
    "BatchScheduler": ("choose_batch",),
    "OfflineScheduler": ("schedule",),
}

#: Parameter names treated as frozen ``Request`` instances by the RPL004
#: mutation check (``Request``-annotated parameters count too).
REQUEST_NAMES: FrozenSet[str] = frozenset({"request", "req"})

#: ``numpy.random`` attributes that are seedable constructors, not
#: module-level draws from the hidden global state (RPL003).
SEEDABLE_NUMPY_ATTRS: FrozenSet[str] = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox", "MT19937", "RandomState"}
)

#: Functions on the per-event/per-request hot path (RPL007). A fresh
#: container built inside one of these runs once per simulated event —
#: tens of thousands of times per run — so RPL007 flags
#: comprehension-based rebuilding there. Method *names*, matched in the
#: modules selected by :data:`HOT_PATH_PARTS`.
HOT_FUNCTIONS: FrozenSet[str] = frozenset(
    {
        "choose",
        "cost",
        "energy_cost",
        "locations",
        "available_locations",
        "submit",
        "schedule_after",
        "_transition",
        "_admit",
        "dispatch_batch",
        "admit",
        "cached_arrival",
        "pick",
        "_fix_head",
        "advance",
        "catch_up",
        "_serve",
        "_advance_due",
    }
)

#: Path fragments (``/``-separated) selecting the modules RPL007 scans:
#: the simulation core, the disks and the scheduler layer.
HOT_PATH_PARTS: Tuple[str, ...] = ("repro/sim", "repro/disk", "repro/core")

#: Module-name prefixes rooting the determinism scope (RPL101/RPL102): the
#: packages whose dispatch paths must be byte-identically replayable.
DETERMINISM_SCOPE: Tuple[str, ...] = (
    "repro.sim",
    "repro.core",
    "repro.serve",
    "repro.tape",
)

#: Canonical dotted names of calls that read the wall clock (RPL101).
#: Matched after import-alias expansion, so ``from time import time`` and
#: ``import time as t`` are both seen.
WALL_CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Canonical dotted names of RNG constructors whose *first argument* is the
#: seed; passing a maybe-``None`` seed through falls back to OS entropy
#: (RPL102).
RNG_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
    }
)

#: Function/method names that serialise reports and documents — the roots
#: of the RPL103 scope (unordered iteration feeding serialisation).
SERIALISATION_FUNCTIONS: FrozenSet[str] = frozenset(
    {
        "as_dict",
        "to_dict",
        "as_payload",
        "payload",
        "serialize",
        "serialise",
        "as_json",
        "to_json",
        "document",
        "bench_document",
        "run_bench",
        "serve_document",
        "shard_document",
        "sharded_document",
        "render",
        "summary",
    }
)

#: Canonical dotted names of calls that block the thread — forbidden inside
#: (or reachable from) ``async def`` bodies (RPL201).
BLOCKING_CALLS: FrozenSet[str] = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "os.popen",
        "os.waitpid",
        "socket.create_connection",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.request",
        "input",
    }
)


@dataclass(frozen=True)
class LayeringContract:
    """One RPL301 architecture constraint on a package's imports.

    Either ``forbidden`` lists package prefixes the ``package`` must never
    import, or ``allowed`` lists the *only* project packages it may import
    (itself always implicitly allowed).  ``reason`` is echoed in the
    finding so the contract is self-explaining at the violation site.
    """

    package: str
    reason: str
    forbidden: Tuple[str, ...] = ()
    allowed: Optional[Tuple[str, ...]] = None


#: The repo's layering contract (RPL301).  The scheduler and simulation
#: cores sit below the serving/experiment/tooling layers; the lint pass is
#: hermetic apart from the shared exception/type foundation.
LAYERING_CONTRACTS: Tuple[LayeringContract, ...] = (
    LayeringContract(
        package="repro.core",
        forbidden=(
            "repro.serve",
            "repro.experiments",
            "repro.cli",
            "repro.perf",
            "repro.checks",
        ),
        reason="the scheduler core sits below serving/experiments/tooling",
    ),
    LayeringContract(
        package="repro.sim",
        forbidden=(
            "repro.serve",
            "repro.experiments",
            "repro.cli",
            "repro.perf",
            "repro.checks",
        ),
        reason="the simulation core sits below serving/experiments/tooling",
    ),
    LayeringContract(
        package="repro.disk",
        forbidden=(
            "repro.serve",
            "repro.experiments",
            "repro.cli",
            "repro.perf",
            "repro.checks",
        ),
        reason="the disk device model sits below serving/experiments/tooling",
    ),
    LayeringContract(
        package="repro.tape",
        forbidden=(
            "repro.serve",
            "repro.experiments",
            "repro.cli",
            "repro.perf",
            "repro.checks",
        ),
        reason="the tape device model sits below serving/experiments/tooling",
    ),
    LayeringContract(
        package="repro.checks",
        allowed=("repro.errors", "repro.types"),
        reason="the lint pass must not depend on the domain it checks",
    ),
)


@dataclass(frozen=True)
class CheckConfig:
    """Which rules a lint run executes.

    Attributes:
        select: When non-empty, only these codes run.
        ignore: Codes disabled globally (after ``select``).
    """

    select: FrozenSet[str] = frozenset()
    ignore: FrozenSet[str] = frozenset()

    def rule_enabled(self, code: str) -> bool:
        """Apply ``select`` then ``ignore`` to one rule code."""
        if self.select and code not in self.select:
            return False
        return code not in self.ignore
