"""Per-rule fixtures: at least one passing and one failing snippet per RPL code."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

import repro
from repro.checks import check_source, get_rule
from repro.checks.config import HOT_FUNCTIONS, HOT_PATH_PARTS


def lint(snippet: str) -> list:
    """Run all rules over a dedented snippet, returning violations."""
    return check_source(textwrap.dedent(snippet), path="fixture.py")


def codes(snippet: str) -> set:
    """The set of rule codes that fire on a snippet."""
    return {violation.code for violation in lint(snippet)}


# ---------------------------------------------------------------- RPL001

RPL001_FAIL = """
def drain(queue, now, deadline):
    if now == deadline:
        return []
"""

RPL001_FAIL_ATTRIBUTE = """
def same_instant(request, view):
    return request.time != view.now
"""

RPL001_PASS = """
import math

def drain(queue, now, deadline):
    if now >= deadline or math.isclose(now, deadline):
        return []
"""


def test_rpl001_flags_float_equality_on_time():
    violations = [v for v in lint(RPL001_FAIL) if v.code == "RPL001"]
    assert violations
    assert "deadline" in violations[0].message or "now" in violations[0].message


def test_rpl001_flags_attribute_time_comparison():
    assert "RPL001" in codes(RPL001_FAIL_ATTRIBUTE)


def test_rpl001_allows_ordering_and_isclose():
    assert "RPL001" not in codes(RPL001_PASS)


def test_rpl001_allows_none_comparison():
    assert "RPL001" not in codes("def f(t_last):\n    return t_last == None\n")


# ---------------------------------------------------------------- RPL002

RPL002_FAIL = """
def spin_budget(interval: float) -> float:
    return interval * 2.0
"""

RPL002_PASS_SUFFIX = """
def spin_budget(interval_seconds: float) -> float:
    return interval_seconds * 2.0
"""

RPL002_PASS_DOC = '''
def spin_budget(interval: float) -> float:
    """Twice the scheduling interval, both in seconds."""
    return interval * 2.0
'''

RPL002_PASS_PRIVATE = """
def _spin_budget(interval: float) -> float:
    return interval * 2.0
"""

RPL002_PASS_NON_NUMERIC = """
def label(energy: "EnergyReport") -> str:
    return energy.name
"""

RPL002_FAIL_ATTRIBUTE = """
class Budget:
    idle_power: float
"""


def test_rpl002_flags_bare_quantity_parameter():
    fired = [v for v in lint(RPL002_FAIL) if v.code == "RPL002"]
    assert fired and "interval" in fired[0].message


def test_rpl002_accepts_unit_suffix():
    assert "RPL002" not in codes(RPL002_PASS_SUFFIX)


def test_rpl002_accepts_documented_unit():
    assert "RPL002" not in codes(RPL002_PASS_DOC)


def test_rpl002_ignores_private_functions():
    assert "RPL002" not in codes(RPL002_PASS_PRIVATE)


def test_rpl002_ignores_non_numeric_annotations():
    assert "RPL002" not in codes(RPL002_PASS_NON_NUMERIC)


def test_rpl002_flags_undocumented_class_attribute():
    assert "RPL002" in codes(RPL002_FAIL_ATTRIBUTE)


def test_rpl002_accepts_inherited_method_docstring():
    snippet = '''
    class Base:
        def idle_timeout(self) -> float:
            """Seconds before spin-down."""

    class Child(Base):
        def idle_timeout(self) -> float:
            return 5.0
    '''
    assert "RPL002" not in codes(snippet)


# ---------------------------------------------------------------- RPL003

RPL003_FAIL_MODULE_CALL = """
import random

def jitter():
    return random.random()
"""

RPL003_FAIL_UNSEEDED_CTOR = """
import random

def make_rng():
    return random.Random()
"""

RPL003_FAIL_NUMPY = """
import numpy as np

def noise(n):
    return np.random.uniform(size=n)
"""

RPL003_FAIL_NUMPY_UNSEEDED_RNG = """
import numpy as np

def make_rng():
    return np.random.default_rng()
"""

RPL003_PASS = """
import random

def make_rng(seed: int):
    return random.Random(seed)

def jitter(rng: random.Random):
    return rng.random()
"""

RPL003_PASS_NUMPY = """
import numpy as np

def make_rng(seed: int):
    return np.random.default_rng(seed)
"""


@pytest.mark.parametrize(
    "snippet",
    [
        RPL003_FAIL_MODULE_CALL,
        RPL003_FAIL_UNSEEDED_CTOR,
        RPL003_FAIL_NUMPY,
        RPL003_FAIL_NUMPY_UNSEEDED_RNG,
    ],
)
def test_rpl003_flags_nondeterministic_rng(snippet):
    assert "RPL003" in codes(snippet)


@pytest.mark.parametrize("snippet", [RPL003_PASS, RPL003_PASS_NUMPY])
def test_rpl003_accepts_seeded_injected_rng(snippet):
    assert "RPL003" not in codes(snippet)


# ---------------------------------------------------------------- RPL004

RPL004_FAIL_MISSING_METHOD = """
class LazyScheduler(OnlineScheduler):
    def helper(self):
        return 1
"""

RPL004_FAIL_MUTATION = """
class GreedyScheduler(OnlineScheduler):
    def choose(self, request, view):
        request.time = 0.0
        return 0
"""

RPL004_FAIL_SETATTR = """
class SneakyScheduler(OnlineScheduler):
    def choose(self, request, view):
        object.__setattr__(request, "time", 0.0)
        return 0
"""

RPL004_PASS = """
class FineScheduler(OnlineScheduler):
    def choose(self, request, view):
        return min(view.locations(request.data_id))
"""

RPL004_PASS_BIND = """
class BoundScheduler(OnlineScheduler):
    def bind(self, view):
        def pick(request, locations, now):
            return locations[0]
        return pick
"""

RPL004_PASS_ABSTRACT = """
from abc import abstractmethod

class StillAbstract(OnlineScheduler):
    @abstractmethod
    def helper(self): ...
"""


def test_rpl004_flags_missing_family_method():
    violations = [v for v in lint(RPL004_FAIL_MISSING_METHOD) if v.code == "RPL004"]
    assert violations and "bind() or choose()" in violations[0].message


def test_rpl004_flags_request_mutation():
    violations = [v for v in lint(RPL004_FAIL_MUTATION) if v.code == "RPL004"]
    assert violations and "frozen Request" in violations[0].message


def test_rpl004_flags_object_setattr_bypass():
    assert "RPL004" in codes(RPL004_FAIL_SETATTR)


def test_rpl004_accepts_conforming_scheduler():
    assert "RPL004" not in codes(RPL004_PASS)


def test_rpl004_accepts_bind_only_online_scheduler():
    assert "RPL004" not in codes(RPL004_PASS_BIND)


def test_rpl004_skips_abstract_intermediates():
    assert "RPL004" not in codes(RPL004_PASS_ABSTRACT)


def test_rpl004_batch_and_offline_contracts():
    assert "RPL004" in codes("class B(BatchScheduler):\n    pass\n")
    assert "RPL004" in codes("class O(OfflineScheduler):\n    pass\n")
    assert "RPL004" not in codes(
        "class B(BatchScheduler):\n    def choose_batch(self, requests, view):\n"
        "        return {}\n"
    )


# ---------------------------------------------------------------- RPL005

RPL005_FAIL = """
def collect(request, bucket=[]):
    bucket.append(request)
    return bucket
"""

RPL005_PASS = """
def collect(request, bucket=None):
    bucket = [] if bucket is None else bucket
    bucket.append(request)
    return bucket
"""


def test_rpl005_flags_mutable_default():
    violations = [v for v in lint(RPL005_FAIL) if v.code == "RPL005"]
    assert violations and "bucket" in violations[0].message


def test_rpl005_flags_constructor_and_kwonly_defaults():
    assert "RPL005" in codes("def f(x=dict()):\n    return x\n")
    assert "RPL005" in codes("def f(*, x={}):\n    return x\n")


def test_rpl005_accepts_none_sentinel():
    assert "RPL005" not in codes(RPL005_PASS)


def test_rpl005_accepts_immutable_defaults():
    assert "RPL005" not in codes("def f(x=(), y=0, z='a'):\n    return x\n")


# ---------------------------------------------------------------- RPL006

RPL006_FAIL_BARE = """
def load(path):
    try:
        return open(path).read()
    except:
        return None
"""

RPL006_FAIL_BROAD = """
def load(path):
    try:
        return open(path).read()
    except Exception:
        return None
"""

RPL006_PASS_NARROW = """
def load(path):
    try:
        return open(path).read()
    except OSError:
        return None
"""

RPL006_PASS_RERAISE = """
def load(path):
    try:
        return open(path).read()
    except Exception:
        log("failed")
        raise
"""


def test_rpl006_flags_bare_except():
    violations = [v for v in lint(RPL006_FAIL_BARE) if v.code == "RPL006"]
    assert violations and "bare except" in violations[0].message


def test_rpl006_flags_broad_except_without_reraise():
    assert "RPL006" in codes(RPL006_FAIL_BROAD)


def test_rpl006_accepts_narrow_except():
    assert "RPL006" not in codes(RPL006_PASS_NARROW)


def test_rpl006_accepts_broad_except_with_reraise():
    assert "RPL006" not in codes(RPL006_PASS_RERAISE)


# ---------------------------------------------------------------- RPL007

HOT_PATH = "src/repro/sim/fixture.py"

RPL007_FAIL_LISTCOMP = """
def choose(self, request, view):
    candidates = [d for d in view.locations(request.data_id)]
    return candidates[0]
"""

RPL007_FAIL_TUPLE_GENEXP = """
def available_locations(self, data_id):
    disks = self._disks
    return tuple(d for d in self._all if disks[d].is_available)
"""

RPL007_PASS_COLD_FUNCTION = """
def summarise(self):
    return [d for d in self._disks]
"""

RPL007_PASS_PLAIN_GENEXP = """
def cost(self, disk, now):
    return sum(weight for weight in self._weights)
"""

RPL007_PASS_PRAGMA = """
def available_locations(self, data_id):
    disks = self._disks
    return tuple(  # reprolint: disable=RPL007 -- fault path only
        d for d in self._all if disks[d].is_available
    )
"""


def lint_hot(snippet: str) -> list:
    """Lint a snippet as if it lived in the simulation core."""
    return check_source(textwrap.dedent(snippet), path=HOT_PATH)


def test_rpl007_flags_list_comprehension_in_hot_function():
    violations = [v for v in lint_hot(RPL007_FAIL_LISTCOMP) if v.code == "RPL007"]
    assert violations and "choose" in violations[0].message


def test_rpl007_flags_materialised_genexp_at_the_call_line():
    violations = [
        v for v in lint_hot(RPL007_FAIL_TUPLE_GENEXP) if v.code == "RPL007"
    ]
    # Reported once, anchored at the tuple(...) call so a line pragma works.
    assert len(violations) == 1
    assert violations[0].line == 4
    assert "tuple" in violations[0].message


def test_rpl007_ignores_cold_functions():
    assert all(v.code != "RPL007" for v in lint_hot(RPL007_PASS_COLD_FUNCTION))


def test_rpl007_ignores_unmaterialised_generators():
    assert all(v.code != "RPL007" for v in lint_hot(RPL007_PASS_PLAIN_GENEXP))


def test_rpl007_out_of_scope_module_is_exempt():
    violations = check_source(
        textwrap.dedent(RPL007_FAIL_LISTCOMP), path="src/repro/analysis/agg.py"
    )
    assert all(v.code != "RPL007" for v in violations)


def test_rpl007_pragma_waives_the_call_line():
    assert all(v.code != "RPL007" for v in lint_hot(RPL007_PASS_PRAGMA))


def test_rpl007_hot_functions_name_real_functions():
    # A renamed hot function must not leave a stale name behind: every
    # listed name is defined somewhere under the hot-path modules.
    package = Path(repro.__file__).parent
    defined = {
        node.name
        for path in sorted(package.rglob("*.py"))
        if any(part in path.as_posix() for part in HOT_PATH_PARTS)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert sorted(HOT_FUNCTIONS - defined) == []


# ---------------------------------------------------------------- RPL008

RPL008_FAIL_SET_PER_DISK = """
def uniform_distinct(rng, num_disks, count, exclude):
    available = [disk for disk in range(num_disks) if disk not in set(exclude)]
    return rng.sample(available, count)
"""

RPL008_PASS_HOISTED = """
def uniform_distinct(rng, num_disks, count, exclude):
    excluded = set(exclude)
    available = [x for x in range(num_disks) if x not in excluded]
    return rng.sample(available, count)
"""

RPL008_PASS_ELEMENT_BUILDER = """
def fresh_sets(r):
    return [set() for _ in r]
"""

RPL008_PASS_NAMES_A_TARGET = """
def unsorted(rows):
    return [row for row in rows if list(row) != sorted(row)]
"""

RPL008_FAIL_OUTER_TARGET_IN_INNER_FILTER = """
def firsts(groups):
    return [
        [d for d in group if d not in frozenset(group[1:])]
        for group in groups
    ]
"""


def test_rpl008_flags_a_set_rebuilt_per_element():
    violations = [v for v in lint(RPL008_FAIL_SET_PER_DISK) if v.code == "RPL008"]
    assert len(violations) == 1
    assert violations[0].line == 3
    assert "set(...)" in violations[0].message


def test_rpl008_flags_outside_the_hot_path_modules():
    violations = check_source(
        textwrap.dedent(RPL008_FAIL_SET_PER_DISK),
        path="src/repro/placement/schemes.py",
    )
    assert [v.code for v in violations] == ["RPL008"]


def test_rpl008_flags_an_outer_target_in_an_inner_filter():
    # ``group`` is the outer loop's variable: invariant over the inner ``d``.
    violations = [
        v for v in lint(RPL008_FAIL_OUTER_TARGET_IN_INNER_FILTER) if v.code == "RPL008"
    ]
    assert len(violations) == 1 and "frozenset" in violations[0].message


@pytest.mark.parametrize(
    "snippet",
    [RPL008_PASS_HOISTED, RPL008_PASS_ELEMENT_BUILDER, RPL008_PASS_NAMES_A_TARGET],
    ids=["hoisted", "element-builder", "names-a-target"],
)
def test_rpl008_accepts_invariant_free_filters(snippet):
    assert "RPL008" not in codes(snippet)


# ---------------------------------------------------------------- catalogue


def test_every_rule_has_a_failing_fixture():
    """Meta-check: every registered code has fixture coverage.

    RPL001–008 are exercised above; the whole-program families
    (RPL1xx/RPL2xx/RPL3xx) are exercised in ``test_project_rules.py``.
    """
    from repro.checks import all_rules

    exercised = {
        "RPL001",
        "RPL002",
        "RPL003",
        "RPL004",
        "RPL005",
        "RPL006",
        "RPL007",
        "RPL008",
        "RPL101",
        "RPL102",
        "RPL103",
        "RPL201",
        "RPL202",
        "RPL203",
        "RPL301",
    }
    assert {rule.code for rule in all_rules()} == exercised


def test_get_rule_roundtrip():
    rule = get_rule("RPL005")
    assert rule.code == "RPL005"
    assert rule.name == "mutable-default-argument"
