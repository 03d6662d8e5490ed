"""Hypothesis strategies shared by several test modules."""

from hypothesis import strategies as st

from repro.core.problem import SchedulingProblem
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import PAPER_UNIT, DiskPowerProfile
from repro.types import Request


@st.composite
def small_problems(
    draw, profile: DiskPowerProfile = PAPER_UNIT, max_requests: int = 7
):
    """Scheduling problems of up to 4 disks and ``max_requests`` requests
    within 30 s, each request's data on a random set of disks."""
    num_disks = draw(st.integers(min_value=1, max_value=4))
    num_requests = draw(st.integers(min_value=1, max_value=max_requests))
    locations = {}
    for data_id in range(num_requests):
        count = draw(st.integers(min_value=1, max_value=num_disks))
        disks = draw(
            st.permutations(range(num_disks)).map(lambda p: list(p)[:count])
        )
        locations[data_id] = disks
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=30.0),
                min_size=num_requests,
                max_size=num_requests,
            )
        )
    )
    requests = [
        Request(time=t, request_id=i, data_id=i) for i, t in enumerate(times)
    ]
    return SchedulingProblem.build(
        requests, PlacementCatalog(locations), profile, num_disks
    )
