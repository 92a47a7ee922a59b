"""Malformed and hostile requests against the QueryPlane.

Whatever arrives — unknown endpoints, ops or tenants, subjects of the
wrong type, NaN/inf/-0.0 fields and params, expired deadlines — the
plane answers with a ``ServeResponse`` and never raises; a failed
request adds no cache entry, and a cached response only ever answers a
subject whose canonical pickle equals the one it was computed for.
"""

import asyncio
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.service import ServeRequest, ServeResponse
from repro.fabric import ControlPlane, FleetConfig, build_fleet
from repro.serve import QueryPlane
from repro.workloads import ScopeWorkloadGenerator, generate_customers

_CUSTOMERS = generate_customers(4, rng=11)
_PLAN = ScopeWorkloadGenerator(rng=0).generate(n_days=1).jobs[0].plan


@pytest.fixture(scope="module")
def fabric():
    plane = ControlPlane()
    build_fleet(
        plane,
        FleetConfig(seed=0, days=4, include=("doppler", "peregrine")),
    )
    plane.run_days(2)
    yield plane
    plane.close()


_odd_floats = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_peaks = st.one_of(_odd_floats, _odd_floats.map(np.float64))


@st.composite
def _customers(draw):
    base = draw(st.sampled_from(_CUSTOMERS))
    return dataclasses.replace(
        base,
        customer_id=draw(st.sampled_from([base.customer_id, "", "x" * 40])),
        peak_vcores=draw(st.one_of(st.just(base.peak_vcores), _peaks)),
        peak_memory_gb=draw(st.one_of(st.just(base.peak_memory_gb), _peaks)),
        peak_iops=draw(st.one_of(st.just(base.peak_iops), _peaks)),
        utilization_headroom=draw(_odd_floats),
    )


_subjects = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.dictionaries(st.text(max_size=3), _odd_floats, max_size=2),
    st.just(_PLAN),
    st.sampled_from(_CUSTOMERS),
    _customers(),
)
_requests = st.tuples(
    st.sampled_from(["doppler", "peregrine", "teleport", ""]),
    st.builds(
        ServeRequest,
        op=st.sampled_from(["recommend", "stats", "report", "teleport", ""]),
        subject=_subjects,
        params=st.one_of(
            st.just({}),
            st.dictionaries(st.text(max_size=3), _odd_floats, max_size=2),
        ),
        tenant=st.one_of(st.sampled_from(["contoso", ""]), st.text(max_size=4)),
        deadline=st.one_of(
            st.none(),
            st.floats(-1e6, -1.0),  # already expired
            st.sampled_from([float("nan"), float("inf"), -float("inf")]),
        ),
    ),
)


class _Served:
    """Every cacheable 200 answer, by response object, with its subject."""

    def __init__(self) -> None:
        self.by_response: dict[int, tuple[ServeResponse, tuple]] = {}

    def check(self, endpoint: str, request: ServeRequest, response) -> None:
        if response.status != 200 or request.op != "recommend":
            return
        identity = (
            endpoint,
            request.tenant,
            pickle.dumps(request.subject, protocol=4),
            repr(sorted(dict(request.params).items())),
        )
        first = self.by_response.setdefault(id(response), (response, identity))
        assert first[1] == identity, "a cached answer served another subject"


class TestFuzzedRequests:
    # Negative and infinite peaks warn in log1p; they must still answer.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(requests=st.lists(_requests, min_size=1, max_size=6))
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_request_gets_a_response_and_no_failure_is_cached(
        self, fabric, requests
    ):
        plane = QueryPlane(fabric)
        served = _Served()

        async def one_by_one():
            for endpoint, request in requests:
                before = len(plane.cache)
                response = await plane.handle(endpoint, request)
                assert isinstance(response, ServeResponse)
                if response.status != 200:
                    assert len(plane.cache) == before
                served.check(endpoint, request, response)

        async def all_at_once():
            responses = await asyncio.gather(
                *(plane.handle(e, r) for e, r in requests)
            )
            for (endpoint, request), response in zip(requests, responses):
                assert isinstance(response, ServeResponse)
                served.check(endpoint, request, response)

        asyncio.run(one_by_one())
        asyncio.run(all_at_once())
        plane.drain()
        assert all(entry[0].ok for entry in plane.cache._entries.values())

    def test_a_negative_zero_subject_never_gets_its_twins_answer(self, fabric):
        plane = QueryPlane(fabric)
        customer = _CUSTOMERS[0]
        zero = dataclasses.replace(customer, peak_iops=np.float64(0.0))
        negative_zero = dataclasses.replace(customer, peak_iops=np.float64(-0.0))

        def ask(subject):
            request = ServeRequest(op="recommend", subject=subject, tenant="t")
            return asyncio.run(plane.handle("doppler", request))

        first = ask(zero)
        assert first.status == 200 and len(plane.cache) == 1
        twin = ask(negative_zero)
        assert twin.status == 200 and twin is not first
        assert len(plane.cache) == 2
        assert ask(negative_zero) is twin  # its own entry does hit
        assert ask(zero) is first
