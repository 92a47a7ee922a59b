"""Signature-keyed caching: identity, epochs, lifecycle eviction."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.service import ServeRequest, ServeResponse
from repro.fabric.lifecycle import ModelLifecycle
from repro.serve.cache import RecommendationCache, subject_key


def _ok(result) -> ServeResponse:
    return ServeResponse(status=200, result=result)


@dataclasses.dataclass
class Scalars:
    label: object
    count: object
    level: object


class ScalarsChild(Scalars):
    pass


@dataclasses.dataclass
class Reduced:
    level: float

    def __reduce__(self):
        return (Reduced, (self.level,))


@dataclasses.dataclass(slots=True)
class Slotted:
    level: float


def _canonical(subject) -> bytes:
    return pickle.dumps(subject, protocol=4)


def _fresh(value):
    """An equal copy that shares no object with ``value``.

    Pickle's memo writes a second reference to one object differently
    from an equal copy, so the contract is stated over subjects whose
    fields share nothing (short strings are interned either way).
    """
    if type(value) is str:
        return "".join(list(value))
    if type(value) is np.float64:
        return np.float64(float(value))
    return value


#: Values that compare (or hash) equal across types or signs.
_TWINS = [0, 0.0, -0.0, False, 1, 1.0, True, None, "", "1"]
_scalars = st.one_of(
    st.sampled_from(_TWINS),
    st.sampled_from(_TWINS).filter(lambda v: type(v) is float).map(np.float64),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.floats(allow_nan=True).map(np.float64),
    st.text(max_size=3),
    st.booleans(),
)
_subjects = st.tuples(
    st.sampled_from([Scalars, ScalarsChild]),
    st.lists(_scalars, min_size=3, max_size=3),
)


def _build(spec):
    cls, values = spec
    return cls(*(_fresh(v) for v in values))


def _has_nan(subject) -> bool:
    return any(
        isinstance(v, float) and math.isnan(v) for v in vars(subject).values()
    )


class TestSubjectKey:
    def test_structurally_identical_plans_share_a_key(self):
        from repro.workloads import ScopeWorkloadGenerator

        plan = ScopeWorkloadGenerator(rng=0).generate(n_days=1).jobs[0].plan
        assert subject_key(plan) == subject_key(copy.deepcopy(plan))
        assert subject_key(plan).startswith("strict:")

    def test_different_plans_key_differently(self):
        from repro.workloads import ScopeWorkloadGenerator

        jobs = ScopeWorkloadGenerator(rng=0).generate(n_days=1).jobs
        distinct = {subject_key(j.plan) for j in jobs}
        assert len(distinct) > 1

    def test_primitives_key_by_value(self):
        assert subject_key("srv-1") == "str:srv-1"
        assert subject_key(7) == "int:7"
        assert subject_key(None) == "none"

    def test_arbitrary_objects_key_by_content_digest(self):
        a = subject_key({"peak": 4.0})
        assert a.startswith("blob:")
        assert a == subject_key({"peak": 4.0})
        assert a != subject_key({"peak": 5.0})


class TestScalarDataclassKey:
    """Dataclasses of scalars key by value, exactly as the digest would."""

    @given(a=_subjects, b=_subjects)
    @settings(max_examples=400, deadline=None)
    def test_keys_equal_exactly_when_canonical_pickles_are(self, a, b):
        a, b = _build(a), _build(b)
        if _canonical(a) != _canonical(b):
            assert subject_key(a) != subject_key(b)
        elif not _has_nan(a):
            assert subject_key(a) == subject_key(b)

    @given(spec=_subjects)
    @settings(max_examples=100, deadline=None)
    def test_an_equal_copy_shares_the_key(self, spec):
        subject = _build(spec)
        twin = _build(spec)
        if not _has_nan(subject):
            assert subject_key(subject) == subject_key(twin)
        # The same object always hits, NaN or not.
        assert subject_key(subject) == subject_key(subject)

    def test_twins_that_compare_equal_key_apart(self):
        values = [
            0, 0.0, -0.0, False, np.float64(0.0), np.float64(-0.0),
            1, 1.0, True, np.float64(1.0),
        ]
        keys = {subject_key(Scalars("c", v, 2.0)) for v in values}
        assert len(keys) == len(values)
        assert subject_key(Scalars("c", 1, 2.0)) != subject_key(
            ScalarsChild("c", 1, 2.0)
        )

    def test_customer_profiles_key_by_value(self):
        from repro.workloads import generate_customers

        customer = generate_customers(1, rng=0)[0]
        key = subject_key(customer)
        assert isinstance(key, tuple)
        assert key == subject_key(copy.deepcopy(customer))
        zero = dataclasses.replace(customer, peak_vcores=np.float64(0.0))
        negative_zero = dataclasses.replace(
            customer, peak_vcores=np.float64(-0.0)
        )
        assert subject_key(zero) != subject_key(negative_zero)

    @pytest.mark.parametrize(
        "subject",
        [
            Scalars("c", [1], 2.0),  # a field that is not a scalar
            Scalars("c", np.int64(1), 2.0),  # a numpy scalar other than float64
            Reduced(1.0),  # its own reduce hook
            Slotted(1.0),  # no instance dict
        ],
    )
    def test_other_dataclasses_key_by_digest(self, subject):
        assert subject_key(subject).startswith("blob:")

    def test_an_attribute_outside_the_fields_keys_by_digest(self):
        subject = Scalars("c", 1, 2.0)
        subject.extra = 3
        assert subject_key(subject).startswith("blob:")
        assert subject_key(subject) != subject_key(Scalars("c", 1, 2.0))


class TestCacheBasics:
    def test_roundtrip_and_counters(self):
        cache = RecommendationCache()
        key = cache.key("t", "doppler", "recommend", "c-1")
        assert cache.get(key) is None
        cache.put(key, _ok("sku"))
        hit = cache.get(key)
        assert hit is not None and hit.result == "sku"
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_error_responses_are_never_cached(self):
        cache = RecommendationCache()
        key = cache.key("t", "doppler", "recommend", "c-1")
        cache.put(key, ServeResponse(status=500, error="boom"))
        assert len(cache) == 0

    def test_lru_eviction_at_capacity(self):
        cache = RecommendationCache(max_entries=2)
        keys = [cache.key("t", "e", "recommend", i) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, _ok(i))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(keys[0]) is None  # oldest went first
        assert cache.get(keys[2]).result == 2

    def test_epoch_is_part_of_the_key(self):
        cache = RecommendationCache()
        old = cache.key("t", "e", "recommend", "c", epoch=3)
        cache.put(old, _ok("stale"))
        fresh = cache.key("t", "e", "recommend", "c", epoch=4)
        assert old != fresh
        assert cache.get(fresh) is None  # a tick moves the epoch: miss

    def test_tenant_and_model_version_partition_entries(self):
        cache = RecommendationCache()
        base = dict(endpoint="e", op="recommend", subject="c")
        a = cache.key("tenant-a", model_version=1, **base)
        b = cache.key("tenant-b", model_version=1, **base)
        v2 = cache.key("tenant-a", model_version=2, **base)
        assert len({a, b, v2}) == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            RecommendationCache(max_entries=0)


class TestLifecycleEviction:
    def test_promote_evicts_entries_tagged_with_the_model(self):
        lifecycle = ModelLifecycle()
        cache = RecommendationCache(lifecycle=lifecycle)
        key = cache.key("t", "e", "recommend", "c")
        other = cache.key("t", "e2", "recommend", "c")
        cache.put(key, _ok("old"), model="latency-model")
        cache.put(other, _ok("kept"), model="other-model")
        lifecycle.propose("latency-model", object(), candidate_metric=0.5)
        assert cache.get(key) is None  # promote evicted it
        assert cache.get(other).result == "kept"
        assert cache.invalidations == 1

    def test_rollback_evicts_entries_tagged_with_the_model(self):
        lifecycle = ModelLifecycle()
        lifecycle.propose("m", object(), candidate_metric=0.5)
        version = lifecycle.shadow("m", object())
        lifecycle.registry.promote("m", version)
        cache = RecommendationCache(lifecycle=lifecycle)
        key = cache.key("t", "e", "recommend", "c", model_version=version)
        cache.put(key, _ok("from-v2"), model="m")
        assert lifecycle.rollback("m") is not None
        assert cache.get(key) is None
        assert cache.invalidations == 1

    def test_actions_before_cache_construction_do_not_evict(self):
        lifecycle = ModelLifecycle()
        lifecycle.propose("m", object(), candidate_metric=0.5)
        cache = RecommendationCache(lifecycle=lifecycle)
        key = cache.key("t", "e", "recommend", "c")
        cache.put(key, _ok("fresh"), model="m")
        assert cache.get(key).result == "fresh"  # old promote already seen

    def test_model_version_reads_the_production_record(self):
        lifecycle = ModelLifecycle()
        cache = RecommendationCache(lifecycle=lifecycle)
        assert cache.model_version("m") is None
        lifecycle.propose("m", object(), candidate_metric=0.5)
        assert cache.model_version("m") == 1
        assert cache.model_version("") is None


class TestCachedEqualsUncached:
    """The byte-identity acceptance gate, against an identical twin."""

    def test_cached_recommendation_is_byte_identical_to_uncached(self):
        from repro.core.doppler import SkuRecommender
        from repro.workloads import generate_customers

        customers = generate_customers(40, rng=0)
        subject = generate_customers(5, rng=1)[3]

        def fitted() -> SkuRecommender:
            return SkuRecommender(rng=0).observe(customers)

        serving, twin = fitted(), fitted()
        cache = RecommendationCache()
        key = cache.key("t", "doppler", "recommend", subject)
        first = serving.serve(ServeRequest(op="recommend", subject=subject))
        cache.put(key, first)
        hit = cache.get(key)
        assert hit is first  # the cache returns the response object itself
        uncached = twin.serve(ServeRequest(op="recommend", subject=subject))
        assert pickle.dumps(hit.result) == pickle.dumps(uncached.result)
