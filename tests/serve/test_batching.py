"""Micro-batching: coalescing, bit-identity, and in-queue deadlines."""

import asyncio
import pickle

from repro.core.doppler import SkuRecommender
from repro.core.doppler.recommender import Recommendation
from repro.core.service import ServeRequest
from repro.fabric.pipeline import PipelineDriver
from repro.serve.batching import MicroBatcher
from repro.workloads import generate_customers


def _fitted(seed: int = 0) -> SkuRecommender:
    return SkuRecommender(rng=seed).observe(generate_customers(40, rng=0))


def _ranked_one_by_one(recommender, customer) -> Recommendation:
    """The price-ladder ranking spelled out per SKU with ``Sku.covers``."""
    segment = recommender.segment_of(customer)
    factor = recommender._segment_factor[segment]
    needs = (
        customer.peak_vcores * factor["vcores"],
        customer.peak_memory_gb * factor["memory"],
        customer.peak_iops * factor["iops"],
    )
    ranked = sorted(recommender.skus, key=lambda s: s.price)
    options = [(sku, sku.covers(*needs)) for sku in ranked]
    covering = [sku for sku, covers in options if covers]
    return Recommendation(
        customer_id=customer.customer_id,
        sku=covering[0] if covering else ranked[-1],
        segment=segment,
        ranked_options=options,
    )


class TestBatchedBitIdentity:
    """The contract the dispatcher relies on: batch == serial, per row."""

    def test_serve_many_coalesces_and_matches_serial_bytes(self):
        subjects = generate_customers(12, rng=1)
        requests = [ServeRequest(op="recommend", subject=s) for s in subjects]
        batched = _fitted().serve_many(requests)
        serial = [_fitted().serve(r) for r in requests]
        assert all(r.status == 200 for r in batched)
        assert pickle.dumps([r.result for r in batched]) == pickle.dumps(
            [r.result for r in serial]
        )

    def test_recommend_batch_matches_serial_recommend(self):
        subjects = generate_customers(8, rng=2)
        batched = _fitted().recommend_batch(subjects)
        serial = [_fitted(0).recommend(s) for s in subjects]
        # recommend() appends to per-service history; compare fresh twins
        assert pickle.dumps(batched) == pickle.dumps(
            _fitted().recommend_batch(subjects)
        )
        assert [r.sku.name for r in batched] == [r.sku.name for r in serial]
        assert [r.segment for r in batched] == [r.segment for r in serial]

    def test_every_benchmark_customer_ranks_as_the_per_sku_formula(self):
        # The 8,192 customers a serve_miss episode cycles through, fed
        # in micro-batches of 16 and one by one.
        customers = generate_customers(8192, rng=1)
        recommender = SkuRecommender(rng=1).observe(
            generate_customers(96, rng=1)
        )
        expected = pickle.dumps(
            [_ranked_one_by_one(recommender, c) for c in customers]
        )
        batched = [
            row
            for start in range(0, len(customers), 16)
            for row in recommender.recommend_batch(customers[start : start + 16])
        ]
        assert pickle.dumps(batched) == expected
        serial = [recommender.recommend(c) for c in customers]
        assert pickle.dumps(serial) == expected

    def test_mixed_op_batch_falls_back_to_serial(self):
        service = _fitted()
        requests = [
            ServeRequest(op="recommend", subject=generate_customers(1, rng=3)[0]),
            ServeRequest(op="report"),
        ]
        responses = service.serve_many(requests)
        assert [r.status for r in responses] == [200, 200]

    def test_unfitted_recommender_surfaces_per_request_500s(self):
        service = SkuRecommender(rng=0)
        subjects = generate_customers(3, rng=1)
        responses = service.serve_many(
            [ServeRequest(op="recommend", subject=s) for s in subjects]
        )
        assert [r.status for r in responses] == [500, 500, 500]
        assert all(isinstance(r.exception, RuntimeError) for r in responses)


class _CountingDriver(PipelineDriver):
    """Driver that records how serve_many batches arrive."""

    name = "counting"

    def __init__(self) -> None:
        self.batches: list[int] = []

    def observe(self, ctx) -> None:  # pragma: no cover — declared, unticked
        pass

    def serve_many(self, requests):
        from repro.core.service import ServeResponse

        self.batches.append(len(requests))
        return [
            ServeResponse(status=200, result=r.subject, op=r.op)
            for r in requests
        ]


class TestMicroBatcher:
    def test_full_bucket_flushes_as_one_batch(self):
        driver = _CountingDriver()
        batcher = MicroBatcher(max_batch=4, max_delay=60.0)

        async def drive():
            return await asyncio.gather(
                *(
                    batcher.submit(
                        "e", driver, ServeRequest(op="recommend", subject=i)
                    )
                    for i in range(4)
                )
            )

        responses = asyncio.run(drive())
        assert [r.result for r in responses] == [0, 1, 2, 3]
        assert driver.batches == [4]
        assert batcher.coalesced == 4
        assert batcher.largest_batch == 4

    def test_partial_bucket_flushes_on_delay(self):
        driver = _CountingDriver()
        batcher = MicroBatcher(max_batch=100, max_delay=0.005)

        async def drive():
            return await asyncio.gather(
                *(
                    batcher.submit(
                        "e", driver, ServeRequest(op="recommend", subject=i)
                    )
                    for i in range(3)
                )
            )

        responses = asyncio.run(drive())
        assert [r.result for r in responses] == [0, 1, 2]
        assert driver.batches == [3]

    def test_distinct_ops_land_in_distinct_buckets(self):
        driver = _CountingDriver()
        batcher = MicroBatcher(max_batch=2, max_delay=60.0)

        async def drive():
            return await asyncio.gather(
                batcher.submit("e", driver, ServeRequest(op="recommend", subject=1)),
                batcher.submit("e", driver, ServeRequest(op="stats", subject=2)),
                batcher.submit("e", driver, ServeRequest(op="recommend", subject=3)),
                batcher.submit("e", driver, ServeRequest(op="stats", subject=4)),
            )

        responses = asyncio.run(drive())
        assert [r.result for r in responses] == [1, 2, 3, 4]
        assert sorted(driver.batches) == [2, 2]

    def test_deadline_expired_in_queue_resolves_504_without_dispatch(self):
        driver = _CountingDriver()
        clock = {"now": 10.0}
        batcher = MicroBatcher(
            max_batch=2, max_delay=60.0, clock=lambda: clock["now"]
        )

        async def drive():
            dead = batcher.submit(
                "e", driver, ServeRequest(op="recommend", subject=1, deadline=5.0)
            )
            live = batcher.submit(
                "e", driver, ServeRequest(op="recommend", subject=2, deadline=99.0)
            )
            return await asyncio.gather(dead, live)

        expired, served = asyncio.run(drive())
        assert expired.status == 504
        assert served.status == 200
        assert driver.batches == [1]  # only the live request was dispatched
        assert batcher.expired_in_queue == 1

    def test_drain_flushes_pending_buckets(self):
        driver = _CountingDriver()
        batcher = MicroBatcher(max_batch=100, max_delay=60.0)

        async def drive():
            task = asyncio.ensure_future(
                batcher.submit("e", driver, ServeRequest(op="recommend", subject=9))
            )
            await asyncio.sleep(0)  # let the submit enqueue
            assert batcher.depth == 1
            batcher.drain()
            return await task

        response = asyncio.run(drive())
        assert response.result == 9
        assert batcher.depth == 0
