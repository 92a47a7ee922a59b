"""Ticked and queried flows share one implementation — the refactor gate.

``tests/serve/data/fleet_report_pre_refactor.json`` holds the canonical
final-report bytes of the seed-0, 4-day core fleet captured *before*
the pipeline drivers were rerouted through the serve contract.  The
same run must still produce those bytes, byte for byte: rerouting every
driver stage through ``serve().unwrap()`` changed the plumbing, never
the behaviour.  ``fleet_report_1200_jobs_per_day.json`` pins a seed-0,
2-day core fleet on a 1,200-jobs/day world the same way, captured
before every fleet size moved onto one streaming job feed.
"""

from pathlib import Path

from repro.fabric import ControlPlane, FleetConfig, build_fleet

DATA = Path(__file__).parent / "data"
BASELINE = DATA / "fleet_report_pre_refactor.json"
BASELINE_1200 = DATA / "fleet_report_1200_jobs_per_day.json"


class TestTickedFlowMatchesPreRefactorReport:
    def test_seed0_four_day_fleet_is_byte_identical(self):
        fabric = ControlPlane()
        try:
            build_fleet(fabric, FleetConfig(seed=0, days=4))
            fabric.run_days(4)
            assert fabric.report_bytes() == BASELINE.read_bytes()
        finally:
            fabric.close()

    def test_seed0_1200_jobs_per_day_fleet_is_byte_identical(self):
        fabric = ControlPlane()
        try:
            build_fleet(fabric, FleetConfig(seed=0, days=2, jobs_per_day=1200))
            fabric.run_days(2)
            assert fabric.report_bytes() == BASELINE_1200.read_bytes()
        finally:
            fabric.close()

    def test_queried_flow_reuses_the_ticked_implementation(self):
        """The driver op a query hits is the method the tick path calls."""
        from repro.core.doppler import SkuRecommender
        from repro.core.service import ServeRequest
        from repro.workloads import generate_customers

        fabric = ControlPlane()
        try:
            build_fleet(
                fabric,
                FleetConfig(seed=0, days=4, include=("doppler",)),
            )
            fabric.run_days(2)
            driver = fabric.bindings[0].driver
            customer = generate_customers(1, rng=9)[0]
            served = driver.serve(
                ServeRequest(op="recommend", subject=customer)
            ).unwrap()
            # An identical twin recommender answering directly (the old
            # pre-refactor call shape) must agree decision for decision.
            twin = SkuRecommender(rng=0).observe(list(driver.historical))
            direct = twin.recommend(customer)
            assert served.sku.name == direct.sku.name
            assert served.segment == direct.segment
            assert served.ranked_options == direct.ranked_options
        finally:
            fabric.close()
