"""Fabric ownership of the persistent worker pool.

The control plane owns the pool's lifecycle: workers start lazily on the
first parallel dispatch, survive across ticks and simulated days, are
never checkpointed, and stop on ``close()``.  Resume after restore must
re-arm the pool transparently and still report byte-identically.
"""

import os
from dataclasses import dataclass, field

import pytest

from repro.fabric import CheckpointStore, ControlPlane
from repro.fabric.pipeline import PipelineDriver, TickContext
from repro.parallel import FORCE_ENV, pmap, shutdown_pool


def _cube(x: int) -> int:
    return x**3


def _worker_pid(x: int) -> int:
    return os.getpid()


@dataclass
class PoolDriver(PipelineDriver):
    """Driver whose tick fans work across the plane's pool."""

    name: str = "pooluser"
    total: int = 0
    pids: list[int] = field(default_factory=list)  # never reported

    def observe(self, ctx: TickContext) -> None:
        values = pmap(
            _cube, range(8 * (ctx.day + 1)), workers=2, chunksize=2
        )
        self.total += sum(values)
        self.pids.extend(
            pmap(_worker_pid, range(4), workers=2, chunksize=1)
        )

    def final_report(self) -> dict:
        # PIDs stay out: reports must be byte-identical across resumes.
        return {"total": self.total}


@pytest.fixture
def force_pools(monkeypatch):
    monkeypatch.setenv(FORCE_ENV, "1")


class TestPoolOwnership:
    def test_plane_holds_the_shared_pool_cold(self):
        shutdown_pool()  # earlier tests may have warmed the shared pool
        with ControlPlane() as plane:
            assert plane.pool is ControlPlane().pool  # one shared pool
            assert not plane.pool.started  # lazy: no dispatch yet

    def test_pool_survives_across_fabric_days(self, force_pools):
        driver = PoolDriver()
        with ControlPlane() as plane:
            plane.register(driver)
            plane.run_days(1)
            generation = plane.pool.generation
            plane.run_days(1)
            assert plane.pool.generation == generation  # no restart
            # Both days drew from one worker set: at most ``width``
            # distinct PIDs ever existed, and never the parent's.
            assert len(set(driver.pids)) <= plane.pool.width
            assert os.getpid() not in set(driver.pids)

    def test_close_stops_the_pool(self, force_pools):
        plane = ControlPlane()
        plane.register(PoolDriver())
        plane.run_days(1)
        assert plane.pool.started
        plane.close()
        assert not plane.pool.started

    def test_context_manager_closes_on_exit(self, force_pools):
        with ControlPlane() as plane:
            plane.register(PoolDriver())
            plane.run_days(1)
            assert plane.pool.started
        assert not plane.pool.started


class TestCheckpointExclusion:
    def test_checkpoint_bytes_never_mention_the_pool(self, force_pools, tmp_path):
        plane = ControlPlane()
        plane.register(PoolDriver())
        plane.run_days(1)
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)  # would fail pickling an executor
        assert b"WorkerPool" not in store.path.read_bytes()
        plane.close()

    def test_restore_rearms_the_pool_lazily(self, force_pools, tmp_path):
        plane = ControlPlane()
        plane.register(PoolDriver())
        plane.run_days(1)
        CheckpointStore(tmp_path / "store").save(plane)
        plane.close()  # interrupted: workers are gone

        restored = CheckpointStore.load(tmp_path / "store")
        assert restored.pool is plane.pool  # same shared handle...
        assert not restored.pool.started  # ...cold after the interrupt
        restored.run_days(1)  # first dispatch re-arms it
        assert restored.pool.started
        restored.close()

    def test_resumed_run_reports_byte_identical(self, force_pools, tmp_path):
        straight = ControlPlane()
        straight.register(PoolDriver())
        straight.run_days(3)
        expected = straight.report_bytes()
        straight.close()

        interrupted = ControlPlane()
        interrupted.register(PoolDriver())
        interrupted.run_days(1)
        CheckpointStore(tmp_path / "store").save(interrupted)
        interrupted.close()
        restored = CheckpointStore.load(tmp_path / "store")
        restored.run_days(2)
        assert restored.report_bytes() == expected
        restored.close()


class TestSerialFabricStaysSerial:
    def test_pool_never_starts_without_force(self, monkeypatch):
        # Under pytest, resolve_workers guards to serial: a whole fabric
        # run must not start worker processes.
        monkeypatch.delenv(FORCE_ENV, raising=False)
        shutdown_pool()
        with ControlPlane() as plane:
            plane.register(PoolDriver())
            plane.run_days(2)
            assert not plane.pool.started
