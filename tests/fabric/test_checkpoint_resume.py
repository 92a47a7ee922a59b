"""Checkpoint/restore: interrupted fabric runs finish byte-identically.

The acceptance scenario for the control plane: a fleet of 7 services
runs 7 simulated days; checkpointing at day 3, restoring (optionally in
a fresh interpreter via the chain file), and running the remaining 4
days must produce the *byte-identical* final report an uninterrupted run
produces — from one base frame, from a base+delta chain, and through
``ControlPlane.checkpoint``/``restore``.
"""

import pickle

import pytest

from repro.fabric import (
    CheckpointStore,
    ControlPlane,
    FaultInjector,
    FleetConfig,
    RecordingDriver,
    build_fleet,
)

DAYS = 7
CHECKPOINT_AT = 3


def _fleet_plane(injector=None, workers=1):
    plane = ControlPlane(injector=injector)
    build_fleet(plane, FleetConfig(days=DAYS, workers=workers))
    return plane


def _round_trip(plane, path):
    """Save ``plane`` as a one-frame chain at ``path`` and load it back."""
    CheckpointStore(path).save(plane)
    return CheckpointStore.load(path)


@pytest.fixture(scope="module")
def uninterrupted_report():
    plane = _fleet_plane()
    plane.run_days(DAYS)
    return plane.report_bytes()


class TestFleetCheckpointResume:
    def test_fleet_is_at_least_five_services(self):
        assert len(_fleet_plane().bindings) >= 5

    def test_resumed_run_is_byte_identical(self, tmp_path, uninterrupted_report):
        plane = _fleet_plane()
        plane.run_days(CHECKPOINT_AT)
        restored = _round_trip(plane, tmp_path / "store")
        assert restored.day == CHECKPOINT_AT
        restored.run_days(DAYS - CHECKPOINT_AT)
        assert restored.report_bytes() == uninterrupted_report

    def test_delta_chain_resumes_byte_identical(
        self, tmp_path, uninterrupted_report
    ):
        # Save every day: base at day 1, deltas after — the restored
        # plane merges the whole chain.
        plane = _fleet_plane()
        store = CheckpointStore(tmp_path / "store")
        kinds = []
        for _ in range(CHECKPOINT_AT):
            plane.run_days(1)
            kinds.append(store.save(plane).kind)
        assert kinds == ["base", "delta", "delta"]
        restored = CheckpointStore.load(tmp_path / "store")
        restored.run_days(DAYS - CHECKPOINT_AT)
        assert restored.report_bytes() == uninterrupted_report

    def test_checkpointed_plane_can_also_continue(
        self, tmp_path, uninterrupted_report
    ):
        # Taking a snapshot must not perturb the running plane.
        plane = _fleet_plane()
        plane.run_days(CHECKPOINT_AT)
        CheckpointStore(tmp_path / "store").save(plane)
        plane.run_days(DAYS - CHECKPOINT_AT)
        assert plane.report_bytes() == uninterrupted_report

    def test_parallel_workers_match_serial(self, uninterrupted_report):
        plane = _fleet_plane(workers=2)
        plane.run_days(DAYS)
        assert plane.report_bytes() == uninterrupted_report

    def test_file_round_trip(self, tmp_path, uninterrupted_report):
        path = tmp_path / "fabric.ckpt"
        plane = _fleet_plane()
        plane.run_days(CHECKPOINT_AT)
        plane.checkpoint(path)
        restored = ControlPlane.restore(path)
        assert restored.day == CHECKPOINT_AT
        restored.run_days(DAYS - CHECKPOINT_AT)
        assert restored.report_bytes() == uninterrupted_report

    def test_resume_with_faults_still_deterministic(self, tmp_path):
        def injector():
            inj = FaultInjector()
            inj.inject("seagull", "recommend", day=5, times=3)
            inj.inject("doppler", "recommend", day=1, times=1)
            return inj

        straight = _fleet_plane(injector=injector())
        straight.run_days(DAYS)

        interrupted = _fleet_plane(injector=injector())
        interrupted.run_days(CHECKPOINT_AT)
        restored = _round_trip(interrupted, tmp_path / "store")
        restored.run_days(DAYS - CHECKPOINT_AT)
        assert restored.report_bytes() == straight.report_bytes()
        # The day-5 fault fires after the checkpoint and still degrades.
        assert restored.health.summary()["degraded"] == 1


class TestCheckpointFormat:
    def test_foreign_pickle_rejected(self, tmp_path):
        payload = {"format": "something-else", "state": {}}
        foreign = tmp_path / "foreign.pkl"
        foreign.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="foreign.pkl is not a"):
            CheckpointStore.load(foreign)

    def test_obs_runtime_never_pickled(self, tmp_path):
        from repro.obs import ObservabilityRuntime

        obs = ObservabilityRuntime()
        plane = ControlPlane(obs=obs)
        plane.register(RecordingDriver())
        plane.run_days(1)
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)  # must not try to pickle obs
        assert plane._obs is obs  # rebound after the snapshot
        assert b"ObservabilityRuntime" not in store.path.read_bytes()
        restored = CheckpointStore.load(tmp_path / "store")
        assert restored._obs is None

    def test_restore_rebinds_fresh_obs(self, tmp_path):
        from repro.obs import ObservabilityRuntime

        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(1)
        CheckpointStore(tmp_path / "store").save(plane)
        fresh = ObservabilityRuntime()
        restored = CheckpointStore.load(tmp_path / "store", obs=fresh)
        restored.run_days(1)
        assert any(s.name == "fabric.run" for s in fresh.tracer.spans)
        kinds = [e.kind for e in fresh.events.events]
        assert "restore" in kinds

    def test_shared_registry_identity_survives(self, tmp_path):
        # Drivers holding the shared registry must restore pointing at
        # the same object the lifecycle owns, through the blob preludes'
        # shared refs.
        plane = _fleet_plane()
        plane.run_days(2)
        CheckpointStore(tmp_path / "store").save(plane)
        restored = CheckpointStore.load(tmp_path / "store")
        feedback = next(
            b.driver for b in restored.bindings if b.name == "feedback"
        )
        assert feedback.loop is not None
        assert feedback.loop.registry is restored.registry
        assert restored.lifecycle.registry is restored.registry
