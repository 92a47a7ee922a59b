"""Checkpoint/restore: interrupted fabric runs finish byte-identically.

The acceptance scenario for the control plane: a fleet of 7 services
runs 7 simulated days; checkpointing at day 3, restoring (optionally in
a fresh interpreter via pickle bytes), and running the remaining 4 days
must produce the *byte-identical* final report an uninterrupted run
produces — through both checkpoint formats (@1 full pickle, @2
base+delta chain) and through the deprecated module-function shims.
"""

import pickle

import pytest

from repro.fabric import (
    FORMAT_V1,
    CheckpointStore,
    ControlPlane,
    FaultInjector,
    FleetConfig,
    RecordingDriver,
    build_fleet,
)
from repro.fabric.store import checkpoint_bytes_v1, restore_v1

DAYS = 7
CHECKPOINT_AT = 3


def _fleet_plane(injector=None, workers=1):
    plane = ControlPlane(injector=injector)
    build_fleet(plane, FleetConfig(days=DAYS, workers=workers))
    return plane


def _v1_round_trip(plane):
    """In-memory @1 snapshot/restore (a fresh-interpreter stand-in)."""
    return restore_v1(pickle.loads(checkpoint_bytes_v1(plane)))


@pytest.fixture(scope="module")
def uninterrupted_report():
    plane = _fleet_plane()
    plane.run_days(DAYS)
    return plane.report_bytes()


class TestFleetCheckpointResume:
    def test_fleet_is_at_least_five_services(self):
        assert len(_fleet_plane().bindings) >= 5

    @pytest.mark.parametrize("version", [1, 2])
    def test_resumed_run_is_byte_identical(
        self, tmp_path, version, uninterrupted_report
    ):
        plane = _fleet_plane()
        plane.run_days(CHECKPOINT_AT)
        CheckpointStore(tmp_path / "store", version=version).save(plane)
        restored = CheckpointStore.load(tmp_path / "store")
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

    def test_resume_with_faults_still_deterministic(self):
        def injector():
            inj = FaultInjector()
            inj.inject("seagull", "recommend", day=5, times=3)
            inj.inject("doppler", "recommend", day=1, times=1)
            return inj

        straight = _fleet_plane(injector=injector())
        straight.run_days(DAYS)

        interrupted = _fleet_plane(injector=injector())
        interrupted.run_days(CHECKPOINT_AT)
        restored = _v1_round_trip(interrupted)
        restored.run_days(DAYS - CHECKPOINT_AT)
        assert restored.report_bytes() == straight.report_bytes()
        # The day-5 fault fires after the checkpoint and still degrades.
        assert restored.health.summary()["degraded"] == 1


class TestCheckpointFormat:
    def test_v1_format_tag_present(self):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        payload = pickle.loads(checkpoint_bytes_v1(plane))
        assert payload["format"] == FORMAT_V1
        assert set(payload["state"]) >= {
            "day", "now", "registry", "lifecycle", "bindings",
        }

    def test_foreign_pickle_rejected(self, tmp_path):
        payload = {"format": "something-else", "state": {}}
        with pytest.raises(ValueError, match="not a fabric checkpoint"):
            restore_v1(payload)
        foreign = tmp_path / "foreign.pkl"
        foreign.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="not a fabric checkpoint"):
            CheckpointStore.load(foreign)

    def test_obs_runtime_never_pickled(self):
        from repro.obs import ObservabilityRuntime

        obs = ObservabilityRuntime()
        plane = ControlPlane(obs=obs)
        plane.register(RecordingDriver())
        plane.run_days(1)
        blob = checkpoint_bytes_v1(plane)  # must not try to pickle obs
        assert plane._obs is obs  # rebound after the snapshot
        restored = restore_v1(pickle.loads(blob))
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

    @pytest.mark.parametrize("version", [1, 2])
    def test_shared_registry_identity_survives(self, tmp_path, version):
        # Drivers holding the shared registry must restore pointing at
        # the same object the lifecycle owns — @1 gets this from the
        # single pickle dump, @2 from persistent-id shared refs.
        plane = _fleet_plane()
        plane.run_days(2)
        CheckpointStore(tmp_path / "store", version=version).save(plane)
        restored = CheckpointStore.load(tmp_path / "store")
        feedback = next(
            b.driver for b in restored.bindings if b.name == "feedback"
        )
        assert feedback.loop is not None
        assert feedback.loop.registry is restored.registry
        assert restored.lifecycle.registry is restored.registry
