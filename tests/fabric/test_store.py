"""The checkpoint store: delta chains, durable schedules, compaction.

Covers the @2 format's distinguishing behaviours — dirty-tracked delta
frames, shared references through each blob's prelude (frozen attrs,
the registry), append-only tails, chain compaction — plus the durable
schedule rows: a plane killed mid-backoff must resume at the pending
attempt (never attempt one), and a paused service must stay paused
across a restore.  Any file that is not a chain is refused, naming it.
"""

import json
import pickle
import shutil

import pytest

from repro.fabric import (
    CheckpointStore,
    ControlPlane,
    FaultInjector,
    RecordingDriver,
    RetryPolicy,
)
from repro.fabric.pipeline import PipelineDriver, TickContext


class FrozenWorldDriver(PipelineDriver):
    """Driver with a bulky immutable input world and references into it."""

    name = "frozen"
    dirty_aware = True
    frozen_attrs = ("world",)

    def __init__(self):
        self.world = {i: list(range(500)) for i in range(20)}
        self.seen = []

    def observe(self, ctx: TickContext) -> None:
        self.mark_dirty()
        self.seen.append(ctx.day)
        self.held = self.world[ctx.day % 20]  # a reference INTO the world

    def final_report(self) -> dict:
        return {"seen": len(self.seen)}


class _Wrapped:
    """A service-like object the driver holds, pointing into shared state."""

    def __init__(self, registry):
        self.registry = registry
        self.item = None
        self.history = []


class HistoryDriver(PipelineDriver):
    """Frozen nested objects, a registry reference and an append-only list."""

    name = "history"
    dirty_aware = True
    frozen_attrs = ("world",)
    append_attrs = ("service.history",)

    def __init__(self, registry):
        self.world = [[{"cell": (i, j)} for j in range(3)] for i in range(8)]
        self.service = _Wrapped(registry)

    def observe(self, ctx: TickContext) -> None:
        self.mark_dirty()
        self.service.item = self.world[ctx.day % 8][1]  # nested in the world
        self.service.history.append({"day": ctx.day, "cell": self.service.item})
        self.service.history.append(("plain", ctx.day))

    def final_report(self) -> dict:
        return {"rows": len(self.service.history)}


def _history_plane() -> ControlPlane:
    plane = ControlPlane()
    plane.register(HistoryDriver(plane.registry))
    return plane


class TestDeltaChain:
    def test_base_then_deltas(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        store = CheckpointStore(tmp_path / "store")
        kinds = []
        for _ in range(3):
            plane.run_days(1)
            kinds.append(store.save(plane).kind)
        assert kinds == ["base", "delta", "delta"]
        frames = store.frames()
        assert [f["kind"] for f in frames] == kinds
        assert [f["seq"] for f in frames] == [0, 1, 2]

    def test_clean_service_skipped_in_delta(self, tmp_path):
        # A dirty-aware driver that stops mutating drops out of deltas.
        plane = ControlPlane()
        driver = FrozenWorldDriver()
        plane.register(driver)
        store = CheckpointStore(tmp_path / "store")
        plane.run_days(1)
        store.save(plane)
        result = store.save(plane)  # nothing ran since the last save
        assert result.kind == "delta"
        assert result.saved == []
        assert result.clean == ["frozen"]

    def test_frozen_world_not_reserialized_in_deltas(self, tmp_path):
        plane = ControlPlane()
        plane.register(FrozenWorldDriver())
        store = CheckpointStore(tmp_path / "store")
        plane.run_days(1)
        base = store.save(plane)
        plane.run_days(1)
        delta = store.save(plane)
        # The world is ~20x500 ints; the delta tokenizes it away.
        assert delta.bytes_written < base.bytes_written / 5
        restored = CheckpointStore.load(tmp_path / "store")
        driver = restored.bindings[0].driver
        assert driver.world == {i: list(range(500)) for i in range(20)}
        # References into the frozen world resolve to the same objects.
        assert driver.held is driver.world[1 % 20]
        assert driver.seen == [0, 1]

    def test_adopting_an_existing_chain_appends(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        store = CheckpointStore(tmp_path / "store")
        plane.run_days(1)
        store.save(plane)
        # A second store instance (a restarted process) continues it.
        adopted = CheckpointStore(tmp_path / "store")
        plane.run_days(1)
        assert adopted.save(plane).kind == "delta"
        assert [f["seq"] for f in adopted.frames()] == [0, 1]


    def test_a_side_snapshot_hides_no_change_from_the_store(self, tmp_path):
        # Each store keeps its own view of what changed: the side
        # snapshot writes the driver's day-0 tick, and the store's next
        # delta still carries it although the driver is idle on day 1.
        plane = ControlPlane()
        plane.register(FrozenWorldDriver(), cadence_days=2)
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)
        plane.run_days(1)
        plane.checkpoint(tmp_path / "side")
        plane.run_days(1)
        assert store.save(plane).saved == ["frozen"]
        assert store.save(plane).clean == ["frozen"]
        restored = CheckpointStore.load(tmp_path / "store")
        assert restored.report_bytes() == plane.report_bytes()


class TestSharedRefs:
    """Blob preludes keep identity with frozen objects and the registry."""

    def test_nested_frozen_objects_and_registry_keep_identity(self, tmp_path):
        plane = _history_plane()
        store = CheckpointStore(tmp_path / "store")
        for _ in range(3):
            plane.run_days(1)
            store.save(plane)
        assert [f["kind"] for f in store.frames()] == ["base", "delta", "delta"]
        restored = CheckpointStore.load(tmp_path / "store")
        driver = restored.bindings[0].driver
        assert driver.service.registry is restored.registry
        assert driver.service.item is driver.world[2][1]
        # Rows carried by earlier frames' tails still point into the world.
        assert [row["cell"] is driver.world[i][1] for i, row in enumerate(
            driver.service.history[::2]
        )] == [True, True, True]
        assert driver.service.history == plane.bindings[0].driver.service.history

    def test_unresolvable_shared_ref_names_file_and_service(self, tmp_path):
        plane = ControlPlane()
        driver = FrozenWorldDriver()
        plane.register(driver)
        plane.run_days(1)
        CheckpointStore(tmp_path / "store").save(plane)
        # Break the frozen contract between processes: a restarted store
        # walks a world the base frame never held.
        driver.world[99] = [1, 2, 3]
        driver.held = driver.world[99]
        plane.run_days(1)
        CheckpointStore(tmp_path / "store").save(plane)
        with pytest.raises(ValueError, match=r"fabric\.ckpt: service 'frozen'"):
            CheckpointStore.load(tmp_path / "store")

    def test_chain_from_an_older_blob_layout_is_refused(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(1)
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)
        frame = store.frames()[0]
        del frame["tails"]
        store.path.write_bytes(pickle.dumps(frame, protocol=4))
        with pytest.raises(ValueError, match="predates"):
            CheckpointStore.load(tmp_path / "store")
        with pytest.raises(ValueError, match="fabric.ckpt"):
            CheckpointStore(tmp_path / "store").save(plane)


class TestAppendOnlyTails:
    """Declared histories travel as per-frame tails."""

    FLEET = ("steering", "cloudviews", "moneyball", "seagull", "doppler")

    def _fleet(self) -> ControlPlane:
        from repro.fabric import FleetConfig, build_fleet

        plane = ControlPlane()
        build_fleet(plane, FleetConfig(seed=1, days=8, include=self.FLEET))
        return plane

    @staticmethod
    def _same(path, live: ControlPlane) -> None:
        restored = CheckpointStore.load(path)
        assert restored.report_bytes() == live.report_bytes()
        for got, want in zip(restored.bindings, live.bindings):
            cls = type(want.driver)
            for attr in (*cls.append_attrs, *(a for a, _ in cls.keyed_attrs)):
                a, b = got.driver, want.driver
                for part in attr.split("."):
                    a, b = getattr(a, part), getattr(b, part)
                rows = list(a.items()) if isinstance(a, dict) else a
                want_rows = list(b.items()) if isinstance(b, dict) else b
                assert [pickle.dumps(row, protocol=4) for row in rows] == [
                    pickle.dumps(row, protocol=4) for row in want_rows
                ], (want.name, attr)
        restored.close()

    def test_tails_compaction_and_adoption_restore_the_live_fleet(self, tmp_path):
        live = self._fleet()
        store = CheckpointStore(tmp_path / "store")
        for _ in range(4):  # a base and three deltas
            live.run_days(1)
            store.save(live)
        frames = store.frames()
        assert [f["kind"] for f in frames] == ["base", "delta", "delta", "delta"]
        lengths = [f["tails"]["seagull"]["service._choices"] for f in frames]
        assert lengths == [8, 16, 24, 32]
        # A delta carries one day of seagull choices, not the history.
        assert len(frames[3]["services"]["seagull"]) < 1.1 * len(
            frames[1]["services"]["seagull"]
        )
        self._same(tmp_path / "store", live)

        assert store.compact() == 3
        assert [f["kind"] for f in store.frames()] == ["base"]
        self._same(tmp_path / "store", live)
        live.run_days(1)
        assert store.save(live).kind == "delta"
        self._same(tmp_path / "store", live)

        # A restarted process adopts the chain and keeps appending tails.
        adopted = CheckpointStore(tmp_path / "store")
        assert adopted._marks == store._marks
        for _ in range(2):
            live.run_days(1)
            adopted.save(live)
        frames = adopted.frames()
        assert [f["kind"] for f in frames] == ["base", "delta", "delta", "delta"]
        assert frames[-1]["tails"]["seagull"]["service._choices"] == 56
        self._same(tmp_path / "store", live)
        live.close()

    def test_a_side_snapshot_leaves_the_attached_store_whole(self, tmp_path):
        # Each store keeps its own marks: snapshots written elsewhere,
        # between frames of the attached store, take nothing out of the
        # attached store's next deltas.
        live = self._fleet()
        store = CheckpointStore(tmp_path / "store")
        live.attach_store(store)
        live.run_days(2)
        live.checkpoint(tmp_path / "side")
        # A day run detached changes state the attached store's next
        # deltas must still carry after another side snapshot.
        live.attach_store(None)
        live.run_days(1)
        live.checkpoint(tmp_path / "side")
        live.attach_store(store)
        live.run_days(2)
        store.save(live)  # one more frame, after the run
        assert [f["kind"] for f in store.frames()].count("base") == 1
        self._same(tmp_path / "store", live)
        live.close()

    def test_shrunk_or_replaced_history_is_refused(self, tmp_path):
        plane = _history_plane()
        history = plane.bindings[0].driver.service
        store = CheckpointStore(tmp_path / "store")
        plane.run_days(2)
        store.save(plane)
        history.history.pop()
        history.history.pop()
        history.history.pop()
        plane.bindings[0].driver.mark_dirty()
        with pytest.raises(ValueError, match="history.service.history.*shrank"):
            store.save(plane)
        history.history = list(history.history) + [1, 2, 3, 4]
        with pytest.raises(ValueError, match="replaced"):
            store.save(plane)
        assert len(store.frames()) == 1


class TestCompaction:
    def test_compact_collapses_to_one_base(self, tmp_path):
        plane = ControlPlane()
        plane.register(FrozenWorldDriver())
        plane.register(RecordingDriver())
        store = CheckpointStore(tmp_path / "store")
        for _ in range(4):
            plane.run_days(1)
            store.save(plane)
        assert len(store.frames()) == 4
        removed = store.compact()
        assert removed == 3
        frames = store.frames()
        assert [f["kind"] for f in frames] == ["base"]
        # Nothing was lost: the compacted chain restores the same state,
        # including the frozen world stripped from delta frames.
        restored = CheckpointStore.load(tmp_path / "store")
        assert restored.day == 4
        driver = restored.bindings[0].driver
        assert driver.seen == [0, 1, 2, 3]
        assert driver.held is driver.world[3 % 20]

    def test_chain_keeps_growing_after_compact(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        store = CheckpointStore(tmp_path / "store")
        for _ in range(3):
            plane.run_days(1)
            store.save(plane)
        store.compact()
        plane.run_days(1)
        assert store.save(plane).kind == "delta"
        assert len(store.frames()) == 2
        assert CheckpointStore.load(tmp_path / "store").day == 4

    def test_compact_on_single_frame_is_noop(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(1)
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)
        assert store.compact() == 0
        assert len(store.frames()) == 1


class TestUnreadableChain:
    """An existing file a @2 store cannot continue is never replaced."""

    def _plane(self) -> ControlPlane:
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(1)
        return plane

    def test_v2_store_refuses_a_v1_file(self, tmp_path):
        path = tmp_path / "legacy.ckpt"
        path.write_bytes(pickle.dumps({"format": "repro.fabric/checkpoint@1"}))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="legacy.ckpt"):
            CheckpointStore(path).save(self._plane())
        assert path.read_bytes() == before
        with pytest.raises(ValueError, match="legacy.ckpt"):
            CheckpointStore.load(path)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda chain: b"not a pickle at all", id="garbage"),
            pytest.param(lambda chain: b"", id="empty"),
            pytest.param(
                lambda chain: pickle.dumps({"format": "something-else"}),
                id="foreign",
            ),
            pytest.param(
                lambda chain: pickle.dumps(
                    {"format": "repro.fabric/checkpoint@1", "state": {}}
                ),
                id="v1",
            ),
            # The last frame, cut short.
            pytest.param(lambda chain: chain[:-7], id="truncated"),
            # A frame torn right after its protocol header: unpickling
            # runs out of input exactly as it does at a clean end.
            pytest.param(lambda chain: chain + b"\x80\x04", id="torn_header"),
        ],
    )
    def test_load_names_every_unreadable_file(self, tmp_path, damage):
        store = CheckpointStore(tmp_path / "chain.ckpt")
        plane = self._plane()
        store.save(plane)
        plane.run_days(1)
        store.save(plane)
        path = tmp_path / "broken.ckpt"
        path.write_bytes(damage(store.path.read_bytes()))
        with pytest.raises(ValueError, match="broken.ckpt"):
            CheckpointStore.load(path)

    def test_torn_chain_is_not_replaced(self, tmp_path):
        plane = self._plane()
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)
        plane.run_days(1)
        store.save(plane)
        torn = store.path.read_bytes()[:-7]  # the last frame, cut short
        store.path.write_bytes(torn)
        with pytest.raises(ValueError, match="fabric.ckpt"):
            CheckpointStore(tmp_path / "store").save(plane)
        assert store.path.read_bytes() == torn

    def test_compact_discards_a_stale_staging_file(self, tmp_path):
        plane = self._plane()
        store = CheckpointStore(tmp_path / "store")
        for _ in range(3):
            store.save(plane)
            plane.run_days(1)
        # A compaction killed mid-write left garbage behind.
        staging = store.path.with_name(store.path.name + ".tmp")
        staging.write_bytes(b"not a chain")
        assert store.compact() == 2
        assert not staging.exists()
        assert [f["kind"] for f in store.frames()] == ["base"]
        assert CheckpointStore.load(tmp_path / "store").day == 3


def _spilling_fleet(spill_dir, days: int, include=("peregrine", "steering")):
    from repro.fabric import FleetConfig, build_fleet

    plane = ControlPlane()
    build_fleet(
        plane,
        FleetConfig(
            days=days,
            jobs_per_day=2500,
            include=include,
            repo_memory_budget_mb=1,
            repo_spill_dir=str(spill_dir),
        ),
    )
    return plane


class TestSpillingResume:
    """Peregrine's blob names write-once spill files; resume holds."""

    def test_restore_survives_the_live_fleet_running_on(self, tmp_path):
        straight = _spilling_fleet(tmp_path / "straight", days=6)
        straight.run_days(6)
        expected = straight.report_bytes()
        straight.close()

        live = _spilling_fleet(tmp_path / "chunks", days=6)
        store = CheckpointStore(tmp_path / "store")
        live.attach_store(store)
        live.run_days(4)
        store.save(live)  # the frame after run_days advanced the day
        repo = live._binding_for("peregrine").driver.repo
        assert repo.chunk_stats()["hot_chunks"] < 4  # closed days evicted
        at_day_4 = live.report_bytes()
        restored = CheckpointStore.load(tmp_path / "store")
        assert restored.report_bytes() == at_day_4
        restored.close()

        # The live fleet runs on over the same spill dir; the day-4
        # chain copy must still restore — and resume — exactly.
        shutil.copytree(tmp_path / "store", tmp_path / "day4")
        live.run_days(2)
        assert live.report_bytes() == expected
        live.close()
        restored = CheckpointStore.load(tmp_path / "day4")
        assert restored.report_bytes() == at_day_4
        restored.run_days(2)
        assert restored.report_bytes() == expected
        restored.close()


@pytest.fixture(scope="class")
def core_fleet_sizes(tmp_path_factory):
    """Blob and core sizes of a 31-day core fleet's chain, by day.

    ``{"core": {day: bytes}, <service>: {day: bytes}}``, each the last
    frame of the day that holds it.
    """
    from repro.fabric.fleet import CORE_FLEET

    root = tmp_path_factory.mktemp("core_fleet")
    plane = _spilling_fleet(root / "chunks", days=31, include=CORE_FLEET)
    store = CheckpointStore(root / "store")
    plane.attach_store(store)
    for _ in range(31):
        plane.run_days(1)
    plane.close()
    sizes: dict[str, dict[int, int]] = {"core": {}}
    for frame in store.frames():
        # A frame records the day its run ends at: day d's ticks, d + 1.
        day = frame["day"] - 1
        sizes["core"][day] = len(frame["core"])
        for name, blob in frame["services"].items():
            sizes.setdefault(name, {})[day] = len(blob)
    assert set(sizes) == {"core", *CORE_FLEET}
    return sizes


def _growth(by_day: dict[int, int]) -> float:
    """The newest size over the day-5 size."""
    return round(by_day[max(by_day)] / by_day[5], 2)


class TestDeltaSize:
    def test_every_service_delta_blob_is_flat_in_history(self, core_fleet_sizes):
        # A delta carries one day of change: from day 5 to day 30 no
        # service's blob grows past 1.25x (histories travel as tails,
        # steering's per-template states as newly stamped entries).
        services = {n: d for n, d in core_fleet_sizes.items() if n != "core"}
        # Moneyball's arrivals end early; every other service ticks daily.
        assert all(max(d) == 30 for n, d in services.items() if n != "moneyball")
        grown = {name: _growth(by_day) for name, by_day in services.items()}
        assert all(ratio <= 1.25 for ratio in grown.values()), grown

    @pytest.mark.xfail(
        strict=True,
        reason="the core state is pickled whole into every frame and grows"
        " with the production model's monitoring metrics (2.0x; see the"
        " core-state FOUND line in CHANGES.md and ROADMAP item 2)",
    )
    def test_core_state_is_flat_in_history(self, core_fleet_sizes):
        assert max(core_fleet_sizes["core"]) == 30
        assert _growth(core_fleet_sizes["core"]) <= 1.25, core_fleet_sizes["core"]

    def test_peregrine_delta_blob_is_flat_in_history(self, tmp_path):
        # At constant jobs/day, a delta carries one day of Peregrine
        # state however many days the repository already holds.
        plane = _spilling_fleet(
            tmp_path / "chunks", days=13, include=("peregrine",)
        )
        store = CheckpointStore(tmp_path / "store")
        plane.attach_store(store)
        plane.run_days(13)
        plane.close()
        # Peregrine is the only service and ingests daily: frame d is
        # written by day d's tick.
        blob = [len(f["services"]["peregrine"]) for f in store.frames()]
        assert len(blob) == 13
        assert blob[12] <= 1.25 * blob[3]


class TestFrameDay:
    """Frames written inside ``run_days`` record the day the run ends at."""

    FLEET = ("steering", "seagull")

    def _fleet(self) -> ControlPlane:
        from repro.fabric import FleetConfig, build_fleet

        plane = ControlPlane()
        build_fleet(
            plane,
            FleetConfig(seed=0, days=8, jobs_per_day=600, include=self.FLEET),
        )
        return plane

    def test_the_last_frame_of_a_run_restores_the_live_plane(self, tmp_path):
        live = self._fleet()
        live.attach_store(CheckpointStore(tmp_path / "store"))
        live.run_days(3)
        live.run_days(2)
        restored = CheckpointStore.load(tmp_path / "store")
        assert restored.day == live.day == 5
        assert restored.report_bytes() == live.report_bytes()
        live.attach_store(None)
        live.run_days(1)
        restored.run_days(1)
        assert restored.report_bytes() == live.report_bytes()
        live.close()
        restored.close()

    def test_a_plane_restored_mid_run_finishes_that_run(self, tmp_path):
        store = tmp_path / "store"
        kept = tmp_path / "mid-run"

        def keep_chain(plane, binding, ctx):
            # Steering's day-3 tick, before seagull's, in the run from day 2.
            if plane.total_ticks == 7:
                shutil.copytree(store, kept)

        live = self._fleet()
        live.attach_store(CheckpointStore(store))
        live.run_days(2)
        live.tick_hook = keep_chain
        live.run_days(2)
        restored = CheckpointStore.load(kept)
        assert restored.day == 4
        assert restored.bindings[0].ticks == 4
        assert restored.bindings[1].ticks == 3
        restored.run_until(restored.day)
        assert restored.report_bytes() == live.report_bytes()
        live.attach_store(None)
        live.run_days(1)
        restored.run_days(1)
        assert restored.report_bytes() == live.report_bytes()
        with pytest.raises(ValueError, match="before fabric day"):
            restored.run_until(4)
        live.close()
        restored.close()


class TestDurableSchedule:
    def test_schedule_sidecar_holds_one_record_per_line(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.register(FrozenWorldDriver())
        plane.run_days(1)
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)
        lines = store.schedule_path.read_text().splitlines()
        assert [json.loads(line.rstrip(","))["name"] for line in lines[1:-1]] == [
            "recorder",
            "frozen",
        ]

    def test_schedule_sidecar_is_readable_json(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(2)
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)
        payload = json.loads(store.schedule_path.read_text())
        (row,) = payload["services"]
        assert row["name"] == "recorder"
        assert row["ticks"] == 2
        assert row["retries_remaining"] == 3
        (record,) = store.schedule()
        assert record.name == "recorder"
        assert record.next_due == pytest.approx(2.0)

    def test_resume_mid_backoff_continues_at_pending_attempt(self, tmp_path):
        # Two failures on day 1 push attempt 3's retry to t ~= 2.8 —
        # past the end of run_days(2).  The kill point is mid-backoff.
        def build():
            injector = FaultInjector()
            injector.inject("recorder", "observe", day=1, times=2)
            plane = ControlPlane(
                retry=RetryPolicy(backoff_base=0.6), injector=injector
            )
            plane.register(RecordingDriver())
            return plane

        straight = build()
        straight.run_days(4)

        interrupted = build()
        interrupted.run_days(2)
        record = interrupted.bindings[0].record
        assert record.retry is not None and record.retry.attempt == 3
        store = CheckpointStore(tmp_path / "store")
        store.save(interrupted)

        restored = CheckpointStore.load(tmp_path / "store")
        pending = restored.bindings[0].record.retry
        assert pending is not None
        assert pending.attempt == 3  # not attempt 0/1: no lost work
        assert pending.resume_at == pytest.approx(record.retry.resume_at)
        restored.run_days(2)
        assert restored.report_bytes() == straight.report_bytes()
        bucket = restored.health.counters[("recorder", "observe")]
        # Day 1's observe succeeded on its third attempt, exactly once.
        assert bucket["retried"] == 1
        assert bucket["degraded"] == 0
        assert bucket["attempts"] == 5  # 2 clean days + 3 attempts on day 1
        days = [d for s, d in restored.bindings[0].driver.calls if s == "observe"]
        # Day 2's slot passed while the backoff was pending: skipped,
        # exactly as in the uninterrupted run.
        assert days == [0, 1, 3]

    def test_paused_service_stays_paused_across_restore(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(1)
        plane.pause("recorder")
        store = CheckpointStore(tmp_path / "store")
        store.save(plane)

        restored = CheckpointStore.load(tmp_path / "store")
        assert restored.bindings[0].paused
        restored.run_days(2)
        driver = restored.bindings[0].driver
        assert [d for s, d in driver.calls if s == "observe"] == [0]
        restored.unpause("recorder")
        restored.run_days(1)
        assert [d for s, d in driver.calls if s == "observe"] == [0, 3]


class TestFormatNegotiation:
    def test_delta_requires_a_base(self, tmp_path):
        plane = ControlPlane()
        plane.register(RecordingDriver())
        plane.run_days(1)
        store = CheckpointStore(tmp_path / "store")
        with pytest.raises(ValueError, match="no base snapshot"):
            store.delta(plane)
