"""Durable schedule state and incremental checkpoints for the fabric.

This module is the fabric's persistence layer, in two halves:

**Schedule records.**  Every hosted pipeline owns a
:class:`ScheduleRecord` — interval, next-run time, tick count, paused
flag, and (when a stage is waiting out a retry backoff) a
:class:`RetryState`.  The records are the source of truth for
scheduling: the DES heap is only a cache rebuilt from them
(:meth:`~repro.fabric.plane.ControlPlane.rebuild_schedule`), which is
what lets a killed-and-restarted fleet resume exactly where it died,
including mid-backoff retries and paused services (the Pipelit
self-rescheduling pattern: each run persists its own next-run/retry
state instead of trusting an in-memory scheduler).

**Checkpoint store.**  :class:`CheckpointStore` is the one checkpoint
API, over one format: ``repro.fabric/checkpoint@2``, a **base snapshot
plus an append-only chain of deltas**.  Each
:meth:`CheckpointStore.save` appends one frame containing the
always-changing core state (registry, lifecycle, health, clock) plus the
serialized drivers of only the services that changed since the previous
frame — *O(changed services)*, not *O(world)*.  Dirty services are found
via :meth:`~repro.fabric.pipeline.PipelineDriver.mark_dirty` when the
driver opts in (``dirty_aware = True``) and via a content-hash fallback
otherwise.  :meth:`CheckpointStore.compact` collapses the chain back
into a single base frame.  Any file that is not such a chain — a
``@1`` single pickle from before this format, garbage, an empty or torn
file — is refused with one ``ValueError`` naming it.

Each driver blob starts with a **prelude** that names the objects it
shares with the rest of the chain by index: the core's
:class:`~repro.ml.registry.ModelRegistry` and lifecycle, and — in a
delta — the objects of the driver's frozen input worlds and its grown
histories.  The blob is written by one C pickler whose memo is seeded
with those objects, so references to them cost a memo get and no
Python code runs per pickled object; load resolves the indices against
the restored core and the service's last whole blob, so a feedback
loop restored from a day-3 delta still mutates the same registry the
lifecycle owns.  A delta carries only what grew: the rows a declared
append-only list gained and the entries of a keyed dict stamped since
the service's previous blob in this store (DESIGN.md §6).

A ``schedule.json`` sidecar (atomic replace) mirrors the latest
schedule records in human-readable form, so operators can inspect
where a crashed fleet will resume without unpickling anything.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.fabric.pipeline import PipelineDriver
    from repro.fabric.plane import ControlPlane
    from repro.obs.runtime import ObservabilityRuntime

#: Base + append-only delta chain.
FORMAT_V2 = "repro.fabric/checkpoint@2"
#: Chain file name used when the store is given a directory.
CHAIN_FILENAME = "fabric.ckpt"
#: Sidecar with the latest schedule records, as JSON.
SCHEDULE_FILENAME = "schedule.json"


# ---------------------------------------------------------------------------
# schedule records
# ---------------------------------------------------------------------------


@dataclass
class RetryState:
    """A stage waiting out its backoff: the durable mid-tick position.

    ``attempt`` is the 1-based number of the *upcoming* attempt;
    ``resume_at`` is the DES time the retry fires.  ``day``/``tick``
    pin the interrupted tick's context and ``degraded`` carries the
    tick's degraded flag across the backoff, so a resumed process
    rebuilds the exact :class:`~repro.fabric.pipeline.TickContext`.
    """

    stage: str
    stage_index: int
    attempt: int
    resume_at: float
    day: int
    tick: int
    degraded: bool = False

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "stage_index": self.stage_index,
            "attempt": self.attempt,
            "resume_at": self.resume_at,
            "day": self.day,
            "tick": self.tick,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RetryState":
        return cls(**payload)


@dataclass
class ScheduleRecord:
    """One pipeline's durable schedule row (the Pipelit pattern).

    The control plane mutates these in place as ticks run; checkpoints
    persist them verbatim, and restore rebuilds the DES heap from them
    alone — pending events are never serialized.
    """

    name: str
    index: int
    cadence_days: float
    next_due: float
    ticks: int = 0
    paused: bool = False
    max_attempts: int = 3
    retry: RetryState | None = None

    @property
    def retries_remaining(self) -> int:
        """Attempts left for the stage currently (or next) executing."""
        if self.retry is None:
            return self.max_attempts
        return max(0, self.max_attempts - (self.retry.attempt - 1))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "cadence_days": self.cadence_days,
            "next_due": self.next_due,
            "ticks": self.ticks,
            "paused": self.paused,
            "max_attempts": self.max_attempts,
            "retries_remaining": self.retries_remaining,
            "retry": self.retry.to_dict() if self.retry else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScheduleRecord":
        retry = payload.get("retry")
        return cls(
            name=payload["name"],
            index=payload["index"],
            cadence_days=payload["cadence_days"],
            next_due=payload["next_due"],
            ticks=payload.get("ticks", 0),
            paused=payload.get("paused", False),
            max_attempts=payload.get("max_attempts", 3),
            retry=RetryState.from_dict(retry) if retry else None,
        )


# ---------------------------------------------------------------------------
# shared-reference pickling
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _prelude(n: int) -> bytes:
    """A pickle that memoizes shared objects ``0..n-1`` and returns ``n``.

    Entry ``k`` is ``BINPERSID k`` + ``MEMOIZE`` + ``POP``: the reader's
    ``persistent_load`` resolves token ``k`` and the unpickler files the
    object at memo index ``k``, which is where the writer's seeded memo
    says it is.
    """

    def push(k: int) -> bytes:
        if k < 0x100:
            return pickle.BININT1 + k.to_bytes(1, "little")
        if k < 0x10000:
            return pickle.BININT2 + k.to_bytes(2, "little")
        return pickle.BININT + k.to_bytes(4, "little")

    entry = pickle.BINPERSID + pickle.MEMOIZE + pickle.POP
    body = b"".join(push(k) + entry for k in range(n))
    return pickle.PROTO + b"\x04" + body + push(n) + pickle.STOP


def _dump_blob(refs: list, *objs: object) -> bytes:
    """Pickle ``objs`` back to back behind a prelude naming ``refs``.

    The C pickler's memo is seeded with ``refs`` at the prelude's
    indices, so every reference to one of them pickles as a memo get and
    no Python code runs per object.  ``refs`` must hold distinct objects.
    """
    buffer = io.BytesIO()
    buffer.write(_prelude(len(refs)))
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.memo = {id(obj): (k, obj) for k, obj in enumerate(refs)}
    for obj in objs:
        pickler.dump(obj)
    return buffer.getvalue()


def _open_blob(blob: bytes, refs: list, where: str) -> pickle.Unpickler:
    """An unpickler past ``blob``'s prelude, each token resolved in ``refs``.

    Each further ``load()`` returns the next object :func:`_dump_blob`
    wrote; only the prelude names tokens, and it resolves them through
    ``refs.__getitem__`` with no Python frame per entry.  The memo is
    filled by the prelude, never assigned: the C unpickler's ``memo``
    setter drops dict entries on CPython 3.11.  ``where`` names the
    blob in errors.
    """
    reader = pickle.Unpickler(io.BytesIO(blob))
    reader.persistent_load = refs.__getitem__
    try:
        count = reader.load()
    except (IndexError, TypeError) as exc:
        raise ValueError(
            f"{where} names a shared object its base frame does not hold"
            f" ({exc}; the base frame holds {len(refs)})"
        ) from None
    if type(count) is not int:
        raise ValueError(f"{where} has no shared-ref prelude")
    return reader


#: Types never worth a shared-ref token (cheap to re-pickle, and
#: interning/caching makes their identity meaningless anyway).
_ATOMIC = (type(None), bool, int, float, complex, str, bytes)


def _attr_path(obj: object, path: str) -> object:
    """Follow a dotted attribute path (``"service._outcomes"``)."""
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def _frozen_refs(shared: list, frozen: tuple) -> list:
    """``shared`` plus every object the ``frozen`` attr values reach.

    Descends only through list/tuple/dict containers, in their own
    order, skipping objects already listed, so the identical walk over
    a *pickled copy* of the values (the head of the service's last
    whole blob, in another process) lists the same logical objects at
    the same indices.
    """
    refs = list(shared)
    seen = {id(obj) for obj in refs}

    def add(value: object) -> None:
        if isinstance(value, _ATOMIC) or id(value) in seen:
            return
        seen.add(id(value))
        refs.append(value)
        if isinstance(value, (list, tuple)):
            for item in value:
                add(item)
        elif isinstance(value, dict):
            for item in value.values():
                add(item)

    for value in frozen:
        add(value)
    return refs


def _delta_refs(frozen_refs: list, grown: "Iterable[list | dict]") -> list:
    """What a delta blob's prelude names: frozen refs, then grown objects."""
    refs = list(frozen_refs)
    seen = {id(obj) for obj in refs}
    for obj in grown:
        if id(obj) not in seen:
            seen.add(id(obj))
            refs.append(obj)
    return refs


def _blob_hash(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# the checkpoint store
# ---------------------------------------------------------------------------


@dataclass
class SaveResult:
    """What one :meth:`CheckpointStore.save` wrote."""

    kind: str  # "base" | "delta"
    path: Path
    bytes_written: int
    saved: list[str] = field(default_factory=list)
    clean: list[str] = field(default_factory=list)


class CheckpointStore:
    """Save/load fabric checkpoints as a ``@2`` base+delta chain.

    The first :meth:`save` writes the base, later saves append deltas.
    :meth:`load` reads a chain from a file or a store directory.
    ``path`` may be a directory (the chain lives at
    ``<path>/fabric.ckpt`` with ``schedule.json`` beside it) or a file
    (the sidecar gains a ``.schedule.json`` suffix).  A store continues
    an existing chain; if the file there is not a readable chain (a
    ``@1`` pickle, a torn write), saving raises ``ValueError`` naming it
    instead of replacing it.
    """

    def __init__(self, path) -> None:
        self.path = self._resolve(Path(path))
        self._seq = 0
        self._has_base = False
        self._hashes: dict[str, str] = {}
        #: service -> the frame ``tails`` entry of the service's last
        #: blob: {append/keyed attr: length, stamps path: newest stamp};
        #: a service is listed once the live chain holds a blob of it
        self._marks: dict[str, dict[str, int]] = {}
        #: service -> {append/keyed attr: the object last written}
        #: (process-local: unknown after adopting or compacting a chain)
        self._grown: dict[str, dict[str, list | dict]] = {}
        #: service -> the driver's dirty token when this store last wrote
        #: it (process-local: after adopting a chain, the first save
        #: writes every dirty-aware driver once)
        self._tokens: dict[str, object | None] = {}
        #: why the existing file cannot be continued (set by _adopt_chain)
        self._unreadable: str | None = None
        if self.path.exists() and self.path.stat().st_size > 0:
            self._adopt_chain()

    # -- paths -----------------------------------------------------------------
    @staticmethod
    def _resolve(path: Path) -> Path:
        if path.is_dir() or path.suffix == "":
            path.mkdir(parents=True, exist_ok=True)
            return path / CHAIN_FILENAME
        return path

    @property
    def schedule_path(self) -> Path:
        if self.path.name == CHAIN_FILENAME:
            return self.path.with_name(SCHEDULE_FILENAME)
        return self.path.with_name(self.path.name + ".schedule.json")

    # -- chain bookkeeping -------------------------------------------------------
    def _adopt_chain(self) -> None:
        """Continue an existing chain: pick up seq/hashes/marks from its frames."""
        try:
            frames = self.frames()
        except ValueError as exc:  # a @1 file, a torn chain, garbage
            self._unreadable = f"{exc}; refusing to overwrite it"
            return
        for frame in frames:
            self._seq = frame["seq"] + 1
            if frame["kind"] == "base":
                self._has_base = True
                self._hashes = {}
                self._marks = {}
            self._hashes.update(frame["hashes"])
            for name in frame["services"]:
                self._marks.setdefault(name, {}).update(frame["tails"].get(name, {}))

    def frames(self) -> list[dict]:
        """Every frame in the @2 chain, oldest first (introspection)."""
        return _read_frames(self.path)

    def schedule(self) -> list[ScheduleRecord]:
        """The latest schedule records, from the JSON sidecar."""
        payload = json.loads(self.schedule_path.read_text())
        return [ScheduleRecord.from_dict(entry) for entry in payload["services"]]

    # -- saving ------------------------------------------------------------------
    def save(self, plane: "ControlPlane") -> SaveResult:
        """Persist ``plane``: a base frame first, deltas after."""
        if not self._has_base:
            return self.snapshot(plane)
        return self.delta(plane)

    def snapshot(self, plane: "ControlPlane") -> SaveResult:
        """Append a full base frame (every service, dirty or not)."""
        return self._append_frame(plane, kind="base")

    def delta(self, plane: "ControlPlane") -> SaveResult:
        """Append a delta frame holding only the changed services."""
        if not self._has_base:
            raise ValueError(
                "no base snapshot in the chain yet: call save() or snapshot() first"
            )
        return self._append_frame(plane, kind="delta")

    def compact(self) -> int:
        """Collapse the chain to one base frame; returns frames removed.

        Restores the merged plane and writes it back as a single fresh
        base (so frozen attrs stripped from delta frames are re-inflated
        into full blobs and append-only tails are folded into whole
        lists), then atomically replaces the chain file.
        """
        frames = self.frames()
        if len(frames) <= 1:
            return 0
        plane = _restore_chain(self.path, frames)
        staging_path = self.path.with_name(self.path.name + ".tmp")
        # A compaction killed mid-write leaves its staging file behind.
        staging_path.unlink(missing_ok=True)
        staging = CheckpointStore(staging_path)
        staging._seq = frames[-1]["seq"]
        staging.snapshot(plane)
        staging.schedule_path.replace(self.schedule_path)
        staging.path.replace(self.path)
        self._seq = staging._seq
        self._has_base = True
        self._hashes = dict(staging._hashes)
        # The marks carry over; the lists staging wrote are the restored
        # copy's, not the live plane's.
        self._marks = staging._marks
        self._grown = {}
        return len(frames) - 1

    def _append_frame(self, plane: "ControlPlane", kind: str) -> SaveResult:
        if self._unreadable is not None:
            raise ValueError(self._unreadable)
        obs = plane._obs
        plane.bind(None)
        try:
            shared = [plane.registry, plane.lifecycle]
            core = pickle.dumps(self._core_state(plane), protocol=4)
            services: dict[str, bytes] = {}
            hashes: dict[str, str] = {}
            tails: dict[str, dict[str, int]] = {}
            tokens: dict[str, object | None] = {}
            grown: dict[str, dict[str, list | dict]] = {}
            stamps: dict[str, dict[str, tuple[str, dict]]] = {}
            clean: list[str] = []
            for binding in plane.bindings:
                name, driver = binding.name, binding.driver
                cls = type(driver)
                frozen: tuple = ()
                if cls.dirty_aware:
                    token = tokens[name] = driver.dirty_token
                    written = name in self._tokens and self._tokens[name] is token
                    if kind != "base" and written:
                        clean.append(name)
                        continue
                    frozen = tuple(_attr_path(driver, a) for a in cls.frozen_attrs)
                    attrs = (*cls.append_attrs, *(a for a, _ in cls.keyed_attrs))
                    grown[name] = {a: _attr_path(driver, a) for a in attrs}
                    stamps[name] = {
                        a: (t, _attr_path(driver, t)) for a, t in cls.keyed_attrs
                    }
                    tails[name] = {a: len(obj) for a, obj in grown[name].items()}
                    marks = self._marks.get(name, {})
                    for path, stamped in stamps[name].values():
                        newest = max(stamped.values(), default=0)
                        tails[name][path] = max(marks.get(path, 0), newest)
                if cls.dirty_aware and kind != "base" and name in self._marks:
                    # A delta blob names the frozen objects and the grown
                    # lists and dicts by prelude index, and carries only
                    # their new rows and newly stamped entries (head
                    # ``(None, rows)``).
                    rows = self._tails(name, grown[name], stamps[name])
                    refs = _delta_refs(
                        _frozen_refs(shared, frozen), grown[name].values()
                    )
                    blob = _dump_driver(driver, refs, (None, rows))
                else:
                    # A whole blob pickles the frozen values and the
                    # grown objects first, so restore reads them without
                    # unpickling the driver behind them.
                    blob = _dump_driver(driver, shared, (frozen, grown.get(name, {})))
                    if not cls.dirty_aware:
                        digest = _blob_hash(blob)
                        if kind != "base" and self._hashes.get(name) == digest:
                            clean.append(name)
                            continue
                        hashes[name] = digest
                services[name] = blob
            schedule = [b.record.to_dict() for b in plane.bindings]
            frame = {
                "format": FORMAT_V2,
                "kind": kind,
                "seq": self._seq,
                "day": plane.day,
                "core": core,
                "services": services,
                "hashes": hashes,
                "tails": tails,
                "schedule": schedule,
                "clean": clean,
            }
            data = pickle.dumps(frame, protocol=4)
            # A fresh base supersedes the whole chain; deltas append.
            mode = "wb" if kind == "base" else "ab"
            with self.path.open(mode) as fh:
                fh.write(data)
            self._write_schedule(plane, schedule)
            self._seq += 1
            self._has_base = True
            if kind == "base":
                self._marks, self._grown = {}, {}
            self._hashes.update(hashes)
            for name in services:
                self._marks[name] = tails.get(name, {})
                self._grown[name] = grown.get(name, {})
                if name in tokens:
                    self._tokens[name] = tokens[name]
        finally:
            plane.bind(obs)
        self._emit_saved(plane, kind, len(data), list(services), clean)
        return SaveResult(
            kind=kind,
            path=self.path,
            bytes_written=len(data),
            saved=sorted(services),
            clean=sorted(clean),
        )

    def _tails(
        self,
        name: str,
        grown: dict[str, list | dict],
        stamps: dict[str, tuple[str, dict]],
    ) -> dict[str, list | dict]:
        """What each grown object gained since ``name``'s last blob.

        An append-only list yields its new rows; a keyed dict yields
        the entries stamped after that blob's newest stamp.  The marks
        are this store's own, so another store saving the same plane
        changes nothing here.
        """
        marks = self._marks[name]
        rows: dict[str, list | dict] = {}
        for attr, obj in grown.items():
            mark = marks.get(attr, 0)
            written = self._grown.get(name, {}).get(attr, obj)
            if written is not obj or len(obj) < mark:
                change = "replaced" if written is not obj else "shrank"
                raise ValueError(
                    f"{name}.{attr} may only grow, but it {change}"
                    f" since the last checkpoint frame"
                )
            if attr in stamps:
                path, stamped = stamps[attr]
                since = marks.get(path, 0)
                rows[attr] = {k: obj[k] for k, at in stamped.items() if at > since}
            else:
                rows[attr] = obj[mark:]
        return rows

    def _write_schedule(self, plane: "ControlPlane", schedule: list[dict]) -> None:
        """The sidecar: sorted keys, one service record per line.

        Built from compact ``json.dumps`` pieces, which take the C
        encoder; ``indent`` would force the pure-Python one.
        """
        head = json.dumps(
            {
                "day": plane.day,
                "format": FORMAT_V2,
                "now": plane.queue.now,
            },
            sort_keys=True,
        )
        rows = ",\n".join(json.dumps(row, sort_keys=True) for row in schedule)
        tmp = self.schedule_path.with_name(self.schedule_path.name + ".tmp")
        tmp.write_text(f'{head[:-1]}, "services": [\n{rows}\n]}}\n')
        tmp.replace(self.schedule_path)

    @staticmethod
    def _core_state(plane: "ControlPlane") -> dict:
        from repro.parallel import get_tuner

        return {
            "day": plane.day,
            "now": plane.queue.now,
            "registry": plane.registry,
            "lifecycle": plane.lifecycle,
            "retry": plane.retry,
            "injector": plane.injector,
            "health": plane.health,
            "mirrored": plane._lifecycle_mirrored,
            "total_ticks": plane.total_ticks,
            # The process-wide granularity tuner rides every frame so a
            # killed-and-restored fleet resumes with its trained cost
            # model instead of re-exploring dispatch granularity.
            "tuner": get_tuner().state_dict(),
        }

    def _emit_saved(
        self,
        plane: "ControlPlane",
        kind: str,
        n_bytes: int,
        saved: list[str],
        clean: list[str],
    ) -> None:
        if plane._obs is None:
            return
        plane._obs.emit(
            "fabric",
            "fabric",
            "checkpoint_delta" if kind == "delta" else "checkpoint",
            value=float(n_bytes),
            timestamp=plane.queue.now,
            day=plane.day,
            kind_of_save=kind,
            saved=len(saved),
            clean=len(clean),
        )

    # -- loading -----------------------------------------------------------------
    @classmethod
    def load(
        cls, path, obs: "ObservabilityRuntime | None" = None
    ) -> "ControlPlane":
        """Rebuild a plane from the chain at ``path`` (a file or store dir)."""
        chain = cls._resolve(Path(path))
        plane = _restore_chain(chain, _read_frames(chain))
        if obs is not None:
            with obs.span("fabric.checkpoint.load", layer="fabric", day=plane.day):
                plane.bind(obs)
                plane._emit("restore", value=float(plane.day))
        return plane


def _read_frames(path: Path) -> list[dict]:
    """Every frame in the @2 chain at ``path``, oldest first."""
    frames: list[dict] = []
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while fh.tell() < size:
            try:
                frame = pickle.load(fh)
            except Exception as exc:
                # A torn or corrupt frame: unpickling damaged bytes
                # can fail with almost any error type.
                raise ValueError(
                    f"{path}: unreadable frame after"
                    f" {len(frames)} good ones ({exc})"
                ) from exc
            if not isinstance(frame, dict) or frame.get("format") != FORMAT_V2:
                raise ValueError(
                    f"{path} is not a {FORMAT_V2} chain"
                )
            if "tails" not in frame:
                raise ValueError(
                    f"{path}: frame {len(frames)} predates the"
                    " shared-ref prelude layout of driver blobs"
                )
            frames.append(frame)
    return frames


def _restore_chain(path: Path, frames: list[dict]) -> "ControlPlane":
    """Rebuild the plane the chain ``frames`` (read from ``path``) describe."""
    base_at = max(
        (i for i, f in enumerate(frames) if f["kind"] == "base"), default=None
    )
    if base_at is None:
        raise ValueError(f"{path} holds no checkpoint base frame")
    live = frames[base_at:]
    plane = _plane_from_core(pickle.loads(live[-1]["core"]))
    shared = [plane.registry, plane.lifecycle]
    records = sorted(
        (ScheduleRecord.from_dict(entry) for entry in live[-1]["schedule"]),
        key=lambda r: r.index,
    )
    from repro.fabric.plane import ServiceBinding

    for record in records:
        written = [f for f in live if record.name in f["services"]]
        if not written:
            raise ValueError(
                f"checkpoint chain is missing service {record.name!r}"
            )
        driver = _restore_driver(
            record.name, written, shared, f"{path}: service {record.name!r}"
        )
        plane.bindings.append(ServiceBinding(driver=driver, record=record))
    plane.rebuild_schedule()
    return plane


def _restore_driver(
    name: str, written: list[dict], shared: list, where: str
) -> "PipelineDriver":
    """Rebuild one driver from the live chain's frames that hold a blob of it.

    Every blob is a prelude, a head, then the driver.  A whole blob's
    head is ``(frozen values, {attr: grown object})``; a delta blob's is
    ``(None, {attr: gain})`` and its prelude names the last whole blob's
    frozen objects and grown objects by index.  Each frame's gains (a
    list's new rows, a keyed dict's newly stamped entries) apply in chain
    order, and only the newest blob's driver is ever unpickled — it
    picks the grown objects up by reference.
    """
    refs, grown = shared, {}
    for frame in written:
        reader = _open_blob(frame["services"][name], refs, where)
        frozen, head = reader.load()
        if frozen is not None:
            grown = head
            refs = _delta_refs(_frozen_refs(shared, frozen), grown.values())
        elif head.keys() != grown.keys():
            raise ValueError(f"{where} carries gains of {sorted(head)}, not {sorted(grown)}")
        else:
            for attr, gain in head.items():
                target = grown[attr]
                if isinstance(target, dict):
                    target.update(gain)
                else:
                    target.extend(gain)
        lengths = frame["tails"].get(name, {})
        for attr, obj in grown.items():
            if len(obj) != lengths.get(attr):
                raise ValueError(
                    f"{where} rebuilds {attr} to length {len(obj)} at frame"
                    f" {frame['seq']}, which recorded {lengths.get(attr)}"
                )
    return reader.load()


def _dump_driver(driver: "PipelineDriver", refs: list, *before: object) -> bytes:
    """:func:`_dump_blob` of ``before`` then ``driver``, dirty token stripped."""
    had_token = "_fabric_dirty" in driver.__dict__
    token = driver.__dict__.pop("_fabric_dirty", None)
    try:
        return _dump_blob(refs, *before, driver)
    finally:
        if had_token:
            driver.__dict__["_fabric_dirty"] = token


def _plane_from_core(core: dict) -> "ControlPlane":
    from repro.fabric.plane import ControlPlane

    from repro.parallel import get_tuner

    get_tuner().load_state_dict(core["tuner"])
    plane = ControlPlane(
        registry=core["registry"],
        retry=core["retry"],
        injector=core["injector"],
    )
    plane.lifecycle = core["lifecycle"]
    plane.health = core["health"]
    plane.day = core["day"]
    plane._lifecycle_mirrored = core["mirrored"]
    plane.total_ticks = core["total_ticks"]
    plane.queue.now = core["now"]
    return plane


def records_for(plane: "ControlPlane") -> "Iterable[ScheduleRecord]":
    """The plane's live schedule records, in registration order."""
    return [b.record for b in plane.bindings]
