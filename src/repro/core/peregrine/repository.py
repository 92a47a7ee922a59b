"""Engine-agnostic workload representation, stored columnar.

The repository ingests jobs from any engine (here: the SCOPE-like
generator) and flattens them into a representation that every learned
component shares: template signatures for grouping, strict signatures
for reuse detection, parameter vectors for micromodel features, and
dependency edges for pipeline analysis.

Storage is a :class:`JobTable` — one columnar :class:`DayChunk` per
day (numpy columns, byte blobs of ids and raw signature digests over
interned plan and parameter pools) behind an LRU chunk cache that
spills cold days to disk under a configurable memory budget.  A
million-job day costs a few numpy arrays plus one object per unique
*recurring* plan, not one ``JobRecord`` — or one string — per job;
:class:`JobRecord` instances are materialized on demand so the
read API (``records``, ``job``, ``by_day``, ``instances_of``) is
unchanged for existing callers.

Aggregate statistics (template recurrence counters, per-day sharing
summaries, dependency involvement) are folded incrementally at ingest
or cached per closed day, so :func:`repro.core.peregrine.analysis.
analyze` never needs every record in memory at once.
"""

from __future__ import annotations

import pickle
import sys
from dataclasses import dataclass
from itertools import chain, groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.engine import Expression
from repro.engine.signatures import enumerate_all_signatures, signatures
from repro.workloads.scope import Job, Workload

if TYPE_CHECKING:
    import networkx as nx

_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def _hash_ids(ids) -> np.ndarray:
    """Vectorized FNV-1a of job ids, as uint64.

    ``ids`` is a list of ``str`` or a fixed-width byte array such as
    :meth:`StrColumn.fixed` builds straight from a day's id blob.
    Stable across processes (unlike ``hash()``), and ~100x faster than
    per-string hashlib calls: the ids become one fixed-width byte
    matrix and the fold runs one numpy op per character column.  Hits
    are always verified against the actual strings, so a collision can
    cost a chunk load but never correctness.
    """
    if not len(ids):
        return np.empty(0, dtype=np.uint64)
    arr = np.asarray(ids, dtype="S")
    view = np.ascontiguousarray(arr).view(np.uint8)
    view = view.reshape(len(arr), arr.dtype.itemsize)
    h = np.full(len(arr), _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for col in range(view.shape[1]):
            c = view[:, col].astype(np.uint64)
            # Null padding is a no-op so hashes are width-independent.
            h = np.where(c == 0, h, (h ^ c) * _FNV_PRIME)
    return h


@dataclass
class JobRecord:
    """One ingested job in the engine-agnostic representation."""

    job_id: str
    submit_hour: float
    plan: Expression
    template: str                     # template signature of the full plan
    strict: str                       # strict signature of the full plan
    subexpression_templates: dict[str, Expression]
    subexpression_strict: dict[str, Expression]
    params: dict[str, float]
    depends_on: tuple[str, ...]

    @property
    def day(self) -> int:
        return int(self.submit_hour // 24)


# ---------------------------------------------------------------------------
# columns
# ---------------------------------------------------------------------------

#: Resident bytes of one plan tree: its Expression nodes plus memoized
#: signature maps, calibrated against RSS deltas at 100k jobs/day
#: (36k built plans -> ~120 MB).
PLAN_BYTES = 2900
#: Bytes of an empty ``str`` object; a stored ASCII name costs this
#: plus one byte per character.
_STR_BYTES = sys.getsizeof("")
#: A signature name is the hex of an 8-byte SHA1 prefix; columns keep
#: the raw digest, read as this dtype, and hex it only when a name is read.
DIGEST = np.dtype("<u8")
_U4_MAX = np.iinfo(np.uint32).max


def digests_of(names: list[str]) -> np.ndarray:
    """Signature names (16 hex characters each) as raw 8-byte digests."""
    if any(len(name) != 16 for name in names):
        raise ValueError("a signature name is 16 hex characters")
    return np.frombuffer(bytes.fromhex("".join(names)), dtype=DIGEST)


def hex_names(digests: np.ndarray) -> list[str]:
    """The signature names of raw digests (inverse of :func:`digests_of`)."""
    text = np.ascontiguousarray(digests, dtype=DIGEST).tobytes().hex()
    return [text[i:i + 16] for i in range(0, len(text), 16)]


def _hex_at(digests: np.ndarray, code: int) -> str:
    return digests[code:code + 1].tobytes().hex()


def _sig_sizes(values) -> np.ndarray:
    """Subexpression node counts as the pool's small-int column."""
    sizes = np.asarray(values, dtype=np.int64)
    if len(sizes) and int(sizes.max()) > np.iinfo(np.uint16).max:
        raise ValueError("subexpression larger than 65535 nodes")
    return sizes.astype(np.uint16)


class _Column:
    """An appendable numpy column: array segments + a scalar tail."""

    __slots__ = ("dtype", "parts", "pending", "_cache", "_n")

    def __init__(self, dtype, values: np.ndarray | None = None) -> None:
        self.dtype = np.dtype(dtype)
        self.parts: list[np.ndarray] = []
        self.pending: list = []
        self._cache: np.ndarray | None = None
        self._n = 0
        if values is not None:
            self.extend(values)

    def __len__(self) -> int:
        return self._n

    def append(self, value) -> None:
        self.pending.append(value)
        self._cache = None
        self._n += 1

    def extend(self, arr: np.ndarray) -> None:
        if self.pending:
            self.parts.append(np.asarray(self.pending, dtype=self.dtype))
            self.pending = []
        self.parts.append(np.asarray(arr, dtype=self.dtype))
        self._cache = None
        self._n += len(arr)

    def array(self) -> np.ndarray:
        if self._cache is None:
            parts = list(self.parts)
            if self.pending:
                parts.append(np.asarray(self.pending, dtype=self.dtype))
            if not parts:
                self._cache = np.empty(0, dtype=self.dtype)
            elif len(parts) == 1:
                self._cache = parts[0]
            else:
                self._cache = np.concatenate(parts)
            # The joined array replaces its segments: one copy resident.
            self.parts = [self._cache]
            self.pending = []
        return self._cache

    def nbytes(self) -> int:
        return self._n * self.dtype.itemsize


class StrColumn:
    """ASCII strings as one byte blob plus ``u4`` end offsets.

    A day's job ids cost their bytes plus four each instead of a
    ``str`` object each, pickle as two buffers, and give the cyclic GC
    nothing to traverse.  Strings are decoded only when read.
    """

    __slots__ = ("blob", "ends")

    def __init__(self) -> None:
        self.blob = _Column(np.uint8)
        self.ends = _Column(np.uint32)

    @classmethod
    def from_strs(cls, strs: list[str]) -> "StrColumn":
        column = cls()
        if strs:
            blob = np.frombuffer("".join(strs).encode("ascii"), dtype=np.uint8)
            lens = np.fromiter(map(len, strs), dtype=np.int64, count=len(strs))
            column._add(blob, np.cumsum(lens))
        return column

    @classmethod
    def from_buffers(cls, blob: np.ndarray, ends: np.ndarray) -> "StrColumn":
        """Strings given as their ``u1`` bytes and cumulative end offsets."""
        column = cls()
        if len(ends):
            column._add(blob, ends)
        return column

    def __len__(self) -> int:
        return len(self.ends)

    def _add(self, blob: np.ndarray, ends: np.ndarray) -> None:
        """Append strings given as bytes plus ends relative to ``blob``."""
        base = len(self.blob)
        if len(ends) and base + int(ends[-1]) > _U4_MAX:
            raise ValueError("string column larger than 4 GiB")
        self.blob.extend(blob)
        self.ends.extend(ends + base if base else ends)

    def extend(self, other: "StrColumn") -> None:
        self._add(other.blob.array(), other.ends.array().astype(np.int64))

    def __getitem__(self, row: int) -> str:
        ends = self.ends.array()
        start = int(ends[row - 1]) if row else 0
        return self.blob.array()[start:int(ends[row])].tobytes().decode("ascii")

    def head(self, n: int) -> "StrColumn":
        """The first ``n`` strings."""
        ends = self.ends.array()[:n]
        return StrColumn.from_buffers(
            self.blob.array()[:int(ends[-1]) if n else 0], ends
        )

    def tolist(self, n: int | None = None) -> list[str]:
        """The first ``n`` strings (all by default), decoded."""
        ends = self.ends.array()[:n].tolist()
        if not ends:
            return []
        text = self.blob.array()[:ends[-1]].tobytes().decode("ascii")
        return [text[a:b] for a, b in zip([0] + ends[:-1], ends)]

    def fixed(self) -> np.ndarray:
        """The strings as one null-padded fixed-width ``S`` array."""
        ends = self.ends.array().astype(np.int64)
        if not len(ends):
            return np.empty(0, dtype="S1")
        lens = np.diff(ends, prepend=0)
        width = max(int(lens.max()), 1)
        blob = self.blob.array()
        if int(lens.min()) == width:
            matrix = blob.reshape(len(ends), width)
        else:
            # Row-major, the kept cells are exactly the blob's bytes.
            matrix = np.zeros((len(ends), width), dtype=np.uint8)
            matrix[np.arange(width) < lens[:, None]] = blob
        return np.ascontiguousarray(matrix).view(f"S{width}").ravel()

    def nbytes(self) -> int:
        return self.blob.nbytes() + self.ends.nbytes()

    def __getstate__(self) -> tuple:
        return self.blob.array(), self.ends.array()

    def __setstate__(self, state: tuple) -> None:
        self.__init__()
        blob, ends = state
        self.blob.extend(blob)
        self.ends.extend(ends)


class DepsCSR:
    """Sparse dependency lists: consumer rows plus their ids, as a CSR.

    ``rows`` ascend; row ``rows[i]`` depends on
    ``ids[offsets[i]:offsets[i + 1]]``.
    """

    __slots__ = ("rows", "offsets", "ids")

    def __init__(self) -> None:
        self.rows = _Column(np.uint32)
        self.offsets = _Column(np.uint32, np.zeros(1, dtype=np.uint32))
        self.ids = StrColumn()

    @classmethod
    def from_lists(cls, rows, lists: list[tuple[str, ...]]) -> "DepsCSR":
        """Consumer ``rows`` (ascending) and each one's ``depends_on``."""
        if not len(rows):
            return cls()
        lens = np.fromiter(map(len, lists), np.int64, len(lists))
        return cls.from_columns(
            rows,
            np.cumsum(lens),
            StrColumn.from_strs(list(chain.from_iterable(lists))),
        )

    @classmethod
    def from_columns(cls, rows, ends, ids: StrColumn) -> "DepsCSR":
        """Consumer ``rows`` (ascending); row ``rows[i]``'s ids end at
        ``ends[i]`` in ``ids``."""
        deps = cls()
        if len(rows):
            deps.rows.extend(np.asarray(rows, dtype=np.int64))
            deps.offsets.extend(ends)
            deps.ids = ids
        return deps

    def __len__(self) -> int:
        return len(self.rows)

    def extend(self, other: "DepsCSR", base_row: int) -> None:
        if not len(other):
            return
        self.rows.extend(other.rows.array().astype(np.int64) + base_row)
        self.offsets.extend(
            other.offsets.array()[1:].astype(np.int64) + len(self.ids)
        )
        self.ids.extend(other.ids)

    def get(self, row: int) -> tuple[str, ...]:
        rows = self.rows.array()
        at = int(rows.searchsorted(row))
        if at == len(rows) or int(rows[at]) != row:
            return ()
        offsets = self.offsets.array()
        return tuple(
            self.ids[k] for k in range(int(offsets[at]), int(offsets[at + 1]))
        )

    def items(self) -> list[tuple[int, tuple[str, ...]]]:
        """Every ``(row, depends_on)`` pair, in row order."""
        ids = self.ids.tolist()
        offsets = self.offsets.array().tolist()
        return [
            (row, tuple(ids[offsets[i]:offsets[i + 1]]))
            for i, row in enumerate(self.rows.array().tolist())
        ]

    def nbytes(self) -> int:
        return self.rows.nbytes() + self.offsets.nbytes() + self.ids.nbytes()

    def __getstate__(self) -> tuple:
        return self.rows.array(), self.offsets.array(), self.ids

    def __setstate__(self, state: tuple) -> None:
        rows, offsets, self.ids = state
        self.rows = _Column(np.uint32, rows)
        self.offsets = _Column(np.uint32, offsets)


def _strs_nbytes(strings: list[str]) -> int:
    """Resident bytes of a list of distinct ASCII strings."""
    return (8 + _STR_BYTES) * len(strings) + sum(map(len, strings))


def _dict_nbytes(params: dict) -> int:
    """A parameter dict plus its float values."""
    return sys.getsizeof(params) + 24 * len(params)


class ParamPool:
    """Parameter dicts by param code; only non-empty ones are stored.

    An ad-hoc job has no parameters, so most codes of a day read as
    ``{}`` without an object each.
    """

    __slots__ = ("n", "dicts")

    def __init__(self, n: int = 0, dicts: dict[int, dict] | None = None) -> None:
        self.n = n
        self.dicts: dict[int, dict] = {} if dicts is None else dicts

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, code: int) -> dict:
        """Code ``code``'s dict (shared: callers copy before mutating)."""
        if not 0 <= code < self.n:
            raise IndexError(code)
        return self.dicts.get(code) or {}

    def append(self, params: dict) -> int:
        if params:
            self.dicts[self.n] = dict(params)
        self.n += 1
        return self.n - 1

    def extend(self, other: "ParamPool") -> None:
        base = self.n
        for code, params in other.dicts.items():
            self.dicts[base + code] = dict(params)
        self.n += other.n

    def nbytes(self) -> int:
        return sys.getsizeof(self.dicts) + sum(
            map(_dict_nbytes, self.dicts.values())
        )

    def __getstate__(self) -> tuple:
        return self.n, self.dicts

    def __setstate__(self, state: tuple) -> None:
        self.n, self.dicts = state


#: One ad-hoc recipe row: table and column codes into the pool's name
#: list, the predicate literal, the join table's code (-1: no join) and
#: the aggregate flag.
_RECIPE = np.dtype([
    ("table", "<i4"), ("column", "<i4"), ("value", "<f8"), ("join", "<i4"),
    ("aggregate", "?"),
])


class PlanPool:
    """Unique plans by plan code, each built at most once.

    A code is one of two kinds of entry.  An object entry is a plan
    tree (a recurring template's instance), held in ``objects``.  Every
    other code is an ad-hoc recipe (see
    :class:`~repro.workloads.scope.AdhocRecipe`): one row of the
    ``recipes`` column, its names coded into the small ``names`` pool.
    Indexing is the one plan accessor every reader goes through —
    ``DayChunk.record`` and the services' head sample alike.  A recipe is
    built on first read and the plan cached beside it, so readers of
    one pool share one object and its memoized signatures.  Pickles
    carry objects, names and the column only, never the built cache.
    """

    __slots__ = ("objects", "names", "recipes", "_name_index", "_built", "_nbytes")

    def __init__(self) -> None:
        self.objects: dict[int, Expression] = {}
        self.names: list[str] = []
        self.recipes = _Column(_RECIPE)
        self._name_index: dict[str, int] | None = {}
        self._built: dict[int, Expression] = {}
        self._nbytes: int | None = None

    @classmethod
    def with_recipes(
        cls,
        n: int,
        objects: dict[int, Expression],
        codes,
        names: list[str],
        rows: np.ndarray,
    ) -> "PlanPool":
        """``n`` entries: ``objects`` by code, recipe row ``k`` at
        ``codes[k]``, its names coded into ``names`` (no join: -1)."""
        pool = cls()
        pool.objects = objects
        pool.names = names
        pool._name_index = None
        column = np.zeros(n, dtype=_RECIPE)
        if len(rows):
            column[np.asarray(codes)] = rows
        pool.recipes.extend(column)
        return pool

    def head(self, n: int) -> "PlanPool":
        """The first ``n`` entries, sharing the plans already built."""
        pool = PlanPool.with_recipes(
            n,
            {c: p for c, p in self.objects.items() if c < n},
            np.arange(n),
            list(self.names),
            self.recipes.array()[:n],
        )
        pool._built = {c: p for c, p in self._built.items() if c < n}
        return pool

    def __len__(self) -> int:
        return len(self.recipes)

    def _name_code(self, name: str) -> int:
        if self._name_index is None:
            self._name_index = {n: i for i, n in enumerate(self.names)}
        code = self._name_index.get(name)
        if code is None:
            code = self._name_index[name] = len(self.names)
            self.names.append(name)
        return code

    def append(self, plan: Expression) -> None:
        """Add an object entry (its recipe row stays zero)."""
        self.objects[len(self)] = plan
        self.recipes.append((0, 0, 0.0, 0, False))
        self._nbytes = None

    def extend(self, other: "PlanPool") -> None:
        """Append ``other``'s entries, sharing the plans it already built."""
        base = len(self)
        for code, plan in other.objects.items():
            self.objects[base + code] = plan
        remap = np.fromiter(
            map(self._name_code, other.names), np.int32, len(other.names)
        )
        # Trailing -1: a join code of -1 (no join) indexes it and stays -1.
        remap = np.append(remap, np.int32(-1))
        rows = other.recipes.array().copy()
        for field in ("table", "column", "join"):
            rows[field] = remap[rows[field]]
        self.recipes.extend(rows)
        for code, plan in other._built.items():
            self._built[base + code] = plan
        self._nbytes = None

    def recipe(self, code: int):
        """The :class:`~repro.workloads.scope.AdhocRecipe` at ``code``, or
        ``None`` for an object entry."""
        from repro.workloads.scope import AdhocRecipe

        if code in self.objects:
            return None
        if not 0 <= code < len(self):
            raise IndexError(code)
        table, column, value, join, aggregate = self.recipes.array()[code].tolist()
        names = self.names
        return AdhocRecipe(
            names[table],
            names[column],
            value,
            None if join < 0 else names[join],
            aggregate,
        )

    def __getitem__(self, code: int) -> Expression:
        plan = self.objects.get(code)
        if plan is not None:
            return plan
        plan = self._built.get(code)
        if plan is None:
            plan = self._built[code] = self.recipe(code).build()
            if self._nbytes is not None:
                self._nbytes += PLAN_BYTES
        return plan

    def nbytes(self) -> int:
        """Recipes exactly, names as strings, each tree at :data:`PLAN_BYTES`."""
        if self._nbytes is None:
            n_trees = len(self.objects) + len(self._built)
            self._nbytes = (
                self.recipes.nbytes()
                + _strs_nbytes(self.names)
                + sys.getsizeof(self.objects)
                + PLAN_BYTES * n_trees
            )
        return self._nbytes

    def __getstate__(self) -> dict:
        return {
            "objects": self.objects,
            "names": self.names,
            "recipes": self.recipes.array(),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self.objects = state["objects"]
        self.names = state["names"]
        self._name_index = None
        self.recipes.extend(state["recipes"])


@dataclass
class JobBatch:
    """One day's jobs, pre-flattened into columns for bulk ingest.

    The expensive per-*plan* work (signature enumeration) happens once
    here, at construction; :meth:`WorkloadRepository.ingest_batch` then
    appends pure columns.  Recurring instances that share a plan object
    share one entry in ``plans`` — the columnar win that makes 100k+
    job days cheap.  Plan ``p``'s strict-signature codes (walk order)
    are ``sig_codes[sig_offsets[p]:sig_offsets[p + 1]]``.  Signatures
    are raw 8-byte digests (:func:`hex_names` gives the names).
    """

    day: int
    ids: StrColumn                         # job ids, one per job
    submit_hours: np.ndarray               # f8, one per job
    plan_codes: np.ndarray                 # u4 into plans, one per job
    param_codes: np.ndarray                # u4 into params, one per job
    plans: PlanPool
    template_digests: np.ndarray           # <u8, one per plan
    strict_digests: np.ndarray             # <u8, one per plan
    sig_codes: np.ndarray                  # u4 into the batch sig pool, flat
    sig_offsets: np.ndarray                # i8, len(plans) + 1
    sig_digests: np.ndarray                # <u8 batch-local strict-sig pool,
    sig_sizes: np.ndarray                  # u2; first-sighting order
    params: ParamPool
    deps: DepsCSR                          # sparse: row -> depends_on

    def __len__(self) -> int:
        return len(self.ids)

    def job_id(self, row: int) -> str:
        return self.ids[row]

    @classmethod
    def from_jobs(cls, jobs: list[Job], day: int | None = None) -> "JobBatch":
        """Columnarize ``jobs`` (all from one day, in ingestion order)."""
        if not jobs:
            raise ValueError("cannot build an empty JobBatch")
        batch_day = jobs[0].day if day is None else day
        job_ids: list[str] = []
        hours = np.empty(len(jobs), dtype=np.float64)
        plan_codes = np.empty(len(jobs), dtype=np.uint32)
        param_codes = np.empty(len(jobs), dtype=np.uint32)
        plans = PlanPool()
        plan_templates: list[str] = []
        plan_stricts: list[str] = []
        sig_codes: list[int] = []
        sig_offsets = [0]
        sig_names: list[str] = []
        sig_sizes: list[int] = []
        params = ParamPool()
        dep_rows: list[int] = []
        dep_lists: list[tuple[str, ...]] = []
        plan_index: dict[int, int] = {}
        sig_index: dict[str, int] = {}
        param_index: dict[tuple, int] = {}
        for row, job in enumerate(jobs):
            if job.day != batch_day:
                raise ValueError(
                    f"job {job.job_id!r} is on day {job.day}, batch is day"
                    f" {batch_day}: batches are per-day"
                )
            code = plan_index.get(id(job.plan))
            if code is None:
                code = len(plans)
                plan_index[id(job.plan)] = code
                strict_map, _template_map = enumerate_all_signatures(job.plan)
                sigs = signatures(job.plan)
                plans.append(job.plan)
                plan_templates.append(sigs.template)
                plan_stricts.append(sigs.strict)
                for name, node in strict_map.items():
                    sig_code = sig_index.get(name)
                    if sig_code is None:
                        sig_code = len(sig_names)
                        sig_index[name] = sig_code
                        sig_names.append(name)
                        sig_sizes.append(node.size)
                    sig_codes.append(sig_code)
                sig_offsets.append(len(sig_codes))
            plan_codes[row] = code
            pkey = (code,) + tuple(job.params.items())
            pcode = param_index.get(pkey)
            if pcode is None:
                pcode = param_index[pkey] = params.append(job.params)
            param_codes[row] = pcode
            job_ids.append(job.job_id)
            hours[row] = job.submit_hour
            if job.depends_on:
                dep_rows.append(row)
                dep_lists.append(tuple(job.depends_on))
        return cls(
            day=batch_day,
            ids=StrColumn.from_strs(job_ids),
            submit_hours=hours,
            plan_codes=plan_codes,
            param_codes=param_codes,
            plans=plans,
            template_digests=digests_of(plan_templates),
            strict_digests=digests_of(plan_stricts),
            sig_codes=np.asarray(sig_codes, dtype=np.uint32),
            sig_offsets=np.asarray(sig_offsets, dtype=np.int64),
            sig_digests=digests_of(sig_names),
            sig_sizes=_sig_sizes(sig_sizes),
            params=params,
            deps=DepsCSR.from_lists(dep_rows, dep_lists),
        )

    def head(self, n: int) -> "JobBatch":
        """The batch of the first ``n`` rows.

        Plan, parameter and signature codes are numbered by first
        appearance in row order, so the first rows use a prefix of each
        pool and every column is a prefix slice: the result equals
        ``from_jobs`` over the first ``n`` jobs.
        """
        if n >= len(self):
            return self
        if n < 1:
            raise ValueError("cannot build an empty JobBatch")
        n_plans = int(self.plan_codes[:n].max()) + 1
        n_params = int(self.param_codes[:n].max()) + 1
        n_codes = int(self.sig_offsets[n_plans])
        n_sigs = int(self.sig_codes[:n_codes].max()) + 1 if n_codes else 0
        n_deps = int(np.searchsorted(self.deps.rows.array(), n))
        dep_ends = self.deps.offsets.array()[1:n_deps + 1]
        return JobBatch(
            day=self.day,
            ids=self.ids.head(n),
            submit_hours=self.submit_hours[:n],
            plan_codes=self.plan_codes[:n],
            param_codes=self.param_codes[:n],
            plans=self.plans.head(n_plans),
            template_digests=self.template_digests[:n_plans],
            strict_digests=self.strict_digests[:n_plans],
            sig_codes=self.sig_codes[:n_codes],
            sig_offsets=self.sig_offsets[:n_plans + 1],
            sig_digests=self.sig_digests[:n_sigs],
            sig_sizes=self.sig_sizes[:n_sigs],
            params=ParamPool(
                n_params,
                {c: p for c, p in self.params.dicts.items() if c < n_params},
            ),
            deps=DepsCSR.from_columns(
                self.deps.rows.array()[:n_deps],
                dep_ends,
                self.deps.ids.head(int(dep_ends[-1]) if n_deps else 0),
            ),
        )


# ---------------------------------------------------------------------------
# day chunks
# ---------------------------------------------------------------------------


class DayChunk:
    """One day's columnar job table plus its interned pools.

    Everything a day needs travels together — numeric columns, job ids
    as one byte blob, the plan pool (recurring trees plus a column of
    ad-hoc recipes), the signature pool as raw digests with flat codes
    plus per-plan offsets (a CSR), the sparse parameter pool, and a
    dependency CSR — so a chunk spills to disk and reloads as one
    self-contained pickle of a few buffers.  Per-row state is arrays
    only: a day's Python objects are its recurring plans and their
    parameter dicts.  Chunks only ever grow by appending rows, so
    ``(day, n)`` names exactly one content; :class:`JobTable` relies on
    that to write each version of a day to disk at most once.
    """

    __slots__ = (
        "day", "ids", "submit_hours", "plan_codes", "param_codes",
        "plans", "template_digests", "strict_digests", "sig_codes",
        "sig_offsets", "sig_digests", "sig_sizes", "params", "deps",
        "_sig_index", "_filtered_cache", "_sig_bytes", "_nbytes_cache",
    )

    def __init__(self, day: int) -> None:
        self.day = day
        self.ids = StrColumn()
        self.submit_hours = _Column(np.float64)
        self.plan_codes = _Column(np.uint32)
        self.param_codes = _Column(np.uint32)
        self.plans = PlanPool()
        self.template_digests = _Column(DIGEST)
        self.strict_digests = _Column(DIGEST)
        self.sig_codes = _Column(np.uint32)
        self.sig_offsets = _Column(np.int64, np.zeros(1, dtype=np.int64))
        self.sig_digests = _Column(DIGEST)
        self.sig_sizes = _Column(np.uint16)
        self.params = ParamPool()
        self.deps = DepsCSR()
        self._sig_index: dict[int, int] | None = {}
        self._filtered_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._sig_bytes: np.ndarray | None = None
        self._nbytes_cache: int | None = None

    @property
    def n(self) -> int:
        return len(self.ids)

    def job_id(self, row: int) -> str:
        return self.ids[row]

    # -- interning -----------------------------------------------------------
    def _intern_sig(self, digest: int, size: int) -> int:
        if self._sig_index is None:
            self._sig_index = {
                d: i for i, d in enumerate(self.sig_digests.array().tolist())
            }
        code = self._sig_index.get(digest)
        if code is None:
            code = self._sig_index[digest] = len(self.sig_digests)
            self.sig_digests.append(digest)
            self.sig_sizes.append(size)
        return code

    def _invalidate(self) -> None:
        self._filtered_cache = {}
        self._sig_bytes = None
        self._nbytes_cache = None

    # -- appends -------------------------------------------------------------
    def append_batch(self, batch: JobBatch) -> None:
        base_row = self.n
        if not len(self.plans):
            # Fresh chunk (the one-batch-per-day hot path): adopt the
            # batch's pre-interned pools and code arrays wholesale —
            # zero per-sig work.
            self.sig_digests = _Column(DIGEST, batch.sig_digests)
            self.sig_sizes = _Column(np.uint16, batch.sig_sizes)
            self._sig_index = None
            self.sig_codes = _Column(np.uint32, batch.sig_codes)
            self.sig_offsets = _Column(np.int64, batch.sig_offsets)
        else:
            remap = np.fromiter(
                (
                    self._intern_sig(digest, size)
                    for digest, size in zip(
                        batch.sig_digests.tolist(), batch.sig_sizes.tolist()
                    )
                ),
                dtype=np.uint32,
                count=len(batch.sig_digests),
            )
            sig_base = len(self.sig_codes)
            self.sig_codes.extend(remap[batch.sig_codes])
            self.sig_offsets.extend(batch.sig_offsets[1:] + sig_base)
        plan_offset = np.uint32(len(self.plans))
        self.plans.extend(batch.plans)
        self.template_digests.extend(batch.template_digests)
        self.strict_digests.extend(batch.strict_digests)
        param_offset = np.uint32(len(self.params))
        self.params.extend(batch.params)
        self.ids.extend(batch.ids)
        self.submit_hours.extend(batch.submit_hours)
        self.plan_codes.extend(batch.plan_codes + plan_offset)
        self.param_codes.extend(batch.param_codes + param_offset)
        self.deps.extend(batch.deps, base_row)
        self._invalidate()

    # -- reads ---------------------------------------------------------------
    def record(self, row: int) -> JobRecord:
        code = int(self.plan_codes.array()[row])
        return self._record(
            code,
            self.ids[row],
            float(self.submit_hours.array()[row]),
            _hex_at(self.template_digests.array(), code),
            _hex_at(self.strict_digests.array(), code),
            int(self.param_codes.array()[row]),
            self.deps.get(row),
        )

    def iter_records(self):
        """Every row's record in order, each column decoded once."""
        deps = dict(self.deps.items())
        templates = hex_names(self.template_digests.array())
        stricts = hex_names(self.strict_digests.array())
        columns = zip(
            self.ids.tolist(),
            self.submit_hours.array().tolist(),
            self.plan_codes.array().tolist(),
            self.param_codes.array().tolist(),
        )
        for row, (job_id, hour, code, param_code) in enumerate(columns):
            yield self._record(
                code, job_id, hour, templates[code], stricts[code],
                param_code, deps.get(row, ()),
            )

    def records(self) -> list[JobRecord]:
        return list(self.iter_records())

    def _record(
        self,
        plan_code: int,
        job_id: str,
        hour: float,
        template: str,
        strict: str,
        param_code: int,
        depends_on: tuple[str, ...],
    ) -> JobRecord:
        plan = self.plans[plan_code]
        strict_map, template_map = enumerate_all_signatures(plan)
        return JobRecord(
            job_id=job_id,
            submit_hour=hour,
            plan=plan,
            template=template,
            strict=strict,
            subexpression_templates=template_map,
            subexpression_strict=strict_map,
            params=dict(self.params[param_code]),
            depends_on=depends_on,
        )

    def filtered_sig_codes(self, min_size: int) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, offsets)`` CSR of strict sigs with node size >= ``min_size``."""
        cached = self._filtered_cache.get(min_size)
        if cached is None:
            codes = self.sig_codes.array()
            keep = (self.sig_sizes.array() >= min_size)[codes]
            kept = np.zeros(len(codes) + 1, dtype=np.int64)
            np.cumsum(keep, out=kept[1:])
            cached = (codes[keep], kept[self.sig_offsets.array()])
            self._filtered_cache[min_size] = cached
        return cached

    def sig_bytes(self) -> np.ndarray:
        """The signature names as a fixed-width ``S16`` array (for shm)."""
        if self._sig_bytes is None:
            text = self.sig_digests.array().tobytes().hex().encode("ascii")
            self._sig_bytes = np.frombuffer(text, dtype="S16")
        return self._sig_bytes

    def sig_rows(self, min_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(job_row, sig_code)`` streams, job-major, walk order.

        Row order is exactly what a serial scan of per-record
        ``subexpression_strict`` dicts produces — the invariant the
        byte-identical sharing statistics rest on.
        """
        codes, offsets = self.filtered_sig_codes(min_size)
        plan_codes = self.plan_codes.array()
        starts = offsets[plan_codes]
        counts = offsets[plan_codes + 1] - starts
        flat_job = np.repeat(
            np.arange(len(plan_codes), dtype=np.uint32), counts
        )
        # Job r's k-th code sits at starts[r] + k; ``shift`` turns the
        # running position in the output into that index.
        shift = np.repeat(np.cumsum(counts) - counts - starts, counts)
        flat_sig = codes[np.arange(len(flat_job)) - shift]
        return flat_job, flat_sig

    # -- bookkeeping ---------------------------------------------------------
    def nbytes(self) -> int:
        """Resident bytes this chunk holds, driving the LRU budget.

        Columns, id and dependency blobs count exactly, parameter dicts
        at their CPython sizes, and each plan tree (a recurring plan, or
        a recipe read since) at :data:`PLAN_BYTES`.  Derived caches
        (filtered CSRs, the shm signature array, the interning index)
        count while they are held.
        """
        if self._nbytes_cache is None:
            columns = sum(
                col.nbytes()
                for col in (
                    self.submit_hours, self.plan_codes, self.param_codes,
                    self.template_digests, self.strict_digests,
                    self.sig_codes, self.sig_offsets, self.sig_digests,
                    self.sig_sizes,
                )
            )
            self._nbytes_cache = (
                columns
                + self.ids.nbytes()
                + self.deps.nbytes()
                + self.params.nbytes()
            )
        # Plans read since (built recipes) and derived caches count live.
        derived = self.plans.nbytes() + sum(
            codes.nbytes + offsets.nbytes
            for codes, offsets in self._filtered_cache.values()
        )
        if self._sig_bytes is not None:
            derived += self._sig_bytes.nbytes
        if self._sig_index is not None:
            derived += sys.getsizeof(self._sig_index)
        return self._nbytes_cache + derived

    _ARRAYS = (
        "submit_hours", "plan_codes", "param_codes", "template_digests",
        "strict_digests", "sig_codes", "sig_offsets", "sig_digests",
        "sig_sizes",
    )

    def __getstate__(self) -> dict:
        state = {name: getattr(self, name).array() for name in self._ARRAYS}
        for name in ("day", "ids", "plans", "params", "deps"):
            state[name] = getattr(self, name)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["day"])
        for name in self._ARRAYS:
            column = getattr(self, name)
            setattr(self, name, _Column(column.dtype, state[name]))
        for name in ("ids", "plans", "params", "deps"):
            setattr(self, name, state[name])
        self._sig_index = None


# ---------------------------------------------------------------------------
# the chunked, spilling job table
# ---------------------------------------------------------------------------


class JobTable:
    """Day chunks behind an LRU cache with disk spill.

    ``memory_budget_bytes`` caps the estimated resident size of hot
    chunks; when exceeded (and ``spill_dir`` is set) the least recently
    used cold day is pickled to ``spill_dir`` and dropped.  Without a
    spill directory the table is fully in-memory and the budget is
    inert — exactly the old repository behaviour.

    Per-day uint64 id-hash indexes (12 bytes/job) stay resident even
    for spilled days, so duplicate detection and ``job()`` lookups
    never page a chunk back in unless they actually hit.

    Every file in ``spill_dir`` is write-once: a chunk is written as
    ``day-DDDDD-ROWS.chunk``, and since chunks only grow by appending,
    that name denotes one content forever.  A pickle with a spill
    directory is therefore a manifest (see :meth:`__getstate__`) that
    stays valid however far the live table runs on.
    """

    def __init__(
        self,
        memory_budget_bytes: int | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        self.memory_budget_bytes = memory_budget_bytes
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.chunks: dict[int, DayChunk] = {}     # hot, LRU order
        self.chunk_files: dict[int, str] = {}     # day -> newest chunk file
        self.index_files: dict[int, str] = {}     # closed day -> index file
        self.day_counts: dict[int, int] = {}      # every day ever seen
        self.day_order: list[int] = []            # first-appearance order
        self.closed_index: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.open_day: int | None = None
        self._open_segments: list[tuple[np.ndarray, np.ndarray]] = []
        self.reopened = False
        self.n_jobs = 0
        self.spills = 0
        self.loads = 0
        # Derived cache: one (hashes, days, rows) triple merge-sorted
        # across every closed day, so membership probes cost a single
        # searchsorted instead of one per historical day.  Lazily built,
        # extended in place at close_day, dropped on reopen; never
        # pickled (rebuilt on demand after a restore).
        self._global_index: (
            tuple[np.ndarray, np.ndarray, np.ndarray] | None
        ) = None

    # -- chunk access --------------------------------------------------------
    def _touch(self, day: int) -> None:
        chunk = self.chunks.pop(day)
        self.chunks[day] = chunk

    def chunk(self, day: int) -> DayChunk:
        chunk = self.chunks.get(day)
        if chunk is not None:
            self._touch(day)
            return chunk
        name = self.chunk_files.get(day)
        if name is None:
            raise KeyError(day)
        chunk = self._read_pickle(name)
        self.loads += 1
        self.chunks[day] = chunk
        self._enforce_budget()
        return chunk

    def _ensure_open(self, day: int) -> DayChunk:
        if self.open_day == day:
            chunk = self.chunks[day]
            self._touch(day)
            return chunk
        if self.open_day is not None:
            self.close_day(self.open_day)
        if day in self.day_counts:
            # Reopening a closed day: fold its finished index back into
            # the open-day segments and drop the derived global order.
            chunk = self.chunk(day)
            self.open_day = day
            self._open_segments = [self.closed_index.pop(day)]
            self.index_files.pop(day, None)
            self._global_index = None
            self.reopened = True
        else:
            chunk = DayChunk(day)
            self.chunks[day] = chunk
            self.day_counts[day] = 0
            self.day_order.append(day)
            self.open_day = day
            self._open_segments = []
        return chunk

    def close_day(self, day: int) -> None:
        """Finalize a day: build its sorted id-hash index, free lookups."""
        if self.open_day != day:
            return
        if self._open_segments:
            hashes, rows = zip(*self._open_segments)
            all_hashes = np.concatenate(hashes)
            all_rows = np.concatenate(rows)
            order = np.argsort(all_hashes, kind="stable")
            self.closed_index[day] = (all_hashes[order], all_rows[order])
        else:
            self.closed_index[day] = (
                np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.uint32),
            )
        if self._global_index is not None:
            # Merge the finished day into the global index in place —
            # one searchsorted + three inserts, not a full rebuild.
            day_hashes, day_rows = self.closed_index[day]
            if len(day_hashes):
                gl_hashes, gl_days, gl_rows = self._global_index
                at = np.searchsorted(gl_hashes, day_hashes)
                self._global_index = (
                    np.insert(gl_hashes, at, day_hashes),
                    np.insert(gl_days, at, np.int32(day)),
                    np.insert(gl_rows, at, day_rows),
                )
        self.open_day = None
        self._open_segments = []
        self._enforce_budget()

    # -- membership ----------------------------------------------------------
    def _merged_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted (hashes, days, rows) across every *closed* day."""
        merged = self._global_index
        if merged is not None:
            return merged
        hashes: list[np.ndarray] = []
        days: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        for day, (idx_hashes, idx_rows) in self.closed_index.items():
            if len(idx_hashes):
                hashes.append(idx_hashes)
                days.append(np.full(len(idx_hashes), day, dtype=np.int32))
                rows.append(idx_rows)
        if hashes:
            all_hashes = np.concatenate(hashes)
            order = np.argsort(all_hashes, kind="stable")
            merged = (
                all_hashes[order],
                np.concatenate(days)[order],
                np.concatenate(rows)[order],
            )
        else:
            merged = (
                np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.uint32),
            )
        self._global_index = merged
        return merged

    def _day_has(self, day: int, job_id: str, h: np.uint64) -> int | None:
        """Row of ``job_id`` on ``day`` if present (hash + verify)."""
        if day == self.open_day:
            for seg_hashes, seg_rows in self._open_segments:
                lo = int(np.searchsorted(seg_hashes, h, side="left"))
                hi = int(np.searchsorted(seg_hashes, h, side="right"))
                for at in range(lo, hi):
                    row = int(seg_rows[at])
                    if self.chunks[day].job_id(row) == job_id:
                        return row
            return None
        index = self.closed_index.get(day)
        if index is None:
            return None
        idx_hashes, idx_rows = index
        lo = int(np.searchsorted(idx_hashes, h, side="left"))
        hi = int(np.searchsorted(idx_hashes, h, side="right"))
        for at in range(lo, hi):
            row = int(idx_rows[at])
            if self.chunk(day).job_id(row) == job_id:
                return row
        return None

    def find(self, job_id: str) -> tuple[int, int] | None:
        """(day, row) of ``job_id`` anywhere in the table."""
        h = _hash_ids([job_id])[0]
        if self.open_day is not None:
            row = self._day_has(self.open_day, job_id, h)
            if row is not None:
                return self.open_day, row
        gl_hashes, gl_days, gl_rows = self._merged_index()
        lo = int(np.searchsorted(gl_hashes, h, side="left"))
        hi = int(np.searchsorted(gl_hashes, h, side="right"))
        for at in range(lo, hi):
            day = int(gl_days[at])
            row = int(gl_rows[at])
            if self.chunk(day).job_id(row) == job_id:
                return day, row
        return None

    # -- appends -------------------------------------------------------------
    def append_batch(self, batch: JobBatch) -> DayChunk:
        fixed = batch.ids.fixed()
        hashes = _hash_ids(fixed)
        uniq, first, counts = np.unique(
            hashes, return_index=True, return_counts=True
        )
        if (counts > 1).any() and len(np.unique(fixed)) != len(fixed):
            seen: set[str] = set()
            for job_id in batch.ids.tolist():
                if job_id in seen:
                    raise ValueError(f"job {job_id!r} already ingested")
                seen.add(job_id)
        chunk = self._ensure_open(batch.day)
        base_row = chunk.n
        # Cross-day duplicate probe against the single merged index:
        # one searchsorted for the whole batch regardless of how many
        # historical days exist, verifying only hash collisions.
        gl_hashes, gl_days, gl_rows = self._merged_index()
        if len(gl_hashes):
            lo = np.searchsorted(gl_hashes, uniq, side="left")
            hi = np.searchsorted(gl_hashes, uniq, side="right")
            for pos in np.nonzero(hi > lo)[0]:
                job_id = batch.job_id(int(first[pos]))
                for at in range(int(lo[pos]), int(hi[pos])):
                    day = int(gl_days[at])
                    if self.chunk(day).job_id(int(gl_rows[at])) == job_id:
                        raise ValueError(
                            f"job {job_id!r} already ingested"
                        )
        if self._open_segments:
            for pos in range(len(uniq)):
                job_id = batch.job_id(int(first[pos]))
                if self._day_has(batch.day, job_id, uniq[pos]) is not None:
                    raise ValueError(f"job {job_id!r} already ingested")
        chunk.append_batch(batch)
        order = np.argsort(hashes, kind="stable")
        self._open_segments.append(
            (
                hashes[order],
                (base_row + np.arange(len(batch), dtype=np.uint32))[order],
            )
        )
        self.day_counts[batch.day] = chunk.n
        self.n_jobs += len(batch)
        self._enforce_budget()
        return chunk

    # -- eviction ------------------------------------------------------------
    def hot_bytes(self) -> int:
        return sum(chunk.nbytes() for chunk in self.chunks.values())

    def _spill_chunk(self, day: int) -> None:
        if self._write_chunk(day):
            self.spills += 1
        del self.chunks[day]

    def _enforce_budget(self) -> None:
        if self.memory_budget_bytes is None or self.spill_dir is None:
            return
        while len(self.chunks) > 1 and self.hot_bytes() > self.memory_budget_bytes:
            victim = next(
                (d for d in self.chunks if d != self.open_day), None
            )
            if victim is None:
                break
            self._spill_chunk(victim)

    def flush(self) -> None:
        """Write each hot chunk's version not yet on disk (keeps them hot)."""
        if self.spill_dir is None:
            return
        for day in self.chunks:
            self._write_chunk(day)

    # -- write-once files ----------------------------------------------------
    def _write_file(self, name: str, dump) -> str:
        """Atomically create ``spill_dir/name`` with ``dump(fh)``."""
        path = self.spill_dir / name
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(name + ".tmp")
        with tmp.open("wb") as fh:
            dump(fh)
        tmp.replace(path)
        return name

    def _write_chunk(self, day: int) -> bool:
        """Write ``day``'s chunk unless this version is already on disk."""
        chunk = self.chunks[day]
        name = f"day-{day:05d}-{chunk.n}.chunk"
        if self.chunk_files.get(day) == name:
            return False
        self.chunk_files[day] = self._write_file(
            name, lambda fh: pickle.dump(chunk, fh, protocol=4)
        )
        return True

    def _read_pickle(self, name: str):
        """Load a chunk or facts file; a torn, corrupt or pre-columnar
        one raises one ``ValueError`` naming it."""
        path = self.spill_dir / name
        with path.open("rb") as fh:
            try:
                return pickle.load(fh)
            except Exception as exc:
                # Unpickling damaged bytes can fail with almost any
                # error type; an old chunk layout fails in __setstate__.
                raise ValueError(f"{path}: unreadable spill file ({exc!r})") from exc

    def _index_file(self, day: int) -> str:
        """The closed day's id index as a file, written on first need."""
        name = f"day-{day:05d}-{self.day_counts[day]}.index.npy"
        if self.index_files.get(day) != name:
            hashes, rows = self.closed_index[day]
            pair = np.stack([hashes, rows.astype(np.uint64)])
            self.index_files[day] = self._write_file(
                name, lambda fh: np.save(fh, pair)
            )
        return name

    def _load_index(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        pair = np.load(self.spill_dir / name)
        return pair[0], pair[1].astype(np.uint32)

    # -- iteration -----------------------------------------------------------
    def iter_id_deps(self):
        """(job_id, depends_on) pairs in global ingestion order, lazily."""
        for day in self.day_order:
            chunk = self.chunk(day)
            deps = dict(chunk.deps.items())
            for row, job_id in enumerate(chunk.ids.tolist()):
                yield job_id, deps.get(row, ())

    def stats(self) -> dict:
        return {
            "jobs": self.n_jobs,
            "days": len(self.day_counts),
            "hot_chunks": len(self.chunks),
            "spilled_chunks": len(self.chunk_files),
            "hot_bytes": self.hot_bytes(),
            "memory_budget_bytes": self.memory_budget_bytes,
            "spills": self.spills,
            "loads": self.loads,
        }

    # -- pickling ------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = {
            name: getattr(self, name)
            for name in (
                "memory_budget_bytes", "day_counts", "day_order", "open_day",
                "_open_segments", "reopened", "n_jobs", "spills", "loads",
            )
        }
        state["spill_dir"] = str(self.spill_dir) if self.spill_dir else None
        if self.spill_dir is not None:
            # Manifest mode, O(one day): the pickle names write-once
            # files — each hot chunk at its current size (the open day
            # included) and each closed day's id index — and carries
            # only the open day's id segments inline.
            self.flush()
            state["chunk_files"] = self.chunk_files
            state["index_files"] = {
                day: self._index_file(day) for day in self.closed_index
            }
        else:
            state["closed_index"] = self.closed_index
            state["chunks"] = dict(self.chunks)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            memory_budget_bytes=state["memory_budget_bytes"],
            spill_dir=state["spill_dir"],
        )
        for name in (
            "day_counts", "day_order", "open_day", "_open_segments",
            "reopened", "n_jobs", "spills", "loads",
        ):
            setattr(self, name, state[name])
        if self.spill_dir is None:
            self.closed_index = state["closed_index"]
            self.chunks = state["chunks"]
            return
        self.chunk_files = state["chunk_files"]
        self.index_files = state["index_files"]
        self.closed_index = {
            day: self._load_index(name)
            for day, name in self.index_files.items()
        }
        if self.open_day is not None:
            # The open day reloads hot, as it was when pickled.
            self.chunks[self.open_day] = self._read_pickle(
                self.chunk_files[self.open_day]
            )


class _RecordsView:
    """Sequence view over every record, materialized on demand."""

    def __init__(self, repo: "WorkloadRepository") -> None:
        self._repo = repo

    def __len__(self) -> int:
        return len(self._repo)

    def __iter__(self):
        table = self._repo._table
        for day in table.day_order:
            yield from table.chunk(day).iter_records()

    def _locate(self, index: int) -> JobRecord:
        table = self._repo._table
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("record index out of range")
        for day in table.day_order:
            count = table.day_counts[day]
            if index < count:
                return table.chunk(day).record(index)
            index -= count
        raise IndexError("record index out of range")

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._locate(i) for i in range(*index.indices(len(self)))]
        return self._locate(index)


# ---------------------------------------------------------------------------
# the repository
# ---------------------------------------------------------------------------


#: How many shared signatures ``analyze`` reports.
_TOP_SHARED = 10


class SharingFold:
    """A running fold of per-day sharing summaries.

    Per day: the fraction of its jobs sharing a subexpression.  Per
    shared signature, in first-sighting order: its best single-day job
    count.  And the ten best of those, count descending with ties in
    first-sighting order — ``sorted(best.items(), key=-count)[:10]``,
    kept without re-sorting: a fold can only raise counts, so the new
    ten come from the old ten plus the signatures the fold touched.

    Days are ingested append-only, so :meth:`update` folds only days it
    has not seen.  The last folded day is journaled: when it grew, it
    is unfolded and folded again; any other change folds from scratch.
    """

    def __init__(self) -> None:
        self.days: list[tuple[int, int]] = []   # (day, n_jobs) folded
        self.fractions: list[float] = []
        self.best: dict[str, int] = {}
        self.first: dict[str, int] = {}         # sig -> position in best
        self.top: list[tuple[str, int]] = []
        # The last day's (added sigs, replaced counts, previous top).
        self._journal: tuple[list, dict, list] | None = None

    def update(self, summaries: list[tuple[int, int, int, dict]]) -> None:
        keys = [(day, n_jobs) for day, n_jobs, _n, _shared in summaries]
        n = len(self.days)
        if keys[:n] != self.days:
            if (
                n
                and len(keys) >= n
                and keys[:n - 1] == self.days[:-1]
                and keys[n - 1][0] == self.days[-1][0]
            ):
                self._unfold_last()
            else:
                self.__init__()
        for summary in summaries[len(self.days):]:
            self._fold(summary)

    def _fold(self, summary: tuple[int, int, int, dict]) -> None:
        day, n_jobs, n_sharing, shared = summary
        best, first = self.best, self.first
        added: list[str] = []
        replaced: dict[str, int] = {}
        for sig, count in shared.items():
            old = best.get(sig)
            if old is None:
                first[sig] = len(best)
                best[sig] = count
                added.append(sig)
            elif count > old:
                replaced[sig] = old
                best[sig] = count
        touched = dict(self.top)
        for sig in added:
            touched[sig] = best[sig]
        for sig in replaced:
            touched[sig] = best[sig]
        self._journal = (added, replaced, self.top)
        self.top = sorted(
            touched.items(), key=lambda kv: (-kv[1], first[kv[0]])
        )[:_TOP_SHARED]
        self.days.append((day, n_jobs))
        self.fractions.append(n_sharing / max(n_jobs, 1))

    def _unfold_last(self) -> None:
        added, replaced, top = self._journal
        for sig in added:
            del self.best[sig]
            del self.first[sig]
        self.best.update(replaced)
        self.top = top
        self.days.pop()
        self.fractions.pop()
        self._journal = None


class WorkloadRepository:
    """Signature-indexed store of everything the platform has seen.

    Default construction is fully in-memory and behaviourally identical
    to the historical list-based repository.  Passing
    ``memory_budget_bytes`` + ``spill_dir`` bounds resident memory: cold
    day chunks spill to disk and reload transparently on access, and a
    pickle becomes an O(one day) manifest of write-once spill files.
    """

    def __init__(
        self,
        memory_budget_bytes: int | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        self._table = JobTable(memory_budget_bytes, spill_dir)
        # sig -> [set of days, instance count], first-sighting order.
        self._template_stats: dict[str, list] = {}
        # Instances of templates seen on more than one day, kept as
        # templates fold in; derived, so never pickled.
        self._recurring_instances = 0
        # The open day's share of it since the day (re)opened: sig ->
        # instances.  With a spill dir each closed share is written,
        # with the day's sharing summaries, to a write-once facts file.
        self._open_templates: dict[str, int] = {}
        self._fact_files: list[str] = []
        self._day_summaries: dict[tuple[int, int], tuple[int, tuple]] = {}
        self._closed_involved: dict[int, int] = {}
        self._dep_fallback = False
        self._days_cache: list[int] | None = None
        # min_size -> append-only whole-history (job, sig) block; see
        # :meth:`sig_table`.  Derived, potentially large: never pickled.
        self._sig_table_cache: dict[int, dict] = {}
        # min_size -> running fold of the day summaries; derived, never
        # pickled (see :meth:`sharing_fold`).
        self._sharing_folds: dict[int, SharingFold] = {}

    def __len__(self) -> int:
        return self._table.n_jobs

    @property
    def records(self) -> _RecordsView:
        return _RecordsView(self)

    # -- ingestion -----------------------------------------------------------
    def _note_day_rollover(self, day: int) -> None:
        previous = self._table.open_day
        if previous is not None and previous != day:
            self._resolve_involved(previous, closing=True)
            self._table.close_day(previous)
            self._write_facts(previous)

    def _write_facts(self, day: int) -> None:
        """Persist the closed segment's template counts and summaries.

        A segment that added rows ends at a row count no other segment
        of the day ends at, so its file name is never reused.
        """
        templates, self._open_templates = self._open_templates, {}
        if self._table.spill_dir is None or not templates:
            return
        facts = (
            day,
            templates,
            {k: v for k, v in self._day_summaries.items() if k[0] == day},
        )
        name = f"day-{day:05d}-{self._table.day_counts[day]}.facts"
        self._fact_files.append(
            self._table._write_file(
                name, lambda fh: pickle.dump(facts, fh, protocol=4)
            )
        )

    def _track_templates(self, template: str, day: int, count: int) -> None:
        self._open_templates[template] = (
            self._open_templates.get(template, 0) + count
        )
        self._fold_template(template, day, count)

    def _fold_template(self, template: str, day: int, count: int) -> None:
        stat = self._template_stats.get(template)
        if stat is None:
            self._template_stats[template] = [{day}, count]
            return
        days = stat[0]
        if day not in days:
            days.add(day)
            if len(days) == 2:
                # Recurring from now on: its earlier instances count too.
                self._recurring_instances += stat[1]
        if len(days) > 1:
            self._recurring_instances += count
        stat[1] += count

    def ingest_batch(self, batch: JobBatch | list[Job]) -> int:
        """Bulk-append one day's columnar batch; returns rows added."""
        if not isinstance(batch, JobBatch):
            batch = JobBatch.from_jobs(batch)
        self._note_day_rollover(batch.day)
        self._table.append_batch(batch)
        # Per distinct template, in first-sighting order across plans:
        # the order (and the sums) a per-plan fold would produce.
        templates, first, inverse = np.unique(
            batch.template_digests, return_index=True, return_inverse=True
        )
        rows = np.bincount(
            inverse[batch.plan_codes], minlength=len(templates)
        )
        order = np.argsort(first, kind="stable")
        for template, count in zip(
            hex_names(templates[order]), rows[order].tolist()
        ):
            self._track_templates(template, batch.day, count)
        self._invalidate_day(batch.day)
        return len(batch)

    def ingest(self, workload: Workload) -> "WorkloadRepository":
        """Ingest ``workload``'s jobs in order, one batch per run of
        consecutive same-day jobs."""
        for _, run in groupby(workload.jobs, key=attrgetter("day")):
            self.ingest_batch(list(run))
        return self

    def _invalidate_day(self, day: int) -> None:
        if self._days_cache is not None and (
            not self._days_cache or day not in self._table.day_counts
            or self._days_cache[-1] < day or day not in self._days_cache
        ):
            self._days_cache = None
        for key in [k for k in self._day_summaries if k[0] == day]:
            del self._day_summaries[key]
        self._closed_involved.pop(day, None)
        # A day already folded into a cached sig table mutated (reopen
        # or same-day re-ingest): that block can no longer be extended
        # append-only, so drop it.  Brand-new days leave caches intact —
        # they are appended on the next sig_table call.
        for min_size in [
            m
            for m, state in self._sig_table_cache.items()
            if day in state["days"]
        ]:
            del self._sig_table_cache[min_size]

    # -- dependency involvement ---------------------------------------------
    def _resolve_involved(self, day: int, closing: bool = False) -> int:
        """Distinct ids involved in dependencies on ``day`` (cached)."""
        cached = self._closed_involved.get(day)
        if cached is not None and not closing:
            return cached
        chunk = self._table.chunk(day)
        count = 0
        if len(chunk.deps):
            # Each dependency id's row on this day, by hash, verified.
            job_ids = chunk.ids.fixed()
            dep_ids = chunk.deps.ids.fixed()
            hashes = _hash_ids(job_ids)
            order = np.argsort(hashes, kind="stable")
            at = np.searchsorted(hashes[order], _hash_ids(dep_ids))
            rows = order[np.minimum(at, len(order) - 1)]
            consumers = chunk.deps.rows.array()
            if (job_ids[rows] == dep_ids).all():
                count = len(np.unique(np.concatenate([consumers, rows])))
            else:
                # A dependency names a job outside this day: per-day
                # counts are no longer disjoint, so analysis falls back
                # to the exact global union.
                self._dep_fallback = True
                involved = np.concatenate([job_ids[consumers], dep_ids])
                count = len(np.unique(involved))
        self._closed_involved[day] = count
        return count

    def dependency_involved(self) -> int:
        """Distinct job ids participating in any dependency edge."""
        if self._dep_fallback:
            involved: set[str] = set()
            for job_id, deps in self._table.iter_id_deps():
                if deps:
                    involved.add(job_id)
                    involved.update(deps)
            return len(involved)
        return sum(
            self._resolve_involved(day) for day in self._table.day_order
        )

    # -- incremental statistics ----------------------------------------------
    def template_totals(self) -> tuple[int, int, np.ndarray]:
        """Instances of templates seen on more than one day, distinct
        templates, and each template's instances (first-sighting order).

        The first is kept as templates fold in; the counts are read off
        the live per-template stats in one C-level pass, with no
        per-template tuple as :meth:`template_stats` builds.
        """
        stats = self._template_stats
        return (
            self._recurring_instances,
            len(stats),
            np.fromiter(
                map(itemgetter(1), stats.values()), np.int64, len(stats)
            ),
        )

    def template_stats(self) -> dict[str, tuple[int, int]]:
        """sig -> (distinct days, instances), first-sighting order."""
        return {
            sig: (len(days), count)
            for sig, (days, count) in self._template_stats.items()
        }

    def day_sharing_summary(
        self, day: int, min_size: int = 2
    ) -> tuple[int, int, int, dict[str, int]]:
        """One day's sharing statistics, vectorized over the chunk.

        Returns ``(day, n_jobs, n_sharing_jobs, {sig: jobs sharing})``
        with dict order equal to first-sighting order — byte-identical
        to a serial scan over per-record signature dicts.  Summaries of
        finished days are cached, so re-analysis after each fabric tick
        only computes the newest day.
        """
        n_jobs = self._table.day_counts.get(day, 0)
        key = (day, min_size)
        cached = self._day_summaries.get(key)
        if cached is not None and cached[0] == n_jobs:
            return cached[1]
        chunk = self._table.chunk(day)
        flat_job, flat_sig = chunk.sig_rows(min_size)
        if len(flat_sig):
            per_sig = np.bincount(flat_sig, minlength=len(chunk.sig_digests))
            shared_mask = per_sig > 1
            flat_shared = shared_mask[flat_sig]
            n_sharing = int(np.unique(flat_job[flat_shared]).size)
            codes, first_pos = np.unique(flat_sig, return_index=True)
            keep = shared_mask[codes]
            codes, first_pos = codes[keep], first_pos[keep]
            order = np.argsort(first_pos, kind="stable")
            codes = codes[order]
            shared = dict(
                zip(
                    hex_names(chunk.sig_digests.array()[codes]),
                    per_sig[codes].tolist(),
                )
            )
        else:
            n_sharing = 0
            shared = {}
        summary = (day, n_jobs, n_sharing, shared)
        self._day_summaries[key] = (n_jobs, summary)
        return summary

    def sharing_fold(self, min_size: int = 2) -> SharingFold:
        """Every day's :meth:`day_sharing_summary` folded, kept between
        calls: a call folds only days new or changed since the last."""
        fold = self._sharing_folds.get(min_size)
        if fold is None:
            fold = self._sharing_folds[min_size] = SharingFold()
        fold.update(
            [self.day_sharing_summary(day, min_size) for day in self.days()]
        )
        return fold

    def day_sig_table(self, day: int, min_size: int = 2):
        """(local_rows, sig_bytes, n_jobs) for the shared-memory table."""
        chunk = self._table.chunk(day)
        flat_job, flat_sig = chunk.sig_rows(min_size)
        return flat_job, chunk.sig_bytes()[flat_sig], chunk.n

    def sig_table(
        self, min_size: int = 2
    ) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
        """Whole-history (job, signature) block, memoized append-only.

        The structured ``(job_code, sig_bytes)`` array the parallel
        analyze path publishes to shared memory.  Per call, only days
        ingested since the last call are gathered from their chunks;
        already-cached days extend with one memcpy and never reload a
        (possibly spilled) chunk again — analyze cost per tick stays
        O(new day), not O(history).  Signature names are 16 hex
        characters, so the block's ``S16`` layout never changes.  Job
        codes are the day's global row offset plus the local row.
        Returns ``(table, slices)`` with per-day
        ``(day, start_row, stop_row, n_jobs)`` slices.
        """
        counts = self._table.day_counts
        days = self.days()
        state = self._sig_table_cache.get(min_size)
        if state is not None:
            cached_days = state["days"]
            fresh = all(counts.get(d) == n for d, n in cached_days.items())
            new_days = [d for d in days if d not in cached_days]
            if (
                fresh
                and cached_days
                and new_days
                and min(new_days) < max(cached_days)
            ):
                # A day arrived out of order: appending would scramble
                # the sorted-day layout, so rebuild from scratch.
                fresh = False
            if not fresh:
                state = None
        if state is None:
            state = {"days": {}, "table": None, "slices": [], "offset": 0}
            self._sig_table_cache[min_size] = state
            new_days = days
        dtype = [("job", np.uint32), ("sig", "S16")]
        table = state["table"]
        if table is None:
            table = np.zeros(0, dtype=dtype)
        if new_days:
            parts_job: list[np.ndarray] = []
            parts_sig: list[np.ndarray] = []
            total = len(table)
            offset = state["offset"]
            slices = state["slices"]
            for day in new_days:
                flat_job, flat_sig, n_jobs = self.day_sig_table(
                    day, min_size
                )
                start = total
                total += len(flat_job)
                parts_job.append(flat_job.astype(np.uint64) + offset)
                parts_sig.append(flat_sig)
                slices.append((day, start, total, n_jobs))
                offset += n_jobs
                state["days"][day] = n_jobs
            grown = np.zeros(total, dtype=dtype)
            n_old = len(table)
            grown[:n_old] = table
            if total > n_old:
                grown["job"][n_old:] = np.concatenate(parts_job)
                grown["sig"][n_old:] = np.concatenate(parts_sig)
            table = grown
            state["table"] = table
            state["offset"] = offset
        return table, list(state["slices"])

    # -- access --------------------------------------------------------------
    def job(self, job_id: str) -> JobRecord:
        found = self._table.find(job_id)
        if found is None:
            raise KeyError(f"unknown job {job_id!r}")
        day, row = found
        return self._table.chunk(day).record(row)

    def templates(self) -> dict[str, list[JobRecord]]:
        grouped: dict[str, list[JobRecord]] = {
            sig: [] for sig in self._template_stats
        }
        for record in self.records:
            grouped[record.template].append(record)
        return grouped

    def instances_of(self, template: str) -> list[JobRecord]:
        if template not in self._template_stats:
            return []
        return [r for r in self.records if r.template == template]

    def by_day(self, day: int) -> list[JobRecord]:
        """Records of one day, in ingestion order (day-indexed: no scan)."""
        if day not in self._table.day_counts:
            return []
        return self._table.chunk(day).records()

    def days(self) -> list[int]:
        if self._days_cache is None:
            self._days_cache = sorted(self._table.day_counts)
        return list(self._days_cache)

    def dependency_graph(self) -> nx.DiGraph:
        """Job-level DAG: edge producer -> consumer."""
        import networkx as nx

        graph = nx.DiGraph()
        for job_id, deps in self._table.iter_id_deps():
            graph.add_node(job_id)
            for dep in deps:
                graph.add_edge(dep, job_id)
        return graph

    # -- operations ----------------------------------------------------------
    @property
    def memory_budget_bytes(self) -> int | None:
        return self._table.memory_budget_bytes

    @property
    def spill_dir(self) -> Path | None:
        return self._table.spill_dir

    def flush(self) -> None:
        """Write each hot chunk's current version if not on disk yet."""
        self._table.flush()

    def chunk_stats(self) -> dict:
        """Hot/spilled chunk counts and byte estimates (ops surface)."""
        return self._table.stats()

    # -- pickling ------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # The whole-history sig block is derived and can be tens of MB;
        # checkpoints rebuild it lazily on the first analyze.
        state["_sig_table_cache"] = {}
        del state["_recurring_instances"]
        del state["_sharing_folds"]
        if self._table.spill_dir is not None:
            # Closed days live in the facts files: only the open day's
            # template counts and summaries travel inline.  A closed
            # day's summary computed after its facts were written is
            # recomputed on demand.
            open_day = self._table.open_day
            state["_template_stats"] = None
            state["_day_summaries"] = {
                k: v for k, v in self._day_summaries.items() if k[0] == open_day
            }
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_sig_table_cache", {})
        self._sharing_folds = {}
        self._recurring_instances = sum(
            count
            for days, count in (self._template_stats or {}).values()
            if len(days) > 1
        )
        if self._template_stats is None:
            inline_summaries = self._day_summaries
            self._template_stats, self._day_summaries = {}, {}
            for name in self._fact_files:
                day, templates, summaries = self._table._read_pickle(name)
                for template, count in templates.items():
                    self._fold_template(template, day, count)
                self._day_summaries.update(summaries)
            for template, count in self._open_templates.items():
                self._fold_template(template, self._table.open_day, count)
            self._day_summaries.update(inline_summaries)
