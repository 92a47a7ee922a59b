"""SCOPE-like recurring job and pipeline trace generator.

Section 4.2's learning opportunities all come from workload structure:
"over 60% of jobs are recurring (involving periodic runs of scripts with
the same operations but different predicate values), and nearly 40% of
daily jobs share common subexpressions with at least one other job", and
"70% of daily SCOPE jobs have inter-job dependencies".

The generator is calibrated to those statistics:

- *recurring templates* re-run daily with drifting predicate literals
  (same template signature, new strict signature),
- a pool of *shared fragments* — day-parameterized subplans whose
  literals depend only on (fragment, day) — appears inside several
  templates, so jobs within a day share strictly-equal subexpressions,
- templates are chained into *pipelines*: a consumer scans the derived
  output table of its producer and depends on the producer's job,
- the remainder are *ad-hoc* one-off jobs with random structure.
"""

from __future__ import annotations

import gc
import math
from binascii import hexlify
from dataclasses import dataclass, field
from functools import lru_cache
from hashlib import sha1
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from repro.engine import (
    Aggregate,
    Catalog,
    ColumnStats,
    DefaultCardinalityEstimator,
    Expression,
    Filter,
    Join,
    Predicate,
    Project,
    Scan,
    TableDef,
)
from repro.engine.signatures import _SIG_ATTR, PlanSignatures, _digest
from repro.parallel import DEFAULT_N_SHARDS, shard_items

if TYPE_CHECKING:
    from repro.core.peregrine.repository import JobBatch, StrColumn

HOURS_PER_DAY = 24.0


def _job_shard_key(job: "Job") -> str:
    """Stable shard key: template for recurring jobs, job id for ad-hoc.

    Keying recurring jobs by template keeps every instance of a template
    in one shard, so per-template analyses (candidate enumeration,
    micromodel training) never straddle a shard boundary.  Module-level
    so sharded job lists stay picklable for process pools.
    """
    if job.template_id is not None:
        return f"template:{job.template_id}"
    return f"job:{job.job_id}"


@dataclass
class Job:
    """A single submitted job (one plan, one submit time)."""

    job_id: str
    plan: Expression
    submit_hour: float
    template_id: int | None = None   # None marks an ad-hoc job
    pipeline_id: int | None = None
    params: dict[str, float] = field(default_factory=dict)
    depends_on: tuple[str, ...] = ()

    @property
    def is_recurring(self) -> bool:
        return self.template_id is not None

    @property
    def day(self) -> int:
        return int(self.submit_hour // HOURS_PER_DAY)


@dataclass
class Workload:
    """A multi-day trace of jobs plus the catalog they run against.

    ``by_day`` and ``shards`` return memoized tuples: the trace is
    immutable once built, so callers get zero-copy views instead of a
    fresh list per call (both sit in per-day fabric loops).
    """

    jobs: list[Job]
    catalog: Catalog
    n_days: int

    def __post_init__(self) -> None:
        self._day_cache: dict[int, tuple[Job, ...]] = {}
        self._shard_cache: dict[int, tuple[tuple[Job, ...], ...]] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_day_cache"] = {}
        state["_shard_cache"] = {}
        return state

    def __len__(self) -> int:
        return len(self.jobs)

    def by_day(self, day: int) -> tuple[Job, ...]:
        cached = self._day_cache.get(day)
        if cached is None:
            cached = tuple(j for j in self.jobs if j.day == day)
            self._day_cache[day] = cached
        return cached

    def by_template(self, template_id: int) -> list[Job]:
        return [j for j in self.jobs if j.template_id == template_id]

    def recurring_fraction(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.is_recurring for j in self.jobs) / len(self.jobs)

    def pipeline_fraction(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.pipeline_id is not None for j in self.jobs) / len(self.jobs)

    def dependency_fraction(self) -> float:
        """Fraction of jobs participating in an inter-job dependency."""
        if not self.jobs:
            return 0.0
        involved: set[str] = set()
        for job in self.jobs:
            if job.depends_on:
                involved.add(job.job_id)
                involved.update(job.depends_on)
        return len(involved) / len(self.jobs)

    def job(self, job_id: str) -> Job:
        for j in self.jobs:
            if j.job_id == job_id:
                return j
        raise KeyError(f"unknown job {job_id!r}")

    def shards(self, n_shards: int = DEFAULT_N_SHARDS) -> tuple[tuple[Job, ...], ...]:
        """Deterministic fan-out-ready partition of the trace.

        Shard membership depends only on each job's stable key (template
        id for recurring jobs, job id for ad-hoc) and the shard count —
        never on worker count or hash seed — so sharded analyses merge
        back identically on every run.  Submit order is preserved within
        each shard.  The assignment is memoized per shard count and
        returned as tuples — treat them as read-only views.
        """
        cached = self._shard_cache.get(n_shards)
        if cached is None:
            cached = tuple(
                tuple(shard)
                for shard in shard_items(
                    self.jobs, key=_job_shard_key, n_shards=n_shards
                )
            )
            self._shard_cache[n_shards] = cached
        return cached


@dataclass
class ScopeWorkloadConfig:
    """Calibration knobs (defaults match the paper's published fractions)."""

    n_recurring_templates: int = 30
    recurring_fraction: float = 0.65
    n_shared_fragments: int = 6
    shared_fragment_templates: float = 0.65  # templates embedding a fragment
    pipeline_fraction: float = 0.8          # templates that sit in pipelines
    pipeline_length: tuple[int, int] = (2, 4)
    adhoc_dependency_fraction: float = 0.5  # ad-hoc jobs reading pipeline output
    drift_per_day: float = 0.01             # predicate literal drift rate
    instances_per_template: int = 1         # daily runs per recurring template

    def __post_init__(self) -> None:
        if self.n_recurring_templates < 1:
            raise ValueError("n_recurring_templates must be >= 1")
        if self.instances_per_template < 1:
            raise ValueError("instances_per_template must be >= 1")
        for name in ("recurring_fraction", "shared_fragment_templates",
                     "pipeline_fraction", "adhoc_dependency_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        lo, hi = self.pipeline_length
        if lo < 2 or hi < lo:
            raise ValueError("pipeline_length must satisfy 2 <= lo <= hi")

    @classmethod
    def for_scale(cls, jobs_per_day: int, **overrides) -> "ScopeWorkloadConfig":
        """Calibrated config sized for roughly ``jobs_per_day`` daily jobs.

        Keeps the paper's recurring/pipeline/dependency fractions but
        scales the template catalog and per-template instance count so a
        single generated day lands near the requested size.  Template
        diversity is capped (structural variety, not volume, is what
        costs memory downstream), and the remaining volume comes from
        extra daily instances per template — matching how real SCOPE
        clusters get to 100k+ jobs/day from a few thousand scripts.
        """
        if jobs_per_day < 1:
            raise ValueError("jobs_per_day must be >= 1")
        fraction = overrides.get("recurring_fraction", cls.recurring_fraction)
        recurring = max(1, int(round(jobs_per_day * fraction)))
        overrides.setdefault(
            "n_recurring_templates", max(30, min(2000, recurring // 32))
        )
        overrides.setdefault(
            "instances_per_template",
            max(1, round(recurring / overrides["n_recurring_templates"])),
        )
        return cls(**overrides)


@dataclass
class _Fragment:
    """A shared subplan: literals depend only on (fragment, day)."""

    fragment_id: int
    table: str
    column: str
    base_value: float


#: Node kinds of a :class:`_RecurringScaffold`.
_SCAN, _DERIVED_SCAN, _FILTER, _JOIN, _AGGREGATE = range(5)


class _RecurringScaffold(NamedTuple):
    """Day-independent signature scaffolding for one recurring template.

    A template's plan keeps its shape every day; only its two predicate
    literals drift (SCOPE recurring jobs are "periodic runs of scripts
    with the same operations but different predicate values").  So all
    a day changes is the strict signature of each Filter node and of
    its ancestors; every template signature, every node size and the
    strict signature of each literal-free subtree are fixed, and are
    computed here once.

    ``nodes`` lists the plan in post-order, one
    ``(kind, arg, left, right, strict_raw, template_raw, size, prefix)``
    tuple per node:

    - ``arg`` is a Scan's table (a derived scan's upstream template id,
      its table name built fresh per plan as the constructor call did),
      or a Filter's or an Aggregate's column;
    - ``left``/``right`` index earlier nodes (the children), except
      that a Filter's ``right`` is its literal's slot (0: the
      fragment's, 1: the template's);
    - ``strict_raw`` is the raw 8-byte strict digest of a literal-free
      node, ``None`` where it changes daily;
    - ``prefix`` is the strict payload up to the literal (Filter) or the
      children (Join, Aggregate), for nodes re-hashed daily.
    """

    nodes: tuple[tuple, ...]
    template_raw: bytes   # raw template digest of the whole plan


class _Instance(NamedTuple):
    """One day's plan of a template, with what ingest reads of it."""

    plan: Expression
    params: dict
    strict_raw: bytes             # raw strict digest of the whole plan
    sig_raws: list[bytes]         # distinct strict digests, post-order
    sig_sizes: list[int]          # node count of each


@dataclass
class _Template:
    """A recurring script: fixed structure, day-parameterized literals."""

    template_id: int
    fragment: _Fragment | None
    base_table: str            # scanned when there is no fragment
    join_table: str | None
    filter_column: str
    filter_base_value: float
    group_column: str | None
    submit_hour_offset: float  # within-day submit time
    pipeline_id: int | None = None
    upstream_template: int | None = None  # producer in the pipeline
    output_table: str | None = None       # derived table this job writes

    def scaffold(self) -> _RecurringScaffold:
        """The plan's shape and fixed signatures (see
        :class:`_RecurringScaffold`); a pure function of the template."""
        nodes: list[tuple] = []
        # Per node: (strict sig or None, template sig, size).
        sigs: list[tuple[str | None, str, int]] = []

        def add(kind, arg, desc, children=(), literal=None,
                template_desc=None):
            strict_kids = [sigs[c][0] for c in children]
            template_kids = "|".join(sigs[c][1] for c in children)
            template = _digest(f"{template_desc or desc}({template_kids})")
            size = 1 + sum(sigs[c][2] for c in children)
            if literal is not None or None in strict_kids:
                strict = None
                prefix = desc if literal is not None else f"{desc}("
            else:
                strict = _digest(f"{desc}({'|'.join(strict_kids)})")
                prefix = None
            left, right = (tuple(children) + (-1, -1))[:2]
            if literal is not None:
                right = literal
            nodes.append((
                kind, arg, left, right,
                None if strict is None else bytes.fromhex(strict),
                bytes.fromhex(template), size, prefix,
            ))
            sigs.append((strict, template, size))
            return len(nodes) - 1

        def filt(child, column, slot):
            return add(
                _FILTER, column, f"Filter:{column}<=", (child,), literal=slot,
                template_desc=f"Filter:{column}<=?",
            )

        def fragment_filter():
            fragment = self.fragment
            scan = add(_SCAN, fragment.table, f"Scan:{fragment.table}")
            return filt(scan, fragment.column, 0)

        if self.upstream_template is not None:
            # Consumers read their producer's derived output table,
            # enriching it with the shared fragment when they have one.
            upstream = self.upstream_template
            core = add(_DERIVED_SCAN, upstream, f"Scan:out_t{upstream}")
            if self.fragment is not None:
                core = add(
                    _JOIN, None, "Join:key=key", (core, fragment_filter())
                )
        elif self.fragment is not None:
            core = fragment_filter()
        else:
            core = add(_SCAN, self.base_table, f"Scan:{self.base_table}")
        if self.join_table is not None:
            right = add(_SCAN, self.join_table, f"Scan:{self.join_table}")
            core = add(_JOIN, None, "Join:key=key", (core, right))
        core = filt(core, self.filter_column, 1)
        if self.group_column is not None:
            add(
                _AGGREGATE, self.group_column,
                f"Aggregate:{self.group_column}", (core,),
            )
        return _RecurringScaffold(tuple(nodes), nodes[-1][5])

    def instantiate(
        self, day: int, drift: float, scaffold: _RecurringScaffold
    ) -> _Instance:
        """The template's plan on ``day``: the one recurring-plan builder.

        Stamps the plan from ``scaffold`` (``self.scaffold()``, cached by
        the generator) and memoizes every node's signatures and size, as
        :func:`~repro.engine.signatures.signatures` and ``size`` would:
        only the Filter nodes and their ancestors are hashed, two to five
        SHA1 calls instead of a walk over the whole plan.  Nodes are
        filled through ``__dict__`` in field order, like
        :meth:`AdhocRecipe.build`, and every node gets its own strict and
        template strings (two equal signatures stay distinct objects), so
        the plan pickles exactly as the constructor-built, walked tree.
        """
        scale = 1.0 + drift * day
        value = self.filter_base_value * scale
        params = {"filter_value": value}
        literals = [None, value]
        if self.fragment is not None:
            literals[0] = params["fragment_value"] = (
                self.fragment.base_value * scale
            )
        built: list[Expression] = []
        stricts: list[str] = []
        raws: list[bytes] = []
        # ``PlanSignatures(strict, template)`` without its Python __new__.
        new_sigs = tuple.__new__
        for kind, arg, left, right, raw, template_raw, size, prefix in (
            scaffold.nodes
        ):
            if kind == _FILTER:
                literal = literals[right]
                pred = Predicate.__new__(Predicate)
                pd = pred.__dict__
                pd["column"] = arg
                pd["op"] = "<="
                pd["value"] = literal
                node = Filter.__new__(Filter)
                nd = node.__dict__
                nd["child"] = built[left]
                nd["predicates"] = (pred,)
                payload = f"{prefix}{literal!r}({stricts[left]})"
            elif kind == _JOIN:
                node = Join.__new__(Join)
                nd = node.__dict__
                nd["left"] = built[left]
                nd["right"] = built[right]
                nd["left_key"] = "key"
                nd["right_key"] = "key"
                payload = f"{prefix}{stricts[left]}|{stricts[right]})"
            elif kind == _AGGREGATE:
                node = Aggregate.__new__(Aggregate)
                nd = node.__dict__
                nd["child"] = built[left]
                nd["group_by"] = (arg,)
                payload = f"{prefix}{stricts[left]})"
            else:
                node = Scan.__new__(Scan)
                nd = node.__dict__
                nd["table"] = arg if kind == _SCAN else f"out_t{arg}"
            if raw is None:
                raw = sha1(payload.encode()).digest()[:8]
            strict = raw.hex()
            nd[_SIG_ATTR] = new_sigs(
                PlanSignatures, (strict, template_raw.hex())
            )
            nd["_memo_size"] = size
            built.append(node)
            stricts.append(strict)
            raws.append(raw)
        # ``enumerate_all_signatures``'s map: first node per strict sig.
        distinct: dict[bytes, int] = {}
        for raw, node_spec in zip(raws, scaffold.nodes):
            distinct.setdefault(raw, node_spec[6])
        return _Instance(
            built[-1], params, raws[-1], list(distinct),
            list(distinct.values()),
        )


@lru_cache(maxsize=4096)
def _scan_node(table: str, side: int) -> Scan:
    """One shared ``Scan`` per table and join side.

    Scans carry no literal, so every ad-hoc plan over a table reuses the
    same instance (and its memoized signatures); equality and hashing
    stay structural either way.  ``side`` 0 is the filtered input and 1
    the join's right input: a self-join keeps two distinct scan objects,
    since stage compilation keys nodes by identity and would otherwise
    fold both inputs into one scan stage.
    """
    return Scan(table)


class AdhocRecipe(NamedTuple):
    """The five draws that fix one ad-hoc plan.

    The fused day carries ad-hoc plans as recipes: a handful of the day's
    plans are ever read as trees, so :meth:`build` runs on first read.
    ``PlanPool`` in the Peregrine repository keeps a day's recipes as
    rows of one structured column and makes a recipe only to build it.
    """

    table: str
    column: str
    value: float
    join_table: str | None
    aggregate: bool

    def build(self) -> Expression:
        """The plan these draws describe: filter-scan, optionally joined
        to a second scan, capped by an aggregate or a project.

        The one ad-hoc plan builder.  Equivalent to building the tree
        with the dataclass constructors, but ~6x cheaper:
        frozen-dataclass ``__init__`` pays two ``object.__setattr__``
        calls per field, while filling ``__dict__`` directly (in field
        order, so pickles lay out identically) costs one dict store.
        """
        table, column, value, join_table, aggregate = self
        pred = Predicate.__new__(Predicate)
        pd = pred.__dict__
        pd["column"] = column
        pd["op"] = "<="
        pd["value"] = value
        filt = Filter.__new__(Filter)
        fd = filt.__dict__
        fd["child"] = _scan_node(table, 0)
        fd["predicates"] = (pred,)
        top: Expression = filt
        if join_table is not None:
            join = Join.__new__(Join)
            jd = join.__dict__
            jd["left"] = filt
            jd["right"] = _scan_node(join_table, 1)
            jd["left_key"] = "key"
            jd["right_key"] = "key"
            top = join
        if aggregate:
            root = Aggregate.__new__(Aggregate)
            rd = root.__dict__
            rd["child"] = top
            rd["group_by"] = (column,)
        else:
            root = Project.__new__(Project)
            rd = root.__dict__
            rd["child"] = top
            rd["columns"] = (column, "key")
        return root


#: ``Generator.random()``'s scale: the top 53 bits of an output, as a
#: double in [0, 1).
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
_LOW32 = 0xFFFFFFFF
#: Largest range a 32-bit bounded draw covers (numpy switches to a
#: 64-bit algorithm beyond it).
_MAX_RANGE32 = 1 << 32
#: ``random() < 0.5`` exactly when the raw output is below this: the
#: draw is the top 53 bits over 2**53, so it is under a half iff the
#: top bit is clear.
_HALF = 1 << 63
_HALF_U64 = np.uint64(_HALF)
_SHIFT11 = np.uint64(11)


class _RawDraws:
    """Blocks of raw PCG64 output, and the generator wound to match.

    Code that replays ``Generator.random()`` and ``integers(0, m)``
    calls from raw outputs (see :func:`_decode_adhoc`) takes words with
    :meth:`block`, then records in ``used``, ``has32`` and ``buf32``
    how many it consumed and the half-word buffer it ended with.
    Leaving the ``with`` block winds the generator to exactly where the
    scalar calls would have left it: the start state, ``advance`` by the
    words used, then the half-word buffer written back.  Nothing else
    may draw from the generator inside the block.
    """

    __slots__ = ("_bitgen", "_start", "used", "has32", "buf32")

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(
                "SCOPE generation draws from PCG64 output, got a "
                f"{type(bitgen).__name__} bit generator"
            )
        self._bitgen = bitgen
        self._start = bitgen.state
        self.has32: int = self._start["has_uint32"]
        self.buf32: int = self._start["uinteger"]
        self.used = 0

    def __enter__(self) -> "_RawDraws":
        return self

    def __exit__(self, *exc) -> None:
        bitgen = self._bitgen
        bitgen.state = self._start
        bitgen.advance(self.used)
        state = bitgen.state
        state["has_uint32"] = self.has32
        state["uinteger"] = self.buf32
        bitgen.state = state

    def block(self, n: int) -> np.ndarray:
        """The next ``n`` raw outputs (``uint64``)."""
        return self._bitgen.random_raw(n)


class _AdhocLayout(NamedTuple):
    """What an ad-hoc job can draw, as codes: fixed for a generator.

    Table codes are the base tables, then the pipeline producers' output
    tables (producer ``p`` is table ``n_base + p``).  Column codes index
    one flat list holding, per table, its non-key filter candidates (or
    its first column when it has none).  Name slots are the table codes,
    then ``len(tables)`` plus a column code; ``name_values`` numbers each
    slot's name by value, so equal names share a number.
    """

    n_base: int
    n_producers: int
    #: a raw output below this is a ``random()`` under
    #: ``adhoc_dependency_fraction``: ``(u >> 11) / 2**53 < f`` exactly
    #: when ``u >> 11 < ceil(f * 2**53)``.
    dep_threshold: int
    n_cands: list[int]          # per table: candidates drawn from
    col_base: list[int]         # per table: its first column code
    tables: list[TableDef]
    columns: list[ColumnStats]
    col_table: np.ndarray       # column code -> table code
    col_low: np.ndarray         # f8 per column: ``low``
    col_span: np.ndarray        # f8 per column: ``high - low``
    producer_hours: np.ndarray  # f8 per producer: its submit offset
    names: list[str]            # per name slot
    name_values: np.ndarray     # per name slot: the name's value number

    @classmethod
    def build(
        cls,
        base_tables: list[TableDef],
        producers: list[tuple[TableDef, float]],
        dependency_fraction: float,
    ) -> "_AdhocLayout":
        """The layout of ``base_tables`` and ``producers``, each producer
        as (output table, submit-hour offset)."""
        tables = list(base_tables) + [table for table, _ in producers]
        n_cands: list[int] = []
        col_base: list[int] = []
        columns: list[ColumnStats] = []
        col_table: list[int] = []
        for code, table in enumerate(tables):
            candidates = [c for c in table.columns if c.name != "key"]
            n_cands.append(len(candidates))
            col_base.append(len(columns))
            picks = candidates or [table.columns[0]]
            columns.extend(picks)
            col_table.extend([code] * len(picks))
        names = [t.name for t in tables] + [c.name for c in columns]
        values: dict[str, int] = {}
        return cls(
            n_base=len(base_tables),
            n_producers=len(producers),
            dep_threshold=math.ceil(dependency_fraction * 2.0**53) << 11,
            n_cands=n_cands,
            col_base=col_base,
            tables=tables,
            columns=columns,
            col_table=np.asarray(col_table, dtype=np.int64),
            col_low=np.asarray([c.low for c in columns], dtype=np.float64),
            col_span=np.asarray(
                [c.high - c.low for c in columns], dtype=np.float64
            ),
            producer_hours=np.asarray(
                [hour for _, hour in producers], dtype=np.float64
            ),
            names=names,
            name_values=np.asarray(
                [values.setdefault(name, len(values)) for name in names],
                dtype=np.int64,
            ),
        )


class _AdhocDraws(NamedTuple):
    """A day's ad-hoc draws as columns, one row per job in draw order.

    ``table`` and ``column`` are :class:`_AdhocLayout` codes, ``join``
    a base table code (-1: no join), ``producer`` the producer a job
    reads and depends on (-1: none).
    """

    table: np.ndarray       # i8
    column: np.ndarray      # i8
    join: np.ndarray        # i8
    aggregate: np.ndarray   # bool
    value: np.ndarray       # f8 predicate literal
    hour: np.ndarray        # f8 submit hour
    producer: np.ndarray    # i8


class _TailBlob(NamedTuple):
    """Job-id tails as zero-padded rows of one byte matrix.

    A day's job ids are the day prefix plus a day-independent tail, so a
    day's id column is a row gather plus one mask, not a string per job.
    """

    matrix: np.ndarray   # u1, (tails, widest tail)
    lens: np.ndarray     # i8 per tail

    @classmethod
    def of(cls, tails: list[str]) -> "_TailBlob":
        from repro.core.peregrine.repository import StrColumn

        fixed = StrColumn.from_strs(tails).fixed()
        return cls(
            fixed.view(np.uint8).reshape(len(tails), fixed.itemsize),
            np.fromiter(map(len, tails), dtype=np.int64, count=len(tails)),
        )

    def column(self, prefix: bytes, rows: np.ndarray) -> "StrColumn":
        """``prefix`` plus tail ``r`` for each ``r`` in ``rows``."""
        from repro.core.peregrine.repository import StrColumn

        lens = len(prefix) + self.lens[rows]
        width = len(prefix) + self.matrix.shape[1]
        matrix = np.empty((len(rows), width), dtype=np.uint8)
        matrix[:, :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
        matrix[:, len(prefix):] = self.matrix[rows]
        return StrColumn.from_buffers(
            matrix[np.arange(width) < lens[:, None]], np.cumsum(lens)
        )


class _DayLayout(NamedTuple):
    """The day-independent rows of a fused day.

    Recurring job rows are the templates in submit-hour order, each
    repeated ``instances_per_template`` times; ad-hoc rows follow.  Row
    ``r``'s job id is the day prefix plus tail ``r``.
    """

    templates: list[_Template]          # submit-hour order
    scaffolds: list[_RecurringScaffold]  # one per template
    rec_offsets: np.ndarray             # f8 hour offset per recurring row
    tails: _TailBlob                    # per row, recurring then ad-hoc
    rec_dep_src: np.ndarray             # i8 consumer rows ...
    rec_dep_dst: np.ndarray             # ... and the rows they depend on
    producer_rows: np.ndarray           # i8 per producer: its first row
    # Ad-hoc signature scaffolding.  An ad-hoc plan is a filter-scan,
    # optionally joined to a second scan, capped by an aggregate or a
    # project, so everything but the predicate literal is fixed by its
    # codes: the per-job strict digests are SHA1s over these pieces
    # (bytes in object arrays, so a day gathers them per job in C) and
    # the literal.
    table_scans: np.ndarray             # u8 Scan digest per table code
    scan_sigs: list[str]                # ... and as names
    filt_pres: np.ndarray               # per column code: Filter payload
    filt_posts: np.ndarray              # up to and after the literal
    filt_templates: list[str]           # Filter template sig per column
    join_posts: np.ndarray              # per base table: Join payload tail
    root_pres: np.ndarray               # per 2 * column + aggregate: root
                                        # payload up to its child's sig


class _ShapeTemplates:
    """Raw template digests of ad-hoc plan shapes, by shape code.

    A shape code packs a job's column code ``c``, join code ``j`` and
    aggregate flag ``a`` as ``((c * (n_base + 1) + j + 1) << 1) | a`` (the
    column code fixes the table); literals are masked in template
    signatures, so the code fixes the plan's.  Each is hashed on first
    sight, into one dense array over the catalog's shape space.
    """

    __slots__ = ("digests", "known")

    def __init__(self, n_shapes: int) -> None:
        self.digests = np.zeros(n_shapes, dtype=np.uint64)
        self.known = np.zeros(n_shapes, dtype=bool)


def _unit(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each raw output: ``(u >> 11) * 2**-53``."""
    return (words >> _SHIFT11).astype(np.float64) * _DOUBLE_SCALE


def _reject32(
    w: list[int], i: int, has32: int, buf32: int, m: int, prod: int
) -> tuple[int, int, int, int]:
    """The rare tail of numpy's 32-bit Lemire sampler: redraw while the
    product's low half is under ``2**32 % m``."""
    threshold = (_MAX_RANGE32 - m) % m
    while prod & _LOW32 < threshold:
        if has32:
            has32 = 0
            prod = buf32 * m
        else:
            u = w[i]
            i += 1
            has32 = 1
            buf32 = u >> 32
            prod = (u & _LOW32) * m
    return prod, i, has32, buf32


def _decode_adhoc(
    words: np.ndarray,
    has32: int,
    buf32: int,
    n: int,
    layout: _AdhocLayout,
    day_start: float,
) -> tuple[_AdhocDraws, int, int, int]:
    """Up to ``n`` ad-hoc jobs' draws, decoded from raw PCG64 outputs.

    A pure function of ``words`` and the half-word buffer the day starts
    with (``has32``, ``buf32``): the values and consumption of the
    scalar ``Generator`` calls the generator is pinned to (the golden
    day digests were captured from them), job by job —

    - ``submit_hour = day_start + 24 * random()``;
    - with producers, ``random() < adhoc_dependency_fraction`` picks a
      producer (``integers(n_producers)``) and a later start,
      ``day_start + min(23.9, hour + 0.5 + 3.5 * random())``, else a
      base table (``integers(n_base)``);
    - a filter column (``integers(m)`` over the table's ``m`` non-key
      columns; none drawn when ``m <= 1``);
    - ``value = low + (high - low) * random()``;
    - a join (``random() < 0.5``, then ``integers(n_base)``);
    - ``aggregate = random() < 0.5``.

    ``random()`` is ``(u >> 11) * 2**-53``; ``integers(m)`` is numpy's
    32-bit Lemire sampler over PCG64's half-word buffer: a 32-bit draw
    takes the buffered high half of the previous output when one is
    waiting, else the low half of a fresh output, buffering its high
    half (``m == 1`` draws nothing).  One pass over the words decides
    every branch, as table, column and join codes plus the index of each
    float draw's word; the floats are then array operations over those
    indices.  The two ``< 0.5`` tests compare the raw word with
    ``2**63`` and the dependency test with ``layout.dep_threshold``.

    When the words run out mid-job, decoding stops before that job.
    Returns the decoded jobs, the words they used, and the half-word
    buffer after them: the caller continues from ``words[used:]`` plus
    fresh outputs.
    """
    w = words.tolist()
    n_words = len(w)
    n_base = layout.n_base
    n_prod = layout.n_producers
    dep_threshold = layout.dep_threshold
    n_cands = layout.n_cands
    col_base = layout.col_base
    tables = [0] * n
    columns = [0] * n
    joins = [-1] * n
    hour_at = [0] * n
    dep_at = [-1] * n
    value_at = [0] * n
    agg_at = [0] * n
    i = done = 0
    try:
        for done in range(n):
            start, start_has32, start_buf32 = i, has32, buf32
            hour_at[done] = i
            i += 1
            dep = False
            if n_prod:
                dep = w[i] < dep_threshold
                i += 1
            m = n_prod if dep else n_base
            t = 0
            if m > 1:
                if has32:
                    has32 = 0
                    prod = buf32 * m
                else:
                    u = w[i]
                    i += 1
                    has32 = 1
                    buf32 = u >> 32
                    prod = (u & _LOW32) * m
                if prod & _LOW32 < m:
                    prod, i, has32, buf32 = _reject32(w, i, has32, buf32, m, prod)
                t = prod >> 32
            if dep:
                t += n_base
                dep_at[done] = i
                i += 1
            tables[done] = t
            m = n_cands[t]
            c = col_base[t]
            if m > 1:
                if has32:
                    has32 = 0
                    prod = buf32 * m
                else:
                    u = w[i]
                    i += 1
                    has32 = 1
                    buf32 = u >> 32
                    prod = (u & _LOW32) * m
                if prod & _LOW32 < m:
                    prod, i, has32, buf32 = _reject32(w, i, has32, buf32, m, prod)
                c += prod >> 32
            columns[done] = c
            value_at[done] = i
            if w[i + 1] < _HALF:
                i += 2
                m = n_base
                j = 0
                if m > 1:
                    if has32:
                        has32 = 0
                        prod = buf32 * m
                    else:
                        u = w[i]
                        i += 1
                        has32 = 1
                        buf32 = u >> 32
                        prod = (u & _LOW32) * m
                    if prod & _LOW32 < m:
                        prod, i, has32, buf32 = _reject32(
                            w, i, has32, buf32, m, prod
                        )
                    j = prod >> 32
                joins[done] = j
            else:
                i += 2
            agg_at[done] = i
            i += 1
            if i > n_words:
                raise IndexError
        else:
            done = n
    except IndexError:
        i, has32, buf32 = start, start_has32, start_buf32

    t = np.array(tables[:done], dtype=np.int64)
    c = np.array(columns[:done], dtype=np.int64)
    dep_word = np.array(dep_at[:done], dtype=np.int64)
    hour = day_start + 24.0 * _unit(words[hour_at[:done]])
    deps = np.flatnonzero(dep_word >= 0)
    producer = np.full(done, -1, dtype=np.int64)
    if len(deps):
        producer[deps] = t[deps] - n_base
        # A consumer cannot start before its producer ran.
        hour[deps] = day_start + np.minimum(
            23.9,
            layout.producer_hours[producer[deps]]
            + (0.5 + 3.5 * _unit(words[dep_word[deps]])),
        )
    draws = _AdhocDraws(
        table=t,
        column=c,
        join=np.array(joins[:done], dtype=np.int64),
        aggregate=words[agg_at[:done]] < _HALF_U64,
        value=layout.col_low[c] + layout.col_span[c] * _unit(
            words[value_at[:done]]
        ),
        hour=hour,
        producer=producer,
    )
    return draws, i, has32, buf32


def _generator_at(state: dict) -> np.random.Generator:
    """A generator positioned at a saved ``bit_generator.state``.

    The seed is a placeholder the state overwrites; passing one spares
    the OS-entropy read of an unseeded constructor.
    """
    bitgen = getattr(np.random, state["bit_generator"])(0)
    bitgen.state = state
    return np.random.Generator(bitgen)


class ScopeWorkloadGenerator:
    """Builds templates once, then stamps out daily jobs."""

    #: Row-count bounds for derived (pipeline output) tables.  Real
    #: pipeline stages filter/aggregate, so outputs stay bounded instead
    #: of compounding down the chain.
    _DERIVED_MIN_ROWS = 1_000
    _DERIVED_MAX_ROWS = 20_000_000

    @classmethod
    def _derived_columns(cls, n_rows: int) -> tuple[ColumnStats, ...]:
        """Columns every derived table exposes, key distincts scaled to size."""
        return (
            ColumnStats("key", distinct=max(1_000, n_rows // 2)),
            ColumnStats("a0", distinct=200, low=0, high=1000, skew=0.5),
            ColumnStats("a1", distinct=50, low=0, high=100),
        )

    def __init__(
        self,
        catalog: Catalog | None = None,
        config: ScopeWorkloadConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.config = config or ScopeWorkloadConfig()
        self._rng = np.random.default_rng(rng)
        self.catalog = catalog or Catalog.synthetic(n_tables=8, rng=self._rng)
        self._base_tables = self.catalog.tables()
        self._fragments = self._build_fragments()
        self.templates = self._build_templates()
        # Per-template plan scaffolds (see _Template.scaffold); with the
        # layouts below, derivable from the templates and dropped from
        # pickles (see __getstate__): checkpoints stay manifest-sized.
        self._scaffolds: dict[int, _RecurringScaffold] | None = {}
        self._register_derived_tables()
        self._templates_by_hour = sorted(
            self.templates, key=lambda t: t.submit_hour_offset
        )
        # Streaming state: the RNG position a fresh generator's first
        # ``generate()`` starts from, plus the position at the start of
        # every day already replayed — day-addressable random access.
        self._day_states: dict[int, dict] = {0: self._rng.bit_generator.state}
        self._day_layout: _DayLayout | None = None
        self._draw_layout: _AdhocLayout | None = None
        self._adhoc_shapes: _ShapeTemplates | None = None

    #: cache attributes dropped from pickles and rebuilt on first use.
    _LAZY_CACHES = ("_scaffolds", "_day_layout", "_draw_layout", "_adhoc_shapes")

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._LAZY_CACHES:
            state[name] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in self._LAZY_CACHES:
            self.__dict__[name] = None
        self._scaffolds = {}

    # -- construction --------------------------------------------------------
    def _random_table_rng(self, rng: np.random.Generator) -> TableDef:
        # Only base tables: derived pipeline outputs are never scanned by
        # templates other than their pipeline consumer.
        return self._base_tables[int(rng.integers(0, len(self._base_tables)))]

    def _random_table(self) -> TableDef:
        return self._random_table_rng(self._rng)

    def _random_fact_table(self) -> TableDef:
        """One of the largest base tables (the shared-log-scan pattern).

        Shared fragments model the expensive common computation of real
        SCOPE workloads — scans/filters over massive shared logs — so
        they draw from the top quartile of tables by row count.
        """
        ranked = sorted(self._base_tables, key=lambda t: -t.n_rows)
        top = ranked[: max(1, len(ranked) // 4)]
        return top[int(self._rng.integers(0, len(top)))]

    def _random_dim_table(self) -> TableDef:
        """One of the smaller base tables (typical join partners)."""
        ranked = sorted(self._base_tables, key=lambda t: t.n_rows)
        bottom = ranked[: max(1, 3 * len(ranked) // 4)]
        return bottom[int(self._rng.integers(0, len(bottom)))]

    def _random_filter_column_rng(
        self, rng: np.random.Generator, table: TableDef
    ) -> ColumnStats:
        candidates = [c for c in table.columns if c.name != "key"]
        if not candidates:
            return table.columns[0]
        return candidates[int(rng.integers(0, len(candidates)))]

    def _random_filter_column(self, table: TableDef) -> ColumnStats:
        return self._random_filter_column_rng(self._rng, table)

    def _build_fragments(self) -> list[_Fragment]:
        fragments = []
        for i in range(self.config.n_shared_fragments):
            table = self._random_fact_table()
            column = self._random_filter_column(table)
            fragments.append(
                _Fragment(
                    fragment_id=i,
                    table=table.name,
                    column=column.name,
                    base_value=float(
                        self._rng.uniform(column.low + 1, column.high)
                    ),
                )
            )
        return fragments

    def _build_templates(self) -> list[_Template]:
        cfg = self.config
        templates: list[_Template] = []
        for tid in range(cfg.n_recurring_templates):
            use_fragment = (
                self._fragments
                and self._rng.random() < cfg.shared_fragment_templates
            )
            fragment = (
                self._fragments[int(self._rng.integers(0, len(self._fragments)))]
                if use_fragment
                else None
            )
            base_table = self._random_table()
            anchor = (
                self.catalog.get(fragment.table) if fragment else base_table
            )
            filter_col = self._random_filter_column(anchor)
            join_table = (
                self._random_dim_table().name
                if self._rng.random() < 0.6
                else None
            )
            group_col = filter_col.name if self._rng.random() < 0.5 else None
            templates.append(
                _Template(
                    template_id=tid,
                    fragment=fragment,
                    base_table=base_table.name,
                    join_table=join_table,
                    filter_column=filter_col.name,
                    filter_base_value=float(
                        self._rng.uniform(filter_col.low + 1, filter_col.high)
                    ),
                    group_column=group_col,
                    submit_hour_offset=float(self._rng.uniform(0, 20)),
                )
            )
        self._wire_pipelines(templates)
        return templates

    def _wire_pipelines(self, templates: list[_Template]) -> None:
        """Chain a ``pipeline_fraction`` share of templates into pipelines."""
        cfg = self.config
        n_in_pipelines = int(round(cfg.pipeline_fraction * len(templates)))
        order = self._rng.permutation(len(templates))[:n_in_pipelines]
        cursor = 0
        pipeline_id = 0
        lo, hi = cfg.pipeline_length
        while cursor < len(order):
            length = int(self._rng.integers(lo, hi + 1))
            chain = [templates[i] for i in order[cursor : cursor + length]]
            if len(chain) < 2:
                break
            for position, template in enumerate(chain):
                template.pipeline_id = pipeline_id
                template.output_table = f"out_t{template.template_id}"
                if position > 0:
                    producer = chain[position - 1]
                    template.upstream_template = producer.template_id
                    # Consumers run after their producer within the day and
                    # filter on a column the derived table actually has.
                    template.submit_hour_offset = min(
                        23.0, producer.submit_hour_offset + 1.0
                    )
                    template.filter_column = "a0"
                    template.group_column = (
                        "a1" if template.group_column else None
                    )
                    template.join_table = None
            cursor += length
            pipeline_id += 1

    def _register_derived_tables(self) -> None:
        """Register pipeline output tables with plausible statistics."""
        estimator = DefaultCardinalityEstimator(self.catalog)
        # Producers first (template order is not topological, so iterate
        # until all derived tables resolve).
        pending = [t for t in self.templates if t.output_table is not None]
        for _ in range(len(pending) + 1):
            still_pending = []
            for template in pending:
                upstream = template.upstream_template
                if (
                    upstream is not None
                    and f"out_t{upstream}" not in self.catalog
                ):
                    still_pending.append(template)
                    continue
                plan = template.instantiate(
                    day=0, drift=0.0, scaffold=self._scaffold(template)
                ).plan
                rows = int(
                    np.clip(
                        estimator.estimate(plan),
                        self._DERIVED_MIN_ROWS,
                        self._DERIVED_MAX_ROWS,
                    )
                )
                self.catalog.add(
                    TableDef(
                        name=template.output_table,
                        n_rows=rows,
                        columns=self._derived_columns(rows),
                        row_bytes=120,
                    )
                )
            pending = still_pending
            if not pending:
                break

    # -- generation ----------------------------------------------------------
    @property
    def recurring_per_day(self) -> int:
        return len(self.templates) * self.config.instances_per_template

    @property
    def adhoc_per_day(self) -> int:
        cfg = self.config
        return int(
            round(
                self.recurring_per_day * (1.0 - cfg.recurring_fraction)
                / max(cfg.recurring_fraction, 1e-9)
            )
        )

    def generate(self, n_days: int = 7) -> Workload:
        """Stamp out ``n_days`` of jobs (recurring daily + ad-hoc filler).

        The days are :meth:`day_jobs` ``0..n_days-1``; ``self._rng`` is
        left at the start of day ``n_days``.
        """
        if n_days < 1:
            raise ValueError("n_days must be >= 1")
        jobs: list[Job] = []
        for day in range(n_days):
            jobs.extend(self.day_jobs(day))
        self._rng.bit_generator.state = self._day_states[n_days]
        return Workload(jobs=jobs, catalog=self.catalog, n_days=n_days)

    # -- streaming -----------------------------------------------------------
    def day_jobs(self, day: int) -> list[Job]:
        """One day's jobs in submit order, as ``Job`` objects.

        A view over one :meth:`day_batch` build for the consumers that
        need objects: recurring instances of a template share its plan
        and parameter dict, and ad-hoc plans are built from their
        recipes.  Never consumes ``self._rng``.
        """
        batch, refs = self._day_batch(day)
        templates = self._batch_layout().templates
        adhoc = [None] * self.adhoc_per_day
        template_ids = [t.template_id for t in templates] + adhoc
        pipeline_ids = [t.pipeline_id for t in templates] + adhoc
        deps = dict(batch.deps.items())
        plans, params = batch.plans, batch.params
        jobs: list[Job] = []
        for row, (job_id, hour, code, param_code, ref) in enumerate(zip(
            batch.ids.tolist(),
            batch.submit_hours.tolist(),
            batch.plan_codes.tolist(),
            batch.param_codes.tolist(),
            refs.tolist(),
        )):
            jobs.append(Job(
                job_id=job_id,
                plan=plans[code],
                submit_hour=hour,
                template_id=template_ids[ref],
                pipeline_id=pipeline_ids[ref],
                params=params[param_code],
                depends_on=deps.get(row, ()),
            ))
        return jobs

    def _replay_to(self, day: int) -> np.random.Generator:
        """An RNG positioned at the start of ``day``, caching boundaries.

        Intermediate days are advanced with :meth:`_skip_day` — the same
        draws as full generation (see :meth:`_adhoc_day_draws`) without
        building a single ``Job`` — so random access to day *d* costs
        O(draws), not O(objects).
        """
        start = max(d for d in self._day_states if d <= day)
        rng = _generator_at(self._day_states[start])
        for replay in range(start, day):
            self._skip_day(replay, rng)
            self._day_states.setdefault(replay + 1, rng.bit_generator.state)
        return rng

    def _skip_day(self, day: int, rng: np.random.Generator) -> None:
        """Advance ``rng`` past ``day`` without materializing its jobs.

        Recurring templates draw nothing at generation time, so a day's
        RNG consumption is exactly its ad-hoc draws.
        """
        self._adhoc_day_draws(rng, day, self.adhoc_per_day)

    def _id_suffix(self, template_id: int, instance: int) -> str:
        """Day-independent tail of a recurring job id."""
        if self.config.instances_per_template == 1:
            return f"t{template_id:03d}"
        return f"t{template_id:03d}-i{instance:03d}"

    def stream_days(self, n_days: int, start_day: int = 0) -> Iterator[list[Job]]:
        """Yield one day's job list at a time, never a full ``Workload``.

        ``list(stream_days(n))`` flattens to the same jobs as
        ``generate(n)`` at the same seed — the pinned equivalence the
        scale tests gate on — but peak memory is one day, not the trace.
        """
        if n_days < 1:
            raise ValueError("n_days must be >= 1")
        for day in range(start_day, start_day + n_days):
            yield self.day_jobs(day)

    def _adhoc_day_draws(
        self, rng: np.random.Generator, day: int, n: int
    ) -> _AdhocDraws:
        """Every random decision of a day's ``n`` ad-hoc jobs, as columns.

        This is the single source of truth for the ad-hoc RNG stream:
        the batch build (:meth:`day_batch`) and the replay skip
        (:meth:`_skip_day`) both consume ``rng`` through here, so both
        advance the generator identically — the invariant random day
        access rests on.  The draws are the ``Generator.random()`` and
        ``integers(0, m)`` calls of :func:`_decode_adhoc`, replayed from
        blocks of raw PCG64 output: the same values and the same end
        state as the scalar calls, without their per-call dispatch.
        """
        layout = self._adhoc_layout()
        day_start = day * HOURS_PER_DAY
        if not n:
            return _decode_adhoc(
                np.empty(0, dtype=np.uint64), 0, 0, 0, layout, day_start
            )[0]
        parts = []
        with _RawDraws(rng) as raw:
            # ~6 outputs per job.  A short block costs one more refill;
            # the cap keeps a million-job day to 64k outputs at a time.
            words = raw.block(min(7 * n + 16, 1 << 16))
            while True:
                part, used, raw.has32, raw.buf32 = _decode_adhoc(
                    words, raw.has32, raw.buf32, n, layout, day_start
                )
                raw.used += used
                parts.append(part)
                n -= len(part.hour)
                if not n:
                    break
                words = np.concatenate(
                    (words[used:], raw.block(min(7 * n + 16, 1 << 16)))
                )
        if len(parts) == 1:
            return parts[0]
        return _AdhocDraws._make(map(np.concatenate, zip(*parts)))

    def _adhoc_layout(self) -> _AdhocLayout:
        if self._draw_layout is None:
            producers = [t for t in self.templates if t.output_table is not None]
            self._draw_layout = _AdhocLayout.build(
                self._base_tables,
                [
                    (self.catalog.get(t.output_table), t.submit_hour_offset)
                    for t in producers
                ],
                self.config.adhoc_dependency_fraction,
            )
        return self._draw_layout

    # -- fused batch generation ----------------------------------------------
    def _scaffold(self, template: _Template) -> _RecurringScaffold:
        scaffold = self._scaffolds.get(template.template_id)
        if scaffold is None:
            scaffold = self._scaffolds[template.template_id] = (
                template.scaffold()
            )
        return scaffold

    def _batch_layout(self) -> _DayLayout:
        """The day-independent rows of a fused day (see :class:`_DayLayout`).

        A consumer instance depends on its producer's matching instance
        *iff* the producer comes earlier in by-hour order (equal-hour
        ties resolve by template id, so a chain wired "backwards" at the
        23.0 clamp yields no edge there).
        """
        if self._day_layout is None:
            instances = self.config.instances_per_template
            by_hour = self._templates_by_hour
            row_of = {t.template_id: j * instances for j, t in enumerate(by_hour)}
            dep_src: list[int] = []
            dep_dst: list[int] = []
            for template in by_hour:
                upstream = template.upstream_template
                if upstream is not None and row_of[upstream] < row_of[
                    template.template_id
                ]:
                    for k in range(instances):
                        dep_src.append(row_of[template.template_id] + k)
                        dep_dst.append(row_of[upstream] + k)
            tails = [
                self._id_suffix(t.template_id, k)
                for t in by_hour
                for k in range(instances)
            ] + [f"adhoc{k:03d}" for k in range(self.adhoc_per_day)]
            adhoc = self._adhoc_layout()
            scan_sigs = [_digest(f"Scan:{t.name}()") for t in adhoc.tables]
            columns = [c.name for c in adhoc.columns]
            col_scans = [scan_sigs[t] for t in adhoc.col_table.tolist()]
            self._day_layout = _DayLayout(
                templates=by_hour,
                scaffolds=[self._scaffold(t) for t in by_hour],
                rec_offsets=np.repeat(
                    np.asarray(
                        [t.submit_hour_offset for t in by_hour],
                        dtype=np.float64,
                    ),
                    instances,
                ),
                tails=_TailBlob.of(tails),
                rec_dep_src=np.asarray(dep_src, dtype=np.int64),
                rec_dep_dst=np.asarray(dep_dst, dtype=np.int64),
                producer_rows=np.asarray(
                    [
                        row_of[t.template_id]
                        for t in self.templates
                        if t.output_table is not None
                    ],
                    dtype=np.int64,
                ),
                table_scans=np.frombuffer(
                    bytes.fromhex("".join(scan_sigs)), dtype="<u8"
                ),
                scan_sigs=scan_sigs,
                filt_pres=np.array(
                    [f"Filter:{c}<=".encode() for c in columns], dtype=object
                ),
                filt_posts=np.array(
                    [f"({sig})".encode() for sig in col_scans], dtype=object
                ),
                filt_templates=[
                    _digest(f"Filter:{c}<=?({sig})")
                    for c, sig in zip(columns, col_scans)
                ],
                join_posts=np.array(
                    [f"|{sig})".encode() for sig in scan_sigs[:adhoc.n_base]],
                    dtype=object,
                ),
                root_pres=np.array(
                    [
                        f"{root}(".encode()
                        for c in columns
                        for root in (f"Project:{c},key", f"Aggregate:{c}")
                    ],
                    dtype=object,
                ),
            )
        return self._day_layout

    def _shape_templates(self, codes: np.ndarray) -> np.ndarray:
        """The raw template digest of each shape code (see
        :class:`_ShapeTemplates`), hashing shapes not seen before."""
        adhoc = self._adhoc_layout()
        if self._adhoc_shapes is None:
            self._adhoc_shapes = _ShapeTemplates(
                len(adhoc.columns) * (adhoc.n_base + 1) * 2
            )
        cache = self._adhoc_shapes
        missing = np.unique(codes[~cache.known[codes]])
        layout = self._batch_layout()
        for code in missing.tolist():
            rest, aggregate = divmod(code, 2)
            c, j = divmod(rest, adhoc.n_base + 1)
            top = layout.filt_templates[c]
            if j:
                top = _digest(f"Join:key=key({top}|{layout.scan_sigs[j - 1]})")
            column = adhoc.columns[c].name
            root = f"Aggregate:{column}" if aggregate else f"Project:{column},key"
            cache.digests[code] = int.from_bytes(
                bytes.fromhex(_digest(f"{root}({top})")), "little"
            )
        cache.known[missing] = True
        return cache.digests[codes]

    def day_batch(self, day: int) -> "JobBatch":
        """One day, fused straight into :class:`JobBatch` columns.

        Equal to ``JobBatch.from_jobs(self.day_jobs(day))`` — same
        columns, pools and interning order — but built without per-job
        ``Job`` objects, a Python sort or a signature walk: each
        recurring template's plan is stamped from its scaffold with only
        its literal nodes re-hashed, its instances repeat it as columns,
        and each ad-hoc plan costs 2–3 SHA1 calls over its decoded draw
        columns.  Ad-hoc plans stay recipe
        columns of the plan pool until read, signatures stay raw 8-byte
        digests, job ids one byte blob, and the signature codes one flat
        array with per-plan offsets.  Any day can be built in any order
        (shared day-state cache).
        """
        return self._day_batch(day)[0]

    def _day_batch(self, day: int) -> tuple["JobBatch", np.ndarray]:
        """:meth:`day_batch` plus each row's ref: ``r < len(templates)``
        is by-hour template ``r``, larger refs are ad-hoc jobs."""
        if day < 0:
            raise ValueError("day must be >= 0")
        rng = self._replay_to(day)
        # One day is a pure allocation burst of acyclic objects (frozen
        # plan trees, strings, arrays): pausing collection while it runs
        # saves the collector re-scanning a million young objects it can
        # never free (~30% of wall time at 1M jobs/day).
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            built = self._build_day_batch(day, rng)
        finally:
            if was_enabled:
                gc.enable()
        self._day_states.setdefault(day + 1, rng.bit_generator.state)
        return built

    def _build_day_batch(
        self, day: int, rng: np.random.Generator
    ) -> tuple["JobBatch", np.ndarray]:
        from repro.core.peregrine.repository import (
            DIGEST,
            DepsCSR,
            JobBatch,
            ParamPool,
            PlanPool,
        )

        cfg = self.config
        instances = cfg.instances_per_template
        prefix = f"d{day:03d}-".encode()
        layout = self._batch_layout()
        n_templates = len(layout.scaffolds)
        n_rec = n_templates * instances
        n_adhoc = self.adhoc_per_day

        # Per-ref pools in draw order (refs 0..T-1 are the recurring
        # plans, T..T+A-1 the ad-hoc plans, kept as recipe columns and
        # only built if something reads them).  Signatures stay raw
        # 8-byte digests: template and strict roots one per ref, and the
        # signature names and node sizes in one flat draw-order stream
        # with per-ref lengths; a single vectorized gather permutes them
        # to plan-code order below.
        ref_plans: list[Expression] = []
        ref_params: list[dict] = []
        ref_templates: list[bytes] = []
        ref_stricts: list[bytes] = []
        rec_names: list[bytes] = []
        rec_sizes: list[int] = []
        rec_lens: list[int] = []
        drift = cfg.drift_per_day
        for template, scaffold in zip(layout.templates, layout.scaffolds):
            plan, params, strict_raw, sig_raws, sig_sizes = (
                template.instantiate(day, drift, scaffold)
            )
            ref_plans.append(plan)
            ref_params.append(params)
            ref_templates.append(scaffold.template_raw)
            ref_stricts.append(strict_raw)
            rec_names.extend(sig_raws)
            rec_sizes.extend(sig_sizes)
            rec_lens.append(len(sig_raws))

        # Ad-hoc refs: the day's draws as columns (the RNG contract — see
        # :meth:`_adhoc_day_draws`), then per job only the 2–3 SHA1 calls
        # of its literal nodes, over payload pieces its codes gather: the
        # filter's, the join's (joined jobs only), then the root's.
        draws = self._adhoc_day_draws(rng, day, n_adhoc)
        joined = draws.join >= 0
        join_rows = np.flatnonzero(joined)
        two_scans = joined & (draws.join != draws.table)
        col = draws.column
        literals = (
            "\n".join(map(repr, draws.value.tolist())).encode().split(b"\n")
            if n_adhoc else []
        )
        _sha1 = sha1
        _hex = hexlify
        filts = [
            _sha1(pre + literal + post).digest()[:8]
            for pre, literal, post in zip(
                layout.filt_pres[col].tolist(),
                literals,
                layout.filt_posts[col].tolist(),
            )
        ]
        kids = np.array(filts, dtype=object)
        tops = [
            _sha1(b"Join:key=key(" + _hex(filt) + post).digest()[:8]
            for filt, post in zip(
                kids[join_rows].tolist(),
                layout.join_posts[draws.join[join_rows]].tolist(),
            )
        ]
        kids[join_rows] = np.array(tops, dtype=object)
        roots = [
            _sha1(pre + _hex(kid) + b")").digest()[:8]
            for pre, kid in zip(
                layout.root_pres[2 * col + draws.aggregate].tolist(),
                kids.tolist(),
            )
        ]
        shape_codes = (
            (col * (self._adhoc_layout().n_base + 1) + draws.join + 1) << 1
        ) | draws.aggregate

        # The ad-hoc signature stream in ``enumerate_all_signatures``'s
        # post-order: scan, filter, [joined scan,] [join,] root — a
        # self-join's second scan repeats the first and is not listed.
        lens_adhoc = 3 + joined + two_scans
        ends = np.cumsum(lens_adhoc)
        starts = ends - lens_adhoc
        last = ends - 1
        names_adhoc = np.empty(int(ends[-1]) if n_adhoc else 0, dtype=DIGEST)
        sizes_adhoc = np.empty(len(names_adhoc), dtype=np.uint16)
        names_adhoc[starts] = layout.table_scans[draws.table]
        sizes_adhoc[starts] = 1
        names_adhoc[starts + 1] = np.frombuffer(b"".join(filts), dtype=DIGEST)
        sizes_adhoc[starts + 1] = 2
        names_adhoc[last] = np.frombuffer(b"".join(roots), dtype=DIGEST)
        sizes_adhoc[last] = np.where(joined, 5, 3)
        at = last[joined] - 1
        names_adhoc[at] = np.frombuffer(b"".join(tops), dtype=DIGEST)
        sizes_adhoc[at] = 4
        at = np.flatnonzero(two_scans)
        names_adhoc[starts[at] + 2] = layout.table_scans[draws.join[at]]
        sizes_adhoc[starts[at] + 2] = 1

        # Stable sort by submit hour: equal-hour jobs keep draw order.
        rec_hours = layout.rec_offsets + day * HOURS_PER_DAY
        hours = np.concatenate([rec_hours, draws.hour]) if n_adhoc else rec_hours
        refs = np.concatenate(
            [
                np.repeat(np.arange(n_templates, dtype=np.int64), instances),
                np.arange(n_templates, n_templates + n_adhoc, dtype=np.int64),
            ]
        )
        order = np.argsort(hours, kind="stable")
        sorted_refs = refs[order]

        # Plan codes by first appearance in sorted order — the exact
        # ``plan_index.setdefault`` numbering of ``JobBatch.from_jobs``.
        uniq, first_idx, inverse = np.unique(
            sorted_refs, return_index=True, return_inverse=True
        )
        code_of_uniq = np.empty(len(uniq), dtype=np.uint32)
        appearance = np.argsort(first_idx, kind="stable")
        code_of_uniq[appearance] = np.arange(len(uniq), dtype=np.uint32)
        plan_codes = code_of_uniq[inverse].astype(np.uint32, copy=False)
        ref_order_arr = uniq[appearance]
        n_plans = len(ref_order_arr)
        code_of_ref = np.empty(n_templates + n_adhoc, dtype=np.int64)
        code_of_ref[ref_order_arr] = np.arange(n_plans)

        # Pools in plan-code order.  One params entry per plan
        # (``from_jobs`` keys params on the plan code, so codes and param
        # codes agree); only the recurring plans have any.
        rec_codes = code_of_ref[:n_templates]
        by_code = np.argsort(rec_codes).tolist()
        recurring = list(zip(rec_codes[by_code].tolist(), by_code))
        adhoc_codes = code_of_ref[n_templates:]
        by_code = np.argsort(adhoc_codes)
        names, recipes = self._recipe_rows(draws, by_code)
        plans = PlanPool.with_recipes(
            n_plans,
            {code: ref_plans[r] for code, r in recurring},
            adhoc_codes[by_code],
            names,
            recipes,
        )
        params = ParamPool(
            n_plans,
            {code: dict(ref_params[r]) for code, r in recurring if ref_params[r]},
        )
        template_digests = np.concatenate([
            np.frombuffer(b"".join(ref_templates), dtype=DIGEST),
            self._shape_templates(shape_codes),
        ])[ref_order_arr]
        strict_digests = np.frombuffer(
            b"".join(ref_stricts + roots), dtype=DIGEST
        )[ref_order_arr]

        # Signature interning in first-sighting order across plans — one
        # gather permutes the draw-order name stream to plan-code order,
        # then ``np.unique`` over the raw digests plus an appearance-rank
        # remap replaces a million dict probes with a handful of array
        # ops.  Raw 8-byte digests are bijective with the 16-hex-char
        # names, so dedup runs on a uint64 view and the pool stays
        # digests: names are hexed only when read.
        lens_draw = np.concatenate(
            [np.asarray(rec_lens, dtype=np.int64), lens_adhoc]
        )
        offs_draw = np.concatenate(([0], np.cumsum(lens_draw)))[:-1]
        flat_draw = np.concatenate(
            [np.frombuffer(b"".join(rec_names), dtype=DIGEST), names_adhoc]
        )
        sizes_draw = np.concatenate(
            [np.asarray(rec_sizes, dtype=np.uint16), sizes_adhoc]
        )
        lens_sorted = lens_draw[ref_order_arr]
        total = int(lens_sorted.sum())
        seg_base = np.repeat(np.cumsum(lens_sorted) - lens_sorted, lens_sorted)
        gather = (
            np.repeat(offs_draw[ref_order_arr], lens_sorted)
            + np.arange(total, dtype=np.int64)
            - seg_base
        )
        flat_sorted = flat_draw[gather]
        uniq_names, name_first, name_inverse = np.unique(
            flat_sorted, return_index=True, return_inverse=True
        )
        name_rank = np.argsort(name_first, kind="stable")
        sig_code_of = np.empty(len(uniq_names), dtype=np.uint32)
        sig_code_of[name_rank] = np.arange(len(uniq_names), dtype=np.uint32)
        codes_flat = sig_code_of[name_inverse].astype(np.uint32, copy=False)
        sig_offsets = np.zeros(len(lens_sorted) + 1, dtype=np.int64)
        np.cumsum(lens_sorted, out=sig_offsets[1:])

        # Dependencies: each consumer row and the tail of the one job it
        # depends on (a producer's matching instance, or an ad-hoc
        # consumer's producer's first job), in row order.
        row_of = np.empty(len(order), dtype=np.int64)
        row_of[order] = np.arange(len(order))
        consumers = np.flatnonzero(draws.producer >= 0)
        dep_rows = row_of[
            np.concatenate([layout.rec_dep_src, n_rec + consumers])
        ]
        dep_tails = np.concatenate([
            layout.rec_dep_dst,
            layout.producer_rows[draws.producer[consumers]],
        ])
        by_row = np.argsort(dep_rows, kind="stable")
        batch = JobBatch(
            day=day,
            ids=layout.tails.column(prefix, order),
            submit_hours=hours[order],
            plan_codes=plan_codes,
            param_codes=plan_codes.copy(),
            plans=plans,
            template_digests=template_digests,
            strict_digests=strict_digests,
            sig_codes=codes_flat,
            sig_offsets=sig_offsets,
            sig_digests=uniq_names[name_rank],
            sig_sizes=sizes_draw[gather[name_first[name_rank]]],
            params=params,
            deps=DepsCSR.from_columns(
                dep_rows[by_row],
                np.arange(1, len(by_row) + 1),
                layout.tails.column(prefix, dep_tails[by_row]),
            ),
        )
        return batch, sorted_refs

    def _recipe_rows(
        self, draws: _AdhocDraws, by_code: np.ndarray
    ) -> tuple[list[str], np.ndarray]:
        """The ad-hoc recipes in plan-code order, as ``PlanPool`` rows.

        Names intern in code order, each recipe's table, column and join
        table in turn (``dict.fromkeys`` order, first object kept), as
        :class:`~repro.core.peregrine.repository.PlanPool` interns a list.
        """
        from repro.core.peregrine.repository import _RECIPE

        layout = self._adhoc_layout()
        slots = np.stack(
            [
                draws.table[by_code],
                len(layout.tables) + draws.column[by_code],
                draws.join[by_code],
            ],
            axis=1,
        ).ravel()
        named = np.flatnonzero(slots >= 0)
        values, first, inverse = np.unique(
            layout.name_values[slots[named]],
            return_index=True,
            return_inverse=True,
        )
        rank = np.argsort(first, kind="stable")
        code_of_value = np.empty(len(values), dtype=np.int32)
        code_of_value[rank] = np.arange(len(values), dtype=np.int32)
        coded = np.full(len(slots), -1, dtype=np.int32)
        coded[named] = code_of_value[inverse]
        coded = coded.reshape(-1, 3)
        rows = np.zeros(len(by_code), dtype=_RECIPE)
        rows["table"] = coded[:, 0]
        rows["column"] = coded[:, 1]
        rows["join"] = coded[:, 2]
        rows["value"] = draws.value[by_code]
        rows["aggregate"] = draws.aggregate[by_code]
        names = [layout.names[s] for s in slots[named[first[rank]]].tolist()]
        return names, rows
