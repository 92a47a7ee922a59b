"""Property: the ad-hoc decode replays numpy's scalar calls exactly.

:func:`_decode_adhoc` decodes a day's ad-hoc draws from raw PCG64
outputs in one pass.  The reference here is the per-job loop it
replaced, making ``Generator.random()`` and ``integers(0, m)`` calls on
:class:`ScalarDraws` — numpy's arithmetic over the same raw outputs,
itself checked against a twin generator making the scalar calls (every
value and the final ``bit_generator.state``, half-word buffer included).
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ColumnStats, TableDef
from repro.workloads.scope import (
    HOURS_PER_DAY,
    ScopeWorkloadConfig,
    ScopeWorkloadGenerator,
    _AdhocLayout,
    _decode_adhoc,
    _RawDraws,
)

_LOW32 = 0xFFFFFFFF


class ScalarDraws:
    """``Generator.random()`` and ``integers(0, m)`` over raw outputs.

    Consumes ``words`` one output at a time (``StopIteration`` when they
    run out) exactly as numpy's C code does: ``random()`` is
    ``(u >> 11) * 2**-53``; ``integers(m)`` is the 32-bit Lemire
    rejection sampler over PCG64's half-word buffer (``has32``,
    ``buf32``), and ``m == 1`` draws nothing.
    """

    def __init__(self, words, has32: int, buf32: int) -> None:
        self._words = iter(words)
        self.used = 0
        self.has32 = has32
        self.buf32 = buf32

    def _next(self) -> int:
        u = next(self._words)
        self.used += 1
        return u

    def random(self) -> float:
        return (self._next() >> 11) * (1.0 / 9007199254740992.0)

    def _next32(self) -> int:
        if self.has32:
            self.has32 = 0
            return self.buf32
        u = self._next()
        self.has32 = 1
        self.buf32 = u >> 32
        return u & _LOW32

    def integers(self, m: int) -> int:
        if m == 1:
            return 0
        prod = self._next32() * m
        if prod & _LOW32 < m:
            threshold = ((1 << 32) - m) % m
            while prod & _LOW32 < threshold:
                prod = self._next32() * m
        return prod >> 32


# ---------------------------------------------------------------------------
# the reference against numpy
# ---------------------------------------------------------------------------

#: 0 stands for a ``random()`` call, anything else for ``integers(0, m)``.
RANGES = st.one_of(
    st.sampled_from((0, 1, 2, 3, 7, 2**31 + 1, 2**32 - 1)),
    st.integers(1, 32).map(lambda k: 2**k),
)


def _twins(seed: int, buffered: bool):
    twins = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        if buffered:
            # One 32-bit draw leaves the high half of its output buffered.
            rng.integers(0, 7)
        assert rng.bit_generator.state["has_uint32"] == int(buffered)
        twins.append(rng)
    return twins


def _replay(ops, scalar: np.random.Generator, raw: np.random.Generator, block):
    """The scalar calls on ``scalar``; the reference over raw blocks of
    ``raw``, winding it as the decode path does (``_RawDraws``)."""
    want = [
        scalar.random() if m == 0 else int(scalar.integers(0, m)) for m in ops
    ]
    with _RawDraws(raw) as blocks:
        words = chain.from_iterable(
            iter(lambda: blocks.block(block).tolist(), None)
        )
        draws = ScalarDraws(words, blocks.has32, blocks.buf32)
        got = [draws.random() if m == 0 else draws.integers(m) for m in ops]
        blocks.used, blocks.has32, blocks.buf32 = (
            draws.used, draws.has32, draws.buf32
        )
    return want, got


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    buffered=st.booleans(),
    ops=st.lists(RANGES, max_size=80),
    block=st.integers(1, 96),
)
def test_draws_and_end_state_match_scalar_calls(seed, buffered, ops, block):
    scalar, raw = _twins(seed, buffered)
    want, got = _replay(ops, scalar, raw, block)
    assert got == want
    assert raw.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("buffered", [False, True])
def test_sequence_longer_than_one_block_refills(buffered):
    ops = [0, 7, 1, 2**32 - 1, 0, 3, 2**31 + 1, 2] * 40
    scalar, raw = _twins(11, buffered)
    want, got = _replay(ops, scalar, raw, block=16)
    assert got == want
    assert raw.bit_generator.state == scalar.bit_generator.state


def test_non_pcg64_bit_generator_refused():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="PCG64"):
        _RawDraws(rng)
    generator = ScopeWorkloadGenerator(rng=np.random.Generator(np.random.Philox(0)))
    with pytest.raises(TypeError, match="PCG64"):
        generator.day_batch(0)


# ---------------------------------------------------------------------------
# the decode against the reference
# ---------------------------------------------------------------------------


def reference_jobs(
    words, has32, buf32, n, layout: _AdhocLayout, fraction, day_start
):
    """The per-job draw loop the decode replaced, over ``ScalarDraws``,
    with ``random() < fraction`` as the dependency test.

    Returns one ``(table, column, value, join_table, aggregate,
    submit_hour, producer)`` tuple per job that the words cover, and the
    ``(used, has32, buf32)`` position after the last of them.
    """
    base = layout.tables[:layout.n_base]
    producers = list(zip(
        layout.tables[layout.n_base:],
        layout.producer_hours.tolist(),
    ))
    draws = ScalarDraws(words, has32, buf32)
    jobs = []
    position = (0, has32, buf32)
    try:
        for _ in range(n):
            producer = -1
            submit_hour = day_start + 24.0 * draws.random()
            if producers and draws.random() < fraction:
                producer = draws.integers(len(producers))
                table, producer_hour = producers[producer]
                submit_hour = day_start + min(
                    23.9, producer_hour + (0.5 + 3.5 * draws.random())
                )
            else:
                table = base[draws.integers(len(base))]
            candidates = [c for c in table.columns if c.name != "key"]
            if candidates:
                column = candidates[draws.integers(len(candidates))]
            else:
                column = table.columns[0]
            value = column.low + (column.high - column.low) * draws.random()
            join_table = (
                base[draws.integers(len(base))].name
                if draws.random() < 0.5
                else None
            )
            aggregate = draws.random() < 0.5
            jobs.append((
                table.name, column.name, value, join_table, aggregate,
                submit_hour, producer,
            ))
            position = (draws.used, draws.has32, draws.buf32)
    except StopIteration:
        pass
    return jobs, position


def decoded_jobs(draws, layout: _AdhocLayout) -> list[tuple]:
    tables, columns = layout.tables, layout.columns
    return [
        (
            tables[t].name, columns[c].name, value,
            tables[j].name if j >= 0 else None, aggregate, hour, producer,
        )
        for t, c, value, j, aggregate, hour, producer in zip(
            draws.table.tolist(), draws.column.tolist(), draws.value.tolist(),
            draws.join.tolist(), draws.aggregate.tolist(),
            draws.hour.tolist(), draws.producer.tolist(),
        )
    ]


def _table(name: str, n_candidates: int) -> TableDef:
    """A table with a key column and ``n_candidates`` filter columns."""
    columns = [ColumnStats("key", distinct=10)] + [
        ColumnStats(f"a{j}", distinct=5, low=float(j), high=10.0 + 7 * j)
        for j in range(n_candidates)
    ]
    return TableDef(name=name, n_rows=1000, columns=tuple(columns))


@st.composite
def layouts(draw):
    """Catalogs covering no producers, tables with only a key column
    (``n_candidates == 0``) and single candidates (``m == 1``)."""
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    base = [_table(f"t{i}", n) for i, n in enumerate(counts)]
    producers = [
        (_table(f"out_t{i}", n), hour)
        for i, (n, hour) in enumerate(draw(st.lists(
            st.tuples(st.integers(0, 3), st.floats(0.0, 23.0)), max_size=3,
        )))
    ]
    fraction = draw(st.one_of(
        st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0),
    ))
    return _AdhocLayout.build(base, producers, fraction), fraction


#: Raw outputs biased to the edges: a zero half makes Lemire's product
#: zero, which rejects for every ``m`` that is not a power of two.
WORDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1).map(lambda x: x << 32),
    st.sampled_from((0, 2**63 - 1, 2**63, 2**64 - 1)),
)


def _check(words, has32, buf32, n, layout, fraction, day, cut=None):
    """Decode ``words`` (in two calls when ``cut`` is given, resuming
    from the first call's position) and compare with the reference."""
    day_start = day * HOURS_PER_DAY
    want, position = reference_jobs(
        words, has32, buf32, n, layout, fraction, day_start
    )
    arr = np.asarray(words, dtype=np.uint64)
    head = arr if cut is None else arr[:cut]
    draws, used, h, b = _decode_adhoc(head, has32, buf32, n, layout, day_start)
    got = decoded_jobs(draws, layout)
    if cut is not None:
        rest, used2, h, b = _decode_adhoc(
            arr[used:], h, b, n - len(got), layout, day_start
        )
        got += decoded_jobs(rest, layout)
        used += used2
    assert got == want
    assert (used, h, b) == position


@settings(max_examples=300, deadline=None)
@given(
    layout=layouts(),
    words=st.lists(WORDS, max_size=120),
    has32=st.integers(0, 1),
    buf32=st.integers(0, _LOW32),
    n=st.integers(0, 25),
    day=st.integers(0, 40),
)
def test_decode_matches_scalar_reference(layout, words, has32, buf32, n, day):
    layout, fraction = layout
    _check(words, has32, buf32, n, layout, fraction, day)


@settings(max_examples=150, deadline=None)
@given(
    layout=layouts(),
    words=st.lists(WORDS, min_size=1, max_size=120),
    has32=st.integers(0, 1),
    buf32=st.integers(0, _LOW32),
    n=st.integers(1, 25),
    cut=st.floats(0.0, 1.0),
)
def test_decode_resumes_after_a_block_refill(layout, words, has32, buf32, n, cut):
    layout, fraction = layout
    _check(words, has32, buf32, n, layout, fraction, 3, int(cut * len(words)))


def test_lemire_rejection_branch():
    """``m = 3`` rejects a zero product (``2**32 % 3 == 1``): the job's
    table draw takes the next half-words until one is accepted."""
    layout = _AdhocLayout.build([_table(f"t{i}", 2) for i in range(3)], [], 0.5)
    rejected = [0, 0]           # hour, then a word whose halves are 0, 0
    words = rejected + [2**63 + 5, 7 << 32, 9, 2**63, 2**63 + 1]
    draws, used, _h, _b = _decode_adhoc(
        np.asarray(words, dtype=np.uint64), 0, 0, 1, layout, 0.0
    )
    want, position = reference_jobs(words, 0, 0, 1, layout, 0.5, 0.0)
    assert decoded_jobs(draws, layout) == want
    assert used == position[0] and used > 5


def test_unit_range_draws_nothing():
    """One base table with one candidate column and no producers: the
    table and column draws take no output, so each job uses exactly its
    four ``random()`` outputs (it never joins) and leaves the half-word
    buffer as it found it."""
    layout = _AdhocLayout.build([_table("t0", 1)], [], 0.5)
    words = [1 << 63] * 40      # never joins: ``random() >= 0.5``
    draws, used, h, b = _decode_adhoc(
        np.asarray(words, dtype=np.uint64), 1, 1234, 10, layout, 0.0
    )
    assert (len(draws.hour), used, h, b) == (10, 40, 1, 1234)
    draws, used, h, b = _decode_adhoc(
        np.asarray(words, dtype=np.uint64), 0, 0, 10, layout, 0.0
    )
    assert (used, h, b) == (40, 0, 0)


@pytest.mark.parametrize("fraction", [0.1, 0.3, 0.5, 0.7, 1 / 3, 1e-300, 1.0])
def test_dependency_threshold_is_exact(fraction):
    """``u < dep_threshold`` iff ``random() < fraction``, at the edge."""
    layout = _AdhocLayout.build([_table("t0", 1)], [], fraction)
    edge = layout.dep_threshold
    for u in (edge - 2049, edge - 2048, edge - 1, edge, edge + 2047, edge + 2048):
        if 0 <= u < 2**64:
            assert (u < edge) == ((u >> 11) * 2.0**-53 < fraction)


def test_day_draws_refill_and_wind_like_scalar_calls():
    """A day needing more than one 64k-output block: ``_adhoc_day_draws``
    refills mid-day and leaves the generator where the reference's
    scalar calls over a twin stream leave it."""
    gen = ScopeWorkloadGenerator(rng=5, config=ScopeWorkloadConfig.for_scale(30000))
    n = gen.adhoc_per_day
    assert 7 * n + 16 > 1 << 16
    rng = gen._replay_to(0)
    twin = np.random.default_rng(5)
    twin.bit_generator.state = rng.bit_generator.state
    draws = gen._adhoc_day_draws(rng, 0, n)
    layout = gen._adhoc_layout()
    with _RawDraws(twin) as blocks:
        words = blocks.block(12 * n)
        want, (used, has32, buf32) = reference_jobs(
            words.tolist(), blocks.has32, blocks.buf32, n, layout,
            gen.config.adhoc_dependency_fraction, 0.0,
        )
        blocks.used, blocks.has32, blocks.buf32 = used, has32, buf32
    assert len(want) == n
    assert decoded_jobs(draws, layout) == want
    assert rng.bit_generator.state == twin.bit_generator.state
