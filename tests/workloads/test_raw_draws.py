"""Property: raw-block draws replay numpy's scalar calls exactly.

``_RawDraws`` redoes ``Generator.random()`` and ``integers(0, m)`` in
Python over blocks of raw PCG64 output.  Against a twin generator making
the scalar calls, every drawn value and the final ``bit_generator.state``
(including the half-word buffer) must be equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.scope import ScopeWorkloadGenerator, _RawDraws

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
    want = [
        scalar.random() if m == 0 else int(scalar.integers(0, m)) for m in ops
    ]
    with _RawDraws(raw, block=block) as draws:
        got = [draws.random() if m == 0 else draws.integers(m) for m in ops]
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


def test_unit_range_draws_nothing():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with _RawDraws(rng) as draws:
        assert [draws.integers(1) for _ in range(5)] == [0] * 5
    assert rng.bit_generator.state == before


def test_out_of_range_refused():
    with _RawDraws(np.random.default_rng(0)) as draws:
        for m in (0, -3, 2**32 + 1):
            with pytest.raises(ValueError, match="range"):
                draws.integers(m)


def test_non_pcg64_bit_generator_refused():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="PCG64"):
        _RawDraws(rng)
    generator = ScopeWorkloadGenerator(rng=np.random.Generator(np.random.Philox(0)))
    with pytest.raises(TypeError, match="PCG64"):
        generator.day_batch(0)
