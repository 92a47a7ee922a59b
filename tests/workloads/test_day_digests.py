"""Pin: generated SCOPE days match golden digests, not just each other.

``day_batch``, ``day_jobs``, ``generate`` and the replay skip all draw
through one function, so twin-vs-twin tests (``test_day_batch``) cannot
see a bug in the draws themselves.  These digests were captured from
the generator before the ad-hoc draws moved onto raw PCG64 blocks; any
change to a generated world shows up here as a changed day hash or RNG
state.
The pickle digests were captured before recurring plans were stamped
from per-template scaffolds and the ad-hoc draws were decoded as
columns.

Per (jobs/day, seed) pair the file holds, for days 0..2:

- a blake2b hash of every ``day_batch`` column, plans hashed by ``repr``
  (pickles of built plans carry memoized signatures, so their bytes
  depend on what was read);
- a blake2b hash of ``pickle.dumps(day_batch(d), protocol=4)``: the
  ``repr`` hash above misses what only the bytes show — the ``_memo_*``
  entries a built plan carries and which strings its nodes share (a
  strict and template signature that are equal but distinct objects
  pickle differently from one shared string);
- a hash of the ``day_jobs`` list (ids, hours, plans by ``repr``, params,
  dependencies);
- the RNG state at the start of each day and after the last one;
- the hash of eager ``generate(3)`` and the generator's final state.

Regenerate only when a change is meant to alter generated worlds::

    PYTHONPATH=src python tests/workloads/test_day_digests.py --write
"""

from __future__ import annotations

import json
import pickle
import sys
from hashlib import blake2b
from pathlib import Path

import numpy as np
import pytest

from repro.core.peregrine.repository import hex_names
from repro.workloads.scope import ScopeWorkloadConfig, ScopeWorkloadGenerator

GOLDEN = Path(__file__).parent / "data" / "scope_day_digests.json"
PAIRS = ((46, 0), (1200, 0), (5000, 3), (20000, 7))
DAYS = 3
#: Day order for the random-access check: day 2 first replays days 0
#: and 1 through the skip path, then days 0 and 1 come from the cache.
RANDOM_ORDER = (2, 0, 1)

_ARRAYS = ("submit_hours", "plan_codes", "param_codes", "sig_codes", "sig_offsets")


def _pools(batch) -> tuple:
    """The batch's pools as the lists the digests were captured over:
    job ids, plan template and strict names, signature names and sizes,
    and one parameter dict per code."""
    return (
        batch.ids.tolist(),
        hex_names(batch.template_digests),
        hex_names(batch.strict_digests),
        hex_names(batch.sig_digests),
        batch.sig_sizes.tolist(),
        [batch.params[code] for code in range(len(batch.params))],
    )


def _world(jobs_per_day: int, seed: int) -> ScopeWorkloadGenerator:
    return ScopeWorkloadGenerator(
        rng=seed, config=ScopeWorkloadConfig.for_scale(jobs_per_day)
    )


def batch_digest(batch) -> str:
    h = blake2b(digest_size=16)
    h.update(repr(batch.day).encode())
    for name in _ARRAYS:
        arr = getattr(batch, name)
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    for pool in _pools(batch):
        h.update(repr(pool).encode())
    h.update(repr(batch.deps.items()).encode())
    for code in range(len(batch.plans)):
        h.update(repr(batch.plans[code]).encode())
    return h.hexdigest()


def pickle_digest(batch) -> str:
    return blake2b(pickle.dumps(batch, protocol=4), digest_size=16).hexdigest()


def jobs_digest(jobs) -> str:
    h = blake2b(digest_size=16)
    for job in jobs:
        h.update(
            repr((
                job.job_id, job.submit_hour, job.template_id,
                job.pipeline_id, sorted(job.params.items()), job.depends_on,
                job.plan,
            )).encode()
        )
    return h.hexdigest()


def capture(jobs_per_day: int, seed: int) -> dict:
    """Every digest of one (jobs/day, seed) world, from fresh generators."""
    gen = _world(jobs_per_day, seed)
    batches = [gen.day_batch(day) for day in range(DAYS)]
    # Pickled before anything reads a plan (reads build and memoize).
    pickles = [pickle_digest(batch) for batch in batches]
    states = [gen._day_states[day] for day in range(DAYS + 1)]
    gen = _world(jobs_per_day, seed)
    day_jobs = [jobs_digest(gen.day_jobs(day)) for day in range(DAYS)]
    gen = _world(jobs_per_day, seed)
    workload = gen.generate(DAYS)
    return {
        "day_batch": [batch_digest(batch) for batch in batches],
        "day_batch_pickle": pickles,
        "day_jobs": day_jobs,
        "day_states": states,
        "generate": {
            "jobs": jobs_digest(workload.jobs),
            "state": gen._rng.bit_generator.state,
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _key(jobs_per_day: int, seed: int) -> str:
    return f"{jobs_per_day}/{seed}"


@pytest.mark.parametrize("jobs_per_day,seed", PAIRS)
class TestGoldenDays:
    def test_day_batches_and_states(self, golden, jobs_per_day, seed):
        want = golden["worlds"][_key(jobs_per_day, seed)]
        gen = _world(jobs_per_day, seed)
        for day in range(DAYS):
            assert batch_digest(gen.day_batch(day)) == want["day_batch"][day]
            assert gen._day_states[day + 1] == want["day_states"][day + 1]
        assert gen._day_states[0] == want["day_states"][0]

    def test_day_batch_pickles(self, golden, jobs_per_day, seed):
        want = golden["worlds"][_key(jobs_per_day, seed)]["day_batch_pickle"]
        gen = _world(jobs_per_day, seed)
        assert [pickle_digest(gen.day_batch(day)) for day in range(DAYS)] == want

    def test_random_access_day_order(self, golden, jobs_per_day, seed):
        want = golden["worlds"][_key(jobs_per_day, seed)]
        gen = _world(jobs_per_day, seed)
        for day in RANDOM_ORDER:
            assert batch_digest(gen.day_batch(day)) == want["day_batch"][day]
        assert {d: gen._day_states[d] for d in range(DAYS + 1)} == {
            d: state for d, state in enumerate(want["day_states"])
        }

    def test_day_jobs(self, golden, jobs_per_day, seed):
        want = golden["worlds"][_key(jobs_per_day, seed)]
        gen = _world(jobs_per_day, seed)
        for day in range(DAYS):
            assert jobs_digest(gen.day_jobs(day)) == want["day_jobs"][day]

    def test_eager_generate(self, golden, jobs_per_day, seed):
        want = golden["worlds"][_key(jobs_per_day, seed)]["generate"]
        gen = _world(jobs_per_day, seed)
        assert jobs_digest(gen.generate(DAYS).jobs) == want["jobs"]
        assert gen._rng.bit_generator.state == want["state"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    worlds = {_key(jpd, seed): capture(jpd, seed) for jpd, seed in PAIRS}
    GOLDEN.write_text(
        json.dumps({"days": DAYS, "worlds": worlds}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
