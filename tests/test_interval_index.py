"""Property tests: ``IntervalIndex`` vs linear-sweep reference models.

The bisect-backed :class:`repro.sim.intervals.IntervalIndex` replaced the
executor's linear busy-interval sweeps.  These tests drive it with
thousands of seeded-random interval sets — including float-exact touching
endpoints, the case the ``OVERLAP_TOL`` epsilon exists for — and compare
every query against a brutally simple linear model kept inline here.

If ``hypothesis`` is installed (it is a dev extra, not a CI requirement)
an extra fuzzing pass runs; otherwise that one test skips and the seeded
``random.Random`` sweeps still provide the coverage floor.
"""

import random

import pytest

from repro.sim.intervals import (
    OVERLAP_TOL,
    IntervalError,
    IntervalIndex,
    max_overlap,
)


# --------------------------------------------------------------------- #
# linear reference models                                               #
# --------------------------------------------------------------------- #


def linear_earliest_fit(intervals, ready, duration, allow_insertion=True):
    """First-fit over a sorted busy list by linear sweep."""
    ivs = sorted(intervals)
    last_end = ivs[-1][1] if ivs else 0.0
    if not allow_insertion or not ivs:
        return max(ready, last_end)
    if ready + duration <= ivs[0][0]:
        return ready
    for (s0, e0, _), (s1, _, _) in zip(ivs, ivs[1:]):
        gap_start = max(ready, e0)
        if gap_start + duration <= s1:
            return gap_start
    return max(ready, last_end)


def linear_overlapping(intervals, start, end):
    """All intervals strictly overlapping [start, end)."""
    return sorted(
        (s, e, t) for s, e, t in intervals if e > start and s < end
    )


def linear_max_overlap(intervals):
    """Quadratic count of maximum concurrency, ignoring zero-length.

    Concurrency is half-open ([s, e)), so it peaks at some interval's
    start point — probe each one and count who covers it.
    """
    best = 0
    for s, e in intervals:
        if e <= s:
            continue
        count = sum(
            1 for s2, e2 in intervals if e2 > s2 and s2 <= s < e2
        )
        best = max(best, count)
    return best


def random_busy_set(rng, n, *, touching=False):
    """A non-overlapping interval list; touching=True makes endpoints exact."""
    out = []
    t = rng.uniform(0.0, 5.0)
    for i in range(n):
        if touching and out and rng.random() < 0.5:
            start = out[-1][1]  # float-exact shared endpoint
        else:
            start = t + rng.uniform(0.01, 3.0)
        dur = rng.uniform(0.05, 4.0)
        out.append((start, start + dur, f"t{i}"))
        t = start + dur
    return out


def build(intervals):
    idx = IntervalIndex()
    for s, e, tag in intervals:
        idx.add(s, e, tag)
    return idx


# --------------------------------------------------------------------- #
# seeded-random sweeps                                                  #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(40))
def test_earliest_fit_matches_linear_sweep(seed):
    rng = random.Random(seed)
    busy = random_busy_set(rng, rng.randint(0, 12), touching=bool(seed % 2))
    idx = build(busy)
    for _ in range(50):
        ready = rng.uniform(-1.0, busy[-1][1] + 2.0 if busy else 10.0)
        duration = rng.choice([0.0, rng.uniform(0.001, 5.0)])
        allow = rng.random() < 0.8
        got = idx.earliest_fit(ready, duration, allow_insertion=allow)
        want = linear_earliest_fit(busy, ready, duration, allow_insertion=allow)
        assert got == want, (seed, ready, duration, allow, busy)
        # The fit must actually be usable: placing it may not overlap.
        if duration > 0:
            assert not [
                (s, e) for s, e, _ in busy
                if e > got + OVERLAP_TOL and s + OVERLAP_TOL < got + duration
            ]


@pytest.mark.parametrize("seed", range(40))
def test_overlapping_matches_linear_sweep(seed):
    rng = random.Random(100 + seed)
    busy = random_busy_set(rng, rng.randint(0, 15), touching=bool(seed % 2))
    idx = build(busy)
    horizon = (busy[-1][1] if busy else 5.0) + 1.0
    for _ in range(50):
        a = rng.uniform(-1.0, horizon)
        b = a + rng.choice([0.0, rng.uniform(0.0, horizon)])
        assert sorted(idx.overlapping(a, b)) == linear_overlapping(busy, a, b)


@pytest.mark.parametrize("seed", range(40))
def test_add_remove_round_trip(seed):
    rng = random.Random(200 + seed)
    busy = random_busy_set(rng, rng.randint(1, 12), touching=bool(seed % 3))
    idx = build(busy)
    # Remove in random order; the survivors must stay queryable & sorted.
    order = busy[:]
    rng.shuffle(order)
    alive = set(busy)
    for s, e, tag in order:
        idx.remove(s, e, tag)
        alive.discard((s, e, tag))
        assert idx.intervals == sorted(alive)
    assert idx.intervals == []
    assert idx.last_end() == 0.0


@pytest.mark.parametrize("seed", range(25))
def test_max_overlap_matches_quadratic_count(seed):
    rng = random.Random(300 + seed)
    ivs = []
    for _ in range(rng.randint(0, 20)):
        s = rng.uniform(0.0, 10.0)
        e = s + rng.choice([0.0, rng.uniform(0.0, 4.0)])  # some zero-length
        ivs.append((s, e))
    assert max_overlap(ivs) == linear_max_overlap(ivs)


# --------------------------------------------------------------------- #
# exact-endpoint and error semantics                                    #
# --------------------------------------------------------------------- #


def test_touching_endpoints_are_legal_and_fit_exactly():
    idx = IntervalIndex()
    idx.add(0.0, 1.0, "a")
    idx.add(1.0, 2.0, "b")  # float-exact shared endpoint: no overlap
    idx.add(3.0, 4.0, "c")
    # A duration that exactly fills the [2, 3] gap must land at 2.0.
    assert idx.earliest_fit(0.0, 1.0) == 2.0
    # Zero-duration requests sit on the boundary.
    assert idx.earliest_fit(1.0, 0.0) == 1.0
    # overlapping() is half-open: the shared endpoint does not overlap.
    assert idx.overlapping(1.0, 1.0) == []
    assert [t for _, _, t in idx.overlapping(0.5, 1.5)] == ["a", "b"]


def test_overlap_and_reversed_rejections():
    idx = IntervalIndex()
    idx.add(0.0, 1.0, "a")
    with pytest.raises(IntervalError):
        idx.add(0.5, 1.5, "b")  # overlaps a
    with pytest.raises(IntervalError):
        idx.add(2.0, 1.0, "rev")  # reversed
    with pytest.raises(IntervalError):
        idx.earliest_fit(0.0, -1.0)  # negative duration
    # Sub-tolerance overlap is allowed (accumulated float fuzz).
    idx.add(1.0 - OVERLAP_TOL / 2, 2.0, "fuzz")


def test_remove_missing_raises_keyerror():
    idx = IntervalIndex()
    idx.add(0.0, 1.0, "a")
    with pytest.raises(KeyError):
        idx.remove(0.0, 1.0, "other-tag")
    with pytest.raises(KeyError):
        idx.remove(5.0, 6.0, "a")


def test_allow_insertion_false_appends_after_tail():
    idx = IntervalIndex()
    idx.add(0.0, 1.0, "a")
    idx.add(5.0, 6.0, "b")
    # The [1, 5] hole is ignored without insertion.
    assert idx.earliest_fit(0.0, 1.0, allow_insertion=False) == 6.0
    assert idx.earliest_fit(9.0, 1.0, allow_insertion=False) == 9.0


# --------------------------------------------------------------------- #
# optional hypothesis pass                                              #
# --------------------------------------------------------------------- #


def test_hypothesis_fuzz_earliest_fit():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        ready=st.floats(min_value=-2.0, max_value=50.0,
                        allow_nan=False, allow_infinity=False),
        duration=st.floats(min_value=0.0, max_value=10.0,
                           allow_nan=False, allow_infinity=False),
    )
    @hypothesis.settings(max_examples=200, deadline=None)
    def run(seed, ready, duration):
        rng = random.Random(seed)
        busy = random_busy_set(rng, rng.randint(0, 10), touching=True)
        idx = build(busy)
        got = idx.earliest_fit(ready, duration)
        assert got == linear_earliest_fit(busy, ready, duration)

    run()
