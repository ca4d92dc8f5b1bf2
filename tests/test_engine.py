"""The warm-started relaxation against a relaxation of the bare pile and the leftmost
loop, its growing view, its certificate, its fallback from 4*u(N//4) and that start's
premise, the avalanche kernel, and the firing order of the worklist loop."""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st

from kspm import Params, fixed_point
from kspm import _engine
from kspm.avalanche import steps
from kspm.errors import Inconsistent, WorkLimitExceeded

import reference

LIMIT = 10**12


def pushed(b0, p, e):
    """b0 + De for a firing vector e, by the firing rule."""
    b = list(b0) + [0] * (len(e) + p + 1)
    for i, x in enumerate(e):
        b[i] -= (p + 1) * x
        if i:
            b[i - 1] += p * x
        b[i + p] += x
    return b


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [4096, 16383, 16384, 16385, 65537])
def test_warm_start_matches_cold_relax(p, n):
    b = _engine.relax(n, p)
    u = _engine.odometer(b, n, p)
    assert _engine.pile_with_shots(n, p, LIMIT) == (b, u, sum(u))


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [4096, 16385])
def test_pile_with_shots_matches_leftmost(p, n):
    b, fired = [n], []
    _engine.leftmost(b, p, LIMIT, fired)
    assert _engine.pile_with_shots(n, p, LIMIT) == (b, reference.shot_counts(fired), len(fired))


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [4096, 16385])
def test_starts_that_grow_the_view(p, n):
    b = _engine.relax(n, p)
    u = np.array(_engine.odometer(b, n, p), dtype=np.int64)
    for start in (u[:0], u[:1], u[: len(u) // 2], u[:-1], u // 2):
        assert _engine.relax(n, p, start) == b


def test_budget_counts_the_shot_vector():
    n, p = 16384, 2
    b, shots, total = _engine.pile_with_shots(n, p, LIMIT)
    assert total == sum(shots)
    with pytest.raises(WorkLimitExceeded):
        _engine.pile_with_shots(n, p, total - 1)
    with pytest.raises(WorkLimitExceeded):
        fixed_point(n, Params(p), total - 1)
    assert _engine.pile_with_shots(n, p, total) == (b, shots, total)


@pytest.mark.parametrize(
    "overshoot",
    [lambda u: 2 * u, lambda u: u + (np.arange(len(u)) == 0)],
    ids=["twice", "one_more_at_0"],
)
def test_overshooting_estimate_falls_back(monkeypatch, overshoot):
    n, p = 16384, 2
    b = _engine.relax(n, p)
    u = _engine.odometer(b, n, p)
    cold = (b, u, sum(u))
    start = overshoot(np.array(u, dtype=np.int64))
    monkeypatch.setattr(_engine, "_estimate", lambda shots, sub, grains, p: start)
    assert _engine.pile_with_shots(n, p, LIMIT) == cold
    # the budget is charged on the cold total, not on the rejected warm run
    assert _engine.pile_with_shots(n, p, cold[2]) == cold
    with pytest.raises(WorkLimitExceeded):
        _engine.pile_with_shots(n, p, cold[2] - 1)


def record_relaxes(monkeypatch):
    """Patch `_engine.relax` to log the grain count of every call."""
    calls, relax = [], _engine.relax

    def record_relax(grains, p, start=()):
        calls.append(grains)
        return relax(grains, p, start)

    monkeypatch.setattr(_engine, "relax", record_relax)
    return calls


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [16385, 2**17 + 300])
def test_warm_guess_is_certified_at_every_level(monkeypatch, p, n):
    verdicts, certify = [], _engine.certify

    def record_certify(b, p, w):
        verdicts.append(certify(b, p, w))
        return verdicts[-1]

    monkeypatch.setattr(_engine, "certify", record_certify)
    calls = record_relaxes(monkeypatch)
    _engine.pile_with_shots(n, p, LIMIT)
    # one relax per warm level, innermost first: no fallback ran
    assert verdicts and all(verdicts) and calls == sorted(set(calls))


@pytest.mark.parametrize("p", range(1, 5))
@pytest.mark.parametrize("n", [16385, 2**17 + 300])
def test_over_budget_pile_never_relaxes_cold(monkeypatch, p, n):
    total = _engine.pile_with_shots(n, p, LIMIT)[2]
    calls = record_relaxes(monkeypatch)
    with pytest.raises(WorkLimitExceeded):
        _engine.pile_with_shots(n, p, total - 1)
    assert calls and calls == sorted(set(calls))


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [4096, 16385])
def test_rejected_guess_falls_back_exactly(monkeypatch, p, n):
    b, fired = [n], []
    _engine.leftmost(b, p, LIMIT, fired)
    monkeypatch.setattr(_engine, "certify", lambda b, p, w: False)
    calls = record_relaxes(monkeypatch)
    assert _engine.pile_with_shots(n, p, LIMIT) == (b, reference.shot_counts(fired), len(fired))
    # each warm level relaxes twice: the rejected guess, then 4*u(N//4)
    assert calls and calls == [g for g in sorted(set(calls)) for _ in range(2)]


@pytest.mark.parametrize("p", range(1, 9))
def test_four_quarter_odometers_stay_below(p):
    """4*u(N//4) <= u(N) in every column: every N up to 3,000, then seeded larger N."""
    us, b, u = [[]], [], []
    for n in range(1, 3001):
        b = b or [0]
        b[0] += 1
        fired: list[int] = []
        _engine.leftmost(b, p, LIMIT, fired)
        u = u + [0] * (max(fired, default=-1) + 1 - len(u))
        for i in fired:
            u[i] += 1
        us.append(u)
    cases = [(us[n // 4], us[n]) for n in range(4, 3001)]
    for n in random.Random(p).sample(range(3001, 3 * 10**5), 8):
        quarter = _engine.pile_with_shots(n // 4, p, LIMIT)[1]
        cases.append((quarter, _engine.pile_with_shots(n, p, LIMIT)[1]))
    for quarter, whole in cases:
        assert all(4 * x <= y for x, y in itertools.zip_longest(quarter, whole, fillvalue=0))


class TestCertify:
    @pytest.mark.parametrize("p,n", [(1, 500), (2, 2000), (3, 2000), (4, 5000)])
    def test_accepts_only_the_shot_vector(self, p, n):
        b, u, _ = _engine.pile_with_shots(n, p, LIMIT)
        assert _engine.certify(b, p, u)
        left_stable = 0
        for lo in range(len(u)):
            for hi in range(lo + 1, len(u) + 1):
                w = u[:lo] + [x + 1 for x in u[lo:hi]] + u[hi:]
                bw = pushed([n], p, w)
                assert not _engine.certify(bw, p, w), (lo, hi)
                left_stable += all(v <= p for v in bw)
        # some of these leave the pile stable: there only burning rejects
        assert left_stable

    def test_single_columns_that_stay_stable(self):
        n, p = 2000, 3
        _, u, _ = _engine.pile_with_shots(n, p, LIMIT)
        stable = []
        for x in range(len(u)):
            w = list(u)
            w[x] += 1
            bw = pushed([n], p, w)
            if all(v <= p for v in bw):
                stable.append(x)
            assert not _engine.certify(bw, p, w)
        assert len(stable) > 1

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.lists(st.integers(min_value=0, max_value=4 * p + 4), max_size=10),
                st.data(),
            )
        )
    )
    def test_arbitrary_start(self, case):
        p, b0, data = case
        b = list(b0)
        fired: list[int] = []
        _engine.leftmost(b, p, LIMIT, fired)
        u = reference.shot_counts(fired)
        assert reference.trim(pushed(b0, p, u)) == b
        assert _engine.certify(b, p, u)
        if u:
            lo = data.draw(st.integers(min_value=0, max_value=len(u) - 1))
            hi = data.draw(st.integers(min_value=lo + 1, max_value=len(u) + p))
            w = u + [0] * (hi - len(u))
            w[lo:hi] = [x + 1 for x in w[lo:hi]]
            assert not _engine.certify(pushed(b0, p, w), p, w)


class TestOdometer:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_counts_of_the_leftmost_run(self, p):
        # every N grain by grain (the counts add up, by the abelian property),
        # and every 50th N in one leftmost run from [N]
        b: list[int] = []
        u: list[int] = []
        for n in range(1, 3001):
            b = b or [0]
            b[0] += 1
            fired: list[int] = []
            _engine.leftmost(b, p, LIMIT, fired)
            u += [0] * (max(fired, default=-1) + 1 - len(u))
            for i in fired:
                u[i] += 1
            assert _engine.odometer(b, n, p) == u, n
        for n in range(0, 3001, 50):
            b = [n] if n else []
            fired = []
            _engine.leftmost(b, p, LIMIT, fired)
            assert _engine.odometer(b, n, p) == reference.shot_counts(fired), n

    # [1, 1] at p = 2 is stable and holds 1*1 + 2*1 = 3 grains, but it is not
    # pi(3) = [0, 0, 1]; with 2 grains the values below column 0 are (1, 1)
    @pytest.mark.parametrize("grains", [3, 2])
    def test_stable_pile_of_other_grains(self, grains):
        with pytest.raises(Inconsistent):
            _engine.odometer([1, 1], grains, 2)

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("n", [0, 1, 24, 4097])
    def test_one_grain_too_many(self, p, n):
        b = _engine.pile_with_shots(n, p, LIMIT)[0]
        with pytest.raises(Inconsistent):
            _engine.odometer(b, n + 1, p)


@pytest.mark.parametrize("k", [3, 5, 8])
def test_sliding_min(k):
    x = np.array([5.0, 3, 9, 1, 7, 2, 8, 6, 4, 0, 3])
    padded = np.concatenate([x, np.zeros(k - 1)])
    expected = [padded[i : i + k].min() for i in range(len(x))]
    assert _engine._sliding_min(x, k).tolist() == expected


@functools.cache
def firing_scan_piles(p):
    """Copies of pi(k - 1), k <= 1500, on which the k-th grain starts an avalanche."""
    return [list(b) for *_, b in steps(1499, p) if b[0] == p]


def lprime(fired):
    """L'(p, k) of a firing order by brute force: one past its largest hole, else 0."""
    hs = reference.brute_holes(fired)
    return hs[-1] + 1 if hs else 0


def wavy(p):
    """Stable piles made of waves p, p-1, ..., 1, runs of p, single zeros and any values."""
    piece = st.one_of(
        st.integers(1, 3).map(lambda n: list(range(p, 0, -1)) * n),
        st.integers(1, p + 1).map(lambda n: [p] * n),
        st.just([0]),
        st.integers(0, p).map(lambda v: [v]),
    )
    return st.lists(piece, max_size=16).map(lambda parts: [v for part in parts for v in part])


WAVY_CASES = st.integers(min_value=1, max_value=8).flatmap(lambda p: st.tuples(st.just(p), wavy(p)))


class TestAvalancheKernel:
    """`_engine.avalanche` and `_engine.tail` against the general leftmost loop on the same pile."""

    @staticmethod
    def check(b, p):
        """Whether the kernel took the dense-tail step, after checking it."""
        ref = list(b)
        fired_ref: list[int] = []
        total = _engine.leftmost(ref, p, LIMIT, fired_ref)
        head, start, last = _engine.avalanche(b, p)
        assert head + _engine.tail(b, p, max(head), last) == fired_ref
        assert start == lprime(fired_ref)
        assert b == ref
        assert len(head) + last - max(head) == total
        return last > max(head)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p), max_size=40))
        )
    )
    def test_random_stable_pile_plus_a_grain(self, case):
        p, rest = case
        # column 0 holds p before the grain, so it is the one enabled column
        self.check([p + 1] + rest, p)

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_scan_piles_plus_a_grain(self, p, data):
        piles = firing_scan_piles(p)
        b = list(data.draw(st.sampled_from(piles)))
        b[0] += 1
        self.check(b, p)

    @given(WAVY_CASES)
    def test_wavy_pile_plus_a_grain(self, case):
        p, rest = case
        self.check([p + 1] + rest, p)

    def test_wavy_piles_reach_the_dense_tail(self):
        # raises NoSuchExample if no drawn pile takes the dense-tail step
        find(WAVY_CASES, lambda case: self.check([case[0] + 1] + case[1], case[0]))

    @pytest.mark.parametrize("p, n", [(64, 3000), (1000, 3000)])
    def test_steps_at_large_p(self, p, n):
        ref: list[int] = []
        for k, head, lp, last, b in steps(n, p):
            ref = ref or [0]
            ref[0] += 1
            fired: list[int] = []
            total = _engine.leftmost(ref, p, LIMIT, fired)
            assert b == ref, k
            assert head + _engine.tail(b, p, max(head, default=-1), last) == fired
            assert len(head) + last - max(head, default=-1) == total
            assert lp == lprime(fired), k


class TestAvalancheMask:
    """The kernel's byte mask of the cells at p, kept across calls as `steps` keeps it."""

    @staticmethod
    def check(b, p):
        """Add 2p + 2 grains on column 0 of the stable pile b, one mask across the calls."""
        mask = bytearray(v == p for v in b)  # written before the grains, as `steps` leaves it
        for _ in range(2 * p + 2):
            b[0] += 1
            if b[0] <= p:
                continue
            ref = list(b)
            assert _engine.avalanche(b, p, mask) == _engine.avalanche(ref, p)
            assert b == ref
            assert mask[: len(b)] == bytes(v == p for v in b)
            assert not any(mask[len(b) :])

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p), max_size=40))
        )
    )
    def test_random_stable_pile(self, case):
        p, rest = case
        self.check([p] + rest, p)

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_scan_piles(self, p, data):
        self.check(list(data.draw(st.sampled_from(firing_scan_piles(p)))), p)

    @given(WAVY_CASES)
    def test_wavy_pile(self, case):
        p, rest = case
        self.check([p] + rest, p)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_steps_against_leftmost(self, p):
        ref: list[int] = []
        for k, head, lp, last, b in steps(3000, p):
            ref = ref or [0]
            ref[0] += 1
            fired: list[int] = []
            total = _engine.leftmost(ref, p, LIMIT, fired)
            assert b == ref, k
            assert head + _engine.tail(b, p, max(head, default=-1), last) == fired
            assert len(head) + last - max(head, default=-1) == total
            assert lp == lprime(fired), k


SMALL_PILES = st.integers(min_value=1, max_value=4).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, 2 * p + 2), max_size=10))
)


def worklist_prefixes(diffs, p, seed):
    """The piles after 0, 1, ..., all firings of `worklist`: a run stopped by its
    budget of k firings leaves the pile as it was after k firings."""
    for k in itertools.count():
        b = list(diffs)
        try:
            _engine.worklist(b, p, k, seed)
        except WorkLimitExceeded:
            yield reference.trim(b)
        else:
            yield b
            return


class TestWorklistOrder:
    @given(SMALL_PILES)
    def test_rightmost_fires_the_largest_enabled_column(self, case):
        p, diffs = case
        piles = worklist_prefixes(diffs, p, None)
        ref = reference.HeightPile(reference.heights_from_diffs(diffs), p)
        assert next(piles) == ref.diffs()
        for b in piles:
            ref.fire(max(ref.enabled()))
            assert b == ref.diffs()
        assert not ref.enabled()

    @pytest.mark.parametrize("seed", range(4))
    @settings(deadline=None)  # replaying every prefix is quadratic: p=1, ten 4s take ~0.3 s
    @given(case=SMALL_PILES)
    def test_random_fires_one_enabled_column_at_a_time(self, seed, case):
        p, diffs = case
        piles = list(worklist_prefixes(diffs, p, seed))
        for before, after in zip(piles, piles[1:]):
            heights = reference.heights_from_diffs(before)
            moves = []
            for i in reference.HeightPile(heights, p).enabled():
                pile = reference.HeightPile(heights, p)
                pile.fire(i)
                moves.append(pile.diffs())
            assert after in moves
        assert not reference.HeightPile(reference.heights_from_diffs(piles[-1]), p).enabled()
