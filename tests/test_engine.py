"""The warm-started relaxation against a relaxation of the bare pile and the leftmost
loop, its growing view, its clip of negative firing counts, its int32 storage bound,
its certificate, its fallback from 4*u(N//4) and that start's premise, the leftmost
base from 2*u(N//2), the avalanche generator, and the firing order of the worklist loop."""

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


def leftmost_from_the_bare_pile(n, p, limit=LIMIT):
    b, fired = [n], []
    _engine.leftmost(b, p, limit, fired)
    return b, reference.shot_counts(fired), len(fired)


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [4096, 16383, 16384, 16385, 65537])
def test_warm_start_matches_cold_relax(p, n):
    b = _engine.relax(n, p)
    u = _engine.odometer(b, n, p)
    assert _engine.pile_with_shots(n, p, LIMIT) == (b, u, sum(u))


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [4096, 16385])
def test_pile_with_shots_matches_leftmost(p, n):
    assert _engine.pile_with_shots(n, p, LIMIT) == leftmost_from_the_bare_pile(n, p)


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [4096, 16385])
def test_starts_that_grow_the_view(p, n):
    b = _engine.relax(n, p)
    u = np.array(_engine.odometer(b, n, p), dtype=np.int64)
    for start in (u[:0], u[:1], u[: len(u) // 2], u[:-1], u // 2):
        assert _engine.relax(n, p, start) == b


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [4096, 16385])
def test_no_stop_test_sees_a_negative_firing_count(monkeypatch, p, n):
    """The clip runs while a cell is negative: every stop test of the bare, the warm,
    the 4*u(N//4) and the view-growing starts sees f >= 0.  Without the clip a
    negative cell fires backwards and the relaxation need not end."""
    b = _engine.relax(n, p)
    u = np.array(_engine.odometer(b, n, p), dtype=np.int64)
    quarter = _engine.pile_with_shots(n // 4, p, LIMIT)[1]
    starts = [(), _engine._estimate(quarter, n // 4, n, p), 4 * np.array(quarter, dtype=np.int64)]
    starts += [u[:1], u[: len(u) // 2], u[:-1], u // 2]
    stop_tests, count = [], np.count_nonzero  # relax looks count_nonzero up on each call

    def checked_count(f):
        assert f.min() >= 0
        stop_tests.append(len(f))
        return count(f)

    monkeypatch.setattr(np, "count_nonzero", checked_count)
    for start in starts:
        before = len(stop_tests)
        assert _engine.relax(n, p, start) == b
        assert len(stop_tests) > before


@pytest.mark.parametrize("p", range(1, 9))
def test_base_below_the_cutoff_matches_leftmost(p):
    """The base starts from twice the pile of N // 2 plus the odd grain: every N up to
    600, then a seeded sample of N up to the cutoff."""
    cutoff = _engine._RELAX_CUTOFF // 4 if p == 1 else _engine._RELAX_CUTOFF
    ns = [*range(601), *random.Random(p).sample(range(601, cutoff), 30)]
    for n in ns:
        assert _engine.pile_with_shots(n, p, LIMIT) == leftmost_from_the_bare_pile(n, p), n


@pytest.mark.parametrize("p, n", [(1, 1023), (2, 777), (5, 4095)])
def test_base_charges_the_budget_once(p, n):
    total = leftmost_from_the_bare_pile(n, p)[2]
    assert _engine.pile_with_shots(n, p, total)[2] == total
    with pytest.raises(WorkLimitExceeded) as cold:
        leftmost_from_the_bare_pile(n, p, total - 1)
    with pytest.raises(WorkLimitExceeded) as base:
        _engine.pile_with_shots(n, p, total - 1)
    assert str(base.value) == str(cold.value) == f"firing budget {total - 1} exceeded"


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [4096, 16385, 2**17 + 300])
def test_int64_storage_relaxes_alike(monkeypatch, p, n):
    """The bare, the warm and the 4*u(N//4) start relax to the same pile with the
    storage `_storage` picks (int32 here) and with int64 forced."""
    quarter = _engine.pile_with_shots(n // 4, p, LIMIT)[1]
    starts = [(), _engine._estimate(quarter, n // 4, n, p), 4 * np.array(quarter, dtype=np.int64)]
    picked, storage = [], _engine._storage

    def record_storage(grains, pile):
        picked.append((storage(grains, pile), reference.trim(pile.tolist())))
        return picked[-1][0]

    monkeypatch.setattr(_engine, "_storage", record_storage)
    piles = [_engine.relax(n, p, start) for start in starts]
    # relax judges the start pile c + Ds itself, and each fits int32
    assert picked == [(np.int32, reference.trim(pushed([n], p, start))) for start in starts]
    monkeypatch.setattr(_engine, "_storage", lambda grains, pile: np.int64)
    assert [_engine.relax(n, p, start) for start in starts] == piles


def test_storage_bound_at_2_31():
    """B = N + sum((i+1) * max(0, -b_i)) over the start pile: int32 up to 2**31 - 1."""
    g = 1_000_003  # with s = (0, x) at p = 2 the pile is (g + 2x, -3x, 0, x): B = g + 6x
    x = (2**31 - 1 - g) // 6
    for grains, pile, dtype in [
        (2**31 - 1, [2**31 - 1], np.int32),
        (2**31, [2**31], np.int64),
        (g, pushed([g], 2, [0, x]), np.int32),
        (g + 1, pushed([g + 1], 2, [0, x]), np.int64),
        (g, pushed([g], 2, [0, x + 1]), np.int64),
    ]:
        assert _engine._storage(grains, np.array(pile, dtype=np.int64)) is dtype, (grains, pile)


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


def assert_warm_guess_certified(monkeypatch, p, n):
    """Record every `certify` verdict and relax call of one pile_with_shots run."""
    verdicts, certify = [], _engine.certify

    def record_certify(b, p, w):
        verdicts.append(certify(b, p, w))
        return verdicts[-1]

    monkeypatch.setattr(_engine, "certify", record_certify)
    calls = record_relaxes(monkeypatch)
    _engine.pile_with_shots(n, p, LIMIT)
    # one relax per warm level, innermost first: no fallback ran
    assert verdicts and all(verdicts) and calls == sorted(set(calls))


@pytest.mark.parametrize("p", range(1, 9))
@pytest.mark.parametrize("n", [16385, 2**17 + 300])
def test_warm_guess_is_certified_at_every_level(monkeypatch, p, n):
    assert_warm_guess_certified(monkeypatch, p, n)


def test_warm_guess_is_certified_at_p5_above_2e7(monkeypatch):
    """A forward (p+1)-minimum overshot at this pile's top level."""
    assert_warm_guess_certified(monkeypatch, 5, 23_738_911)


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
    cold = leftmost_from_the_bare_pile(n, p)
    monkeypatch.setattr(_engine, "certify", lambda b, p, w: False)
    calls = record_relaxes(monkeypatch)
    assert _engine.pile_with_shots(n, p, LIMIT) == cold
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


# p = 13 and 40 take windows wider than every profile here, all padding at both ends
@pytest.mark.parametrize("p", [*range(1, 9), 13, 40])
@pytest.mark.parametrize("shots", [[9, 4, 7, 1, 8, 3, 6, 2, 5, 0, 3, 1], [40, 3], [7]])
def test_estimate_takes_a_centred_minimum(p, shots):
    """At grains == sub the rescaled profile is shots + [0], so only the window acts:
    min(est[i - p//2 : i + p - p//2 + 1]), clipped at column 0, 0 past the end."""
    est = shots + [0]
    padded = est + [0] * p
    expected = [min(padded[max(0, i - p // 2) : i + p - p // 2 + 1]) for i in range(len(est))]
    assert _engine._estimate(shots, 1, 1, p).tolist() == expected


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


def check_avalanches(b, p, grains):
    """Add `grains` grains to the stable pile b through `_engine.avalanches`, each step
    against `leftmost` on a fresh copy of the pile before it; whether a step took the
    dense tail."""
    before = reference.trim(list(b)) or [0]
    k0 = sum(i * v for i, v in enumerate(before, 1))
    tails = False
    for j, (k, head, start, last, got) in enumerate(_engine.avalanches(b, p, grains, LIMIT), 1):
        ref = list(before)
        ref[0] += 1
        fired: list[int] = []
        total = _engine.leftmost(ref, p, LIMIT, fired)
        assert k == k0 + j
        assert got is b and b == ref
        assert _engine.firing_order(b, p, head, last) == fired
        assert start == lprime(fired)
        assert len(head) + last - max(head, default=-1) == total
        tails |= last > max(head, default=-1)
        before = list(b)
    assert j == grains
    return tails


class TestAvalancheKernel:
    """One grain through `_engine.avalanches`, and `_engine.firing_order`, against the
    general leftmost loop."""

    check = staticmethod(lambda b, p: check_avalanches(b, p, 1))

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p), max_size=40))
        )
    )
    def test_random_stable_pile_plus_a_grain(self, case):
        p, rest = case
        # column 0 holds p before the grain, so it is the one enabled column
        self.check([p] + rest, p)

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_scan_piles_plus_a_grain(self, p, data):
        self.check(list(data.draw(st.sampled_from(firing_scan_piles(p)))), p)

    @given(WAVY_CASES)
    def test_wavy_pile_plus_a_grain(self, case):
        p, rest = case
        self.check([p] + rest, p)

    def test_wavy_piles_reach_the_dense_tail(self):
        # raises NoSuchExample if no drawn pile takes the dense-tail step
        find(WAVY_CASES, lambda case: self.check([case[0]] + case[1], case[0]))

    @pytest.mark.parametrize("p, n", [(64, 3000), (1000, 3000)])
    def test_steps_at_large_p(self, p, n):
        ref: list[int] = []
        for k, head, lp, last, b in steps(n, p):
            ref = ref or [0]
            ref[0] += 1
            fired: list[int] = []
            total = _engine.leftmost(ref, p, LIMIT, fired)
            assert b == ref, k
            assert _engine.firing_order(b, p, head, last) == fired
            assert len(head) + last - max(head, default=-1) == total
            assert lp == lprime(fired), k


class TestAvalancheMask:
    """The generator's byte mask of the cells at p, built from the start pile and kept
    across grains."""

    check = staticmethod(lambda b, p: check_avalanches(b, p, 2 * p + 2))

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

    @pytest.mark.parametrize("p", [16, 64, 1000])
    def test_dense_tail_at_large_p(self, p):
        # the head fires 0, p, p-1, ..., 1 (p + 1 firings), filling (0, p]; the run of p's
        # carries the tail to last = 3p
        assert TestAvalancheKernel.check([p] * (3 * p + 1) + [1], p)
        self.check([p] * (3 * p + 1) + [1], p)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_steps_against_leftmost(self, p):
        ref: list[int] = []
        for k, head, lp, last, b in steps(3000, p):
            ref = ref or [0]
            ref[0] += 1
            fired: list[int] = []
            total = _engine.leftmost(ref, p, LIMIT, fired)
            assert b == ref, k
            assert _engine.firing_order(b, p, head, last) == fired
            assert len(head) + last - max(head, default=-1) == total
            assert lp == lprime(fired), k


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("k0", [0, 1, 37, 5000])
def test_scan_from_a_fixed_point(p, k0):
    """n grains added to pi(k0), by the engine and through `steps`' start, step as rows
    k0 + 1 .. k0 + n of one scan from no grains."""
    n = 400
    scan = itertools.islice(steps(k0 + n, p), k0, None)
    start = list(fixed_point(k0, Params(p)).diffs)
    engine = _engine.avalanches(start, p, n, LIMIT)
    for step, started, row in zip(engine, steps(n, p, start=k0), scan, strict=True):
        assert step == started == row, row[0]


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


class TestFiringOrder:
    """`_engine.firing_order` on the arguments its callers pass besides a generator step."""

    @pytest.mark.parametrize("b", [[], [1], [2, 1, 2]])
    def test_empty_avalanche(self, b):
        assert _engine.firing_order(b, 2, [], -1) == []

    @pytest.mark.parametrize("p", range(1, 5))
    def test_full_list_with_last_at_its_max(self, p):
        # the whole order as head, with an empty tail, is still a valid step to format
        seen = 0
        for _, head, _, last, b in steps(600, p):
            fired = _engine.firing_order(b, p, head, last)
            if fired:
                got = _engine.firing_order(b, p, tuple(fired), max(fired))
                assert type(got) is list and got == fired
                seen += last > max(head)
        assert seen  # some of the lists came through the dense-tail step


def test_worklist_draw_stays_below_n():
    """`worklist` draws slot int(random() * n) of n; random() is at most 1 - 2**-53."""
    top = 1 - 2**-53
    n = np.arange(1, 2**20 + 1, dtype=np.float64)
    assert (np.floor(n * top) == n - 1).all()
    rnd = random.Random(20240601)
    sample = [rnd.randrange(1, 2**53 + 1) for _ in range(20000)]
    edges = [2**e + d for e in range(54) for d in (-1, 0, 1) if 1 <= 2**e + d <= 2**53]
    for n in sample + edges:
        assert int(top * n) == n - 1, n
