"""The k-th avalanche as a step of `steps`, the benchmark's scan and CSV sink, and
density columns."""

import io
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from kspm import (
    GRAIN_LIMIT,
    Avalanche,
    Configuration,
    Params,
    ScanCsvWriter,
    firing_order,
    fixed_point,
    incremental_scan,
    max_plateau,
    shot_vector,
    stabilize,
)
from kspm import _engine
from kspm.avalanche import steps
from kspm.errors import InvalidParameter, WorkLimitExceeded
from kspm.verify import check_density

import reference


def cfg(diffs, p):
    return Configuration(tuple(diffs), Params(p))


def plus_grain(diffs, p):
    """The pile `diffs` with one more grain on column 0."""
    return cfg([diffs[0] + 1, *diffs[1:]] if diffs else [1], p)


def kth(k, p):
    """(firing order of the k-th avalanche, pi(k)): the first step of a scan from pi(k - 1)."""
    got, head, _, last, b = next(steps(1, p, start=k - 1))
    assert got == k
    return firing_order(b, p, head, last), tuple(b)


def scan(n, p):
    """(k, firing order of the k-th avalanche, pi(k - 1), pi(k)) for k = 1 .. n."""
    before = ()
    for k, head, _, last, b in steps(n, p):
        yield k, firing_order(b, p, head, last), before, tuple(b)
        before = tuple(b)


def final_pile(n, p):
    """pi(n) as the last pile of a scan."""
    for *_, b in steps(n, p):
        pass
    return tuple(b)


class TestAddGrain:
    def test_recurrence_single_step(self):
        stepped, _ = stabilize(plus_grain(fixed_point(24, Params(2)).diffs, 2))
        assert stepped == fixed_point(25, Params(2))

    def test_grain_cap(self):
        with pytest.raises(InvalidParameter):
            next(steps(1, 2, start=GRAIN_LIMIT))
        with pytest.raises(InvalidParameter):
            incremental_scan(GRAIN_LIMIT + 1, Params(2))


class TestRunAvalanche:
    """The k-th avalanche, run as the first step of a scan from pi(k - 1)."""

    def test_k25(self):
        assert kth(25, 2) == ([0, 2, 1, 4, 3], (2, 0, 2, 1, 0, 1, 1))

    def test_first_grain_is_quiet(self):
        assert next(steps(1, 2)) == (1, [], 0, -1, [1])

    def test_k3(self):
        assert kth(3, 2) == ([0], (0, 0, 1))

    def test_matches_leftmost_stabilize(self):
        for p, k in ((2, 25), (3, 50), (4, 101)):
            fired, result = kth(k, p)
            stepped, total = stabilize(plus_grain(fixed_point(k - 1, Params(p)).diffs, p))
            assert result == stepped.diffs
            assert len(fired) == total

    @pytest.mark.parametrize("p,k_max", [(1, 60), (2, 80), (3, 60)])
    def test_replay_and_leftmost_greedy(self, p, k_max):
        """Replaying the fired sequence step by step reproduces the result,
        each fired column is the smallest enabled one, none repeats."""
        ks = []
        for k, fired, before, result in scan(k_max, p):
            ks.append(k)
            assert len(set(fired)) == len(fired)
            replay = plus_grain(before, p)
            for col in fired:
                enabled = replay.enabled_columns()
                assert enabled and col == min(enabled)
                replay = replay.fire(col)
            assert replay.diffs == result and replay.is_stable()
        assert ks == list(range(1, k_max + 1))

    @pytest.mark.parametrize("p", [2, 3])
    def test_no_plateau_inside_avalanches(self, p):
        """Every intermediate pile of every avalanche keeps plateaus <= p+1."""
        for _, fired, before, _ in scan(120, p):
            replay = plus_grain(before, p)
            for col in fired:
                replay = replay.fire(col)
                assert max_plateau(replay.heights()) <= p + 1


def csv_fields(fired):
    """(count, largest column, L') fields of the `ScanCsvWriter` row of an avalanche."""
    buf = io.StringIO()
    ScanCsvWriter(buf)(1, Avalanche(1, tuple(fired)), cfg([1], 2))
    _, count, top, lp, _ = buf.getvalue().splitlines()[1].split(",")
    return int(count), top, int(lp)


class TestDensityColumn:
    """L'(p, k) as `ScanCsvWriter` reads it off a firing order."""

    def test_dense_from_zero(self):
        assert csv_fields((0, 2, 1, 4, 3)) == (5, "4", 0)

    def test_hole_at_one(self):
        assert csv_fields((0, 2, 3)) == (3, "3", 2)

    def test_empty(self):
        assert csv_fields(()) == (0, "", 0)

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=12, unique=True))
    def test_invariants(self, fired):
        hs = reference.brute_holes(fired)
        top = str(max(fired)) if fired else ""
        assert csv_fields(fired) == (len(fired), top, hs[-1] + 1 if hs else 0)


@pytest.mark.parametrize("p", [0, -1, True, 2.0])
def test_steps_rejects_p_at_first_next(p):
    """p < 1 would index past the pile or yield rows; a bool or float would pass as p."""
    scan = steps(4, p)
    with pytest.raises(InvalidParameter, match="p must be a positive integer"):
        next(scan)


@pytest.mark.parametrize(
    "grains, start", [(1, -1), (1, True), (1, 2.0), (0, 5), (1, 2**40), (2**40, 1)]
)
def test_steps_checks_grains_before_any_firing(monkeypatch, grains, start):
    """start an int >= 0, grains an int >= 1, and start + grains <= 2**40, before pi(start)."""
    monkeypatch.setattr(_engine, "pile_with_shots", None)  # building pi(start) would raise TypeError
    with pytest.raises(InvalidParameter, match="grain count"):
        next(steps(grains, 2, start=start))


@pytest.mark.parametrize("p, k0", [(2, 5000), (3, 37)])
def test_steps_budget_covers_the_start_pile(p, k0):
    """pi(k0) and the n avalanches after it fire Σu(k0 + n) in all, charged to one budget."""
    n = 300
    total = sum(shot_vector(k0 + n, Params(p)).counts)
    assert [row[0] for row in steps(n, p, total, k0)] == list(range(k0 + 1, k0 + n + 1))
    with pytest.raises(WorkLimitExceeded, match=f"^firing budget {total - 1} exceeded$"):
        for _ in steps(n, p, total - 1, k0):
            pass


class TestIncrementalScan:
    def test_final_matches_from_scratch(self):
        assert final_pile(24, 2) == fixed_point(24, Params(2)).diffs
        assert incremental_scan(24, Params(2)).total_firings == 11

    def test_single_grain(self):
        seen = []
        summary = incremental_scan(1, Params(3), lambda k, a, c: seen.append((k, a, c)))
        assert summary.total_firings == 0
        assert seen == [(1, Avalanche(1, ()), cfg([1], 3))]

    def test_pile2000_matches_from_scratch(self):
        assert final_pile(2000, 4) == fixed_point(2000, Params(4)).diffs

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_recurrence_along_the_scan(self, p):
        """pi(pi(k-1) plus a grain) == pi(k) at every step of the scan."""
        piles = {}
        incremental_scan(40, Params(p), lambda k, a, c: piles.update({k: c}))
        for k in range(1, 41):
            assert piles[k] == fixed_point(k, Params(p))

    def test_summary_l_global(self):
        """L(p, N), the largest L' over the scan's avalanches, is check_density's l_global."""
        def l_global(n, p):
            holes = []
            incremental_scan(n, Params(p), lambda k, a, c: holes.append(reference.brute_holes(a.fired)))
            return max((hs[-1] + 1 for hs in holes if hs), default=0)

        assert l_global(1, 2) == check_density(2, 1).data["l_global"] == 0
        assert l_global(25, 2) == check_density(2, 25).data["l_global"]
        assert l_global(300, 3) == check_density(3, 300).data["l_global"] > 0

    def test_observer_sees_every_k(self):
        ks = []
        incremental_scan(17, Params(2), lambda k, a, c: ks.append(k))
        assert ks == list(range(1, 18))

    # 4097 is past the relax cutoff, so the plain loop is checked against relax
    @pytest.mark.parametrize("p, n", [(1, 300), (2, 4097), (3, 500), (4, 700)])
    def test_fired_columns_sum_to_shot_vector(self, p, n):
        totals = Counter()
        incremental_scan(n, Params(p), lambda k, a, c: totals.update(a.fired))
        # Counter equality treats missing columns as zero counts
        assert totals == Counter(dict(enumerate(shot_vector(n, Params(p)).counts)))

    @pytest.mark.parametrize("p, n", [(1, 300), (2, 2000), (3, 1000)])
    def test_budget_is_the_scan_total(self, p, n):
        total = incremental_scan(n, Params(p)).total_firings
        assert incremental_scan(n, Params(p), work_limit=total).total_firings == total
        with pytest.raises(WorkLimitExceeded):
            incremental_scan(n, Params(p), work_limit=total - 1)


class TestScanCsv:
    def test_rows(self):
        buf = io.StringIO()
        incremental_scan(5, Params(2), ScanCsvWriter(buf))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,fired_count,max_fired,l_prime,support_width"
        assert len(lines) == 6
        assert lines[1] == "1,0,,0,1"  # empty avalanche: the largest column left blank
        assert lines[3] == "3,1,0,0,3"
