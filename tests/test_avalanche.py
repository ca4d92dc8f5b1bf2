"""Avalanche records, the grain-by-grain recurrence, and density columns."""

import io
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kspm import (
    Avalanche,
    Configuration,
    Params,
    ScanCsvWriter,
    add_grain,
    density_column,
    fixed_point,
    holes,
    incremental_scan,
    run_avalanche,
    shot_vector,
)
from kspm import _engine
from kspm.avalanche import steps
from kspm.errors import InvalidParameter, NotStable, WorkLimitExceeded

import reference


def cfg(diffs, p):
    return Configuration(tuple(diffs), Params(p))


class TestAddGrain:
    def test_head_increment(self):
        assert add_grain(cfg([2, 1, 2, 1, 2], 2)).diffs == (3, 1, 2, 1, 2)

    def test_empty(self):
        assert add_grain(cfg([], 2)).diffs == (1,)

    def test_recurrence_single_step(self):
        from kspm import stabilize

        stepped, _ = stabilize(add_grain(fixed_point(24, Params(2))))
        assert stepped == fixed_point(25, Params(2))

    def test_grain_cap(self):
        from kspm import GRAIN_LIMIT
        from kspm.errors import InvalidParameter

        full = Configuration((GRAIN_LIMIT,), Params(2))
        with pytest.raises(InvalidParameter):
            add_grain(full)
        with pytest.raises(InvalidParameter):
            incremental_scan(GRAIN_LIMIT + 1, Params(2))


class TestRunAvalanche:
    def test_k25(self):
        record, result = run_avalanche(fixed_point(24, Params(2)))
        assert record.k == 25
        assert record.fired == (0, 2, 1, 4, 3)
        assert result.diffs == (2, 0, 2, 1, 0, 1, 1)

    def test_first_grain_is_quiet(self):
        record, result = run_avalanche(cfg([], 2))
        assert record.fired == ()
        assert result.diffs == (1,)

    def test_k3(self):
        record, result = run_avalanche(fixed_point(2, Params(2)))
        assert record.fired == (0,)
        assert result.diffs == (0, 0, 1)
        assert result.grain_count() == 3

    def test_k_is_the_new_grain_count(self):
        c = cfg([2, 2], 2)  # stable, 6 grains, not pi(6)
        record, result = run_avalanche(c)
        assert record.k == result.grain_count() == 7
        with pytest.raises(TypeError):
            run_avalanche(c, 25)  # the budget is keyword-only

    def test_requires_stable(self):
        with pytest.raises(NotStable):
            run_avalanche(cfg([5], 2))

    def test_matches_leftmost_stabilize(self):
        from kspm import stabilize

        for p, k in ((2, 25), (3, 50), (4, 101)):
            previous = fixed_point(k - 1, Params(p))
            record, result = run_avalanche(previous)
            stepped, total = stabilize(add_grain(previous), "leftmost")
            assert result == stepped
            assert len(record.fired) == total

    @pytest.mark.parametrize("p,k_max", [(1, 60), (2, 80), (3, 60)])
    def test_replay_and_leftmost_greedy(self, p, k_max):
        """Replaying the fired sequence step by step reproduces the result,
        each fired column is the smallest enabled one, none repeats."""
        params = Params(p)
        current = cfg([], p)
        for k in range(1, k_max + 1):
            record, result = run_avalanche(current)
            assert record.k == k
            assert len(set(record.fired)) == len(record.fired)
            replay = add_grain(current)
            for col in record.fired:
                enabled = replay.enabled_columns()
                assert enabled and col == min(enabled)
                replay = replay.fire(col)
            assert replay == result and replay.is_stable()
            current = result

    @pytest.mark.parametrize("p", [2, 3])
    def test_no_plateau_inside_avalanches(self, p):
        """Every intermediate pile of every avalanche keeps plateaus <= p+1."""
        from kspm import max_plateau

        current = cfg([], p)
        for _ in range(120):
            record, result = run_avalanche(current)
            replay = add_grain(current)
            for col in record.fired:
                replay = replay.fire(col)
                assert max_plateau(replay.heights()) <= p + 1
            current = result


class TestHoles:
    def test_dense(self):
        assert holes(Avalanche(25, (0, 2, 1, 4, 3))) == []

    def test_single_hole(self):
        assert holes(Avalanche(1, (0, 2))) == [1]

    def test_empty(self):
        assert holes(Avalanche(1, ())) == []

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=12))
    def test_against_brute_force(self, fired):
        # the constructor accepts a repeated column; a hole is still listed once
        a = Avalanche(1, tuple(fired))
        assert holes(a) == reference.brute_holes(fired)


class TestDensityColumn:
    def test_dense_from_zero(self):
        a = Avalanche(25, (0, 2, 1, 4, 3))
        assert density_column(a) == 0 and a.max_fired == 4

    def test_hole_at_one(self):
        a = Avalanche(9, (0, 2, 3))
        assert density_column(a) == 2 and a.max_fired == 3

    def test_empty(self):
        a = Avalanche(9, ())
        assert density_column(a) == 0 and a.max_fired is None

    @given(st.sets(st.integers(min_value=0, max_value=30), max_size=12))
    def test_invariants(self, fired):
        a = Avalanche(1, tuple(sorted(fired)))
        lp = density_column(a)
        hs = reference.brute_holes(fired)
        assert type(lp) is int and lp == (max(hs) + 1 if hs else 0)
        if fired:
            assert all(c in set(a.fired) for c in range(lp, a.max_fired + 1))
            assert all(c not in set(a.fired) for c in range(a.max_fired + 1, 33))


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
        summary = incremental_scan(24, Params(2))
        assert summary.final == fixed_point(24, Params(2))
        assert summary.total_firings == 11

    def test_single_grain(self):
        seen = []
        summary = incremental_scan(1, Params(3), lambda k, a, c: seen.append((k, a, c)))
        assert summary.final.diffs == (1,)
        assert seen == [(1, Avalanche(1, ()), cfg([1], 3))]

    def test_pile2000_matches_from_scratch(self):
        summary = incremental_scan(2000, Params(4))
        assert summary.final == fixed_point(2000, Params(4))

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_recurrence_along_the_scan(self, p):
        """pi(add_grain(pi(k-1))) == pi(k) at every step of the scan."""
        piles = {}
        incremental_scan(40, Params(p), lambda k, a, c: piles.update({k: c}))
        for k in range(1, 41):
            assert piles[k] == fixed_point(k, Params(p))

    def test_summary_l_global(self):
        assert incremental_scan(1, Params(2)).l_global == 0
        summary = incremental_scan(25, Params(2))
        lps = []
        incremental_scan(25, Params(2), lambda k, a, c: lps.append(density_column(a)))
        assert summary.l_global == max(lps)

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


class TestDensityOnRealAvalanches:
    @pytest.mark.parametrize("p", [2, 4])
    def test_report_invariants_along_scan(self, p):
        """From L' to max_fired every column fires, and column L' - 1 is a hole."""

        def sink(k, a, c):
            lp = density_column(a)
            if a.fired:
                fired = set(a.fired)
                assert all(col in fired for col in range(lp, a.max_fired + 1))
                assert lp == 0 or lp - 1 not in fired
            else:
                assert lp == 0 and a.max_fired is None

        incremental_scan(300, Params(p), sink)


class TestScanCsv:
    def test_rows(self):
        buf = io.StringIO()
        incremental_scan(5, Params(2), ScanCsvWriter(buf))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,fired_count,max_fired,l_prime,support_width"
        assert len(lines) == 6
        assert lines[1] == "1,0,,0,1"  # empty avalanche: max_fired left blank
        assert lines[3] == "3,1,0,0,3"

    def test_json(self):
        a = Avalanche(25, (0, 2, 1, 4, 3))
        assert a.to_json() == '{"k":25,"fired":[0,2,1,4,3]}'
