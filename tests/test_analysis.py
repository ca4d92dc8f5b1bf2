"""Wave matchers, plateau and support verifiers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from kspm import (
    Configuration,
    HeightProfile,
    Params,
    decompose_suffix,
    emergence_index,
    fixed_point,
    match_theorem1,
    match_theorem2,
    matches_theorem1_at,
    max_plateau,
    support_report,
    wave_report,
)
from kspm._engine import max_plateau_over_trajectory
from kspm.errors import IndexOutOfRange, InvalidParameter, NotStable
from kspm.verify import rebuild_suffix

import reference


def cfg(diffs, p):
    return Configuration(tuple(diffs), Params(p))


stable_config = st.integers(min_value=1, max_value=4).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(min_value=0, max_value=p), max_size=24),
    )
)


class TestMatchers:
    def test_pile2000_match_index(self):
        c = fixed_point(2000, Params(4))
        assert match_theorem2(c) == 20
        assert match_theorem1(c) == 20

    def test_pile24_matches_only_at_tail(self):
        c = cfg([2, 1, 2, 1, 2], 2)
        assert match_theorem1(c) == 5
        assert match_theorem2(c) == 5

    def test_all_zero(self):
        c = cfg([], 3)
        assert match_theorem1(c) == 0
        assert match_theorem2(c) == 0

    def test_tight_direct_instance(self):
        assert match_theorem2(cfg([2, 1, 0, 2, 1], 2)) == 0

    def test_tight_rejects_double_zero(self):
        assert match_theorem2(cfg([2, 1, 0, 0, 2, 1], 2)) == 4

    def test_loose_accepts_double_zero(self):
        assert match_theorem1(cfg([2, 1, 0, 0, 2, 1], 2)) == 0

    def test_lone_leading_zero_does_not_count(self):
        # the isolated zero must separate two wave blocks
        assert match_theorem2(cfg([1, 0, 2, 1, 2, 1], 2)) == 2

    def test_requires_stable(self):
        with pytest.raises(NotStable):
            match_theorem1(cfg([5], 2))
        with pytest.raises(NotStable):
            match_theorem2(cfg([5], 2))

    @given(stable_config)
    @settings(max_examples=300)
    def test_loose_against_brute_force(self, pc):
        p, diffs = pc
        c = cfg(diffs, p)
        assert match_theorem1(c) == reference.brute_match_index(c.diffs, p, tight=False)

    @given(stable_config)
    @settings(max_examples=300)
    def test_tight_against_brute_force(self, pc):
        p, diffs = pc
        c = cfg(diffs, p)
        assert match_theorem2(c) == reference.brute_match_index(c.diffs, p, tight=True)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_real_piles_against_brute_force(self, p):
        for n in (1, 7, 24, 100, 531, 2000):
            c = fixed_point(n, Params(p))
            assert c.width() <= 200
            assert match_theorem1(c) == reference.brute_match_index(c.diffs, p, False)
            assert match_theorem2(c) == reference.brute_match_index(c.diffs, p, True)

    @given(stable_config)
    @settings(max_examples=200)
    def test_subset_relation(self, pc):
        p, diffs = pc
        c = cfg(diffs, p)
        i1, i2 = match_theorem1(c), match_theorem2(c)
        assert i1 is not None and i2 is not None and i1 <= i2
        # a tight match is a loose match at the same index
        assert matches_theorem1_at(c, i2)

    @given(stable_config)
    @settings(max_examples=200)
    def test_match_at_agrees_with_brute(self, pc):
        p, diffs = pc
        c = cfg(diffs, p)
        for n in range(c.width() + p + 2):
            assert matches_theorem1_at(c, n) == reference.suffix_matches_loose(
                list(c.diffs[n:]), p
            )

    @pytest.mark.parametrize("n", range(-6, 0))
    def test_negative_suffix_index_rejected(self, n):
        c = cfg([2, 1, 0, 2, 1], 2)
        with pytest.raises(IndexOutOfRange):
            decompose_suffix(c, n)
        with pytest.raises(IndexOutOfRange):
            matches_theorem1_at(c, n)

    @pytest.mark.parametrize("n", [1.5, True, False, "1", None])
    def test_non_int_suffix_index_rejected(self, n):
        c = cfg([2, 1, 0, 2, 1], 2)
        with pytest.raises(InvalidParameter):
            decompose_suffix(c, n)
        with pytest.raises(InvalidParameter):
            matches_theorem1_at(c, n)


class TestWaveReport:
    def test_pile2000_decomposition(self):
        report = wave_report(fixed_point(2000, Params(4)))
        assert report.theorem2_index == 20
        assert report.decomposition == ((0, 1), (1, 4))
        assert report.nontrivial

    def test_soundness_regenerates_suffix(self):
        for p, n in ((2, 24), (2, 25), (3, 100), (4, 2000), (5, 3117)):
            c = fixed_point(n, Params(p))
            report = wave_report(c)
            i2 = report.theorem2_index
            assert tuple(c.diffs[i2:]) == rebuild_suffix(report.decomposition, p)

    def test_trivial_tail_report(self):
        report = wave_report(cfg([2, 1, 2, 1, 2], 2))
        assert report.decomposition == ()
        assert not report.nontrivial

    def test_json(self):
        report = wave_report(cfg([2, 1, 0, 2, 1], 2))
        assert '"theorem2_index":0' in report.to_json()

    @given(stable_config)
    @settings(max_examples=200)
    def test_zero_runs_bounded_in_loose_decomposition(self, pc):
        p, diffs = pc
        c = cfg(diffs, p)
        i1 = match_theorem1(c)
        parts = decompose_suffix(c, i1)
        assert all(z <= p + 1 for z, _ in parts)
        assert tuple(c.diffs[i1:]) == rebuild_suffix(parts, p)
        report = wave_report(c)
        assert sum(z for z, _ in report.decomposition) <= 1


class TestEmergenceIndex:
    def test_pile2000_value(self):
        assert emergence_index(fixed_point(2000, Params(4))) == 20

    def test_pile24_value(self):
        assert emergence_index(cfg([2, 1, 2, 1, 2], 2)) == 5

    def test_all_zero(self):
        assert emergence_index(cfg([], 2)) == 0


class TestMaxPlateau:
    def test_pair(self):
        assert max_plateau(HeightProfile((5, 5, 3))) == 2

    def test_pile24_heights(self):
        assert max_plateau(HeightProfile((8, 6, 5, 3, 2))) == 1

    def test_boundary_of_bound(self):
        assert max_plateau(HeightProfile((4, 4, 4, 3))) == 3  # == p+1 for p=2

    def test_empty(self):
        assert max_plateau(HeightProfile(())) == 1

    @pytest.mark.parametrize("p,n_max", [(2, 60), (3, 40)])
    def test_trajectory_tracker_matches_stepwise_reference(self, p, n_max):
        """The engine's inline plateau tracking equals the naive maximum
        over every intermediate height profile."""
        for n in range(1, n_max + 1):
            states = [[n]]
            pile = reference.HeightPile([n], p)
            recorded = []
            pile.leftmost_run(record_diffs=recorded)
            states.extend(recorded)
            naive = max(
                max_plateau(cfg(d, p).heights()) for d in states
            )
            assert max_plateau_over_trajectory(n, p, 10**10) == naive


class TestSupportReport:
    def test_n24(self):
        report = support_report(24, Params(2))
        assert report.width == 5
        assert math.isclose(report.lower, math.sqrt(24) / 2 - 1)
        assert math.isclose(report.upper, 3 * math.sqrt(24) + 3)
        assert report.holds

    def test_pile2000_width(self):
        report = support_report(2000, Params(4))
        assert report.width == 41
        assert report.holds

    def test_single_grain(self):
        report = support_report(1, Params(3))
        assert report.width == 1
        assert report.holds

    def test_json(self):
        assert '"width":5' in support_report(24, Params(2)).to_json()

