"""Wave matchers, plateau and support verifiers."""

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from kspm import (
    Configuration,
    analysis,
    HeightProfile,
    P_LIMIT,
    Params,
    decompose_suffix,
    emergence_index,
    fixed_point,
    match_theorem1,
    match_theorem2,
    matches_theorem1_at,
    max_plateau,
    wave_report,
)
from kspm.avalanche import steps
from kspm._engine import DEFAULT_WORK_LIMIT, max_plateau_over_trajectory, pile_with_shots
from kspm.errors import IndexOutOfRange, InvalidParameter, NoMatch, NotStable, WorkLimitExceeded
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

# zero runs up to p + 3 long, waves and single differences, in any order
wave_blocks = st.integers(min_value=1, max_value=4).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(
            st.one_of(
                st.integers(0, p + 3).map(lambda z: [0] * z),
                st.just(list(range(p, 0, -1))),
                st.integers(0, p).map(lambda v: [v]),
            ),
            max_size=8,
        ).map(lambda blocks: sum(blocks, [])),
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

    def test_decompose_rejects_a_zero_run_past_p_plus_1(self):
        c = cfg([2, 1, 0, 0, 0, 0, 2, 1], 2)
        assert not matches_theorem1_at(c, 0)
        with pytest.raises(NoMatch):
            decompose_suffix(c, 0)
        assert decompose_suffix(c, 3) == ((3, 1),)  # p + 1 zeros still parse

    @given(wave_blocks)
    @settings(max_examples=300)
    def test_decompose_succeeds_iff_loose_match(self, pc):
        p, diffs = pc
        c = cfg(diffs, p)
        for n in range(c.width() + 2):
            try:
                decompose_suffix(c, n)
            except NoMatch:
                parsed = False
            else:
                parsed = True
            assert parsed == matches_theorem1_at(c, n), n

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

    @pytest.mark.parametrize("p", [40, 92, 124, 300])  # chr(40), chr(92), chr(124): ( \ |
    def test_large_p_against_brute_force(self, p):
        """Waves whose code points need regex escaping or lie above 255."""
        rng = random.Random(p)
        wave = list(range(p, 0, -1))
        piles = [wave[:-1] + [257] + wave] if p > 256 else []  # a byte would read 257 as 1
        for _ in range(5):
            # noise, then blocks of zeros and waves; a lone zero and the loose
            # form's limit of p+1 zeros are the edges, and noise may cut in
            diffs = [rng.randint(0, p) for _ in range(rng.randint(0, 2))]
            for _ in range(rng.randint(1, 3)):
                diffs += [0] * rng.choice([0, 1, 1, p + 1, p + 2, rng.randint(0, p + 3)])
                diffs += wave * rng.randint(1, 2)
            if rng.randrange(3) == 0:
                diffs.insert(rng.randint(0, len(diffs)), rng.randint(0, p))
            piles.append(diffs)
        for diffs in piles:
            c = cfg(diffs, p)
            assert match_theorem1(c) == reference.brute_match_index(c.diffs, p, tight=False)
            assert match_theorem2(c) == reference.brute_match_index(c.diffs, p, tight=True)
            for n in range(c.width() + 2):
                assert matches_theorem1_at(c, n) == reference.suffix_matches_loose(
                    list(c.diffs[n:]), p
                )

    def test_p_past_the_code_point_range_rejected(self):
        # Params bounds p below chr's range, so no pile reaches the matchers
        # with a difference that has no code point
        assert P_LIMIT <= sys.maxunicode
        with pytest.raises(InvalidParameter, match=r"^p 1114112 exceeds limit 2\*\*20$"):
            Params(0x110000)


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

    @pytest.mark.parametrize(
        "p, indices",
        [
            (2, [(11, 12), (13, 13), (15, 15), (17, 17)]),
            (3, [(13, 14), (19, 19), (19, 19), (21, 21)]),
            (4, [(17, 17), (21, 21), (25, 26), (28, 28)]),
        ],
    )
    def test_emergence_table(self, p, indices):
        """The README's wave-emergence table at N = 2^10, 2^12, 2^14, 2^16."""
        reports = [wave_report(fixed_point(2**k, Params(p))) for k in (10, 12, 14, 16)]
        assert [(r.theorem1_index, r.theorem2_index) for r in reports] == indices

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

    @pytest.mark.parametrize("p, grains", [*((p, 3000) for p in range(1, 7)), (13, 1000)])
    def test_density_index_at_every_scan_pile(self, p, grains):
        """The index `check_density` reads off `steps`' live pile, against the public matcher."""
        for *_, b in steps(grains, p):
            assert analysis._tight_index(b, p) == emergence_index(cfg(b, p))


class TestMaxPlateau:
    def test_pair(self):
        assert max_plateau(HeightProfile((5, 5, 3))) == 2

    def test_pile24_heights(self):
        assert max_plateau(HeightProfile((8, 6, 5, 3, 2))) == 1

    def test_boundary_of_bound(self):
        assert max_plateau(HeightProfile((4, 4, 4, 3))) == 3  # == p+1 for p=2

    def test_empty(self):
        assert max_plateau(HeightProfile(())) == 1

    @pytest.mark.parametrize("p,n_max", [(2, 60), (3, 40), (1, 100), (4, 120), (6, 120),
                                         (5, 72), (7, 64), (8, 81)])
    def test_trajectory_tracker_matches_stepwise_reference(self, p, n_max):
        """The engine's inline plateau tracking equals the naive maximum
        over every intermediate height profile.  Each range holds N = 0 and
        1 (mod p+1) past 2(p+1), where column 0's opening burst, set at once
        but for its last firing, empties column 0 or leaves one grain there."""
        assert n_max >= 4 * (p + 1)
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

    @pytest.mark.parametrize("n,p", [(300, 2), (120, 4)])
    def test_trajectory_tracker_budget(self, n, p):
        """The tracker fires exactly the pile's firings against its budget."""
        total = sum(pile_with_shots(n, p, DEFAULT_WORK_LIMIT)[1])
        assert max_plateau_over_trajectory(n, p, total) <= p + 1
        with pytest.raises(WorkLimitExceeded):
            max_plateau_over_trajectory(n, p, total - 1)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_budget_around_the_opening_burst(self, p):
        """With F = N // (p+1) firings of column 0 first, the budgets F - 1, F,
        F + 1, total - 1 and total raise exactly when the run fires more."""
        for n in [f * (p + 1) + r for f in (1, 2, 3, p + 2, 3 * p + 5) for r in (0, 1, p)]:
            total = sum(pile_with_shots(n, p, DEFAULT_WORK_LIMIT)[1])
            longest = max_plateau_over_trajectory(n, p, DEFAULT_WORK_LIMIT)
            burst = n // (p + 1)
            for limit in (burst - 1, burst, burst + 1, total - 1, total):
                if limit < total:
                    with pytest.raises(WorkLimitExceeded):
                        max_plateau_over_trajectory(n, p, limit)
                else:
                    assert max_plateau_over_trajectory(n, p, limit) == longest


class TestSupportLimits:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_formulas(self, p):
        """`_support_limits`, which `check_support` reads, against its two formulas."""
        for k in range(1, 3001):
            root = math.sqrt(k)
            assert analysis._support_limits(k, p) == (root / p - 1.0, (p + 1) * root + p + 1.0)

