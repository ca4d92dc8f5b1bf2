"""Firing rule, stabilization, conversions, and their invariants."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from kspm import (
    DEFAULT_WORK_LIMIT,
    Configuration,
    HeightProfile,
    Params,
    fixed_point,
    incremental_scan,
    pile,
    shot_vector,
    stabilize,
    verify,
)
from kspm import _engine
from kspm.avalanche import steps
from kspm.errors import (
    FiringNotEnabled,
    IndexOutOfRange,
    InvalidParameter,
    KSPMError,
    NotMonotone,
    WorkLimitExceeded,
)

import reference


def cfg(diffs, p):
    return Configuration(tuple(diffs), Params(p))


small_config = st.integers(min_value=1, max_value=5).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(min_value=0, max_value=3 * p + 3), max_size=12),
    )
)


class TestParams:
    def test_p_must_be_positive(self):
        with pytest.raises(InvalidParameter):
            Params(0)

    def test_bool_rejected(self):
        with pytest.raises(InvalidParameter):
            Params(True)
        with pytest.raises(InvalidParameter):
            Params(-3)

    def test_p_one_is_fine(self):
        assert Params(1).p == 1


class TestFire:
    def test_interior_column(self):
        assert cfg([3, 1, 2, 1, 2], 2).fire(0).diffs == (0, 1, 3, 1, 2)

    def test_with_left_neighbor(self):
        assert cfg([0, 3, 0, 1, 3], 2).fire(1).diffs == (2, 0, 0, 2, 3)

    @pytest.mark.parametrize("p", [1, 2, 3, 7])
    def test_minimal_enabled_pile(self, p):
        out = cfg([p + 1], p).fire(0)
        assert out.diffs == tuple([0] * p + [1])

    def test_not_enabled(self):
        with pytest.raises(FiringNotEnabled):
            cfg([2, 1], 2).fire(0)
        with pytest.raises(FiringNotEnabled):
            cfg([3], 2).fire(5)  # beyond the support: b = 0

    @pytest.mark.parametrize("i", [1.5, True, "0"])
    def test_index_must_be_int(self, i):
        with pytest.raises(InvalidParameter):
            cfg([0, 3], 2).fire(i)  # column 1 is enabled

    def test_negative_index(self):
        with pytest.raises(IndexOutOfRange):
            cfg([9], 2).fire(-1)

    @given(small_config, st.data())
    def test_conservation(self, pc, data):
        p, diffs = pc
        c = cfg(diffs, p)
        enabled = c.enabled_columns()
        if not enabled:
            return
        i = data.draw(st.sampled_from(enabled))
        assert c.fire(i).grain_count() == c.grain_count()

    @given(small_config, st.data())
    def test_diamond(self, pc, data):
        p, diffs = pc
        c = cfg(diffs, p)
        enabled = c.enabled_columns()
        if len(enabled) < 2:
            return
        i = data.draw(st.sampled_from(enabled))
        j = data.draw(st.sampled_from([e for e in enabled if e != i]))
        assert c.fire(i).fire(j) == c.fire(j).fire(i)

    @given(small_config, st.data())
    def test_fire_matches_height_rule(self, pc, data):
        p, diffs = pc
        c = cfg(diffs, p)
        enabled = c.enabled_columns()
        if not enabled:
            return
        i = data.draw(st.sampled_from(enabled))
        pile = reference.HeightPile(reference.heights_from_diffs(list(c.diffs)), p)
        pile.fire(i)
        assert list(c.fire(i).diffs) == pile.diffs()


class TestStability:
    def test_known_fixed_point_is_stable(self):
        assert cfg([2, 1, 2, 1, 2], 2).is_stable()

    def test_unstable(self):
        assert not cfg([3, 1, 2], 2).is_stable()

    def test_empty_is_stable(self):
        for p in (1, 2, 9):
            assert cfg([], p).is_stable()


class TestStabilize:
    def test_pile_24(self):
        c, total = stabilize(cfg([24], 2))
        assert c.diffs == (2, 1, 2, 1, 2)
        assert total == 11  # sum of the shot vector (8, 1, 2)

    def test_already_stable(self):
        for p in (1, 3):
            c, total = stabilize(cfg([p], p))
            assert c.diffs == (p,) and total == 0

    # worklist's rightmost (seed None) and seeded random orders against leftmost;
    # check_confluence runs them only from single piles [N]
    @pytest.mark.parametrize("seed", [None, 7], ids=["rightmost", "strategy1"])
    def test_strategies_agree(self, seed):
        for n in (5, 24, 100, 237):
            base, alt = [n], [n]
            base_total = _engine.leftmost(base, 3, DEFAULT_WORK_LIMIT)
            alt_total = _engine.worklist(alt, 3, DEFAULT_WORK_LIMIT, seed)
            assert alt == base and alt_total == base_total

    @given(small_config)
    @settings(max_examples=40)
    def test_confluence_from_arbitrary_start(self, pc):
        p, diffs = pc
        b = list(cfg(diffs, p).diffs)
        ref = list(b)
        ref_total = _engine.leftmost(ref, p, DEFAULT_WORK_LIMIT)
        for seed in (None, 0, 123):
            alt = list(b)
            alt_total = _engine.worklist(alt, p, DEFAULT_WORK_LIMIT, seed)
            assert alt == ref and alt_total == ref_total

    @given(small_config)
    @settings(max_examples=40)
    def test_result_is_stable_and_conserves(self, pc):
        p, diffs = pc
        c = cfg(diffs, p)
        out, _ = stabilize(c)
        assert out.is_stable()
        assert out.grain_count() == c.grain_count()
        assert all(v <= p for v in out.diffs)

    @given(small_config)
    @settings(max_examples=30)
    def test_matches_height_rule_oracle(self, pc):
        p, diffs = pc
        c = cfg(diffs, p)
        pile = reference.HeightPile(reference.heights_from_diffs(list(c.diffs)), p)
        naive_total = pile.leftmost_run()
        out, total = stabilize(c)
        assert list(out.diffs) == pile.diffs()
        assert total == naive_total

    @given(small_config)
    @settings(max_examples=60)
    def test_leftmost_records_match_height_rule_oracle(self, pc):
        from kspm._engine import leftmost

        p, diffs = pc
        c = cfg(diffs, p)
        enabled = c.enabled_columns()
        assume(len(enabled) >= 2)
        b = list(c.diffs)
        fired: list[int] = []
        total = leftmost(b, p, 10**10, fired)
        pile = reference.HeightPile(reference.heights_from_diffs(list(c.diffs)), p)
        order = []
        while pile.enabled():
            order.append(pile.enabled()[0])
            pile.fire(order[-1])
        assert fired == order and total == len(order)
        assert b == pile.diffs()

    def test_work_limit(self):
        with pytest.raises(WorkLimitExceeded):
            stabilize(cfg([10**6], 2), work_limit=10)


class TestFixedPoint:
    def test_n24(self):
        assert fixed_point(24, Params(2)).diffs == (2, 1, 2, 1, 2)

    def test_n25(self):
        c = fixed_point(25, Params(2))
        assert c.diffs == (2, 0, 2, 1, 0, 1, 1)
        assert c.grain_count() == 25

    def test_zero(self):
        assert fixed_point(0, Params(5)).diffs == ()

    def test_matches_stabilize(self):
        for p in (1, 2, 4):
            for n in (1, 13, 377, 1029):
                assert fixed_point(n, Params(p)) == stabilize(cfg([n], p))[0]

    def test_large_uses_batched_engine_consistently(self):
        # straddle the engine cutoff: both sides must agree
        for n in (4095, 4096, 4097, 9001):
            direct, _ = stabilize(cfg([n], 3))
            assert fixed_point(n, Params(3)) == direct

    def test_batched_engine_midsize_agreement(self):
        from kspm import shot_vector
        from kspm._engine import leftmost

        n, p = 20000, 3
        b = [n]
        fired: list[int] = []
        total = leftmost(b, p, 10**10, fired)
        shots = reference.shot_counts(fired)
        assert fixed_point(n, Params(p)).diffs == tuple(b)
        sv = shot_vector(n, Params(p))
        assert sv.counts == tuple(shots)
        assert total == sum(shots)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            fixed_point(-1, Params(2))
        with pytest.raises(InvalidParameter):
            fixed_point((1 << 40) + 1, Params(2))

    def test_p_wider_than_cell_limit_rejected(self, monkeypatch):
        from kspm import _engine, incremental_scan, pile

        # stands in for a real huge p: p + 1 columns exceed the cell limit
        monkeypatch.setattr(_engine, "_RELAX_MAX_CELLS", 1000)
        p = 2000
        params = Params(p)
        for call in (
            lambda: fixed_point(p + 1, params),
            lambda: pile(p + 1, params),
            lambda: stabilize(cfg([p + 1], p)),
            lambda: incremental_scan(p + 1, params),
        ):
            with pytest.raises(InvalidParameter):
                call()
        # no column fires, so nothing grows
        assert fixed_point(p, params).diffs == (p,)

    def test_huge_p_stays_cheap(self):
        # width bound ~(p+1)*sqrt(N) is enormous here, but the realized
        # support is tiny; must not try to preallocate for the bound
        p = 10**6
        assert fixed_point(5000, Params(p)).diffs == (5000,)
        c = fixed_point(2 * p, Params(p))
        assert c.diffs[0] == p - 1 and c.diffs[p] == 1
        assert c.grain_count() == 2 * p


class TestHeights:
    def test_suffix_sums(self):
        assert cfg([2, 1, 2, 1, 2], 2).heights().heights == (8, 6, 5, 3, 2)

    def test_empty(self):
        assert cfg([], 1).heights().heights == ()

    def test_single_column(self):
        assert cfg([7], 2).heights().heights == (7,)

    def test_not_monotone(self):
        with pytest.raises(NotMonotone):
            HeightProfile((1, 3))

    @given(small_config)
    def test_against_reference(self, pc):
        p, diffs = pc
        c = cfg(diffs, p)
        assert list(c.heights().heights) == reference.heights_from_diffs(list(c.diffs))


class TestGrainCount:
    def test_pile24_value(self):
        assert cfg([2, 1, 2, 1, 2], 2).grain_count() == 24

    def test_single_pile(self):
        assert Configuration((417,), Params(3)).grain_count() == 417

    def test_pile2000_value(self):
        assert fixed_point(2000, Params(4)).grain_count() == 2000


class TestSerialization:
    def test_text(self):
        assert cfg([2, 1, 2, 1, 2], 2).to_text() == "2 1 2 1 2"

    def test_empty_text(self):
        assert cfg([], 4).to_text() == ""


class TestNormalization:
    def test_trailing_zeros_trimmed(self):
        assert cfg([1, 0, 2, 0, 0], 2).diffs == (1, 0, 2)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameter):
            cfg([1, -1], 2)

    def test_floats_not_truncated(self):
        with pytest.raises(InvalidParameter):
            Configuration([2.7, 1.9], Params(2))

    def test_heights_must_be_ints(self):
        with pytest.raises(InvalidParameter):
            HeightProfile((3.5, 1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: pile(10.5, Params(2)),
            lambda: fixed_point(True, Params(2)),
            lambda: fixed_point(24.0, Params(2)),
            lambda: list(steps(3.5, 2)),
            lambda: incremental_scan("5", Params(2)),
            lambda: verify.check_support(2, True),
            lambda: verify.check_density(2, 5.5),
            lambda: verify.check_plateau(2, 5.5),
            lambda: verify.check_confluence(2, 5.5),
            lambda: verify.check_recurrence(2, 5.5),
            lambda: verify.check_spectrum(3.0),
        ],
        ids=[
            "pile-float", "fixed_point-bool", "fixed_point-float", "steps-float",
            "incremental_scan-str", "check_support-bool", "check_density-float",
            "check_plateau-float", "check_confluence-float", "check_recurrence-float",
            "check_spectrum-float",
        ],
    )
    def test_grain_counts_must_be_ints(self, call):
        with pytest.raises(InvalidParameter):
            call()

    @given(
        st.lists(st.integers(min_value=0, max_value=10**12), max_size=12),
        st.one_of(st.floats(), st.text(), st.booleans()),
        st.data(),
    )
    def test_only_non_negative_ints_accepted(self, diffs, bad, data):
        c = Configuration(diffs, Params(2))
        trimmed = list(diffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert list(c.diffs) == trimmed
        at = data.draw(st.integers(min_value=0, max_value=len(diffs)))
        with pytest.raises(InvalidParameter):
            Configuration(diffs[:at] + [bad] + diffs[at:], Params(2))


LIMITED_ENTRIES = {
    "stabilize": lambda w: stabilize(cfg([24], 2), work_limit=w),
    "fixed_point": lambda w: fixed_point(24, Params(2), w),
    "pile": lambda w: pile(24, Params(2), w),
    "steps": lambda w: list(steps(30, 2, w)),
    "steps-start": lambda w: list(steps(1, 2, w, 5)),
    "incremental_scan": lambda w: incremental_scan(30, Params(2), work_limit=w),
    "check_confluence": lambda w: verify.check_confluence(2, 5, 1, 0, w),
    "check_plateau": lambda w: verify.check_plateau(2, 5, w),
}


@pytest.mark.parametrize("limit", [None, "5", 1.5, True, 0, -5])
@pytest.mark.parametrize("entry", LIMITED_ENTRIES)
def test_work_limit_must_be_an_int_at_least_1(entry, limit):
    # the rule KSPM_WORK_LIMIT follows; a bad budget is not an exceeded one
    with pytest.raises(InvalidParameter):
        LIMITED_ENTRIES[entry](limit)


SINGLE_PILE_ENTRIES = {"fixed_point": fixed_point, "pile": pile, "shot_vector": shot_vector}


def _single_pile_errors(grains, p=2, work_limit=10**10):
    """(type, message) of what each single-pile entry raises for these arguments."""
    got = {}
    for name, entry in SINGLE_PILE_ENTRIES.items():
        with pytest.raises(KSPMError) as info:
            entry(grains, Params(p), work_limit)
        got[name] = (type(info.value), str(info.value))
    return got


@pytest.mark.parametrize(
    "grains, message",
    [
        (-1, "grain count must be an int >= 0, got -1"),
        (10.5, "grain count must be an int >= 0, got 10.5"),
        (True, "grain count must be an int >= 0, got True"),
        ("5", "grain count must be an int >= 0, got '5'"),
        ((1 << 40) + 1, "grain count 1099511627777 exceeds limit 2**40"),
    ],
)
def test_single_pile_entries_reject_grains_alike(grains, message):
    errors = _single_pile_errors(grains)
    assert set(errors.values()) == {(InvalidParameter, message)}, errors


def test_single_pile_entries_reject_p_wider_than_cell_limit_alike(monkeypatch):
    from kspm import _engine

    monkeypatch.setattr(_engine, "_RELAX_MAX_CELLS", 1000)
    p = 2000
    message = f"p={p} with {p + 1} grains needs {p + 1} columns, more than the limit 1000"
    errors = _single_pile_errors(p + 1, p)
    assert set(errors.values()) == {(InvalidParameter, message)}, errors


@pytest.mark.parametrize("limit", [0, None, True])
def test_single_pile_entries_reject_work_limits_alike(limit):
    errors = _single_pile_errors(24, work_limit=limit)
    message = f"firing budget must be an int >= 1, got {limit!r}"
    assert set(errors.values()) == {(InvalidParameter, message)}, errors
