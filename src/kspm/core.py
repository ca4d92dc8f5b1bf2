"""Sand pile configurations and the KSPM(p) firing rule.

A pile is an ultimately null sequence of column heights; we store it as
the sequence of height differences b_i = h_i - h_{i+1}, which is the
representation every other module works with.  Column i may fire exactly
when b_i > p; a firing moves p grains one step each onto the p columns to
the right, i.e.

    b[i-1] += p   (absent for i = 0)
    b[i]   -= p + 1
    b[i+p] += 1

The rewriting system has the diamond property, so from any configuration
a unique fixed point is reached and the number of firings is the same for
every strategy.  `stabilize` exposes leftmost, rightmost, and seeded
random strategies so that this strong convergence can be exercised rather
than assumed.

Values are immutable after construction and all operations are pure, so
they can be shared freely across threads; parallelism belongs above this
module (e.g. independent (p, N) sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import _engine
from .errors import (
    FiringNotEnabled,
    IndexOutOfRange,
    InvalidParameter,
    NotMonotone,
)

DEFAULT_WORK_LIMIT = _engine.DEFAULT_WORK_LIMIT
GRAIN_LIMIT = _engine.GRAIN_LIMIT

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"


def check_grains(grains: int, minimum: int = 0, p: int | None = None) -> None:
    """Reject a grain count that is not an int in minimum..GRAIN_LIMIT (InvalidParameter).

    Given `p`, also reject more than p grains when p + 1 exceeds the
    engines' cell limit: the first firing would need p + 1 columns.
    """
    if type(grains) is not int or grains < minimum:
        raise InvalidParameter(f"grain count must be an int >= {minimum}, got {grains!r}")
    if grains > GRAIN_LIMIT:
        raise InvalidParameter(f"grain count {grains} exceeds limit 2**40")
    if p is not None and grains > p and p + 1 > _engine._RELAX_MAX_CELLS:
        raise InvalidParameter(
            f"p={p} with {grains} grains needs {p + 1} columns, "
            f"more than the limit {_engine._RELAX_MAX_CELLS}"
        )


def check_limit(work_limit: int) -> None:
    """Reject a firing budget that is not an int >= 1 (InvalidParameter)."""
    if type(work_limit) is not int or work_limit < 1:
        raise InvalidParameter(f"firing budget must be an int >= 1, got {work_limit!r}")


def check_index(i: int, what: str) -> None:
    """Reject an index that is not an int (InvalidParameter) or is negative (IndexOutOfRange)."""
    if type(i) is not int:
        raise InvalidParameter(f"{what} must be an int, got {i!r}")
    if i < 0:
        raise IndexOutOfRange(f"{what} must be >= 0, got {i}")


def _naturals(values: Iterable[int], what: str) -> tuple[int, ...]:
    """`values` with trailing zeros trimmed; each must be an int >= 0, not a bool."""
    vs = tuple(values)
    for v in vs:
        if type(v) is not int or v < 0:
            raise InvalidParameter(f"{what} must be a non-negative int, got {v!r}")
    end = len(vs)
    while end and vs[end - 1] == 0:
        end -= 1
    return vs[:end]


@dataclass(frozen=True)
class Params:
    """Model parameter: p grains fall at each firing."""

    p: int

    def __post_init__(self) -> None:
        if type(self.p) is not int or self.p < 1:
            raise InvalidParameter(f"p must be a positive integer, got {self.p!r}")


@dataclass(frozen=True)
class RandomStrategy:
    """Fire uniformly among enabled columns, driven by a seeded PRNG."""

    seed: int

    def __post_init__(self) -> None:
        if type(self.seed) is not int:  # None would draw it from OS entropy: not reproducible
            raise InvalidParameter(f"seed must be an int, got {self.seed!r}")


@dataclass(frozen=True)
class HeightProfile:
    """Column heights: non-increasing, ultimately null."""

    heights: tuple[int, ...]

    def __post_init__(self) -> None:
        hs = _naturals(self.heights, "height")
        object.__setattr__(self, "heights", hs)
        for prev, h in zip(hs, hs[1:]):
            if h > prev:
                raise NotMonotone(f"heights increase: {prev} -> {h}")


@dataclass(frozen=True)
class Configuration:
    """Height-difference form of a pile, trailing zeros trimmed."""

    diffs: tuple[int, ...]
    params: Params

    def __post_init__(self) -> None:
        object.__setattr__(self, "diffs", _naturals(self.diffs, "height difference"))

    # -- constructors ------------------------------------------------

    @classmethod
    def _trusted(cls, diffs: tuple[int, ...], params: Params) -> "Configuration":
        # engine output is already normalized non-negative ints; skip the
        # per-element validation, which would dominate streaming scans
        obj = object.__new__(cls)
        object.__setattr__(obj, "diffs", diffs)
        object.__setattr__(obj, "params", params)
        return obj

    # -- basic queries -----------------------------------------------

    def width(self) -> int:
        """Number of columns before the all-zero tail."""
        return len(self.diffs)

    def is_stable(self) -> bool:
        return max(self.diffs, default=0) <= self.params.p

    def enabled_columns(self) -> list[int]:
        p = self.params.p
        return [i for i, v in enumerate(self.diffs) if v > p]

    def grain_count(self) -> int:
        """Total grains sum((i+1) * b_i); invariant under firing."""
        return sum((i + 1) * v for i, v in enumerate(self.diffs))

    def heights(self) -> HeightProfile:
        hs = []
        acc = 0
        for v in reversed(self.diffs):
            acc += v
            hs.append(acc)
        return HeightProfile(tuple(reversed(hs)))

    def to_text(self) -> str:
        return " ".join(str(v) for v in self.diffs)

    # -- dynamics ----------------------------------------------------

    def fire(self, i: int) -> "Configuration":
        """Apply the rule at column i.  Requires b_i > p."""
        check_index(i, "column index")
        p = self.params.p
        ds = self.diffs
        v = ds[i] if i < len(ds) else 0
        if v <= p:
            raise FiringNotEnabled(f"column {i} has b={v} <= p={p}")
        b = list(ds) + [0] * (i + p + 1 - len(ds))
        b[i] -= p + 1
        if i:
            b[i - 1] += p
        b[i + p] += 1
        return Configuration(tuple(b), self.params)


def stabilize(
    c: Configuration,
    strategy: str | RandomStrategy = LEFTMOST,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> tuple[Configuration, int]:
    """Run the pile to its fixed point; returns (fixed point, total firings).

    Both results are strategy-independent (strong convergence); the
    strategy only selects the firing order actually executed.
    """
    check_grains(c.grain_count(), p=c.params.p)
    check_limit(work_limit)
    b = list(c.diffs)
    p = c.params.p
    if strategy == LEFTMOST:
        total = _engine.leftmost(b, p, work_limit)
    elif strategy == RIGHTMOST:
        total = _engine.worklist(b, p, work_limit)
    elif isinstance(strategy, RandomStrategy):
        total = _engine.worklist(b, p, work_limit, strategy.seed)
    else:
        raise InvalidParameter(f"unknown strategy {strategy!r}")
    return Configuration._trusted(tuple(b), c.params), total


def fixed_point(
    grains: int, params: Params, work_limit: int = DEFAULT_WORK_LIMIT
) -> Configuration:
    """Fixed point of `grains` stacked on column 0."""
    return _single_pile(grains, params, work_limit)[0]


def _single_pile(grains: int, params: Params, work_limit: int) -> tuple[Configuration, list[int]]:
    """The checked entry for the single pile: (pi(grains), its shot vector)."""
    check_grains(grains, p=params.p)
    check_limit(work_limit)
    b, shots, _ = _engine.pile_with_shots(grains, params.p, work_limit)
    return Configuration._trusted(tuple(b), params), shots
