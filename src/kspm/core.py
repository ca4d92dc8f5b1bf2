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
every firing order.  `stabilize` fires leftmost; `verify.check_confluence`
runs the rightmost and seeded random orders against it.

Values are immutable after construction and all operations are pure, so
they can be shared freely across threads; parallelism belongs above this
module (e.g. independent (p, N) sweeps).
"""

from __future__ import annotations

import operator
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


class _Value:
    """A frozen record: the subclass's `__init__` fills its `__slots__` by object.__setattr__.
    Records are equal when of one class with equal fields; hash, repr and pickle go by field."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = operator.attrgetter(*cls.__slots__)  # one C call reads every field

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self.__slots__)


class Params(_Value):
    """Model parameter: p grains fall at each firing."""

    __slots__ = ("p",)
    def __init__(self, p: int) -> None:
        if type(p) is not int or p < 1:
            raise InvalidParameter(f"p must be a positive integer, got {p!r}")
        object.__setattr__(self, "p", p)


class HeightProfile(_Value):
    """Column heights: non-increasing, ultimately null."""

    __slots__ = ("heights",)
    def __init__(self, heights: tuple[int, ...]) -> None:
        hs = _naturals(heights, "height")
        for prev, h in zip(hs, hs[1:]):
            if h > prev:
                raise NotMonotone(f"heights increase: {prev} -> {h}")
        object.__setattr__(self, "heights", hs)


class Configuration(_Value):
    """Height-difference form of a pile, trailing zeros trimmed."""

    __slots__ = ("diffs", "params")
    def __init__(self, diffs: tuple[int, ...], params: Params) -> None:
        object.__setattr__(self, "diffs", _naturals(diffs, "height difference"))
        object.__setattr__(self, "params", params)

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
    c: Configuration, work_limit: int = DEFAULT_WORK_LIMIT
) -> tuple[Configuration, int]:
    """Run the pile to its fixed point, firing leftmost; returns (fixed point,
    total firings), which every firing order shares (strong convergence)."""
    check_grains(c.grain_count(), p=c.params.p)
    check_limit(work_limit)
    b = list(c.diffs)
    total = _engine.leftmost(b, c.params.p, work_limit)
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
