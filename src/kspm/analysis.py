"""Pattern structure of fixed points: waves, plateaus and support.

A *wave* is the height-difference pattern p, p-1, ..., 2, 1.  Stable
piles eventually decompose into waves; two suffix languages capture this:

  * loose form: repetitions of (up to p+1 zeros, then one wave), then the
    all-zero tail;
  * tight form: waves packed back to back, with at most one single zero
    separating two wave blocks, then the all-zero tail.

`match_theorem1` / `match_theorem2` return the smallest suffix start
matching the loose/tight form: the width less the longest match of a
regular expression over the pile reversed into a `str`, one code point
chr(v) per difference.  With RW = chr(1) ... chr(p), the reversed wave:
loose (?:RW\x00{0,p+1})*, tight (?:(?:RW)+\x00(?=RW))?(?:RW)*.  The
greedy match is the longest: RW starts with \x01, so the loose form's
zero count is forced and nothing backtracks, and the tight group, (RW)+
then \x00 then a wave, is taken exactly when a lone zero joins two wave
blocks.  `_forms(p)` compiles both once per p, about 6 us per unit of p
(0.5-0.7 s at p = 10^5; a wave needs p(p+1)(p+2)/6 grains, so no pile within
GRAIN_LIMIT holds one past p of about 18,750); `Params` bounds p by P_LIMIT =
2**20, so every difference fits one code point.  The all-zero tail, index
`width`, matches both forms, so the matchers return a plain `int`.

The tight form deliberately requires the isolated zero to sit strictly
between two wave blocks (a leading lone zero does not count); a zero
adjacent to the tail merges with it, so nothing is lost on that side.

Plateaus (runs of equal-height non-empty columns) and the support width
give the complementary coarse checks: no reachable pile has a plateau
longer than p+1 (the proof is in `_engine.max_plateau_over_trajectory`),
and the fixed-point width sits strictly between sqrt(N)/p - 1 and
(p+1)*sqrt(N) + p + 1.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Sequence

from .core import Configuration, HeightProfile, _Value, check_index
from .errors import NoMatch, NotStable


class WaveReport(_Value):
    """Wave structure of a stable configuration's suffix: `decomposition` holds (zero-run,
    wave count) pairs; `nontrivial`, that the loose match covers at least one wave."""

    __slots__ = ("theorem1_index", "theorem2_index", "decomposition", "nontrivial")
    def __init__(self, theorem1_index: int, theorem2_index: int,
                 decomposition: tuple[tuple[int, int], ...], nontrivial: bool) -> None:
        object.__setattr__(self, "theorem1_index", theorem1_index)
        object.__setattr__(self, "theorem2_index", theorem2_index)
        object.__setattr__(self, "decomposition", decomposition)
        object.__setattr__(self, "nontrivial", nontrivial)


@functools.cache
def _forms(p: int) -> tuple[re.Pattern[str], re.Pattern[str]]:
    """(loose, tight) patterns over a reversed pile, one code point per difference."""
    rw = re.escape("".join(map(chr, range(1, p + 1))))
    loose = f"(?:{rw}\\x00{{0,{p + 1}}})*"
    return re.compile(loose), re.compile(f"(?:(?:{rw})+\\x00(?={rw}))?(?:{rw})*")


def _stable(c: Configuration) -> tuple[int, ...]:
    if not c.is_stable():
        raise NotStable("pattern matching is defined on stable configurations")
    return c.diffs


def _scan(c: Configuration) -> tuple[str, re.Pattern[str], re.Pattern[str]]:
    """(reversed pile, loose, tight) of a stable configuration."""
    return "".join(map(chr, reversed(_stable(c)))), *_forms(c.params.p)


def _decompose(b: Sequence[int], p: int, n: int) -> tuple[tuple[int, int], ...]:
    """Parse the suffix from n by comparing slices with the wave, not by the patterns."""
    wave = tuple(range(p, 0, -1))
    m = len(b)
    out: list[tuple[int, int]] = []
    j = n
    while j < m:
        zeros = j
        while j < m and b[j] == 0:
            j += 1
        waves = j
        if waves - zeros > p + 1:
            raise NoMatch(f"{waves - zeros} zeros at column {zeros}, more than p + 1")
        while b[j : j + p] == wave:
            j += p
        if j == waves:
            raise NoMatch(f"no wave at column {j}")
        out.append((waves - zeros, (j - waves) // p))
    return tuple(out)


def match_theorem1(c: Configuration) -> int:
    """Smallest n whose suffix is (up to p+1 zeros, then a wave)* then 0^omega."""
    s, loose, _ = _scan(c)
    return len(s) - loose.match(s).end()


def match_theorem2(c: Configuration) -> int:
    """Smallest n whose suffix is waves, at most one lone zero between two
    wave blocks, waves again, then 0^omega."""
    return _tight_index(_stable(c), c.params.p)


def _tight_index(b: Sequence[int], p: int) -> int:
    """`match_theorem2` of a pile the caller knows is stable, with no copy or check."""
    s = "".join(map(chr, reversed(b)))
    return len(s) - _forms(p)[1].match(s).end()


# the density bound's name for the tight index
emergence_index = match_theorem2


def decompose_suffix(c: Configuration, n: int) -> tuple[tuple[int, int], ...]:
    """(zero-run length, wave count) pairs covering the suffix from n.

    Raises NoMatch when the suffix does not parse into zero runs and
    waves, i.e. when n is not a match index of the loose form,
    InvalidParameter when n is not an int and IndexOutOfRange when n < 0.
    """
    check_index(n, "suffix index")
    return _decompose(_stable(c), c.params.p, n)


def matches_theorem1_at(c: Configuration, n: int) -> bool:
    """Whether the suffix from n (not necessarily minimal) has the loose form."""
    check_index(n, "suffix index")
    s, loose, _ = _scan(c)
    return n >= len(s) or loose.fullmatch(s, 0, len(s) - n) is not None


def wave_report(c: Configuration) -> WaveReport:
    s, loose, tight = _scan(c)
    i1, i2 = (len(s) - form.match(s).end() for form in (loose, tight))
    return WaveReport(i1, i2, _decompose(c.diffs, c.params.p, i2), i1 < len(s))


def max_plateau(h: HeightProfile) -> int:
    """Longest run of equal-height non-empty columns (1 when none)."""
    hs = h.heights
    best = 1
    run = 1
    for i in range(1, len(hs)):
        if hs[i] == hs[i - 1] and hs[i]:
            run += 1
            if run > best:
                best = run
        else:
            run = 1
    return best


def _support_limits(grains: int, p: int) -> tuple[float, float]:
    """(lower, upper): a width w holds when lower < w < upper."""
    root = math.sqrt(grains)
    return root / p - 1.0, (p + 1) * root + p + 1.0

