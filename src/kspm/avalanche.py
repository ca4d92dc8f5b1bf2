"""Incremental fixed-point computation through leftmost avalanches.

Instead of collapsing a pile of N grains in one go, the fixed points
pi(1), pi(2), ... can be built one grain at a time: add a grain on
column 0 of pi(k-1), then fire leftmost until stable, which lands exactly
on pi(k).  The firing sequence of that relaxation is the k-th avalanche;
it fires each column at most once.

A *hole* of an avalanche is a skipped column with a fired right neighbor.
The density column L'(p,k) is where the avalanche stops skipping: from
L'(p,k) up to its largest column everything fires.  L(p,N) aggregates the
maximum of L'(p,k) over k <= N.

`steps` checks its arguments, builds the start pile pi(start) with
`_engine.pile_with_shots`, and runs the `_engine.avalanches` generator from
it, the one grain-by-grain loop, on what is left of the same firing budget:
it fires each dense tail (max(head), last] in one step, finding its end
with one search of a byte mask of the cells at p kept beside the pile, and
yields L' as the start of the last fired block.  `ROWS[format](p)` is that
format's one row formatter of a step (k, head, lp, last, b).
`incremental_scan` sums the firings and L(p, N), streams one record per
grain to an optional sink, and keeps only the current pile in memory, so
scans up to millions of grains need memory proportional to the support
width, not to N.  The sink runs on the scan's own thread of control and
must not assume reentrancy; the scan itself is inherently sequential in k,
but distinct scans are independent and can run concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, IO, Iterator, Optional, Sequence

from . import _engine
from .core import Configuration, DEFAULT_WORK_LIMIT, Params, check_grains, check_limit
from .errors import NotStable


@dataclass(frozen=True)
class Avalanche:
    """Columns fired (in order) while absorbing the k-th grain."""

    k: int
    fired: tuple[int, ...]

    @property
    def max_fired(self) -> Optional[int]:
        return max(self.fired) if self.fired else None

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "fired": list(self.fired)}, separators=(",", ":"))


@dataclass(frozen=True)
class ScanSummary:
    l_global: int
    total_firings: int
    final: Configuration


def add_grain(c: Configuration) -> Configuration:
    """One more grain on column 0 (b_0 + 1)."""
    check_grains(c.grain_count() + 1, p=c.params.p)
    b = (c.diffs[0] + 1,) + c.diffs[1:] if c.diffs else (1,)
    return Configuration._trusted(b, c.params)


def run_avalanche(
    c: Configuration, *, work_limit: int = DEFAULT_WORK_LIMIT
) -> tuple[Avalanche, Configuration]:
    """Add a grain to the stable pile `c` and relax leftmost.

    The record's k is the new pile's grain count, so when c = pi(k-1) the
    result is (k-th avalanche, pi(k)).
    """
    if not c.is_stable():
        raise NotStable("avalanches start from a stable configuration")
    check_limit(work_limit)
    p = c.params.p
    check_grains(c.grain_count() + 1, p=p)
    k, head, _, last, b = next(_engine.avalanches(list(c.diffs), p, 1, work_limit))
    fired = _engine.firing_order(b, p, head, last)
    return Avalanche(k, tuple(fired)), Configuration._trusted(tuple(b), c.params)


def holes(a: Avalanche) -> list[int]:
    """Ascending positions i with i not fired but i+1 fired."""
    cols = sorted(set(a.fired))
    return [v - 1 for j, v in enumerate(cols) if v and (j == 0 or cols[j - 1] != v - 1)]


def density_column(a: Avalanche) -> int:
    """L'(p,k): one past the largest hole (0 when the avalanche has none)."""
    hs = holes(a)
    return hs[-1] + 1 if hs else 0


def steps(
    grains: int, p: int, work_limit: int = DEFAULT_WORK_LIMIT, start: int = 0
) -> Iterator[tuple[int, list[int], int, int, list[int]]]:
    """Yield (k, head, lp, last, b) for k = start + 1 .. start + grains: the k-th
    avalanche and pi(k), each grain added to the pile before it from pi(start).

    `head` lists the columns fired one at a time while absorbing grain k, in
    order; each column of (max(head), last] fired once after them, and
    lp = L'(p, k) (an empty avalanche is ([], 0, -1)).  `b` is the live
    pile, which the next step mutates: copy it, or read the whole firing
    order off it with `_engine.firing_order`, before resuming.  The
    arguments are checked at the first step, before any firing.  One budget
    covers the Σu(start) firings of pi(start), then each avalanche's.
    """
    Params(p)
    check_grains(start, 0, p)
    check_grains(grains, 1)
    check_grains(start + grains, p=p)
    check_limit(work_limit)
    b, _, spent = _engine.pile_with_shots(start, p, work_limit)
    yield from _engine.avalanches(b, p, grains, work_limit, spent)


def incremental_scan(
    grains: int,
    params: Params,
    sink: Optional[Callable[[int, Avalanche, Configuration], None]] = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> ScanSummary:
    """Build pi(1) .. pi(grains) one grain at a time.

    Streams (k, k-th avalanche, pi(k)) to `sink` when given.  The summary
    carries L(p, N) and aggregate statistics; the per-k data exists only
    transiently.
    """
    l_global = 0
    total = 0
    for k, head, lp, last, b in steps(grains, params.p, work_limit):
        total += len(head) + last - max(head) if head else 0
        if lp > l_global:
            l_global = lp
        if sink is not None:
            sink(k, Avalanche(k, tuple(_engine.firing_order(b, params.p, head, last))),
                 Configuration._trusted(tuple(b), params))
    final = Configuration._trusted(tuple(b), params)
    return ScanSummary(l_global, total, final)


class ScanCsvWriter:
    """A sink that writes `CSV_HEADER`, then one CSV row per grain."""

    def __init__(self, stream: IO[str]):
        self._write = stream.write
        self._write(CSV_HEADER + "\n")

    def __call__(self, k: int, a: Avalanche, c: Configuration) -> None:
        lp, last = density_column(a), max(a.fired, default=-1)
        self._write(ROWS["csv"](c.params.p)(k, a.fired, lp, last, c.diffs) + "\n")


# max_fired is left empty for an avalanche that fired nothing
CSV_HEADER = "k,fired_count,max_fired,l_prime,support_width"

# output format -> p -> the row, without the newline, of a step (k, head, lp, last, b)
ROWS: dict[str, Callable[[int], Callable[[int, Sequence[int], int, int, Sequence[int]], str]]] = {
    "csv": lambda p: lambda k, h, lp, last, b: (
        f"{k},{len(h) + last - max(h)},{last},{lp},{len(b)}" if h else f"{k},0,,0,{len(b)}"
    ),
    "json": lambda p: lambda k, h, lp, last, b: (
        f'{{"k":{k},"fired":[{",".join(map(str, _engine.firing_order(b, p, h, last)))}]}}'
    ),
    "text": lambda p: lambda k, h, lp, last, b: (
        f"{k}: {' '.join(map(str, _engine.firing_order(b, p, h, last)))}"
    ),
}
