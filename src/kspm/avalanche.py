"""Incremental fixed-point computation through leftmost avalanches.

Instead of collapsing a pile of N grains in one go, the fixed points
pi(1), pi(2), ... can be built one grain at a time: add a grain on
column 0 of pi(k-1), then fire leftmost until stable, which lands exactly
on pi(k).  The firing sequence of that relaxation is the k-th avalanche;
it fires each column at most once.

A *hole* of an avalanche is a skipped column with a fired right neighbor.
The density column L'(p,k) is where the avalanche stops skipping: one past
its largest hole, the start of the last run of consecutive fired columns.
L(p,N) aggregates the maximum of L'(p,k) over k <= N.

`steps` checks its arguments, builds the start pile pi(start) with
`_engine.pile_with_shots`, and runs the `_engine.avalanches` generator from
it, the one grain-by-grain loop, on what is left of the same firing budget:
it fires each dense tail (max(head), last] in one step, finding its end
with one search of a byte mask of the cells at p kept beside the pile, and
yields L' as the start of the last fired block.  `ROWS[format](p)` is that
format's one row formatter of a step (k, head, lp, last, b).
`incremental_scan` and `ScanCsvWriter` are the per-grain observer the
benchmark harness drives: the scan sums the firings and hands each grain's
whole firing order and pile to a sink, and the writer turns them into the
rows of `avalanche --format csv`.  Each scan keeps only its current pile,
so distinct scans share no state and can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, IO, Iterator, Optional, Sequence

from . import _engine
from .core import Configuration, DEFAULT_WORK_LIMIT, Params, check_grains, check_limit


@dataclass(frozen=True)
class Avalanche:
    """Columns fired (in order) while absorbing the k-th grain."""

    k: int
    fired: tuple[int, ...]


@dataclass(frozen=True)
class ScanSummary:
    total_firings: int


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

    Streams (k, k-th avalanche, pi(k)) to `sink` when given, and returns the
    total number of firings.
    """
    total = 0
    for k, head, lp, last, b in steps(grains, params.p, work_limit):
        total += len(head) + last - max(head) if head else 0
        if sink is not None:
            sink(k, Avalanche(k, tuple(_engine.firing_order(b, params.p, head, last))),
                 Configuration._trusted(tuple(b), params))
    return ScanSummary(total)


class ScanCsvWriter:
    """A sink that writes `CSV_HEADER`, then one CSV row per grain."""

    def __init__(self, stream: IO[str]):
        self._write = stream.write
        self._write(CSV_HEADER + "\n")

    def __call__(self, k: int, a: Avalanche, c: Configuration) -> None:
        cols = sorted(a.fired)
        j = len(cols) - 1  # L' is the start of the last run of consecutive columns
        while j > 0 and cols[j - 1] == cols[j] - 1:
            j -= 1
        lp, last = (cols[j], cols[-1]) if cols else (0, -1)
        self._write(ROWS["csv"](c.params.p)(k, cols, lp, last, c.diffs) + "\n")


# the largest fired column is left empty for an avalanche that fired nothing
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
