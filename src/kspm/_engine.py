"""Hot loops for stabilization and avalanches.

Everything here works in the height-difference representation on plain
Python lists of non-negative ints, mutated in place; the public modules
wrap these in immutable value types.  The firing rule for parameter p at
column i (legal iff b[i] > p) is

    b[i-1] += p   (absent for i = 0)
    b[i]   -= p + 1
    b[i+p] += 1

which conserves the grain count sum((i+1) * b[i]).

Each firing touches three cells, so the strategy loops keep track of
the enabled columns in O(1) per firing and stop without a final
full-width scan.  `leftmost` keeps their count, counting them once at
the start, and exploits locality: after firing column i the only column
below i that can have become enabled is i - 1, so the scan cursor backs
up by at most one step per firing.  `worklist` (rightmost, or
seeded random) keeps them in a list and fires one slot of it.

`avalanches` is a second leftmost loop, kept apart on purpose: it owns
the grain scan, adding grains one at a time on column 0 of a stable pile,
and needs no firing list or per-firing budget check.  Each avalanche starts
from a stable pile plus one grain on column 0 (b[0] > p, the one enabled
column).  Then no column fires twice: at a first repeat, column i would
hold at most p + (p+1) - (p+1) = p, having got at most p from i+1 and 1
from i-p (column 0 starts at p+1 but gets only p).  So nothing past the
old support fires, and the avalanche, at most the width long, is charged
to the budget once per grain.

A run is a chain of cascades: a new rightmost column fires, then the ones
left of it while the left neighbour held a grain.  A cascade never enters
a column x that fired before: x gets p when x + 1 fires, so had it held
more than 0 it would fire twice; it held 0, and the cascade stops at x + 1.
So cascades are disjoint ranges, each right of the ones before, and one
that stops at pos joins the block below exactly when pos - 1 is the last
cascade's top; otherwise pos - 1 never fired.  The block [start, top],
tracked per cascade in O(1), is thus the head's rightmost maximal run of
fired columns; the tail below extends it, so start is the density column
L'(p, k), one past the largest hole.

Let a cascade end with all of (i-p, i] fired, i the top: nothing up to i
is enabled, and each of (i, i+p] holds one grain from its left source.
Let M be the first j >= i with no column of (j, j+p] at p before the
avalanche.  The rest fires exactly (i, M]: given (j-p, j] fired, a y in
(j, j+p] that held p fires on the grain from y-p, then each column
between j and y on p from its right; past M, the first column to fire
has no fired right neighbour, so it held p, and its fired left source
puts it in (M, M+p].  The net change is O(p), after p firings: b[i] += p,
b[M] -= p, (M, M+p] gain one, and each column between gives and gets
p+1.  In order, each y in (i, M) that held p, then M, fires y, y-1, ...
down to the previous one + 1; those columns end as they began, so
`firing_order` reads the order off the final pile.

M is found with one search over a byte mask, mask[x] == (b[x] == p) and 0
past the end of b, built once from the start pile and kept beside b.
The head writes nothing past i + p, so once (i, i+p] is undone the mask
past i describes the pile before the avalanche, and M + 1 is the first
s > i with p zero bytes from s on: `mask.find(bytes(p), i + 1)`.  Keeping
the mask costs little: a firing leaves its column below p (a new rightmost
column held p + 1, a column in a cascade at most 2p), so only its two
neighbours can change their byte.  The tail writes b[i] from 0 to p, b[M]
from p to 0, and each cell of (i, i+p] and (M, M+p] one at a time, with
its byte: two p-long loops, which cost no more than the head, as it fired
all of (i-p, i] first.  The search starts past column 0, so the grains
added there leave its byte alone.  No cell past i + p (M + p after a tail)
is written, and that cell ends positive, which is where the new support
ends: b, grown only for a write past its end, stays trimmed.

`relax` is a batched variant used for large single-pile runs: one pass
fires every enabled column as often as its current value allows, which is
a legal interleaving of single firings (firing another column never
disables a pending one), so by confluence it reaches the same fixed point
with the same per-column firing counts.  It is vectorized with numpy, on
arrays allocated once and passed over in place.  Only this path imports
numpy (`relax`, `_storage`, `_estimate`, each at its top), so piles below
the cutoff and avalanches run without loading it.  The passes run on a
view of the first m columns; firings in [m - p, m) drop their grain into a
margin [m, m + p) that does not fire.  When the view is stable and a
margin cell holds more than p, m doubles, up to the support bound;
otherwise no column anywhere is enabled and the pile is the fixed point.
The view starts p + 1 columns past the start vector, so warm passes cover
about the final width, not the bound, several times wider.  A pass clips
its counts at 0 only while some cell is negative: only Ds makes one, and a
cell at 0 or above stays at 0 or above (int32 storage below).

No loop counts firings per column: `odometer` reads u >= 0 off a pile
b = c + Du of N grains by b_n = u_{n-p} - (p+1)*u_n + p*u_{n+1},
backwards from u_n = 0 for n >= len(b) - p (b[r+p] = u_r for the last r
with u_r > 0), with no division.  Below column 0 it must yield the
boundary (N, 0, ..., 0), a grain-count check on every pile.

Its pass count grows linearly with N, so large piles start warm.  In
difference form KSPM(p) is an abelian sandpile on a directed graph with a
sink: column i sends p chips to i-1 (to the sink for i = 0) and one to
i+p, and every in-degree is at most p+1.  By the least action principle
the shot vector u is the least odometer w >= 0 with c + Dw stable, where
(Dw)_i = p*w_{i+1} + w_{i-p} - (p+1)*w_i.  `pile_with_shots` therefore
relaxes c + Ds from a guess s meant to sit below u: the shot vector of
a quarter of the grains, rescaled, then smoothed by a (p+1)-minimum
centred on each column (the only floats; a forward window shifts the
profile right, and overshot at p=5).  `certify` checks in exact ints, by
a burning pass, that the odometer w >= u read off the resulting pile
c + Dw is u; a guess that overshot fails.  A rejected w or a spill falls
back to s = 4*u(N//4): the odometer is monotone in the start pile and
stable piles have no negative difference, so u(a + b) >= u(a) + u(b)
(relax a, then b on top) and u(N) >= 4*u(N//4).  From s <= u no pass
takes w past u (a column with w_x = u_x holds at most (c + Du)_x <= p),
and the loop stops only on a stable pile, where w >= u by least action:
w = u, with no certificate.  So does `leftmost` below the cutoff, started
from c + D(2*u(N//2)) = 2*pi(N//2) plus N mod 2 on column 0: a pile with
no negative cell, and u(N) >= 2*u(N//2) by superadditivity.

int64 bound: with N <= 2**40 grains, p*u_i <= N (column i moves p grains
past itself per firing and grains never move left).  The guess is below
N/p as well, so every entry of c + Ds is at most (1 + (2p+2)/p)*N <= 5N in
absolute value.  From any s <= u (the bare pile and 4*u(N//4) among them)
the odometer never passes u, so every transient keeps that bound; from
an overshooting guess a pass raises the largest entry by at most p and
never lowers a negative one.  All of this is far below 2**63.

int32 storage: `relax` builds the start pile c + Ds in int64, then keeps
its arrays in int32 when B = N + sum((i+1) * max(0, -b_i)) over that pile
is below 2**31 (`_storage`), in int64 otherwise.  B bounds every value the
passes compute.  Every firing, column 0's included (its p grains leave at
weight 0), conserves sum((i+1) * b_i) = N, so every full pass does.  A cell
at 0 or above fires floor(b/(p+1)) times and stays at 0 or above; a
negative cell never fires and only gains.  So sum((i+1) * max(0, -b_i))
never grows, and after every pass each entry is at most
sum((i+1) * max(0, b_i)) = N + that sum <= B, and at least its start value,
which is at least N - B.  Within a pass, p*f is at most the firing cell's
value, and a cell goes from its value less p*f, then f, to at least
min(0, its value), through the two adds of p*f and f >= 0 to its value
after the pass.  So |every value| <= B.  An overshooting guess is covered
too, since B is taken over the start pile itself.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import Inconsistent, WorkLimitExceeded

if TYPE_CHECKING:
    import numpy as np

DEFAULT_WORK_LIMIT = 10**10

# Largest supported grain count.  Keeps the numpy path safely inside
# int64 (transients are bounded by 5N) and makes resource use predictable.
GRAIN_LIMIT = 1 << 40

# Below this many grains (a quarter at p=1) `_base` runs instead of a warm relax.  Against
# it the warm relax wins from about 500 grains at p=1, 2,000 at p=2, 3,000 at p=3 and
# 8,000 at p=5, and loses up to 8,192 at p=8: one cutoff for every p.
_RELAX_CUTOFF = 4096

# Largest dense array the batched path may preallocate (cells).  Huge p
# blows up the width bound (p+1)*sqrt(N); those runs fire rarely and are
# cheap in the plain loop, which grows storage to the actual width only.
_RELAX_MAX_CELLS = 1 << 25

# Warm start: pile_with_shots(N) starts from the shot vector of N // _WARM_RATIO grains.
_WARM_RATIO = 4


def trim(b: list[int]) -> None:
    """Drop trailing zeros in place (the implicit 0^omega tail)."""
    while b and not b[-1]:
        b.pop()


def support_cap(grains: int, p: int) -> int:
    """Upper bound for how far a pile of `grains` can spread.

    A stable pile with no plateau longer than p+1 has width below
    (p+1)*sqrt(N) + p + 1, and the rightmost grain position only ever
    grows, so transient configurations fit too.
    """
    return (p + 1) * (math.isqrt(grains) + 1) + 2 * p + 5


def leftmost(b: list[int], p: int, limit: int, fired: list[int] | None = None) -> int:
    """Fire the smallest enabled column until stable.  Returns total firings.

    Fired columns are appended to `fired` in firing order.
    """
    pp1 = p + 1
    m = len(b)
    enabled = sum(v > p for v in b)
    total = 0
    pos = 0
    append = fired.append if fired is not None else None
    while enabled:
        v = b[pos]
        while v <= p:
            pos += 1
            v = b[pos]
        i = pos
        total += 1
        if total > limit:
            raise WorkLimitExceeded(f"firing budget {limit} exceeded")
        if append is not None:
            append(i)
        nv = v - pp1
        b[i] = nv
        if nv <= p:
            enabled -= 1
        if i:
            j = i - 1
            ov = b[j]
            if ov:
                # ov <= p here (no enabled column below the leftmost one),
                # so ov + p > p: column j just became enabled.
                b[j] = ov + p
                enabled += 1
                pos = j
            else:
                b[j] = p
        ip = i + p
        if ip >= m:
            b.extend([0] * (ip + 1 - m))
            m = ip + 1
        ov = b[ip]
        b[ip] = ov + 1
        if ov == p:
            enabled += 1
    trim(b)
    return total


def avalanches(
    b: list[int], p: int, grains: int, limit: int, spent: int = 0
) -> Iterator[tuple[int, list[int], int, int, list[int]]]:
    """Add `grains` grains one at a time on column 0 of the stable pile b, each followed
    by its leftmost avalanche, and yield (k, head, lp, last, b) after each: k the grains
    now in b, head the columns fired singly, in order, lp the first column of the run of
    fired columns that ends at max(head), which is L'(p, k) (module docstring), and
    (max(head), last] the dense tail; an empty avalanche is ([], 0, -1).  b is mutated
    in place and trimmed at every yield.  The firing budget `limit`, of which `spent`
    is already used, covers all the grains and is charged after each avalanche."""
    pp1 = p + 1
    pm1 = p - 1
    zeros = bytes(p)
    trim(b)
    if not b:
        b.append(0)
    k0 = sum(i * v for i, v in enumerate(b, 1))
    m = len(b)
    mask = bytearray(map(p.__eq__, b)) + zeros  # mask[x] == (b[x] == p), 0 past the end of b
    budget = limit - spent
    for k in range(k0 + 1, k0 + grains + 1):
        b[0] += 1
        if b[0] <= p:
            yield k, [], 0, -1, b
            continue
        head: list[int] = []
        append = head.append
        enabled = 1
        pos = 0
        top = below = -1  # largest fired column, now and at the last cascade's end
        start = 0  # first column of the fired block that ends at top
        while enabled:
            v = b[pos]
            while v <= p:
                pos += 1
                v = b[pos]
            append(pos)
            b[pos] = v - pp1  # below p: mask[pos] stays 0
            enabled -= 1  # fired once, so at most p now
            if pos > top:
                top = pos
            ip = pos + p
            if ip >= m:  # past the support end: b and the mask grow
                b.extend([0] * (ip + 1 - m))
                mask.extend(bytes(ip + 1 - m))
                m = ip + 1
            ov = b[ip]
            b[ip] = ov + 1
            if ov == p:
                enabled += 1
                mask[ip] = 0
            elif ov == pm1:
                mask[ip] = 1
            if pos:
                ov = b[pos - 1]
                if ov:
                    b[pos - 1] = ov + p
                    if ov == p:
                        mask[pos - 1] = 0
                    enabled += 1
                    pos -= 1
                    continue
                b[pos - 1] = p
                mask[pos - 1] = 1
            if pos != below + 1:  # the cascade [pos, top] ends; joins the block below if adjacent
                start = pos
            below = top
            if enabled and top - start >= pm1:  # the dense tail: undo, find M, write the change
                for x in range(top + 1, top + pp1):
                    b[x] = v = b[x] - 1
                    mask[x] = v == p
                last = mask.find(zeros, top + 1) - 1
                b[top] = p  # top held 0 since it fired
                b[last] = 0  # last held p
                mask[top] = 1
                mask[last] = 0
                if last + p >= m:
                    b.extend([0] * (last + pp1 - m))
                    mask.extend(bytes(last + pp1 - m))
                    m = last + pp1
                for x in range(last + 1, last + pp1):
                    b[x] = v = b[x] + 1
                    mask[x] = v == p
                break
        else:
            last = top
        budget -= len(head) + last - top
        if budget < 0:
            raise WorkLimitExceeded(f"firing budget {limit} exceeded")
        yield k, head, start, last, b


def firing_order(b: Sequence[int], p: int, head: Sequence[int], last: int) -> list[int]:
    """Whole firing order of the avalanche (head, _, last): head, then the dense tail
    (max(head), last] read off the pile b it left; [] for the empty one ([], _, -1)."""
    fired, top = [*head], max(head, default=-1)
    for y in [y for y in range(top + 1, last) if b[y] == p] + [last]:
        fired.extend(range(y, top, -1))
        top = y
    return fired


def worklist(b: list[int], p: int, limit: int, seed: int | None = None) -> int:
    """Fire the largest enabled column, or a uniformly drawn one when seeded,
    until stable.  Returns total firings.

    Without a seed `enabled` stays ascending, so its last slot holds the
    largest enabled column: i was the maximum, so a newly enabled i - 1
    exceeds every other entry.
    """
    rnd = None if seed is None else random.Random(seed).random
    pp1 = p + 1
    m = len(b)
    enabled = [i for i, v in enumerate(b) if v > p]
    total = 0
    while enabled:
        n = len(enabled)
        j = int(rnd() * n) if rnd else n - 1  # random() <= 1 - 2**-53: j < n to 2**53
        i = enabled[j]
        total += 1
        if total > limit:
            raise WorkLimitExceeded(f"firing budget {limit} exceeded")
        nv = b[i] - pp1
        b[i] = nv
        ov = b[i - 1] if i else 0
        if i:
            b[i - 1] = ov + p
        if 0 < ov <= p:  # i - 1 takes slot j; i, if still enabled, goes last
            enabled[j] = i - 1
            if nv > p:
                enabled.append(i)
        elif nv <= p:  # swap-remove slot j
            enabled[j] = enabled[-1]
            enabled.pop()
        ip = i + p
        if ip >= m:
            b.extend([0] * (ip + 1 - m))
            m = ip + 1
        ov = b[ip]
        b[ip] = ov + 1
        if ov == p:
            enabled.append(ip)
    trim(b)
    return total


def _storage(grains: int, pile: np.ndarray) -> type[np.signedinteger]:
    """int32 if the bound B = N + sum((i+1) * max(0, -pile[i])) on every value a
    relaxation of `pile` (N = `grains`) computes fits it, else int64 (module docstring)."""
    import numpy as np

    neg = np.flatnonzero(pile < 0)
    bound = grains - sum(map(int.__mul__, (neg + 1).tolist(), pile[neg].tolist()))
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def relax(grains: int, p: int, start: np.ndarray | Sequence[int] = ()) -> list[int]:
    """Batched stabilization of `grains` on column 0: the final configuration, trimmed.

    Equivalent to any sequential strategy by confluence; used as the fast
    path for single-pile runs with many grains.  `start`, a non-negative
    firing vector s (empty for the bare pile), is applied first, in int64:
    the loop then relaxes the pile plus Ds, in int32 when the bound of the
    module docstring fits it.  Only columns above p fire, so entries
    that s drove negative stay put; the counts are clipped at 0 only until
    a stop test finds no negative cell.  The passes run on a growing view of
    m columns, from m = len(s) + p + 1 (at most cap - p, cap = `support_cap`),
    two passes per stop test; every pass fires enabled columns only, so m
    does not change the result, and nothing is written past the view's
    margin.  A spill past `support_cap` raises Inconsistent: from s <= u
    it would mean that bound is wrong, from a larger s that s overshot.
    There is no firing budget here: `pile_with_shots` charges the decided
    total.
    """
    import numpy as np

    pp1 = p + 1
    cap = support_cap(grains, p)
    top = cap - p
    n = len(start)
    if n > top:  # its last column would fire a grain past the bound
        raise Inconsistent("start vector spills past the support bound")
    arr = np.zeros(cap, dtype=np.int64)
    arr[0] = grains
    if n:  # the start pile c + Ds, in int64
        start = np.asarray(start, dtype=np.int64)
        arr[:n] -= pp1 * start
        arr[: n - 1] += p * start[1:]
        arr[p : n + p] += start
    dtype = _storage(grains, arr)
    arr = arr.astype(dtype, copy=False)
    t = np.zeros(cap, dtype=dtype)
    tmp = np.empty(cap, dtype=dtype)
    sp, spp1, zero = dtype(p), dtype(pp1), dtype(0)  # a Python int operand is converted per call
    mul, sub, add, fdiv, clip, count = (
        np.multiply, np.subtract, np.add, np.floor_divide, np.maximum, np.count_nonzero)
    neg = n and arr[:n].min() < 0  # only Ds makes cells negative, all in [0, n)
    m = min(n + pp1, top)
    while True:  # t is 0 here, so each view's first pass only fills it
        a, f, s = arr[:m], t[:m], tmp[:m]
        left, right, gain = arr[: m - 1], arr[p : m + p], s[1:]
        while True:
            for _ in range(2):  # a pass with f = 0 changes nothing
                mul(f, sp, out=s)  # p*f serves both the firing cell and its left neighbour
                sub(a, s, out=a)
                sub(a, f, out=a)
                add(left, gain, out=left)
                add(right, f, out=right)
                fdiv(a, spp1, out=f)
                if neg:
                    clip(f, zero, out=f)
            if not count(f):
                break
            if neg:
                neg = a.min() < 0
        if m == top or arr[m : m + p].max() <= p:
            break
        m = min(2 * m, top)
    if arr[-(p + 2) :].any():
        raise Inconsistent("relaxation spilled past the proven support bound")
    b = arr[: m + p].tolist()  # no pass writes past the view's margin
    trim(b)
    return b


def odometer(b: list[int], grains: int, p: int) -> list[int]:
    """The odometer u, trimmed, with b = c + Du for the pile c of `grains` on column 0.

    The backward recurrence of the module docstring, O(len(b)); raises
    Inconsistent unless it yields the boundary (grains, 0, ..., 0).
    """
    u = [0] * (len(b) + 1)  # u[n] = u_n, zero from len(b) - p on
    for n in range(len(b) - 1, p - 1, -1):
        u[n - p] = b[n] + (p + 1) * u[n] - p * u[n + 1]
    edge = [b[n] + (p + 1) * u[n] - p * u[n + 1] for n in range(min(p, len(b)))]
    if sum(edge) != grains or any(edge[1:]):
        raise Inconsistent(f"pile is not reached from {grains} grains on column 0")
    trim(u)
    return u


def certify(b: list[int], p: int, w: list[int]) -> bool:
    """Whether w is the least stabilizing odometer of b0, given b = b0 + Dw.

    A set A inside supp(w) can be un-fired (fired backwards once each) and
    leave b stable iff every x in A has in-degree from A, namely
    p*[x+1 in A] + [x-p in A], above b[x].  Burning removes from supp(w)
    every column that fails this until none does; what is left is the
    largest such A.  w is the least odometer u iff b is stable and nothing
    is left: un-firing A would give a smaller stabilizing odometer, and if
    w != u (so w >= u by least action) the set where w - u is largest could
    be un-fired, since no in-degree exceeds p+1.  Exact ints, O(len(b) + p).
    """
    if any(v > p for v in b):
        return False
    n = len(w)
    live = [x > 0 for x in w] + [False] * (p + 1)
    indeg = [p * live[i + 1] + (i >= p and live[i - p]) for i in range(n)]
    burn = [i for i in range(n) if live[i] and indeg[i] <= b[i]]
    while burn:
        i = burn.pop()
        if not live[i]:
            continue
        live[i] = False
        for j, d in ((i - 1, p), (i + p, 1)):
            if j >= 0 and live[j]:
                indeg[j] -= d
                if indeg[j] <= b[j]:
                    burn.append(j)
    return not any(live)


def _estimate(shots: list[int], sub: int, grains: int, p: int) -> np.ndarray:
    """Under-estimate of the shot vector at `grains` from the one at `sub`.

    Widths scale as sqrt(N), so with r = grains / sub the shot vector
    satisfies a_i(grains) ~ r * a_{i/sqrt(r)}(sub).  The rescaled profile
    is read off by linear interpolation, down to 0 one cell past its end.
    A minimum over the p+1 cells [i - p//2, i + p - p//2], clipped at
    column 0 and 0 past the end, flattens the oscillation near the origin
    that interpolation would misplace.  A forward window [i, i + p] shifts
    the profile about p/2 columns right: more passes, overshoot at p=5.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    r = grains / sub
    scale = math.sqrt(r)
    x = np.arange(int(len(shots) * scale) + 1) / scale
    est = r * np.interp(x, np.arange(len(shots) + 1), shots + [0])
    padded = np.concatenate((np.full(p // 2, est[0]), est, np.zeros(p - p // 2)))
    return sliding_window_view(padded, p + 1).min(axis=1).astype(np.int64)


def _base(grains: int, p: int, limit: int) -> list[int]:
    """Fixed point of `grains` on column 0 by `leftmost`, from c + D(2*u(grains // 2)):
    twice the pile of half the grains, plus the odd grain on column 0 (module docstring)."""
    if not grains:
        return []
    b = [2 * v for v in _base(grains // 2, p, limit)] or [0]
    b[0] += grains % 2
    leftmost(b, p, limit)
    return b


def pile_with_shots(grains: int, p: int, limit: int) -> tuple[list[int], list[int], int]:
    """Fixed point and shot vector of a single pile of `grains` on column 0.

    Below the cutoff, or when the dense arrays would be too large, `_base`
    finds the pile.  Above it the relaxation starts from the shot vector of
    grains // _WARM_RATIO, rescaled, for `certify` to judge; after a spill
    or a rejection, from _WARM_RATIO times it, a proven under-estimate.
    The budget is charged once, on the sum of the shot vector read off the
    decided pile: the recursion has already raised unless the quarter pile fit,
    and no level of `_base` fires more than the whole pile does.
    """
    cutoff = _RELAX_CUTOFF // 4 if p == 1 else _RELAX_CUTOFF
    if grains < cutoff or support_cap(grains, p) > _RELAX_MAX_CELLS:
        b = _base(grains, p, limit)
        shots = odometer(b, grains, p)
    else:
        sub = grains // _WARM_RATIO
        quarter = pile_with_shots(sub, p, limit)[1]
        try:
            b = relax(grains, p, _estimate(quarter, sub, grains, p))
            shots = odometer(b, grains, p)
        except Inconsistent:
            shots = None
        if shots is None or not certify(b, p, shots):
            b = relax(grains, p, [_WARM_RATIO * v for v in quarter])
            shots = odometer(b, grains, p)
    total = sum(shots)
    if total > limit:
        raise WorkLimitExceeded(f"firing budget {limit} exceeded")
    return b, shots, total


def max_plateau_over_trajectory(grains: int, p: int, limit: int) -> int:
    """Longest plateau over every configuration of the leftmost run from a pile.

    A plateau of L equal non-empty columns is a run of L - 1 zeros in the
    height differences inside the support; 1 if none ever appears.  A
    firing at i leaves b[i-1] >= p (when i > 0) and b[i+p] >= 1, so the
    only zero run it can create or extend starts at i and ends before i + p.
    b[-1] only loses grains when it fires, and that firing extends b past
    it, so the support end is always len(b) - 1: growing b from m to
    i + p + 1 cells adds a run of exactly i + p - m zeros.  Runs only shrink
    in between, so every zero run is at most p long: the plateau bound p+1.

    Two shortcuts keep the plain leftmost loop's firings, budget and answer.
    The pile first fires column 0 F = N // (p+1) times in a row, through the
    piles [N - j(p+1), 0^(p-1), j]: column 0 holds more than p for j < F and
    is the leftmost column.  The first of these grows b to p + 1 cells, a
    zero run of p - 1, and the others write only columns 0 and p, so the
    pile after F - 1 of them is set at once.  The loop fires the last, which
    may empty column 0, and charges all F: a budget below F is exceeded
    there, as in the plain loop.  And a firing at i that puts p on a left neighbour holding
    0 < ov <= p enables i - 1, the new leftmost column, so each such cascade
    leftwards fires in an inner loop, without going back to the scan.
    """
    pp1 = p + 1
    total = grains // pp1 - 1  # column 0's opening firings but the last, charged with it
    if total > 0:
        b = [grains - total * pp1, *[0] * (p - 1), total]
        enabled = 2 if total > p else 1
        longest = p - 1  # longest zero run seen so far
    else:
        total = 0
        b = [grains] if grains else []
        enabled = 1 if grains > p else 0
        longest = 0
    m = len(b)
    pos = 0
    while enabled:
        v = b[pos]
        while v <= p:
            pos += 1
            v = b[pos]
        while True:  # fire pos, then pos - 1 while that firing enabled it
            total += 1
            if total > limit:
                raise WorkLimitExceeded(f"firing budget {limit} exceeded")
            nv = v - pp1
            b[pos] = nv
            if nv <= p:
                enabled -= 1
            ip = pos + p
            if ip >= m:
                if ip - m > longest:
                    longest = ip - m
                b.extend([0] * (ip + 1 - m))
                m = ip + 1
            ov = b[ip]
            b[ip] = ov + 1
            if ov == p:
                enabled += 1
            if not nv:
                hi = pos + 1
                while not b[hi]:
                    hi += 1
                if hi - pos > longest:
                    longest = hi - pos
            if not pos:
                break
            pos -= 1
            ov = b[pos]
            if not ov:
                b[pos] = p
                break
            # ov <= p (no enabled column below the leftmost one): pos is enabled now
            b[pos] = v = ov + p
            enabled += 1
    return longest + 1
