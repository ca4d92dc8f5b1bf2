"""Hot loops for stabilization and avalanches.

Everything here works in the height-difference representation on plain
Python lists of non-negative ints, mutated in place; the public modules
wrap these in immutable value types.  The firing rule for parameter p at
column i (legal iff b[i] > p) is

    b[i-1] += p   (absent for i = 0)
    b[i]   -= p + 1
    b[i+p] += 1

which conserves the grain count sum((i+1) * b[i]).

The strategy loops below track the number of currently enabled columns
exactly (each firing touches three cells, so the count is maintained in
O(1)), which lets them terminate without a final full-width scan.  The
leftmost loop takes the initial count from its caller, who knows it
without a scan (a single pile, a grain dropped on a stable pile), and
additionally exploits locality: after firing column i the only column
below i that can have become enabled is i - 1, so the scan cursor backs
up by at most one step per firing.

`avalanche` is a second leftmost loop, kept apart on purpose: the grain
scan calls it once per grain and reads none of `leftmost`'s shots, optional
lists or per-firing budget checks.  It needs a stable pile plus one grain
on column 0 (b[0] > p, the one enabled column).  Then no column fires
twice: at a first repeat, column i would hold at most p + (p+1) - (p+1) = p,
having got at most p from i+1 and 1 from i-p (column 0 starts at p+1 but
gets only p).  So nothing past the old support fires, and the scan charges
the avalanche, at most the width long, to the budget once per grain.

A run is a chain of cascades: a new rightmost column fires, then the ones
left of it while the left neighbour held a grain.  Let a cascade end with
all of (i-p, i] fired, i the top (the block under the top is tracked per
cascade in O(1)): nothing up to i is enabled, and each of (i, i+p] holds
one grain from its left source.  Let M be the first j >= i with no column
of (j, j+p] at p before the avalanche.  The rest fires exactly (i, M]:
given (j-p, j] fired, a y in (j, j+p] that held p fires on the grain from
y-p, then each column between j and y on p from its right; past M, the
first column to fire has no fired right neighbour, so it held p, and its
fired left source puts it in (M, M+p].  The net change is O(p), after p
firings: b[i] += p, b[M] -= p, (M, M+p] gain one, and each column between
gives and gets p+1.  In order, each y in (i, M) that held p, then M, fires
y, y-1, ... down to the previous one + 1; those columns end as they began,
so `tail` reads the order off the final pile.

`relax` is a batched variant used for large single-pile runs: one pass
fires every enabled column as often as its current value allows, which is
a legal interleaving of single firings (firing another column never
disables a pending one), so by confluence it reaches the same fixed point
with the same per-column firing counts.  It is vectorized with numpy.

Its pass count grows linearly with N, so large piles start warm.  In
difference form KSPM(p) is an abelian sandpile on a directed graph with a
sink: column i sends p chips to i-1 (to the sink for i = 0) and one to
i+p, and every in-degree is at most p+1.  By the least action principle
the shot vector u is the least odometer w >= 0 with c + Dw stable, where
(Dw)_i = p*w_{i+1} + w_{i-p} - (p+1)*w_i.  `pile_with_shots` therefore
relaxes c + Ds from a guess s <= u, the rescaled shot vector of the pile
with a quarter of the grains, and `certify` checks the resulting odometer
w >= u with a burning pass in exact ints.  A rejected w, a spill or an
exhausted budget falls back to the cold relaxation of the bare pile, so
the result never depends on the guess; floats appear only in the guess.

int64 bound: with N <= 2**40 grains, p*u_i <= N (column i moves p grains
past itself per firing and grains never move left).  The guess is below
N/p as well, so every entry of c + Ds is at most (1 + (2p+2)/p)*N <= 5N in
absolute value.  From a guess s <= u the odometer never passes u, so
every transient keeps that bound; from an overshooting guess a pass
raises the largest entry by at most p and never lowers a negative one.
The cold relaxation from the bare pile stays below 2N.  All of this is
far below 2**63.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import Inconsistent, WorkLimitExceeded

DEFAULT_WORK_LIMIT = 10**10

# Largest supported grain count.  Keeps the numpy path safely inside
# int64 (transients are bounded by 5N) and makes resource use predictable.
GRAIN_LIMIT = 1 << 40

# Below this many grains (a quarter at p=1) the plain-Python leftmost loop beats numpy setup.
_RELAX_CUTOFF = 4096

# Largest dense array the batched path may preallocate (cells).  Huge p
# blows up the width bound (p+1)*sqrt(N); those runs fire rarely and are
# cheap in the plain loop, which grows storage to the actual width only.
_RELAX_MAX_CELLS = 1 << 25

# Warm start: pile_with_shots(N) starts from the rescaled shot vector of
# N // _WARM_RATIO grains, shrunk by _WARM_FACTOR to stay below the truth.
_WARM_RATIO = 4
_WARM_FACTOR = 0.99


def trim(b: list[int]) -> None:
    """Drop trailing zeros in place (the implicit 0^omega tail)."""
    while b and not b[-1]:
        b.pop()


def support_cap(extra: int, grains: int, p: int) -> int:
    """Upper bound for how far a pile of `grains` can spread.

    A stable pile with no plateau longer than p+1 has width below
    (p+1)*sqrt(N) + p + 1, and the rightmost grain position only ever
    grows, so transient configurations fit too.
    """
    return extra + (p + 1) * (math.isqrt(grains) + 1) + 2 * p + 4


def leftmost(
    b: list[int],
    p: int,
    limit: int,
    enabled: int,
    fired: list[int] | None = None,
    shots: list[int] | None = None,
) -> int:
    """Fire the smallest enabled column until stable.  Returns total firings.

    `enabled` must be the number of columns with b[i] > p.  Fired columns
    are appended to `fired` in firing order and counted per column in
    `shots`, which grows to the width reached.
    """
    pp1 = p + 1
    m = len(b)
    total = 0
    pos = 0
    append = fired.append if fired is not None else None
    if shots is not None and len(shots) < m:
        shots.extend([0] * (m - len(shots)))
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
            if shots is not None:
                shots.extend([0] * (ip + 1 - m))
            m = ip + 1
        ov = b[ip]
        b[ip] = ov + 1
        if ov == p:
            enabled += 1
        if shots is not None:
            shots[i] += 1
    trim(b)
    return total


def avalanche(b: list[int], p: int) -> tuple[list[int], int]:
    """Leftmost avalanche from b, whose one enabled column is b[0] > p: (head, last),
    the columns fired singly, in order, then the dense tail (max(head), last]."""
    pp1 = p + 1
    b.extend([0] * p)  # room for the firings at the old support's end
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
        b[pos] = v - pp1
        enabled -= 1  # fired once, so at most p now
        if pos > top:
            top = pos
        ip = pos + p
        ov = b[ip]
        b[ip] = ov + 1
        if ov == p:
            enabled += 1
        if pos:
            ov = b[pos - 1]
            if ov:
                b[pos - 1] = ov + p
                enabled += 1
                pos -= 1
                continue
            b[pos - 1] = p
        if pos != below + 1:  # the cascade [pos, top] ends; it joins the block below if adjacent
            start = pos
        below = top
        if enabled and top - start >= p - 1:  # the dense tail: undo, hop to M, write the change
            b[top + 1 : top + pp1] = [x - 1 for x in b[top + 1 : top + pp1]]
            last = top
            try:
                while True:
                    last = b.index(p, last + 1, last + pp1)
            except ValueError:
                pass
            b[top] += p
            b[last] -= p
            b[last + 1 : last + pp1] = [x + 1 for x in b[last + 1 : last + pp1]]
            top = last
            break
    trim(b)
    return head, top


def tail(b: list[int], p: int, top: int, last: int) -> list[int]:
    """Firing order of the dense tail (top, last], read off the pile the avalanche left."""
    fired: list[int] = []
    for y in [y for y in range(top + 1, last) if b[y] == p] + [last]:
        fired.extend(range(y, top, -1))
        top = y
    return fired


def rightmost(b: list[int], p: int, limit: int) -> int:
    """Fire the largest enabled column until stable.  Returns total firings."""
    pp1 = p + 1
    m = len(b)
    enabled = 0
    for v in b:
        if v > p:
            enabled += 1
    total = 0
    pos = m - 1
    while enabled:
        v = b[pos]
        while v <= p:
            pos -= 1
            v = b[pos]
        i = pos
        total += 1
        if total > limit:
            raise WorkLimitExceeded(f"firing budget {limit} exceeded")
        nv = v - pp1
        b[i] = nv
        if nv <= p:
            enabled -= 1
        if i:
            j = i - 1
            ov = b[j]
            if ov > p:
                b[j] = ov + p  # was already enabled, stays enabled
            elif ov:
                b[j] = ov + p
                enabled += 1
            else:
                b[j] = p
        ip = i + p
        if ip >= m:
            b.extend([0] * (ip + 1 - m))
            m = ip + 1
        ov = b[ip]
        b[ip] = ov + 1
        if ov == p:
            # columns right of i were stable, so ov <= p
            enabled += 1
        pos = ip  # every enabled column is now <= i + p
    trim(b)
    return total


def randomized(b: list[int], p: int, limit: int, seed: int) -> int:
    """Fire uniformly among enabled columns (seeded).  Returns total firings."""
    rng = random.Random(seed)
    rnd = rng.random
    pp1 = p + 1
    m = len(b)
    enabled = [i for i, v in enumerate(b) if v > p]
    where = [-1] * m
    for idx, col in enumerate(enabled):
        where[col] = idx
    total = 0
    while enabled:
        n = len(enabled)
        j = int(rnd() * n)
        if j == n:  # guard against float rounding
            j = n - 1
        i = enabled[j]
        total += 1
        if total > limit:
            raise WorkLimitExceeded(f"firing budget {limit} exceeded")
        nv = b[i] - pp1
        b[i] = nv
        if nv <= p:
            w = where[i]
            last = enabled[-1]
            enabled[w] = last
            where[last] = w
            enabled.pop()
            where[i] = -1
        if i:
            k = i - 1
            ov = b[k]
            b[k] = ov + p if ov else p
            if ov and ov <= p:
                where[k] = len(enabled)
                enabled.append(k)
        ip = i + p
        if ip >= m:
            grow = ip + 1 - m
            b.extend([0] * grow)
            where.extend([-1] * grow)
            m = ip + 1
        ov = b[ip]
        b[ip] = ov + 1
        if ov == p:
            where[ip] = len(enabled)
            enabled.append(ip)
    trim(b)
    return total


def relax(
    b0: list[int], grains: int, p: int, limit: int, start: np.ndarray | None = None
) -> tuple[list[int], list[int], int]:
    """Batched stabilization: returns (final configuration, per-column firings, total).

    Equivalent to any sequential strategy by confluence; used as the fast
    path for single-pile runs with many grains.  `start`, a non-negative
    firing vector s, is applied in one step first: the loop then relaxes
    b0 + Ds and s is counted in the returned firings.  Only columns above
    p fire, so entries that s drove negative stay put.  A spill past
    `support_cap` raises Inconsistent: from a bare pile it would mean that
    bound is wrong, from a start vector that s overshot.
    """
    pp1 = p + 1
    cap = support_cap(len(b0), grains, p)
    arr = np.zeros(cap, dtype=np.int64)
    arr[: len(b0)] = b0
    shots = np.zeros(cap, dtype=np.int64)
    if start is not None:
        if len(start) > cap:
            raise Inconsistent("start vector spills past the support bound")
        shots[: len(start)] = start
        arr -= shots * pp1
        arr[:-1] += p * shots[1:]
        arr[p:] += shots[:-p]
    total = int(shots.sum())
    if total > limit:
        raise WorkLimitExceeded(f"firing budget {limit} exceeded")
    while True:
        t = arr // pp1
        np.maximum(t, 0, out=t)
        fired = int(t.sum())
        if not fired:
            break
        total += fired
        if total > limit:
            raise WorkLimitExceeded(f"firing budget {limit} exceeded")
        shots += t
        arr -= t * pp1
        arr[:-1] += p * t[1:]
        arr[p:] += t[:-p]
    if arr[-(p + 2) :].any():
        raise Inconsistent("relaxation spilled past the proven support bound")
    b = arr.tolist()
    trim(b)
    s = shots.tolist()
    trim(s)
    return b, s, total


def certify(b0: list[int], p: int, w: list[int]) -> list[int] | None:
    """b0 + Dw, trimmed, if w is the least stabilizing odometer of b0; else None.

    A set A inside supp(w) can be un-fired (fired backwards once each) and
    leave b = b0 + Dw stable iff every x in A has in-degree from A, namely
    p*[x+1 in A] + [x-p in A], above b[x].  Burning removes from supp(w)
    every column that fails this until none does; what is left is the
    largest such A.  w is the least odometer u iff b is stable and nothing
    is left: un-firing A would give a smaller stabilizing odometer, and if
    w != u (so w >= u by least action) the set where w - u is largest could
    be un-fired, since no in-degree exceeds p+1.  Exact ints, O(len(w) + p).
    """
    n = len(w)
    b = list(b0) + [0] * max(0, n + p - len(b0))
    pp1 = p + 1
    for i, x in enumerate(w):
        if x:
            b[i] -= pp1 * x
            if i:
                b[i - 1] += p * x
            b[i + p] += x
    if any(v > p for v in b):
        return None
    live = [x > 0 for x in w] + [False] * pp1
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
    if any(live):
        return None
    trim(b)
    return b


def _sliding_min(x: np.ndarray, k: int) -> np.ndarray:
    """out[i] = min(x[i : i + k]), reading x as 0 past its end; O(len(x))."""
    n = len(x)
    y = np.zeros(-(-(n + k - 1) // k) * k)
    y[:n] = x
    blocks = y.reshape(-1, k)
    head = np.minimum.accumulate(blocks, axis=1).ravel()
    tail = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.minimum(tail[:n], head[k - 1 : n + k - 1])


def _estimate(shots: list[int], sub: int, grains: int, p: int) -> np.ndarray:
    """Under-estimate of the shot vector at `grains` from the one at `sub`.

    Widths scale as sqrt(N), so with r = grains / sub the shot vector
    satisfies a_i(grains) ~ r * a_{i/sqrt(r)}(sub).  The rescaled profile
    is read off by linear interpolation, down to 0 one cell past its end.
    A minimum over p+1 cells flattens the oscillation near the origin that
    interpolation would misplace, and a fixed factor below 1 keeps the
    guess under the true vector.
    """
    r = grains / sub
    scale = math.sqrt(r)
    x = np.arange(int(len(shots) * scale) + 1) / scale
    est = r * np.interp(x, np.arange(len(shots) + 1), shots + [0])
    return (_WARM_FACTOR * _sliding_min(est, p + 1)).astype(np.int64)


def pile_with_shots(grains: int, p: int, limit: int) -> tuple[list[int], list[int], int]:
    """Fixed point and shot vector of a single pile of `grains` on column 0.

    Above the cutoff the relaxation starts from the shot vector of
    grains // _WARM_RATIO, rescaled; a result that `certify` does not
    accept, a spill or an exhausted budget sends it back to the bare pile.
    """
    cutoff = _RELAX_CUTOFF // 4 if p == 1 else _RELAX_CUTOFF
    if grains < cutoff or support_cap(1, grains, p) > _RELAX_MAX_CELLS:
        b = [grains] if grains else []
        shots: list[int] = []
        total = leftmost(b, p, limit, int(grains > p), shots=shots)
        trim(shots)
        return b, shots, total
    sub = grains // _WARM_RATIO
    start = _estimate(pile_with_shots(sub, p, limit)[1], sub, grains, p)
    try:
        _, shots, total = relax([grains], grains, p, limit, start)
    except (Inconsistent, WorkLimitExceeded):
        pass
    else:
        b = certify([grains], p, shots)
        if b is not None:
            return b, shots, total
    return relax([grains], grains, p, limit)


def max_plateau_over_trajectory(grains: int, p: int, limit: int) -> int:
    """Longest plateau over every configuration of the leftmost run from a pile.

    A plateau of length L (L >= 2 equal-height non-empty columns) is a run
    of L-1 zeros in the height differences strictly inside the support, so
    the check only has to look at cells that just became zero or at tail
    zeros that the support just grew over.  Returns the plateau length (1
    if no plateau ever appears).
    """
    b = [grains] if grains else []
    pp1 = p + 1
    m = len(b)
    enabled = 1 if grains > p else 0
    pos = 0
    last = 0 if grains else -1  # index of last nonzero cell
    max_run = 0  # longest qualifying zero run seen so far
    total = 0
    while enabled:
        v = b[pos]
        while v <= p:
            pos += 1
            v = b[pos]
        i = pos
        total += 1
        if total > limit:
            raise WorkLimitExceeded(f"firing budget {limit} exceeded")
        nv = v - pp1
        b[i] = nv
        if nv <= p:
            enabled -= 1
        if i:
            j = i - 1
            ov = b[j]
            if ov:
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
        # the support end never retreats: zeroing b[i] at i == last always
        # comes with b[i + p] turning nonzero
        prev_last = last
        if ip > last:
            last = ip
        if not nv and i < last:
            lo = i
            while lo and not b[lo - 1]:
                lo -= 1
            hi = i
            while not b[hi + 1]:
                hi += 1
            run = hi - lo + 1
            if run > max_run:
                max_run = run
        if ip > prev_last + 1:
            # cells between the old and new support end turned into an
            # in-support zero run
            hi = ip - 1
            lo = hi
            while lo and not b[lo - 1]:
                lo -= 1
            run = hi - lo + 1
            if run > max_run:
                max_run = run
    return max_run + 1 if max_run else 1
