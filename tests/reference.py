"""Independent reference implementations used as oracles.

Everything here works directly on plain lists and deliberately avoids
the package's engines and matchers: the height-rule simulator applies
the grain-moving rule to height profiles, and the suffix matchers test
every candidate decomposition by brute force.  Slow on purpose.
"""

from __future__ import annotations


def heights_from_diffs(diffs):
    out = []
    acc = 0
    for v in reversed(diffs):
        acc += v
        out.append(acc)
    return list(reversed(out))


def diffs_from_heights(heights):
    hs = list(heights) + [0]
    return trim([hs[i] - hs[i + 1] for i in range(len(hs) - 1)])


def trim(seq):
    seq = list(seq)
    while seq and seq[-1] == 0:
        seq.pop()
    return seq


def shot_counts(fired):
    """Per-column counts of a firing sequence, trimmed."""
    counts = [0] * (max(fired, default=-1) + 1)
    for i in fired:
        counts[i] += 1
    return counts


class HeightPile:
    """Grain-moving rule applied to the height representation.

    A column i can fire iff h_i - h_{i+1} > p; firing moves p grains,
    one onto each of columns i+1 .. i+p.
    """

    def __init__(self, heights, p):
        self.h = trim(heights)
        self.p = p

    def enabled(self):
        h = self.h + [0]
        return [i for i in range(len(self.h)) if h[i] - h[i + 1] > self.p]

    def fire(self, i):
        p = self.p
        need = len(self.h)
        if i + p + 1 > need:
            self.h.extend([0] * (i + p + 1 - need))
        assert self.h[i] - (self.h[i + 1] if i + 1 < len(self.h) else 0) > p
        self.h[i] -= p
        for k in range(1, p + 1):
            self.h[i + k] += 1
        self.h = trim(self.h)

    def leftmost_run(self, record_diffs=None, fired=None):
        """Stabilize via leftmost firings; optionally record each state and column fired."""
        total = 0
        while True:
            en = self.enabled()
            if not en:
                return total
            self.fire(en[0])
            total += 1
            if fired is not None:
                fired.append(en[0])
            if record_diffs is not None:
                record_diffs.append(diffs_from_heights(self.h))

    def diffs(self):
        return diffs_from_heights(self.h)


def naive_fixed_point(grains, p):
    pile = HeightPile([grains], p)
    pile.leftmost_run()
    return pile.diffs()


def wave(p):
    return list(range(p, 0, -1))


def suffix_matches_loose(seq, p):
    """Brute-force recognizer for (0^{0..p+1} wave)* 0^omega on a finite word.

    `seq` is the full remaining word (trailing zeros trimmed); returns
    True iff it can be consumed completely.
    """
    seq = trim(seq)
    if not seq:
        return True
    for z in range(0, p + 2):
        if len(seq) < z or any(seq[:z]):
            break
        rest = seq[z:]
        if rest[: p] == wave(p) and suffix_matches_loose(rest[p:], p):
            return True
    return False


def suffix_matches_tight(seq, p):
    """Brute force for waves [one lone 0 between wave blocks] waves 0^omega."""
    seq = trim(seq)

    def waves_only(s):
        while s:
            if s[:p] != wave(p):
                return False
            s = s[p:]
        return True

    if waves_only(seq):
        return True
    # try every split: x >= 1 waves, a single zero, then y >= 1 waves
    for cut in range(p, len(seq), p):
        head, tail = seq[:cut], seq[cut:]
        if not waves_only(head):
            break
        if tail and tail[0] == 0 and tail[1:] and waves_only(tail[1:]):
            return True
    return False


def brute_match_index(diffs, p, tight):
    """Smallest suffix start accepted by the brute-force recognizer."""
    m = len(diffs)
    accept = suffix_matches_tight if tight else suffix_matches_loose
    for n in range(m + 1):
        if accept(list(diffs[n:]), p):
            return n
    return None


def brute_holes(fired):
    s = set(fired)
    if not s:
        return []
    top = max(s)
    return [i for i in range(top) if i not in s and i + 1 in s]


def centered_step_eigenvalues(p):
    """numpy's eigenvalues of DM = (I - J/p) A, A the averaging step's linear
    part: shift up, last row all 1/p."""
    import numpy as np

    a = np.eye(p, k=1)
    a[-1, :] = 1 / p
    return np.linalg.eigvals((np.eye(p) - np.full((p, p), 1 / p)) @ a)


def within_one_each(got, expected, tol):
    """As many values as expected, and each expected value within tol of
    exactly one of them: a bijection when the expected values are more than
    2 tol apart."""
    return len(got) == len(expected) and all(
        sum(abs(w - z) < tol for w in got) == 1 for z in expected)
