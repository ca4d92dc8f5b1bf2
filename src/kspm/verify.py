"""Sweep-style verification suites behind `kspm verify` and the tests.

Each suite runs a family of checks over (p, N) ranges and reports a
CheckResult per cell: pass/fail, a human-readable detail, and a
serializable counterexample on failure.  Suites are deterministic
(random strategies derive their seeds from an explicit base seed) and
sequential; cells are independent, so callers may shard them if they
want parallelism.  The support and density suites read each pile of
`avalanche.steps` in place, in plain ints, with no copy or object per grain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import _engine, analysis, avalanche, dds
from .core import DEFAULT_WORK_LIMIT, Params, check_grains, check_limit, fixed_point
from .errors import InvalidParameter


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: Optional[dict] = None
    data: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}: {self.name} {self.detail}"


def check_confluence(
    p: int,
    n_max: int,
    seeds: int = 10,
    base_seed: int = 0,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> CheckResult:
    """Leftmost, rightmost, and seeded random runs must all agree."""
    name = f"confluence p={p}"
    Params(p)  # rejects p < 1, on which the engines never stop
    check_grains(n_max, 1, p)
    check_limit(work_limit)
    if type(seeds) is not int or seeds < 0 or type(base_seed) is not int:
        raise InvalidParameter(
            f"seeds must be an int >= 0 and base_seed an int, got {seeds!r} and {base_seed!r}")
    for grains in range(1, n_max + 1):
        ref = [grains]
        ref_total = _engine.leftmost(ref, p, work_limit)
        for seed in [None, *range(base_seed, base_seed + seeds)]:  # None: rightmost
            alt = [grains]
            alt_total = _engine.worklist(alt, p, work_limit, seed)
            if alt != ref or alt_total != ref_total:
                where = "rightmost" if seed is None else f"random seed {seed}"
                case = {"strategy": "rightmost"} if seed is None else {
                    "strategy": "random", "seed": seed}
                return CheckResult(
                    name, False, f"{where} diverges at N={grains}",
                    {"p": p, "N": grains, **case, "expected": ref, "actual": alt,
                     "expected_total": ref_total, "actual_total": alt_total},
                )
    return CheckResult(name, True, f"N<=n_max={n_max}, {seeds} random seeds: identical")


def check_plateau(p: int, n_max: int, work_limit: int = DEFAULT_WORK_LIMIT) -> CheckResult:
    """No plateau longer than p+1 anywhere on any leftmost trajectory."""
    name = f"plateau p={p}"
    Params(p)  # rejects p < 1, on which the engine never stops
    check_grains(n_max, 1, p)
    check_limit(work_limit)
    bound = p + 1
    worst = 1
    for grains in range(1, n_max + 1):
        longest = _engine.max_plateau_over_trajectory(grains, p, work_limit)
        if longest > worst:
            worst = longest
        if longest > bound:
            return CheckResult(
                name,
                False,
                f"plateau of length {longest} > {bound} on the run from N={grains}",
                {"p": p, "N": grains, "max_plateau": longest, "bound": bound},
            )
    return CheckResult(
        name, True, f"N<=n_max={n_max}: longest plateau {worst} <= {bound}",
        data={"worst": worst},
    )


def check_support(p: int, n_max: int, work_limit: int = DEFAULT_WORK_LIMIT) -> CheckResult:
    """Strict sqrt bounds on the fixed-point width for every N <= n_max."""
    name = f"support p={p}"
    for k, *_, b in avalanche.steps(n_max, p, work_limit):
        lower, upper = analysis._support_limits(k, p)
        if not lower < len(b) < upper:
            return CheckResult(
                name,
                False,
                f"width {len(b)} outside ({lower:.3f}, {upper:.3f}) at N={k}",
                {"p": p, "N": k, "width": len(b), "lower": lower, "upper": upper},
            )
    return CheckResult(name, True, f"N<=n_max={n_max}: all widths strictly inside bounds")


def check_spectrum(p_max: int) -> CheckResult:
    """For every p in 2..p_max, `dds.failed_claim` proves in exact arithmetic
    that the roots of R are distinct, that their modulus is at most (p-1)/p,
    and that with 0 they are the centered step matrix's eigenvalues."""
    name = f"spectrum p<={p_max}"
    if type(p_max) is not int or p_max < 2:
        raise InvalidParameter(f"p_max must be an int >= 2, got {p_max!r}")
    for p in range(2, p_max + 1):
        c = dds.r_coefficients(p)
        reason = dds.failed_claim(c)
        if reason is not None:
            return CheckResult(name, False, f"{reason} at p={p}", {"p": p, "coefficients": c})
    return CheckResult(name, True, "roots distinct, modulus <= (p-1)/p, "
                       "centered-step eigenvalues {0} + roots, exact")


def check_waves(p: int, grains: int, work_limit: int = DEFAULT_WORK_LIMIT) -> CheckResult:
    """Matcher soundness and the subset relation on one fixed point."""
    name = f"waves p={p} N={grains}"
    params = Params(p)
    check_grains(grains, 1)
    c = fixed_point(grains, params, work_limit)
    report = analysis.wave_report(c)
    i1, i2 = report.theorem1_index, report.theorem2_index
    if i2 < i1:
        return CheckResult(name, False, f"tight index {i2} below loose index {i1}",
                           {"p": p, "N": grains, "theorem1_index": i1, "theorem2_index": i2})
    rebuilt = rebuild_suffix(report.decomposition, p)
    if tuple(c.diffs[i2:]) != rebuilt:
        return CheckResult(name, False, "decomposition does not regenerate the suffix",
                           {"p": p, "N": grains, "index": i2,
                            "decomposition": [list(x) for x in report.decomposition]})
    detail = (
        f"theorem1_index={i1} theorem2_index={i2} "
        f"decomposition={'+'.join(f'0^{z}W^{w}' for z, w in report.decomposition) or 'empty'} "
        f"nontrivial={str(report.nontrivial).lower()}"
    )
    return CheckResult(name, True, detail,
                       data={"theorem1_index": i1, "theorem2_index": i2,
                             "decomposition": report.decomposition, "width": c.width()})


def rebuild_suffix(decomposition, p: int) -> tuple[int, ...]:
    """Regenerate height differences from (zero-run, wave count) pairs."""
    wave = tuple(range(p, 0, -1))
    out: list[int] = []
    for z, w in decomposition:
        out.extend([0] * z)
        out.extend(wave * w)
    return tuple(out)


def check_linkage(p: int, grains_list, work_limit: int = DEFAULT_WORK_LIMIT) -> CheckResult:
    """From the first constant averaging state, the loose wave form holds."""
    name = f"linkage p={p}"
    params = Params(p)
    grains_list = list(grains_list)
    n_lo = min(grains_list, default=0)
    check_grains(n_lo, 1)
    for grains in grains_list:
        c, sv = dds.pile(grains, params, work_limit)
        idx = dds.first_constant_index(dds.trajectory_of(c, sv, params))
        if idx is None:
            return CheckResult(name, False, f"no constant averaging state for N={grains}",
                               {"p": p, "N": grains})
        if not analysis.matches_theorem1_at(c, idx):
            return CheckResult(
                name, False,
                f"suffix from first constant index {idx} not wavy for N={grains}",
                {"p": p, "N": grains, "first_constant_index": idx, "diffs": list(c.diffs)},
            )
    n_hi = max(grains_list)
    return CheckResult(name, True, f"{len(grains_list)} piles in [{n_lo}, {n_hi}] linked")


def check_density(p: int, n_max: int, work_limit: int = DEFAULT_WORK_LIMIT) -> CheckResult:
    """Avalanche density column against the previous pile's emergence index.

    For every k <= n_max: L'(p, k) <= emergence_index(pi(k-1)) + p + 1.
    Also records the running maximum L(p, N) at power-of-two checkpoints.
    """
    name = f"density p={p}"
    l_global = 0
    checkpoints: dict[int, int] = {}
    prev_emergence = 0  # empty pile matches everywhere
    for k, head, lp, last, b in avalanche.steps(n_max, p, work_limit):
        bound = prev_emergence + p + 1
        if lp > bound:
            return CheckResult(
                name, False,
                f"L'={lp} > emergence(pi({k - 1})) + p + 1 = {bound} at k={k}",
                {"p": p, "k": k, "l_prime": lp, "bound": bound,
                 "prev_emergence": prev_emergence, "fired": _engine.firing_order(b, p, head, last)},
            )
        if lp > l_global:
            l_global = lp
        if k & (k - 1) == 0:
            checkpoints[k] = l_global
        prev_emergence = analysis._tight_index(b, p)  # stable: the generator's proof
    checkpoints[n_max] = l_global
    return CheckResult(
        name, True,
        f"k<=n_max={n_max}: every avalanche dense within p+1 of the previous emergence; "
        f"L(p,{n_max})={l_global}",
        data={"l_global": l_global, "checkpoints": checkpoints},
    )


def check_recurrence(p: int, n_max: int, work_limit: int = DEFAULT_WORK_LIMIT) -> CheckResult:
    """Grain-by-grain pile equals the from-scratch fixed point for every k."""
    name = f"recurrence p={p}"
    params = Params(p)
    check_grains(n_max, 1, p)
    check_limit(work_limit)
    b = [0]  # never empty again: worklist trims only zeros past the grains
    for k in range(1, n_max + 1):
        b[0] += 1
        # rightmost on purpose: a different strategy than the scan engine
        _engine.worklist(b, p, work_limit)
        scratch = fixed_point(k, params, work_limit)
        if tuple(b) != scratch.diffs:
            return CheckResult(
                name, False, f"incremental and from-scratch piles differ at k={k}",
                {"p": p, "k": k, "incremental": b, "scratch": list(scratch.diffs)},
            )
    return CheckResult(name, True, f"k<=n_max={n_max}: incremental piles match from-scratch")
