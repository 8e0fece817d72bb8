"""Subdifferential calculus for univariate piecewise affine functions and
stationarity residual checkers for the composite problem.

The four classical subdifferentials (Bouligand, regular/Frechet, limiting,
Clarke) have closed forms in one dimension from the left/right slopes, so
they are computed exactly.  The composite checkers certify d-stationarity
(or weak M-stationarity) by measuring how far a point moves under one
proximal subproblem solve per admissible atom-pair selection; each returns
one `Certificate`, and `certify` picks the one a fit's variant calls for.

Each solve stops on SN's one rule: once its duality gap is at most
`_TIGHT_SN`'s gap_rel times (c/2) ||z - z_nu||^2, a measure free of the units
of y, with `SNConfig`'s 1e-12 ||grad xi|| exit as the fallback at an exactly
stationary point, where the step and the gap target are 0.  By c-strong
convexity of the subproblem a solve's theta lies within sqrt(2 gap / c) of
the exact solution's, so the certificate reports the largest of these over
its selections as `bound`: the reported residual is within `bound` of the
exact one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import mm
from .funcs import TIE_TOL, CompositeProblem
from .snewton import SNConfig, sn_solve


@dataclass(frozen=True)
class PiecewiseAffine1D:
    """Continuous piecewise affine function of one variable.

    pieces[i] = (slope, intercept) on the interval between breakpoints[i-1]
    and breakpoints[i]; there is one more piece than breakpoints.
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        bp = self.breakpoints
        if any(bp[i] >= bp[i + 1] for i in range(len(bp) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        for i, x in enumerate(bp):
            a0, b0 = self.pieces[i]
            a1, b1 = self.pieces[i + 1]
            if abs((a0 * x + b0) - (a1 * x + b1)) > 1e-9:
                raise ValueError(f"discontinuous at breakpoint {x}")

    def slopes_at(self, x: float) -> tuple[float, float]:
        """(left slope, right slope) at x."""
        il = bisect.bisect_left(self.breakpoints, x)
        ir = bisect.bisect_right(self.breakpoints, x)
        return self.pieces[il][0], self.pieces[ir][0]


@dataclass(frozen=True)
class SubdifferentialReport:
    b_sub: tuple[float, ...]                       # finite set
    regular_sub: tuple[float, float] | None        # closed interval or empty
    limiting_sub: tuple[tuple[float, float], ...]  # union of closed intervals
    clarke_sub: tuple[float, float]                # closed interval

    def limiting_contains(self, v: float) -> bool:
        return any(lo <= v <= hi for lo, hi in self.limiting_sub)


def subdifferentials(f: PiecewiseAffine1D, x: float) -> SubdifferentialReport:
    """The subdifferentials of f at x from its exact left and right slopes a
    and b; no two slopes are merged, however close."""
    a, b = f.slopes_at(x)
    lo, hi = min(a, b), max(a, b)
    regular = (a, b) if a <= b else None
    limiting = ((a, b),) if a <= b else ((lo, lo), (hi, hi))
    return SubdifferentialReport(tuple(sorted({a, b})), regular, limiting, (lo, hi))


@dataclass(frozen=True)
class StationarityFlags:
    c_stationary: bool
    l_stationary: bool
    d_stationary: bool
    local_min: bool


def classify_point(rep: SubdifferentialReport) -> StationarityFlags:
    """Flags of the point whose `subdifferentials` are `rep`: 0 in its Clarke,
    limiting or regular set, so d => l => C.  f is affine on each side of the
    point near it, so in one dimension d-stationary and local minimum agree."""
    lo, hi = rep.clarke_sub
    d_flag = rep.regular_sub is not None and rep.regular_sub[0] <= 0.0 <= rep.regular_sub[1]
    return StationarityFlags(lo <= 0.0 <= hi, rep.limiting_contains(0.0),
                             d_flag, d_flag)


# ---------------------------------------------------------------------------
# composite-problem residuals

# the gap exit's tolerance: on the benchmark's grid-valued `lattice-check`
# data (seed 1), 1e-4 took 14 % fewer Newton steps than 1e-5, but its bound
# was 23 % of the residual at the median, against 6 %; MM's 3e-3 gave a bound
# 1.4 times the residual it bounds
_TIGHT_SN = SNConfig(max_iter=200, gap_rel=1e-5)


def certificate_c(problem: CompositeProblem, c: float | None) -> float:
    """The certificate's proximal weight: `c` when set, else the data-scaled
    1e-2 (1 + mean y^2).

    The residual is a displacement max|theta - theta_bar|, whose size depends
    on c, so the certificate keeps this weight whatever weight MM stepped
    with (`mm.MMConfig.resolve_c`)."""
    if c is not None:
        return float(c)
    return 1e-2 * (1.0 + float(np.mean(np.atleast_1d(problem.split.y) ** 2)))


def _selection_residual(sub, warm=None):
    """(max|theta - theta_bar|, SNResult) of one tight solve of `sub`, whose
    anchor theta_bar is the certified point."""
    res = sn_solve(sub, warm=warm, cfg=_TIGHT_SN)
    return float(np.abs(res.theta - sub.theta_nu).max(initial=0.0)), res


class Certificate(NamedTuple):
    """The stationarity certificate of one point."""
    residual: float     # largest subproblem displacement over the selections
    coverage: float     # the solved fraction of the admissible selections
    unconverged: int    # solves that stopped short of their tolerance
    kind: str           # "dstat" or "weak_mstat"
    bound: float        # |residual - exact residual| <= bound (see module doc)


def _max_residual(problem: CompositeProblem, theta_bar, sels, c: float):
    """(largest `_selection_residual` over `sels`, number of those solves that
    did not converge, largest sqrt(2 max(gap, 0) / c) of those solves).  One
    subproblem is rebuilt in place for each selection, at the one anchor
    theta_bar, so a rebuild rewrites only the samples whose selection
    changed; each solve is warm-started from the previous one's multipliers,
    and a NaN residual or gap is kept, not dropped."""
    state = mm.init_state(problem, np.asarray(theta_bar, dtype=float))
    residual, bound, warm, sub, unconverged = 0.0, 0.0, None, None, 0
    for sel1, sel2 in sels:
        sub = mm.build_subproblem(problem, state, sel1, sel2, c, reuse=sub)
        r, res = _selection_residual(sub, warm)
        residual, warm = np.maximum(residual, r), res.x
        unconverged += not res.converged
        bound = np.maximum(bound, np.sqrt(2.0 * np.maximum(res.gap, 0.0) / c))
    return float(residual), unconverged, float(bound)


def dstat_residual(problem: CompositeProblem, theta_bar, c: float,
                   combo_cap: int = mm.MMConfig.combo_cap) -> Certificate:
    """Max subproblem displacement over exact-argmax pair selections.

    The selections are `mm.select_pairs`'s "full" ones at tolerance TIE_TOL.
    A residual near zero certifies d-stationarity exactly when coverage == 1
    and residual + bound is near zero too.
    """
    sels, coverage = mm.select_pairs(problem, theta_bar, TIE_TOL, "full",
                                     combo_cap=combo_cap)
    residual, unconverged, bound = _max_residual(problem, theta_bar, sels, c)
    return Certificate(residual, coverage, unconverged, "dstat", bound)


def weak_mstat_residual(problem: CompositeProblem, theta_bar, selection,
                        c: float) -> Certificate:
    """Displacement under the subproblem of one given pair selection
    (sel1, sel2); its coverage is 1."""
    residual, unconverged, bound = _max_residual(problem, theta_bar, [selection], c)
    return Certificate(residual, 1.0, unconverged, "weak_mstat", bound)


def certify(problem: CompositeProblem, theta, config: mm.MMConfig) -> Certificate:
    """The certificate of theta that a fit with `config` reports, at the
    proximal weight `certificate_c` gives for `config.c`.

    The `one` variant gets the weak M-stationarity residual of its own
    selection; the others get the d-stationarity residual over the first
    `combo_cap` exact-argmax selections, with their coverage.  Each
    selection's solve stops on its duality gap (`_TIGHT_SN`), and the
    certificate's `bound` says how far the reported residual can be from
    the one exact solves would give.
    """
    c = certificate_c(problem, config.c)
    if config.variant == "one":
        sels, _ = mm.select_pairs(problem, theta, TIE_TOL, "one")
        return weak_mstat_residual(problem, theta, sels[0], c)
    return dstat_residual(problem, theta, c, config.combo_cap)
