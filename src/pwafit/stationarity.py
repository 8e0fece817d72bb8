"""Subdifferential calculus for univariate piecewise affine functions and
stationarity residual checkers for the composite problem.

The four classical subdifferentials (Bouligand, regular/Frechet, limiting,
Clarke) have closed forms in one dimension from the left/right slopes, so
they are computed exactly.  The composite checkers certify d-stationarity
(or weak M-stationarity) by measuring how far a point moves under one
proximal subproblem solve per admissible atom-pair selection; `certify`
attaches that residual to an `mm.run` report.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

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

    def limiting_contains(self, v: float, tol: float = 1e-12) -> bool:
        return any(lo - tol <= v <= hi + tol for lo, hi in self.limiting_sub)


def subdifferentials(f: PiecewiseAffine1D, x: float) -> SubdifferentialReport:
    a, b = f.slopes_at(x)
    if abs(a - b) < 1e-14:
        pt = (a, a)
        return SubdifferentialReport((a,), pt, (pt,), pt)
    b_sub = tuple(sorted({a, b}))
    regular = (a, b) if a <= b else None
    limiting = ((a, b),) if a <= b else ((min(a, b), min(a, b)), (max(a, b), max(a, b)))
    clarke = (min(a, b), max(a, b))
    return SubdifferentialReport(b_sub, regular, limiting, clarke)


@dataclass(frozen=True)
class StationarityFlags:
    c_stationary: bool
    l_stationary: bool
    d_stationary: bool
    local_min: bool


def classify_point(f: PiecewiseAffine1D, x: float,
                   rep: SubdifferentialReport | None = None) -> StationarityFlags:
    """Flags of f at x; `rep` is f's `subdifferentials` at x, if at hand."""
    rep = subdifferentials(f, x) if rep is None else rep
    a, b = f.slopes_at(x)
    # f'(x; -1) = -a >= 0 and f'(x; 1) = b >= 0.  f is affine on each side of
    # x near it, so in one dimension these make x a local minimum, and only they
    d_flag = a <= 0.0 <= b
    return StationarityFlags(rep.clarke_sub[0] <= 0.0 <= rep.clarke_sub[1],
                             rep.limiting_contains(0.0), d_flag, d_flag)


# ---------------------------------------------------------------------------
# composite-problem residuals

_TIGHT_SN = SNConfig(tol_grad=1e-12, max_iter=200)


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


def _max_residual(problem: CompositeProblem, theta_bar, sels, c: float):
    """(largest `_selection_residual` over `sels`, number of those solves that
    did not converge).  One subproblem is rebuilt in place for each selection,
    and each solve is warm-started from the previous one's multipliers; a NaN
    residual is kept, not dropped."""
    state = mm.init_state(problem, np.asarray(theta_bar, dtype=float))
    residual, warm, sub, unconverged = 0.0, None, None, 0
    for sel1, sel2 in sels:
        sub = mm.build_subproblem(problem, state, sel1, sel2, c, reuse=sub)
        r, res = _selection_residual(sub, warm)
        residual, warm = np.maximum(residual, r), res.x
        unconverged += not res.converged
    return float(residual), unconverged


def dstat_residual(problem: CompositeProblem, theta_bar, c: float,
                   combo_cap: int = mm.MMConfig.combo_cap):
    """Max subproblem displacement over exact-argmax pair selections.

    The selections are `mm.select_pairs`'s "full" ones at tolerance TIE_TOL.
    Returns (residual, coverage, unconverged); residual near zero certifies
    d-stationarity exactly when coverage == 1 and no solve is unconverged.
    """
    sels, coverage = mm.select_pairs(problem, theta_bar, TIE_TOL, "full",
                                     combo_cap=combo_cap)
    residual, unconverged = _max_residual(problem, theta_bar, sels, c)
    return residual, coverage, unconverged


def weak_mstat_residual(problem: CompositeProblem, theta_bar, selection,
                        c: float):
    """(displacement under the subproblem of one given pair selection, 1 if
    its solve did not converge else 0)."""
    sel = tuple(np.asarray(part, dtype=int) for part in selection)
    return _max_residual(problem, theta_bar, [sel], c)


def certify(problem: CompositeProblem, report: mm.SolveReport,
            config: mm.MMConfig) -> mm.SolveReport:
    """Fill the report's residual fields at its final theta, with the
    proximal weight `certificate_c` gives for `config.c`.

    The `one` variant gets the weak M-stationarity residual of its own
    selection; the others get the d-stationarity residual over the first
    `combo_cap` exact-argmax selections, with their coverage.  Either way the
    report counts the certificate's unconverged solves.
    """
    theta = report.theta
    c = certificate_c(problem, config.c)
    if config.variant == "one":
        sels, _ = mm.select_pairs(problem, theta, config.eps, "one")
        report.residual, report.residual_unconverged = weak_mstat_residual(
            problem, theta, sels[0], c)
        report.residual_kind = "weak_mstat"
        report.residual_coverage = 1.0
    else:
        (report.residual, report.residual_coverage,
         report.residual_unconverged) = dstat_residual(problem, theta, c,
                                                       config.combo_cap)
        report.residual_kind = "dstat"
    return report
