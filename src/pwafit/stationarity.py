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
import itertools
from dataclasses import dataclass

import numpy as np

from . import mm
from .funcs import TIE_TOL, CompositeProblem
from .snewton import SNConfig, sn_solve

_CONT_TOL = 1e-12


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

    # -- constructors

    @classmethod
    def affine(cls, slope: float, intercept: float = 0.0) -> "PiecewiseAffine1D":
        return cls((), ((float(slope), float(intercept)),))

    @classmethod
    def maximum(cls, *fs) -> "PiecewiseAffine1D":
        """Pointwise max; arguments are instances or (slope, intercept) pairs."""
        fs = [f if isinstance(f, cls) else cls.affine(*f) for f in fs]
        cands: set[float] = set()
        for f in fs:
            cands.update(f.breakpoints)
        # crossings of every pair of lines appearing in any operand
        lines = [(a, b) for f in fs for (a, b) in f.pieces]
        for (a0, b0), (a1, b1) in itertools.combinations(set(lines), 2):
            if abs(a0 - a1) > 1e-14:
                cands.add((b1 - b0) / (a0 - a1))
        xs = sorted(cands)
        # active line on each open interval, read off at its midpoint
        mids = []
        if not xs:
            mids = [0.0]
        else:
            mids.append(xs[0] - 1.0)
            for i in range(len(xs) - 1):
                mids.append(0.5 * (xs[i] + xs[i + 1]))
            mids.append(xs[-1] + 1.0)
        pieces = []
        for t in mids:
            vals = [f.value(t) for f in fs]
            j = int(np.argmax(vals))
            pieces.append(fs[j].piece_at(t))
        # merge intervals that share one line
        bps, merged = [], [pieces[0]]
        for x, pc in zip(xs, pieces[1:]):
            if abs(pc[0] - merged[-1][0]) < 1e-14 and abs(pc[1] - merged[-1][1]) < 1e-12:
                continue
            bps.append(x)
            merged.append(pc)
        return cls(tuple(bps), tuple(merged))

    @classmethod
    def minimum(cls, *fs) -> "PiecewiseAffine1D":
        fs = [f if isinstance(f, cls) else cls.affine(*f) for f in fs]
        return cls.maximum(*[f.scale(-1.0) for f in fs]).scale(-1.0)

    def scale(self, k: float) -> "PiecewiseAffine1D":
        return PiecewiseAffine1D(self.breakpoints,
                                 tuple((k * a, k * b) for a, b in self.pieces))

    # -- evaluation

    def piece_at(self, x: float) -> tuple[float, float]:
        return self.pieces[bisect.bisect_right(self.breakpoints, x)]

    def value(self, x: float) -> float:
        a, b = self.piece_at(x)
        return a * x + b

    def slopes_at(self, x: float) -> tuple[float, float]:
        """(left slope, right slope) at x."""
        il = bisect.bisect_left(self.breakpoints, x)
        ir = bisect.bisect_right(self.breakpoints, x)
        return self.pieces[il][0], self.pieces[ir][0]

    def dir(self, x: float, v: float) -> float:
        a, b = self.slopes_at(x)
        return b * v if v >= 0 else a * v

    def is_convex(self) -> bool:
        sl = [a for a, _ in self.pieces]
        return all(sl[i] <= sl[i + 1] + 1e-12 for i in range(len(sl) - 1))


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


def classify_point(f: PiecewiseAffine1D, x: float) -> StationarityFlags:
    rep = subdifferentials(f, x)
    a, b = f.slopes_at(x)
    c_flag = rep.clarke_sub[0] <= 0.0 <= rep.clarke_sub[1]
    l_flag = rep.limiting_contains(0.0)
    d_flag = a <= 0.0 <= b       # f'(x; -1) = -a >= 0 and f'(x; 1) = b >= 0
    local = a <= 0.0 <= b        # one dimension: nonnegative one-sided slopes
    return StationarityFlags(c_flag, l_flag, d_flag, local)


def dc_critical_check(f1: PiecewiseAffine1D, f2: PiecewiseAffine1D, x: float) -> bool:
    """Criticality of f1 - f2 at x: the convex subdifferentials intersect."""
    if not f1.is_convex() or not f2.is_convex():
        raise ValueError("dc criticality requires convex parts")
    a1, b1 = f1.slopes_at(x)
    a2, b2 = f2.slopes_at(x)
    return max(a1, a2) <= min(b1, b2) + 1e-12


# ---------------------------------------------------------------------------
# composite-problem residuals

_TIGHT_SN = SNConfig(tol_grad=1e-12, max_iter=200)


def _selection_residual(problem, state, sel1, sel2, c, warm=None):
    sub = mm.build_subproblem(problem, state, sel1, sel2, c)
    res = sn_solve(sub, warm=warm, cfg=_TIGHT_SN)
    return float(np.abs(res.theta - state.theta).max(initial=0.0)), res


def dstat_residual(problem: CompositeProblem, theta_bar, c: float,
                   combo_cap: int = 64):
    """Max subproblem displacement over exact-argmax pair selections.

    The selections are `mm.select_pairs`'s "full" ones at tolerance TIE_TOL.
    Returns (residual, worst_selection, coverage); residual near zero
    certifies d-stationarity exactly when coverage == 1.
    """
    theta_bar = np.asarray(theta_bar, dtype=float)
    state = mm.init_state(problem, theta_bar)
    sels, coverage = mm.select_pairs(problem, theta_bar, TIE_TOL, "full",
                                     combo_cap=combo_cap)
    worst = 0.0
    worst_sel = None
    warm = None
    for sel1, sel2 in sels:
        r, res = _selection_residual(problem, state, sel1, sel2, c, warm)
        warm = (res.lam, res.mu)
        if r >= worst:
            worst, worst_sel = r, (sel1, sel2)
    return worst, worst_sel, coverage


def weak_mstat_residual(problem: CompositeProblem, theta_bar, selection,
                        c: float) -> float:
    """Displacement under the subproblem of one given pair selection."""
    theta_bar = np.asarray(theta_bar, dtype=float)
    state = mm.init_state(problem, theta_bar)
    sel1 = np.asarray(selection[0], dtype=int)
    sel2 = np.asarray(selection[1], dtype=int)
    r, _ = _selection_residual(problem, state, sel1, sel2, c)
    return r


def certify(problem: CompositeProblem, report: mm.SolveReport,
            config: mm.MMConfig, c: float) -> mm.SolveReport:
    """Fill the report's residual fields at its final theta.

    The `one` variant gets the weak M-stationarity residual of its own
    selection; the others get the d-stationarity residual over the first
    `combo_cap` exact-argmax selections, with their coverage.
    """
    theta = report.theta
    if config.variant == "one":
        sels, _ = mm.select_pairs(problem, theta, config.eps, "one")
        report.residual = weak_mstat_residual(problem, theta, sels[0], c)
        report.residual_kind = "weak_mstat"
        report.residual_coverage = 1.0
    else:
        report.residual, _, report.residual_coverage = dstat_residual(
            problem, theta, c, config.combo_cap)
        report.residual_kind = "dstat"
    return report
