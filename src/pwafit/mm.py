"""Nonmonotone majorization-minimization outer loop.

Each iteration linearizes one (or several) selected atom pairs per sample to
build a convex subproblem over the augmented variables z = (theta, r, s,
slacks), solves it through the Lagrangian dual with the semismooth Newton
method, and accepts the candidate according to the chosen variant:

  full   - enumerate the per-sample eps-argmax pair product (capped), keep
           the candidate with the smallest subproblem objective;
  one    - single lexicographically-first exact-argmax pair, always accept;
  random - one uniform draw from the eps-argmax product, accept only on a
           strict surrogate decrease.

Each step anchors at an extrapolated point when that lowers f_N, else at
theta_k with the extrapolation restarted (Wen, Chen and Pong, Comput. Optim.
Appl. 69 (2018); the function-value restart of O'Donoghue and Candes, Found.
Comput. Math. 15 (2015)).  A rejected `random` draw keeps its anchor, so it
ends a fit only when that anchor was theta_k.

`run` returns a `SolveReport` without a stationarity certificate; that is
`stationarity.certify`'s, which builds on this module's pair selection, so
`mm` itself imports no `stationarity`.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .funcs import TIE_TOL, CompositeProblem
from .snewton import DualSubproblem, SNConfig, build_subproblem, sn_solve

# default proximal weight c = _KAPPA * w, in units of the loss weight w = 1/N:
# a c far above w slows MM's descent to a crawl.  Over kappa = 0.02 to 0.27 on
# paper examples 1 and 2 at N = 400 and 4 000, 0.05 gave the fastest fits that
# reach the noise floor with every SN solve converged
_KAPPA = 0.05
# every MM solve's gap exit (`sn_solve`): 1e-2 saved a few more Newton steps
# but sent some cross-validated fits of paper example 2 to worse basins
_GAP_REL = 3e-3


@dataclass
class MMConfig:
    """MM options; the CLI takes its defaults and its key order from here."""

    c: float | None = None          # proximal weight; None -> _KAPPA * loss weight
    eps: float = 1e-4               # argmax expansion
    tol_rel: float = 1e-4           # relative objective-change stopping rule
    max_outer: int = 500
    combo_cap: int = 64
    sn_max_iter: int = 100
    variant: str = "random"         # full | one | random
    seed: int = 0

    def resolve_c(self, problem: CompositeProblem) -> float:
        if self.c is not None:
            return float(self.c)
        return _KAPPA * problem.weight


@dataclass
class AugmentedIterate:
    theta: np.ndarray
    r: np.ndarray
    s: np.ndarray
    warm: np.ndarray | None = None  # stacked dual warm start carried between solves
    f: float | None = None          # f_N(theta), as init_state and mm_iterate set it
    prev: np.ndarray | None = None  # theta_{k-1}, the other end of the extrapolation
    t: int = 1                      # MM steps since the last restart, this one included


@dataclass
class Record:
    iteration: int
    f_N: float
    surrogate: float
    step_norm: float
    accepted: bool
    extrapolated: bool            # the step was anchored at theta_e, not theta_k
    sn_gap: float                 # the chosen candidate's SN duality gap
    sn_iterations: int
    sn_converged: bool            # the chosen candidate's SN solve converged


@dataclass
class SolveReport:
    theta: np.ndarray
    f_N: float
    iterations: int
    sn_total: int
    reason: str
    trace: list[Record]
    wall_time: float = 0.0


def init_state(problem: CompositeProblem, theta0) -> AugmentedIterate:
    """Augmented start z0 with r = s = psi(theta0) and no dual warm start.

    The slack anchors are not state: `build_subproblem` derives them from
    theta, r and s.
    """
    theta0 = np.asarray(theta0, dtype=float)
    psi = problem.psi(theta0)[2]
    return AugmentedIterate(theta=theta0, r=psi, s=psi.copy(), f=problem.f_N(theta0))


def select_pairs(problem: CompositeProblem, theta, eps: float, variant: str,
                 rng: np.random.Generator | None = None,
                 combo_cap: int = MMConfig.combo_cap):
    """Per-sample pair selections (0-based index arrays (sel1, sel2)).

    A sample's eps-argmax pairs (its exact-argmax ones, at TIE_TOL, for
    `one`) are ranked lexicographically, (g atom, h atom) in index order;
    every variant picks a rank per sample and decodes it: `one` rank 0,
    `random` a draw from `rng`, `full` each combination up to `combo_cap`.
    Returns (selections, coverage) where coverage is the enumerated fraction
    of the full eps-argmax product (always 1.0 for one/random).  Raises
    ValueError if a sample has no argmax atom (a non-finite atom value).
    """
    m1, m2 = problem.argmax_masks(theta, TIE_TOL if variant == "one" else eps)
    n1, n2 = m1.sum(axis=1), m2.sum(axis=1)
    counts = n1 * n2
    if not counts.all():
        raise ValueError("a sample has no argmax atom: non-finite atom values")

    def decode(rank, rows=slice(None)):
        # rank k is the (k // n2)-th tied g atom and the (k % n2)-th tied h
        # atom of each of the samples `rows`
        return (_nth_set(m1[rows], rank // n2[rows]),
                _nth_set(m2[rows], rank % n2[rows]))

    if variant == "one":
        return [decode(np.zeros_like(counts))], 1.0
    if variant == "random":
        return [decode(rng.integers(counts))], 1.0
    if variant != "full":
        raise ValueError(f"unknown variant {variant!r}")
    # samples with a single pair keep rank 0, so the product runs over the
    # others only; its lexicographic order is the one over all samples, and
    # only the tied samples' ranks are decoded per combination
    tied = np.flatnonzero(counts != 1)
    combos = list(itertools.islice(
        itertools.product(*map(range, counts[tied].tolist())), combo_cap))
    ranks = np.array(combos, dtype=int).reshape(len(combos), tied.size)
    sel1, sel2 = (np.repeat(sel[None], len(combos), axis=0)
                  for sel in decode(np.zeros_like(counts)))
    sel1[:, tied], sel2[:, tied] = decode(ranks, tied)
    # exact integer product: a float one overflows to inf on many ties
    total = math.prod(counts[tied].tolist())
    coverage = min(len(combos) / total, 1.0)
    return list(zip(sel1, sel2)), coverage


def _nth_set(mask, rank):
    """Column of the rank-th True entry of each mask row (rank: (..., N))."""
    return (np.cumsum(mask, axis=1) > rank[..., None]).argmax(axis=-1)


def _extrapolate(problem: CompositeProblem, state: AugmentedIterate):
    """theta_e = theta_k + (t - 1)/(t + 2) (theta_k - theta_{k-1}), with r = s =
    psi(theta_e), the same warm start and t = 1, if f_N(theta_e) < f_N(theta_k)."""
    if state.t == 1:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        theta = state.theta + (state.t - 1) / (state.t + 2) * (state.theta - state.prev)
        f = problem.f_N(theta)
    if not f < state.f:
        return None
    psi = problem.psi(theta)[2]
    return AugmentedIterate(theta=theta, r=psi, s=psi.copy(), warm=state.warm, f=f)


def mm_iterate(problem: CompositeProblem, state: AugmentedIterate,
               config: MMConfig, c: float, sn_cfg: SNConfig,
               rng: np.random.Generator, iteration: int = 0,
               sub: DualSubproblem | None = None):
    """One outer step.  Returns (next_state, Record, subproblem); the
    subproblem, or the one passed as `sub`, is rebuilt in place for each
    candidate selection, so pass it back to the next step.  The step anchors
    at `_extrapolate`'s point, else at `state` with t restarted; selection,
    the build, `random`'s test and the step norm read that anchor, and a
    rejected draw keeps it."""
    anchor = _extrapolate(problem, state) or state
    extrapolated = anchor is not state
    sels, _ = select_pairs(problem, anchor.theta, config.eps, config.variant,
                           rng=rng, combo_cap=config.combo_cap)
    old_surrogate = problem.surrogate_value(anchor.theta, anchor.r, anchor.s)

    best = None
    sn_iters = 0
    for sel1, sel2 in sels:
        sub = build_subproblem(problem, anchor, sel1, sel2, c, reuse=sub)
        res = sn_solve(sub, warm=anchor.warm, cfg=sn_cfg)
        sn_iters += res.iterations
        # strict improvement keeps the lexicographically-first minimizer
        if best is None or res.value < best.value:
            best = res

    # an inexact solve can leave r below psi or s above it; lifted to
    # r >= psi >= s, the candidate's surrogate majorizes f_N and it is a
    # feasible anchor for the next subproblem
    psi = problem.psi(best.theta)[2]
    r, s = np.maximum(best.r, psi), np.minimum(best.s, psi)
    lifted = problem.surrogate_value(best.theta, r, s)
    accepted = (config.variant != "random"
                or max(best.value, lifted) < old_surrogate)
    # the candidate step goes to the trace, also on rejection; no stopping
    # rule reads it.  Its anchors do not depend on the selection, so the last
    # candidate's subproblem measures the best one's
    step = float(np.sqrt(sub.displacement_sq(best.theta, best.r, best.s, best.slack)))
    if accepted:
        nxt = AugmentedIterate(theta=best.theta, r=r, s=s, warm=best.x,
                               f=problem.f_N(best.theta), prev=state.theta,
                               t=state.t + 1 if extrapolated else 2)
        surrogate = lifted
    else:
        nxt = anchor
        surrogate = old_surrogate

    rec = Record(iteration=iteration, f_N=nxt.f, surrogate=surrogate,
                 step_norm=step, accepted=accepted, extrapolated=extrapolated,
                 sn_gap=best.gap, sn_iterations=sn_iters,
                 sn_converged=best.converged)
    return nxt, rec, sub


def run(problem: CompositeProblem, config: MMConfig, theta0) -> SolveReport:
    """Full solve from one starting point.

    Stops on "tolerance" once a step changes f_N by at most `tol_rel` *
    max(1, |f_N|), so at once when a `random` draw rejected at theta_k keeps
    theta_k; one rejected at an extrapolated anchor keeps that lower point.
    Each SN solve stops on its duality gap (`_GAP_REL`), with `SNConfig`'s
    one ||grad|| fallback.
    """
    t_start = time.perf_counter()
    c = config.resolve_c(problem)
    rng = np.random.default_rng(config.seed)
    state = init_state(problem, theta0)
    f_prev = state.f
    if not np.isfinite(f_prev):
        raise ValueError("non-finite objective at the starting point")

    trace: list[Record] = []
    reason = "max_outer"
    sn_cfg = SNConfig(max_iter=config.sn_max_iter, gap_rel=_GAP_REL)
    sub = None
    for it in range(config.max_outer):
        state, rec, sub = mm_iterate(problem, state, config, c, sn_cfg, rng, it, sub)
        trace.append(rec)
        rel = abs(rec.f_N - f_prev) / max(1.0, abs(f_prev))
        f_prev = rec.f_N
        if rel <= config.tol_rel:
            reason = "tolerance"
            break

    return SolveReport(theta=state.theta, f_N=f_prev, iterations=len(trace),
                       sn_total=sum(r.sn_iterations for r in trace), reason=reason,
                       trace=trace, wall_time=time.perf_counter() - t_start)
