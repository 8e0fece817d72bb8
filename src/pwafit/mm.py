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

`run` returns a `SolveReport` without a stationarity certificate; that is
`stationarity.certify`'s, which builds on this module's pair selection and
subproblem assembly, so `mm` itself imports no `stationarity`.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .funcs import TIE_TOL, CompositeProblem
from .snewton import DualSubproblem, SNConfig, sn_solve

# default proximal weight c = _KAPPA * w, in units of the loss weight w = 1/N:
# a c far above w slows MM's descent to a crawl.  Over kappa = 0.02 to 0.27 on
# paper examples 1 and 2 at N = 400 and 4 000, 0.05 gave the fastest fits that
# reach the noise floor with every SN solve converged
_KAPPA = 0.05


@dataclass
class MMConfig:
    """MM options; the CLI takes its defaults and its key order from here."""

    c: float | None = None          # proximal weight; None -> _KAPPA * loss weight
    eps: float = 1e-4               # argmax expansion
    tol_rel: float = 1e-4           # relative objective-change stopping rule
    max_outer: int = 500
    combo_cap: int = 64
    sn_tol_floor: float = 1e-6      # floor of the inner tolerance schedule
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


@dataclass
class Record:
    iteration: int
    f_N: float
    surrogate: float
    step_norm: float
    accepted: bool
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
    return AugmentedIterate(theta=theta0, r=psi, s=psi.copy())


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

    def decode(rank):
        # rank k is the (k // n2)-th tied g atom and the (k % n2)-th tied h atom
        return _nth_set(m1, rank // n2), _nth_set(m2, rank % n2)

    if variant == "one":
        return [decode(np.zeros_like(counts))], 1.0
    if variant == "random":
        return [decode(rng.integers(counts))], 1.0
    if variant != "full":
        raise ValueError(f"unknown variant {variant!r}")
    # samples with a single pair keep rank 0, so the product runs over the
    # others only; its lexicographic order is the one over all samples
    tied = np.flatnonzero(counts != 1)
    combos = list(itertools.islice(
        itertools.product(*map(range, counts[tied].tolist())), combo_cap))
    ranks = np.zeros((len(combos), problem.n_samples), dtype=int)
    ranks[:, tied] = np.reshape(combos, (len(combos), tied.size))
    sel1, sel2 = decode(ranks)
    # exact integer product: a float one overflows to inf on many ties
    total = math.prod(counts[tied].tolist())
    coverage = min(len(combos) / total, 1.0)
    return list(zip(sel1, sel2)), coverage


def _nth_set(mask, rank):
    """Column of the rank-th True entry of each mask row (rank: (..., N))."""
    return (np.cumsum(mask, axis=1) > rank[..., None]).argmax(axis=-1)


def build_subproblem(problem: CompositeProblem, state: AugmentedIterate,
                     sel1, sel2, c: float, *,
                     reuse: DualSubproblem | None = None) -> DualSubproblem:
    """Dual subproblem data for one per-sample atom-pair selection.

    The selection's data (B, beta, the selections, c, the anchors and the
    regularizer majorant) is written into `reuse`, a subproblem built earlier
    from the same problem, or into a new `DualSubproblem(problem)`, which is
    returned; a reused subproblem keeps its work arrays.
    """
    theta = state.theta
    N, k1, k2, m = problem.n_samples, problem.k1, problem.k2, problem.m
    n1 = N * k1
    for sel, k in ((sel1, k1), (sel2, k2)):
        if np.min(sel, initial=0) < 0 or np.max(sel, initial=0) >= k:
            raise IndexError(f"atom selection outside 0..{k - 1}")
    gv, hv = problem.atom_values(theta)
    g, h = gv.max(axis=1), hv.max(axis=1)

    sub = DualSubproblem(problem) if reuse is None else reuse
    sub.c, sub.theta_nu, sub.r_nu, sub.s_nu = c, theta, state.r, state.s
    sub.sel1, sub.sel2 = sel1, sel2
    sub.l1, sub.lin, sub.reg_const = problem.reg.majorant_data(theta)

    # lambda rows U - (chosen h grad) over mu rows W - (chosen g grad), each
    # with beta = (other max) - (chosen atom's value); the per-sample reshapes
    # of B's and beta's rows are views (splitting an axis never copies).  The
    # chosen gradients are gathered into the subproblem's (N, m) work array
    chosen = sub.work_chosen
    halves = ((slice(0, n1), k1, problem.U, problem.W, sel2, h, hv),
              (slice(n1, None), k2, problem.W, problem.U, sel1, g, gv))
    for rows, k, atoms, other, sel, top, values in halves:
        # mode "clip" writes straight into `chosen`, where "raise" would
        # buffer a copy (the range is checked above)
        np.take(other, np.arange(N) * (len(other) // N) + sel, axis=0, out=chosen,
                mode="clip")
        np.subtract(atoms.reshape(N, k, m), chosen[:, None, :],
                    out=sub.B[rows].reshape(N, k, m))
        sub.beta[rows].reshape(N, k)[...] = (top - values[np.arange(N), sel])[:, None]

    # slack anchors: the point (theta, r, s, slack) is feasible for this
    # selection's constraints and carries the current surrogate value exactly;
    # they do not depend on the selection
    np.maximum((state.r + h)[:, None] - gv, 0.0, out=sub.slack_nu[:n1].reshape(N, k1))
    np.maximum((g - state.s)[:, None] - hv, 0.0, out=sub.slack_nu[n1:].reshape(N, k2))
    return sub


def mm_iterate(problem: CompositeProblem, state: AugmentedIterate,
               config: MMConfig, c: float, sn_cfg: SNConfig,
               rng: np.random.Generator, iteration: int = 0,
               sub: DualSubproblem | None = None):
    """One outer step.  Returns (next_state, Record, subproblem); the
    subproblem, or the one passed as `sub`, is rebuilt in place for each
    candidate selection, so pass it back to the next step."""
    sels, _ = select_pairs(problem, state.theta, config.eps, config.variant,
                           rng=rng, combo_cap=config.combo_cap)
    old_surrogate = problem.surrogate_value(state.theta, state.r, state.s)

    best = None
    sn_iters = 0
    for sel1, sel2 in sels:
        sub = build_subproblem(problem, state, sel1, sel2, c, reuse=sub)
        res = sn_solve(sub, warm=state.warm, cfg=sn_cfg)
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
        nxt = AugmentedIterate(theta=best.theta, r=r, s=s, warm=best.x)
        surrogate = lifted
    else:
        nxt = state
        surrogate = old_surrogate

    rec = Record(iteration=iteration, f_N=problem.f_N(nxt.theta),
                 surrogate=surrogate, step_norm=step, accepted=accepted,
                 sn_iterations=sn_iters, sn_converged=best.converged)
    return nxt, rec, sub


def run(problem: CompositeProblem, config: MMConfig, theta0) -> SolveReport:
    """Full solve from one starting point.

    Stops on "tolerance" once a step changes f_N by at most `tol_rel` *
    max(1, |f_N|), so at once when a `random` step rejects its draw and keeps
    theta.
    """
    t_start = time.perf_counter()
    c = config.resolve_c(problem)
    rng = np.random.default_rng(config.seed)
    state = init_state(problem, theta0)
    f_prev = problem.f_N(state.theta)
    if not np.isfinite(f_prev):
        raise ValueError("non-finite objective at the starting point")

    trace: list[Record] = []
    reason = "max_outer"
    sn_tol = config.sn_tol_floor
    sub = None
    for it in range(config.max_outer):
        sn_cfg = SNConfig(tol_grad=sn_tol, max_iter=config.sn_max_iter)
        state, rec, sub = mm_iterate(problem, state, config, c, sn_cfg, rng, it, sub)
        trace.append(rec)
        df = abs(rec.f_N - f_prev)
        sn_tol = max(config.sn_tol_floor, 1e-2 * df)
        rel = df / max(1.0, abs(f_prev))
        f_prev = rec.f_N
        if rel <= config.tol_rel:
            reason = "tolerance"
            break

    return SolveReport(theta=state.theta, f_N=f_prev, iterations=len(trace),
                       sn_total=sum(r.sn_iterations for r in trace), reason=reason,
                       trace=trace, wall_time=time.perf_counter() - t_start)
