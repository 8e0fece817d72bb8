"""Semismooth Newton solver for the Lagrangian dual of each MM subproblem.

The subproblem minimizes, over z = (theta, r, s, slack) with a nonnegative
slack,

    sum_s w [phi_up(r_s) + phi_down(s_s)] + t.|theta| - lin.theta + const
    + (c/2) ||z - z_anchor||^2

subject to the stacked equality constraints

    B theta + (-E1 r; E2 s) + slack = beta,

where E1/E2 repeat each sample's scalar r_s/s_s across its k1 lambda rows
and its k2 mu rows.  B, beta and the slack stack the N*k1 lambda rows over
the N*k2 mu rows, and so does the multiplier x = (lambda, mu).  The dual
function xi(x) is concave and SC^1; its gradient is the constraint residual
at the unique inner minimizers (Danskin), and a Newton direction is obtained
from one element of the generalized Jacobian.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .funcs import MonotoneSplit


def _block_sum(X, k, out=None):
    """Sum of each sample's k consecutive entries (rows, for 2-D X), written
    to `out` when given.

    Adds the k strided slices X[j::k] in index order.  The sums are the ones
    numpy's ``X.reshape(N, k, -1).sum(axis=1)`` gives, bit for bit (for 1-D X
    while k < 8, where numpy's pairwise summation starts), at a fraction of
    its per-call cost.  The ``+ 0.0`` turns -0.0 into 0.0, as numpy's sum does.
    """
    out = np.add(X[0::k], 0.0, out=out)
    for j in range(1, k):
        out += X[j::k]
    return out


@dataclass
class DualSubproblem:
    """Stacked affine constraint data plus prox oracles and anchors.

    B stacks the N*k1 lambda rows over the N*k2 mu rows; beta and slack_nu
    follow the same row order.  Each subproblem also owns the work arrays
    `_newton_direction` overwrites on every call, so no Newton step allocates
    an array of B's size; `mm.build_subproblem(..., reuse=sub)` overwrites B,
    beta and the anchors in place and keeps the work arrays.
    """

    B: np.ndarray                 # (N*(k1+k2), m), column-major
    beta: np.ndarray
    k1: int
    split: MonotoneSplit          # per-sample loss split (array parameters)
    n_samples: int
    weight: float                 # loss scale w (typically 1/N)
    c: float                      # proximal weight
    theta_nu: np.ndarray
    r_nu: np.ndarray
    s_nu: np.ndarray
    slack_nu: np.ndarray          # slack anchors, lambda rows then mu rows
    l1: np.ndarray                # l1 weights t_i of the regularizer majorant
    lin: np.ndarray               # linear part of the regularizer majorant
    reg_const: float              # constant part of the regularizer majorant

    def __post_init__(self):
        N = self.n_samples
        self.n1 = N * self.k1
        self.k2, rem = divmod(self.B.shape[0] - self.n1, N)
        if self.k1 < 1 or self.k2 < 1 or rem:
            raise ValueError("constraint rows are not n_samples * (k1 + k2) "
                             "with k1, k2 >= 1")
        # B is column-major: the Woodbury product B^T (Delta^{-1} B) in
        # _newton_direction then loses fewer digits than with row-major B,
        # with which the tight certificate solves stalled above their
        # tolerance about a quarter more often
        self.B = np.asfortranarray(self.B, dtype=float)
        # Newton work arrays: Z = Delta^{-1} B, the diagonal of Delta with
        # its per-row Sherman-Morrison factors, and two (N, m) block
        # temporaries, all column-major like B, so that no ufunc on them
        # mixes memory orders
        self.work_Z = np.empty_like(self.B, order="F")
        self.work_diag = np.empty(self.dual_dim)
        self.work_f = np.empty(self.dual_dim)
        self.work_S = np.empty((N, self.m), order="F")
        self.work_T = np.empty((N, self.m), order="F")

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def dual_dim(self) -> int:
        return self.B.shape[0]

    # -- dual value and gradient

    def value_grad(self, x):
        """(xi, grad xi, inner minimizers (theta, r, s, slack), Jacobian data)
        at the stacked multipliers x = (lambda, mu); the last item is what
        `_newton_direction` reads."""
        c, w, N, n1 = self.c, self.weight, self.n_samples, self.n1
        agg = self.B.T @ x - self.lin
        u = self.theta_nu - agg / c
        th = np.sign(u) * np.maximum(np.abs(u) - self.l1 / c, 0.0)
        a, b = _block_sum(x[:n1], self.k1), _block_sum(x[n1:], self.k2)
        r = self.split.prox_up(a, self.r_nu, c, w)
        s = self.split.prox_down(b, self.s_nu, c, w)
        sl = np.maximum(self.slack_nu - x / c, 0.0)
        dth, dr, ds = th - self.theta_nu, r - self.r_nu, s - self.s_nu
        dsl = sl - self.slack_nu
        v = (self.reg_const + x @ (sl - self.beta) + agg @ th + self.l1 @ np.abs(th)
             + w * float(np.sum(self.split.up(r)) + np.sum(self.split.down(s)))
             - a @ r + b @ s + 0.5 * c * (dth @ dth + dr @ dr + ds @ ds + dsl @ dsl))
        g = self.B @ th
        g[:n1].reshape(N, self.k1)[...] -= r[:, None]
        g[n1:].reshape(N, self.k2)[...] += s[:, None]
        g += sl
        g -= self.beta
        return float(v), g, (th, r, s, sl), (u, a, b, sl)

    # -- primal objective of the subproblem (for gap checks / MM acceptance)

    def primal_value(self, th, r, s, slack) -> float:
        v = float(np.sum(self.weight * (self.split.up(r) + self.split.down(s))))
        v += self.l1 @ np.abs(th) - self.lin @ th + self.reg_const
        return v + 0.5 * self.c * self.displacement_sq(th, r, s, slack)

    def displacement_sq(self, th, r, s, slack) -> float:
        """||z - z_nu||^2.  The slack's lambda and mu halves are summed apart:
        one sum over the stacked slack rounds differently, and this value
        drives MM acceptance and the step norm."""
        dsl = slack - self.slack_nu
        return (np.sum((th - self.theta_nu) ** 2) + np.sum((r - self.r_nu) ** 2)
                + np.sum((s - self.s_nu) ** 2)
                + np.sum(dsl[:self.n1] ** 2) + np.sum(dsl[self.n1:] ** 2))


# backtracking factor, Armijo's sufficient-increase constant, and how many
# accepted dual values the nonmonotone Armijo test looks back over (Grippo,
# Lampariello and Lucidi, SIAM J. Numer. Anal. 1986): testing against the
# smallest of the last 5 takes full Newton steps far more often than the
# monotone test (memory 1), which backtracked on almost half the steps of a
# default fit.  The Newton system is regularized by eps = min(_EPS_FLOOR +
# _EPS_GRAD ||grad||, _EPS_CAP) / c, proportional to the gradient norm (Li,
# Sun and Toh, SIAM J. Optim. 2018) and measured in the 1/c units of the
# generalized Jacobian, so that it weighs the same at every proximal weight
_RHO, _SIGMA, _NM_MEMORY = 0.5, 1e-4, 5
_EPS_FLOOR, _EPS_GRAD, _EPS_CAP = 1e-9, 0.1, 1e-3


@dataclass
class SNConfig:
    tol_grad: float = 1e-10
    max_iter: int = 100


@dataclass
class SNResult:
    x: np.ndarray                 # stacked multipliers (lambda, mu)
    theta: np.ndarray
    r: np.ndarray
    s: np.ndarray
    slack: np.ndarray             # stacked slack, same row order as x
    value: float
    dual_value: float
    kkt_residual: float
    iterations: int
    converged: bool


def _newton_direction(sub: DualSubproblem, jac, grad, eps):
    """Solve (V + eps I) d = grad via block Sherman-Morrison + Woodbury.

    V = (1/c) B D B^T + blockdiag(rank-one loss blocks) + (1/c) diag(slack
    masks); the diagonal-plus-rank-one sample blocks invert in closed form,
    after which the theta coupling is an m-dimensional correction.  jac is
    the Jacobian data `value_grad` returned at the current multipliers; the
    masks and loss sensitivities below follow from it.  Intermediates go to
    the subproblem's work arrays; only vectors of the dual dimension are
    allocated.
    """
    u, a, b, sl = jac
    c, w, n1 = sub.c, sub.weight, sub.n1
    diag, f, S, T = sub.work_diag, sub.work_f, sub.work_S, sub.work_T
    d_th = np.where(sub.l1 > 0.0, np.abs(u) > sub.l1 / c, 1.0)
    rho = sub.split.prox_up_sens(a, sub.r_nu, c, w)
    sig = sub.split.prox_down_sens(b, sub.s_nu, c, w)
    np.divide(sl > 0, c, out=diag)
    diag += eps
    # Delta = diag + each sample's rho (sig) 11^T over its k1 (k2) rows; by
    # Sherman-Morrison, Delta^{-1} x = x / diag - f (per-sample block sum of
    # x / diag) with f = inv * rho / (1 + rho * block sum of inv), inv = 1 / diag
    blocks = ((slice(0, n1), sub.k1, rho), (slice(n1, None), sub.k2, sig))
    np.divide(1.0, diag, out=f)
    for rows, k, t in blocks:
        inv_k = f[rows].reshape(-1, k)
        inv_k *= (t / (1.0 + t * _block_sum(f[rows], k)))[:, None]

    def delta_solve(X, Y):
        """Y = Delta^{-1} X, column by column."""
        np.divide(X, diag[:, None], out=Y)
        s, fs = S[:, :X.shape[1]], T[:, :X.shape[1]]
        for rows, k, _ in blocks:
            Yk, fk = Y[rows], f[rows, None]
            _block_sum(Yk, k, out=s)
            # one atom row of every sample at a time, through the work arrays
            for j in range(k):
                Yk[j::k] -= np.multiply(fk[j::k], s, out=fs)
        return Y

    act = np.flatnonzero(d_th)
    y = delta_solve(grad[:, None], np.empty((sub.dual_dim, 1)))
    if act.size:
        B = sub.B if act.size == sub.m else sub.B[:, act]
        Z = delta_solve(B, sub.work_Z[:, :act.size])
        S_th = c * np.eye(act.size) + B.T @ Z
        # f is read by delta_solve only, so it can hold the correction
        y -= np.matmul(Z, np.linalg.solve(S_th, B.T @ y), out=f.reshape(-1, 1))
    return y.ravel()


def sn_solve(sub: DualSubproblem, warm=None, cfg: SNConfig | None = None) -> SNResult:
    """Maximize the dual by semismooth Newton with nonmonotone Armijo
    backtracking, from the stacked multipliers `warm` (a previous
    `SNResult.x`) or zero.  A solve that stops unconverged returns the
    iterate with the highest dual value it reached, which under the
    nonmonotone test need not be the last one."""
    cfg = cfg or SNConfig()
    x = np.zeros(sub.dual_dim) if warm is None else warm
    val, grad, inner, jac = sub.value_grad(x)
    recent = deque([val], maxlen=_NM_MEMORY)
    best = (x, val, grad, inner)
    it = 0
    for it in range(1, cfg.max_iter + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= cfg.tol_grad:
            it -= 1
            break
        eps = min(_EPS_FLOOR + _EPS_GRAD * gnorm, _EPS_CAP) / sub.c
        for _ in range(3):
            try:
                d = _newton_direction(sub, jac, grad, eps)
                break
            except np.linalg.LinAlgError:
                eps *= 100.0
        else:
            d = grad.copy()
        slope = float(grad @ d)
        if slope <= 0:  # numerical safeguard: fall back to gradient ascent
            d = grad.copy()
            slope = float(grad @ grad)
        # one backtracking loop: nonmonotone Armijo on the dual value (60
        # trials, the last taken if none passes) or, once value changes drown
        # in rounding, a decrease of ||grad|| (20 trials; if none passes, the
        # solve stops)
        flat = slope <= 1e-12 * (1.0 + abs(val))
        ref = min(recent)
        alpha = 1.0
        for _ in range(20 if flat else 60):
            xn = x + alpha * d
            vn, gn, innern, jacn = sub.value_grad(xn)
            if (float(np.linalg.norm(gn)) < gnorm if flat
                    else vn >= ref + _SIGMA * alpha * slope):
                break
            alpha *= _RHO
        else:
            if flat:
                break
        x, val, grad, inner, jac = xn, vn, gn, innern, jacn
        recent.append(val)
        if val > best[1]:
            best = (x, val, grad, inner)
    kkt = float(np.linalg.norm(grad))
    converged = kkt <= cfg.tol_grad
    if not converged and best[1] > val:
        x, val, grad, inner = best
        kkt = float(np.linalg.norm(grad))

    th, r, s, sl = inner
    return SNResult(x=x, theta=th, r=r, s=s, slack=sl,
                    value=sub.primal_value(th, r, s, sl), dual_value=val,
                    kkt_residual=kkt, iterations=it, converged=converged)
