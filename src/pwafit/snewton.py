"""Semismooth Newton solver for the Lagrangian dual of each MM subproblem.

The subproblem minimizes, over z = (theta, r, s, rhat, shat) with theta in a
box and nonnegative slacks,

    sum_s w [phi_up(r_s) + phi_down(s_s)] + t.|theta| - lin.theta + const
    + (c/2) ||z - z_anchor||^2

subject to the stacked equality constraints

    B1 theta - E1 r + rhat = beta1,      B2 theta + E2 s + shat = beta2,

where E1/E2 repeat each sample's scalar r_s/s_s across its atom rows.  The
dual function xi(lambda, mu) is concave and SC^1; its gradient is the
constraint residual at the unique inner minimizers (Danskin), and a Newton
direction is obtained from one element of the generalized Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcs import MonotoneSplit


def _block_sum(X, k):
    """Sum of each sample's k consecutive entries (rows, for 2-D X).

    Adds the k strided slices X[j::k] in index order.  The sums are the ones
    numpy's ``X.reshape(N, k, -1).sum(axis=1)`` gives, bit for bit (for 1-D X
    while k < 8, where numpy's pairwise summation starts), at a fraction of
    its per-call cost.  The ``+ 0.0`` turns -0.0 into 0.0, as numpy's sum does.
    """
    out = X[0::k] + 0.0
    for j in range(1, k):
        out += X[j::k]
    return out


@dataclass
class DualSubproblem:
    """Stacked affine constraint data plus prox oracles and anchors."""

    B1: np.ndarray
    beta1: np.ndarray
    B2: np.ndarray
    beta2: np.ndarray
    split: MonotoneSplit          # per-sample loss split (array parameters)
    n_samples: int
    weight: float                 # loss scale w (typically 1/N)
    c: float                      # proximal weight
    theta_nu: np.ndarray
    r_nu: np.ndarray
    s_nu: np.ndarray
    rhat_nu: np.ndarray
    shat_nu: np.ndarray
    l1: np.ndarray | None = None        # l1 weights t_i of the regularizer majorant
    lin: np.ndarray | None = None       # linear part of the regularizer majorant
    reg_const: float = 0.0              # constant part of the regularizer majorant
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        B1 = np.atleast_2d(np.asarray(self.B1, dtype=float))
        B2 = np.atleast_2d(np.asarray(self.B2, dtype=float))
        N = self.n_samples
        for name, M in (("B1", B1), ("B2", B2)):
            if M.shape[0] == 0 or M.shape[0] % N:
                raise ValueError(f"{name} rows not a positive multiple of the sample count")
        self.k1 = B1.shape[0] // N
        self.k2 = B2.shape[0] // N
        self.n1 = n1 = B1.shape[0]

        def stack(top, bottom):
            return np.concatenate([np.asarray(top, dtype=float).ravel(),
                                   np.asarray(bottom, dtype=float).ravel()])

        # one stacked copy of the constraint data (lambda rows, then mu rows);
        # the per-block names are row views of it.  B is column-major: the
        # Woodbury product B^T (Delta^{-1} B) in _newton_direction then loses
        # fewer digits than with row-major B, with which the tight certificate
        # solves stalled above their tolerance about a quarter more often
        self.B = np.empty((n1 + B2.shape[0], B1.shape[1]), order="F")
        self.B[:n1], self.B[n1:] = B1, B2
        self.beta = stack(self.beta1, self.beta2)
        self.slack_nu = stack(self.rhat_nu, self.shat_nu)
        self.B1, self.B2 = self.B[:n1], self.B[n1:]
        self.beta1, self.beta2 = self.beta[:n1], self.beta[n1:]
        self.rhat_nu, self.shat_nu = self.slack_nu[:n1], self.slack_nu[n1:]
        self.theta_nu = np.asarray(self.theta_nu, dtype=float).ravel()
        if self.l1 is None:
            self.l1 = np.zeros(self.m)
        if self.lin is None:
            self.lin = np.zeros(self.m)

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def dual_dim(self) -> int:
        return self.B.shape[0]

    # -- per-sample multiplier sums

    def block_sums(self, lam, mu):
        return _block_sum(lam, self.k1), _block_sum(mu, self.k2)

    # -- inner minimizers

    def _theta(self, x):
        """Inner theta minimizer and aggregate B^T x - lin at stacked x."""
        agg = self.B.T @ x - self.lin
        u = self.theta_nu - agg / self.c
        th = np.sign(u) * np.maximum(np.abs(u) - self.l1 / self.c, 0.0)
        if self.lower is not None or self.upper is not None:
            th = np.clip(th, self.lower, self.upper)
        return th, agg

    # -- dual value and gradient

    def value_grad(self, lam, mu):
        x = np.concatenate([lam, mu])
        th, agg = self._theta(x)
        a, b = self.block_sums(lam, mu)
        c, w, N = self.c, self.weight, self.n_samples
        r = self.split.prox_up(a, self.r_nu, c, w)
        s = self.split.prox_down(b, self.s_nu, c, w)
        sl = np.maximum(self.slack_nu - x / c, 0.0)
        dth, dr, ds = th - self.theta_nu, r - self.r_nu, s - self.s_nu
        dsl = sl - self.slack_nu
        v = (self.reg_const + x @ (sl - self.beta) + agg @ th + self.l1 @ np.abs(th)
             + w * float(np.sum(self.split.up(r)) + np.sum(self.split.down(s)))
             - a @ r + b @ s + 0.5 * c * (dth @ dth + dr @ dr + ds @ ds + dsl @ dsl))
        g = self.B @ th
        g[:self.n1].reshape(N, self.k1)[...] -= r[:, None]
        g[self.n1:].reshape(N, self.k2)[...] += s[:, None]
        g += sl
        g -= self.beta
        return float(v), g, (th, r, s, sl[:self.n1], sl[self.n1:])

    # -- primal objective of the subproblem (for gap checks / MM acceptance)

    def primal_value(self, th, r, s, rh, sh) -> float:
        c, w = self.c, self.weight
        v = float(np.sum(w * (self.split.up(r) + self.split.down(s))))
        v += self.l1 @ np.abs(th) - self.lin @ th + self.reg_const
        v += 0.5 * c * (np.sum((th - self.theta_nu) ** 2) + np.sum((r - self.r_nu) ** 2)
                        + np.sum((s - self.s_nu) ** 2) + np.sum((rh - self.rhat_nu) ** 2)
                        + np.sum((sh - self.shat_nu) ** 2))
        return v

    def feasibility(self, th, r, s, rh, sh) -> float:
        g1 = self.B1 @ th - np.repeat(r, self.k1) + rh - self.beta1
        g2 = self.B2 @ th + np.repeat(s, self.k2) + sh - self.beta2
        res = max(np.abs(g1).max(initial=0.0), np.abs(g2).max(initial=0.0))
        res = max(res, -min(rh.min(initial=0.0), sh.min(initial=0.0), 0.0))
        return float(res)

    # -- sensitivity masks for the generalized Jacobian

    def _masks(self, lam, mu):
        """(theta mask, loss sensitivities rho / sigma, stacked slack mask)."""
        x = np.concatenate([lam, mu])
        th, agg = self._theta(x)
        u = self.theta_nu - agg / self.c
        d_th = np.where(self.l1 > 0.0,
                        np.abs(u) > self.l1 / self.c, 1.0).astype(float)
        if self.lower is not None:
            d_th *= (th > self.lower) | np.isneginf(self.lower)
        if self.upper is not None:
            d_th *= (th < self.upper) | np.isposinf(self.upper)
        a, b = self.block_sums(lam, mu)
        rho = np.asarray(self.split.prox_up_sens(a, self.r_nu, self.c, self.weight))
        sig = np.asarray(self.split.prox_down_sens(b, self.s_nu, self.c, self.weight))
        m_sl = (self.slack_nu - x / self.c > 0).astype(float)
        return d_th, rho, sig, m_sl


def dual_value_grad(sub: DualSubproblem, lam, mu):
    """(xi, grad xi) with grad stacked as (lambda rows, mu rows)."""
    v, g, _ = sub.value_grad(np.asarray(lam, dtype=float), np.asarray(mu, dtype=float))
    return v, g


def inner_theta(sub: DualSubproblem, lam, mu):
    th, _ = sub._theta(np.concatenate([np.asarray(lam, dtype=float),
                                       np.asarray(mu, dtype=float)]))
    return th


def prox_slack(anchor, multiplier, c):
    """Componentwise argmin of mult.v + (c/2)||v - anchor||^2 over v >= 0."""
    return np.maximum(np.asarray(anchor, dtype=float)
                      - np.asarray(multiplier, dtype=float) / c, 0.0)


def gen_jacobian(sub: DualSubproblem, lam, mu) -> np.ndarray:
    """Dense element of the generalized Jacobian of -grad xi (symmetric PSD).

    Reference implementation used by the tests; the solver applies the same
    matrix implicitly through a Woodbury factorization.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    d_th, rho, sig, m_sl = sub._masks(lam, mu)
    B, c, n1 = sub.B, sub.c, sub.n1
    V = (B * d_th) @ B.T / c
    for s in range(sub.n_samples):
        i0 = s * sub.k1
        V[i0:i0 + sub.k1, i0:i0 + sub.k1] += rho[s]
        j0 = n1 + s * sub.k2
        V[j0:j0 + sub.k2, j0:j0 + sub.k2] += sig[s]
    V[np.diag_indices_from(V)] += m_sl / c
    return V


@dataclass
class SNConfig:
    rho: float = 0.5
    sigma: float = 1e-4
    tol_grad: float = 1e-10
    max_iter: int = 100
    eps_floor: float = 1e-8
    eps_cap: float = 1e-2


@dataclass
class SNResult:
    lam: np.ndarray
    mu: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    s: np.ndarray
    rhat: np.ndarray
    shat: np.ndarray
    value: float
    dual_value: float
    kkt_residual: float
    iterations: int
    converged: bool


def _newton_direction(sub: DualSubproblem, lam, mu, grad, eps):
    """Solve (V + eps I) d = grad via block Sherman-Morrison + Woodbury.

    V = (1/c) B D B^T + blockdiag(rank-one loss blocks) + (1/c) diag(slack
    masks); the diagonal-plus-rank-one sample blocks invert in closed form,
    after which the theta coupling is an m-dimensional correction.
    """
    d_th, rho, sig, m_sl = sub._masks(lam, mu)
    c, N, n1 = sub.c, sub.n_samples, sub.n1
    diag = m_sl / c + eps
    inv = 1.0 / diag
    # Delta = diag + each sample's rho (sig) 11^T over its k1 (k2) rows; by
    # Sherman-Morrison, Delta^{-1} x = x / diag - f (per-sample block sum of
    # x / diag) with f = inv * rho / (1 + rho * block sum of inv)
    blocks = []
    for rows, k, t in ((slice(0, n1), sub.k1, rho), (slice(n1, None), sub.k2, sig)):
        inv_k = inv[rows]
        coef = t / (1.0 + t * _block_sum(inv_k, k))
        blocks.append((rows, k, coef[:, None, None] * inv_k.reshape(N, k)[:, :, None]))

    def delta_solve(X):
        """Apply Delta^{-1} to the columns of X."""
        Y = X / diag[:, None]
        for rows, k, f in blocks:
            # splitting the row axis is a view in any memory layout, so this
            # updates Y in place
            Y[rows].reshape(N, k, -1)[...] -= f * _block_sum(Y[rows], k)[:, None, :]
        return Y

    act = np.flatnonzero(d_th)
    y = delta_solve(grad[:, None])
    if act.size:
        B = sub.B if act.size == sub.m else sub.B[:, act]
        Z = delta_solve(B)
        S = c * np.eye(act.size) + B.T @ Z
        y -= Z @ np.linalg.solve(S, B.T @ y)
    return y.ravel()


def sn_solve(sub: DualSubproblem, warm=None, cfg: SNConfig | None = None) -> SNResult:
    """Maximize the dual by semismooth Newton with Armijo backtracking."""
    cfg = cfg or SNConfig()
    n = sub.dual_dim
    if warm is None:
        x = np.zeros(n)
    else:
        lam0, mu0 = warm
        x = np.concatenate([np.asarray(lam0, dtype=float).ravel(),
                            np.asarray(mu0, dtype=float).ravel()])
        if x.size != n:
            x = np.zeros(n)
    n1 = sub.n1
    val, grad, inner = sub.value_grad(x[:n1], x[n1:])
    it = 0
    converged = False
    for it in range(1, cfg.max_iter + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= cfg.tol_grad:
            converged = True
            it -= 1
            break
        eps = min(cfg.eps_floor + gnorm, cfg.eps_cap)
        for _ in range(3):
            try:
                d = _newton_direction(sub, x[:n1], x[n1:], grad, eps)
                break
            except np.linalg.LinAlgError:
                eps *= 100.0
        else:
            d = grad.copy()
        slope = float(grad @ d)
        if slope <= 0:  # numerical safeguard: fall back to gradient ascent
            d = grad.copy()
            slope = float(grad @ grad)
        if slope <= 1e-12 * (1.0 + abs(val)):
            # value changes this small drown in floating-point noise, so the
            # Armijo test is meaningless; backtrack on the gradient norm
            # instead and stop once no step length contracts it
            alpha, stepped = 1.0, False
            for _ in range(20):
                xn = x + alpha * d
                vn, gn, innern = sub.value_grad(xn[:n1], xn[n1:])
                if float(np.linalg.norm(gn)) < gnorm:
                    x, val, grad, inner = xn, vn, gn, innern
                    stepped = True
                    break
                alpha *= cfg.rho
            if stepped:
                continue
            break
        alpha = 1.0
        for _ in range(60):
            xn = x + alpha * d
            vn, gn, innern = sub.value_grad(xn[:n1], xn[n1:])
            if vn >= val + cfg.sigma * alpha * slope:
                break
            alpha *= cfg.rho
        x, val, grad, inner = xn, vn, gn, innern
    converged = converged or float(np.linalg.norm(grad)) <= cfg.tol_grad

    th, r, s, rh, sh = inner
    return SNResult(lam=x[:n1], mu=x[n1:], theta=th, r=r, s=s, rhat=rh, shat=sh,
                    value=sub.primal_value(th, r, s, rh, sh), dual_value=val,
                    kkt_residual=float(np.linalg.norm(grad)),
                    iterations=it, converged=converged)
