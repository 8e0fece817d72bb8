"""Independent oracles used to validate the solvers.

Nothing here calls the package's Newton or MM code paths: subproblems are
solved by brute-force enumeration of active-constraint patterns, proximal
maps by golden-section search, derivatives by finite differences.
"""

from __future__ import annotations

import bisect
import itertools

import numpy as np

from pwafit.funcs import CompositeProblem, MonotoneSplit
from pwafit.stationarity import PiecewiseAffine1D


# ---------------------------------------------------------------------------
# scalar minimization (golden section on a bracketed unimodal function)

def golden_min(f, lo: float, hi: float, tol: float = 1e-12, iters: int = 200):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def prox_oracle(h, tilt: float, anchor: float, c: float, w: float = 1.0,
                sign: float = 1.0, span: float = 50.0):
    """argmin_t w*h(t) + sign*tilt*t + (c/2)(t-anchor)^2 by golden section."""
    def obj(t):
        return w * h(t) + sign * tilt * t + 0.5 * c * (t - anchor) ** 2
    rad = span * (1.0 + abs(anchor) + abs(tilt) / c)
    return golden_min(obj, anchor - rad, anchor + rad)


# ---------------------------------------------------------------------------
# finite differences

def prox_bisect(dh, tilt: float, anchor: float, c: float, w: float = 1.0,
                sign: float = 1.0, iters: int = 200):
    """argmin_t w*h(t) + sign*tilt*t + (c/2)(t-anchor)^2 located by
    bisection on the (nondecreasing, right-continuous) right derivative."""
    def g(t):
        return w * dh(t) + sign * tilt + c * (t - anchor)
    lo, hi = anchor - 1.0, anchor + 1.0
    while g(lo) > 0:
        lo = anchor + 2.0 * (lo - anchor) - 1.0
    while g(hi) < 0:
        hi = anchor + 2.0 * (hi - anchor) + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_dir(f, x, v, h: float = 1e-7) -> float:
    """One-sided forward difference directional derivative."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (f(x + h * v) - f(x)) / h


# ---------------------------------------------------------------------------
# brute-force subproblem solver
#
# The subproblem (slacks eliminated through the equality constraints) is
#
#   min_{theta, r, s}  sum_s w [phi_up(r_s) + phi_down(s_s)]
#     + (c/2)(||theta - theta_nu||^2 + ||r - r_nu||^2 + ||s - s_nu||^2
#             + ||u(theta,r) - rhat_nu||^2 + ||v(theta,s) - shat_nu||^2)
#   s.t. u = beta1 - B1 theta + E1 r >= 0,  v = beta2 - B2 theta - E2 s >= 0,
#
# for squared loss phi_up(t) = .5 max(t-y,0)^2, phi_down(t) = .5 min(t-y,0)^2.
# Every candidate optimum is a KKT point of one pattern = (loss branch per
# sample for r and for s) x (subset of active slack rows).  Each pattern is an
# equal-sized linear KKT system (inactive constraint rows are identity rows),
# so a chunk of patterns is built by broadcasting over branch and active-set
# masks and solved in one batched call.  A pattern whose active rows are
# dependent can give an exactly singular system (a zero pivot in the LU
# factorization); those are detected with slogdet, solved as an identity
# placeholder and discarded.  The exact objective and primal feasibility of
# all solutions are then evaluated as array expressions, and the first
# feasible minimizer in enumeration order wins.

_BRANCHES = ("quad", "flat", "kink")   # t>y branch, t<y branch, t=y equality


def pattern_count(N: int, k1: int, k2: int) -> int:
    return 9 ** N * 2 ** (N * (k1 + k2))


def enum_subproblem_solve(sub, feas_tol: float = 1e-9, chunk: int = 4096):
    """Returns (theta*, r*, s*, rhat*, shat*, objective*)."""
    N, k1, k2, m = sub.n_samples, sub.k1, sub.k2, sub.m
    if np.any(sub.l1 != 0.0):
        raise ValueError("oracle assumes no l1 term")
    if np.any(sub.lin != 0.0):
        raise ValueError("oracle assumes no linear regularizer term")
    if sub.reg_const != 0.0:
        raise ValueError("oracle assumes no regularizer constant")
    if sub.split.kind != "squared":
        raise ValueError("oracle assumes squared loss")
    y = np.broadcast_to(np.atleast_1d(sub.split.y), (N,)).astype(float)
    w, c = sub.weight, sub.c
    n1, n2 = N * k1, N * k2
    B1, B2, rhat_nu, shat_nu = blocks(sub)
    E1 = np.kron(np.eye(N), np.ones((k1, 1)))
    E2 = np.kron(np.eye(N), np.ones((k2, 1)))
    nx = m + 2 * N
    ncon = n1 + n2 + 2 * N          # slack rows + r-kink rows + s-kink rows
    dim = nx + ncon

    # fixed quadratic part: proximal pulls plus eliminated-slack quadratics
    # x = (theta, r, s);  u = beta1 - B1 th + E1 r;  v = beta2 - B2 th - E2 s
    A_u = np.hstack([-B1, E1, np.zeros((n1, N))])              # du/dx
    A_v = np.hstack([-B2, np.zeros((n2, N)), -E2])             # dv/dx
    b_u = sub.beta[:n1]
    b_v = sub.beta[n1:]
    H0 = c * np.eye(nx) + c * (A_u.T @ A_u) + c * (A_v.T @ A_v)
    anchor = np.concatenate([sub.theta_nu, sub.r_nu, sub.s_nu])
    g0 = -c * anchor + c * A_u.T @ (b_u - rhat_nu) + c * A_v.T @ (b_v - shat_nu)

    # constraint catalogue (rows of C x = d when active)
    C_rows = np.vstack([
        -A_u,                                       # u_j = 0  ->  -A_u x = b_u
        -A_v,
        np.hstack([np.zeros((N, m)), np.eye(N), np.zeros((N, N))]),  # r_s = y_s
        np.hstack([np.zeros((N, m)), np.zeros((N, N)), np.eye(N)]),  # s_s = y_s
    ])
    d_rows = np.concatenate([b_u, b_v, y, y])

    # pattern p enumerates (r branches) x (s branches) x (slack subset) in
    # itertools.product order, the last factor varying fastest
    branches = np.array(list(itertools.product(_BRANCHES, repeat=N)))
    slack_sets = np.array(list(itertools.product((False, True), repeat=n1 + n2)),
                          dtype=bool)
    nb, ns = len(branches), len(slack_sets)
    ir, rest = np.divmod(np.arange(nb * nb * ns), nb * ns)
    i_s, iss = np.divmod(rest, ns)
    quad = np.hstack([branches[ir] == "quad", branches[i_s] == "quad"])
    active = np.hstack([slack_sets[iss], branches[ir] == "kink",
                        branches[i_s] == "kink"])

    rs = np.arange(m, nx)
    yy = np.concatenate([y, y])
    con = np.arange(nx, dim)
    eye = np.eye(dim)
    best, n_patterns = None, 0
    for lo in range(0, len(active), chunk):
        q, act = quad[lo:lo + chunk], active[lo:lo + chunk]
        B = len(act)
        n_patterns += B
        K = np.zeros((B, dim, dim))
        K[:, :nx, :nx] = H0
        g = np.tile(g0, (B, 1))
        # branch-dependent curvature on r and s coordinates
        K[:, rs, rs] += np.where(q, w, 0.0)
        g[:, rs] += np.where(q, -w * yy, 0.0)
        K[:, :nx, nx:] = np.where(act[:, None, :], C_rows.T, 0.0)
        K[:, nx:, :nx] = np.where(act[:, :, None], C_rows, 0.0)
        K[:, con, con] = np.where(act, 0.0, 1.0)
        rhs = np.concatenate([-g, np.where(act, d_rows, 0.0)], axis=1)

        sign, _ = np.linalg.slogdet(K)
        singular = sign == 0.0
        K[singular] = eye
        X = np.linalg.solve(K, rhs[..., None])[..., 0][:, :nx]
        ok = ~singular & np.all(np.isfinite(X), axis=1)

        th, r, s = X[:, :m], X[:, m:m + N], X[:, m + N:]
        U = b_u + X @ A_u.T
        V = b_v + X @ A_v.T
        ok &= np.all(U >= -feas_tol, axis=1) & np.all(V >= -feas_tol, axis=1)
        if not ok.any():
            continue
        lu = 0.5 * np.maximum(r - y, 0.0) ** 2
        ld = 0.5 * np.minimum(s - y, 0.0) ** 2
        val = w * np.sum(lu + ld, axis=1)
        val += 0.5 * c * (np.sum((th - sub.theta_nu) ** 2, axis=1)
                          + np.sum((r - sub.r_nu) ** 2, axis=1)
                          + np.sum((s - sub.s_nu) ** 2, axis=1)
                          + np.sum((U - rhat_nu) ** 2, axis=1)
                          + np.sum((V - shat_nu) ** 2, axis=1))
        i = np.flatnonzero(ok)[np.argmin(val[ok])]      # first minimizer
        if best is None or val[i] < best[-1]:
            best = (th[i], r[i], s[i], np.maximum(U[i], 0.0), np.maximum(V[i], 0.0),
                    val[i])
    assert n_patterns == pattern_count(N, k1, k2)
    if best is None:
        raise RuntimeError("no feasible KKT candidate found")
    return best


# ---------------------------------------------------------------------------
# argmax pair selection, one sample at a time

def loop_select_pairs(problem, theta, eps: float, variant: str,
                      rng: np.random.Generator | None = None,
                      combo_cap: int = 64):
    """Reference for `mm.select_pairs`: per-sample pair lists and a product.

    Same contract: (selections, coverage).  The pair-count product is taken
    in floating point, so it overflows to inf (coverage 0) on many ties.
    """
    from pwafit.funcs import TIE_TOL
    N = problem.n_samples
    if variant == "one":
        gv, hv = problem.atom_values(theta)
        m1, m2 = gv >= gv.max(1, keepdims=True) - TIE_TOL, hv >= hv.max(1, keepdims=True) - TIE_TOL
        sel1 = m1.argmax(axis=1)
        sel2 = m2.argmax(axis=1)
        return [(sel1, sel2)], 1.0
    m1, m2 = problem.argmax_masks(theta, eps)
    per_sample = []
    total = 1.0
    for sidx in range(N):
        i1 = np.flatnonzero(m1[sidx])
        i2 = np.flatnonzero(m2[sidx])
        pairs = [(a, b) for a in i1 for b in i2]
        per_sample.append(pairs)
        total *= len(pairs)
    if variant == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        sel1 = np.empty(N, dtype=int)
        sel2 = np.empty(N, dtype=int)
        for sidx, pairs in enumerate(per_sample):
            a, b = pairs[rng.integers(len(pairs))]
            sel1[sidx], sel2[sidx] = a, b
        return [(sel1, sel2)], 1.0
    if variant != "full":
        raise ValueError(f"unknown variant {variant!r}")
    sels = []
    for combo in itertools.islice(itertools.product(*per_sample), combo_cap):
        sel1 = np.array([p[0] for p in combo], dtype=int)
        sel2 = np.array([p[1] for p in combo], dtype=int)
        sels.append((sel1, sel2))
    coverage = len(sels) / total if total > 0 else 1.0
    return sels, min(coverage, 1.0)


# ---------------------------------------------------------------------------
# one sample's phi(psi(theta)), psi = max_i U_i theta - max_j W_j theta

def loss_value(kind: str, t: float, y: float, tau: float | None = None) -> float:
    """Squared or quantile loss phi(t), written out from its definition."""
    d = t - y
    return 0.5 * d * d if kind == "squared" else max(tau * d, (tau - 1.0) * d)


def max_dir(A, theta, v, tol: float = 1e-9) -> float:
    """(max_i A_i theta)'(theta; v): the largest slope along v among the
    atoms tied for the max."""
    vals = A @ theta
    return float((A @ v)[vals >= vals.max() - tol].max())


def one_sample_problem(U, W, split):
    """One-sample `CompositeProblem` with g atoms U_i . theta and h atoms
    W_j . theta: its single feature is 1 and the atom rows are the lifts."""
    return CompositeProblem(X=np.ones((1, 1)), L=np.vstack([U, W])[:, None, :],
                            k1=len(U), split=split)


def diffmax_dir(comp, theta, v) -> float:
    """psi'(theta; v) of a one-sample `CompositeProblem`."""
    return max_dir(comp.U, theta, v) - max_dir(comp.W, theta, v)


def composite_dir(comp, theta, v) -> float:
    """(phi o psi)'(theta; v) by the chain rule, for a squared or quantile
    `comp.split` with scalar y."""
    t = float(comp.psi(theta)[2][0])
    dt = diffmax_dir(comp, theta, v)
    sp, y = comp.split, float(comp.split.y)
    if sp.kind == "squared":
        return (t - y) * dt
    # one-sided slope of the quantile loss in the direction of dt
    return (sp.tau if t > y or (t == y and dt >= 0) else sp.tau - 1.0) * dt


def majorant(comp, pair, theta, theta_bar) -> float:
    """Convex majorant of phi(psi(.)) of a one-sample problem from linearizing
    g atom i1 and h atom i2 (0-based) at theta_bar:
    phi_up(g(theta) - lin_h(theta)) + phi_down(lin_g(theta) - h(theta))."""
    i1, i2 = pair
    g_bar, h_bar, _ = comp.psi(theta_bar)
    g, h, _ = comp.psi(theta)
    d = np.asarray(theta, dtype=float) - theta_bar
    lin_h = h_bar + comp.W[i2] @ d
    lin_g = g_bar + comp.U[i1] @ d
    return float(np.sum(comp.split.up(g - lin_h) + comp.split.down(lin_g - h)))


# ---------------------------------------------------------------------------
# dual subproblems: generic instances, block views, dense Jacobian,
# feasibility and the unstacked dual value

def dual_subproblem(*, B1, beta1, B2, beta2, rhat_nu, shat_nu, n_samples,
                    split, c, theta_nu, r_nu, s_nu, l1=None, lin=None,
                    reg_const=0.0):
    """`DualSubproblem` from separate lambda (B1, beta1, rhat_nu) and mu
    (B2, beta2, shat_nu) blocks; l1 and lin default to zeros.

    It is allocated over a problem of the blocks' shape whose atoms all have
    zero lifts, and B, beta and the anchors are then overwritten.  The blocks
    need not come from atoms, and the problem's zero lifts do not describe
    them, so the instance has no Newton step: only its dual value, gradient
    and inner minimizers are defined."""
    from pwafit.snewton import DualSubproblem
    N, m = n_samples, B1.shape[1]
    k1, k2 = B1.shape[0] // N, B2.shape[0] // N
    sub = DualSubproblem(CompositeProblem(
        X=np.ones((N, 1)), L=np.zeros((k1 + k2, 1, m)), k1=k1, split=split))
    sub.B[...] = np.vstack([B1, B2])
    sub.beta[...] = np.concatenate([beta1, beta2])
    sub.slack_nu[...] = np.concatenate([rhat_nu, shat_nu])
    sub.c, sub.theta_nu, sub.r_nu, sub.s_nu = c, theta_nu, r_nu, s_nu
    sub.l1 = np.zeros(m) if l1 is None else l1
    sub.lin = np.zeros(m) if lin is None else lin
    sub.reg_const = reg_const
    return sub


def blocks(sub):
    """(B1, B2, rhat_nu, shat_nu): the lambda and mu rows of the stacked data."""
    n1 = sub.n1
    return sub.B[:n1], sub.B[n1:], sub.slack_nu[:n1], sub.slack_nu[n1:]


def jacobian_parts(sub, x):
    """(d_th, rho, sig, slack) of the generalized Jacobian element at the
    stacked multipliers x = (lambda, mu), from their definitions: the theta
    mask, the per-sample loss sensitivities and the slack masks."""
    x = np.asarray(x, dtype=float)
    B, c, w, N, n1 = sub.B, sub.c, sub.weight, sub.n_samples, sub.n1
    lam, mu = x[:n1], x[n1:]
    u = sub.theta_nu - (B.T @ x - sub.lin) / c
    d_th = np.where(sub.l1 > 0.0, np.abs(u) > sub.l1 / c, 1.0)
    rho = sub.split.prox_up_sens(lam.reshape(N, sub.k1).sum(axis=1), sub.r_nu, c, w)
    sig = sub.split.prox_down_sens(mu.reshape(N, sub.k2).sum(axis=1), sub.s_nu, c, w)
    return d_th, rho, sig, sub.slack_nu - x / c > 0


def _add_delta(sub, M, rho, sig, slack):
    """M plus the rank-one loss blocks and the slack masks / c, in place."""
    for s in range(sub.n_samples):
        i0 = s * sub.k1
        M[i0:i0 + sub.k1, i0:i0 + sub.k1] += rho[s]
        j0 = sub.n1 + s * sub.k2
        M[j0:j0 + sub.k2, j0:j0 + sub.k2] += sig[s]
    M[np.diag_indices_from(M)] += slack / sub.c
    return M


def gen_jacobian(sub, x) -> np.ndarray:
    """Dense element of the generalized Jacobian of -grad xi (symmetric PSD)
    at the stacked multipliers x = (lambda, mu), from its definition.  The
    solver applies the same matrix implicitly through a Woodbury
    factorization."""
    d_th, rho, sig, slack = jacobian_parts(sub, x)
    return _add_delta(sub, (sub.B * d_th) @ sub.B.T / sub.c, rho, sig, slack)


def newton_matrix(sub, x, eps):
    """cI + B_act^T Delta^{-1} B_act formed densely, with Delta the
    Jacobian element at x minus its theta part (1/c) B_act B_act^T, plus
    eps I; act are the theta coordinates outside the l1 dead zone."""
    d_th, rho, sig, slack = jacobian_parts(sub, x)
    delta = _add_delta(sub, eps * np.eye(sub.dual_dim), rho, sig, slack)
    B = sub.B[:, d_th > 0]
    return sub.c * np.eye(B.shape[1]) + B.T @ np.linalg.solve(delta, B)


def feasibility(sub, th, r, s, slack) -> float:
    """Largest violation of the subproblem's constraints at a primal point."""
    B1, B2, _, _ = blocks(sub)
    n1 = sub.n1
    rh, sh = slack[:n1], slack[n1:]
    g1 = B1 @ th - np.repeat(r, sub.k1) + rh - sub.beta[:n1]
    g2 = B2 @ th + np.repeat(s, sub.k2) + sh - sub.beta[n1:]
    res = max(np.abs(g1).max(initial=0.0), np.abs(g2).max(initial=0.0))
    res = max(res, -min(rh.min(initial=0.0), sh.min(initial=0.0), 0.0))
    return float(res)


def four_matvec_value_grad(sub, lam, mu):
    """Dual value and gradient as the solver computed them before its
    constraint blocks were stacked: one matvec per block each way, and a
    per-block sum of every term.  Kept as the reference for
    `DualSubproblem.value_grad`."""
    B1, B2, rhat_nu, shat_nu = blocks(sub)
    beta1, beta2 = sub.beta[:sub.n1], sub.beta[sub.n1:]
    # inner_theta
    agg = B1.T @ lam + B2.T @ mu - sub.lin
    u = sub.theta_nu - agg / sub.c
    th = np.sign(u) * np.maximum(np.abs(u) - sub.l1 / sub.c, 0.0)
    # block_sums
    a = lam.reshape(sub.n_samples, sub.k1).sum(axis=1)
    b = mu.reshape(sub.n_samples, sub.k2).sum(axis=1)
    # inner_all
    r = sub.split.prox_up(a, sub.r_nu, sub.c, sub.weight)
    s = sub.split.prox_down(b, sub.s_nu, sub.c, sub.weight)
    rh = np.maximum(rhat_nu - lam / sub.c, 0.0)
    sh = np.maximum(shat_nu - mu / sub.c, 0.0)
    # value_grad
    c, w = sub.c, sub.weight
    v = -lam @ beta1 - mu @ beta2 + sub.reg_const
    v += agg @ th + sub.l1 @ np.abs(th) + 0.5 * c * np.sum((th - sub.theta_nu) ** 2)
    v += float(np.sum(w * sub.split.up(r) - a * r + 0.5 * c * (r - sub.r_nu) ** 2))
    v += float(np.sum(w * sub.split.down(s) + b * s + 0.5 * c * (s - sub.s_nu) ** 2))
    v += lam @ rh + 0.5 * c * np.sum((rh - rhat_nu) ** 2)
    v += mu @ sh + 0.5 * c * np.sum((sh - shat_nu) ** 2)
    g1 = B1 @ th - np.repeat(r, sub.k1) + rh - beta1
    g2 = B2 @ th + np.repeat(s, sub.k2) + sh - beta2
    return v, np.concatenate([g1, g2]), (th, r, s, rh, sh)


# ---------------------------------------------------------------------------
# a linear loss split

class LinearSplit(MonotoneSplit):
    """phi_up(t) = up_slope * t (up_slope >= 0) plus phi_down(t) =
    down_slope * t (down_slope <= 0): an identity-like loss for stationarity
    counterexamples, with the proxes and sensitivities the solvers call."""

    def __init__(self, up_slope=0.0, down_slope=0.0):
        self.kind = "linear"
        self.y = None
        self.up_slope = np.asarray(up_slope, dtype=float)
        self.down_slope = np.asarray(down_slope, dtype=float)
        if np.any(self.up_slope < 0) or np.any(self.down_slope > 0):
            raise ValueError("linear split needs up_slope >= 0 >= down_slope")

    def up(self, t):
        return self.up_slope * np.asarray(t, dtype=float)

    def down(self, t):
        return self.down_slope * np.asarray(t, dtype=float)

    def prox_up(self, tilt, anchor, c, w=1.0):
        return np.asarray(anchor, dtype=float) + (np.asarray(tilt, dtype=float)
                                                  - w * self.up_slope) / c

    def prox_down(self, tilt, anchor, c, w=1.0):
        return np.asarray(anchor, dtype=float) - (np.asarray(tilt, dtype=float)
                                                  + w * self.down_slope) / c

    def prox_up_sens(self, tilt, anchor, c, w=1.0):
        return np.full(np.broadcast(tilt, anchor).shape, 1.0 / c)

    prox_down_sens = prox_up_sens


# ---------------------------------------------------------------------------
# the down half of a MonotoneSplit, written out directly

# `MonotoneSplit` reads phi_down through the up half of its mirrored loss;
# these are the direct formulas it replaced, which it must equal exactly

def down_direct(split, t):
    t = np.asarray(t, dtype=float)
    d = np.minimum(t - split.y, 0.0)
    return 0.5 * d * d if split.kind == "squared" else (split.tau - 1.0) * d


def prox_down_direct(split, tilt, anchor, c, w=1.0):
    tilt = np.asarray(tilt, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    flat = anchor - tilt / c
    if split.kind == "squared":
        quad = (w * split.y - tilt + c * anchor) / (w + c)
        return np.where(flat >= split.y, flat, quad)
    slope = anchor + (w * (1.0 - split.tau) - tilt) / c
    return np.where(flat >= split.y, flat, np.where(slope <= split.y, slope, split.y))


def prox_down_sens_direct(split, tilt, anchor, c, w=1.0):
    tilt = np.asarray(tilt, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    flat = anchor - tilt / c
    if split.kind == "squared":
        return np.where(flat > split.y, 1.0 / c, 1.0 / (w + c))
    slope = anchor + (w * (1.0 - split.tau) - tilt) / c
    on_branch = (flat > split.y) | (slope < split.y)
    return np.where(on_branch, 1.0 / c, 0.0)


# ---------------------------------------------------------------------------
# surfaces compared by value

def model_rmse(model_a, model_b, grid: int = 101) -> float:
    """Root-mean-square gap between two `PWAModel` surfaces on [-1,1]^d: a
    grid for d <= 2, 1024 Sobol points above."""
    d = model_a.d
    if d != model_b.d:
        raise ValueError("models have different input dimensions")
    if d <= 2:
        axes = [np.linspace(-1.0, 1.0, grid)] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        P = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        from scipy.stats import qmc
        P = qmc.Sobol(d, scramble=False, seed=0).random(1024) * 2.0 - 1.0
    diff = model_a.eval(P) - model_b.eval(P)
    return float(np.sqrt(np.mean(diff ** 2)))


# ---------------------------------------------------------------------------
# univariate piecewise affine functions

class PA1D(PiecewiseAffine1D):
    """The package's `PiecewiseAffine1D` with constructors (affine pieces,
    pointwise max / min, scaling) and evaluation, to build test functions."""

    @classmethod
    def affine(cls, slope: float, intercept: float = 0.0) -> "PA1D":
        return cls((), ((float(slope), float(intercept)),))

    @classmethod
    def maximum(cls, *fs) -> "PA1D":
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
    def minimum(cls, *fs) -> "PA1D":
        fs = [f if isinstance(f, cls) else cls.affine(*f) for f in fs]
        return cls.maximum(*[f.scale(-1.0) for f in fs]).scale(-1.0)

    def scale(self, k: float) -> "PA1D":
        return type(self)(self.breakpoints,
                          tuple((k * a, k * b) for a, b in self.pieces))

    def piece_at(self, x: float) -> tuple[float, float]:
        return self.pieces[bisect.bisect_right(self.breakpoints, x)]

    def value(self, x: float) -> float:
        a, b = self.piece_at(x)
        return a * x + b

    def is_convex(self) -> bool:
        sl = [a for a, _ in self.pieces]
        return all(sl[i] <= sl[i + 1] + 1e-12 for i in range(len(sl) - 1))


def dc_critical_check(f1: PA1D, f2: PA1D, x: float) -> bool:
    """Criticality of f1 - f2 at x: the convex subdifferentials intersect."""
    if not f1.is_convex() or not f2.is_convex():
        raise ValueError("dc criticality requires convex parts")
    a1, b1 = f1.slopes_at(x)
    a2, b2 = f2.slopes_at(x)
    return max(a1, a2) <= min(b1, b2) + 1e-12


# ---------------------------------------------------------------------------
# random problem/instance helpers shared by tests

def random_instance(seed, N=4, d=2, k1=2, k2=2, noise=1.0):
    """Random dataset + assembled composite problem."""
    from pwafit import pwa
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(N, d))
    y = rng.normal(size=N) * noise
    prob = pwa.PWAProblem(dataset=pwa.Dataset(X, y), k1=k1, k2=k2)
    return prob, pwa.assemble(prob)


def random_pa1d(seed, max_pieces=5, span=3.0):
    """Random continuous piecewise affine function on the line."""
    rng = np.random.default_rng(seed)
    n_bp = int(rng.integers(0, max_pieces))
    bps = np.sort(rng.uniform(-span, span, size=n_bp))
    bps = np.unique(np.round(bps, 6))
    slopes = rng.uniform(-2.0, 2.0, size=bps.size + 1)
    # build intercepts left to right enforcing continuity
    pieces = [(float(slopes[0]), float(rng.uniform(-1, 1)))]
    for i, x in enumerate(bps):
        a0, b0 = pieces[-1]
        a1 = float(slopes[i + 1])
        pieces.append((a1, a0 * x + b0 - a1 * x))
    return PiecewiseAffine1D(tuple(float(x) for x in bps), tuple(pieces))
