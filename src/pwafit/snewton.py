"""The MM subproblem of one atom-pair selection, and a semismooth Newton
solver for its Lagrangian dual.

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

Every B row is the difference of two atom gradients of one sample, and each
atom gradient is the sample's features x_s times the atom's lift L_a
(`funcs.CompositeProblem`).  The Newton step's m x m matrix is therefore
formed from per-sample K x K atom couplings (K = k1 + k2) and the samples'
x_s x_s^T, not from an array of B's size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .funcs import CompositeProblem


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


class DualSubproblem:
    """Dual subproblem of one atom-pair selection of `problem`: stacked
    affine constraint data plus prox oracles and anchors.

    The problem fixes the shape (k1, k2, N), the loss split and its weight;
    `build_subproblem` writes each selection's data.  B stacks the N*k1
    lambda rows over the N*k2 mu rows; beta and slack_nu follow the same row
    order.  Lambda row j of sample s is g atom j's gradient minus that of h
    atom sel2[s]; mu row j is h atom j's minus that of g atom sel1[s].  The
    work arrays are overwritten by every call of `value_grad`,
    `_newton_direction` and `build_subproblem`, so none of them allocates an
    array of B's size.
    """

    def __init__(self, problem: CompositeProblem):
        self.problem = problem
        self.k1, self.k2, self.n_samples = problem.k1, problem.k2, problem.n_samples
        self.split = problem.split      # per-sample loss split (array parameters)
        self.weight = problem.weight    # loss scale w (typically 1/N)
        N, K, m = self.n_samples, self.k1 + self.k2, problem.m
        self.n1, n = N * self.k1, N * K
        # B is column-major, so that B theta and B^T x both run over its
        # contiguous columns; slack_nu holds the slack anchors, lambda rows
        # then mu rows
        self.B = np.empty((n, m), order="F")
        self.beta, self.slack_nu = np.empty(n), np.empty(n)
        # the selection's one-hot (K, N), g atoms over h atoms, and each
        # sample's x x^T, flattened to (N, p*p): the Newton matrix's data
        self.onehot = np.empty((K, N))
        # the anchors theta_nu, r_nu and s_nu, copies of the state's, and
        # their atom values (N, k1) and (N, k2), column-major, with their
        # per-sample maxima, which a rebuild at the same anchor keeps; c is
        # None until the first build
        self.theta_nu, self.r_nu, self.s_nu = np.empty(m), np.empty(N), np.empty(N)
        self.gv = np.empty((N, self.k1), order="F")
        self.hv = np.empty((N, self.k2), order="F")
        self.g, self.h = np.empty(N), np.empty(N)
        self.c = None
        X = problem.X
        p = X.shape[1]
        self.outer = (X[:, :, None] * X[:, None, :]).reshape(N, p * p)
        # 0/1 matrices that sum the other rows of a sample block
        self.others = {k: 1.0 - np.eye(k) for k in {self.k1, self.k2}}
        # work arrays: the dual-dimension temporary of value_grad,
        # displacement_sq, the Newton step's correction and the build's atom
        # values; the sample blocks of Delta^{-1} (v, m, vn) with two
        # temporaries of `_delta_solve`; the Newton matrix's couplings of the
        # atoms that carry a lift, an N-vector per pair (the g atoms alone
        # when the h atom is the zero-lift placeholder of an empty second
        # max); and the build's chosen atom gradients.  work_v also takes
        # `feasible_point`'s slack
        self.work_x, self.work_v = np.empty(n), np.empty(n)
        self.work_m, self.work_vn = np.empty(n), np.empty(n)
        self.work_vx, self.work_rest = np.empty(n), np.empty(n)
        lifted = K if problem.L[self.k1:].any() else self.k1
        self.work_C = np.empty((lifted, lifted, N))
        self.work_chosen = np.empty((N, m))

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
        `_newton_direction` reads, followed by ||z - z_nu||^2 at the inner
        minimizers.  xi is the Lagrangian at the inner minimizers: their
        subproblem objective plus x times the constraint residual, which is
        grad xi."""
        c, w, N, n1 = self.c, self.weight, self.n_samples, self.n1
        u = self.theta_nu - (self.B.T @ x - self.lin) / c
        th = np.sign(u) * np.maximum(np.abs(u) - self.l1 / c, 0.0)
        a, b = _block_sum(x[:n1], self.k1), _block_sum(x[n1:], self.k2)
        r = self.split.prox_up(a, self.r_nu, c, w)
        s = self.split.prox_down(b, self.s_nu, c, w)
        # x / c goes through a work array; sl is returned, so it is a fresh array
        tmp = np.divide(x, c, out=self.work_x)
        sl = np.maximum(np.subtract(self.slack_nu, tmp, out=tmp), 0.0)
        g = self.B @ th
        g[:n1].reshape(N, self.k1)[...] -= r[:, None]
        g[n1:].reshape(N, self.k2)[...] += s[:, None]
        g += sl
        g -= self.beta
        disp = self.displacement_sq(th, r, s, sl)
        v = self.primal_value(th, r, s, sl, disp) + x @ g
        return float(v), g, (th, r, s, sl), (u, a, b, sl, disp)

    # -- primal objective of the subproblem

    def primal_value(self, th, r, s, slack, disp=None) -> float:
        """The subproblem objective; `disp` is ||z - z_nu||^2 when known."""
        disp = self.displacement_sq(th, r, s, slack) if disp is None else disp
        v = self.weight * float(np.sum(self.split.up(r) + self.split.down(s)))
        v += self.l1 @ np.abs(th) - self.lin @ th + self.reg_const
        return v + 0.5 * self.c * disp

    def displacement_sq(self, th, r, s, slack) -> float:
        """||z - z_nu||^2; the slack's displacement goes through work_x."""
        dth, dr, ds = th - self.theta_nu, r - self.r_nu, s - self.s_nu
        dsl = np.subtract(slack, self.slack_nu, out=self.work_x)
        return float(dth @ dth + dr @ dr + ds @ ds + dsl @ dsl)

    # -- duality gap

    def feasible_point(self, grad, inner):
        """(theta, r', s', slack') feasible for the constraints: each sample's
        r rises (s falls) by t = max(0, max_j e_j) over the excesses e = grad
        - slack of its lambda (mu) rows, and each row's slack' = t - e >= 0.
        slack' is work_v, written row by row (a broadcast ufunc would buffer)."""
        th, r, s, sl = inner
        e = np.subtract(grad, sl, out=self.work_v)
        t = []
        for half, k in ((e[:self.n1], self.k1), (e[self.n1:], self.k2)):
            t.append(np.maximum(half[0::k], 0.0))
            for j in range(1, k):
                np.maximum(t[-1], half[j::k], out=t[-1])
            for j in range(k):
                np.subtract(t[-1], half[j::k], out=half[j::k])
        return th, np.add(r, t[0], out=t[0]), np.subtract(s, t[1], out=t[1]), e

    def duality_gap(self, val, grad, inner) -> float:
        """primal(z') - xi(x) >= 0 at `feasible_point`'s z', with xi(x) = val
        and grad and inner `value_grad`'s at x."""
        return float(self.primal_value(*self.feasible_point(grad, inner)) - val)


def build_subproblem(problem: CompositeProblem, state, sel1, sel2, c: float, *,
                     reuse: DualSubproblem | None = None) -> DualSubproblem:
    """Dual subproblem of one per-sample atom-pair selection (sel1, sel2) at
    the MM iterate `state`, whose theta, r and s it reads.

    Sets B, beta, slack_nu and the selection's one-hot, the proximal weight
    c, the anchors theta_nu, r_nu and s_nu (copies of the state's), and the
    regularizer majorant l1, lin and reg_const, in `reuse`, a subproblem
    built earlier from the same problem, or in a new
    `DualSubproblem(problem)`, which is returned.  When `reuse` was last
    built at this anchor (theta, r and s equal to its copies bit for bit,
    and the same c), everything but the selection is kept, and only the
    rows and one-hot columns of the samples whose chosen atom changed are
    rewritten.  An atom index outside 0..k1-1 (sel1) or 0..k2-1 (sel2) is an
    IndexError.
    """
    N, k1, k2, m = problem.n_samples, problem.k1, problem.k2, problem.m
    n1 = N * k1
    for sel, k in ((sel1, k1), (sel2, k2)):
        if np.min(sel, initial=0) < 0 or np.max(sel, initial=0) >= k:
            raise IndexError(f"atom selection outside 0..{k - 1}")
    if reuse is not None and _at_anchor(reuse, problem, state, c):
        _rewrite_changed(reuse, sel1, sel2)
        return reuse
    theta = np.asarray(state.theta, dtype=float)
    sub = DualSubproblem(problem) if reuse is None else reuse
    sub.c = None    # no anchor until the build is complete
    # the atom values go through work_x into column-major arrays, whose
    # per-sample maxima reduce over the atoms (`CompositeProblem.atom_values`)
    gv, hv, g, h = sub.gv, sub.hv, sub.g, sub.h
    vals = sub.work_x
    np.matmul(problem.U, theta, out=vals[:n1])
    np.matmul(problem.W, theta, out=vals[n1:])
    gv[...], hv[...] = vals[:n1].reshape(N, k1), vals[n1:].reshape(N, k2)
    np.max(gv, axis=1, out=g)
    np.max(hv, axis=1, out=h)
    sub.l1, sub.lin, sub.reg_const = problem.reg.majorant_data(theta)

    # lambda rows U - (chosen h grad) over mu rows W - (chosen g grad), each
    # with beta = (other max) - (chosen atom's value); the per-sample reshapes
    # of B's and beta's rows are views (splitting an axis never copies).  The
    # chosen gradients are gathered into the subproblem's (N, m) work array
    chosen = sub.work_chosen
    for rows, k, atoms, other, sel, hot, top, values in _halves(sub, sel1, sel2):
        np.equal(np.arange(len(hot))[:, None], sel, out=hot)
        # mode "clip" writes straight into `chosen`, where "raise" would
        # buffer a copy (the range is checked above)
        np.take(other, np.arange(N) * len(hot) + sel, axis=0, out=chosen, mode="clip")
        np.subtract(atoms.reshape(N, k, m), chosen[:, None, :],
                    out=sub.B[rows].reshape(N, k, m))
        sub.beta[rows].reshape(N, k)[...] = (top - values[np.arange(N), sel])[:, None]

    # slack anchors: the point (theta, r, s, slack) is feasible for this
    # selection's constraints and carries the current surrogate value exactly;
    # they do not depend on the selection
    np.maximum((state.r + h)[:, None] - gv, 0.0, out=sub.slack_nu[:n1].reshape(N, k1))
    np.maximum((g - state.s)[:, None] - hv, 0.0, out=sub.slack_nu[n1:].reshape(N, k2))
    sub.theta_nu[...], sub.r_nu[...], sub.s_nu[...] = theta, state.r, state.s
    sub.c = c
    return sub


def _halves(sub: DualSubproblem, sel1, sel2):
    """Per half of the stacked rows, lambda then mu: its rows, the atoms per
    sample and their gradients, the other max's gradients, the selection
    into the other max and its one-hot rows, and that max and its atom
    values."""
    p, n1, k1 = sub.problem, sub.n1, sub.k1
    return ((slice(0, n1), k1, p.U, p.W, sel2, sub.onehot[k1:], sub.h, sub.hv),
            (slice(n1, None), sub.k2, p.W, p.U, sel1, sub.onehot[:k1], sub.g, sub.gv))


def _at_anchor(sub: DualSubproblem, problem, state, c) -> bool:
    """Whether `sub` was last built from `problem` at c and at the state's
    theta, r and s, bit for bit."""
    if sub.c is None or sub.c != c or sub.problem is not problem:
        return False
    return all(a.dtype == kept.dtype and a.shape == kept.shape
               and a.tobytes() == kept.tobytes()
               for a, kept in ((state.theta, sub.theta_nu), (state.r, sub.r_nu),
                               (state.s, sub.s_nu)))


def _rewrite_changed(sub: DualSubproblem, sel1, sel2):
    """The B rows, beta rows and one-hot columns of the samples whose chosen
    atom is not the one the one-hot holds: lambda rows follow sel2, mu rows
    sel1.  Each entry gets the full build's arithmetic."""
    samples = np.arange(sub.n_samples)
    for rows, k, atoms, other, sel, hot, top, values in _halves(sub, sel1, sel2):
        idx = np.flatnonzero(hot[sel, samples] == 0.0)
        if not idx.size:
            continue
        picked = np.asarray(sel)[idx]
        hot[:, idx] = np.arange(len(hot))[:, None] == picked
        own = idx[:, None] * k + np.arange(k)
        sub.B[rows][own.ravel()] = (atoms[own] - other[idx * len(hot) + picked][:, None, :]
                                    ).reshape(-1, sub.m)
        sub.beta[rows][own] = (top[idx] - values[idx, picked])[:, None]


# backtracking factor, Armijo's sufficient-increase constant, how many
# accepted dual values the nonmonotone Armijo test looks back over (Grippo,
# Lampariello and Lucidi, SIAM J. Numer. Anal. 1986), and how many step
# lengths one search tries: testing against the smallest of the last 5 takes
# full Newton steps far more often than the monotone test (memory 1), which
# backtracked on almost half the steps of a default fit.  The Newton system
# is regularized by eps = min(_EPS_FLOOR + _EPS_GRAD ||grad||, _EPS_CAP) / c,
# proportional to the gradient norm (Li, Sun and Toh, SIAM J. Optim. 2018)
# and in the 1/c units of the generalized Jacobian, so that it weighs the
# same at every proximal weight; it makes the system positive definite, so
# the Newton direction ascends, and a `LinAlgError` (rounding, NaN) propagates
_RHO, _SIGMA, _NM_MEMORY, _TRIALS = 0.5, 1e-4, 5, 20
_EPS_FLOOR, _EPS_GRAD, _EPS_CAP = 1e-9, 0.1, 1e-3
# the Newton decrement (grad . d)/2 estimates the dual's distance to its
# maximum, so an iterate's gap is computed once its decrement is under the
# gap target, or, to spare the last direction, before its direction when the
# step that reached it started within 100 targets (testing every iterate
# stopped no solve of `ex2-fit-default` sooner and cost a gap per step)
_GAP_AHEAD = 100.0


@dataclass
class SNConfig:
    tol_grad: float = 1e-10
    max_iter: int = 100
    gap_rel: float | None = None  # None: no gap exit (see `sn_solve`)


@dataclass
class SNResult:
    x: np.ndarray                 # stacked multipliers (lambda, mu)
    theta: np.ndarray
    r: np.ndarray
    s: np.ndarray
    slack: np.ndarray             # stacked slack, same row order as x
    value: float
    kkt_residual: float
    iterations: int
    converged: bool
    gap: float | None             # duality gap at x; None only without gap_rel


def _newton_matrix(sub: DualSubproblem, diag, rho, sig, act):
    """Delta^{-1}'s sample blocks, left in the subproblem's work arrays for
    `_delta_solve`, and S_th = cI + [B^T Delta^{-1} B]_act.

    Delta = diag(diag) + each sample's rho (sig) 11^T over its k1 lambda (k2
    mu) rows; v = 1 / diag goes to work_v, which diag may be.  With v over
    one sample's rows and D = 1 + rho sum(v), Sherman-Morrison gives its
    lambda block as diag(v) - (rho/D) v v^T.  Its diagonal
    v_i (1 + rho sum_{j != i} v_j) / D is formed from the other rows' v, free
    of the cancellation of v_i - (rho/D) v_i^2 when v_i is large, and kept in
    work_m; -(rho/D) v goes to work_vn.  Likewise for mu with sig.

    B's rows of sample s are P_s A_s, where A_s stacks the sample's K = k1 +
    k2 atom gradients x_s L_a and P_s turns them into the lambda rows (g atom
    j minus h atom sel2) and mu rows (h atom j minus g atom sel1), so

        B^T Delta^{-1} B = sum_s A_s^T C_s A_s = sum_{a,b} L_a^T G_ab L_b,

    with C_s = P_s^T Delta_s^{-1} P_s and G_ab = sum_s C_s[a, b] x_s x_s^T.
    C_s has the closed form

        g-g: Delta_lam^{-1} + (sum v_mu / D_mu) e_sel1 e_sel1^T
        g-h: -(v / D) e_sel2^T - e_sel1 (v_mu / D_mu)^T
        h-h: Delta_mu^{-1} + (sum v / D) e_sel2 e_sel2^T,

    held as K x K N-vectors in `sub.work_C`; one GEMM against the samples'
    x_s x_s^T gives every G_ab.  An atom with a zero lift adds nothing to
    the sum, so when the h atom is the placeholder of an empty second max,
    only the g-g couplings are formed.
    """
    N, k1, k2, n1 = sub.n_samples, sub.k1, sub.k2, sub.n1
    K = k1 + k2
    v, m, vn = np.divide(1.0, diag, out=sub.work_v), sub.work_m, sub.work_vn
    # each row's t and D, those of its sample, in two work arrays that
    # `_delta_solve` overwrites later; the second then holds q = v / D when
    # the g-h couplings are formed
    t_row, q = sub.work_vx, sub.work_rest
    halves = ((slice(0, n1), k1, rho, 0), (slice(n1, None), k2, sig, k1))
    vsum_D = []
    for rows, k, t, _ in halves:
        # the sum of the other rows' v, for each row: an exact 0/1 product
        v_others = np.matmul(v[rows].reshape(N, k), sub.others[k],
                             out=m[rows].reshape(N, k))
        vsum = v[rows][0::k] + v_others[:, 0]
        D = 1.0 + t * vsum
        for j in range(k):
            t_row[rows][j::k] = t
            q[rows][j::k] = D
        vsum_D.append(vsum / D)
    m *= t_row
    m += 1.0
    m *= v
    m /= q
    np.multiply(v, t_row, out=vn)
    vn /= q
    np.negative(vn, out=vn)
    # the couplings of the atoms that carry a lift, an N-vector over the
    # samples for each pair: all K atoms, or the k1 g atoms alone when the h
    # atom is a zero-lift placeholder, whose rows of L_a^T G_ab L_b vanish.
    # First Delta_s^{-1}'s blocks: -(t/D) v_i v_j, with m on the diagonal
    C = sub.work_C
    Kc = len(C)
    diagonal = C.reshape(Kc * Kc, N)[::Kc + 1]
    for rows, k, _, first in halves if Kc == K else halves[:1]:
        for i in range(k):
            np.multiply(v[rows].reshape(N, k).T, vn[rows][i::k],
                        out=C[first + i, first:first + k])
        diagonal[first:first + k] = m[rows].reshape(N, k).T
    # then the selection terms, each in the samples that chose the atom
    # (E1, E2 one-hot)
    E1, E2 = sub.onehot[:k1], sub.onehot[k1:]
    diagonal[:k1] += E1 * vsum_D[1]
    if Kc == K:
        diagonal[k1:] += E2 * vsum_D[0]
        q = np.divide(v, q, out=q)
        q1, q2 = q[:n1].reshape(N, k1).T, q[n1:].reshape(N, k2).T
        gh = C[:k1, k1:]
        for a in range(k1):
            np.multiply(E2, q1[a], out=gh[a])
            gh[a] += q2 * E1[a]
        np.negative(gh, out=gh)
        C[k1:, :k1] = gh.transpose(1, 0, 2)
    L = sub.problem.L[:Kc]
    p = L.shape[1]
    G = (C.reshape(Kc * Kc, N) @ sub.outer).reshape(Kc, Kc, p, p)
    La = L[:, :, act].reshape(Kc * p, act.size)
    S = La.T @ G.transpose(0, 2, 1, 3).reshape(Kc * p, Kc * p) @ La
    S.flat[::act.size + 1] += sub.c
    return S


def _delta_solve(sub: DualSubproblem, x, out=None):
    """Delta^{-1} x from the sample blocks `_newton_matrix` left in the
    subproblem's work arrays, written to `out` when given: row i of a sample
    block gets m_i x_i - (rho/D) v_i sum_{j != i} v_j x_j."""
    N, n1 = sub.n_samples, sub.n1
    vx, rest = sub.work_vx, sub.work_rest
    np.multiply(sub.work_v, x, out=vx)
    for rows, k in ((slice(0, n1), sub.k1), (slice(n1, None), sub.k2)):
        np.matmul(vx[rows].reshape(N, k), sub.others[k],
                  out=rest[rows].reshape(N, k))
    rest *= sub.work_vn
    y = np.multiply(sub.work_m, x, out=out)
    y += rest
    return y


def _newton_direction(sub: DualSubproblem, jac, grad, eps):
    """Solve (V + eps I) d = grad via block Sherman-Morrison + Woodbury.

    V = (1/c) B D B^T + blockdiag(rank-one loss blocks) + (1/c) diag(slack
    masks).  The sample blocks of Delta = V + eps I - (1/c) B D B^T invert
    in closed form, after which the theta coupling is an m-dimensional
    correction with the matrix `_newton_matrix` forms.  jac is the Jacobian
    data `value_grad` returned at the current multipliers; the masks and loss
    sensitivities below follow from it.  Intermediates go to the
    subproblem's work arrays; only vectors of the dual dimension are
    allocated.
    """
    u, a, b, sl, _ = jac
    c, w = sub.c, sub.weight
    d_th = np.where(sub.l1 > 0.0, np.abs(u) > sub.l1 / c, 1.0)
    rho = sub.split.prox_up_sens(a, sub.r_nu, c, w)
    sig = sub.split.prox_down_sens(b, sub.s_nu, c, w)
    diag = np.divide(sl > 0, c, out=sub.work_v)
    diag += eps
    act = np.flatnonzero(d_th)
    S_th = _newton_matrix(sub, diag, rho, sig, act)
    d = _delta_solve(sub, grad)
    if act.size:
        # d = Delta^{-1} (grad - B sol), where the theta correction sol solves
        # S_th sol = B_act^T Delta^{-1} grad, so that c sol = B_act^T d.
        # S_th is ill-conditioned once Delta has tiny entries, so a second
        # pass solves S_th once more for what c sol still misses of B_act^T d
        # (one step of iterative refinement)
        sol, step = np.zeros(act.size), np.zeros(sub.m)
        for _ in range(2):
            step[act] = np.linalg.solve(S_th, (sub.B.T @ d)[act] - c * sol)
            sol += step[act]
            correction = np.matmul(sub.B, step, out=sub.work_x)
            d -= _delta_solve(sub, correction, out=correction)
    return d


def sn_solve(sub: DualSubproblem, warm=None, cfg: SNConfig | None = None) -> SNResult:
    """Maximize the dual by semismooth Newton with nonmonotone Armijo
    backtracking, from the stacked multipliers `warm` (a previous
    `SNResult.x`) or zero.  It converges once ||grad|| <= `tol_grad` or
    (with `gap_rel`) once the duality gap is at most gap_rel (c/2)
    ||z - z_nu||^2 at the inner minimizers z, which by c-strong convexity puts
    the feasible point within sqrt(gap_rel) ||z - z_nu|| of the solution (Li,
    Sun and Toh's inner stopping rule); the gap is computed at most once per
    step (`_GAP_AHEAD`).  A solve that stops unconverged (at `max_iter`, or
    when no step length passes its line search) returns the iterate with the
    highest dual value it reached, which under the nonmonotone test need not
    be the last one.  With `gap_rel`, the result carries the duality gap at
    the multipliers it returns, whatever the exit, from the value, gradient
    and inner minimizers the solve already holds.  A `LinAlgError` of the
    Newton system propagates."""
    cfg = cfg or SNConfig()
    x = np.zeros(sub.dual_dim) if warm is None else warm
    val, grad, inner, jac = sub.value_grad(x)
    recent = deque([val], maxlen=_NM_MEMORY)
    best = (x, val, grad, inner)
    it, gap, near = 0, None, False
    for it in range(1, cfg.max_iter + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= cfg.tol_grad:
            it -= 1
            break
        if cfg.gap_rel is not None:
            target = cfg.gap_rel * 0.5 * sub.c * jac[-1]
            if near and (gap := sub.duality_gap(val, grad, inner)) <= target:
                it -= 1
                break
        eps = min(_EPS_FLOOR + _EPS_GRAD * gnorm, _EPS_CAP) / sub.c
        d = _newton_direction(sub, jac, grad, eps)
        slope = float(grad @ d)
        if cfg.gap_rel is not None:
            if (gap is None and 0.5 * slope <= target
                    and (gap := sub.duality_gap(val, grad, inner)) <= target):
                it -= 1
                break
            near = 0.5 * slope <= _GAP_AHEAD * target
        # one backtracking loop: nonmonotone Armijo on the dual value or, once
        # the slope is at rounding level (or not positive), a decrease of
        # ||grad||; if no trial passes, the solve stops
        flat = slope <= 1e-12 * (1.0 + abs(val))
        ref = min(recent)
        alpha = 1.0
        for _ in range(_TRIALS):
            xn = x + alpha * d
            vn, gn, innern, jacn = sub.value_grad(xn)
            if (float(np.linalg.norm(gn)) < gnorm if flat
                    else vn >= ref + _SIGMA * alpha * slope):
                break
            alpha *= _RHO
        else:
            break
        x, val, grad, inner, jac, gap = xn, vn, gn, innern, jacn, None
        recent.append(val)
        if val > best[1]:
            best = (x, val, grad, inner)
    kkt = float(np.linalg.norm(grad))
    converged = kkt <= cfg.tol_grad or (gap is not None and gap <= target)
    if not converged and best[1] > val:
        x, val, grad, inner = best
        kkt, gap = float(np.linalg.norm(grad)), None
    if cfg.gap_rel is not None and gap is None:
        gap = sub.duality_gap(val, grad, inner)

    th, r, s, sl = inner
    return SNResult(x=x, theta=th, r=r, s=s, slack=sl,
                    value=sub.primal_value(th, r, s, sl),
                    kkt_residual=kkt, iterations=it, converged=converged, gap=gap)
