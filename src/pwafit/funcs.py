"""Function atoms, pointwise-max calculus, monotone loss splits, majorants.

Shared vocabulary for the outer MM loop and the dual Newton solver: smooth
convex atoms, difference-of-max functions, univariate convex losses with
their monotone (non-decreasing + non-increasing) splits, dc regularizers,
and the stacked per-sample problem data the solvers operate on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# absolute tie tolerance for exact argmax membership
TIE_TOL = 1e-9


# ---------------------------------------------------------------------------
# atoms and pointwise maxima


@dataclass(frozen=True)
class SmoothConvexAtom:
    """Affine or convex-quadratic function of theta.

    value(theta) = 0.5 theta^T Q theta + w^T theta + b, with Q omitted (None)
    for affine atoms.  Q must be symmetric PSD.
    """

    w: np.ndarray
    b: float = 0.0
    Q: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if self.Q is not None:
            Q = np.asarray(self.Q, dtype=float)
            if not np.allclose(Q, Q.T, atol=1e-12):
                raise ValueError("quadratic atom matrix must be symmetric")
            if np.linalg.eigvalsh(Q).min() < -1e-10:
                raise ValueError("quadratic atom matrix must be PSD")
            object.__setattr__(self, "Q", Q)

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def value(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        v = float(self.w @ theta) + self.b
        if self.Q is not None:
            v += 0.5 * float(theta @ self.Q @ theta)
        return v

    def grad(self, theta: np.ndarray) -> np.ndarray:
        g = self.w.copy()
        if self.Q is not None:
            g = g + self.Q @ np.asarray(theta, dtype=float)
        return g


ZERO_ATOM_CACHE: dict[int, SmoothConvexAtom] = {}


def zero_atom(dim: int) -> SmoothConvexAtom:
    """All-zero affine atom; stands in for an empty pointwise max."""
    if dim not in ZERO_ATOM_CACHE:
        ZERO_ATOM_CACHE[dim] = SmoothConvexAtom(np.zeros(dim), 0.0)
    return ZERO_ATOM_CACHE[dim]


@dataclass(frozen=True)
class MaxFunction:
    """Pointwise maximum of finitely many smooth convex atoms."""

    atoms: tuple[SmoothConvexAtom, ...]

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise ValueError("MaxFunction needs at least one atom")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        dims = {a.dim for a in self.atoms}
        if len(dims) != 1:
            raise ValueError("atoms have inconsistent dimensions")

    @property
    def dim(self) -> int:
        return self.atoms[0].dim

    def atom_values(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.dim},)")
        return np.array([a.value(theta) for a in self.atoms])

    def value(self, theta) -> float:
        return float(self.atom_values(theta).max())

    def dir(self, theta, v) -> float:
        """One-sided directional derivative max_{i in argmax} grad_i . v."""
        vals = self.atom_values(theta)
        idx = np.flatnonzero(vals >= vals.max() - TIE_TOL)
        v = np.asarray(v, dtype=float)
        return max(float(self.atoms[i].grad(theta) @ v) for i in idx)


def max_eval(f: MaxFunction, theta) -> tuple[float, list[int]]:
    """Value and tie-tolerant argmax index set (1-based indices)."""
    vals = f.atom_values(theta)
    top = vals.max()
    argmax = [int(i) + 1 for i in np.flatnonzero(vals >= top - TIE_TOL)]
    return float(top), argmax


def eps_argmax(f: MaxFunction, theta, eps: float) -> list[int]:
    """Indices whose atom value is within eps of the max (1-based)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    vals = f.atom_values(theta)
    return [int(i) + 1 for i in np.flatnonzero(vals >= vals.max() - eps)]


@dataclass(frozen=True)
class DiffMaxFunction:
    """psi = g - h with g, h pointwise maxima of smooth convex atoms."""

    g: MaxFunction
    h: MaxFunction

    def value(self, theta) -> float:
        return self.g.value(theta) - self.h.value(theta)

    def dir(self, theta, v) -> float:
        return self.g.dir(theta, v) - self.h.dir(theta, v)


def diffmax_dir(psi: DiffMaxFunction, theta, v) -> float:
    """Directional derivative psi'(theta; v)."""
    return psi.dir(theta, v)


# ---------------------------------------------------------------------------
# univariate convex losses and monotone splits


@dataclass(frozen=True)
class UnivariateConvexLoss:
    """Squared or quantile loss against a target y.

    squared:  phi(t) = 0.5 (t - y)^2
    quantile: phi(t) = max(tau (t - y), (tau - 1)(t - y)), tau in (0, 1)
    """

    kind: str
    y: float
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ("squared", "quantile"):
            raise ValueError(f"unsupported loss kind {self.kind!r}")
        if self.kind == "quantile" and not (self.tau and 0.0 < self.tau < 1.0):
            raise ValueError("quantile loss needs tau in (0, 1)")

    @property
    def pivot(self) -> float:
        return self.y

    def value(self, t):
        t = np.asarray(t, dtype=float)
        d = t - self.y
        if self.kind == "squared":
            out = 0.5 * d * d
        else:
            out = np.maximum(self.tau * d, (self.tau - 1.0) * d)
        return out if out.ndim else float(out)

    def dir(self, t, v) -> float:
        """One-sided directional derivative phi'(t; v)."""
        t, v = float(t), float(v)
        if self.kind == "squared":
            return (t - self.y) * v
        left = self.tau - 1.0 if t <= self.y else self.tau
        right = self.tau if t >= self.y else self.tau - 1.0
        return right * v if v >= 0 else left * v


class MonotoneSplit:
    """Split of a univariate convex loss into phi_up + phi_down.

    phi_up is convex non-decreasing and constant left of the pivot; phi_down
    is convex non-increasing and constant right of it.  Parameters may be
    scalars or arrays (one loss per sample, broadcast against the argument),
    which is how the stacked solvers evaluate all samples at once.

    Kinds: "squared" / "quantile" as in :class:`UnivariateConvexLoss`, plus
    "linear" with phi_up(t) = up_slope * t (up_slope >= 0) and
    phi_down(t) = down_slope * t (down_slope <= 0), used for identity-like
    losses in stationarity experiments.
    """

    def __init__(self, kind, *, y=None, tau=None, up_slope=None, down_slope=None):
        if kind not in ("squared", "quantile", "linear"):
            raise ValueError(f"unsupported split kind {kind!r}")
        self.kind = kind
        if kind == "linear":
            self.up_slope = np.asarray(0.0 if up_slope is None else up_slope, dtype=float)
            self.down_slope = np.asarray(0.0 if down_slope is None else down_slope, dtype=float)
            if np.any(self.up_slope < 0) or np.any(self.down_slope > 0):
                raise ValueError("linear split needs up_slope >= 0 >= down_slope")
            self.y = None
        else:
            self.y = np.asarray(y, dtype=float)
            self.tau = None if tau is None else float(tau)
            if kind == "quantile" and not (self.tau and 0.0 < self.tau < 1.0):
                raise ValueError("quantile split needs tau in (0, 1)")

    @property
    def pivot(self):
        if self.kind == "linear":
            return -np.inf if np.all(self.down_slope == 0) else np.inf
        return self.y

    # -- values

    def up(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return self.up_slope * t
        d = np.maximum(t - self.y, 0.0)
        return 0.5 * d * d if self.kind == "squared" else self.tau * d

    def down(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return self.down_slope * t
        d = np.minimum(t - self.y, 0.0)
        return 0.5 * d * d if self.kind == "squared" else (self.tau - 1.0) * d

    def phi(self, t):
        return self.up(t) + self.down(t)

    # -- one-sided derivatives (scalar t)

    def _up_slopes(self, t: float) -> tuple[float, float]:
        if self.kind == "linear":
            u = float(self.up_slope)
            return u, u
        y = float(self.y)
        if self.kind == "squared":
            d = max(t - y, 0.0)
            return d, d
        left = self.tau if t > y else 0.0
        right = self.tau if t >= y else 0.0
        return left, right

    def _down_slopes(self, t: float) -> tuple[float, float]:
        if self.kind == "linear":
            u = float(self.down_slope)
            return u, u
        y = float(self.y)
        if self.kind == "squared":
            d = min(t - y, 0.0)
            return d, d
        left = self.tau - 1.0 if t <= y else 0.0
        right = self.tau - 1.0 if t < y else 0.0
        return left, right

    def up_dir(self, t: float, v: float) -> float:
        left, right = self._up_slopes(float(t))
        return right * v if v >= 0 else left * v

    def down_dir(self, t: float, v: float) -> float:
        left, right = self._down_slopes(float(t))
        return right * v if v >= 0 else left * v

    def phi_dir(self, t: float, v: float) -> float:
        return self.up_dir(t, v) + self.down_dir(t, v)

    # -- proximal maps with a linear tilt, vectorized over samples
    #
    # prox_up solves   min_r  w*phi_up(r) - tilt*r + (c/2)(r - anchor)^2
    # prox_down solves min_s  w*phi_down(s) + tilt*s + (c/2)(s - anchor)^2

    def prox_up(self, tilt, anchor, c, w=1.0):
        tilt = np.asarray(tilt, dtype=float)
        anchor = np.asarray(anchor, dtype=float)
        if self.kind == "linear":
            return anchor + (tilt - w * self.up_slope) / c
        flat = anchor + tilt / c
        if self.kind == "squared":
            quad = (w * self.y + tilt + c * anchor) / (w + c)
            return np.where(flat <= self.y, flat, quad)
        slope = anchor + (tilt - w * self.tau) / c
        out = np.where(flat <= self.y, flat, np.where(slope >= self.y, slope, self.y))
        return out

    def prox_down(self, tilt, anchor, c, w=1.0):
        tilt = np.asarray(tilt, dtype=float)
        anchor = np.asarray(anchor, dtype=float)
        if self.kind == "linear":
            return anchor - (tilt + w * self.down_slope) / c
        flat = anchor - tilt / c
        if self.kind == "squared":
            quad = (w * self.y - tilt + c * anchor) / (w + c)
            return np.where(flat >= self.y, flat, quad)
        slope = anchor + (w * (1.0 - self.tau) - tilt) / c
        return np.where(flat >= self.y, flat, np.where(slope <= self.y, slope, self.y))

    # -- prox sensitivities w.r.t. the tilt (right-branch rule at kinks),
    #    used to assemble generalized Jacobians.  Both are >= 0.

    def prox_up_sens(self, tilt, anchor, c, w=1.0):
        tilt = np.asarray(tilt, dtype=float)
        anchor = np.asarray(anchor, dtype=float)
        if self.kind == "linear":
            return np.full(np.broadcast(tilt, anchor).shape, 1.0 / c)
        flat = anchor + tilt / c
        if self.kind == "squared":
            return np.where(flat < self.y, 1.0 / c, 1.0 / (w + c))
        slope = anchor + (tilt - w * self.tau) / c
        on_branch = (flat < self.y) | (slope > self.y)
        return np.where(on_branch, 1.0 / c, 0.0)

    def prox_down_sens(self, tilt, anchor, c, w=1.0):
        """-(d prox_down / d tilt), nonnegative."""
        tilt = np.asarray(tilt, dtype=float)
        anchor = np.asarray(anchor, dtype=float)
        if self.kind == "linear":
            return np.full(np.broadcast(tilt, anchor).shape, 1.0 / c)
        flat = anchor - tilt / c
        if self.kind == "squared":
            return np.where(flat > self.y, 1.0 / c, 1.0 / (w + c))
        slope = anchor + (w * (1.0 - self.tau) - tilt) / c
        on_branch = (flat > self.y) | (slope < self.y)
        return np.where(on_branch, 1.0 / c, 0.0)

    def take(self, s: int) -> "MonotoneSplit":
        """Scalar split for sample s out of an array-parameter split."""
        if self.kind == "linear":
            u = np.atleast_1d(self.up_slope)
            d = np.atleast_1d(self.down_slope)
            return MonotoneSplit("linear",
                                 up_slope=float(u[s % u.size]),
                                 down_slope=float(d[s % d.size]))
        y = np.atleast_1d(self.y)
        return MonotoneSplit(self.kind, y=float(y[s % y.size]), tau=self.tau)


def monotone_split(phi: UnivariateConvexLoss) -> MonotoneSplit:
    """Constructive split of a supported loss around its minimizer."""
    return MonotoneSplit(phi.kind, y=phi.y, tau=phi.tau)


def composite_dir(split: MonotoneSplit, psi: DiffMaxFunction, theta, v) -> float:
    """Directional derivative of phi(psi(theta)) via the chain rule."""
    t = psi.value(theta)
    return split.phi_dir(t, psi.dir(theta, v))


def majorant_value(split: MonotoneSplit, psi: DiffMaxFunction,
                   pair: tuple[int, int], theta, theta_bar) -> float:
    """Convex majorant of phi(psi(.)) from linearizing atom pair (i1, i2).

    Indices are 1-based into the atoms of psi.g and psi.h; the pair must be
    an argmax pair at theta_bar for the majorization property to hold.
    """
    i1, i2 = pair
    if not (1 <= i1 <= len(psi.g.atoms) and 1 <= i2 <= len(psi.h.atoms)):
        raise IndexError(f"atom pair {pair} out of range")
    theta = np.asarray(theta, dtype=float)
    theta_bar = np.asarray(theta_bar, dtype=float)
    d = theta - theta_bar
    lin_h = psi.h.value(theta_bar) + float(psi.h.atoms[i2 - 1].grad(theta_bar) @ d)
    lin_g = psi.g.value(theta_bar) + float(psi.g.atoms[i1 - 1].grad(theta_bar) @ d)
    return float(split.up(psi.g.value(theta) - lin_h) + split.down(lin_g - psi.h.value(theta)))


# ---------------------------------------------------------------------------
# dc regularizers


def _scad_smooth_value(t, lam, a):
    """Smooth part p with lam*|t| - p(t) equal to the SCAD penalty."""
    at = np.abs(t)
    mid = (at - lam) ** 2 / (2.0 * (a - 1.0))
    outer = lam * at - 0.5 * (a + 1.0) * lam**2
    return np.where(at <= lam, 0.0, np.where(at <= a * lam, mid, outer))


def _scad_smooth_grad(t, lam, a):
    at = np.abs(t)
    mid = (at - lam) / (a - 1.0)
    mag = np.where(at <= lam, 0.0, np.where(at <= a * lam, mid, lam))
    return np.sign(t) * mag


@dataclass(frozen=True)
class DcRegularizer:
    """P(theta) = sum_i c_i |theta_i| - sum_i p_i(theta_i), scaled by gamma.

    smooth = "none" gives the pure weighted l1; smooth = "scad" uses the
    standard dc decomposition of the SCAD penalty with thresholds c_i and
    shape parameter a.
    """

    weights: np.ndarray
    gamma: float
    smooth: str = "none"
    a: float = 3.7

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if np.any(self.weights < 0) or self.gamma < 0:
            raise ValueError("regularizer weights and gamma must be nonnegative")
        if self.smooth not in ("none", "scad"):
            raise ValueError(f"unsupported smooth part {self.smooth!r}")
        if self.smooth == "scad" and self.a <= 2.0:
            raise ValueError("SCAD shape parameter must exceed 2")

    def p_value(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.smooth == "none":
            return np.zeros_like(theta)
        return _scad_smooth_value(theta, self.weights, self.a)

    def p_grad(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.smooth == "none":
            return np.zeros_like(theta)
        return _scad_smooth_grad(theta, self.weights, self.a)

    def value(self, theta) -> float:
        """gamma * P(theta)."""
        theta = np.asarray(theta, dtype=float)
        return self.gamma * float(self.weights @ np.abs(theta) - self.p_value(theta).sum())

    def majorant_data(self, theta_bar):
        """(l1 weights, linear part, constant) of gamma * P-hat(., theta_bar).

        gamma*P-hat(theta) = sum t_i |theta_i| - lin . theta + const, with
        P-hat the linearization of the concave part at theta_bar.
        """
        theta_bar = np.asarray(theta_bar, dtype=float)
        t = self.gamma * self.weights
        lin = self.gamma * self.p_grad(theta_bar)
        const = float(lin @ theta_bar) - self.gamma * float(self.p_value(theta_bar).sum())
        return t, lin, const

    def majorant_value(self, theta, theta_bar) -> float:
        t, lin, const = self.majorant_data(theta_bar)
        theta = np.asarray(theta, dtype=float)
        return float(t @ np.abs(theta) - lin @ theta + const)


# ---------------------------------------------------------------------------
# stacked composite problem


@dataclass
class CompositeProblem:
    """Stacked data of (1/N) sum_s phi_s(psi_s(theta)) + gamma [P1 - P2](theta)
    with affine atoms.

    U holds the N*k1 g-atom gradients (row-major by sample), e their constant
    offsets; W/f likewise for the k2 h-atoms.  An empty second max is encoded
    as a single all-zero atom so every code path sees k2 >= 1.
    """

    U: np.ndarray
    e: np.ndarray
    W: np.ndarray
    f: np.ndarray
    split: MonotoneSplit
    n_samples: int
    weight: float
    reg: DcRegularizer | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        self.e = np.asarray(self.e, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        if self.U.shape[0] % self.n_samples or self.W.shape[0] % self.n_samples:
            raise ValueError("stacked atom rows must be a multiple of the sample count")

    @property
    def m(self) -> int:
        return self.U.shape[1]

    @property
    def k1(self) -> int:
        return self.U.shape[0] // self.n_samples

    @property
    def k2(self) -> int:
        return self.W.shape[0] // self.n_samples

    def atom_values(self, theta):
        """(g atom values (N,k1), h atom values (N,k2))."""
        theta = np.asarray(theta, dtype=float)
        N = self.n_samples
        gv = (self.U @ theta + self.e).reshape(N, self.k1)
        hv = (self.W @ theta + self.f).reshape(N, self.k2)
        return gv, hv

    def psi(self, theta):
        """(g (N,), h (N,), psi (N,)) per-sample max values."""
        gv, hv = self.atom_values(theta)
        g = gv.max(axis=1)
        h = hv.max(axis=1)
        return g, h, g - h

    def argmax_masks(self, theta, eps: float = TIE_TOL):
        """Boolean (N,k1) and (N,k2) masks of atoms within eps of the max."""
        gv, hv = self.atom_values(theta)
        m1 = gv >= gv.max(axis=1, keepdims=True) - eps
        m2 = hv >= hv.max(axis=1, keepdims=True) - eps
        return m1, m2

    def loss_value(self, theta) -> float:
        _, _, psi = self.psi(theta)
        return self.weight * float(np.sum(self.split.phi(psi)))

    def f_N(self, theta) -> float:
        v = self.loss_value(theta)
        if self.reg is not None:
            v += self.reg.value(theta)
        return v

    def surrogate_value(self, theta, r, s) -> float:
        """sum_s w [phi_up(r_s) + phi_down(s_s)] + gamma P(theta)."""
        v = self.weight * float(np.sum(self.split.up(r) + self.split.down(s)))
        if self.reg is not None:
            v += self.reg.value(theta)
        return v

    def diffmax(self, s: int) -> DiffMaxFunction:
        """Per-sample difference-max function (shared theta), for diagnostics."""
        k1, k2, m = self.k1, self.k2, self.m
        g = MaxFunction(tuple(SmoothConvexAtom(self.U[s * k1 + i], self.e[s * k1 + i])
                              for i in range(k1)))
        h = MaxFunction(tuple(SmoothConvexAtom(self.W[s * k2 + i], self.f[s * k2 + i])
                              for i in range(k2)))
        return DiffMaxFunction(g, h)

    def clip_theta(self, theta):
        if self.lower is None and self.upper is None:
            return theta
        return np.clip(theta, self.lower, self.upper)


def single_summand_problem(g_atoms, h_atoms, split: MonotoneSplit,
                           reg: DcRegularizer | None = None) -> CompositeProblem:
    """N = 1 problem from explicit (gradient, offset) atom lists."""
    U = np.array([np.asarray(w, dtype=float).ravel() for w, _ in g_atoms])
    e = np.array([float(b) for _, b in g_atoms])
    if h_atoms:
        W = np.array([np.asarray(w, dtype=float).ravel() for w, _ in h_atoms])
        f = np.array([float(b) for _, b in h_atoms])
    else:
        W = np.zeros((1, U.shape[1]))
        f = np.zeros(1)
    return CompositeProblem(U=U, e=e, W=W, f=f, split=split,
                            n_samples=1, weight=1.0, reg=reg)
