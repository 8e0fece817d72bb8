"""Problem data shared by the MM loop, the dual Newton solver and the
stationarity certificate.

The loss phi enters through its monotone split (non-decreasing +
non-increasing parts, with proxes and prox sensitivities); the regularizer is
a dc function, weighted l1 minus a smooth part computed with its gradient;
and `CompositeProblem` stacks every sample's affine atoms into the one
composite dc program of pointwise-max type the solvers work on.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

# absolute tie tolerance for exact argmax membership
TIE_TOL = 1e-9


# ---------------------------------------------------------------------------
# monotone loss splits


class MonotoneSplit:
    """Split of a univariate convex loss into phi_up + phi_down.

    phi_up is convex non-decreasing and constant left of y; phi_down is
    convex non-increasing and constant right of it.  Parameters may be
    scalars or arrays (one loss per sample, broadcast against the argument),
    which is how the stacked solvers evaluate all samples at once.

    Kinds: "squared" phi(t) = 0.5 (t - y)^2 and "quantile"
    phi(t) = max(tau (t - y), (tau - 1)(t - y)) with tau in (0, 1).

    phi_down is phi_up of the mirrored loss (y -> -y, tau -> 1 - tau) read
    at -t, so only the up half is written out: the down maps negate the
    argument, the anchor and the prox.  Negation is exact and rounding is
    symmetric (fl(-a - -b) = -fl(a - b), fl(tau - 1) = -fl(1 - tau)), so they
    equal the direct phi_down formulas bit for bit, up to the sign of a zero.
    """

    def __init__(self, kind, *, y=None, tau=None):
        if kind not in ("squared", "quantile"):
            raise ValueError(f"unsupported split kind {kind!r}")
        self.kind = kind
        self.y = np.asarray(y, dtype=float)
        self.tau = None if tau is None else float(tau)
        if kind == "quantile" and not (self.tau and 0.0 < self.tau < 1.0):
            raise ValueError("quantile split needs tau in (0, 1)")
        # copied before it has a mirror, so 1 - tau is not validated again
        self.mirror = copy.copy(self)
        self.mirror.y = -self.y
        self.mirror.tau = None if tau is None else 1.0 - self.tau

    # -- values

    def up(self, t):
        t = np.asarray(t, dtype=float)
        d = np.maximum(t - self.y, 0.0)
        return 0.5 * d * d if self.kind == "squared" else self.tau * d

    def down(self, t):
        return self.mirror.up(-np.asarray(t, dtype=float))

    def phi(self, t):
        return self.up(t) + self.down(t)

    # -- proximal maps with a linear tilt, vectorized over samples
    #
    # prox_up solves   min_r  w*phi_up(r) - tilt*r + (c/2)(r - anchor)^2
    # prox_down solves min_s  w*phi_down(s) + tilt*s + (c/2)(s - anchor)^2

    def prox_up(self, tilt, anchor, c, w=1.0):
        tilt = np.asarray(tilt, dtype=float)
        anchor = np.asarray(anchor, dtype=float)
        flat = anchor + tilt / c
        if self.kind == "squared":
            quad = (w * self.y + tilt + c * anchor) / (w + c)
            return np.where(flat <= self.y, flat, quad)
        slope = anchor + (tilt - w * self.tau) / c
        out = np.where(flat <= self.y, flat, np.where(slope >= self.y, slope, self.y))
        return out

    def prox_down(self, tilt, anchor, c, w=1.0):
        return -self.mirror.prox_up(tilt, -np.asarray(anchor, dtype=float), c, w)

    # -- prox sensitivities w.r.t. the tilt (right-branch rule at kinks),
    #    used to assemble generalized Jacobians.  Both are >= 0.

    def prox_up_sens(self, tilt, anchor, c, w=1.0):
        tilt = np.asarray(tilt, dtype=float)
        anchor = np.asarray(anchor, dtype=float)
        flat = anchor + tilt / c
        if self.kind == "squared":
            return np.where(flat < self.y, 1.0 / c, 1.0 / (w + c))
        slope = anchor + (tilt - w * self.tau) / c
        on_branch = (flat < self.y) | (slope > self.y)
        return np.where(on_branch, 1.0 / c, 0.0)

    def prox_down_sens(self, tilt, anchor, c, w=1.0):
        """-(d prox_down / d tilt), nonnegative."""
        return self.mirror.prox_up_sens(tilt, -np.asarray(anchor, dtype=float), c, w)


# ---------------------------------------------------------------------------
# dc regularizers

SCAD_A = 3.7        # SCAD shape parameter (Fan and Li's choice); must exceed 2


def _scad_smooth(t, lam):
    """Smooth part p, with lam*|t| - p(t) equal to the SCAD penalty, and p'."""
    at = np.abs(t)
    inner, mid = at <= lam, at <= SCAD_A * lam
    p = np.where(inner, 0.0, np.where(mid, (at - lam) ** 2 / (2.0 * (SCAD_A - 1.0)),
                                      lam * at - 0.5 * (SCAD_A + 1.0) * lam**2))
    slope = np.where(inner, 0.0, np.where(mid, (at - lam) / (SCAD_A - 1.0), lam))
    return p, np.sign(t) * slope


@dataclass(frozen=True)
class DcRegularizer:
    """P(theta) = sum_i c_i |theta_i| - sum_i p_i(theta_i), scaled by gamma.

    smooth = "none" gives the pure weighted l1; smooth = "scad" uses the
    standard dc decomposition of the SCAD penalty with thresholds c_i and
    shape parameter SCAD_A.
    """

    weights: np.ndarray
    gamma: float
    smooth: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if np.any(self.weights < 0) or self.gamma < 0:
            raise ValueError("regularizer weights and gamma must be nonnegative")
        if self.smooth not in ("none", "scad"):
            raise ValueError(f"unsupported smooth part {self.smooth!r}")

    def smooth_part(self, theta):
        """(p(theta), grad p(theta)), per coordinate, of the smooth part p
        that P subtracts; one evaluation serves P's value and its majorant."""
        theta = np.asarray(theta, dtype=float)
        if self.smooth == "none":
            return np.zeros_like(theta), np.zeros_like(theta)
        return _scad_smooth(theta, self.weights)

    def value(self, theta) -> float:
        """gamma * P(theta)."""
        theta = np.asarray(theta, dtype=float)
        return self.gamma * float(self.weights @ np.abs(theta)
                                  - self.smooth_part(theta)[0].sum())

    def majorant_data(self, theta_bar):
        """(l1 weights, linear part, constant) of gamma * P-hat(., theta_bar).

        gamma*P-hat(theta) = sum t_i |theta_i| - lin . theta + const, with
        P-hat the linearization of the concave part at theta_bar.
        """
        theta_bar = np.asarray(theta_bar, dtype=float)
        t = self.gamma * self.weights
        p, grad = self.smooth_part(theta_bar)
        lin = self.gamma * grad
        const = float(lin @ theta_bar) - self.gamma * float(p.sum())
        return t, lin, const


# ---------------------------------------------------------------------------
# stacked composite problem


@dataclass
class CompositeProblem:
    """Stacked data of (1/N) sum_s phi_s(psi_s(theta)) + gamma [P1 - P2](theta)
    with affine atoms.

    Atom a's value at sample s is X[s] @ L[a] @ theta: X holds the N
    per-sample feature vectors (N, p), L the lifts (k1 + k2, p, m) of the k1
    g atoms and then the k2 h atoms; an atom's intercept is a coordinate of
    theta, read through a constant feature.  An empty second max is encoded
    as a single atom with a zero lift, so every code path sees k2 >= 1.  The
    loss weight is 1/N, and reg=None is the zero regularizer (gamma = 0).

    U (N*k1, m) and W (N*k2, m) stack the atom gradients row-major by sample;
    `outer` holds each sample's x x^T, flattened to (N, p*p), from which the
    Newton step forms its matrix.  All three are computed once, here.
    """

    X: np.ndarray
    L: np.ndarray
    k1: int
    split: MonotoneSplit
    reg: DcRegularizer | None = None
    U: np.ndarray = field(init=False, repr=False)
    W: np.ndarray = field(init=False, repr=False)
    outer: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.L = np.asarray(self.L, dtype=float)
        N, p = self.X.shape
        if self.L.ndim != 3 or self.L.shape[1] != p or not 1 <= self.k1 < len(self.L):
            raise ValueError("need lifts (k1 + k2, p, m) with k1, k2 >= 1 over "
                             "(N, p) features")
        if self.reg is None:
            self.reg = DcRegularizer(weights=np.ones(self.m), gamma=0.0)
        self.U, self.W = (np.tensordot(self.X, lifts, axes=(1, 1)).reshape(-1, self.m)
                          for lifts in (self.L[:self.k1], self.L[self.k1:]))
        self.outer = (self.X[:, :, None] * self.X[:, None, :]).reshape(N, p * p)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def weight(self) -> float:
        return 1.0 / self.n_samples

    @property
    def m(self) -> int:
        return self.L.shape[2]

    @property
    def k2(self) -> int:
        return len(self.L) - self.k1

    def atom_values(self, theta):
        """(g atom values (N,k1), h atom values (N,k2)), column-major: numpy
        reduces a short contiguous axis slowly, and the per-sample maxima
        reduce over the atoms."""
        theta = np.asarray(theta, dtype=float)
        N = self.n_samples
        return (np.asfortranarray((self.U @ theta).reshape(N, self.k1)),
                np.asfortranarray((self.W @ theta).reshape(N, self.k2)))

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
        return self.loss_value(theta) + self.reg.value(theta)

    def surrogate_value(self, theta, r, s) -> float:
        """sum_s w [phi_up(r_s) + phi_down(s_s)] + gamma P(theta)."""
        return (self.weight * float(np.sum(self.split.up(r) + self.split.down(s)))
                + self.reg.value(theta))
