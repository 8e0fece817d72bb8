"""Continuous piecewise affine regression problems.

Model psi(x) = max_i(a_i.x + alpha_i) - max_j(b_j.x + beta_j), fitted by
least squares (or quantile loss) through the MM solver.  Includes the JSON
form of models, the CSV form of datasets and tables, the minimum-norm OLS
baseline, two synthetic data generators and starting-point samplers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .funcs import CompositeProblem, DcRegularizer, MonotoneSplit


@dataclass(frozen=True)
class PWAModel:
    A: np.ndarray       # (k1, d)
    alpha: np.ndarray   # (k1,)
    B: np.ndarray       # (k2, d); k2 may be 0
    beta: np.ndarray    # (k2,)

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float).ravel())
        B = np.asarray(self.B, dtype=float)
        if B.size == 0:
            B = np.zeros((0, self.A.shape[1]))
        object.__setattr__(self, "B", np.atleast_2d(B))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float).ravel())
        if not all(np.all(np.isfinite(a)) for a in (self.A, self.alpha, self.B, self.beta)):
            raise ValueError("model contains non-finite entries")
        if (self.alpha.size != self.k1 or self.beta.size != self.k2
                or self.B.shape[1] != self.d):
            raise ValueError(f"need alpha of k1 = {self.k1} entries, beta of "
                             f"k2 = {self.k2} and B of d = {self.d} columns")

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def k1(self) -> int:
        return self.A.shape[0]

    @property
    def k2(self) -> int:
        return self.B.shape[0]

    def eval(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        g = (X @ self.A.T + self.alpha).max(axis=1)
        if self.k2 == 0:
            return g
        return g - (X @ self.B.T + self.beta).max(axis=1)

    def flatten(self) -> np.ndarray:
        """theta layout: per atom (weights then intercept), g atoms then h;
        the inverse of `unflatten`."""
        return np.vstack([np.column_stack([self.A, self.alpha]),
                          np.column_stack([self.B, self.beta])]).ravel()

    @classmethod
    def unflatten(cls, theta, k1: int, k2: int, d: int) -> "PWAModel":
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != (k1 + k2) * (d + 1):
            raise ValueError("theta length does not match (k1 + k2)(d + 1)")
        blocks = theta.reshape(k1 + k2, d + 1)
        A, alpha = blocks[:k1, :d], blocks[:k1, d]
        B, beta = blocks[k1:, :d], blocks[k1:, d]
        return cls(A=A, alpha=alpha, B=B, beta=beta)

    def to_json(self) -> dict:
        return {"k1": self.k1, "k2": self.k2, "A": self.A.tolist(),
                "alpha": self.alpha.tolist(), "B": self.B.tolist(),
                "beta": self.beta.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "PWAModel":
        """The inverse of `to_json`; the declared k1 and k2 must fit the arrays.
        A JSON value other than an object, or an array of other than numbers,
        is a ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"a model is a JSON object, not {type(obj).__name__}")
        try:
            model = cls(A=obj["A"], alpha=obj["alpha"], B=obj["B"], beta=obj["beta"])
        except TypeError as exc:    # numpy's error for an array of objects
            raise ValueError(f"model arrays must hold numbers: {exc}") from exc
        if (model.k1, model.k2) != (obj["k1"], obj["k2"]):
            raise ValueError(f"declared k1 = {obj['k1']}, k2 = {obj['k2']}, but the "
                             f"arrays hold k1 = {model.k1}, k2 = {model.k2}")
        return model


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", np.atleast_2d(np.asarray(self.X, dtype=float)))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).ravel())
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset contains non-finite entries")
        if self.X.shape[0] != self.y.size or self.y.size < 1:
            raise ValueError("feature/response shape mismatch")

    @property
    def N(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def save_csv(self, path):
        write_csv(path, [f"x{i + 1}" for i in range(self.d)] + ["y"],
                  ([repr(float(v)) for v in row] + [repr(float(yv))]
                   for row, yv in zip(self.X, self.y)))

    @classmethod
    def load_csv(cls, path) -> "Dataset":
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        if rows:
            try:
                [float(v) for v in rows[0]]
            except ValueError:
                del rows[0]
        if not rows:
            raise ValueError(f"no data rows in dataset file {path}")
        data = np.array([[float(v) for v in row] for row in rows])
        if data.shape[1] < 2:
            raise ValueError("dataset needs at least one feature column and a response")
        return cls(X=data[:, :-1], y=data[:, -1])


def write_csv(path, header, rows):
    """Write a header row, then the rows, with newline line ends."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


@dataclass
class PWAProblem:
    """The model to fit; the CLI takes its defaults from here."""

    dataset: Dataset
    k1: int = 1
    k2: int = 0
    loss: str = "squared"           # squared | quantile
    tau: float | None = None
    gamma: float = 0.0
    reg_smooth: str = "none"        # none | scad

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 0:
            raise ValueError("need k1 >= 1 and k2 >= 0")

    @property
    def m(self) -> int:
        return (self.k1 + self.k2) * (self.dataset.d + 1)

    def model(self, theta) -> PWAModel:
        return PWAModel.unflatten(theta, self.k1, self.k2, self.dataset.d)


def assemble(problem: PWAProblem) -> CompositeProblem:
    """Stacked composite objective data for the MM/Newton solvers.

    Each atom occupies one (d+1)-block of theta: the features are each
    sample's [x, 1], and atom i's lift embeds them in block i.  An empty
    second max (k2 = 0) becomes a single atom with a zero lift, outside theta.
    """
    ds, k1, k2, d = problem.dataset, problem.k1, problem.k2, problem.dataset.d
    N, m = ds.N, problem.m
    X1 = np.hstack([ds.X, np.ones((N, 1))])         # (N, d+1)
    L = np.zeros((k1 + max(k2, 1), d + 1, m))
    for i in range(k1 + k2):
        L[i, :, i * (d + 1):(i + 1) * (d + 1)] = np.eye(d + 1)

    split = MonotoneSplit(problem.loss, y=ds.y, tau=problem.tau)
    # gamma = 0 keeps the problem's zero regularizer, whatever `reg_smooth` says
    reg = (DcRegularizer(weights=np.ones(m), gamma=problem.gamma, smooth=problem.reg_smooth)
           if problem.gamma > 0 else None)
    return CompositeProblem(X=X1, L=L, k1=k1, split=split, reg=reg)


def ols_fit(dataset: Dataset):
    """Least-squares affine fit (weights, intercept): the minimum-norm
    solution, so rank-deficient data get one too."""
    A = np.hstack([dataset.X, np.ones((dataset.N, 1))])
    coef = np.linalg.lstsq(A, dataset.y, rcond=None)[0]
    return coef[:-1], float(coef[-1])


EXAMPLE1_MODEL = PWAModel(A=np.array([[1.0, 1.0], [1.0, -1.0], [-2.0, 1.0], [-2.0, -1.0]]),
                          alpha=np.zeros(4), B=np.zeros((0, 2)), beta=np.zeros(0))

EXAMPLE2_MODEL = PWAModel(A=np.array([[1.0, -2.0], [-2.0, 1.0]]), alpha=np.array([0.0, 1.0]),
                          B=np.array([[3.0, -2.0], [2.0, 5.0]]), beta=np.zeros(2))


def _synth(model: PWAModel, N: int, seed: int):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(N, model.d))
    noise = rng.uniform(-0.5, 0.5, size=N)
    return Dataset(X=X, y=model.eval(X) + noise), model


def synth_example1(N: int, seed: int = 0):
    """Convex truth: y = max{x1+x2, x1-x2, -2x1+x2, -2x1-x2} + U(-.5,.5)."""
    return _synth(EXAMPLE1_MODEL, N, seed)


def synth_example2(N: int, seed: int = 0):
    """Nonconvex truth: max{x1-2x2, -2x1+x2+1} - max{3x1-2x2, 2x1+5x2} + noise."""
    return _synth(EXAMPLE2_MODEL, N, seed)


def init_sampler(problem: PWAProblem, strategy: str, rng: np.random.Generator,
                 scale: float = 1.0) -> np.ndarray:
    """Starting point draw: gaussian noise, or OLS seed in the first g atom."""
    m = problem.m
    if strategy == "gaussian":
        return rng.normal(size=m) * scale
    if strategy == "ols-perturb":
        w, b = ols_fit(problem.dataset)
        theta = rng.normal(size=m) * scale
        d = problem.dataset.d
        theta[:d] += w
        theta[d] += b
        return theta
    raise ValueError(f"unknown init strategy {strategy!r}")
