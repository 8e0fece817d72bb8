"""Benchmark inputs: the paper's example surfaces plus uniform noise.

Every input is generated here from the workload seed with plain numpy and
written as the CSV / JSON files that `pwafit` reads; the program never sees
the seed.  The program's own multistart seed is fixed per workload, so only
the data changes between benchmark seeds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Example 2 of the paper: psi(x) = max(g) - max(h), k1 = k2 = 2.
EX2_G = np.array([[1.0, -2.0, 0.0], [-2.0, 1.0, 1.0]])     # rows (a1, a2, alpha)
EX2_H = np.array([[3.0, -2.0, 0.0], [2.0, 5.0, 0.0]])
# Example 1: a convex max of four planes, k1 = 4, k2 = 0.
EX1_G = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0],
                  [-2.0, 1.0, 0.0], [-2.0, -1.0, 0.0]])
EX1_H = np.zeros((0, 3))

LATTICE_LEVELS = 9          # feature values -1, -0.75, ..., 1
LATTICE_DATASETS = 48       # lattice-check datasets (operations) per round
LATTICE_COMBO_CAP = 16      # selections each lattice-check certificate solves


def surface(G, H, X):
    """max_i(G_i . [x, 1]) - max_j(H_j . [x, 1]); an empty H contributes 0."""
    X1 = np.hstack([X, np.ones((X.shape[0], 1))])
    v = (X1 @ G.T).max(axis=1)
    if len(H):
        v = v - (X1 @ H.T).max(axis=1)
    return v


def model_json(G, H) -> dict:
    return {"k1": len(G), "k2": len(H), "A": G[:, :-1].tolist(),
            "alpha": G[:, -1].tolist(), "B": H[:, :-1].tolist(),
            "beta": H[:, -1].tolist()}


def uniform_data(G, H, N, rng):
    X = rng.uniform(-1.0, 1.0, size=(N, 2))
    return X, surface(G, H, X) + rng.uniform(-0.5, 0.5, size=N)


def lattice_data(G, H, N, rng):
    X = rng.integers(0, LATTICE_LEVELS, size=(N, 2)) * (2.0 / (LATTICE_LEVELS - 1)) - 1.0
    return X, surface(G, H, X) + rng.uniform(-0.5, 0.5, size=N)


def write_csv(path, X, y):
    # %.17g round-trips every float64, so the program parses exactly X and y
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g",
               header="x1,x2,y", comments="")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    csv: str


@dataclass
class Operation:
    """One CLI call: argv for `pwafit.cli.main` and the data it reads."""

    command: str
    config: dict
    config_path: str
    out: str
    data: Dataset

    @property
    def argv(self):
        return [self.command, "--config", self.config_path, "--out", self.out]


@dataclass
class Workload:
    name: str
    G: np.ndarray               # generating surface
    H: np.ndarray
    ops: list[Operation]


def _fit_config(csv, **solver):
    return {"dataset": csv, "k1": 2, "k2": 2, "starts": 1, "seed": 0, **solver}


def prepare(name: str, seed: int, workdir: str) -> Workload:
    """Generate the workload's inputs under workdir; returns one round of ops."""
    os.makedirs(workdir, exist_ok=True)

    def data(k, G, H, N, gen):
        X, y = gen(G, H, N, np.random.default_rng([seed, k]))
        path = os.path.join(workdir, f"data{k}.csv")
        write_csv(path, X, y)
        return Dataset(X, y, path)

    def op(k, command, config, ds):
        cfg_path = os.path.join(workdir, f"config{k}.json")
        write_json(cfg_path, config)
        return Operation(command, config, cfg_path,
                         os.path.join(workdir, f"out{k}"), ds)

    if name == "ex2-fit-default":
        # CLI defaults: random variant, data-scaled c, 500-step cap, dstat.
        # Two datasets per round, so `error` is the mean of two objectives.
        ops = []
        for k in range(2):
            ds = data(k, EX2_G, EX2_H, 1000, uniform_data)
            ops.append(op(k, "fit", _fit_config(ds.csv), ds))
        return Workload(name, EX2_G, EX2_H, ops)
    if name == "ex2-one-40k":
        ds = data(0, EX2_G, EX2_H, 40000, uniform_data)
        cfg = _fit_config(ds.csv, variant="one", max_outer=20)
        return Workload(name, EX2_G, EX2_H, [op(0, "fit", cfg, ds)])
    if name == "ex2-cv":
        ds = data(0, EX2_G, EX2_H, 400, uniform_data)
        cfg = {"dataset": ds.csv, "grid": [[1, 1], [2, 2]], "folds": 5,
               "starts": 2, "seed": 0, "variant": "full", "c": 0.003,
               "tol_rel": 1e-5}
        return Workload(name, EX2_G, EX2_H, [op(0, "cv", cfg, ds)])
    if name == "lattice-check":
        model_path = os.path.join(workdir, "model.json")
        write_json(model_path, model_json(EX1_G, EX1_H))
        ops = []
        # many datasets per round: the residual (the `error` figure) and the
        # certificate's time vary from one dataset to the next, and the
        # median over a round evens them out
        for k in range(LATTICE_DATASETS):
            ds = data(k, EX1_G, EX1_H, 1000, lattice_data)
            ops.append(op(k, "check", {"model": model_path, "dataset": ds.csv,
                                       "seed": 0, "combo_cap": LATTICE_COMBO_CAP},
                          ds))
        return Workload(name, EX1_G, EX1_H, ops)
    raise ValueError(f"unknown workload {name!r}")


# BENCHMARK.json gates the first two; the other two run on request (README).
NAMES = ("ex2-fit-default", "lattice-check", "ex2-one-40k", "ex2-cv")
