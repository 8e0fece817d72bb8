"""Batch command-line front end.

    pwafit fit|cv|synth|check --config cfg.json [--out DIR] [--seed S]

Configs are strict JSON (unknown keys rejected); reports are JSON with the
fully-resolved config embedded, tables and traces are CSV.  Exit codes:
0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields

import numpy as np

from . import mm, pwa, stationarity
from .mm import MMConfig


class ConfigError(Exception):
    pass


class SolverError(Exception):
    pass


# ---------------------------------------------------------------------------
# config handling

def _defaults(cls, skip=()) -> dict:
    """{field: default} of the dataclass's fields with one, less `skip`."""
    return {f.name: f.default for f in fields(cls)
            if f.default is not MISSING and f.name not in skip}


# an MMConfig's seed is drawn per start
_MM_FIELDS = _defaults(MMConfig, skip=("seed",))
_MM_KEYS = {**_MM_FIELDS, "compute_residual": True}
_PROBLEM_KEYS = _defaults(pwa.PWAProblem)
_OBJECTIVE_KEYS = _defaults(pwa.PWAProblem, skip=("k1", "k2"))

_SCHEMAS = {
    "fit": {"dataset": None, "synth": None, "starts": 20, "seed": 0,
            "init": None, **_PROBLEM_KEYS, **_MM_KEYS},
    "cv": {"dataset": None, "synth": None, "grid": [[1, 1]], "folds": 5,
           "starts": 5, "seed": 0, "simulations": 1, "init": None,
           **_PROBLEM_KEYS, **_MM_KEYS},
    "synth": {"example": 1, "N": 100, "seed": 0},
    "check": {"model": None, "dataset": None, "pwa1d": None, "points": None,
              "seed": 0, **_OBJECTIVE_KEYS, **{k: _MM_KEYS[k] for k in ("c", "combo_cap")}},
}

_INIT_KEYS = {"strategy": "gaussian", "scale": 1.0}


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _number(lo):
    return lambda v: _finite(v) and v >= lo


def _integer(lo):
    # JSON integers only: 5.0 parses as a float, and config values go uncast
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _numbers(v) -> bool:
    return isinstance(v, list) and all(map(_finite, v))


# key -> (accepts the value, what it must be); checked wherever the key
# occurs, in the nested `init` and `synth` objects too
_DOMAINS = {
    "variant": (lambda v: v in ("full", "one", "random"), "one of full/one/random"),
    "loss": (lambda v: v in ("squared", "quantile"), "squared or quantile"),
    "tau": (lambda v: v is None or (_finite(v) and 0 < v < 1), "null or in (0, 1)"),
    "reg_smooth": (lambda v: v in ("none", "scad"), "none or scad"),
    "strategy": (lambda v: v in ("gaussian", "ols-perturb"), "gaussian or ols-perturb"),
    "eps": (_number(0), "a number >= 0"),
    "tol_rel": (_number(0), "a number >= 0"),
    "scale": (_number(0), "a number >= 0"),
    "gamma": (lambda v: v == "cv" or _number(0)(v), 'a number >= 0, or "cv" in fit'),
    "c": (lambda v: v is None or (_finite(v) and v > 0), "null or a number > 0"),
    "compute_residual": (lambda v: isinstance(v, bool), "true or false"),
    "combo_cap": (_integer(1), "an integer >= 1"),
    "k1": (_integer(1), "an integer >= 1"),
    "k2": (_integer(0), "an integer >= 0"),
    "grid": (lambda v: isinstance(v, list) and len(v) > 0 and all(
        isinstance(cell, list) and len(cell) == 2 and _integer(1)(cell[0])
        and _integer(0)(cell[1]) for cell in v)
        and len({tuple(cell) for cell in v}) == len(v),
        "a non-empty list of distinct [k1, k2] cells"),
    "example": (lambda v: _integer(1)(v) and v <= 2, "1 or 2"),
    "N": (_integer(1), "an integer >= 1"),
    "starts": (_integer(1), "an integer >= 1"),
    "max_outer": (_integer(1), "an integer >= 1"),
    "sn_max_iter": (_integer(1), "an integer >= 1"),
    "simulations": (_integer(1), "an integer >= 1"),
    "folds": (_integer(2), "an integer >= 2"),
    "seed": (_integer(0), "an integer >= 0"),
    "pwa1d": (lambda v: v is None or (
        isinstance(v, dict) and set(v) <= {"breakpoints", "pieces"}
        and _numbers(v.get("breakpoints", [])) and isinstance(v.get("pieces"), list)
        and all(_numbers(p) and len(p) == 2 for p in v["pieces"])),
        'null or {"breakpoints": [x, ...], "pieces": [[slope, intercept], ...]}'),
    "points": (lambda v: v is None or _numbers(v), "null or a list of numbers"),
    "dataset": (lambda v: v is None or isinstance(v, str), "null or a string"),
    "model": (lambda v: v is None or isinstance(v, str), "null or a string"),
}


def _validate(raw: dict, schema: dict, where: str) -> dict:
    """raw with the schema's defaults filled; a key outside the schema or a
    value outside its `_DOMAINS` entry is a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    out = dict(schema)
    out.update(raw)
    for key, (ok, what) in _DOMAINS.items():
        if key in out and not ok(out[key]):
            raise ConfigError(f"{where}: {key} must be {what}, got {out[key]!r}")
    return out


def load_config(path: str, command: str, seed_override=None) -> dict:
    """The command's config with defaults filled and value domains checked,
    the nested `init` and `synth` objects included."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _validate(raw, _SCHEMAS[command], command)
    if seed_override is not None:
        cfg = _validate({**cfg, "seed": seed_override}, _SCHEMAS[command], "--seed")
    if cfg.get("loss") == "quantile" and cfg["tau"] is None:
        raise ConfigError("quantile loss needs a tau")
    if cfg.get("gamma") == "cv" and command != "fit":
        raise ConfigError(f'gamma "cv" is for fit only, not {command}')
    cfg["init"] = _validate({} if cfg.get("init") is None else cfg["init"],
                            _INIT_KEYS, "init")
    if cfg.get("synth") is not None:
        cfg["synth"] = _validate(cfg["synth"], _SCHEMAS["synth"], "synth")
    return cfg


def _load_dataset(cfg: dict) -> pwa.Dataset:
    if cfg.get("dataset"):
        try:
            return pwa.Dataset.load_csv(cfg["dataset"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"dataset: {exc}") from exc
    if cfg.get("synth"):
        return _synth(cfg["synth"])[0]
    raise ConfigError("config needs either 'dataset' or 'synth'")


def _synth(s: dict):
    """(dataset, true model) of a `synth` config."""
    gen = pwa.synth_example1 if s["example"] == 1 else pwa.synth_example2
    return gen(s["N"], s["seed"])


def _problem(cfg: dict, dataset: pwa.Dataset) -> pwa.PWAProblem:
    return pwa.PWAProblem(dataset, **{k: cfg[k] for k in _PROBLEM_KEYS})


# ---------------------------------------------------------------------------
# multi-start driver

def _one_start(problem, comp, cfg, start: int):
    rng = np.random.default_rng([cfg["seed"], start])
    theta0 = pwa.init_sampler(problem, cfg["init"]["strategy"], rng,
                              cfg["init"]["scale"])
    mc = MMConfig(**{k: cfg[k] for k in _MM_FIELDS}, seed=int(
        np.random.default_rng([cfg["seed"], start, 1]).integers(2 ** 31)))
    report = mm.run(comp, mc, theta0)
    cert = stationarity.certify(comp, report.theta, mc) if cfg["compute_residual"] else None
    return report, cert


def multi_start(problem, comp, cfg, starts: int):
    """Returns list of (start, report, certificate, error-string); a failed
    start has only its error, one without `compute_residual` no certificate."""
    results = []
    for i in range(starts):
        try:
            results.append((i, *_one_start(problem, comp, cfg, i), None))
        except (ValueError, np.linalg.LinAlgError) as exc:  # a solver failure
            results.append((i, None, None, f"{type(exc).__name__}: {exc}"))
    return results


def _best(results):
    """(start, report, certificate) of the start with the least objective."""
    ok = [t[:3] for t in results if t[1] is not None]
    if not ok:
        raise SolverError("all starts failed")
    return min(ok, key=lambda t: t[1].f_N)


def _heldout_sse(cfg: dict, dataset: pwa.Dataset, test, starts: int) -> float:
    """Squared error on the `test` rows of the best of `starts` fits to the
    others.  Nothing reports a held-out fit's certificate, so it is skipped."""
    cfg = {**cfg, "compute_residual": False}
    train = pwa.Dataset(dataset.X[~test], dataset.y[~test])
    prob = _problem(cfg, train)
    comp = pwa.assemble(prob)
    _, rep, _ = _best(multi_start(prob, comp, cfg, starts))
    model = prob.model(rep.theta)
    return float(np.sum((dataset.y[test] - model.eval(dataset.X[test])) ** 2))


# ---------------------------------------------------------------------------
# gamma selection

def select_gamma(cfg: dict, dataset: pwa.Dataset, folds: int = 5) -> float:
    """Log-grid cross-validated regularization weight."""
    X1 = np.hstack([dataset.X, np.ones((dataset.N, 1))])
    gmax = float(np.abs(X1.T @ dataset.y).max()) / dataset.N
    grid = gmax * np.logspace(0, -4, 10)
    idx = _fold_indices(dataset.N, folds, cfg["seed"])
    starts = max(1, cfg["starts"] // 2)
    best_g, best_err = grid[0], np.inf
    for g in grid:
        err = 0.0
        for f in range(folds):
            err += _heldout_sse({**cfg, "gamma": g}, dataset, idx == f, starts)
        if err < best_err:
            best_g, best_err = g, err
    return float(best_g)


def _fold_indices(N: int, folds: int, seed: int) -> np.ndarray:
    if N < folds:   # a fold would have no test rows
        raise ConfigError(f"{folds} folds need at least {folds} data rows, got {N}")
    order = np.random.default_rng([seed, 999]).permutation(N)
    idx = np.empty(N, dtype=int)
    for f in range(folds):
        idx[order[f::folds]] = f
    return idx


# ---------------------------------------------------------------------------
# commands

def cmd_fit(cfg: dict, out: str) -> int:
    dataset = _load_dataset(cfg)
    if cfg["gamma"] == "cv":
        cfg = {**cfg, "gamma": select_gamma(cfg, dataset)}
    problem = _problem(cfg, dataset)
    comp = pwa.assemble(problem)
    results = multi_start(problem, comp, cfg, cfg["starts"])
    best_i, best, best_cert = _best(results)

    os.makedirs(out, exist_ok=True)
    model = problem.model(best.theta)
    with open(os.path.join(out, "best_model.json"), "w") as fh:
        json.dump(model.to_json(), fh, indent=1)

    rows = []
    for i, rep, cert, err in results:
        if rep is None:
            rows.append([i, "", "", "", "failed", "", err])
        else:
            rows.append([i, repr(rep.f_N), rep.iterations, rep.sn_total,
                         rep.reason, "" if cert is None else repr(cert.residual), ""])
    pwa.write_csv(os.path.join(out, "starts.csv"),
                  ["start", "f_N", "mm_iterations", "sn_total", "reason",
                   "residual", "error"], rows)

    pwa.write_csv(os.path.join(out, "trace.csv"),
                  ["iteration", "f_N", "surrogate", "step_norm", "accepted",
                   "extrapolated", "sn_gap", "sn_iterations", "sn_converged"],
                  [[r.iteration, repr(r.f_N), repr(r.surrogate), repr(r.step_norm),
                    int(r.accepted), int(r.extrapolated), repr(r.sn_gap),
                    r.sn_iterations, int(r.sn_converged)]
                   for r in best.trace])

    values = sorted(round(r.f_N, 6) for _, r, _, _ in results if r is not None)
    pwa.write_csv(os.path.join(out, "histogram.csv"), ["objective", "count"],
                  [[repr(v), values.count(v)] for v in dict.fromkeys(values)])

    cert = (dict.fromkeys(stationarity.Certificate._fields) if best_cert is None
            else best_cert._asdict())
    report = {
        "command": "fit",
        "config": cfg,
        "N": dataset.N, "d": dataset.d,
        "best_start": best_i,
        "best_objective": best.f_N,
        "best_objective_no_half": 2.0 * best.f_N if problem.loss == "squared"
        else best.f_N,
        "iterations": best.iterations,
        "sn_total": best.sn_total,
        "inner_failures": sum(not r.sn_converged for r in best.trace),
        "residual": cert["residual"],
        "residual_kind": cert["kind"],
        "residual_coverage": cert["coverage"],
        "residual_unconverged": cert["unconverged"],
        "residual_bound": cert["bound"],
        "reason": best.reason,
        "failed_starts": [i for i, r, _, _ in results if r is None],
        "wall_time": best.wall_time,
    }
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


def cmd_cv(cfg: dict, out: str) -> int:
    dataset = _load_dataset(cfg)
    folds, sims, grid = cfg["folds"], cfg["simulations"], cfg["grid"]

    cells = {}
    for (k1, k2) in grid:
        ratios = []
        detail = []
        for sim in range(sims):
            idx = _fold_indices(dataset.N, folds, cfg["seed"] + sim)
            e_pa = e_ls = 0.0
            try:
                for f in range(folds):
                    tr, te = idx != f, idx == f
                    e_pa += _heldout_sse({**cfg, "k1": k1, "k2": k2}, dataset, te,
                                         cfg["starts"])
                    w, b = pwa.ols_fit(pwa.Dataset(dataset.X[tr], dataset.y[tr]))
                    pred = dataset.X[te] @ w + b
                    e_ls += float(np.sum((dataset.y[te] - pred) ** 2))
                ratios.append(e_pa / e_ls)
                detail.append({"simulation": sim, "E_PA": e_pa, "E_LS": e_ls})
            except SolverError as exc:
                detail.append({"simulation": sim, "failed": str(exc)})
        cells[f"{k1},{k2}"] = {
            "k1": k1, "k2": k2,
            "ratio": float(np.mean(ratios)) if ratios else None,
            "failed": None if ratios else "all simulations failed",
            "folds": folds, "detail": detail,
        }

    os.makedirs(out, exist_ok=True)
    k1s = sorted({a for a, _ in grid})
    k2s = sorted({b for _, b in grid})
    rows = []
    for a in k1s:
        row = [a]
        for b in k2s:
            cell = cells.get(f"{a},{b}")
            row.append("" if cell is None or cell["ratio"] is None
                       else repr(cell["ratio"]))
        rows.append(row)
    pwa.write_csv(os.path.join(out, "ratio_grid.csv"),
                  ["k1\\k2"] + [str(b) for b in k2s], rows)
    with open(os.path.join(out, "cv_report.json"), "w") as fh:
        json.dump({"command": "cv", "config": cfg,
                   "cells": cells}, fh, indent=1)
    return 0


def cmd_synth(cfg: dict, out: str) -> int:
    dataset, model = _synth(cfg)
    os.makedirs(out, exist_ok=True)
    dataset.save_csv(os.path.join(out, "dataset.csv"))
    with open(os.path.join(out, "true_model.json"), "w") as fh:
        json.dump(model.to_json(), fh, indent=1)
    return 0


def cmd_check(cfg: dict, out: str) -> int:
    os.makedirs(out, exist_ok=True)
    report = {"command": "check", "config": cfg}
    if cfg["pwa1d"] is not None and (cfg["model"] is not None
                                     or cfg["dataset"] is not None):
        raise ConfigError("check takes either 'pwa1d' or 'model' + 'dataset', not both")
    if cfg["pwa1d"] is not None:
        pw = cfg["pwa1d"]
        try:
            f = stationarity.PiecewiseAffine1D(
                tuple(float(v) for v in pw.get("breakpoints", [])),
                tuple((float(a), float(b)) for a, b in pw["pieces"]))
        except ValueError as exc:
            raise ConfigError(f"pwa1d: {exc}") from exc
        pts = []
        for x in ([0.0] if cfg["points"] is None else cfg["points"]):
            rep = stationarity.subdifferentials(f, float(x))
            flags = stationarity.classify_point(rep)
            pts.append({"x": float(x),
                        "C_stationary": flags.c_stationary,
                        "l_stationary": flags.l_stationary,
                        "d_stationary": flags.d_stationary,
                        "local_min": flags.local_min,
                        "b_sub": list(rep.b_sub),
                        "clarke_sub": list(rep.clarke_sub)})
        report["points"] = pts
    elif cfg["points"] is not None:
        raise ConfigError("'points' needs a 'pwa1d'")
    elif cfg.get("model") and cfg.get("dataset"):
        try:
            with open(cfg["model"]) as fh:
                model = pwa.PWAModel.from_json(json.load(fh))
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"model: {exc}") from exc
        dataset = _load_dataset(cfg)
        if model.d != dataset.d:
            raise ConfigError(f"model has {model.d} features, dataset {dataset.d}")
        cfg2 = {**cfg, "k1": model.k1, "k2": model.k2}
        problem = _problem(cfg2, dataset)
        comp = pwa.assemble(problem)
        theta = model.flatten()
        cert = stationarity.certify(
            comp, theta, MMConfig(c=cfg["c"], combo_cap=cfg["combo_cap"]))
        report.update({"dstat_residual": cert.residual, "coverage": cert.coverage,
                       "unconverged": cert.unconverged,
                       "residual_bound": cert.bound,
                       "objective": comp.f_N(theta)})
    else:
        raise ConfigError("check needs either 'pwa1d' or 'model' + 'dataset'")
    with open(os.path.join(out, "check.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


_COMMANDS = {"fit": cmd_fit, "cv": cmd_cv, "synth": cmd_synth,
             "check": cmd_check}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pwafit")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=".")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, args.seed)
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
