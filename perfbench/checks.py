"""Output checks, computed apart from the program.

Each check reads what one CLI call wrote and tests it against a computation
made here with plain numpy from the benchmark's own data, or against a
property the method must have.  A check returns a list of problems; an empty
list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from workloads import surface

REL_TOL = 1e-9          # recomputed vs reported values
MONO_TOL = 1e-10        # surrogate rise / majorization slack, relative
TIE_TOL = 1e-9          # the program's exact-argmax tolerance (funcs.TIE_TOL)
COMBO_CAP = 64          # the program's default `combo_cap`
GRID = 101              # points per axis of the rmse_truth grid


@dataclass
class Result:
    problems: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def model_blocks(model: dict):
    """(G, H) rows [a, alpha] of a best_model.json / model.json object."""
    G = np.column_stack([np.array(model["A"], dtype=float).reshape(model["k1"], -1),
                         np.array(model["alpha"], dtype=float)])
    if model["k2"]:
        H = np.column_stack([np.array(model["B"], dtype=float).reshape(model["k2"], -1),
                             np.array(model["beta"], dtype=float)])
    else:
        H = np.zeros((0, G.shape[1]))
    return G, H


def half_mse(G, H, X, y) -> float:
    return float(np.mean(0.5 * (surface(G, H, X) - y) ** 2))


def rmse_truth(G, H, G0, H0) -> float:
    t = np.linspace(-1.0, 1.0, GRID)
    P = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    return float(np.sqrt(np.mean((surface(G, H, P) - surface(G0, H0, P)) ** 2)))


def _close(a, b, tol=REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# individual checks


def check_objective(reported, model, X, y, where):
    G, H = model_blocks(model)
    f = half_mse(G, H, X, y)
    if not _close(f, reported):
        return [f"{where}: reported objective {reported!r} but the model's "
                f"objective on the data is {f!r}"]
    return []


def check_surrogate(rows, where):
    """Majorization (f_N <= surrogate) and MM descent over accepted steps."""
    problems = []
    prev = None
    for r in rows:
        f, s = float(r["f_N"]), float(r["surrogate"])
        if f - s > MONO_TOL * max(1.0, abs(s)):
            problems.append(f"{where}: iteration {r['iteration']}: f_N {f!r} "
                            f"above the surrogate {s!r}")
        if prev is not None and int(r["accepted"]) \
                and s - prev > MONO_TOL * max(1.0, abs(prev)):
            problems.append(f"{where}: iteration {r['iteration']}: surrogate "
                            f"rose from {prev!r} to {s!r}")
        prev = s
    return problems


def check_starts(rows, report, where):
    problems = []
    if report.get("failed_starts"):
        problems.append(f"{where}: failed starts {report['failed_starts']}")
    for r in rows:
        if r["reason"] not in ("tolerance", "max_outer"):
            problems.append(f"{where}: start {r['start']} stopped on "
                            f"{r['reason']!r} {r['error']}")
    return problems


def check_residual(value, where):
    if value is None or not (math.isfinite(value) and value >= 0.0):
        return [f"{where}: stationarity residual {value!r} is not finite and >= 0"]
    return []


def check_certificate(residual, displacements, where):
    """A certificate's residual is the largest displacement of its SN solves.

    The displacements are max|theta - theta_bar| of each solve, computed by
    the benchmark from the solves' results and the certified theta_bar.
    """
    expected = max(displacements, default=0.0)
    if not displacements or not _close(residual, expected):
        return [f"{where}: residual {residual!r} but the largest displacement "
                f"of its {len(displacements)} SN solves is {expected!r}"]
    return []


def check_reported_residual(reported, certified, where):
    """The residual an operation wrote is one its traced certificates returned."""
    if not any(_close(reported, r) for r in certified):
        return [f"{where}: reported residual {reported!r} is none of the traced "
                f"certificates' {certified!r}"]
    return []


def expected_log_coverage(G, H, X, cap=COMBO_CAP) -> float:
    """log min(1, cap / prod_s ties_g(s) * ties_h(s)) at the exact argmax."""
    X1 = np.hstack([X, np.ones((X.shape[0], 1))])
    log_total = 0.0
    for A in (G, H):
        if len(A):
            v = X1 @ A.T
            ties = (v >= v.max(axis=1, keepdims=True) - TIE_TOL).sum(axis=1)
            log_total += float(np.log(ties).sum())
    return min(0.0, math.log(cap) - log_total)


def check_coverage(reported, log_expected, where):
    if reported is None or not math.isfinite(reported) or reported <= 0.0:
        ok = False
    else:
        ok = abs(math.log(reported) - log_expected) <= REL_TOL * max(1.0, abs(log_expected))
    if not ok:
        return [f"{where}: coverage {reported!r} but the tie counts give "
                f"exp({log_expected!r})"]
    return []


def check_cv_cells(cells, where):
    problems = []
    for key, cell in cells.items():
        if cell.get("failed") or cell.get("ratio") is None:
            problems.append(f"{where}: cell {key} failed: {cell.get('failed')}")
    affine = cells.get("1,1", {}).get("ratio")
    if affine is not None and abs(affine - 1.0) > 1e-3:
        problems.append(f"{where}: the affine cell (1,1) ratio {affine!r} is "
                        f"not within 1e-3 of least squares")
    pwa = cells.get("2,2", {}).get("ratio")
    if pwa is not None and not pwa < 0.9:
        problems.append(f"{where}: the (2,2) ratio {pwa!r} is not below 0.9")
    return problems


# ---------------------------------------------------------------------------
# per-operation entry point


def check_op(wl, op) -> Result:
    """Check one operation's outputs; the summary carries its `error` figure."""
    try:
        return _CHECKS[op.command](wl, op)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return Result([f"{op.out}: unreadable output: {type(exc).__name__}: {exc}"])


def _check_fit(wl, op) -> Result:
    out = op.out
    report = _read_json(os.path.join(out, "report.json"))
    model = _read_json(os.path.join(out, "best_model.json"))
    res = Result()
    res.problems += check_objective(report["best_objective"], model,
                                    op.data.X, op.data.y, out)
    res.problems += check_surrogate(_read_csv(os.path.join(out, "trace.csv")), out)
    res.problems += check_starts(_read_csv(os.path.join(out, "starts.csv")),
                                 report, out)
    res.problems += check_residual(report["residual"], out)
    G, H = model_blocks(model)
    res.summary = {"error": float(report["best_objective"]),
                   "rmse_truth": rmse_truth(G, H, wl.G, wl.H),
                   "residual": report["residual"],
                   "iterations": report["iterations"]}
    return res


def _check_cv(wl, op) -> Result:
    cells = _read_json(os.path.join(op.out, "cv_report.json"))["cells"]
    res = Result(check_cv_cells(cells, op.out))
    res.summary = {"error": float(cells["2,2"]["ratio"]),
                   "affine_ratio": float(cells["1,1"]["ratio"])}
    return res


def _check_check(wl, op) -> Result:
    rep = _read_json(os.path.join(op.out, "check.json"))
    model = _read_json(op.config["model"])
    G, H = model_blocks(model)
    log_cov = expected_log_coverage(G, H, op.data.X,
                                    op.config.get("combo_cap", COMBO_CAP))
    res = Result()
    res.problems += check_objective(rep["objective"], model, op.data.X,
                                    op.data.y, op.out)
    res.problems += check_coverage(rep["coverage"], log_cov, op.out)
    res.problems += check_residual(rep["dstat_residual"], op.out)
    res.summary = {"error": float(rep["dstat_residual"]),
                   "residual": rep["dstat_residual"],
                   "log10_coverage": log_cov / math.log(10.0)}
    return res


_CHECKS = {"fit": _check_fit, "cv": _check_cv, "check": _check_check}


def check_selection(X, theta, k1, sel1, sel2, eps, where):
    """Every sample's (sel1, sel2) is an eps-argmax pair of the model theta.

    theta holds one (d+1)-block per atom, g atoms first; X are the samples'
    own features.  A model with no h atoms has the single zero atom 0.
    """
    X1 = np.hstack([X, np.ones((X.shape[0], 1))])
    blocks = np.asarray(theta, dtype=float).reshape(-1, X1.shape[1])
    problems = []
    for part, A, sel in (("g", blocks[:k1], sel1), ("h", blocks[k1:], sel2)):
        sel = np.asarray(sel)
        if len(A) == 0:
            bad = np.flatnonzero(sel != 0)
        else:
            v = X1 @ A.T
            top = v.max(axis=1)
            chosen = v[np.arange(len(v)), sel]
            bad = np.flatnonzero(chosen < top - eps - 1e-12 * (1.0 + np.abs(top)))
        if bad.size:
            problems.append(f"{where}: {bad.size} samples select a non-argmax "
                            f"{part} atom, first sample {bad[0]}")
    return problems
