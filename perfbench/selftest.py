"""Self-tests of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check must pass on a real, small `pwafit` output and must reject the
same output once it is corrupted, so that no check passes vacuously.
Outputs go to perfbench/out/selftest.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from pwafit import cli, mm, stationarity  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(HERE, "out", "selftest")


def _small(name, command, config, G, H, N, gen, seed=3):
    """One real operation on a small generated dataset."""
    workdir = os.path.join(OUT, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    X, y = gen(G, H, N, np.random.default_rng(seed))
    csv_path = os.path.join(workdir, "data.csv")
    workloads.write_csv(csv_path, X, y)
    config = {"dataset": csv_path, **config}
    if command == "check":
        config["model"] = os.path.join(workdir, "model.json")
        workloads.write_json(config["model"], workloads.model_json(G, H))
    cfg_path = os.path.join(workdir, "config.json")
    workloads.write_json(cfg_path, config)
    op = workloads.Operation(command, config, cfg_path,
                             os.path.join(workdir, "out"),
                             workloads.Dataset(X, y, csv_path))
    return workloads.Workload(name, G, H, [op]), op


def _fit():
    return _small("fit", "fit", {"k1": 2, "k2": 2, "starts": 2, "seed": 0,
                                 "max_outer": 40},
                  workloads.EX2_G, workloads.EX2_H, 80, workloads.uniform_data)


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_fit_output_passes_and_perturbed_model_fails():
    wl, op = _fit()
    assert cli.main(op.argv) == 0
    assert checks.check_op(wl, op).problems == []
    report = _read(os.path.join(op.out, "report.json"))
    model = _read(os.path.join(op.out, "best_model.json"))
    bad = copy.deepcopy(model)
    bad["alpha"][0] += 1e-6
    assert checks.check_objective(report["best_objective"], bad,
                                  op.data.X, op.data.y, "perturbed")
    workloads.write_json(os.path.join(op.out, "best_model.json"), bad)
    assert checks.check_op(wl, op).problems


def test_surrogate_rise_and_majorization_fail():
    wl, op = _fit()
    assert cli.main(op.argv) == 0
    rows = checks._read_csv(os.path.join(op.out, "trace.csv"))
    assert checks.check_surrogate(rows, "trace") == []
    rising = copy.deepcopy(rows)
    i = next(k for k in range(1, len(rows)) if int(rows[k]["accepted"]))
    rising[i]["surrogate"] = repr(float(rows[i - 1]["surrogate"]) + 1e-6)
    rising[i]["f_N"] = repr(min(float(rows[i]["f_N"]), float(rows[i - 1]["surrogate"])))
    assert any("rose" in p for p in checks.check_surrogate(rising, "trace"))
    above = copy.deepcopy(rows)
    above[-1]["f_N"] = repr(float(rows[-1]["surrogate"]) + 1e-6)
    assert any("above" in p for p in checks.check_surrogate(above, "trace"))


def test_failed_start_fails():
    wl, op = _fit()
    assert cli.main(op.argv) == 0
    rows = checks._read_csv(os.path.join(op.out, "starts.csv"))
    report = _read(os.path.join(op.out, "report.json"))
    assert checks.check_starts(rows, report, "starts") == []
    rows[0]["reason"] = "failed"
    assert checks.check_starts(rows, report, "starts")
    assert checks.check_starts([], {**report, "failed_starts": [1]}, "starts")


def test_wrong_coverage_and_bad_residual_fail():
    wl, op = _small("check", "check", {"seed": 0}, workloads.EX1_G,
                    workloads.EX1_H, 300, workloads.lattice_data)
    assert cli.main(op.argv) == 0
    assert checks.check_op(wl, op).problems == []
    rep = _read(os.path.join(op.out, "check.json"))
    log_cov = checks.expected_log_coverage(workloads.EX1_G, workloads.EX1_H, op.data.X)
    assert log_cov < 0.0, "the lattice must leave part of the selections unexplored"
    for wrong in (rep["coverage"] * 2.0, rep["coverage"] * (1 + 1e-6), 0.0, 1.0):
        assert checks.check_coverage(wrong, log_cov, "check")
    for bad in (float("nan"), float("inf"), -1e-3, None):
        assert checks.check_residual(bad, "check")
    rep["coverage"] *= 2.0
    workloads.write_json(os.path.join(op.out, "check.json"), rep)
    assert checks.check_op(wl, op).problems


def test_wrong_certificate_residual_fails():
    wl, op = _small("check", "check", {"seed": 0}, workloads.EX1_G,
                    workloads.EX1_H, 300, workloads.lattice_data)

    def traced():
        t = tracer.Tracer()
        t.begin_op(op)
        with t.active():
            assert cli.main(op.argv) == 0
        t.end_op()
        return t

    t = traced()
    assert t.problems == [] and len(t.op_residuals) == 1
    reported = _read(os.path.join(op.out, "check.json"))["dstat_residual"]
    assert checks.check_reported_residual(reported, t.op_residuals, "check") == []
    assert checks.check_reported_residual(reported * (1 + 1e-6), t.op_residuals,
                                          "check")

    # a certificate that reports half of every subproblem's displacement
    selection_residual = stationarity._selection_residual

    def halved(*args, **kwargs):
        r, res = selection_residual(*args, **kwargs)
        return 0.5 * r, res

    stationarity._selection_residual = halved
    try:
        t = traced()
    finally:
        stationarity._selection_residual = selection_residual
    assert any("largest displacement" in p for p in t.problems)


def test_cv_cell_properties():
    good = {"1,1": {"ratio": 1.0002}, "2,2": {"ratio": 0.3}}
    assert checks.check_cv_cells(good, "cv") == []
    assert checks.check_cv_cells({**good, "1,1": {"ratio": 1.002}}, "cv")
    assert checks.check_cv_cells({**good, "2,2": {"ratio": 0.95}}, "cv")
    assert checks.check_cv_cells({**good, "2,2": {"ratio": None,
                                                  "failed": "all"}}, "cv")


def test_non_argmax_selection_fails():
    wl, op = _fit()
    t = tracer.Tracer()
    t.begin_op(op)
    with t.active():
        assert cli.main(op.argv) == 0
    t.end_op()
    assert t.problems == []
    assert t.metrics([1.0], [1.0])["mm.build_subproblem_calls"]["value"] > 0

    # the same run, with the program handing one non-argmax g atom to
    # build_subproblem at every step
    select = mm.select_pairs

    def skewed(problem, theta, *args, **kwargs):
        sels, cov = select(problem, theta, *args, **kwargs)
        gv, _ = problem.atom_values(theta)
        sel1 = sels[0][0].copy()
        sel1[0] = int(np.argmin(gv[0]))
        return [(sel1, sels[0][1])] + sels[1:], cov

    t = tracer.Tracer()
    t.begin_op(op)
    mm.select_pairs = skewed
    try:
        with t.active():
            cli.main(op.argv)
    finally:
        mm.select_pairs = select
    t.end_op()
    assert any("non-argmax g atom" in p for p in t.problems)


def main() -> int:
    tests = [(k, v) for k, v in sorted(globals().items())
             if k.startswith("test_") and callable(v)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} of {len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
