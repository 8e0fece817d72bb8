"""End-to-end acceptance suite.

Each test prints one CRITERION n: PASS/FAIL line (bypassing capture) and
asserts the same condition, so `pytest -v` shows both the verdict lines and
the per-test results.  Expensive multi-start runs are shared via
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from pwafit import cli, mm, pwa, stationarity
from pwafit.funcs import MonotoneSplit
from pwafit.snewton import SNConfig, sn_solve
from oracles import PA1D as PA
from oracles import (dc_critical_check, enum_subproblem_solve, majorant,
                     model_rmse, one_sample_problem, random_instance)

SEED = 20260823


def verdict(capsys, n, ok, detail=""):
    with capsys.disabled():
        print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'}"
              + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {n}: {detail}"


def _random_problem(rng, N_hi=9, k2_lo=0, gamma=0.0):
    N, d = int(rng.integers(3, N_hi)), int(rng.integers(1, 3))
    k1, k2 = int(rng.integers(1, 3)), int(rng.integers(k2_lo, 3))
    X = rng.uniform(-1.0, 1.0, size=(N, d))
    y = rng.normal(size=N)
    prob = pwa.PWAProblem(dataset=pwa.Dataset(X, y), k1=k1, k2=k2, gamma=gamma)
    return prob, pwa.assemble(prob)


# ---------------------------------------------------------------------------
# shared multi-start runs on the two synthetic families

def _multi_start(make, N, k1, k2, starts, c, tol_rel, seed=SEED, max_outer=500):
    ds, truth = make(N, seed=0)
    prob = pwa.PWAProblem(dataset=ds, k1=k1, k2=k2)
    comp = pwa.assemble(prob)
    reps = []
    for s in range(starts):
        cfg = mm.MMConfig(variant="full", c=c, tol_rel=tol_rel,
                          max_outer=max_outer, seed=s)
        th0 = pwa.init_sampler(prob, "gaussian",
                               np.random.default_rng([seed, s]), 1.0)
        reps.append(mm.run(comp, cfg, th0))
    return prob, truth, reps


@pytest.fixture(scope="module")
def example1_runs():
    """20 gaussian starts per sample size on the convex synthetic family."""
    return {N: _multi_start(pwa.synth_example1, N, 4, 0, 20, 0.001, 1e-6)
            for N in (50, 100, 200, 500)}


@pytest.fixture(scope="module")
def example2_runs():
    return _multi_start(pwa.synth_example2, 500, 2, 2, 20, 0.003, 1e-5)


@pytest.fixture(scope="module")
def landscape_runs():
    return _multi_start(pwa.synth_example1, 200, 4, 0, 100, 0.001, 1e-6)


# ---------------------------------------------------------------------------


def test_criterion_1_golden_suite(capsys):
    t0 = time.perf_counter()
    ok = True
    notes = []

    abs_f = PA.maximum((1, 0), (-1, 0))
    neg_abs = abs_f.scale(-1.0)
    hat = PA.maximum(neg_abs, (1, -1))
    stepped = PA.maximum(PA.affine(-1, -1), PA.minimum((-1, 0), (0, 0)))
    vee = PA.maximum((1, 0), (-1, -4))

    # |x| at 0: every subdifferential is [-1, 1]; d-stationary minimum
    rep = stationarity.subdifferentials(abs_f, 0.0)
    ok &= (rep.b_sub == (-1.0, 1.0) and rep.regular_sub == (-1.0, 1.0)
           and rep.limiting_sub == ((-1.0, 1.0),) and rep.clarke_sub == (-1.0, 1.0))
    ok &= stationarity.classify_point(stationarity.subdifferentials(abs_f, 0.0)).d_stationary

    # -|x| at 0: regular subdifferential empty, limiting = {-1} u {1},
    # Clarke = [-1, 1]; C-stationary but fails to be l-stationary
    rep = stationarity.subdifferentials(neg_abs, 0.0)
    ok &= (rep.b_sub == (-1.0, 1.0) and rep.regular_sub is None
           and rep.limiting_sub == ((-1.0, -1.0), (1.0, 1.0))
           and rep.clarke_sub == (-1.0, 1.0))
    fl = stationarity.classify_point(stationarity.subdifferentials(neg_abs, 0.0))
    ok &= fl.c_stationary and not fl.l_stationary

    # max(-|x|, x-1) at 0: C-stationary, fails to be l-stationary
    fl = stationarity.classify_point(stationarity.subdifferentials(hat, 0.0))
    ok &= fl.c_stationary and not fl.l_stationary and not fl.d_stationary

    # max(-x-1, min(-x, 0)): x = 0 l- but not d-stationary; the unique
    # d-stationary point is x = -1
    fl = stationarity.classify_point(stationarity.subdifferentials(stepped, 0.0))
    ok &= fl.l_stationary and not fl.d_stationary
    d_points = [x for x in stepped.breakpoints if stationarity.classify_point(
        stationarity.subdifferentials(stepped, x)).d_stationary]
    ok &= d_points == [-1.0]
    ok &= stationarity.classify_point(stationarity.subdifferentials(stepped, -1.0)).local_min

    # max(x, -x-4) = max(2x, 0, -2x-4) - |x|: x = 0 is a critical point of
    # the dc pair but not stationary for the function itself; x = -2 is the
    # global minimizer (and also a dc critical point)
    dc1 = PA.maximum((2, 0), (0, 0), (-2, -4))
    dc2 = abs_f
    ok &= dc_critical_check(dc1, dc2, 0.0)
    ok &= not stationarity.classify_point(stationarity.subdifferentials(vee, 0.0)).c_stationary
    ok &= dc_critical_check(dc1, dc2, -2.0)
    fl = stationarity.classify_point(stationarity.subdifferentials(vee, -2.0))
    ok &= fl.d_stationary and fl.local_min

    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    verdict(capsys, 1, ok, f"{dt*1e3:.0f} ms")


def test_criterion_2_majorization_sandwich(capsys):
    rng = np.random.default_rng(SEED)
    worst_slack = 0.0
    worst_touch = 0.0
    for _ in range(200):
        N = int(rng.integers(1, 11))
        d = int(rng.integers(1, 4))
        k1, k2 = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        X = rng.uniform(-1, 1, size=(N, d))
        y = rng.normal(size=N)
        prob = pwa.PWAProblem(dataset=pwa.Dataset(X, y), k1=k1, k2=k2)
        comp = pwa.assemble(prob)
        sidx = int(rng.integers(N))
        # sample sidx alone: its k1 g rows, k2 h rows and target
        g_rows = slice(sidx * comp.k1, (sidx + 1) * comp.k1)
        h_rows = slice(sidx * comp.k2, (sidx + 1) * comp.k2)
        sp = MonotoneSplit(comp.split.kind, y=float(comp.split.y[sidx]),
                           tau=comp.split.tau)
        one = one_sample_problem(comp.U[g_rows], comp.W[h_rows], sp)
        th_bar = rng.normal(size=prob.m)
        gv, hv = one.atom_values(th_bar)
        i1, i2 = int(np.argmax(gv[0])), int(np.argmax(hv[0]))
        g_bar, h_bar, v = (float(a[0]) for a in one.psi(th_bar))
        for _ in range(50):
            th = th_bar + rng.normal(size=prob.m)
            dd = th - th_bar
            g, h, psi = (float(a[0]) for a in one.psi(th))
            lin_h = h_bar + one.W[i2] @ dd
            lin_g = g_bar + one.U[i1] @ dd
            r = g - lin_h + abs(rng.normal())
            s = lin_g - h - abs(rng.normal())
            m_val = majorant(one, (i1, i2), th, th_bar)
            worst_slack = max(worst_slack,
                              m_val - float(sp.up(r) + sp.down(s)),
                              float(sp.phi(psi)) - m_val)
        worst_touch = max(worst_touch,
                          abs(float(sp.up(v) + sp.down(v)) - float(sp.phi(v))),
                          abs(majorant(one, (i1, i2), th_bar, th_bar)
                              - float(sp.phi(v))))
    ok = worst_slack <= 1e-10 and worst_touch <= 1e-12
    verdict(capsys, 2, ok,
            f"max sandwich violation {worst_slack:.1e}, touch error {worst_touch:.1e}")


def _run_fixed_sn_tol(comp, cfg, theta0, sn_cfg):
    """`mm.run`'s loop and stopping rule, with every inner solve held to
    `sn_cfg` rather than to run's gap exit and `sn_tol_floor`.
    Returns (trace, stop reason)."""
    c = cfg.resolve_c(comp)
    rng = np.random.default_rng(cfg.seed)
    state = mm.init_state(comp, theta0)
    f_prev = comp.f_N(state.theta)
    trace, sub = [], None
    for it in range(cfg.max_outer):
        state, rec, sub = mm.mm_iterate(comp, state, cfg, c, sn_cfg, rng, it, sub)
        trace.append(rec)
        rel = abs(rec.f_N - f_prev) / max(1.0, abs(f_prev))
        f_prev = rec.f_N
        if rel <= cfg.tol_rel:
            return trace, "tolerance"
    return trace, "max_outer"


def test_criterion_3_surrogate_monotone_vanishing_steps(capsys):
    # every subproblem is solved to ||grad|| 1e-12, not to `mm.run`'s gap
    # exit: the surrogate descends monotonically to 1e-10 only under
    # near-exact solves
    t0 = time.perf_counter()
    fails = 0
    viol = 0.0
    worst_step = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed + 300)
        prob, comp = _random_problem(rng, gamma=1e-2)
        cfg = mm.MMConfig(variant="full", tol_rel=1e-15, max_outer=500, seed=seed)
        trace, reason = _run_fixed_sn_tol(
            comp, cfg, rng.normal(size=prob.m),
            SNConfig(tol_grad=1e-12, max_iter=cfg.sn_max_iter))
        surr = [r.surrogate for r in trace if r.accepted]
        for a, b in zip(surr, surr[1:]):
            viol = max(viol, b - a)
        worst_step = max(worst_step, trace[-1].step_norm)
        fails += reason != "tolerance"
    dt = time.perf_counter() - t0
    ok = fails == 0 and viol <= 1e-10 and worst_step <= 1e-6 and dt < 120
    verdict(capsys, 3, ok,
            f"fails={fails} max violation {viol:.1e} "
            f"worst final step {worst_step:.1e} {dt:.0f}s")


def test_criterion_4_stationarity_certification(capsys):
    # every terminal point is certified at MM's proximal weight and at the
    # certificate's own, `stationarity.certificate_c`, which `certify` and
    # `pwafit check` use; each count has one entry per weight
    def weights(cfg, comp):
        return cfg.resolve_c(comp), stationarity.certificate_c(comp, None)

    unconverged = 0

    # (a) full-variant terminal points are d-stationary on fully enumerable
    # instances
    full_ok = [0, 0]
    for seed in range(10):
        rng = np.random.default_rng(seed + 700)
        prob, comp = _random_problem(rng, N_hi=7, k2_lo=1)
        cfg = mm.MMConfig(variant="full", tol_rel=1e-15, max_outer=2000,
                          sn_tol_floor=1e-10, seed=seed)
        rep = mm.run(comp, cfg, rng.normal(size=prob.m))
        for i, c in enumerate(weights(cfg, comp)):
            cert = stationarity.dstat_residual(comp, rep.theta, c)
            full_ok[i] += (cert.residual <= 1e-5 and cert.coverage == 1.0)
            unconverged += cert.unconverged

    # (b) randomized single-draw variant, 100 seeded runs
    rand_ok = [0, 0]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        prob, comp = _random_problem(rng, N_hi=7, k2_lo=1)
        cfg = mm.MMConfig(variant="random", tol_rel=1e-15, max_outer=2000,
                          sn_tol_floor=1e-10, seed=seed)
        rep = mm.run(comp, cfg, rng.normal(size=prob.m))
        for i, c in enumerate(weights(cfg, comp)):
            cert = stationarity.dstat_residual(comp, rep.theta, c)
            rand_ok[i] += (cert.residual <= 1e-5 and cert.coverage == 1.0)
            unconverged += cert.unconverged

    # (c) single-pair variant reaches weak M-stationarity
    one_ok = [0, 0]
    for seed in range(10):
        rng = np.random.default_rng(seed + 900)
        prob, comp = _random_problem(rng, N_hi=7, k2_lo=1)
        cfg = mm.MMConfig(variant="one", tol_rel=1e-15, max_outer=2000,
                          sn_tol_floor=1e-10, seed=seed)
        rep = mm.run(comp, cfg, rng.normal(size=prob.m))
        sels, _ = mm.select_pairs(comp, rep.theta, 1e-9, "one")
        for i, c in enumerate(weights(cfg, comp)):
            cert = stationarity.weak_mstat_residual(comp, rep.theta, sels[0], c)
            one_ok[i] += cert.residual <= 1e-5
            unconverged += cert.unconverged

    ok = full_ok == [10, 10] and min(rand_ok) >= 95 and one_ok == [10, 10]
    verdict(capsys, 4, ok,
            "at MM's c / the certificate's c: "
            f"full {full_ok[0]}/{full_ok[1]} of 10, random {rand_ok[0]}/{rand_ok[1]} "
            f"of 100, single-pair {one_ok[0]}/{one_ok[1]} of 10; "
            f"{unconverged} unconverged certificate solves")


def test_criterion_5_newton_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    shapes = ([(1, None)] * 380 + [(2, None)] * 90 + [(3, (1, 1))] * 30)
    rng = np.random.default_rng(SEED + 5)
    tight = SNConfig(tol_grad=1e-12, max_iter=300)
    worst_th = worst_obj = worst_gap = worst_fd = 0.0
    for idx, (N, fixed_k) in enumerate(shapes):
        if fixed_k is not None:
            k1, k2 = fixed_k
        elif N == 1:
            k1 = int(rng.integers(1, 4))
            k2 = int(rng.integers(1, 5 - k1))
        else:
            k1 = int(rng.integers(1, 3))
            k2 = int(rng.integers(1, 4 - k1))
        d = int(rng.integers(1, 3))
        X = rng.uniform(-1, 1, size=(N, d))
        y = rng.normal(size=N)
        prob = pwa.PWAProblem(dataset=pwa.Dataset(X, y), k1=k1, k2=k2)
        comp = pwa.assemble(prob)
        th_nu = rng.normal(size=prob.m) * 0.7
        state = mm.init_state(comp, th_nu)
        sels, _ = mm.select_pairs(comp, th_nu, 1e-9, "one")
        c = float(rng.uniform(0.3, 2.0))
        sub = mm.build_subproblem(comp, state, sels[0][0], sels[0][1], c)
        res = sn_solve(sub, cfg=tight)
        oth, *_, oval = enum_subproblem_solve(sub)
        worst_th = max(worst_th, float(np.abs(res.theta - oth).max()))
        worst_obj = max(worst_obj, abs(res.value - oval))
        worst_gap = max(worst_gap, abs(res.value - sub.value_grad(res.x)[0]))
        if idx % 10 == 0:    # Danskin gradient spot check
            n1 = sub.n1
            lam = rng.normal(size=n1) * 0.3
            mu = rng.normal(size=sub.dual_dim - n1) * 0.3
            x = np.concatenate([lam, mu])
            g = sub.value_grad(x)[1]
            h = 1e-6
            num = np.zeros_like(x)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = h
                vp = sub.value_grad(x + e)[0]
                vm = sub.value_grad(x - e)[0]
                num[i] = (vp - vm) / (2 * h)
            worst_fd = max(worst_fd,
                           float(np.abs(g - num).max()) / max(1.0, float(np.abs(g).max())))
    dt = time.perf_counter() - t0
    ok = (worst_th <= 1e-8 and worst_obj <= 1e-8 and worst_gap <= 1e-8
          and worst_fd <= 1e-5 and dt < 120)
    verdict(capsys, 5, ok,
            f"theta {worst_th:.1e}, obj {worst_obj:.1e}, gap {worst_gap:.1e}, "
            f"grad-fd {worst_fd:.1e}, {dt:.0f}s")


def test_criterion_6_convex_reduction(capsys):
    # objective match against the normal-equation oracle
    prob, comp = random_instance(SEED, N=40, d=2, k1=1, k2=1)
    w, b = pwa.ols_fit(prob.dataset)
    f_ols = 0.5 * float(np.mean((prob.dataset.y - prob.dataset.X @ w - b) ** 2))
    cfg = mm.MMConfig(variant="full", tol_rel=1e-15, max_outer=3000,
                      sn_tol_floor=1e-12)
    rep = mm.run(comp, cfg, np.zeros(prob.m))
    rel = abs(rep.f_N - f_ols) / max(1.0, abs(f_ols))

    # cross-validated error ratio against least squares at the affine cell
    ds, _ = pwa.synth_example1(200, seed=0)
    idx = cli._fold_indices(200, 5, 0)
    e_pa = e_ls = 0.0
    for f in range(5):
        tr, te = idx != f, idx == f
        dtr = pwa.Dataset(ds.X[tr], ds.y[tr])
        p = pwa.PWAProblem(dataset=dtr, k1=1, k2=1)
        c = pwa.assemble(p)
        w, b = pwa.ols_fit(dtr)
        th0 = np.concatenate([w, [b], np.zeros(3)])
        r = mm.run(c, mm.MMConfig(variant="full", tol_rel=1e-15,
                                  max_outer=3000, sn_tol_floor=1e-12), th0)
        mdl = p.model(r.theta)
        e_pa += float(np.sum((ds.y[te] - mdl.eval(ds.X[te])) ** 2))
        e_ls += float(np.sum((ds.y[te] - (ds.X[te] @ w + b)) ** 2))
    ratio = e_pa / e_ls
    ok = rel <= 1e-6 and abs(ratio - 1.0) <= 1e-3
    verdict(capsys, 6, ok, f"objective rel err {rel:.1e}, cv ratio {ratio:.6f}")


def test_criterion_7_convex_family_recovery(capsys, example1_runs):
    t0 = time.perf_counter()
    prob, truth, reps = example1_runs[500]
    best = min(reps, key=lambda r: r.f_N)
    rmse = model_rmse(prob.model(best.theta), truth)

    fracs = []
    for N in (50, 100, 200, 500):
        _, _, rs = example1_runs[N]
        fb = min(r.f_N for r in rs)
        fracs.append(float(np.mean([r.f_N <= fb + 1e-3 for r in rs])))
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
    trend = sum(fracs[j] >= fracs[i] for i, j in pairs)
    dt = time.perf_counter() - t0
    ok = rmse <= 0.1 and trend >= 3
    verdict(capsys, 7, ok,
            f"grid rmse {rmse:.3f}, fractions {fracs}, trend {trend}/4")


def test_criterion_8_dc_family_recovery(capsys, example2_runs):
    prob, truth, reps = example2_runs
    best = min(reps, key=lambda r: r.f_N)
    rmse = model_rmse(prob.model(best.theta), truth)
    ok = rmse <= 0.12
    verdict(capsys, 8, ok, f"grid rmse {rmse:.3f}")


def test_criterion_9_landscape_clustering(capsys, landscape_runs):
    _, _, reps = landscape_runs
    vals = sorted(r.f_N for r in reps)
    distinct = 1
    for a, b in zip(vals, vals[1:]):
        if b - a > 1e-4:
            distinct += 1
    ok = distinct <= 50
    verdict(capsys, 9, ok, f"{distinct} distinct objectives over 100 starts")


def test_criterion_10_iteration_economy(capsys):
    # stock stopping rules: 1e-4 relative objective change, and each inner
    # solve's gap exit or ||grad|| <= 1e-6
    prob, truth, reps = _multi_start(pwa.synth_example1, 500, 4, 0, 10,
                                     0.001, 1e-4)
    mm_max = max(r.iterations for r in reps)
    sn_avg = max(r.sn_total / r.iterations for r in reps)
    ok = sn_avg <= 30 and mm_max <= 200
    verdict(capsys, 10, ok,
            f"max MM iterations {mm_max}, worst avg SN/MM {sn_avg:.1f}")


def _cv_ratio(ds, k1, k2, folds, starts, c, tol_rel, seed):
    idx = cli._fold_indices(ds.N, folds, seed)
    e_pa = e_ls = 0.0
    for f in range(folds):
        tr, te = idx != f, idx == f
        dtr = pwa.Dataset(ds.X[tr], ds.y[tr])
        prob = pwa.PWAProblem(dataset=dtr, k1=k1, k2=k2)
        comp = pwa.assemble(prob)
        reps = []
        for s in range(starts):
            cfg = mm.MMConfig(variant="full", c=c, tol_rel=tol_rel,
                              max_outer=500, seed=s)
            th0 = pwa.init_sampler(prob, "gaussian",
                                   np.random.default_rng([seed, f, s]), 1.0)
            reps.append(mm.run(comp, cfg, th0))
        best = min(reps, key=lambda r: r.f_N)
        mdl = prob.model(best.theta)
        e_pa += float(np.sum((ds.y[te] - mdl.eval(ds.X[te])) ** 2))
        w, b = pwa.ols_fit(dtr)
        e_ls += float(np.sum((ds.y[te] - (ds.X[te] @ w + b)) ** 2))
    return e_pa / e_ls


def test_criterion_11_cv_superiority(capsys):
    ds, _ = pwa.synth_example2(400, seed=0)
    ratio = _cv_ratio(ds, 2, 2, folds=5, starts=5, c=0.003, tol_rel=1e-5,
                      seed=0)
    ok = ratio < 0.9

    detail = f"synthetic ratio {ratio:.3f}"
    mpg_path = "data/auto-mpg.csv"
    try:
        mpg = pwa.Dataset.load_csv(mpg_path)
    except (OSError, ValueError):
        detail += "; auto-MPG skipped (no data/auto-mpg.csv)"
    else:
        mpg_ratio = _cv_ratio(mpg, 2, 2, folds=5, starts=5, c=None,
                              tol_rel=1e-5, seed=0)
        ok &= 0.55 <= mpg_ratio <= 0.95
        detail += f"; auto-MPG ratio {mpg_ratio:.3f}"
    verdict(capsys, 11, ok, detail)
