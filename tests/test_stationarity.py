import numpy as np
import pytest

from pwafit import mm, stationarity
from pwafit.snewton import SNConfig
from pwafit.stationarity import (
    classify_point,
    dstat_residual,
    subdifferentials,
    weak_mstat_residual,
)
from oracles import PA1D as PA
from oracles import (LinearSplit, dc_critical_check, one_sample_problem,
                     random_instance, random_pa1d)

ABS = PA.maximum((1, 0), (-1, 0))                       # |x|
NEG_ABS = ABS.scale(-1.0)                               # -|x|
HAT = PA.maximum(NEG_ABS, (1, -1))                      # max(-|x|, x-1)
STEPPED = PA.maximum(PA.affine(-1, -1), PA.minimum((-1, 0), (0, 0)))
VEE = PA.maximum((1, 0), (-1, -4))                      # max(x, -x-4)


class TestConstruction:
    def test_max_of_lines(self):
        assert ABS.breakpoints == (0.0,)
        assert ABS.pieces == ((-1.0, 0.0), (1.0, 0.0))
        assert ABS.value(-2.0) == 2.0 and ABS.value(3.0) == 3.0

    def test_min_and_nested(self):
        # max(-x-1, min(-x, 0)): slope -1 / 0 / -1 with kinks at -1 and 0
        assert STEPPED.breakpoints == (-1.0, 0.0)
        assert [a for a, _ in STEPPED.pieces] == [-1.0, 0.0, -1.0]

    def test_continuity_enforced(self):
        with pytest.raises(ValueError):
            PA((0.0,), ((1.0, 0.0), (1.0, 5.0)))

    def test_piece_merging(self):
        f = PA.maximum((1, 0), (1, -3))
        assert f.breakpoints == ()


class TestSubdifferentials:
    def test_abs_at_zero(self):
        rep = subdifferentials(ABS, 0.0)
        assert rep.b_sub == (-1.0, 1.0)
        assert rep.regular_sub == (-1.0, 1.0)
        assert rep.limiting_sub == ((-1.0, 1.0),)
        assert rep.clarke_sub == (-1.0, 1.0)

    def test_neg_abs_at_zero(self):
        rep = subdifferentials(NEG_ABS, 0.0)
        assert rep.b_sub == (-1.0, 1.0)
        assert rep.regular_sub is None
        assert rep.limiting_sub == ((-1.0, -1.0), (1.0, 1.0))
        assert rep.clarke_sub == (-1.0, 1.0)

    def test_smooth_point(self):
        rep = subdifferentials(ABS, 2.0)
        assert rep.b_sub == (1.0,)
        assert rep.regular_sub == (1.0, 1.0)
        assert rep.limiting_sub == ((1.0, 1.0),)
        assert rep.clarke_sub == (1.0, 1.0)

    def test_containments_random(self):
        # Bouligand and regular inside limiting inside Clarke; the convex
        # hulls of the Bouligand and limiting sets equal the Clarke interval
        for seed in range(300):
            f = random_pa1d(seed)
            pts = list(f.breakpoints) + [np.random.default_rng(seed).uniform(-4, 4)]
            for x in pts:
                rep = subdifferentials(f, float(x))
                lo, hi = rep.clarke_sub
                for v in rep.b_sub:
                    assert rep.limiting_contains(v)
                if rep.regular_sub is not None:
                    a, b = rep.regular_sub
                    assert rep.limiting_contains(a) and rep.limiting_contains(b)
                for lo_i, hi_i in rep.limiting_sub:
                    assert lo - 1e-12 <= lo_i and hi_i <= hi + 1e-12
                assert min(rep.b_sub) == pytest.approx(lo)
                assert max(rep.b_sub) == pytest.approx(hi)


class TestClassification:
    def test_hat_function(self):
        at0 = classify_point(subdifferentials(HAT, 0.0))
        assert at0.c_stationary and not at0.l_stationary and not at0.d_stationary
        athalf = classify_point(subdifferentials(HAT, 0.5))
        assert athalf.l_stationary and athalf.d_stationary

    def test_stepped_function(self):
        at0 = classify_point(subdifferentials(STEPPED, 0.0))
        assert at0.l_stationary and not at0.d_stationary
        atm1 = classify_point(subdifferentials(STEPPED, -1.0))
        assert atm1.d_stationary and atm1.local_min

    def test_vee_global_min(self):
        f = classify_point(subdifferentials(VEE, -2.0))
        assert f.c_stationary and f.l_stationary and f.d_stationary and f.local_min

    def test_implication_chain_random(self):
        for seed in range(200):
            f = random_pa1d(seed + 1000)
            for x in list(f.breakpoints) + [0.0]:
                fl = classify_point(subdifferentials(f, float(x)))
                if fl.local_min:
                    assert fl.d_stationary
                if fl.d_stationary:
                    assert fl.l_stationary
                if fl.l_stationary:
                    assert fl.c_stationary


    @pytest.mark.parametrize("a, b", [(-1e-15, 1e-15), (1e-13, 1e-13), (1e-13, 2e-13),
                                      (-1e-13, -1e-15), (0.0, 0.0), (0.0, 1.0),
                                      (-1.0, 0.0)])
    def test_implication_chain_at_rounding_level_slopes(self, a, b):
        # slopes a hair apart, or a hair off 0, are not merged or rounded to
        # 0: every flag reads the same exact slopes a (left) and b (right)
        f = stationarity.PiecewiseAffine1D((0.0,), ((a, 0.0), (b, 0.0)))
        rep = subdifferentials(f, 0.0)
        fl = classify_point(rep)
        assert rep.clarke_sub == (min(a, b), max(a, b))
        assert fl.local_min == fl.d_stationary == (a <= 0.0 <= b)
        assert fl.l_stationary or not fl.d_stationary
        assert fl.c_stationary or not fl.l_stationary
        assert fl.c_stationary == (min(a, b) <= 0.0 <= max(a, b))


class TestDcCritical:
    F1 = PA.maximum((2, 0), (0, 0), (-2, -4))
    F2 = ABS

    def test_intersecting_at_zero(self):
        assert dc_critical_check(self.F1, self.F2, 0.0)

    def test_global_min_of_difference(self):
        assert dc_critical_check(self.F1, self.F2, -2.0)

    def test_disjoint_singletons(self):
        assert not dc_critical_check(PA.affine(2, 0), PA.affine(1, 0), 0.0)

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError):
            dc_critical_check(NEG_ABS, ABS, 0.0)


def _counterexample_problem():
    """phi(t) = t (split 2t + (-t)), psi = max(2t, 1.5t) - max(t, 0.5t)."""
    return one_sample_problem(np.array([[2.0], [1.5]]), np.array([[1.0], [0.5]]),
                              LinearSplit(up_slope=2.0, down_slope=-1.0))


class TestDstatResidual:
    def test_smooth_convex_fixed_point(self):
        # k1 = k2 = 1: objective is smooth least squares; its minimizer is a
        # fixed point of the subproblem map
        prob, comp = random_instance(0, N=8, k1=1, k2=1)
        from pwafit.pwa import ols_fit
        w, b = ols_fit(prob.dataset)
        # gauge: put the OLS fit in the g atom, zero h atom
        theta = np.concatenate([w, [b], np.zeros(3)])
        res, cov, _, _ = dstat_residual(comp, theta, c=1.0)
        assert cov == 1.0
        assert res <= 1e-8

    def test_perturbed_point_moves(self):
        prob, comp = random_instance(0, N=8, k1=1, k2=1)
        from pwafit.pwa import ols_fit
        w, b = ols_fit(prob.dataset)
        theta = np.concatenate([w, [b], np.zeros(3)])
        theta[0] += 0.1     # not a gauge direction: changes the fitted surface
        res, _, _, _ = dstat_residual(comp, theta, c=1.0)
        assert res > 1e-3

    def test_non_finite_point_rejected(self):
        # a NaN atom value is in no argmax set, so no selection exists: a
        # residual of 0 at coverage 1 would certify nothing
        _, comp = random_instance(0, N=8, k1=2, k2=1)
        theta = np.zeros(comp.m)
        theta[0] = np.nan
        with pytest.raises(ValueError, match="no argmax atom"):
            dstat_residual(comp, theta, c=1.0)

    def test_counterexample_pairs(self):
        comp = _counterexample_problem()
        theta = np.zeros(1)
        # the lexicographically-first pair certifies weak M-stationarity ...
        assert weak_mstat_residual(comp, theta, ([0], [0]), c=1.0)[0] <= 1e-9
        # ... but the full pair enumeration exposes a descent selection
        res, cov, _, _ = dstat_residual(comp, theta, c=1.0)
        assert cov == 1.0
        assert res > 1e-3

    def test_unconverged_solves_are_counted(self, monkeypatch):
        # a residual from a solve that stopped short of its tolerance is no
        # certificate, so the certificate counts such solves
        comp = _counterexample_problem()
        theta = np.zeros(1)
        _, cov, unconverged, _ = dstat_residual(comp, theta, c=1.0)
        assert unconverged == 0
        assert weak_mstat_residual(comp, theta, ([0], [0]), c=1.0).unconverged == 0
        monkeypatch.setattr(stationarity, "_TIGHT_SN",
                            SNConfig(tol_grad=1e-12, max_iter=1))
        _, cov1, unconverged, _ = dstat_residual(comp, theta, c=1.0)
        assert cov1 == cov and 0 < unconverged <= 4
        assert weak_mstat_residual(comp, theta, ([1], [1]), c=1.0).unconverged == 1

    def test_weak_residual_zero_at_dstat(self):
        prob, comp = random_instance(3, N=5, k1=2, k2=1)
        cfg = mm.MMConfig(variant="full", tol_rel=1e-15, sn_tol_floor=1e-12,
                          max_outer=1000)
        rep = mm.run(comp, cfg, np.zeros(prob.m))
        sels, _ = mm.select_pairs(comp, rep.theta, 1e-9, "one")
        assert weak_mstat_residual(comp, rep.theta, sels[0], c=0.1)[0] <= 1e-5

    def test_mm_terminal_point_certified(self):
        prob, comp = random_instance(4, N=5, k1=2, k2=1)
        cfg = mm.MMConfig(variant="full", tol_rel=1e-15, sn_tol_floor=1e-11,
                          max_outer=1000)
        rep = mm.run(comp, cfg, np.random.default_rng(4).normal(size=prob.m))
        # at MM's weight and at the one `certify` and `pwafit check` use
        for c in (cfg.resolve_c(comp), stationarity.certificate_c(comp, None)):
            res, cov, _, _ = dstat_residual(comp, rep.theta, c=c)
            assert cov == 1.0
            assert res <= 1e-5

    def test_convex_instance_matches_oracle_minimizer(self):
        # h trivial (one zero atom), k1 = 1: plain convex least squares
        prob, comp = random_instance(5, N=10, k1=1, k2=0)
        from pwafit.pwa import ols_fit
        w, b = ols_fit(prob.dataset)
        theta = np.concatenate([w, [b]])
        res, _, _, _ = dstat_residual(comp, theta, c=0.5)
        assert res <= 1e-6
