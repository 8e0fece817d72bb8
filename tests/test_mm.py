import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwafit import mm, pwa, stationarity
from pwafit.funcs import TIE_TOL, CompositeProblem, DcRegularizer
from pwafit.snewton import SNConfig, sn_solve
from oracles import loop_select_pairs, random_instance


def _state_close(a: mm.AugmentedIterate, b: mm.AugmentedIterate, tol=1e-8):
    return (np.abs(a.theta - b.theta).max() < tol
            and np.abs(a.r - b.r).max() < tol
            and np.abs(a.s - b.s).max() < tol)


def init_slack(comp, st):
    """(lambda, mu) slack anchors, (N, k1) and (N, k2), of the subproblem at
    an init state for its exact-argmax pair, and that pair."""
    (sel1, sel2), = mm.select_pairs(comp, st.theta, TIE_TOL, "one")[0]
    sl = mm.build_subproblem(comp, st, sel1, sel2, c=1.0).slack_nu
    N, n1 = comp.n_samples, comp.n_samples * comp.k1
    return sl[:n1].reshape(N, -1), sl[n1:].reshape(N, -1), sel1, sel2


def _same_bits(a, b):
    """Equal shapes and equal bytes: -0.0 and 0.0 differ, as do NaN payloads."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestInitState:
    def test_zero_model(self):
        prob, comp = random_instance(0, N=5, k1=2, k2=2)
        st = mm.init_state(comp, np.zeros(prob.m))
        assert np.all(st.theta == 0.0)
        # psi(0) = max(e) - max(f) with all-zero intercepts = 0
        assert np.allclose(st.r, 0.0) and np.allclose(st.s, 0.0)
        g_sl, h_sl, _, _ = init_slack(comp, st)
        assert g_sl.min() >= 0.0 and h_sl.min() >= 0.0

    def test_known_model_values(self):
        # four upward atoms of the first example model evaluated at (1, 1)
        ds = pwa.Dataset(np.array([[1.0, 1.0]]), np.array([0.0]))
        prob = pwa.PWAProblem(dataset=ds, k1=4, k2=0)
        comp = pwa.assemble(prob)
        st = mm.init_state(comp, pwa.EXAMPLE1_MODEL.flatten())
        # max atom value is max(2, 0, -1, -3) = 2, h = 0
        assert st.r[0] == pytest.approx(2.0)
        assert st.s[0] == pytest.approx(2.0)
        # slack for the argmax atom is tight
        g_sl, h_sl, sel1, sel2 = init_slack(comp, st)
        assert g_sl.min() >= 0.0 and h_sl.min() >= 0.0
        assert g_sl[0, sel1[0]] == pytest.approx(0.0, abs=1e-12)
        assert h_sl[0, sel2[0]] == pytest.approx(0.0, abs=1e-12)

    def test_surrogate_equals_objective_at_start(self):
        for seed in range(5):
            prob, comp = random_instance(seed, N=6, k1=2, k2=2)
            th = np.random.default_rng(seed).normal(size=prob.m)
            st = mm.init_state(comp, th)
            assert comp.surrogate_value(st.theta, st.r, st.s) == \
                pytest.approx(comp.f_N(th), rel=1e-12)


class TestSelectPairs:
    def test_unique_argmax_all_variants_agree(self):
        prob, comp = random_instance(1, N=5, k1=3, k2=2)
        th = np.random.default_rng(1).normal(size=prob.m)   # ties have measure 0
        rng = np.random.default_rng(0)
        s_full, cov = mm.select_pairs(comp, th, 1e-12, "full")
        s_one, _ = mm.select_pairs(comp, th, 1e-12, "one")
        s_rand, _ = mm.select_pairs(comp, th, 1e-12, "random", rng=rng)
        assert cov == 1.0 and len(s_full) == 1
        for (a, b), (a2, b2) in [(s_full[0], s_one[0]), (s_full[0], s_rand[0])]:
            assert np.array_equal(a, a2) and np.array_equal(b, b2)

    def test_tie_product_enumerated(self):
        # |x|-style model: both atoms tie at x = 0
        ds = pwa.Dataset(np.zeros((1, 1)), np.zeros(1))
        prob = pwa.PWAProblem(dataset=ds, k1=2, k2=1)
        comp = pwa.assemble(prob)
        th = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0])   # g = max(x, -x), h = 0
        sels, cov = mm.select_pairs(comp, th, 1e-9, "full")
        assert cov == 1.0 and len(sels) == 2
        assert {int(s[0][0]) for s in sels} == {0, 1}

    def test_combo_cap_and_coverage(self):
        ds = pwa.Dataset(np.zeros((4, 1)), np.zeros(4))
        prob = pwa.PWAProblem(dataset=ds, k1=2, k2=2)
        comp = pwa.assemble(prob)
        th = np.zeros(prob.m)     # every atom ties everywhere: 4^4 = 256 combos
        sels, cov = mm.select_pairs(comp, th, 1e-9, "full", combo_cap=64)
        assert len(sels) == 64
        assert cov == pytest.approx(64 / 256)

    def test_random_reproducible(self):
        prob, comp = random_instance(2, N=6, k1=3, k2=3)
        th = np.zeros(prob.m)
        a = mm.select_pairs(comp, th, 1e-9, "random", np.random.default_rng(7))
        b = mm.select_pairs(comp, th, 1e-9, "random", np.random.default_rng(7))
        assert np.array_equal(a[0][0][0], b[0][0][0])
        assert np.array_equal(a[0][0][1], b[0][0][1])


def _grid_instance(seed, N, k1, k2, tied_first=True):
    """Features and model in {-1, 0, 1}: exact atom ties on many samples.

    With tied_first the samples with more than one argmax pair come first,
    where a lexicographic enumeration reaches them last.
    """
    rng = np.random.default_rng(seed)
    X = rng.integers(-1, 2, size=(N, 2)).astype(float)
    prob = pwa.PWAProblem(dataset=pwa.Dataset(X, np.zeros(N)), k1=k1, k2=k2)
    theta = rng.integers(-1, 2, size=prob.m).astype(float)
    if tied_first:
        m1, m2 = pwa.assemble(prob).argmax_masks(theta, TIE_TOL)
        order = np.argsort(m1.sum(1) * m2.sum(1) == 1, kind="stable")
        prob = pwa.PWAProblem(dataset=pwa.Dataset(X[order], np.zeros(N)),
                              k1=k1, k2=k2)
    return pwa.assemble(prob), theta


def _assert_same_selections(got, ref):
    assert len(got) == len(ref)
    for (a, b), (ra, rb) in zip(got, ref):
        assert a.dtype == ra.dtype and b.dtype == rb.dtype
        assert np.array_equal(a, ra) and np.array_equal(b, rb)


class TestSelectPairsMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(1, 12),
           k1=st.integers(1, 4), k2=st.sampled_from([0, 1, 2]),
           cap=st.sampled_from([1, 5, 64]), eps=st.sampled_from([1e-9, 0.5]),
           tied_first=st.booleans())
    def test_tie_heavy_grid(self, seed, N, k1, k2, cap, eps, tied_first):
        comp, theta = _grid_instance(seed, N, k1, k2, tied_first)
        for variant in ("one", "full"):
            got, cov = mm.select_pairs(comp, theta, eps, variant, combo_cap=cap)
            ref, ref_cov = loop_select_pairs(comp, theta, eps, variant,
                                             combo_cap=cap)
            _assert_same_selections(got, ref)
            assert cov == pytest.approx(ref_cov, rel=1e-12)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, cov = mm.select_pairs(comp, theta, eps, "random", rng=rng)
        ref, ref_cov = loop_select_pairs(comp, theta, eps, "random", rng=ref_rng)
        _assert_same_selections(got, ref)
        assert cov == ref_cov == 1.0
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("cap", [16, 64])
    def test_thousand_samples_two_hundred_tied(self, cap):
        # the property cases stop at N = 12; here 209 of 1000 samples tie
        # between their two h atoms, spread among the others
        comp, theta = _grid_instance(20, 1000, 2, 2, tied_first=False)
        m1, m2 = comp.argmax_masks(theta, TIE_TOL)
        assert (m1.sum(1) * m2.sum(1) != 1).sum() == 209
        got, cov = mm.select_pairs(comp, theta, TIE_TOL, "full", combo_cap=cap)
        ref, ref_cov = loop_select_pairs(comp, theta, TIE_TOL, "full", combo_cap=cap)
        assert len(got) == cap
        _assert_same_selections(got, ref)
        assert cov == pytest.approx(ref_cov, rel=1e-12)

    def test_coverage_does_not_overflow(self):
        # 1030 samples with two tied pairs each: 2**1030 combinations, whose
        # floating-point product is inf
        N = 1030
        prob = pwa.PWAProblem(dataset=pwa.Dataset(np.zeros((N, 1)), np.zeros(N)),
                              k1=2, k2=0)
        comp = pwa.assemble(prob)
        sels, cov = mm.select_pairs(comp, np.zeros(prob.m), 1e-9, "full",
                                    combo_cap=64)
        assert len(sels) == 64
        assert cov > 0.0
        assert cov == pytest.approx(2.0 ** -1024, rel=1e-12)

    def test_certificate_uses_full_selections(self, monkeypatch):
        comp, theta = _grid_instance(0, 10, 3, 1)
        sels, cov = mm.select_pairs(comp, theta, TIE_TOL, "full", combo_cap=5)
        assert cov < 1.0
        seen = []
        build = mm.build_subproblem

        def record(problem, state, sel1, sel2, c, *, reuse=None):
            seen.append((sel1, sel2))
            return build(problem, state, sel1, sel2, c, reuse=reuse)

        monkeypatch.setattr(mm, "build_subproblem", record)
        cert = stationarity.dstat_residual(comp, theta, 1.0, combo_cap=5)
        assert cert.coverage == cov
        _assert_same_selections(seen, sels)


class TestCertificateIsTheFreshBuildLoop:
    """The certificate rebuilds one subproblem at its point for every
    selection; it must give what building each selection fresh gives."""

    @staticmethod
    def _fresh_build_loop(comp, theta, c, cap):
        sels, _ = mm.select_pairs(comp, theta, TIE_TOL, "full", combo_cap=cap)
        state = mm.init_state(comp, theta)
        residual, warm, unconverged, bound = 0.0, None, 0, 0.0
        for sel1, sel2 in sels:
            sub = mm.build_subproblem(comp, state, sel1, sel2, c)
            res = sn_solve(sub, warm=warm, cfg=stationarity._TIGHT_SN)
            residual = np.maximum(residual, np.abs(res.theta - theta).max(initial=0.0))
            warm = res.x
            unconverged += not res.converged
            bound = max(bound, np.sqrt(2.0 * max(res.gap, 0.0) / c))
        return float(residual), unconverged, float(bound), len(sels)

    # seeds whose point has 8 to 13 tied samples
    @pytest.mark.parametrize("seed", [0, 1, 3, 4])
    @pytest.mark.parametrize("k2", [0, 1])
    def test_residual_and_unconverged_count_bit_for_bit(self, k2, seed):
        comp, theta = _grid_instance(seed, 40, 3, k2, tied_first=False)
        # the grid's zero responses leave nothing to fit: y = 0.3 x1 - x2
        comp.split.y = 0.3 * comp.X[:, 0] - comp.X[:, 1]
        c = stationarity.certificate_c(comp, None)
        residual, unconverged, bound, n_sels = self._fresh_build_loop(comp, theta, c, 16)
        assert n_sels > 1
        cert = stationarity.dstat_residual(comp, theta, c, combo_cap=16)
        assert _same_bits(cert.residual, residual)
        assert cert.unconverged == unconverged
        assert _same_bits(cert.bound, bound)


def _one_pair_subproblem(problem, theta):
    (sel1, sel2), = mm.select_pairs(problem, theta, 1e-9, "one")[0]
    return mm.build_subproblem(problem, mm.init_state(problem, theta),
                               sel1, sel2, c=1.0)


class TestBuildSubproblem:
    def test_no_regularizer_terms_are_zero(self):
        prob, comp = random_instance(11, N=5, k1=2, k2=1)
        th = np.random.default_rng(11).normal(size=prob.m)
        comp0 = CompositeProblem(X=comp.X, L=comp.L, k1=comp.k1, split=comp.split,
                                 reg=DcRegularizer(weights=np.ones(prob.m),
                                                   gamma=0.0))
        for problem in (comp, comp0):
            sub = _one_pair_subproblem(problem, th)
            assert sub.l1.shape == sub.lin.shape == th.shape
            assert not sub.l1.any() and not sub.lin.any()
            assert sub.reg_const == 0.0

    def test_regularizer_terms_from_majorant(self):
        prob, comp = random_instance(12, N=5, k1=2, k2=1)
        rng = np.random.default_rng(12)
        reg = DcRegularizer(weights=rng.uniform(0.1, 1.0, size=prob.m),
                            gamma=0.3, smooth="scad")
        comp.reg = reg
        th = rng.normal(size=prob.m) * 3.0
        sub = _one_pair_subproblem(comp, th)
        t, lin, const = reg.majorant_data(th)
        assert np.array_equal(sub.l1, t) and np.array_equal(sub.lin, lin)
        assert sub.reg_const == const


    def test_stacked_rows_match_the_blocks(self):
        # lambda rows U - (chosen h grad) over mu rows W - (chosen g grad),
        # in the column-major layout the Woodbury step wants
        prob, comp = random_instance(13, N=5, k1=3, k2=2)
        th = np.random.default_rng(13).normal(size=prob.m)
        st = mm.init_state(comp, th)
        sel1, sel2 = np.array([0, 1, 2, 0, 1]), np.array([1, 0, 1, 0, 1])
        sub = mm.build_subproblem(comp, st, sel1, sel2, c=1.0)
        v, u = comp.W[np.arange(5) * 2 + sel2], comp.U[np.arange(5) * 3 + sel1]
        (gv, hv), (g, h, _) = comp.atom_values(th), comp.psi(th)
        assert sub.B.flags.f_contiguous and np.array_equal(sub.B, np.vstack(
            [comp.U - np.repeat(v, 3, axis=0), comp.W - np.repeat(u, 2, axis=0)]))
        assert np.array_equal(sub.beta, np.concatenate(
            [np.repeat(h - hv[np.arange(5), sel2], 3),
             np.repeat(g - gv[np.arange(5), sel1], 2)]))
        assert np.array_equal(sub.slack_nu, np.maximum(np.concatenate(
            [((st.r + h)[:, None] - gv).ravel(), ((g - st.s)[:, None] - hv).ravel()]), 0.0))

    def test_beta_matches_the_gradient_product(self):
        # the chosen atom's value is its gradient times theta, up to rounding:
        # an m-term dot product is within about m eps/2 of the sum of its
        # terms' magnitudes (twice that bounds two of them), and each side
        # rounds one subtraction from the max
        prob, comp = random_instance(14, N=40, k1=3, k2=2)
        rng = np.random.default_rng(14)
        th = rng.normal(size=prob.m)
        sel1, sel2 = rng.integers(3, size=40), rng.integers(2, size=40)
        sub = mm.build_subproblem(comp, mm.init_state(comp, th), sel1, sel2, c=1.0)
        v, u = comp.W[np.arange(40) * 2 + sel2], comp.U[np.arange(40) * 3 + sel1]
        g, h, _ = comp.psi(th)
        for beta, top, chosen, k in ((sub.beta[:120], h, v, 3), (sub.beta[120:], g, u, 2)):
            terms = np.abs(chosen * th).sum(axis=1)
            bound = 2 * prob.m * np.finfo(float).eps * terms + np.spacing(abs(top) + terms)
            product = top - (chosen * th).sum(axis=1)
            assert np.all(np.abs(beta - np.repeat(product, k)) <= np.repeat(bound, k))

    def test_argmax_choices_give_exact_zero_beta(self):
        # a chosen atom that attains its sample's max leaves beta exactly 0
        ds, _ = pwa.synth_example2(1000, 0)
        prob = pwa.PWAProblem(ds, k1=2, k2=2)
        comp = pwa.assemble(prob)
        th = pwa.init_sampler(prob, "gaussian", np.random.default_rng([0, 0]))
        (sel1, sel2), = mm.select_pairs(comp, th, TIE_TOL, "one")[0]
        sub = mm.build_subproblem(comp, mm.init_state(comp, th), sel1, sel2, c=1.0)
        assert not sub.beta.any()


class TestReusedSubproblem:
    """`build_subproblem(..., reuse=prev)` at the anchor `prev` was last built
    at (theta, r and s equal to its copies bit for bit, and the same c) keeps
    the atom values, the majorant data and the slack anchors, and rewrites
    only the B rows, beta rows and one-hot columns of the samples whose
    chosen atom changed; at any other anchor it is a full build.  Either way
    the result must be the fresh build's, bit for bit."""

    FIELDS = ("B", "beta", "slack_nu", "onehot", "l1", "lin",
              "theta_nu", "r_nu", "s_nu")
    SN = SNConfig(tol_grad=1e-10, max_iter=200)

    @staticmethod
    def _instance(k2, dead_zone):
        prob, comp = random_instance(40 + k2, N=50, k1=3, k2=k2)
        rng = np.random.default_rng(40 + k2)
        if dead_zone:
            # l1 weights of 0.9 to 4.5 (gamma times 0.3 to 1.5), against
            # c = 0.7: the soft threshold sets some of theta's coordinates to
            # exactly 0
            comp.reg = DcRegularizer(weights=rng.uniform(0.3, 1.5, size=prob.m),
                                     gamma=3.0, smooth="scad")
        return prob, comp, rng

    @staticmethod
    def _next_selection(comp, sel1, sel2, case, rng):
        sel1, sel2 = sel1.copy(), sel2.copy()
        i = int(rng.integers(comp.n_samples))
        if case == "lambda":
            # a lambda row follows sel2: with k2 <= 1 there is one h atom only
            sel2[i] = (sel2[i] + 1) % comp.k2
        elif case == "mu":
            sel1[i] = (sel1[i] + 1) % comp.k1
        elif case == "every":
            sel1 = (sel1 + 1) % comp.k1
            sel2 = (sel2 + 1) % comp.k2
        return sel1, sel2

    def _assert_fresh(self, comp, st, sel1, sel2, c, sub, warm, label):
        """Rebuild `sub` for the selection at st, compare it and one SN solve
        with a fresh build's; returns the solve."""
        fresh = mm.build_subproblem(comp, st, sel1, sel2, c)
        reused = mm.build_subproblem(comp, st, sel1, sel2, c, reuse=sub)
        assert reused is sub and reused.B.flags.f_contiguous
        for name in self.FIELDS:
            assert _same_bits(getattr(reused, name), getattr(fresh, name)), (label, name)
        assert _same_bits(reused.reg_const, fresh.reg_const), label
        a = sn_solve(reused, warm=warm, cfg=self.SN)
        b = sn_solve(fresh, warm=warm, cfg=self.SN)
        assert _same_bits(a.x, b.x) and _same_bits(a.theta, b.theta), label
        assert a.value == b.value and a.iterations == b.iterations, label
        return a

    @pytest.mark.parametrize("k2", [0, 1, 2])
    @pytest.mark.parametrize("dead_zone", [False, True], ids=["no-l1", "l1-dead-zone"])
    def test_same_anchor_rebuild_equals_fresh_build(self, monkeypatch, dead_zone, k2):
        prob, comp, rng = self._instance(k2, dead_zone)
        c = 0.7
        st = mm.init_state(comp, rng.normal(size=prob.m))
        sel1 = rng.integers(comp.k1, size=50)
        sel2 = rng.integers(comp.k2, size=50)
        sub = mm.build_subproblem(comp, st, sel1, sel2, c)
        warm = sn_solve(sub, cfg=self.SN).x
        # at the same anchor the majorant is kept, not worked out again
        calls = []
        majorant = DcRegularizer.majorant_data
        monkeypatch.setattr(DcRegularizer, "majorant_data",
                            lambda reg, th: calls.append(1) or majorant(reg, th))
        for case in ("none", "lambda", "mu", "every", "mu", "none"):
            sel1, sel2 = self._next_selection(comp, sel1, sel2, case, rng)
            calls.clear()
            mm.build_subproblem(comp, st, sel1, sel2, c, reuse=sub)
            assert not calls, case
            res = self._assert_fresh(comp, st, sel1, sel2, c, sub, warm, case)
            warm = res.x
            if dead_zone:
                assert not res.theta.all(), case

    @pytest.mark.parametrize("k2", [0, 1, 2])
    def test_reused_build_equals_fresh_build(self, k2):
        # a new anchor for each selection: a full build
        for dead_zone in (False, True):
            self._new_anchors(k2, dead_zone)

    def _new_anchors(self, k2, dead_zone):
        prob, comp, rng = self._instance(k2, dead_zone)
        c = 0.7
        st = mm.init_state(comp, rng.normal(size=prob.m))
        sel1 = rng.integers(comp.k1, size=50)
        sel2 = rng.integers(comp.k2, size=50)
        sub = mm.build_subproblem(comp, st, sel1, sel2, c)
        warm = sn_solve(sub, cfg=self.SN).x
        for case in ("none", "mu", "every", "lambda", "none"):
            st = mm.init_state(comp, st.theta + 0.1 * rng.normal(size=prob.m))
            sel1, sel2 = self._next_selection(comp, sel1, sel2, case, rng)
            warm = self._assert_fresh(comp, st, sel1, sel2, c, sub, warm, case).x
        # a state whose arrays change in place is a new anchor too, as is
        # another proximal weight
        st.theta += 0.1 * rng.normal(size=prob.m)
        warm = self._assert_fresh(comp, st, sel1, sel2, c, sub, warm, "theta in place").x
        st.r -= 0.5
        warm = self._assert_fresh(comp, st, sel1, sel2, c, sub, warm, "r in place").x
        self._assert_fresh(comp, st, sel1, sel2, 2 * c, sub, warm, "c")


class TestMmIterate:
    def _cfg(self, **kw):
        base = dict(variant="full")
        base.update(kw)
        return mm.MMConfig(**base)

    def test_fixed_point_stays(self):
        # run to near-stationarity, then one more iterate moves by ~nothing
        prob, comp = random_instance(3, N=5, k1=2, k2=1)
        cfg = self._cfg(tol_rel=1e-15, sn_tol_floor=1e-12, max_outer=2000)
        rep = mm.run(comp, cfg, np.zeros(prob.m))
        assert rep.reason == "tolerance"
        st = mm.init_state(comp, rep.theta)
        nxt, rec, _ = mm.mm_iterate(comp, st, cfg, cfg.resolve_c(comp),
                                    SNConfig(tol_grad=1e-12, max_iter=200),
                                    np.random.default_rng(0))
        assert rec.step_norm < 1e-6
        assert _state_close(st, nxt, tol=1e-6)

    def test_surrogate_strict_decrease_inequality(self):
        # new surrogate + (c/2)||dz||^2 <= old surrogate for accepted steps
        for seed in range(5):
            prob, comp = random_instance(seed + 10, N=6, k1=2, k2=2)
            cfg = self._cfg()
            c = cfg.resolve_c(comp)
            rng = np.random.default_rng(seed)
            st = mm.init_state(comp, rng.normal(size=prob.m))
            old = comp.surrogate_value(st.theta, st.r, st.s)
            nxt, rec, _ = mm.mm_iterate(comp, st, cfg, c,
                                        SNConfig(tol_grad=1e-10, max_iter=200), rng)
            assert rec.accepted
            new = comp.surrogate_value(nxt.theta, nxt.r, nxt.s)
            assert new + 0.5 * c * rec.step_norm ** 2 <= old + 1e-9

    def test_random_variant_rejection_keeps_state(self):
        # at a stationary point the drawn candidate cannot strictly improve
        prob, comp = random_instance(3, N=5, k1=2, k2=1)
        cfg = self._cfg(tol_rel=1e-15, sn_tol_floor=1e-12, max_outer=3000)
        rep = mm.run(comp, cfg, np.zeros(prob.m))
        st = mm.init_state(comp, rep.theta)
        rcfg = self._cfg(variant="random")
        nxt, rec, _ = mm.mm_iterate(comp, st, rcfg, rcfg.resolve_c(comp),
                                    SNConfig(tol_grad=1e-12, max_iter=200),
                                    np.random.default_rng(1))
        if not rec.accepted:
            assert nxt is st
        # accepted or not, the recorded candidate step is tiny here
        assert rec.step_norm < 1e-5


class TestExtrapolation:
    """Steps anchored at theta_e = theta_k + beta (theta_k - theta_{k-1}),
    kept only when they lower f_N.  On paper example 2 at N = 100 from this
    start, step 1's extrapolation raises f_N and step 2's lowers it."""

    @staticmethod
    def _path():
        ds, _ = pwa.synth_example2(100, 0)
        prob = pwa.PWAProblem(ds, k1=2, k2=2)
        comp = pwa.assemble(prob)
        cfg = mm.MMConfig()
        c, sn_cfg = cfg.resolve_c(comp), SNConfig(tol_grad=1e-10, max_iter=200)
        states = [mm.init_state(comp, pwa.init_sampler(
            prob, "gaussian", np.random.default_rng([0, 0])))]
        rng = np.random.default_rng(0)
        for it in range(2):
            states.append(mm.mm_iterate(comp, states[-1], cfg, c, sn_cfg, rng, it)[0])
        return comp, cfg, c, sn_cfg, states

    @staticmethod
    def _step(comp, cfg, c, sn_cfg, state):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return mm.mm_iterate(comp, state, cfg, c, sn_cfg, np.random.default_rng(5))

    def test_kept_extrapolation_anchors_the_step(self, monkeypatch):
        comp, cfg, c, sn_cfg, states = self._path()
        st = states[2]
        assert st.t == 2 and st.prev is states[1].theta
        theta_e = st.theta + (st.t - 1) / (st.t + 2) * (st.theta - st.prev)
        assert comp.f_N(theta_e) < st.f
        seen = []
        select, build = mm.select_pairs, mm.build_subproblem

        def spy_select(problem, theta, *args, **kwargs):
            seen.append(theta)
            return select(problem, theta, *args, **kwargs)

        def spy_build(problem, state, *args, **kwargs):
            seen.append(state.theta)
            return build(problem, state, *args, **kwargs)

        monkeypatch.setattr(mm, "select_pairs", spy_select)
        monkeypatch.setattr(mm, "build_subproblem", spy_build)
        nxt, rec, _ = self._step(comp, cfg, c, sn_cfg, st)
        assert rec.extrapolated and rec.accepted
        assert len(seen) == 2 and all(_same_bits(th, theta_e) for th in seen)
        assert rec.surrogate <= comp.f_N(theta_e) < st.f
        assert nxt.t == 3 and nxt.prev is st.theta

    @pytest.mark.parametrize("prev",
                             ["path", "theta_k", -np.finfo(float).max, np.inf])
    def test_failed_extrapolation_is_the_plain_step(self, prev):
        # the step equals the one from the same iterate with no theta_{k-1},
        # bit for bit, and runs at t = 1, so the next iterate has t = 2.
        # "path" is the path's own extrapolation, which raises f_N.  From the
        # kept one's iterate: theta_{k-1} = theta_k gives theta_e = theta_k,
        # whose f_N is not lower; one of -max gives a finite theta_e whose
        # objective overflows to NaN, and one of inf a theta_e of -inf
        comp, cfg, c, sn_cfg, states = self._path()
        if prev == "path":
            st = states[1]
            assert st.t == 2
        elif prev == "theta_k":
            st = dataclasses.replace(states[2], prev=states[2].theta.copy())
        else:
            st = dataclasses.replace(states[2], prev=np.full(comp.m, prev))
        nxt, rec, _ = self._step(comp, cfg, c, sn_cfg, st)
        plain, plain_rec, _ = self._step(
            comp, cfg, c, sn_cfg, dataclasses.replace(st, prev=None, t=1))
        assert not rec.extrapolated and rec == plain_rec
        assert _same_bits(nxt.theta, plain.theta)
        assert nxt.t == plain.t == 2

    def test_random_rejection_at_theta_e_keeps_it(self, monkeypatch):
        # the third solve, at the path's first kept theta_e, is made to fail
        # the acceptance test; the rejection keeps theta_e, whose f_N is
        # below theta_k's, so the run goes on from there with t restarted
        comp, cfg, *_, states = self._path()
        calls = []

        def solve(*args, **kwargs):
            res = sn_solve(*args, **kwargs)
            calls.append(res)
            if len(calls) == 3:
                res.value = np.inf
            return res

        monkeypatch.setattr(mm, "sn_solve", solve)
        rep = mm.run(comp, dataclasses.replace(cfg, tol_rel=0.0, max_outer=6),
                     states[0].theta)
        rejected = rep.trace[2]
        assert not rejected.accepted and rejected.extrapolated
        assert rejected.f_N < rep.trace[1].f_N
        assert rejected.surrogate == pytest.approx(rejected.f_N, rel=1e-12)
        assert rep.iterations == 6 and not rep.trace[3].extrapolated


class TestRun:
    def test_convex_case_matches_ols(self):
        # k1 = k2 = 1 without regularization is smooth least squares
        prob, comp = random_instance(4, N=20, k1=1, k2=1)
        w, b = pwa.ols_fit(prob.dataset)
        res = prob.dataset.y - (prob.dataset.X @ w + b)
        f_ols = 0.5 * float(np.mean(res ** 2))
        cfg = mm.MMConfig(variant="full", tol_rel=1e-15, max_outer=2000,
                          sn_tol_floor=1e-12)
        rep = mm.run(comp, cfg, np.zeros(prob.m))
        assert rep.f_N == pytest.approx(f_ols, rel=1e-6)

    def test_loose_tolerance_one_iteration(self):
        prob, comp = random_instance(5, N=6, k1=2, k2=2)
        cfg = mm.MMConfig(variant="one", tol_rel=np.inf)
        rep = mm.run(comp, cfg, np.zeros(prob.m))
        assert rep.iterations == 1 and rep.reason == "tolerance"

    def test_random_rejection_stops_the_run(self, monkeypatch):
        # a draw rejected at theta_k keeps theta_k, so f_N does not change
        # and the run stops on tolerance there, even at tol_rel = 0.  The
        # third solve's value is raised to +inf so that its draw cannot
        # decrease the surrogate; its step is not extrapolated
        calls = []

        def solve(*args, **kwargs):
            res = sn_solve(*args, **kwargs)
            calls.append(res.theta)
            if len(calls) >= 3:
                res.value = np.inf
            return res

        monkeypatch.setattr(mm, "sn_solve", solve)
        prob, comp = random_instance(6, N=8, k1=2, k2=2)
        cfg = mm.MMConfig(variant="random", tol_rel=0.0, max_outer=50, seed=3)
        rep = mm.run(comp, cfg, np.random.default_rng(6).normal(size=prob.m))
        assert rep.reason == "tolerance" and rep.iterations == 3
        assert [r.accepted for r in rep.trace] == [True, True, False]
        assert not rep.trace[2].extrapolated
        assert rep.trace[2].f_N == rep.trace[1].f_N
        assert np.array_equal(rep.theta, calls[1])

    def test_trace_invariants(self):
        for variant in ("full", "one", "random"):
            prob, comp = random_instance(6, N=8, k1=2, k2=2)
            cfg = mm.MMConfig(variant=variant, tol_rel=1e-6, max_outer=100,
                              seed=3, sn_tol_floor=1e-10)
            rep = mm.run(comp, cfg, np.random.default_rng(6).normal(size=prob.m))
            surr = [r.surrogate for r in rep.trace]
            for a, b in zip(surr, surr[1:]):
                assert b <= a + 1e-8
            # domination holds up to the inexactness of the inner solves,
            # which stop on their gap exit
            for r in rep.trace:
                assert r.surrogate >= r.f_N - 1e-5

    def test_inexact_solves_keep_a_majorant(self):
        # at a loose inner tolerance a solve's r and s miss psi; lifted to
        # r >= psi >= s, every trace row's surrogate majorizes f_N exactly
        # and no accepted step raises it
        ds, _ = pwa.synth_example2(400, 0)
        prob = pwa.PWAProblem(ds, k1=2, k2=2)
        comp = pwa.assemble(prob)
        for start in range(10):
            th0 = pwa.init_sampler(prob, "gaussian", np.random.default_rng([0, start]))
            cfg = mm.MMConfig(sn_tol_floor=1e-4, tol_rel=1e-6, seed=start)
            rep = mm.run(comp, cfg, th0)
            prev = comp.f_N(th0)
            for r in rep.trace:
                assert r.f_N <= r.surrogate
                if r.accepted:
                    assert r.surrogate <= prev
                prev = r.surrogate

    def test_iterate_feasibility(self):
        # f_N stays finite along the accepted path and ends below its start
        prob, comp = random_instance(7, N=8, k1=3, k2=2)
        cfg = mm.MMConfig(variant="full", tol_rel=1e-6, max_outer=60)
        rep = mm.run(comp, cfg, np.zeros(prob.m))
        assert all(np.isfinite(r.f_N) for r in rep.trace)
        assert rep.f_N <= comp.f_N(np.zeros(prob.m)) + 1e-10

    def test_variant_contract_singleton_sets(self):
        # with a unique argmax pair throughout, all variants take the same path
        prob, comp = random_instance(8, N=5, k1=2, k2=1)
        th0 = np.random.default_rng(8).normal(size=prob.m)
        reps = {}
        for variant in ("full", "one", "random"):
            cfg = mm.MMConfig(variant=variant, eps=1e-12, tol_rel=1e-8,
                              max_outer=15, seed=0)
            reps[variant] = mm.run(comp, cfg, th0)
        f_full = [r.f_N for r in reps["full"].trace]
        for v in ("one", "random"):
            f_v = [r.f_N for r in reps[v].trace]
            n = min(len(f_full), len(f_v))
            assert np.allclose(f_full[:n], f_v[:n], atol=1e-7)

    def test_every_solve_has_the_gap_exit(self, monkeypatch):
        # all three variants hold every MM solve to the same gap exit, and
        # each step's record carries the gap of its chosen solve
        solves = []

        def solve(sub, warm=None, cfg=None):
            res = sn_solve(sub, warm=warm, cfg=cfg)
            solves.append((cfg, res))
            return res

        monkeypatch.setattr(mm, "sn_solve", solve)
        ds, _ = pwa.synth_example2(200, 0)
        prob = pwa.PWAProblem(ds, k1=2, k2=2)
        comp = pwa.assemble(prob)
        th0 = pwa.init_sampler(prob, "gaussian", np.random.default_rng([0, 0]))
        for variant in ("full", "one", "random"):
            solves.clear()
            rep = mm.run(comp, mm.MMConfig(variant=variant, max_outer=20), th0)
            assert solves and all(cfg.gap_rel == mm._GAP_REL for cfg, _ in solves)
            # a solve that stopped on the gap reports it
            on_gap = [res for cfg, res in solves if res.kkt_residual > cfg.tol_grad
                      and res.converged]
            assert on_gap and all(res.gap is not None for res in on_gap), variant
            if variant != "full":
                assert [r.sn_gap for r in rep.trace] == [res.gap for _, res in solves]

    def test_nonfinite_start_rejected(self):
        prob, comp = random_instance(9, N=4, k1=2, k2=1)
        th0 = np.zeros(prob.m)
        th0[0] = np.nan
        with pytest.raises(ValueError):
            mm.run(comp, mm.MMConfig(), th0)

    def test_report_residual_kinds(self):
        prob, comp = random_instance(10, N=4, k1=2, k2=1)
        # mm.run leaves the residual to the certificate
        cfg1 = mm.MMConfig(variant="one", tol_rel=1e-6, max_outer=200)
        cert1 = stationarity.certify(comp, mm.run(comp, cfg1, np.zeros(prob.m)).theta, cfg1)
        assert cert1.kind == "weak_mstat" and cert1.residual is not None
        cfg2 = mm.MMConfig(variant="full", tol_rel=1e-6, max_outer=200)
        cert2 = stationarity.certify(comp, mm.run(comp, cfg2, np.zeros(prob.m)).theta, cfg2)
        assert cert2.kind == "dstat"
        assert cert2.coverage == 1.0
