import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwafit.funcs import (
    DcRegularizer,
    DiffMaxFunction,
    MaxFunction,
    MonotoneSplit,
    SmoothConvexAtom,
    UnivariateConvexLoss,
    composite_dir,
    diffmax_dir,
    eps_argmax,
    majorant_value,
    max_eval,
    monotone_split,
    zero_atom,
)
from oracles import fd_dir, fd_grad, prox_bisect, prox_oracle


def affine(w, b=0.0):
    return SmoothConvexAtom(np.atleast_1d(np.asarray(w, dtype=float)), b)


def scalar_max(*slopes_offsets):
    return MaxFunction(tuple(affine([a], b) for a, b in slopes_offsets))


TWO_LINES = scalar_max((2.0, 0.0), (1.5, 0.0))

EXAMPLE1_ATOMS = MaxFunction(tuple(affine(w) for w in
                                   [[1, 1], [1, -1], [-2, 1], [-2, -1]]))


class TestMaxEval:
    def test_tied_lines_at_origin(self):
        val, arg = max_eval(TWO_LINES, np.array([0.0]))
        assert val == 0.0 and arg == [1, 2]

    def test_single_atom(self):
        f = MaxFunction((affine([3.0], 1.0),))
        val, arg = max_eval(f, np.array([2.0]))
        assert val == 7.0 and arg == [1]

    def test_example1_coefficients(self):
        # max{2, 0, -1, -3} at x = (1, 1)
        val, arg = max_eval(EXAMPLE1_ATOMS, np.array([1.0, 1.0]))
        assert val == 2.0 and arg == [1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            max_eval(TWO_LINES, np.array([0.0, 1.0]))


class TestEpsArgmax:
    def test_expansion_captures_near_max(self):
        assert eps_argmax(TWO_LINES, np.array([1.0]), 0.6) == [1, 2]

    def test_tight_eps_excludes(self):
        assert eps_argmax(TWO_LINES, np.array([1.0]), 0.1) == [1]

    def test_huge_eps_gives_all(self):
        f = EXAMPLE1_ATOMS
        assert eps_argmax(f, np.array([1.0, 1.0]), 100.0) == [1, 2, 3, 4]

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            eps_argmax(TWO_LINES, np.array([0.0]), 0.0)


class TestDiffmaxDir:
    def test_absolute_value(self):
        psi = DiffMaxFunction(scalar_max((1, 0), (-1, 0)), MaxFunction((zero_atom(1),)))
        assert diffmax_dir(psi, np.array([0.0]), np.array([1.0])) == 1.0

    def test_t_minus_relu(self):
        psi = DiffMaxFunction(scalar_max((1, 0)), scalar_max((0, 0), (2, 0)))
        assert diffmax_dir(psi, np.array([0.0]), np.array([1.0])) == -1.0
        assert diffmax_dir(psi, np.array([0.0]), np.array([-1.0])) == -1.0

    def test_matches_forward_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = MaxFunction(tuple(affine(rng.normal(size=2), rng.normal())
                                  for _ in range(3)))
            h = MaxFunction(tuple(affine(rng.normal(size=2), rng.normal())
                                  for _ in range(2)))
            psi = DiffMaxFunction(g, h)
            th = rng.normal(size=2)
            v = rng.normal(size=2)
            num = fd_dir(lambda x: psi.value(x), th, v)
            assert diffmax_dir(psi, th, v) == pytest.approx(num, abs=1e-4)


class TestMonotoneSplit:
    def test_squared_construction(self):
        sp = monotone_split(UnivariateConvexLoss("squared", y=0.0))
        assert sp.up(1.0) == 0.5 and sp.down(1.0) == 0.0
        assert sp.up(-1.0) == 0.0 and sp.down(-1.0) == 0.5

    def test_quantile_construction(self):
        sp = monotone_split(UnivariateConvexLoss("quantile", y=0.0, tau=0.5))
        assert sp.up(2.0) == 1.0 and sp.down(-2.0) == 1.0

    @given(st.floats(-50, 50), st.floats(-5, 5),
           st.sampled_from(["squared", "quantile"]))
    @settings(max_examples=200)
    def test_split_identity(self, t, y, kind):
        loss = UnivariateConvexLoss(kind, y=y, tau=0.3 if kind == "quantile" else None)
        sp = monotone_split(loss)
        assert sp.up(t) + sp.down(t) == pytest.approx(loss.value(t), abs=1e-12)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-3, 3))
    @settings(max_examples=200)
    def test_monotonicity(self, t1, t2, y):
        sp = monotone_split(UnivariateConvexLoss("squared", y=y))
        lo, hi = min(t1, t2), max(t1, t2)
        assert sp.up(hi) >= sp.up(lo) - 1e-12
        assert sp.down(hi) <= sp.down(lo) + 1e-12

    def test_constant_regions(self):
        sp = monotone_split(UnivariateConvexLoss("squared", y=1.5))
        assert sp.up(-3.0) == sp.up(1.5) == 0.0
        assert sp.down(2.0) == sp.down(7.0) == 0.0

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            MonotoneSplit("huber", y=0.0)

    def test_linear_split_signs(self):
        sp = MonotoneSplit("linear", up_slope=2.0, down_slope=-1.0)
        assert sp.phi(3.0) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            MonotoneSplit("linear", up_slope=-1.0, down_slope=0.0)


class TestCompositeDir:
    def _abs(self):
        return DiffMaxFunction(scalar_max((1, 0), (-1, 0)), MaxFunction((zero_atom(1),)))

    def test_smooth_chain_rule(self):
        sp = monotone_split(UnivariateConvexLoss("squared", y=0.0))
        psi = DiffMaxFunction(scalar_max((1, 0)), MaxFunction((zero_atom(1),)))
        assert composite_dir(sp, psi, np.array([3.0]), np.array([1.0])) == 3.0

    def test_kink_with_flat_loss(self):
        sp = monotone_split(UnivariateConvexLoss("squared", y=0.0))
        assert composite_dir(sp, self._abs(), np.array([0.0]), np.array([1.0])) == 0.0
        assert composite_dir(sp, self._abs(), np.array([0.0]), np.array([-1.0])) == 0.0

    def test_quantile_kink(self):
        sp = monotone_split(UnivariateConvexLoss("quantile", y=0.0, tau=0.5))
        assert composite_dir(sp, self._abs(), np.array([0.0]),
                             np.array([1.0])) == pytest.approx(0.5)

    def test_matches_forward_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = MaxFunction(tuple(affine(rng.normal(size=2), rng.normal())
                                  for _ in range(2)))
            h = MaxFunction(tuple(affine(rng.normal(size=2), rng.normal())
                                  for _ in range(2)))
            psi = DiffMaxFunction(g, h)
            sp = monotone_split(UnivariateConvexLoss("squared", y=rng.normal()))
            th, v = rng.normal(size=2), rng.normal(size=2)
            num = fd_dir(lambda x: float(sp.phi(psi.value(x))), th, v)
            assert composite_dir(sp, psi, th, v) == pytest.approx(num, abs=1e-4)


def random_diffmax(rng, d=2, k1=2, k2=2):
    g = MaxFunction(tuple(affine(rng.normal(size=d), rng.normal()) for _ in range(k1)))
    h = MaxFunction(tuple(affine(rng.normal(size=d), rng.normal()) for _ in range(k2)))
    return DiffMaxFunction(g, h)


class TestMajorant:
    def test_touching_at_anchor(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            psi = random_diffmax(rng)
            sp = monotone_split(UnivariateConvexLoss("squared", y=rng.normal()))
            th = rng.normal(size=2)
            _, a1 = max_eval(psi.g, th)
            _, a2 = max_eval(psi.h, th)
            m = majorant_value(sp, psi, (a1[0], a2[0]), th, th)
            assert m == pytest.approx(float(sp.phi(psi.value(th))), abs=1e-12)

    def test_dominates_on_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            psi = random_diffmax(rng)
            sp = monotone_split(UnivariateConvexLoss("squared", y=rng.normal()))
            th_bar = rng.normal(size=2)
            _, a1 = max_eval(psi.g, th_bar)
            _, a2 = max_eval(psi.h, th_bar)
            for _ in range(40):
                th = th_bar + rng.normal(size=2) * 2.0
                m = majorant_value(sp, psi, (a1[0], a2[0]), th, th_bar)
                assert m >= float(sp.phi(psi.value(th))) - 1e-10

    def test_affine_case_exact(self):
        rng = np.random.default_rng(2)
        psi = random_diffmax(rng, k1=1, k2=1)
        sp = monotone_split(UnivariateConvexLoss("squared", y=0.3))
        th_bar = rng.normal(size=2)
        for _ in range(10):
            th = rng.normal(size=2) * 3.0
            m = majorant_value(sp, psi, (1, 1), th, th_bar)
            assert m == pytest.approx(float(sp.phi(psi.value(th))), abs=1e-10)

    def test_index_out_of_range(self):
        psi = random_diffmax(np.random.default_rng(3))
        sp = monotone_split(UnivariateConvexLoss("squared", y=0.0))
        with pytest.raises(IndexError):
            majorant_value(sp, psi, (5, 1), np.zeros(2), np.zeros(2))

    def test_sandwich_with_feasible_r_s(self):
        # phi_up(r) + phi_down(s) >= M >= Psi for (theta, r, s) in the
        # constraint set of the selected pair, equality at r = s = psi(theta)
        rng = np.random.default_rng(4)
        for _ in range(30):
            psi = random_diffmax(rng)
            sp = monotone_split(UnivariateConvexLoss("squared", y=rng.normal()))
            th_bar = rng.normal(size=2)
            _, a1 = max_eval(psi.g, th_bar)
            _, a2 = max_eval(psi.h, th_bar)
            i1, i2 = a1[0], a2[0]
            d = lambda th: th - th_bar
            for _ in range(20):
                th = th_bar + rng.normal(size=2)
                lin_h = psi.h.value(th_bar) + psi.h.atoms[i2 - 1].grad(th_bar) @ d(th)
                lin_g = psi.g.value(th_bar) + psi.g.atoms[i1 - 1].grad(th_bar) @ d(th)
                r = psi.g.value(th) - lin_h + abs(rng.normal())
                s = lin_g - psi.h.value(th) - abs(rng.normal())
                m = majorant_value(sp, psi, (i1, i2), th, th_bar)
                assert float(sp.up(r) + sp.down(s)) >= m - 1e-10
                assert m >= float(sp.phi(psi.value(th))) - 1e-10
                v = psi.value(th)
                assert float(sp.up(v) + sp.down(v)) == pytest.approx(
                    float(sp.phi(v)), abs=1e-12)


class TestGradients:
    def test_atom_gradients_match_fd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            Qh = rng.normal(size=(3, 3))
            atom = SmoothConvexAtom(rng.normal(size=3), rng.normal(), Q=Qh @ Qh.T)
            for _ in range(5):
                x = rng.normal(size=3)
                num = fd_grad(atom.value, x)
                ref = atom.grad(x)
                assert np.allclose(ref, num, rtol=1e-6, atol=1e-6)

    def test_scad_smooth_gradient_matches_fd(self):
        reg = DcRegularizer(weights=np.full(4, 0.7), gamma=1.0, smooth="scad")
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.normal(size=4) * 3.0
            # keep away from the (measure-zero) junction points
            x = np.where(np.isclose(np.abs(x), 0.7, atol=1e-3), x + 0.01, x)
            x = np.where(np.isclose(np.abs(x), 3.7 * 0.7, atol=1e-3), x + 0.01, x)
            num = fd_grad(lambda t: float(reg.p_value(t).sum()), x)
            assert np.allclose(reg.p_grad(x), num, rtol=1e-5, atol=1e-6)


class TestRegularizerMajorant:
    def test_disabled(self):
        reg0 = DcRegularizer(weights=np.ones(3), gamma=0.0, smooth="scad")
        t, lin, const = reg0.majorant_data(np.array([1.0, -4.0, 0.5]))
        assert not t.any() and not lin.any() and const == 0.0
        assert reg0.majorant_value(np.ones(3), np.zeros(3)) == 0.0

    def test_pure_l1(self):
        reg = DcRegularizer(weights=np.ones(3), gamma=1.0)
        th = np.array([1.0, -2.0, 0.5])
        t, lin, const = reg.majorant_data(np.zeros(3))
        assert np.allclose(t, 1.0) and not lin.any() and const == 0.0
        assert reg.majorant_value(th, np.zeros(3)) == pytest.approx(3.5)

    def test_scad_majorizes_and_touches(self):
        reg = DcRegularizer(weights=np.full(2, 0.8), gamma=0.6, smooth="scad")
        rng = np.random.default_rng(8)
        for _ in range(30):
            th_bar = rng.normal(size=2) * 3.0
            assert reg.majorant_value(th_bar, th_bar) == pytest.approx(
                reg.value(th_bar), abs=1e-12)
            for _ in range(20):
                th = rng.normal(size=2) * 4.0
                assert reg.majorant_value(th, th_bar) >= reg.value(th) - 1e-10

    def test_scad_smooth_part_convex_on_grid(self):
        reg = DcRegularizer(weights=np.array([1.0]), gamma=1.0, smooth="scad")
        t = np.linspace(-8, 8, 3001)
        p = reg.p_value(t)
        second = np.diff(p, 2)
        assert second.min() >= -1e-9


class TestProx:
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.2, 5),
           st.floats(0.1, 2), st.floats(-2, 2))
    @settings(max_examples=80, deadline=None)
    def test_prox_up_squared_matches_oracle(self, tilt, anchor, c, w, y):
        sp = MonotoneSplit("squared", y=y)
        ref = prox_bisect(lambda t: max(t - y, 0.0), tilt, anchor, c, w, sign=-1.0)
        assert float(sp.prox_up(tilt, anchor, c, w)) == pytest.approx(ref, abs=1e-8)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.2, 5),
           st.floats(0.1, 2), st.floats(-2, 2))
    @settings(max_examples=80, deadline=None)
    def test_prox_down_squared_matches_oracle(self, tilt, anchor, c, w, y):
        sp = MonotoneSplit("squared", y=y)
        ref = prox_bisect(lambda t: min(t - y, 0.0), tilt, anchor, c, w, sign=+1.0)
        assert float(sp.prox_down(tilt, anchor, c, w)) == pytest.approx(ref, abs=1e-8)

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.3, 4),
           st.floats(0.1, 2), st.floats(-1, 1), st.floats(0.1, 0.9))
    @settings(max_examples=80, deadline=None)
    def test_prox_quantile_matches_oracle(self, tilt, anchor, c, w, y, tau):
        sp = MonotoneSplit("quantile", y=y, tau=tau)
        up = prox_bisect(lambda t: tau if t >= y else 0.0,
                         tilt, anchor, c, w, sign=-1.0)
        dn = prox_bisect(lambda t: (tau - 1.0) if t < y else 0.0,
                         tilt, anchor, c, w, sign=+1.0)
        assert float(sp.prox_up(tilt, anchor, c, w)) == pytest.approx(up, abs=1e-8)
        assert float(sp.prox_down(tilt, anchor, c, w)) == pytest.approx(dn, abs=1e-8)

    def test_golden_section_cross_check(self):
        # function-value search confirms the same minimizers at its accuracy
        sp = MonotoneSplit("squared", y=0.5)
        ref = prox_oracle(lambda t: float(sp.up(t)), 0.8, -0.2, 1.3, 0.7, sign=-1.0)
        assert float(sp.prox_up(0.8, -0.2, 1.3, 0.7)) == pytest.approx(ref, abs=5e-6)

    def test_second_branch_closed_form(self):
        # squared y=0, tilt=1, c=1, anchor=0 -> (0 + 1 + 0) / (1 + 1) = 0.5
        sp = MonotoneSplit("squared", y=0.0)
        assert float(sp.prox_up(1.0, 0.0, 1.0, 1.0)) == pytest.approx(0.5)

    def test_flat_region_fixed_point(self):
        sp = MonotoneSplit("squared", y=2.0)
        assert float(sp.prox_up(0.0, 1.0, 3.0)) == 1.0

    def test_linear_prox(self):
        sp = MonotoneSplit("linear", up_slope=2.0, down_slope=-1.0)
        ref = prox_bisect(lambda t: 2.0, 0.7, 0.3, 1.5, 1.0, sign=-1.0)
        assert float(sp.prox_up(0.7, 0.3, 1.5, 1.0)) == pytest.approx(ref, abs=1e-8)

    def test_sensitivities_match_fd(self):
        rng = np.random.default_rng(9)
        for kind in ("squared", "quantile"):
            sp = MonotoneSplit(kind, y=0.4, tau=0.3 if kind == "quantile" else None)
            for _ in range(40):
                tilt, anchor = rng.normal(size=2)
                c, w = rng.uniform(0.3, 3), rng.uniform(0.2, 2)
                h = 1e-6
                fd_up = (sp.prox_up(tilt + h, anchor, c, w)
                         - sp.prox_up(tilt - h, anchor, c, w)) / (2 * h)
                fd_dn = -(sp.prox_down(tilt + h, anchor, c, w)
                          - sp.prox_down(tilt - h, anchor, c, w)) / (2 * h)
                # only check away from prox kinks, where the two-sided
                # difference sits on a single smooth branch
                up_branch_stable = float(sp.prox_up_sens(tilt - h, anchor, c, w)) \
                    == float(sp.prox_up_sens(tilt + h, anchor, c, w))
                dn_branch_stable = float(sp.prox_down_sens(tilt - h, anchor, c, w)) \
                    == float(sp.prox_down_sens(tilt + h, anchor, c, w))
                if up_branch_stable:
                    assert float(sp.prox_up_sens(tilt, anchor, c, w)) == pytest.approx(
                        float(fd_up), abs=1e-4)
                if dn_branch_stable:
                    assert float(sp.prox_down_sens(tilt, anchor, c, w)) == pytest.approx(
                        float(fd_dn), abs=1e-4)
