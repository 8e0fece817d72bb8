import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pwafit import cli, mm
from pwafit.funcs import TIE_TOL, DcRegularizer, MonotoneSplit
from oracles import (LinearSplit, composite_dir, diffmax_dir, down_direct, fd_dir,
                     fd_grad, loss_value, majorant, one_sample_problem, prox_bisect,
                     prox_down_direct, prox_down_sens_direct, prox_oracle)


def diffmax(g_atoms, h_atoms=None, split=None):
    """One-sample problem psi = max_i w_i . theta - max_j v_j . theta from the
    atom gradients w_i and v_j; no h atoms is the all-zero atom of an empty
    max."""
    U = np.array(g_atoms, dtype=float).reshape(len(g_atoms), -1)
    W = (np.zeros((1, U.shape[1])) if h_atoms is None
         else np.array(h_atoms, dtype=float).reshape(len(h_atoms), -1))
    return one_sample_problem(U, W, split or MonotoneSplit("squared", y=0.0))


def psi_value(comp, theta) -> float:
    return float(comp.psi(theta)[2][0])


def g_max(comp, theta, eps=TIE_TOL):
    """Value of g and its eps-argmax atoms (1-based), from the package's masks."""
    m1, _ = comp.argmax_masks(theta, eps)
    return float(comp.psi(theta)[0][0]), [int(i) + 1 for i in np.flatnonzero(m1[0])]


def first_argmax_pair(comp, theta):
    m1, m2 = comp.argmax_masks(theta)
    return int(m1[0].argmax()), int(m2[0].argmax())


TWO_LINES = diffmax([2.0, 1.5])

EXAMPLE1_ATOMS = diffmax([[1, 1], [1, -1], [-2, 1], [-2, -1]])


class TestMaxEval:
    def test_tied_lines_at_origin(self):
        val, arg = g_max(TWO_LINES, np.array([0.0]))
        assert val == 0.0 and arg == [1, 2]

    def test_single_atom(self):
        f = diffmax([3.0])
        val, arg = g_max(f, np.array([2.0]))
        assert val == 6.0 and arg == [1]

    def test_example1_coefficients(self):
        # max{2, 0, -1, -3} at x = (1, 1)
        val, arg = g_max(EXAMPLE1_ATOMS, np.array([1.0, 1.0]))
        assert val == 2.0 and arg == [1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            TWO_LINES.atom_values(np.array([0.0, 1.0]))


class TestEpsArgmax:
    def test_expansion_captures_near_max(self):
        assert g_max(TWO_LINES, np.array([1.0]), 0.6)[1] == [1, 2]

    def test_tight_eps_excludes(self):
        assert g_max(TWO_LINES, np.array([1.0]), 0.1)[1] == [1]

    def test_huge_eps_gives_all(self):
        f = EXAMPLE1_ATOMS
        assert g_max(f, np.array([1.0, 1.0]), 100.0)[1] == [1, 2, 3, 4]

    def test_nonpositive_eps_rejected(self, tmp_path):
        # a negative expansion is a config error; eps = 0 is the exact argmax
        (tmp_path / "c.json").write_text('{"synth": {"example": 1}, "eps": -1e-4}')
        with pytest.raises(cli.ConfigError, match="eps"):
            cli.load_config(str(tmp_path / "c.json"), "fit")
        assert g_max(TWO_LINES, np.array([0.0]), 0.0)[1] == [1, 2]


def random_diffmax(rng, d=2, k1=2, k2=2):
    return diffmax(rng.normal(size=(k1, d)), rng.normal(size=(k2, d)))


def with_loss(comp, kind="squared", y=0.0, tau=None):
    return dataclasses.replace(comp, split=MonotoneSplit(kind, y=y, tau=tau))


class TestDiffmaxDir:
    def test_absolute_value(self):
        psi = diffmax([1, -1])
        assert diffmax_dir(psi, np.array([0.0]), np.array([1.0])) == 1.0

    def test_t_minus_relu(self):
        psi = diffmax([1], [0, 2])
        assert diffmax_dir(psi, np.array([0.0]), np.array([1.0])) == -1.0
        assert diffmax_dir(psi, np.array([0.0]), np.array([-1.0])) == -1.0

    def test_matches_forward_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            psi = random_diffmax(rng, k1=3, k2=2)
            th = rng.normal(size=2)
            v = rng.normal(size=2)
            num = fd_dir(lambda x: psi_value(psi, x), th, v)
            assert diffmax_dir(psi, th, v) == pytest.approx(num, abs=1e-4)


class TestMonotoneSplit:
    def test_squared_construction(self):
        sp = MonotoneSplit("squared", y=0.0)
        assert sp.up(1.0) == 0.5 and sp.down(1.0) == 0.0
        assert sp.up(-1.0) == 0.0 and sp.down(-1.0) == 0.5

    def test_quantile_construction(self):
        sp = MonotoneSplit("quantile", y=0.0, tau=0.5)
        assert sp.up(2.0) == 1.0 and sp.down(-2.0) == 1.0

    @given(st.floats(-50, 50), st.floats(-5, 5),
           st.sampled_from(["squared", "quantile"]))
    @settings(max_examples=200)
    def test_split_identity(self, t, y, kind):
        tau = 0.3 if kind == "quantile" else None
        sp = MonotoneSplit(kind, y=y, tau=tau)
        assert sp.up(t) + sp.down(t) == pytest.approx(loss_value(kind, t, y, tau),
                                                      abs=1e-12)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-3, 3))
    @settings(max_examples=200)
    def test_monotonicity(self, t1, t2, y):
        sp = MonotoneSplit("squared", y=y)
        lo, hi = min(t1, t2), max(t1, t2)
        assert sp.up(hi) >= sp.up(lo) - 1e-12
        assert sp.down(hi) <= sp.down(lo) + 1e-12

    # dyadic values make exact ties (t = y, zero tilt, prox kinks) common
    _GRID = st.sampled_from([-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0])

    @given(st.sampled_from(["squared", "quantile"]),
           st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.01, 0.99)),
           st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 5)),
           st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 2)),
           st.lists(st.tuples(*[st.one_of(_GRID, st.floats(-3, 3))] * 4),
                    min_size=1, max_size=6))
    # rows (y, t, tilt, anchor) on the kinks: t = y, zero tilt, the flat
    # prox branch ending at y and (quantile) the slope branch ending at y
    @example("quantile", 0.5, 1.0, 1.0, [(0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.5, 0.0)])
    @example("squared", None, 1.0, 1.0, [(0.5, 0.5, 0.0, 0.5), (0.0, -1.0, 1.0, 1.0)])
    @settings(max_examples=300, deadline=None)
    def test_down_maps_equal_direct_formulas(self, kind, tau, c, w, rows):
        # the mirrored up half reproduces the direct down formulas exactly
        y, t, tilt, anchor = (np.array(col) for col in zip(*rows))
        sp = MonotoneSplit(kind, y=y, tau=tau if kind == "quantile" else None)
        assert np.array_equal(sp.down(t), down_direct(sp, t))
        assert np.array_equal(sp.prox_down(tilt, anchor, c, w),
                              prox_down_direct(sp, tilt, anchor, c, w))
        assert np.array_equal(sp.prox_down_sens(tilt, anchor, c, w),
                              prox_down_sens_direct(sp, tilt, anchor, c, w))

    def test_constant_regions(self):
        sp = MonotoneSplit("squared", y=1.5)
        assert sp.up(-3.0) == sp.up(1.5) == 0.0
        assert sp.down(2.0) == sp.down(7.0) == 0.0

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            MonotoneSplit("huber", y=0.0)

    def test_linear_split_signs(self):
        # the oracles' linear split, which the d-stationarity counterexample uses
        sp = LinearSplit(up_slope=2.0, down_slope=-1.0)
        assert sp.phi(3.0) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            LinearSplit(up_slope=-1.0, down_slope=0.0)
        with pytest.raises(ValueError):
            MonotoneSplit("linear", y=0.0)


class TestCompositeDir:
    def _abs(self, **loss):
        return with_loss(diffmax([1, -1]), **loss)

    def test_smooth_chain_rule(self):
        psi = diffmax([1])
        assert composite_dir(psi, np.array([3.0]), np.array([1.0])) == 3.0

    def test_kink_with_flat_loss(self):
        assert composite_dir(self._abs(), np.array([0.0]), np.array([1.0])) == 0.0
        assert composite_dir(self._abs(), np.array([0.0]), np.array([-1.0])) == 0.0

    def test_quantile_kink(self):
        assert composite_dir(self._abs(kind="quantile", tau=0.5), np.array([0.0]),
                             np.array([1.0])) == pytest.approx(0.5)

    def test_matches_forward_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            psi = with_loss(random_diffmax(rng), y=rng.normal())
            sp = psi.split
            th, v = rng.normal(size=2), rng.normal(size=2)
            num = fd_dir(lambda x: float(sp.phi(psi_value(psi, x))), th, v)
            assert composite_dir(psi, th, v) == pytest.approx(num, abs=1e-4)


class TestMajorant:
    def test_touching_at_anchor(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            psi = with_loss(random_diffmax(rng), y=rng.normal())
            th = rng.normal(size=2)
            m = majorant(psi, first_argmax_pair(psi, th), th, th)
            assert m == pytest.approx(float(psi.split.phi(psi_value(psi, th))),
                                      abs=1e-12)

    def test_dominates_on_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            psi = with_loss(random_diffmax(rng), y=rng.normal())
            th_bar = rng.normal(size=2)
            pair = first_argmax_pair(psi, th_bar)
            for _ in range(40):
                th = th_bar + rng.normal(size=2) * 2.0
                m = majorant(psi, pair, th, th_bar)
                assert m >= float(psi.split.phi(psi_value(psi, th))) - 1e-10

    def test_affine_case_exact(self):
        rng = np.random.default_rng(2)
        psi = with_loss(random_diffmax(rng, k1=1, k2=1), y=0.3)
        th_bar = rng.normal(size=2)
        for _ in range(10):
            th = rng.normal(size=2) * 3.0
            m = majorant(psi, (0, 0), th, th_bar)
            assert m == pytest.approx(float(psi.split.phi(psi_value(psi, th))),
                                      abs=1e-10)

    def test_index_out_of_range(self):
        # the subproblem that linearizes a pair rejects a g atom past k1
        psi = random_diffmax(np.random.default_rng(3))
        state = mm.init_state(psi, np.zeros(2))
        with pytest.raises(IndexError):
            mm.build_subproblem(psi, state, np.array([4]), np.array([0]), 1.0)

    def test_sandwich_with_feasible_r_s(self):
        # phi_up(r) + phi_down(s) >= M >= Psi for (theta, r, s) in the
        # constraint set of the selected pair, equality at r = s = psi(theta)
        rng = np.random.default_rng(4)
        for _ in range(30):
            psi = with_loss(random_diffmax(rng), y=rng.normal())
            sp = psi.split
            th_bar = rng.normal(size=2)
            i1, i2 = first_argmax_pair(psi, th_bar)
            g_bar, h_bar, _ = (float(a[0]) for a in psi.psi(th_bar))
            for _ in range(20):
                th = th_bar + rng.normal(size=2)
                g, h, v = (float(a[0]) for a in psi.psi(th))
                lin_h = h_bar + psi.W[i2] @ (th - th_bar)
                lin_g = g_bar + psi.U[i1] @ (th - th_bar)
                r = g - lin_h + abs(rng.normal())
                s = lin_g - h - abs(rng.normal())
                m = majorant(psi, (i1, i2), th, th_bar)
                assert float(sp.up(r) + sp.down(s)) >= m - 1e-10
                assert m >= float(sp.phi(v)) - 1e-10
                assert float(sp.up(v) + sp.down(v)) == pytest.approx(
                    float(sp.phi(v)), abs=1e-12)


class TestGradients:
    def test_atom_gradients_match_fd(self):
        # the U/W rows the subproblems linearize with are the atoms' gradients;
        # one g atom and the rows of Qh as three h atoms
        rng = np.random.default_rng(5)
        for _ in range(20):
            Qh = rng.normal(size=(3, 3))
            comp = diffmax(rng.normal(size=(1, 3)), Qh)
            for _ in range(5):
                x = rng.normal(size=3)
                for i, ref in enumerate(np.vstack([comp.U, comp.W])):
                    num = fd_grad(lambda t: np.hstack(comp.atom_values(t))[0, i], x)
                    assert np.allclose(ref, num, rtol=1e-6, atol=1e-6)

    def test_scad_smooth_gradient_matches_fd(self):
        reg = DcRegularizer(weights=np.full(4, 0.7), gamma=1.0, smooth="scad")
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.normal(size=4) * 3.0
            # keep away from the (measure-zero) junction points
            x = np.where(np.isclose(np.abs(x), 0.7, atol=1e-3), x + 0.01, x)
            x = np.where(np.isclose(np.abs(x), 3.7 * 0.7, atol=1e-3), x + 0.01, x)
            num = fd_grad(lambda t: float(reg.smooth_part(t)[0].sum()), x)
            assert np.allclose(reg.smooth_part(x)[1], num, rtol=1e-5, atol=1e-6)


def majorant_value(reg, theta, theta_bar) -> float:
    """gamma * P-hat(theta, theta_bar) from `majorant_data`."""
    t, lin, const = reg.majorant_data(theta_bar)
    return float(t @ np.abs(theta) - lin @ theta + const)


class TestRegularizerMajorant:
    def test_disabled(self):
        reg0 = DcRegularizer(weights=np.ones(3), gamma=0.0, smooth="scad")
        t, lin, const = reg0.majorant_data(np.array([1.0, -4.0, 0.5]))
        assert not t.any() and not lin.any() and const == 0.0
        assert majorant_value(reg0, np.ones(3), np.zeros(3)) == 0.0

    def test_pure_l1(self):
        reg = DcRegularizer(weights=np.ones(3), gamma=1.0)
        th = np.array([1.0, -2.0, 0.5])
        t, lin, const = reg.majorant_data(np.zeros(3))
        assert np.allclose(t, 1.0) and not lin.any() and const == 0.0
        assert majorant_value(reg, th, np.zeros(3)) == pytest.approx(3.5)

    def test_scad_majorizes_and_touches(self):
        reg = DcRegularizer(weights=np.full(2, 0.8), gamma=0.6, smooth="scad")
        rng = np.random.default_rng(8)
        for _ in range(30):
            th_bar = rng.normal(size=2) * 3.0
            assert majorant_value(reg, th_bar, th_bar) == pytest.approx(
                reg.value(th_bar), abs=1e-12)
            for _ in range(20):
                th = rng.normal(size=2) * 4.0
                assert majorant_value(reg, th, th_bar) >= reg.value(th) - 1e-10

    def test_scad_smooth_part_convex_on_grid(self):
        reg = DcRegularizer(weights=np.array([1.0]), gamma=1.0, smooth="scad")
        t = np.linspace(-8, 8, 3001)
        p, _ = reg.smooth_part(t)
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
        sp = LinearSplit(up_slope=2.0, down_slope=-1.0)
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
