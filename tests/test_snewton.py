import copy
import tracemalloc

import numpy as np
import pytest

from pwafit import mm, pwa, snewton
from pwafit.funcs import DcRegularizer, MonotoneSplit
from pwafit.snewton import (SNConfig, _block_sum, _newton_direction,
                            _newton_matrix, sn_solve)
from oracles import (dual_subproblem, enum_subproblem_solve, fd_grad,
                     blocks, feasibility, four_matvec_value_grad,
                     gen_jacobian, golden_min, jacobian_parts, newton_matrix,
                     one_sample_problem, random_instance)

TIGHT = SNConfig(tol_grad=1e-12, max_iter=300)


def make_sub(seed, N=2, k1=2, k2=2, c=0.7, gamma=0.0, smooth="none"):
    prob, comp = random_instance(seed, N=N, k1=k1, k2=k2)
    if gamma > 0:
        comp.reg = DcRegularizer(weights=np.ones(prob.m), gamma=gamma,
                                 smooth=smooth)
    rng = np.random.default_rng(seed + 500)
    th = rng.normal(size=prob.m) * 0.5
    state = mm.init_state(comp, th)
    sels, _ = mm.select_pairs(comp, th, 1e-9, "one")
    return comp, mm.build_subproblem(comp, state, sels[0][0], sels[0][1], c)


def with_changes(sub, **changes):
    """A copy of `sub` with some of its selection's data (l1, lin, reg_const,
    the anchors) replaced.  The copy shares every other array with `sub`,
    work arrays included, so the two are solved one at a time."""
    new = copy.copy(sub)
    vars(new).update(changes)
    return new


def rand_duals(sub, rng, scale=0.5):
    """Stacked multipliers (lambda, mu), lambda drawn first."""
    lam = rng.normal(size=sub.n1) * scale
    mu = rng.normal(size=sub.dual_dim - sub.n1) * scale
    return np.concatenate([lam, mu])


def varied_subproblems():
    """(label, sub) over k1 in {1, 2, 4}, k2 in {0 (the all-zero h atom), 1, 2},
    plain and with an l1 dead zone."""
    for k1 in (1, 2, 4):
        for k2 in (0, 1, 2):
            seed = 60 + 3 * k1 + k2
            comp, sub = make_sub(seed, N=7, k1=k1, k2=k2)
            m = sub.m
            yield f"{k1},{k2}", sub
            # l1 weights far above any aggregate pull: those coordinates stay
            # at zero, so only the other columns of B enter the Newton step
            l1 = np.where(np.arange(m) % 2 == 0, 50.0, 0.0)
            yield f"{k1},{k2} l1", with_changes(sub, l1=l1, theta_nu=np.zeros(m))


def lifted_subproblem(seed=70, k1=3, k2=2, m=5, c=0.7):
    """Subproblem of a one-sample problem whose atom rows are its lifts,
    with atoms other than the first selected."""
    rng = np.random.default_rng(seed)
    comp = one_sample_problem(rng.normal(size=(k1, m)), rng.normal(size=(k2, m)),
                              MonotoneSplit("squared", y=rng.normal()))
    state = mm.init_state(comp, rng.normal(size=m))
    return mm.build_subproblem(comp, state, np.array([k1 - 1]), np.array([1]), c)


class TestBlockSum:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("cols", [None, 1, 12])
    def test_bitwise_equal_to_reshape_sum(self, k, cols):
        rng = np.random.default_rng(k * 31 + (cols or 0))
        N = 500
        shape = (N * k,) if cols is None else (N * k, cols)
        X = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        X[rng.random(shape) < 0.2] = -0.0       # signed zeros sum as numpy's do
        ref = X.reshape(N, k, -1).sum(axis=1) if cols else X.reshape(N, k).sum(axis=1)
        got = _block_sum(X, k)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert not np.shares_memory(got, X)


class TestNewtonDirection:
    @pytest.mark.parametrize("eps", [1e-7, 1e-4, 1e-2])
    def test_solves_regularized_jacobian_system(self, eps):
        rng = np.random.default_rng(9)
        gathered = 0
        for label, sub in varied_subproblems():
            for _ in range(3):
                x = rand_duals(sub, rng)
                _, grad, (th, *_), jac = sub.value_grad(x)
                d = _newton_direction(sub, jac, grad, eps)
                V = gen_jacobian(sub, x) + eps * np.eye(sub.dual_dim)
                rel = np.linalg.norm(V @ d - grad) / np.linalg.norm(grad)
                assert rel <= 1e-8, (label, rel)
                # coordinates held at zero by their l1 weight leave the step
                gathered += 0 < np.sum((sub.l1 > 0) & (th == 0)) < sub.m
        # the dead-zone instances take the gathered-columns path
        assert gathered >= 18


class TestNewtonMatrix:
    # the dense reference solves with Delta, whose rounding error grows like
    # 1 / eps (about 1e-9 of S at eps = 1e-7), so eps stays where it is far
    # below the bound; TestNewtonDirection covers the small eps
    @pytest.mark.parametrize("eps", [1e-3, 1e-1])
    def test_matches_dense_woodbury_matrix(self, eps):
        # S_th from the per-sample atom couplings equals cI + B_act^T
        # Delta^{-1} B_act formed densely, on every varied instance and a
        # lifted one-sample problem
        rng = np.random.default_rng(11)
        for label, sub in [*varied_subproblems(), ("lifted", lifted_subproblem())]:
            for _ in range(3):
                x = rand_duals(sub, rng)
                d_th, rho, sig, slack = jacobian_parts(sub, x)
                act = np.flatnonzero(d_th)
                S = _newton_matrix(sub, slack / sub.c + eps, rho, sig, act)
                ref = newton_matrix(sub, x, eps)
                assert S.shape == ref.shape, label
                assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max(), label


class TestWorkArrays:
    """The MM step's hot path reuses its arrays: no Newton step and no reused
    subproblem build allocates a block a quarter of B's size."""

    @staticmethod
    def _excess_bytes(fn, bufsize=None):
        """Traced peak minus current memory while fn runs, at numpy's ufunc
        buffer size or at `bufsize` elements.

        A ufunc whose operands do not share one memory layout, or that
        broadcasts one, iterates through buffers of up to the buffer size per
        operand, whatever the array sizes.  The Newton step is measured at
        numpy's default of 8 192 elements.  The reused build is measured at
        1 024: it subtracts each sample's chosen gradient from its rows in one
        broadcast ufunc into column-major B, whose buffers alone reach 100 kB
        at the default, above the bound at N = 1000, so its bound holds at the
        shrunken size only, where the measure sees the arrays the code itself
        allocates.
        """
        bufsize = np.setbufsize(np.getbufsize() if bufsize is None else bufsize)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)

    def test_no_block_of_a_quarter_of_B(self):
        # paper example 2 at N = 1000, k1 = k2 = 2: B is 4000 x 12
        ds, _ = pwa.synth_example2(1000, 0)
        comp = pwa.assemble(pwa.PWAProblem(ds, k1=2, k2=2))
        cfg = mm.MMConfig()
        c = cfg.resolve_c(comp)
        rng = np.random.default_rng(0)
        st = mm.init_state(comp, rng.normal(size=comp.m))
        (sel1, sel2), = mm.select_pairs(comp, st.theta, cfg.eps, "random", rng=rng)[0]
        sub = mm.build_subproblem(comp, st, sel1, sel2, c)
        res = sn_solve(sub, cfg=SNConfig(tol_grad=1e-6, max_iter=3))
        _, grad, _, jac = sub.value_grad(res.x)
        limit = sub.B.nbytes / 4
        _newton_direction(sub, jac, grad, 1e-4)
        assert self._excess_bytes(lambda: _newton_direction(sub, jac, grad, 1e-4)) < limit
        # the next MM iterate, with its own selection, rebuilt in place
        nxt = mm.AugmentedIterate(res.theta, res.r, res.s, res.x)
        (sel1, sel2), = mm.select_pairs(comp, nxt.theta, cfg.eps, "random", rng=rng)[0]
        assert self._excess_bytes(lambda: mm.build_subproblem(
            comp, nxt, sel1, sel2, c, reuse=sub), bufsize=1024) < limit


class TestDualValueGrad:
    def test_matches_four_matvec_reference(self):
        rng = np.random.default_rng(10)
        for label, sub in varied_subproblems():
            for scale in (0.1, 1.0, 10.0):
                x = rand_duals(sub, rng, scale)
                v, g, inner, _ = sub.value_grad(x)
                v0, g0, inner0 = four_matvec_value_grad(sub, x[:sub.n1], x[sub.n1:])
                assert abs(v - v0) <= 1e-12 * abs(v0), label
                assert np.abs(g - g0).max() <= 1e-12 * np.abs(g0).max(), label
                # the reference returns the lambda and mu slacks apart
                for a, b in zip(inner, (*inner0[:3], np.concatenate(inner0[3:]))):
                    assert np.allclose(a, b, rtol=1e-12, atol=1e-14), label

    def test_zero_multipliers_residual(self):
        comp, sub = make_sub(0)
        _, g, (th, *_), _ = sub.value_grad(np.zeros(sub.dual_dim))
        # at zero multipliers theta stays at its anchor, slacks at theirs,
        # and r/s move only under the loss prox
        assert np.allclose(th, sub.theta_nu)
        r = sub.split.prox_up(np.zeros(sub.n_samples), sub.r_nu, sub.c, sub.weight)
        s = sub.split.prox_down(np.zeros(sub.n_samples), sub.s_nu, sub.c, sub.weight)
        B1, B2, rhat_nu, shat_nu = blocks(sub)
        exp1 = B1 @ th - np.repeat(r, sub.k1) + rhat_nu - sub.beta[:sub.n1]
        exp2 = B2 @ th + np.repeat(s, sub.k2) + shat_nu - sub.beta[sub.n1:]
        assert np.allclose(g, np.concatenate([exp1, exp2]), atol=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            comp, sub = make_sub(seed)
            for _ in range(10):
                x = rand_duals(sub, rng)
                _, g = sub.value_grad(x)[:2]
                num = fd_grad(lambda z: sub.value_grad(z)[0], x)
                scale = max(1.0, np.abs(g).max())
                assert np.abs(g - num).max() / scale < 1e-5

    def test_hand_computed_single_sample(self):
        # one sample, one atom each side, d = 1: everything scalar
        split_y = 0.4
        sub = dual_subproblem(
            B1=np.array([[2.0, -1.0]]), beta1=np.array([0.3]),
            B2=np.array([[-1.0, 2.0]]), beta2=np.array([-0.2]),
            split=MonotoneSplit("squared", y=split_y), n_samples=1,
            c=2.0, theta_nu=np.array([0.1, -0.2]),
            r_nu=np.array([0.0]), s_nu=np.array([0.0]),
            rhat_nu=np.array([0.5]), shat_nu=np.array([0.25]))
        _, g = sub.value_grad(np.zeros(2))[:2]
        # theta = anchor; r solves min .5 max(r-.4,0)^2 + (r-0)^2 -> r = 0
        # s solves min .5 min(s-.4,0)^2 + s^2 -> s = 0.4/3
        th = sub.theta_nu
        r, s = 0.0, split_y / 3.0
        g1 = np.array([2.0, -1.0]) @ th - r + 0.5 - 0.3
        g2 = np.array([-1.0, 2.0]) @ th + s + 0.25 + 0.2
        assert g[0] == pytest.approx(float(g1), abs=1e-12)
        assert g[1] == pytest.approx(float(g2), abs=1e-12)

    def test_concavity_along_segments(self):
        rng = np.random.default_rng(2)
        comp, sub = make_sub(3)
        for _ in range(30):
            xa = rand_duals(sub, rng, 1.0)
            xb = rand_duals(sub, rng, 1.0)
            va = sub.value_grad(xa)[0]
            vb = sub.value_grad(xb)[0]
            vm = sub.value_grad(0.5 * (xa + xb))[0]
            assert vm >= 0.5 * (va + vb) - 1e-10


class TestInnerTheta:
    """The theta part of `value_grad`'s inner minimizers."""

    def test_no_l1_closed_form(self):
        comp, sub = make_sub(4)
        rng = np.random.default_rng(4)
        x = rand_duals(sub, rng)
        th = sub.value_grad(x)[2][0]
        B1, B2, _, _ = blocks(sub)
        agg = B1.T @ x[:sub.n1] + B2.T @ x[sub.n1:]
        assert np.allclose(th, sub.theta_nu - agg / sub.c, atol=1e-12)

    def test_soft_threshold_dead_zone(self):
        sub = dual_subproblem(
            B1=np.array([[1.0]]), beta1=np.array([0.0]),
            B2=np.array([[0.0]]), beta2=np.array([0.0]),
            split=MonotoneSplit("squared", y=0.0), n_samples=1,
            c=1.0, theta_nu=np.array([0.0]),
            r_nu=np.zeros(1), s_nu=np.zeros(1),
            rhat_nu=np.zeros(1), shat_nu=np.zeros(1),
            l1=np.array([1.0]))
        # aggregate pull 0.5 with threshold 1 from anchor 0 -> thresholded
        th = sub.value_grad(np.array([0.5, 0.0]))[2][0]
        assert th[0] == 0.0

    def test_matches_golden_section(self):
        comp, sub = make_sub(5, gamma=0.3, smooth="scad")
        # rebuild with the regularizer majorant to get nonzero l1 weights
        rng = np.random.default_rng(5)
        x = rand_duals(sub, rng)
        th = sub.value_grad(x)[2][0]
        B1, B2, _, _ = blocks(sub)
        agg = B1.T @ x[:sub.n1] + B2.T @ x[sub.n1:] - sub.lin
        for i in range(sub.m):
            def obj(t):
                return (agg[i] * t + 0.5 * sub.c * (t - sub.theta_nu[i]) ** 2
                        + sub.l1[i] * abs(t))
            ref = golden_min(obj, th[i] - 1.0, th[i] + 1.0)
            assert th[i] == pytest.approx(ref, abs=1e-6)


def slack_minimizer(anchor, mult, c):
    """Slacks of `value_grad`'s inner minimizer at multipliers `mult` for
    slack anchors `anchor` (one sample, k1 = len - 1 >= 1, k2 = 1)."""
    anchor, mult = np.asarray(anchor, dtype=float), np.asarray(mult, dtype=float)
    n = anchor.size
    sub = dual_subproblem(
        B1=np.zeros((n - 1, 1)), beta1=np.zeros(n - 1),
        B2=np.zeros((1, 1)), beta2=np.zeros(1),
        split=MonotoneSplit("squared", y=0.0), n_samples=1,
        c=c, theta_nu=np.zeros(1), r_nu=np.zeros(1), s_nu=np.zeros(1),
        rhat_nu=anchor[:-1], shat_nu=anchor[-1:])
    return sub.value_grad(mult)[2][3]


class TestProxSlack:
    """The slack part of `value_grad`'s inner minimizers."""

    def test_zero_multiplier(self):
        anchor = np.array([1.0, -0.5, 0.0])
        assert np.allclose(slack_minimizer(anchor, np.zeros(3), 2.0),
                           [1.0, 0.0, 0.0])

    def test_exact_boundary(self):
        assert slack_minimizer([1.0, 0.0], [3.0, 0.0], 3.0)[0] == 0.0

    def test_matches_componentwise_search(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            anchor, mult = rng.normal(size=2)
            c = rng.uniform(0.5, 3)
            ref = golden_min(lambda v: mult * v + 0.5 * c * (v - anchor) ** 2
                             if v >= 0 else np.inf, 0.0, abs(anchor) + abs(mult) / c + 1)
            got = slack_minimizer([anchor, 0.0], [mult, 0.0], c)[0]
            assert got == pytest.approx(ref, abs=1e-5)


class TestGenJacobian:
    def test_matches_fd_of_gradient(self):
        rng = np.random.default_rng(7)
        for seed in range(4):
            comp, sub = make_sub(seed + 10)
            x = rand_duals(sub, rng)
            V = gen_jacobian(sub, x)
            h = 1e-7
            num = np.zeros_like(V)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = h
                gp = sub.value_grad(x + e)[1]
                gm = sub.value_grad(x - e)[1]
                num[:, i] = -(gp - gm) / (2 * h)
            # random multipliers land on a smooth branch almost surely
            assert np.abs(V - num).max() < 1e-4
            assert np.allclose(V, V.T, atol=1e-12)
            assert np.linalg.eigvalsh(V).min() >= -1e-10

    def test_dead_branches_contribute_zero(self):
        # slacks clamped (multipliers large), theta fully thresholded
        sub = dual_subproblem(
            B1=np.array([[1.0]]), beta1=np.array([0.0]),
            B2=np.array([[1.0]]), beta2=np.array([0.0]),
            split=MonotoneSplit("squared", y=0.0), n_samples=1,
            c=1.0, theta_nu=np.array([0.0]),
            r_nu=np.zeros(1), s_nu=np.zeros(1),
            rhat_nu=np.zeros(1), shat_nu=np.zeros(1),
            l1=np.array([100.0]))
        V = gen_jacobian(sub, np.array([5.0, 5.0]))
        # theta dead, slacks clamped: only the (r, s) rank-one blocks remain
        assert V[0, 1] == 0.0
        assert V[0, 0] > 0 and V[1, 1] > 0

    def test_hand_two_by_two(self):
        c = 2.0
        sub = dual_subproblem(
            B1=np.array([[1.0, 0.0]]), beta1=np.array([0.0]),
            B2=np.array([[0.0, 1.0]]), beta2=np.array([0.0]),
            split=MonotoneSplit("squared", y=10.0), n_samples=1,
            c=c, theta_nu=np.zeros(2),
            r_nu=np.zeros(1), s_nu=np.zeros(1),
            rhat_nu=np.ones(1), shat_nu=np.ones(1))
        V = gen_jacobian(sub, np.zeros(2))
        # theta block: (1/c) B B^T = (1/c) I; r on flat branch (below y):
        # rho = 1/c; s on quadratic branch: sigma = 1/(w + c); slack masks on
        exp = np.array([[1 / c + 1 / c + 1 / c, 0.0],
                        [0.0, 1 / c + 1 / (1 + c) + 1 / c]])
        assert np.allclose(V, exp, atol=1e-12)


class TestSnSolve:
    def test_matches_enumeration_oracle(self):
        shapes = [(1, 2, 2), (1, 3, 1), (2, 2, 1), (2, 1, 1)]
        for seed in range(8):
            N, k1, k2 = shapes[seed % len(shapes)]
            comp, sub = make_sub(seed + 20, N=N, k1=k1, k2=k2)
            res = sn_solve(sub, cfg=TIGHT)
            oth, *_, oval = enum_subproblem_solve(sub)
            assert np.abs(res.theta - oth).max() < 1e-8
            assert abs(res.value - oval) < 1e-8

    @pytest.mark.parametrize("change, msg", [
        (lambda m: {"lin": np.full(m, 0.3)}, "linear"),
        (lambda m: {"reg_const": 0.5}, "constant"),
    ], ids=["lin", "reg_const"])
    def test_enumeration_oracle_rejects_unmodelled_terms(self, change, msg):
        # l1 stays zero, so only the guard for the changed term can fire
        comp, sub = make_sub(44, N=1, k1=1, k2=1)
        with pytest.raises(ValueError, match=msg):
            enum_subproblem_solve(with_changes(sub, **change(sub.m)))

    def test_duality_gap_and_feasibility(self):
        for seed in range(6):
            comp, sub = make_sub(seed + 30)
            res = sn_solve(sub, cfg=TIGHT)
            assert res.converged
            assert abs(res.value - sub.value_grad(res.x)[0]) <= 1e-8
            assert feasibility(sub, res.theta, res.r, res.s, res.slack) <= 1e-8
            assert res.slack.min(initial=0.0) >= 0

    def test_warm_start_economy(self):
        comp, sub = make_sub(40)
        res = sn_solve(sub, cfg=TIGHT)
        # tiny anchor shift, warm started at the previous optimum
        sub2 = with_changes(sub, theta_nu=sub.theta_nu + 1e-6)
        res2 = sn_solve(sub2, warm=res.x,
                        cfg=SNConfig(tol_grad=1e-9, max_iter=50))
        assert res2.converged and res2.iterations <= 3

    def test_near_quadratic_one_step(self):
        # start at the optimum's branch pattern: a single Newton step lands
        comp, sub = make_sub(41)
        res = sn_solve(sub, cfg=TIGHT)
        res2 = sn_solve(sub, warm=res.x * (1 + 1e-9),
                        cfg=SNConfig(tol_grad=1e-8, max_iter=10))
        assert res2.converged and res2.iterations <= 2

    def test_max_iter_flagged(self):
        comp, sub = make_sub(42)
        res = sn_solve(sub, cfg=SNConfig(tol_grad=1e-16, max_iter=2))
        assert not res.converged
        assert res.iterations == 2

    def test_gradient_norm_exit(self):
        # with tol_grad = 0 the Newton steps reach rounding level, where the
        # slope is too small for Armijo: the solve stops once no step length
        # contracts ||grad||, before max_iter, unconverged, and reports the
        # gradient norm of the point it returns
        comp, sub = make_sub(42)
        res = sn_solve(sub, cfg=SNConfig(tol_grad=0.0, max_iter=50))
        assert not res.converged and res.iterations < 50
        assert res.kkt_residual == np.linalg.norm(sub.value_grad(res.x)[1])

    def test_descent_direction_stops_the_solve(self, monkeypatch):
        # were a rounded Newton system to return a descent direction, the
        # gradient-norm search would find no step length that lowers ||grad||
        # along -grad: the solve stops at once, unconverged, at its start
        monkeypatch.setattr(snewton, "_newton_direction",
                            lambda sub, jac, grad, eps: -grad)
        comp, sub = make_sub(43)
        v0 = sub.value_grad(np.zeros(sub.dual_dim))[0]
        res = sn_solve(sub, cfg=TIGHT)
        assert not res.converged and res.iterations <= 2
        assert sub.value_grad(res.x)[0] >= v0

    def test_armijo_progress(self):
        # the dual value of the returned point is at least the start value
        comp, sub = make_sub(43)
        v0 = sub.value_grad(np.zeros(sub.dual_dim))[0]
        res = sn_solve(sub, cfg=TIGHT)
        assert sub.value_grad(res.x)[0] >= v0 - 1e-12

    def test_unconverged_solve_returns_its_best_iterate(self):
        # the nonmonotone test lets the dual value fall between iterates of
        # this cold solve (about 30 steps to converge), so only a solve that
        # returns its best iterate gives a dual value that never decreases
        # with max_iter
        ds, _ = pwa.synth_example2(400, 0)
        prob = pwa.PWAProblem(ds, k1=2, k2=2)
        comp = pwa.assemble(prob)
        cfg = mm.MMConfig()
        th0 = pwa.init_sampler(prob, "gaussian", np.random.default_rng([0, 0]))
        (sel1, sel2), = mm.select_pairs(comp, th0, cfg.eps, cfg.variant,
                                        rng=np.random.default_rng(0))[0]
        sub = mm.build_subproblem(comp, mm.init_state(comp, th0), sel1, sel2,
                                  cfg.resolve_c(comp))
        vals = [sub.value_grad(sn_solve(sub, cfg=SNConfig(max_iter=k)).x)[0]
                for k in range(1, 16)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
