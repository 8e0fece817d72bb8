import json

import numpy as np
import pytest

from pwafit import pwa
from pwafit.pwa import (
    Dataset,
    EXAMPLE1_MODEL,
    EXAMPLE2_MODEL,
    PWAModel,
    PWAProblem,
    assemble,
    init_sampler,
    ols_fit,
    synth_example1,
    synth_example2,
)
from oracles import model_rmse


class TestModelEval:
    def test_convex_example_point(self):
        # max{x1+x2, x1-x2, -2x1+x2, -2x1-x2} at (1, 1) is 2
        assert EXAMPLE1_MODEL.eval(np.array([1.0, 1.0]))[0] == 2.0
        assert EXAMPLE1_MODEL.eval(np.array([-1.0, 0.0]))[0] == 2.0

    def test_dc_example_point(self):
        # max{0, 1} - max{0, 0} at the origin
        assert EXAMPLE2_MODEL.eval(np.zeros(2))[0] == 1.0

    def test_single_affine(self):
        mdl = PWAModel(A=[[2.0, -1.0]], alpha=[0.5],
                       B=[[1.0, 1.0]], beta=[0.0])
        x = np.array([0.3, -0.4])
        assert mdl.eval(x)[0] == pytest.approx((2 * 0.3 + 0.4 + 0.5) - (0.3 - 0.4))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(20, 2))
        vals = EXAMPLE2_MODEL.eval(X)
        for i in range(20):
            assert vals[i] == pytest.approx(EXAMPLE2_MODEL.eval(X[i])[0])


class TestFlattenRoundtrip:
    def test_flatten_unflatten(self):
        rng = np.random.default_rng(1)
        for k1, k2, d in [(1, 0, 1), (2, 1, 2), (3, 3, 4)]:
            mdl = PWAModel(A=rng.normal(size=(k1, d)), alpha=rng.normal(size=k1),
                           B=rng.normal(size=(k2, d)), beta=rng.normal(size=k2))
            th = mdl.flatten()
            assert th.size == (k1 + k2) * (d + 1)
            back = PWAModel.unflatten(th, k1, k2, d)
            assert np.array_equal(back.A, mdl.A)
            assert np.array_equal(back.alpha, mdl.alpha)
            assert np.array_equal(back.B, mdl.B)
            assert np.array_equal(back.beta, mdl.beta)

    def test_layout_is_per_atom(self):
        mdl = PWAModel(A=[[1.0, 2.0], [3.0, 4.0]], alpha=[5.0, 6.0],
                       B=np.zeros((0, 2)), beta=[])
        assert np.array_equal(mdl.flatten(), [1, 2, 5, 3, 4, 6])

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            PWAModel.unflatten(np.zeros(5), 2, 1, 2)

    def test_json_roundtrip(self):
        for mdl in (EXAMPLE1_MODEL, EXAMPLE2_MODEL):
            back = PWAModel.from_json(json.loads(json.dumps(mdl.to_json())))
            assert model_rmse(mdl, back, grid=21) == 0.0
            assert back.k1 == mdl.k1 and back.k2 == mdl.k2


class TestDataset:
    def test_csv_roundtrip(self, tmp_path):
        ds, _ = synth_example2(17, seed=3)
        p = tmp_path / "d.csv"
        ds.save_csv(p)
        back = Dataset.load_csv(p)
        assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)

    def test_headerless_csv(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("0.5,1.5,2.0\n-1.0,0.0,3.0\n")
        ds = Dataset.load_csv(p)
        assert ds.N == 2 and ds.d == 2 and ds.y[1] == 3.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan]]), np.array([1.0]))


class TestAssemble:
    def test_single_sample_objective(self):
        ds = Dataset(np.array([[0.5, -0.5]]), np.array([2.0]))
        comp = assemble(PWAProblem(dataset=ds, k1=1, k2=1))
        th = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])   # g = x1, h = 0
        assert comp.f_N(th) == pytest.approx(0.5 * (0.5 - 2.0) ** 2)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        ds, _ = synth_example2(12, seed=2)
        prob = PWAProblem(dataset=ds, k1=2, k2=2)
        comp = assemble(prob)
        for _ in range(10):
            th = rng.normal(size=prob.m)
            mdl = prob.model(th)
            naive = 0.5 * np.mean((mdl.eval(ds.X) - ds.y) ** 2)
            assert comp.f_N(th) == pytest.approx(naive, abs=1e-12)

    def test_k2_zero_uses_zero_atom(self):
        ds, _ = synth_example1(8, seed=0)
        prob = PWAProblem(dataset=ds, k1=2, k2=0)
        comp = assemble(prob)
        assert comp.k2 == 1
        th = np.random.default_rng(0).normal(size=prob.m)
        mdl = prob.model(th)
        _, _, psi = comp.psi(th)
        assert np.allclose(psi, mdl.eval(ds.X))

    @pytest.mark.parametrize("k1, k2", [(1, 0), (2, 2), (4, 0), (3, 1)])
    def test_atom_gradients_from_lifts_are_the_block_embedding(self, k1, k2):
        # U and W, derived from the features [x, 1] and the atoms' lifts,
        # equal the block embedding of [x, 1] bit for bit, signed zeros too
        ds, _ = synth_example2(50, seed=k1 + k2)
        ds = Dataset(np.vstack([ds.X, -ds.X, np.zeros((1, 2))]),
                     np.concatenate([ds.y, ds.y, [0.0]]))
        prob = PWAProblem(dataset=ds, k1=k1, k2=k2)
        comp = assemble(prob)
        N, b = ds.N, ds.d + 1
        X1 = np.hstack([ds.X, np.ones((N, 1))])
        U, W = np.zeros((N * k1, prob.m)), np.zeros((N * max(k2, 1), prob.m))
        for i in range(k1):
            U[i::k1, i * b:(i + 1) * b] = X1
        for j in range(k2):
            W[j::k2, (k1 + j) * b:(k1 + j + 1) * b] = X1
        for got, ref in ((comp.U, U), (comp.W, W)):
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_gamma_adds_regularizer(self):
        ds, _ = synth_example1(5, seed=1)
        comp0 = assemble(PWAProblem(dataset=ds, k1=2, k2=1))
        compg = assemble(PWAProblem(dataset=ds, k1=2, k2=1, gamma=0.1))
        th = np.ones(comp0.m)
        assert compg.f_N(th) > comp0.f_N(th)
        assert comp0.f_N(th) >= 0.0


class TestOlsFit:
    def test_exact_recovery(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(30, 3))
        w_true, b_true = np.array([1.5, -2.0, 0.25]), 0.7
        w, b = ols_fit(Dataset(X, X @ w_true + b_true))
        assert np.allclose(w, w_true, atol=1e-10) and b == pytest.approx(b_true)

    def test_interpolates_square_system(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, 3.0, -2.0])
        w, b = ols_fit(Dataset(X, y))
        assert np.allclose(X @ w + b, y, atol=1e-10)

    def test_normal_equations_orthogonality(self):
        ds, _ = synth_example2(40, seed=4)
        w, b = ols_fit(ds)
        res = ds.y - (ds.X @ w + b)
        A = np.hstack([ds.X, np.ones((ds.N, 1))])
        assert np.abs(A.T @ res).max() <= 1e-8

    def test_rank_deficient_gives_minimum_norm(self):
        X = np.zeros((5, 2))            # constant features: column rank 1
        w, b = ols_fit(Dataset(X, np.arange(5.0)))
        # the minimum-norm least-squares solution: no weight on the zero
        # features, the intercept at the mean response
        assert np.array_equal(w, np.zeros(2))
        assert b == pytest.approx(2.0, rel=1e-12)


class TestGenerators:
    def test_reproducible(self):
        a, _ = synth_example1(25, seed=9)
        b, _ = synth_example1(25, seed=9)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c, _ = synth_example1(25, seed=10)
        assert not np.array_equal(a.y, c.y)

    def test_noise_band(self):
        for make, mdl in [(synth_example1, EXAMPLE1_MODEL),
                          (synth_example2, EXAMPLE2_MODEL)]:
            ds, _ = make(400, seed=5)
            res = ds.y - mdl.eval(ds.X)
            assert res.min() >= -0.5 and res.max() <= 0.5
            assert np.all(np.abs(ds.X) <= 1.0)

    def test_noise_mean_near_zero(self):
        ds, _ = synth_example1(100_000, seed=6)
        res = ds.y - EXAMPLE1_MODEL.eval(ds.X)
        se = 1.0 / np.sqrt(12 * ds.N)       # sd of U(-.5,.5) over sqrt(N)
        assert abs(res.mean()) <= 3 * se


class TestModelRmse:
    def test_identical_zero(self):
        assert model_rmse(EXAMPLE2_MODEL, EXAMPLE2_MODEL) == 0.0

    def test_gauge_shift_zero(self):
        shifted = PWAModel(A=EXAMPLE2_MODEL.A, alpha=EXAMPLE2_MODEL.alpha + 3.0,
                           B=EXAMPLE2_MODEL.B, beta=EXAMPLE2_MODEL.beta + 3.0)
        assert model_rmse(EXAMPLE2_MODEL, shifted) <= 1e-12

    def test_constant_offset(self):
        off = PWAModel(A=EXAMPLE1_MODEL.A, alpha=EXAMPLE1_MODEL.alpha + 0.3,
                       B=EXAMPLE1_MODEL.B, beta=EXAMPLE1_MODEL.beta)
        assert model_rmse(EXAMPLE1_MODEL, off) == pytest.approx(0.3, abs=1e-9)

    def test_high_dimension_path(self):
        rng = np.random.default_rng(7)
        mdl = PWAModel(A=rng.normal(size=(2, 4)), alpha=rng.normal(size=2),
                       B=rng.normal(size=(1, 4)), beta=rng.normal(size=1))
        assert model_rmse(mdl, mdl) == 0.0


class TestInitSampler:
    def test_ols_perturb_scale_zero(self):
        ds, _ = synth_example1(30, seed=8)
        prob = PWAProblem(dataset=ds, k1=1, k2=1)
        th = init_sampler(prob, "ols-perturb", np.random.default_rng(0), scale=0.0)
        w, b = ols_fit(ds)
        assert np.allclose(th[:2], w) and th[2] == pytest.approx(b)
        assert np.all(th[3:] == 0.0)

    def test_reproducible(self):
        ds, _ = synth_example1(10, seed=8)
        prob = PWAProblem(dataset=ds, k1=3, k2=1)
        a = init_sampler(prob, "gaussian", np.random.default_rng(4), scale=0.5)
        b = init_sampler(prob, "gaussian", np.random.default_rng(4), scale=0.5)
        assert np.array_equal(a, b)

    def test_gaussian_scale(self):
        ds, _ = synth_example1(5, seed=8)
        prob = PWAProblem(dataset=ds, k1=4, k2=4)
        draws = np.stack([init_sampler(prob, "gaussian",
                                       np.random.default_rng(i), scale=2.0)
                          for i in range(500)])
        assert np.std(draws) == pytest.approx(2.0, rel=0.1)

    def test_unknown_strategy(self):
        ds, _ = synth_example1(5, seed=8)
        prob = PWAProblem(dataset=ds, k1=1, k2=0)
        with pytest.raises(ValueError):
            init_sampler(prob, "sobol", np.random.default_rng(0))


class TestGaugeInvariance:
    def test_uniform_shift_leaves_surface(self):
        # adding the same constant to every g and h intercept is a null
        # direction of the fitted surface
        rng = np.random.default_rng(11)
        mdl = PWAModel(A=rng.normal(size=(3, 2)), alpha=rng.normal(size=3),
                       B=rng.normal(size=(2, 2)), beta=rng.normal(size=2))
        shifted = PWAModel(A=mdl.A, alpha=mdl.alpha + 1.7,
                           B=mdl.B, beta=mdl.beta + 1.7)
        X = rng.uniform(-1, 1, size=(100, 2))
        assert np.allclose(mdl.eval(X), shifted.eval(X), atol=1e-12)

    def test_objective_invariant_under_shift(self):
        ds, _ = synth_example2(20, seed=12)
        prob = PWAProblem(dataset=ds, k1=2, k2=2)
        comp = assemble(prob)
        rng = np.random.default_rng(12)
        th = rng.normal(size=prob.m)
        mdl = prob.model(th)
        shifted = PWAModel(A=mdl.A, alpha=mdl.alpha + 0.9,
                           B=mdl.B, beta=mdl.beta + 0.9)
        assert comp.f_N(th) == pytest.approx(comp.f_N(shifted.flatten()), rel=1e-12)
