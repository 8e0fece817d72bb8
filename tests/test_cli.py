import csv
import itertools
import json
import os
import warnings

import numpy as np
import pytest

from pwafit import cli, pwa, stationarity
from pwafit.cli import ConfigError, _fold_indices, load_config, main


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def count_certificates(monkeypatch, dstat=(0.0, 1.0, 0), bound=0.0):
    """Replace both certificate residuals by stubs, whose certificates carry
    `bound`; returns their call log."""
    from pwafit import stationarity
    Certificate = stationarity.Certificate
    calls = []

    def counting(name, result):
        def fake(*args, **kwargs):
            calls.append(name)
            return result
        return fake

    monkeypatch.setattr(stationarity, "dstat_residual",
                        counting("dstat", Certificate(*dstat, "dstat", bound)))
    monkeypatch.setattr(stationarity, "weak_mstat_residual",
                        counting("weak_mstat",
                                 Certificate(0.0, 1.0, 0, "weak_mstat", bound)))
    return calls


SMALL_FIT = {
    "synth": {"example": 2, "N": 30, "seed": 1},
    "k1": 2, "k2": 1, "starts": 3, "seed": 5,
    "variant": "full", "max_outer": 40, "tol_rel": 1e-5,
    "compute_residual": False,
}


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        # sn_tol_floor is gone: every SN solve shares one ||grad xi||
        # fallback, so MM has no tolerance of its own to set
        for key in ("bogus", "sn_tol_floor"):
            p = write_json(tmp_path / "c.json", {**SMALL_FIT, key: 1e-6})
            assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 2
            assert f"unknown keys ['{key}']" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["fit", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_missing_dataset(self, tmp_path):
        cfg = dict(SMALL_FIT)
        del cfg["synth"]
        cfg["dataset"] = str(tmp_path / "absent.csv")
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 2

    def test_header_only_dataset(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("x1,x2,y\n")
        cfg = {**SMALL_FIT, "dataset": str(tmp_path / "d.csv")}
        del cfg["synth"]
        p = write_json(tmp_path / "c.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 2
        assert "no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command, raw, message", [
        ("fit", [], "fit: expected a JSON object"),
        ("fit", {"k1": 1}, "config needs either 'dataset' or 'synth'"),
        ("check", {}, "check needs either 'pwa1d' or 'model' + 'dataset'"),
    ], ids=["not-an-object", "fit-without-data", "check-without-branch"])
    def test_incomplete_config_exits_2(self, tmp_path, capsys, command, raw, message):
        p = write_json(tmp_path / "c.json", raw)
        assert main([command, "--config", p, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad", [
        ("fit", {"dataset": True}), ("fit", {"dataset": 3.5}), ("check", {"model": 1}),
    ], ids=["dataset=true", "dataset=3.5", "model=1"])
    def test_non_string_path_exits_2(self, tmp_path, capsys, command, bad):
        # a path is a string: open(True) or open(1) would read, then close,
        # file descriptor 1, and open(3.5) raises a TypeError
        ds, _ = pwa.synth_example2(20, seed=6)
        ds.save_csv(tmp_path / "d.csv")
        p = write_json(tmp_path / "c.json",
                       {"dataset": str(tmp_path / "d.csv"), **bad})
        assert main([command, "--config", p, "--out", str(tmp_path)]) == 2
        assert f"{list(bad)[0]} must be null or a string" in capsys.readouterr().err
        os.fstat(1)     # still open

    def test_blank_lines_and_header_skipped(self, tmp_path):
        (tmp_path / "d.csv").write_text("\nx1,y\n\n1.5,2.0\n\n-3.0,4.25\n\n")
        ds = pwa.Dataset.load_csv(tmp_path / "d.csv")
        assert ds.X.tolist() == [[1.5], [-3.0]] and ds.y.tolist() == [2.0, 4.25]
        (tmp_path / "e.csv").write_text("\n1.5,2.0\n")
        ds = pwa.Dataset.load_csv(tmp_path / "e.csv")
        assert ds.X.tolist() == [[1.5]] and ds.y.tolist() == [2.0]

    @pytest.mark.parametrize("content", [
        "x1,y\n1.0,2.0\n3.0\n", "x1,y\n1.0,abc\n", "x1,y\n1.0,2.0\n  \n",
        "x1,y\n1.0,2.0 # note\n"],
        ids=["short-row", "not-a-number", "whitespace-row", "comment"])
    def test_malformed_dataset_exits_2(self, tmp_path, capsys, content):
        (tmp_path / "d.csv").write_text(content)
        p = write_json(tmp_path / "c.json", {"dataset": str(tmp_path / "d.csv")})
        assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 2
        assert "config error: dataset:" in capsys.readouterr().err

    def test_one_column_dataset(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("y\n1.0\n2.0\n")
        p = write_json(tmp_path / "c.json", {"dataset": str(tmp_path / "d.csv")})
        assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 2
        assert "at least one feature column" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        p = write_json(tmp_path / "c.json", SMALL_FIT)
        cfg = load_config(p, "fit", seed_override=42)
        assert cfg["seed"] == 42

    def test_out_of_domain_seed_override_exits_2(self, tmp_path):
        p = write_json(tmp_path / "c.json", SMALL_FIT)
        assert main(["fit", "--config", p, "--seed", "-1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("bad", [
        {"variant": "bogus"}, {"eps": -1}, {"variant": "full", "combo_cap": 0},
        {"c": -1.0}, {"c": 0}, {"loss": "huber"}, {"loss": "quantile"},
        {"loss": "quantile", "tau": 1.0}, {"k1": 0}, {"k2": -1}, {"k1": 1.5},
        {"tau": 1.5}, {"gamma": -1}, {"reg_smooth": "bogus"},
        {"tol_rel": -1}, {"tol_step": -1}, {"max_outer": 2.5}, {"sn_max_iter": 0},
        {"starts": 0}, {"seed": -1}, {"compute_residual": "yes"},
        {"init": {"strategy": "bogus"}}, {"init": {"scale": -1}},
        {"synth": {"example": 3}}, {"synth": {"N": 0}}, {"synth": {"seed": -1}},
        # integer keys take JSON integers only, not integral floats
        {"max_outer": 5.0}, {"combo_cap": 4.0}, {"sn_max_iter": 10.0}, {"k1": 2.0},
        {"starts": 1.0},
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_out_of_domain_value_exits_2(self, tmp_path, capsys, bad):
        p = write_json(tmp_path / "c.json", {**SMALL_FIT, **bad})
        assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 2
        assert list(bad)[-1] in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad", [
        ("cv", {"simulations": 0}), ("cv", {"folds": 2.5}), ("cv", {"grid": [[0, 1]]}),
        ("cv", {"grid": [[1.5, 1]]}), ("cv", {"gamma": "cv"}),
        # an empty grid has nothing to report, and a repeated cell would be
        # cross-validated twice and reported once
        ("cv", {"grid": []}), ("cv", {"grid": [[1, 1], [1, 1]]}),
        ("synth", {"example": 3}), ("synth", {"N": 0}), ("synth", {"seed": -1}),
        ("synth", {"N": 60.0}), ("check", {"k1": 2}), ("check", {"gamma": "cv"}),
        # pwa1d and points are config input too: a malformed one is exit 2
        ("check", {"pwa1d": {"breakpoints": [0.0]}}),
        ("check", {"pwa1d": {"breakpoints": [0.0], "pieces": [[-1.0], [1.0, 0.0]]}}),
        ("check", {"pwa1d": {"pieces": [[0.0, "a"]]}}),
        ("check", {"pwa1d": {"pieces": [[0.0, 0.0]], "knots": []}}),
        ("check", {"pwa1d": [[0.0, 0.0]]}),
        ("check", {"points": "abc"}), ("check", {"points": [0.0, None]}),
        ("check", {"pwa1d": {"breakpoints": [0.0], "pieces": [[-1.0, 0.0], [1.0, 1.0]]}}),
        ("check", {"pwa1d": {"breakpoints": [1.0, 0.0],
                             "pieces": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}}),
        ("check", {"pwa1d": {"breakpoints": [0.0], "pieces": [[0.0, 0.0]]}}),
    ], ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x}" for k, x in v.items()))
    def test_out_of_domain_value_exits_2_in_other_commands(self, tmp_path, command, bad):
        # each base config runs to exit 0 as it is; check's k1/k2 come from
        # its model, so setting them is an unknown key
        base = {"cv": {"synth": {"example": 2, "N": 30, "seed": 3}, "grid": [[1, 1]],
                       "folds": 3, "starts": 1, "max_outer": 5,
                       "compute_residual": False},
                "synth": {"example": 2, "N": 20, "seed": 0},
                "check": {"pwa1d": {"breakpoints": [0.0],
                                    "pieces": [[-1.0, 0.0], [1.0, 0.0]]},
                          "points": [0.0]}}[command]
        p = write_json(tmp_path / "c.json", {**base, **bad})
        assert main([command, "--config", p, "--out", str(tmp_path)]) == 2

    def test_defaults_filled(self, tmp_path):
        p = write_json(tmp_path / "c.json", {"synth": {"example": 1}})
        cfg = load_config(p, "fit")
        assert cfg["variant"] == "random" and cfg["starts"] == 20
        assert cfg["init"]["strategy"] == "gaussian"


class TestSynthRoundtrip:
    def test_outputs_and_reload(self, tmp_path):
        p = write_json(tmp_path / "c.json", {"example": 2, "N": 40, "seed": 7})
        assert main(["synth", "--config", p, "--out", str(tmp_path)]) == 0
        ds = pwa.Dataset.load_csv(tmp_path / "dataset.csv")
        assert ds.N == 40 and ds.d == 2
        with open(tmp_path / "true_model.json") as fh:
            mdl = pwa.PWAModel.from_json(json.load(fh))
        ref, _ = pwa.synth_example2(40, seed=7)
        assert np.array_equal(ds.X, ref.X) and np.array_equal(ds.y, ref.y)
        # residuals against the saved truth stay inside the noise band
        res = ds.y - mdl.eval(ds.X)
        assert np.abs(res).max() <= 0.5


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    p = write_json(out / "c.json", SMALL_FIT)
    assert main(["fit", "--config", str(p), "--out", str(out)]) == 0
    return out


class TestFit:
    def test_output_files(self, fit_dir):
        for name in ("best_model.json", "starts.csv", "trace.csv",
                     "histogram.csv", "report.json"):
            assert os.path.exists(fit_dir / name)

    def test_best_is_minimum(self, fit_dir):
        _, rows = read_csv(fit_dir / "starts.csv")
        vals = [float(r[1]) for r in rows if r[1]]
        with open(fit_dir / "report.json") as fh:
            rep = json.load(fh)
        assert rep["best_objective"] == pytest.approx(min(vals))
        assert rep["best_objective_no_half"] == pytest.approx(2 * min(vals))

    def test_histogram_sums_to_starts(self, fit_dir):
        _, rows = read_csv(fit_dir / "histogram.csv")
        assert sum(int(r[1]) for r in rows) == SMALL_FIT["starts"]

    def test_trace_monotone_objective_tail(self, fit_dir):
        _, rows = read_csv(fit_dir / "trace.csv")
        surr = [float(r[2]) for r in rows]
        for a, b in zip(surr, surr[1:]):
            assert b <= a + 1e-6

    def test_trace_columns(self, fit_dir):
        header, rows = read_csv(fit_dir / "trace.csv")
        assert header == ["iteration", "f_N", "surrogate", "step_norm", "accepted",
                          "extrapolated", "sn_gap", "sn_iterations", "sn_converged"]
        assert {r[5] for r in rows} <= {"0", "1"}
        # every MM solve has the gap exit, so every row carries its gap
        assert rows and all(float(r[6]) >= 0.0 for r in rows)

    def test_model_loads_and_scores(self, fit_dir):
        with open(fit_dir / "best_model.json") as fh:
            mdl = pwa.PWAModel.from_json(json.load(fh))
        assert mdl.k1 == 2 and mdl.k2 == 1
        ds, _ = pwa.synth_example2(30, seed=1)
        rmse = float(np.sqrt(np.mean((mdl.eval(ds.X) - ds.y) ** 2)))
        assert rmse < 1.0

    def test_deterministic_given_seed(self, fit_dir, tmp_path):
        p = write_json(tmp_path / "c.json", SMALL_FIT)
        assert main(["fit", "--config", str(p), "--out", str(tmp_path)]) == 0
        with open(fit_dir / "report.json") as fh:
            a = json.load(fh)
        with open(tmp_path / "report.json") as fh:
            b = json.load(fh)
        for key in ("best_start", "best_objective", "iterations", "sn_total"):
            assert a[key] == b[key]

    def test_inner_failures_reported(self, tmp_path):
        # each step's SN health is in trace.csv, and report.json counts the
        # steps whose solve did not converge; solves capped at one Newton
        # step are forced to fail
        for variant, sn_max_iter in itertools.product(
                ("full", "random"), (cli.MMConfig.sn_max_iter, 1)):
            cfg = {**SMALL_FIT, "variant": variant, "sn_max_iter": sn_max_iter}
            p = write_json(tmp_path / "c.json", cfg)
            assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 0
            header, rows = read_csv(tmp_path / "trace.csv")
            assert header[-2:] == ["sn_iterations", "sn_converged"]
            with open(tmp_path / "report.json") as fh:
                rep = json.load(fh)
            assert rep["inner_failures"] == sum(r[-1] == "0" for r in rows)
            if sn_max_iter == 1:
                assert rep["inner_failures"] > 0
            else:
                assert rep["inner_failures"] == 0

    def test_report_carries_certificate_coverage(self, tmp_path, monkeypatch):
        # a dstat residual only certifies d-stationarity at coverage 1, so the
        # report says how much of the selection product it covered
        # and how many of its solves did not converge, with the residual's
        # error bound
        count_certificates(monkeypatch, dstat=(0.5, 0.25, 3), bound=0.125)
        cfg = {**SMALL_FIT, "starts": 1, "compute_residual": True}
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "report.json") as fh:
            rep = json.load(fh)
        assert rep["residual_kind"] == "dstat"
        assert rep["residual"] == 0.5 and rep["residual_coverage"] == 0.25
        assert rep["residual_unconverged"] == 3
        assert rep["residual_bound"] == 0.125

    def test_gamma_cv_certifies_only_the_final_fit(self, tmp_path, monkeypatch):
        # select_gamma's fold fits are never reported, so they skip the
        # certificate; each start of the final fit still gets one
        calls = count_certificates(monkeypatch)
        cfg = {"synth": {"example": 2, "N": 30, "seed": 3}, "k1": 1, "k2": 1,
               "starts": 2, "seed": 0, "max_outer": 5, "gamma": "cv"}
        p = write_json(tmp_path / "c.json", cfg)
        loaded = load_config(p, "fit")
        assert loaded["compute_residual"]
        cli.select_gamma(loaded, cli._load_dataset(loaded), folds=3)
        assert calls == []
        assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 0
        assert calls == ["dstat", "dstat"]

    def test_singular_newton_system_fails_its_start(self, tmp_path, monkeypatch):
        # a LinAlgError of SN's Newton system is not retried: it fails the
        # start it occurs in, which starts.csv and report.json name, and the
        # other starts still fit
        from pwafit import snewton
        direction = snewton._newton_direction
        calls = []

        def singular_once(*args):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return direction(*args)

        monkeypatch.setattr(snewton, "_newton_direction", singular_once)
        p = write_json(tmp_path / "c.json", {**SMALL_FIT, "starts": 2})
        assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "report.json") as fh:
            rep = json.load(fh)
        assert rep["failed_starts"] == [0] and rep["best_start"] == 1
        header, rows = read_csv(tmp_path / "starts.csv")
        reason, error = header.index("reason"), header.index("error")
        assert rows[0][reason] == "failed"
        assert rows[0][error] == "LinAlgError: Singular matrix"
        assert rows[1][reason] in ("tolerance", "max_outer") and rows[1][error] == ""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_all_starts_failing_exits_3(self, tmp_path, capsys):
        # a start at scale 1e300 has a non-finite objective, so every start
        # fails: a solver error, and no report
        p = write_json(tmp_path / "c.json", {**SMALL_FIT, "init": {"scale": 1e300}})
        assert main(["fit", "--config", p, "--out", str(tmp_path / "o")]) == 3
        assert "all starts failed" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o" / "report.json")

    def test_programming_error_in_a_start_propagates(self, tmp_path, monkeypatch):
        # only a solver failure fails a start; any other exception raised in
        # one is a fault of the program, so it is raised, not recorded
        from pwafit import mm

        def broken(*args):
            raise TypeError("broken start")

        monkeypatch.setattr(mm, "run", broken)
        p = write_json(tmp_path / "c.json", {**SMALL_FIT, "starts": 2})
        with pytest.raises(TypeError, match="broken start"):
            main(["fit", "--config", p, "--out", str(tmp_path)])

    @pytest.mark.parametrize("N", [1, 4])
    def test_gamma_cv_needs_a_row_per_fold(self, tmp_path, capsys, N):
        # select_gamma's 5 folds each need a test row and a nonempty training
        # set
        cfg = {**SMALL_FIT, "synth": {"example": 2, "N": N, "seed": 1},
               "gamma": "cv"}
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 2
        assert "5 folds need at least 5 data rows" in capsys.readouterr().err

    def test_convex_case_matches_ols(self, tmp_path):
        cfg = {"synth": {"example": 1, "N": 50, "seed": 2},
               "k1": 1, "k2": 1, "starts": 1, "seed": 0,
               "init": {"strategy": "ols-perturb", "scale": 0.0},
               "variant": "full", "tol_rel": 1e-15, "max_outer": 2000,
               "compute_residual": False}
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["fit", "--config", str(p), "--out", str(tmp_path)]) == 0
        ds, _ = pwa.synth_example1(50, seed=2)
        w, b = pwa.ols_fit(ds)
        f_ols = 0.5 * float(np.mean((ds.y - ds.X @ w - b) ** 2))
        with open(tmp_path / "report.json") as fh:
            rep = json.load(fh)
        assert rep["best_objective"] == pytest.approx(f_ols, rel=1e-6)


class TestDefaultFit:
    """Paper example 2 (k1 = k2 = 2) fitted with every solver default: the
    default proximal weight converges, with no hand-tuned c."""

    @staticmethod
    def fit(tmp_path, N, starts, **extra):
        ds, truth = pwa.synth_example2(N, seed=0)
        ds.save_csv(tmp_path / "d.csv")
        p = write_json(tmp_path / "c.json", {"dataset": str(tmp_path / "d.csv"),
                                             "k1": 2, "k2": 2, "starts": starts,
                                             **extra})
        assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "report.json") as fh:
            rep = json.load(fh)
        return ds, truth, rep

    def test_n400_stops_on_tolerance_near_the_noise_floor(self, tmp_path):
        ds, truth, rep = self.fit(tmp_path, 400, 20)
        header, rows = read_csv(tmp_path / "starts.csv")
        reason, iterations = header.index("reason"), header.index("mm_iterations")
        # every start stops on tolerance well before the 500-step cap
        assert all(r[reason] == "tolerance" and int(r[iterations]) <= 200
                   for r in rows)
        # and the best fits the data about as well as the generating model
        f_truth = 0.5 * float(np.mean((truth.eval(ds.X) - ds.y) ** 2))
        assert rep["best_objective"] <= 1.05 * f_truth

    def test_n4000_makes_no_unconverged_solve(self, tmp_path):
        _, _, rep = self.fit(tmp_path, 4000, 1, compute_residual=False)
        assert rep["inner_failures"] == 0
        assert rep["reason"] == "tolerance"

    def test_n1000_extrapolated_fits(self, tmp_path):
        # the CLI's starts 0-3: each trace keeps the benchmark's two
        # properties (f_N <= surrogate, accepted surrogates never rise, both
        # at 1e-10 relative) and extrapolates at least once; start 0 takes
        # 18 steps to f = 0.04071 without extrapolation
        ds, _ = pwa.synth_example2(1000, seed=0)
        ds.save_csv(tmp_path / "d.csv")
        p = write_json(tmp_path / "c.json", {"dataset": str(tmp_path / "d.csv"),
                                             "k1": 2, "k2": 2, "starts": 4,
                                             "compute_residual": False})
        cfg = load_config(p, "fit")
        problem = cli._problem(cfg, ds)
        results = cli.multi_start(problem, pwa.assemble(problem), cfg, cfg["starts"])
        for _, rep, _, err in results:
            assert err is None
            prev = None
            for r in rep.trace:
                assert r.f_N - r.surrogate <= 1e-10 * max(1.0, abs(r.surrogate))
                if prev is not None and r.accepted:
                    assert r.surrogate - prev <= 1e-10 * max(1.0, abs(prev))
                prev = r.surrogate
            assert any(r.extrapolated for r in rep.trace)
        rep0 = results[0][1]
        assert rep0.iterations <= 12 and rep0.f_N <= 0.04071

    def test_quantile_fit_takes_more_than_one_step(self, tmp_path):
        # the cold first solve of these starts ends at sn_max_iter; if it
        # returned its last nonmonotone iterate rather than its best, start 3
        # would get a worse first point, reject its second draw and stop
        # after one step at f = 0.80
        self.fit(tmp_path, 1000, 4, loss="quantile", tau=0.3,
                 compute_residual=False)
        header, rows = read_csv(tmp_path / "starts.csv")
        iterations = header.index("mm_iterations")
        assert all(int(r[iterations]) > 1 for r in rows)


class TestFolds:
    def test_partition(self):
        idx = _fold_indices(10, 5, seed=0)
        assert sorted(np.bincount(idx, minlength=5)) == [2, 2, 2, 2, 2]

    def test_uneven_sizes(self):
        idx = _fold_indices(11, 3, seed=1)
        counts = sorted(np.bincount(idx, minlength=3))
        assert counts == [3, 4, 4]

    def test_seeded(self):
        assert np.array_equal(_fold_indices(20, 4, 7), _fold_indices(20, 4, 7))
        assert not np.array_equal(_fold_indices(20, 4, 7), _fold_indices(20, 4, 8))


class TestCv:
    def test_grid_outputs(self, tmp_path):
        cfg = {"synth": {"example": 2, "N": 40, "seed": 3},
               "grid": [[1, 0], [1, 1]], "folds": 4, "starts": 1,
               "seed": 0, "variant": "one", "max_outer": 30,
               "init": {"strategy": "ols-perturb", "scale": 0.1},
               "compute_residual": False}
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["cv", "--config", str(p), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "ratio_grid.csv")
        assert header == ["k1\\k2", "0", "1"]
        assert rows[0][0] == "1"
        with open(tmp_path / "cv_report.json") as fh:
            rep = json.load(fh)
        for cell in rep["cells"].values():
            assert cell["ratio"] is None or cell["ratio"] > 0

    def test_fold_fits_skip_certificate(self, tmp_path, monkeypatch):
        # cv never reports a residual, so its fold fits must not compute one,
        # even when the config leaves compute_residual at its default
        calls = count_certificates(monkeypatch)
        cfg = {"synth": {"example": 2, "N": 30, "seed": 3},
               "grid": [[1, 1]], "folds": 3, "starts": 1, "seed": 0,
               "max_outer": 5}
        for variant in ("random", "one"):
            p = write_json(tmp_path / "c.json", {**cfg, "variant": variant})
            assert main(["cv", "--config", str(p), "--out", str(tmp_path)]) == 0
        assert calls == []

    @pytest.mark.parametrize("N, folds", [(1, 2), (3, 5)])
    def test_fewer_rows_than_folds_rejected(self, tmp_path, capsys, N, folds):
        # a fold with no rows would be fitted on an empty training set (N = 1)
        # or scored on no test rows, and still counted in "folds"
        cfg = {"synth": {"example": 2, "N": N, "seed": 3}, "grid": [[1, 1]],
               "folds": folds, "starts": 1, "max_outer": 5}
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["cv", "--config", p, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{folds} folds need at least {folds} data rows" in err
        assert not (tmp_path / "cv_report.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_failed_cell_has_no_ratio(self, tmp_path):
        # a cell whose every fold fit fails is reported without a ratio, and
        # the command still succeeds
        cfg = {"synth": {"example": 2, "N": 20, "seed": 3}, "grid": [[1, 1]],
               "folds": 2, "starts": 1, "init": {"scale": 1e300}}
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["cv", "--config", p, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "cv_report.json") as fh:
            cell = json.load(fh)["cells"]["1,1"]
        assert cell["ratio"] is None and cell["failed"] == "all simulations failed"
        assert cell["detail"] == [{"simulation": 0, "failed": "all starts failed"}]
        assert read_csv(tmp_path / "ratio_grid.csv")[1] == [["1", ""]]

    def test_affine_cell_ratio_one(self, tmp_path):
        # (k1, k2) = (1, 0) initialized at the OLS fit reproduces OLS: the
        # cross-validated error ratio is 1 up to solver tolerance
        cfg = {"synth": {"example": 1, "N": 60, "seed": 4},
               "grid": [[1, 0]], "folds": 5, "starts": 1, "seed": 0,
               "init": {"strategy": "ols-perturb", "scale": 0.0},
               "variant": "full", "tol_rel": 1e-15, "max_outer": 1500,
               "compute_residual": False}
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["cv", "--config", str(p), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "cv_report.json") as fh:
            rep = json.load(fh)
        assert rep["cells"]["1,0"]["ratio"] == pytest.approx(1.0, abs=1e-3)


class TestCheck:
    def test_pwa1d_branch(self, tmp_path):
        cfg = {"pwa1d": {"breakpoints": [0.0],
                         "pieces": [[-1.0, 0.0], [1.0, 0.0]]},
               "points": [0.0, 1.0]}
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["check", "--config", str(p), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "check.json") as fh:
            rep = json.load(fh)
        at0, at1 = rep["points"]
        assert at0["d_stationary"] and at0["local_min"]
        assert at0["b_sub"] == [-1.0, 1.0]
        assert not at1["C_stationary"]

    def test_model_dataset_branch(self, tmp_path):
        ds, mdl = pwa.synth_example2(20, seed=6)
        ds.save_csv(tmp_path / "d.csv")
        write_json(tmp_path / "m.json", mdl.to_json())
        cfg = {"model": str(tmp_path / "m.json"),
               "dataset": str(tmp_path / "d.csv")}
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["check", "--config", str(p), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "check.json") as fh:
            rep = json.load(fh)
        assert rep["dstat_residual"] >= 0.0
        assert 0.0 < rep["coverage"] <= 1.0
        assert rep["unconverged"] == 0
        assert 0.0 <= rep["residual_bound"] < float("inf")
        assert rep["objective"] > 0.0

    def test_check_reproduces_fit_residual(self, tmp_path):
        # fit and check certify with one proximal weight: checking a fit's
        # best model on its data reports the fit's own residual
        ds, _ = pwa.synth_example2(200, seed=4)
        ds.save_csv(tmp_path / "d.csv")
        p = write_json(tmp_path / "fit.json", {"dataset": str(tmp_path / "d.csv"),
                                               "k1": 2, "k2": 2, "starts": 2})
        assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 0
        p = write_json(tmp_path / "chk.json", {"model": str(tmp_path / "best_model.json"),
                                               "dataset": str(tmp_path / "d.csv")})
        assert main(["check", "--config", p, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "report.json") as fh:
            fit = json.load(fh)
        with open(tmp_path / "check.json") as fh:
            check = json.load(fh)
        assert fit["residual_kind"] == "dstat"
        assert check["dstat_residual"] == fit["residual"]
        assert check["coverage"] == fit["residual_coverage"]
        assert check["unconverged"] == fit["residual_unconverged"]
        assert check["residual_bound"] == fit["residual_bound"]
        assert 0.0 <= fit["residual_bound"] < float("inf")

    def test_explicit_c_is_the_certificate_weight(self, tmp_path):
        # a check with "c" certifies at that proximal weight, not at the
        # data-scaled default
        ds, _ = pwa.synth_example2(60, seed=4)
        ds.save_csv(tmp_path / "d.csv")
        p = write_json(tmp_path / "fit.json", {"dataset": str(tmp_path / "d.csv"),
                                               "k1": 2, "k2": 2, "starts": 1,
                                               "compute_residual": False})
        assert main(["fit", "--config", p, "--out", str(tmp_path)]) == 0
        residuals = []
        for c in (None, 0.5):
            p = write_json(tmp_path / "chk.json",
                           {"model": str(tmp_path / "best_model.json"),
                            "dataset": str(tmp_path / "d.csv"), "c": c})
            assert main(["check", "--config", p, "--out", str(tmp_path)]) == 0
            with open(tmp_path / "check.json") as fh:
                residuals.append(json.load(fh)["dstat_residual"])
        with open(tmp_path / "best_model.json") as fh:
            theta = pwa.PWAModel.from_json(json.load(fh)).flatten()
        comp = pwa.assemble(pwa.PWAProblem(ds, k1=2, k2=2))
        assert residuals[1] == stationarity.dstat_residual(comp, theta, 0.5).residual
        assert residuals[1] != residuals[0]

    def test_dimension_mismatch_rejected(self, tmp_path, capsys):
        # a model of d = 2 against a one-feature dataset is a config error
        _, mdl = pwa.synth_example2(20, seed=6)
        write_json(tmp_path / "m.json", mdl.to_json())
        pwa.Dataset(np.linspace(-1.0, 1.0, 20)[:, None], np.zeros(20)).save_csv(
            tmp_path / "d.csv")
        p = write_json(tmp_path / "c.json", {"model": str(tmp_path / "m.json"),
                                             "dataset": str(tmp_path / "d.csv")})
        assert main(["check", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "model has 2 features, dataset 1" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        ({"A": [[1.0, 2.0], [3.0, 4.0]], "alpha": [0.0]}, "alpha of k1 = 2"),
        ({"k2": 2, "B": [[1.0, 2.0, 3.0]]}, "B of d = 2 columns"),
        ({"k1": 3}, "declared k1 = 3"),
        ({"k2": 0, "B": [[5.0, 6.0]], "beta": []}, "beta of k2 = 1"),
        ({"alpha": [float("nan"), 1.0]}, "non-finite"),
    ], ids=["alpha-size", "B-shape", "k1-mismatch", "B-with-k2-0", "nan"])
    def test_malformed_model_rejected(self, tmp_path, capsys, change, message):
        # a model whose arrays do not fit its declared k1, k2 and its d, or
        # hold a non-finite entry, is a config error: not a solver error
        # (exit 3) raised where the arrays are first used, nor a certificate
        # of some other model
        ds, mdl = pwa.synth_example2(20, seed=6)
        ds.save_csv(tmp_path / "d.csv")
        write_json(tmp_path / "m.json", {**mdl.to_json(), **change})
        p = write_json(tmp_path / "c.json", {"model": str(tmp_path / "m.json"),
                                             "dataset": str(tmp_path / "d.csv")})
        assert main(["check", "--config", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model:") and message in err

    @pytest.mark.parametrize("content", [[1, 2], "abc", {"A": {"x": 1}}],
                             ids=["list", "string", "object-array"])
    def test_model_file_not_a_model_rejected(self, tmp_path, capsys, content):
        # a model file holding JSON other than an object of number arrays is
        # a config error, not a TypeError traceback
        ds, mdl = pwa.synth_example2(20, seed=6)
        ds.save_csv(tmp_path / "d.csv")
        if isinstance(content, dict):
            content = {**mdl.to_json(), **content}
        write_json(tmp_path / "m.json", content)
        p = write_json(tmp_path / "c.json", {"model": str(tmp_path / "m.json"),
                                             "dataset": str(tmp_path / "d.csv")})
        assert main(["check", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: model:")

    def test_rounding_level_slopes_classify_consistently(self, tmp_path):
        # slopes -1e-15 and 1e-15 are kept apart: d-stationary, and so C- and
        # l-stationary, with the Clarke set they span
        cfg = {"pwa1d": {"breakpoints": [0.0],
                         "pieces": [[-1e-15, 0.0], [1e-15, 0.0]]},
               "points": [0.0]}
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["check", "--config", str(p), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "check.json") as fh:
            (at0,) = json.load(fh)["points"]
        assert at0["C_stationary"] and at0["l_stationary"]
        assert at0["d_stationary"] and at0["local_min"]
        assert at0["clarke_sub"] == [-1e-15, 1e-15]

    @pytest.mark.parametrize("points, xs", [(None, [0.0]), ([], [])], ids=["null", "empty"])
    def test_points_default_only_when_null(self, tmp_path, points, xs):
        # an absent or null `points` means x = 0; an empty list means none
        cfg = {"pwa1d": {"pieces": [[1.0, 0.0]]}, "points": points}
        p = write_json(tmp_path / "c.json", cfg)
        assert main(["check", "--config", str(p), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "check.json") as fh:
            assert [pt["x"] for pt in json.load(fh)["points"]] == xs

    @pytest.mark.parametrize("keys", [("pwa1d", "model"), ("pwa1d", "dataset"),
                                      ("pwa1d", "model", "dataset"),
                                      ("points", "model", "dataset")],
                             ids=["pwa1d+model", "pwa1d+dataset", "pwa1d+both", "points+model"])
    def test_mixed_branches_rejected(self, tmp_path, capsys, keys):
        # check runs one branch: a config for both would have one dropped
        # silently, and `points` without a `pwa1d` would be ignored
        ds, mdl = pwa.synth_example2(20, seed=6)
        ds.save_csv(tmp_path / "d.csv")
        write_json(tmp_path / "m.json", mdl.to_json())
        given = {"pwa1d": {"pieces": [[1.0, 0.0]]}, "points": [0.0],
                 "model": str(tmp_path / "m.json"), "dataset": str(tmp_path / "d.csv")}
        p = write_json(tmp_path / "c.json", {k: given[k] for k in keys})
        assert main(["check", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not os.path.exists(tmp_path / "o" / "check.json")

    def test_neither_branch_rejected(self, tmp_path):
        p = write_json(tmp_path / "c.json", {"points": [0.0]})
        assert main(["check", "--config", str(p), "--out", str(tmp_path)]) == 2
