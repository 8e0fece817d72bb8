"""Spans around pwafit's layer boundaries, recorded from outside the package.

While `Tracer.active()` is entered, the functions below are replaced by
wrappers that record a span (name, start, end, parent) and, where a metric
needs it, what the call returned.  Spans stay in memory; `write` dumps them
as JSON lines.  The layers are the package modules; each span's self time
(its duration minus its children's) goes to one bucket of a partition of the
operation's wall time, so the buckets' seconds add up to the whole operation.

Work the benchmark itself does inside a wrapper (the argmax-pair check of
each selection, the certificate's displacements) runs on a paused clock, so
no span is charged for it.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import numpy as np

from pwafit import cli, funcs, mm, pwa, snewton, stationarity

import checks

# (owner, attribute, span name).  mm and stationarity import `sn_solve`
# into their own namespaces, so both bindings are wrapped.
TARGETS = [
    (cli, "main", "cli.main"),
    (pwa, "assemble", "pwa.assemble"),
    (mm, "run", "mm.run"),
    (mm, "mm_iterate", "mm.mm_iterate"),
    (mm, "select_pairs", "mm.select_pairs"),
    (mm, "build_subproblem", "mm.build_subproblem"),
    (mm, "sn_solve", "snewton.sn_solve"),
    (stationarity, "sn_solve", "snewton.sn_solve"),
    (snewton.DualSubproblem, "value_grad", "snewton.value_grad"),
    (funcs.CompositeProblem, "f_N", "funcs.f_N"),
    (funcs.CompositeProblem, "surrogate_value", "funcs.surrogate"),
    (stationarity, "dstat_residual", "stationarity.certify"),
    (stationarity, "weak_mstat_residual", "stationarity.certify"),
]

# span name -> partition bucket, for spans outside any certificate
BUCKET = {
    "cli.main": "cli.self",
    "pwa.assemble": "pwa.assemble",
    "mm.run": "mm.run",
    "mm.mm_iterate": "mm.run",
    "mm.select_pairs": "mm.select_pairs",
    "mm.build_subproblem": "mm.build_subproblem",
    "snewton.sn_solve": "snewton.self",
    "snewton.value_grad": "snewton.value_grad",
    "funcs.f_N": "funcs.f_N",
    "funcs.surrogate": "funcs.surrogate",
    "stationarity.certify": "stationarity.certify",
}
PARTITION = sorted(set(BUCKET.values()))
CERTIFY = "stationarity.certify"


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, op index, info]
        self.spans: list[list] = []
        self.problems: list[str] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._op = -1
        self._op_data = None
        self._rows: dict[int, tuple] = {}   # id(problem) -> (problem, own X rows)
        self._eps = 0.0
        self._op_start = 0.0
        self.op_walls: list[float] = []
        # the open certificate: (theta_bar, displacement of each SN solve)
        self._cert: tuple | None = None
        self.op_residuals: list[float] = []   # certificates of the current op
        self._pre = {"mm.build_subproblem": self._check_selection,
                     CERTIFY: self._enter_certificate}
        self._post = {"pwa.assemble": _post_assemble, "mm.run": _post_run,
                      "mm.select_pairs": _post_select,
                      "snewton.sn_solve": self._post_sn,
                      CERTIFY: self._exit_certificate}

    # -- clock and spans

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextlib.contextmanager
    def _pause(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        pre, post = self._pre.get(name), self._post.get(name)

        def wrapper(*args, **kwargs):
            if pre is not None:
                with self._pause():
                    pre(args, kwargs)
            idx = len(spans)
            spans.append([name, self.now(), None,
                          stack[-1] if stack else -1, self._op, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = self.now()
            if post is not None:
                with self._pause():
                    spans[idx][5] = post(args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def active(self):
        saved = []
        try:
            for owner, attr, name in TARGETS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- operations

    def begin_op(self, op):
        self._op += 1
        self._op_data = op.data
        self._eps = float(op.config.get("eps", 1e-4))
        self._rows = {}
        self._cert = None
        self.op_residuals = []
        self._op_start = self.now()

    def end_op(self) -> float:
        """Wall time of the operation just traced, benchmark checks excluded."""
        wall = self.now() - self._op_start
        self.op_walls.append(wall)
        self._rows = {}
        return wall

    # -- argmax-pair check of every selection handed to build_subproblem

    def _own_rows(self, problem):
        """The benchmark's own features of the problem's samples."""
        hit = self._rows.get(id(problem))
        if hit is not None:
            return hit[1]
        X = self._op_data.X
        d = X.shape[1]
        index = {row.tobytes(): i for i, row in enumerate(X)}
        seen = np.ascontiguousarray(problem.U[::problem.k1, :d])
        try:
            rows = X[[index[r.tobytes()] for r in seen]]
        except KeyError:
            rows = None
            self.problems.append("traced problem holds samples that are not in "
                                 "the operation's dataset")
        self._rows[id(problem)] = (problem, rows)
        return rows

    def _check_selection(self, args, kwargs):
        names = ("problem", "state", "sel1", "sel2", "c")
        a = dict(zip(names, args), **kwargs)
        X = self._own_rows(a["problem"])
        if X is None:
            return
        under_certificate = any(self.spans[i][0] == CERTIFY for i in self._stack)
        eps = checks.TIE_TOL if under_certificate else self._eps
        self.problems += checks.check_selection(
            X, a["state"].theta, a["problem"].k1, a["sel1"], a["sel2"], eps,
            f"selection at span {len(self.spans)}")

    # -- the certificate's residual against its own SN solves

    def _enter_certificate(self, args, kwargs):
        a = dict(zip(("problem", "theta_bar"), args), **kwargs)
        self._cert = (np.asarray(a["theta_bar"], dtype=float), [])

    def _post_sn(self, args, kwargs, res):
        info = _post_sn(args, kwargs, res)
        if self._cert is not None:
            theta_bar, disps = self._cert
            info["displacement"] = float(np.abs(res.theta - theta_bar).max(initial=0.0))
            disps.append(info["displacement"])
        return info

    def _exit_certificate(self, args, kwargs, out):
        residual = out[0] if isinstance(out, tuple) else out
        self.problems += checks.check_certificate(
            residual, self._cert[1], f"certificate at span {len(self.spans)}")
        self._cert = None
        self.op_residuals.append(residual)
        return {"residual": residual}

    # -- results

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op,
                                     "info": info}) + "\n")

    def layer_seconds(self) -> dict:
        """Self seconds per partition bucket, summed over traced operations."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        certify = self._under_certificate()
        out = dict.fromkeys(PARTITION, 0.0)
        for i, (name, t0, t1, _, _, _) in enumerate(spans):
            out[CERTIFY if certify[i] else BUCKET[name]] += (t1 - t0) - child[i]
        return out

    def _under_certificate(self):
        flags = []
        for name, _, _, parent, _, _ in self.spans:
            flags.append(name == CERTIFY or (parent >= 0 and flags[parent]))
        return flags

    def metrics(self, untraced_times, traced_times) -> dict:
        n_ops = max(1, len(self.op_walls))
        wall = sum(self.op_walls)
        secs = self.layer_seconds()
        certify = self._under_certificate()

        def pct(v):
            return {"value": 100.0 * v / wall if wall > 0 else 0.0, "unit": "%"}

        def sec(bucket):
            return {"value": secs[bucket] / n_ops, "unit": "s"}

        def per_op(v, unit="count"):
            return {"value": v / n_ops, "unit": unit}

        def infos(name, inside_certificate=False):
            return [s[5] for i, s in enumerate(self.spans)
                    if s[0] == name and certify[i] == inside_certificate]

        runs = infos("mm.run")
        # the MM loop alone: mm.run minus the certificate it ends with
        mm_loop_s = sum((s[2] - s[1]) * (1 if s[0] == "mm.run" else -1)
                        for s in self.spans if s[0] == "mm.run" or (
                            s[0] == CERTIFY and s[3] >= 0
                            and self.spans[s[3]][0] == "mm.run"))
        iterations = sum(r["iterations"] for r in runs)
        sels = infos("mm.select_pairs")
        builds = [s for i, s in enumerate(self.spans)
                  if s[0] == "mm.build_subproblem" and not certify[i]
                  and s[3] >= 0 and self.spans[s[3]][0] == "mm.mm_iterate"]
        sn = infos("snewton.sn_solve")
        sn_cert = infos("snewton.sn_solve", True)
        sn_iters = sum(r["iterations"] for r in sn)
        vg_calls = len(infos("snewton.value_grad"))
        assembled = infos("pwa.assemble")
        m = {
            "cli.self_s": sec("cli.self"),
            "pwa.assemble_s": sec("pwa.assemble"),
            "pwa.assemble_mb": {"value": max((a["bytes"] for a in assembled),
                                             default=0) / 1e6, "unit": "MB"},
            "mm.run_s": sec("mm.run"),
            "mm.fits": per_op(len(runs)),
            "mm.iterations": per_op(iterations),
            "mm.iter_per_s": {"value": iterations / mm_loop_s if mm_loop_s else 0.0,
                              "unit": "1/s"},
            "mm.rejected": per_op(sum(r["rejected"] for r in runs)),
            "mm.stopped_tolerance": per_op(sum(r["tolerance"] for r in runs)),
            "mm.select_pairs_s": sec("mm.select_pairs"),
            "mm.select_pairs_calls": per_op(len(sels)),
            "mm.selections": per_op(sum(s["selections"] for s in sels)),
            "mm.build_subproblem_s": sec("mm.build_subproblem"),
            "mm.build_subproblem_calls": per_op(len(builds)),
            "snewton.sn_solve_s": {"value": (secs["snewton.self"]
                                              + secs["snewton.value_grad"]) / n_ops,
                                   "unit": "s"},
            "snewton.sn_calls": per_op(len(sn)),
            "snewton.sn_iterations": per_op(sn_iters),
            "snewton.sn_unconverged": per_op(sum(not r["converged"] for r in sn)),
            "snewton.kkt_over_tol_max": {"value": max((r["kkt_over_tol"] for r in sn),
                                                      default=0.0), "unit": "1"},
            "snewton.value_grad_s": sec("snewton.value_grad"),
            "snewton.value_grad_calls": per_op(vg_calls),
            "snewton.trials_per_iter": {"value": (vg_calls - len(sn)) / sn_iters
                                        if sn_iters else 0.0, "unit": "1"},
            "snewton.self_s": sec("snewton.self"),
            "funcs.f_N_s": sec("funcs.f_N"),
            "funcs.surrogate_s": sec("funcs.surrogate"),
            "stationarity.certify_s": sec("stationarity.certify"),
            "stationarity.selections": per_op(sum(
                1 for i, s in enumerate(self.spans)
                if s[0] == "mm.build_subproblem" and certify[i])),
            "stationarity.sn_iterations": per_op(sum(r["iterations"] for r in sn_cert)),
            "stationarity.sn_unconverged": per_op(sum(not r["converged"]
                                                      for r in sn_cert)),
            "trace.accounted_pct": pct(sum(secs.values())),
        }
        if untraced_times and traced_times:
            base = statistics.median(untraced_times)
            m["trace.overhead_pct"] = {
                "value": 100.0 * (statistics.median(traced_times) - base) / base,
                "unit": "%"}
        else:
            m["trace.overhead_pct"] = {"value": 0.0, "unit": "%"}
        return m


def _post_assemble(args, kwargs, comp):
    return {"bytes": int(comp.U.nbytes + comp.W.nbytes)}


def _post_run(args, kwargs, rep):
    return {"iterations": rep.iterations,
            "rejected": sum(not r.accepted for r in rep.trace),
            "tolerance": int(rep.reason == "tolerance")}


def _post_select(args, kwargs, out):
    return {"selections": len(out[0])}


def _post_sn(args, kwargs, res):
    cfg = kwargs.get("cfg") or (args[2] if len(args) > 2 else None) \
        or snewton.SNConfig()
    return {"iterations": res.iterations, "converged": bool(res.converged),
            "kkt_over_tol": res.kkt_residual / cfg.tol_grad}

