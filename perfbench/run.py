"""pwafit benchmark: run one workload through `pwafit.cli.main`, as a user would.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's inputs are generated
from the seed (see workloads.py), then whole rounds of the workload's CLI
operations run until S seconds have passed.  Every operation's outputs are
checked (checks.py).  With --trace 1, untraced and traced rounds alternate and
the per-layer metrics come from the traced ones (tracer.py).

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import os
import time

# One BLAS / OpenMP thread: timings must not depend on how many cores the
# library grabs.  Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for inputs, outputs and span files")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and write the inputs, then exit (times set-up)")
    return ap.parse_args(argv)


def timed_setups(args) -> list[float]:
    """Wall seconds of SETUP_REPEATS fresh processes that only set up."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only",
               "--out", os.path.join(args.out, f"setup{i}")]
        t0 = time.perf_counter()
        # a blocking wait: wait(timeout) polls in steps of up to 50 ms
        rc = subprocess.Popen(cmd).wait()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"set-up process exited with {rc}")
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pwafit", "cli.py")):
        print(f"benchmark: no pwafit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from pwafit import cli

    import checks
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    workdir = os.path.join(args.out, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.prepare(args.workload, args.seed, workdir)
    if args.setup_only:
        return 0
    setup_times = [] if args.trace else timed_setups(args)

    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()

    def run_op(op, traced):
        """Returns (seconds, error or None, result of the output checks)."""
        shutil.rmtree(op.out, ignore_errors=True)
        if traced:
            tracer.begin_op(op)
        t0 = time.perf_counter()
        try:
            with tracer.active() if traced else contextlib.nullcontext():
                rc = cli.main(op.argv)
        except Exception:  # the program raised instead of returning an exit code
            return time.perf_counter() - t0, traceback.format_exc(limit=3), None
        dt = time.perf_counter() - t0
        if traced:
            dt = tracer.end_op()
        if rc != 0:
            return dt, f"exit code {rc}", None
        result = checks.check_op(wl, op)
        if traced and result.summary.get("residual") is not None:
            result.problems += checks.check_reported_residual(
                result.summary["residual"], tracer.op_residuals, op.out)
        return dt, None, result

    times, traced_times, failed_times = [], [], []
    attempted = failed = 0
    wrong = []
    summaries = []
    rounds = 0
    t_run = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t_run < args.seconds:
        modes = (False, True) if tracer else (False,)
        for traced in modes:
            for op in wl.ops:
                dt, err, result = run_op(op, traced)
                attempted += 1
                if err is not None:
                    failed += 1
                    failed_times.append(dt)
                    print(f"{op.command} {op.out}: failed: {err}", file=sys.stderr)
                    continue
                if result.problems:
                    failed += 1
                    failed_times.append(dt)
                    wrong.extend(result.problems)
                    continue
                (traced_times if traced else times).append(dt)
                summaries.append(result.summary)
        rounds += 1

    errors = [s["error"] for s in summaries]
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "op_times": times, "traced_op_times": traced_times,
            "setup_times": setup_times}
    for key in summaries[0] if summaries else ():
        info[key] = statistics.median(s[key] for s in summaries)

    if tracer:
        wrong.extend(tracer.problems)
        tracer.write(os.path.join(workdir, "spans.jsonl"))
        metrics = tracer.metrics(times, traced_times)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_s": {"value": statistics.median(times or failed_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "unit": "MB"},
            # 0 only when every operation failed, which `failed` reports
            "error": {"value": statistics.median(errors) if errors else 0.0,
                      "unit": "1"},
        }
    for msg in dict.fromkeys(wrong):
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
