"""Benchmark launcher for trajdiff.

    python3 perfbench/run.py --workload best-of-n|pipeline \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints one line per metric, one ``env``
line, and as its last line a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

BLAS is pinned to one thread here, before numpy is imported, and the
set-up children inherit the setting; the program itself is not changed.
"""

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402  (after the BLAS pin)
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import calib  # noqa: E402  (allocates its buffers before the program runs)
import envinfo  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as wl_mod  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_TIMEOUT_S = 150


class SetupError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", choices=("best-of-n", "pipeline"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the benchmark's own smoke tests")
    # internal: the set-up child
    p.add_argument("--prepare", choices=("model", "corpus"),
                   help=argparse.SUPPRESS)
    p.add_argument("--setups", type=int, help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.prepare is None and args.workload is None:
        p.error("--workload is required")
    return args


def load_program():
    """Import trajdiff from the checkout's ``src``; None if it is missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "trajdiff", "cli.py")):
        return None
    sys.path.insert(0, src)
    from trajdiff import (autodiff, checkpoint, cli, data, diffusion,
                          encoder, evaluate, scoring)
    return {"autodiff": autodiff, "checkpoint": checkpoint, "cli": cli,
            "data": data, "diffusion": diffusion, "encoder": encoder,
            "evaluate": evaluate, "scoring": scoring}


def run_setup(kind, size_name, setups, d):
    """Set up in a child process; returns its report (see prepare)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--prepare", kind,
           "--size", size_name, "--dir", d]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SetupError(f"set-up took over {SETUP_TIMEOUT_S} s") from None
    if res.returncode != 0:
        raise SetupError(f"set-up exited {res.returncode}: "
                         f"{res.stderr.strip()[-800:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def emit(metrics, units, notes, env, run):
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {units[name]}{note}")
    for problem in run.problems():
        print(f"problem: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def measure(args, mods, work):
    size = wl_mod.SIZES[args.size]
    run = wl_mod.Run(mods["cli"], None if args.trace else calib.HostSpeed())
    wl = wl_mod.WORKLOADS[args.workload](run, size, args.seed, work, mods)
    setup = run_setup(wl.setup_kind, args.size, 1 if args.trace else None,
                      os.path.join(work, "setup"))
    run.adopt(setup["ops"])
    if any(op.rc != 0 for op in run.ops):
        raise SetupError("; ".join(run.problems()))
    wl.attach(setup["setups"][-1]["dir"])
    env = envinfo.record(ROOT, args.workload, args.seed, BLAS_ENV)

    if not args.trace:
        wl_mod.run_steps(wl.steps(), args.seconds)
        wl.probe()
        env["host_factor"] = run.normalize()
        env["setup_host_factor"] = setup["host_factor"]
        try:
            metrics, notes = wl.metrics(setup["setups"])
        except wl_mod.NoResult:
            for problem in run.problems():
                print(f"problem: {problem}", file=sys.stderr)
            raise
        metrics["setup_s"] = statistics.median(
            [row["seconds"] for row in setup["setups"]])
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_share"] = 1.0 - run.failed / run.attempted
        metrics = {k: metrics[k] for k in wl_mod.END_TO_END}
        emit(metrics, wl_mod.END_TO_END, notes, env, run)
        return

    # traced run: after one warm-up step, each step runs untraced and then
    # again traced, and the two outputs must match
    tracer = tracer_mod.Tracer(mods)
    spent = {"untraced": 0.0, "traced": 0.0}

    def pair(k, plain, traced):
        t0 = time.perf_counter()
        expected = plain()
        spent["untraced"] += time.perf_counter() - t0
        tracer.set_op(k)
        with tracer:
            t0 = time.perf_counter()
            got = traced()
            spent["traced"] += time.perf_counter() - t0
        run.ops[-1].check(got == expected,
                          f"traced step {k} output differs from untraced")

    next(wl.steps())()
    k = 0
    for plain, traced in zip(wl.steps(), wl.steps()):
        pair(k, plain, traced)
        k += 1
        if spent["untraced"] >= args.seconds / 2:
            break
    for plain, traced in zip(wl.probe_steps(), wl.probe_steps()):
        pair(k, plain, traced)
        k += 1
    untraced_s, traced_s = spent["untraced"], spent["traced"]
    os.makedirs(os.path.join(WORK_ROOT, "traces"), exist_ok=True)
    tracer.save(os.path.join(WORK_ROOT, "traces", f"{args.workload}.npz"))
    metrics = tracer_mod.layer_metrics(tracer.layer_stats())
    metrics["bench.untraced.wall_s"] = untraced_s
    metrics["bench.traced.wall_s"] = traced_s
    metrics["bench.trace.overhead_s"] = traced_s - untraced_s
    metrics["bench.trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    emit(metrics, tracer_mod.LAYER_UNITS, {}, env, run)


def main(argv=None):
    args = parse_args(argv)
    mods = load_program()
    if mods is None:
        print(f"perfbench: no trajdiff sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.prepare:
        size = wl_mod.SIZES[args.size]
        if args.setups is not None:
            field = "model_setups" if args.prepare == "model" \
                else "corpus_setups"
            size = dataclasses.replace(size, **{field: args.setups})
        print(json.dumps(wl_mod.prepare(mods["cli"], calib.HostSpeed(),
                                        args.prepare, size, args.dir)))
        return 0

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        measure(args, mods, work)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    except wl_mod.NoResult as exc:
        print(f"perfbench: no result: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
