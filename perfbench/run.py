"""pagen benchmark.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  `--workload all` runs every workload in
its own process, one after the other.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

from statistics import median

from harness import (AUTODIFF_OPS, END_TO_END, PACE_EXPONENT, PER_LAYER, Checks, Pace, machine,
                     peak_rss_mb)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train_toy", "train_paper", "serve", "evaluate")
# Set-up runs at least SETUPS times and until SETUP_MIN_S have passed; a
# set-up that takes milliseconds is too short to time once.
SETUPS = 3
SETUP_MIN_S = 2.0
BLAS_THREADS = 1


def _one_blas_thread():
    """Pins BLAS to one thread; must run before numpy is imported.  On a
    shared two-CPU machine a second BLAS thread made paper-scale steps about
    a quarter faster but twice as variable from run to run."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def measure(name, seed, seconds, trace, sizes=None):
    """Runs one workload in this process; returns (checks, metrics, info).
    pagen must be importable."""
    import pagen
    import probes
    import tracing
    from workloads import WORKLOADS, Run, Sizes, workdir_root

    wl = WORKLOADS[name](sizes or Sizes())
    checks = Checks()
    # the set-ups and the timed phase each have their own pace, so that each
    # timing is adjusted by the machine's pace while it ran
    setup_pace, pace = Pace(), Pace()
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=workdir_root())
    try:
        setup_run = Run(workdir, checks, setup_pace)
        setup_s, prints, setup_trainings = [], set(), []
        while not setup_s or (not trace and (len(setup_s) < SETUPS
                                             or sum(setup_s) < SETUP_MIN_S)):
            state = None    # let the previous set-up's memory go first
            t0 = setup_pace.clock()
            state = wl.setup(setup_run, seed)
            setup_s.append(setup_pace.clock() - t0)
            setup_pace.tick()
            prints.add(wl.fingerprint(state))
            setup_trainings.append(state["trainings"])
        checks.record(len(prints) == 1, "repeated set-ups differ")
        run = Run(workdir, checks, pace)
        wl.warmup(run, state, seed)
        timed = wl.timed(run, state, seed, seconds)

        # the timed trainings, or else those of the set-ups after the first,
        # which warms the process up
        trainings = timed.trainings or [t for ts in (setup_trainings[1:] or setup_trainings)
                                        for t in ts]
        first = timed.trainings or setup_trainings[0]
        raw = {
            "setup_s": median(setup_s),
            "train_tokens_per_s": (sum(t.tokens for t in trainings)
                                   / sum(t.seconds for t in trainings)),
            "ops_per_s": timed.ops / timed.busy_s,
            "op_ms_p50": timed.op_ms_p50(),
        }
        # timings as they would read with the machine at the reference pace
        setup_f = setup_pace.factor() ** PACE_EXPONENT
        f = pace.factor() ** PACE_EXPONENT
        train_f = f if timed.trainings else setup_f
        e2e = {
            "setup_s": raw["setup_s"] / setup_f,
            "train_tokens_per_s": raw["train_tokens_per_s"] * train_f,
            "final_loss": sum(t.final_loss for t in first) / len(first),
            "ops_per_s": raw["ops_per_s"] * f,
            "op_ms_p50": raw["op_ms_p50"] / f,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {n: u for n, u, _b, _bound in END_TO_END}
        info = dict(timed.info)
        info.update({f"raw.{n}": (v, units[n]) for n, v in raw.items()})
        info["pace.setup_factor"] = (setup_pace.factor(), "ratio")
        info["pace.factor"] = (pace.factor(), "ratio")
        info["pace.samples"] = (len(pace.samples), "count")
        info["setups"] = (len(setup_s), "count")
        info["ops"] = (timed.ops, "count")
        if not trace:
            return checks, {n: (e2e[n], units[n]) for n in units}, info

        del state, setup_trainings
        tracer = tracing.Tracer()
        traced_run = Run(workdir, checks, Pace(None), tracer)
        with tracer.installed(pagen):
            with tracer.span(tracing.ROOT):
                traced_state = wl.setup(traced_run, seed)
                traced = wl.timed(traced_run, traced_state, seed, seconds)
        values = tracing.layer_metrics(tracer)
        root, kids = values["trace.root_ms"], values["trace.root_children_ms"]
        checks.record(abs(values["trace.root_self_ms"] + kids - root) <= 1e-6 * root,
                      "root span self time plus children does not add up")
        # tracing overhead: traced minus untraced end-to-end figures, both
        # as measured (the traced pass does not tick the pace)
        traced_ops_per_s = traced.ops / traced.busy_s
        values["trace.overhead_pct"] = (raw["ops_per_s"] / traced_ops_per_s - 1.0) * 100.0
        for n, untraced, with_trace, unit in (
                ("ops_per_s", raw["ops_per_s"], traced_ops_per_s, "ops/s"),
                ("op_ms_p50", raw["op_ms_p50"], traced.op_ms_p50(), "ms")):
            info[f"untraced.{n}"] = (untraced, unit)
            info[f"traced.{n}"] = (with_trace, unit)
            info[f"trace_overhead.{n}"] = (with_trace - untraced, unit)
        for site in tracer.missing:
            info[f"untraced.{site}"] = (0, "missing")
        for op in sorted(set(tracer.op_calls) - set(AUTODIFF_OPS)):
            info[f"autodiff.op.{op}.calls"] = (tracer.op_calls[op], "count")
        tracer.write(os.path.join(workdir_root(), f"spans-{name}-{seed}.jsonl"))
        spec = wl.probe_spec(traced_state)
        del tracer, traced_state, traced
        values.update(probes.run(spec, seed))
        return checks, {n: (values[n], u) for n, u, _b in PER_LAYER}, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}})


def run_one(args):
    _one_blas_thread()
    if not os.path.isfile(os.path.join(SRC, "pagen", "__init__.py")):
        print(f"error: no pagen sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for k, v in machine(ROOT, BLAS_THREADS).items():
        print(f"machine {k}: {v}")
    checks, metrics, info = measure(args.workload, args.seed, args.seconds, args.trace)
    direction = {n: b for n, _u, b, *_ in (END_TO_END + PER_LAYER)}
    for n, (v, u) in info.items():
        print(f"info {args.workload} {n} = {v:.6g} {u}")
    for n, (v, u) in metrics.items():
        print(f"metric {args.workload} {n} = {v:.6g} {u} ({direction[n]} is better)")
    for m in checks.messages:
        print(f"failed: {m}", file=sys.stderr)
    correct = checks.failed == 0
    print(f"ops {args.workload}: attempted={checks.attempted} failed={checks.failed}")
    print(_result_line(correct, checks.attempted, checks.failed, metrics))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, so each peak_rss_mb is its own."""
    total = {"attempted": 0, "failed": 0, "correct": True, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["correct"] = total["correct"] and res["correct"] and proc.returncode == 0
        for n, m in res["metrics"].items():
            total["metrics"][f"{name}.{n}"] = (m["value"], m["unit"])
    print(_result_line(total["correct"], total["attempted"], total["failed"], total["metrics"]))
    return 0 if total["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
