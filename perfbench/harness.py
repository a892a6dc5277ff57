"""Metric declarations, statistics, operation checks and machine facts.

Nothing here imports pagen, so the statistics can be tested on their own.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

# (name, unit, better, bound).  Every workload prints all of them, each
# measured from that workload's own run (see README.md for what the timed
# operation is on each workload).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("train_tokens_per_s", "tokens/s", "higher", 0.24),
    ("final_loss", "loss", "lower", 0.10),
    ("ops_per_s", "ops/s", "higher", 0.24),
    ("op_ms_p50", "ms", "lower", 0.24),
)

# The autodiff primitives present when the benchmark was defined.  Ops
# added later are still found by tracing.autodiff_ops() and counted in
# autodiff.ops_per_batch; they get their own line in the info output.
AUTODIFF_OPS = (
    "add", "add_const", "concat", "constant", "embedding", "exp",
    "hinge_floor", "log", "log_softmax", "matmul", "mul", "pick",
    "reduce_mean", "reduce_sum", "reshape", "scale", "sigmoid",
    "slice_cols", "softmax", "sub", "tanh", "tile_cols",
)

_SPAN_METRICS = (
    "autodiff.backward.busy_ms",
    "model.encode_batch.busy_ms",
    "model.teacher_forced_log_probs.busy_ms",
    "model.decode_logits.calls",
    "model.decode_logits.busy_ms",
    "objective.total_loss.busy_ms",
    "objective.total_loss.self_ms",
    "objective.bow_loss.busy_ms",
    "objective.gaussian_kl.busy_ms",
    "objective.r1.busy_ms",
    "objective.r2.busy_ms",
    "trainer.train.busy_ms",
    "trainer.train.self_ms",
    "trainer.clip_gradients.busy_ms",
    "trainer.adam_step.busy_ms",
    "model.save_checkpoint.busy_ms",
    "trainer.write_history_csv.busy_ms",
    "generation.generate.calls",
    "generation.generate.busy_ms",
    "generation.generate.self_ms",
    "generation.score_responses.calls",
    "generation.score_responses.busy_ms",
    "metrics.make_distractors.busy_ms",
    "metrics.make_distractors.self_ms",
    "metrics.urank.busy_ms",
    "metrics.urank.self_ms",
    "metrics.udistinct.busy_ms",
    "metrics.udistinct.self_ms",
    "metrics.build_user_lms.busy_ms",
    "metrics.build_user_lms.self_ms",
    "metrics.uppl.busy_ms",
    "metrics.uppl.self_ms",
    "metrics.bleu1.busy_ms",
    "metrics.bleu1.self_ms",
    "evaluate.evaluate_model.busy_ms",
    "evaluate.generate_responses.busy_ms",
    "corpus.generate_synthetic.busy_ms",
    "corpus.split.busy_ms",
    "corpus.Vocabulary.build.busy_ms",
    "trainer.encode_triples.busy_ms",
)

PROBE_METRICS = (
    "model.encode_batch.fwd_ms",
    "model.encode_batch.bwd_ms",
    "model.decode_logits.fwd_ms",
    "model.decode_logits.bwd_ms",
    "model.decode_logits.att_fwd_ms",
    "model.decode_logits.att_bwd_ms",
    "model.out_proj_log_softmax.fwd_ms",
    "model.out_proj_log_softmax.bwd_ms",
    "model.teacher_forced_log_probs.fwd_ms",
    "model.teacher_forced_log_probs.bwd_ms",
    "model.decode_step.beam_fwd_ms",
    "objective.total_loss.fwd_ms",
    "objective.total_loss.bwd_ms",
    "objective.bow_loss.fwd_ms",
    "objective.bow_loss.bwd_ms",
    "objective.gaussian_kl.fwd_ms",
    "objective.gaussian_kl.bwd_ms",
    "objective.r1.fwd_ms",
    "objective.r1.bwd_ms",
    "objective.r2.fwd_ms",
    "objective.r2.bwd_ms",
    "trainer.clip_gradients.probe_ms",
    "trainer.adam_step.probe_ms",
)

_DERIVED = (
    ("autodiff.ops_per_batch", "ops/batch"),
    ("model.decode_step.calls_per_request", "calls/request"),
    ("generation.decoder_rows_per_request", "rows/request"),
    ("trace.spans", "count"),
    ("trace.root_ms", "ms"),
    ("trace.root_self_ms", "ms"),
    ("trace.root_children_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def _unit(name):
    return "count" if name.endswith(".calls") else "ms"


# (name, unit, better); per-layer metrics carry no bound.
PER_LAYER = tuple(
    [(n, _unit(n), "lower") for n in _SPAN_METRICS]
    + [(f"autodiff.op.{op}.calls", "count", "lower") for op in AUTODIFF_OPS]
    + [(n, "ms", "lower") for n in PROBE_METRICS]
    + [(n, u, "lower") for n, u in _DERIVED]
)


# ---------------------------------------------------------------------------
# statistics

TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(n):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond
    it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def latency_summary(samples_ms):
    """(p50, tail percentile, tail value, n); tail is None below 20 samples."""
    import numpy as np
    n = len(samples_ms)
    p = tail_percentile(n)
    tail = float(np.percentile(samples_ms, p)) if p is not None else None
    return median(samples_ms), p, tail, n


# ---------------------------------------------------------------------------
# machine pace

# Median time of one reference-kernel call on the machine where the benchmark
# was defined (2-vCPU Xeon VM, numpy 2.4, one BLAS thread).  It sets only the
# scale of the adjusted timings.
REFERENCE_S = 5.0e-4

# Timings follow the kernel only part of the way, so they are divided by
# factor() ** PACE_EXPONENT.  Over three ten-run sets on that machine, 0.5
# gave the smallest worst-case spread of every timing on every workload;
# the whole factor over-corrected and at times doubled the raw spread (see
# README.md).
PACE_EXPONENT = 0.5


class Pace:
    """How fast the machine runs Python and small numpy ops right now.

    On a shared machine that speed drifts by 10-70% from one run to the
    next as neighbours come and go, far more than the changes the benchmark
    must detect.  tick() times a fixed reference kernel, at most every
    `every_s` seconds and only between timed operations.  It keeps the
    fastest of a burst of calls, so that the cache state left by the
    operation before does not count, and each call allocates its own
    arrays, so that no one memory layout counts.  factor() is the median
    sample over REFERENCE_S.  clock() is perf_counter minus the time spent
    in tick(), so timings taken with it exclude the kernel.

    Pace(None) never ticks; the traced run uses it.
    """

    BURST = 3

    def __init__(self, every_s=0.05):
        self.every_s = every_s
        self.samples = []
        self.excluded = 0.0
        self._due = 0.0
        if every_s is not None:
            import numpy as np
            rng = np.random.default_rng(0)
            self._np = np
            self._x = rng.normal(size=(64, 32)).astype(np.float32).tolist()
            self._w = (0.1 * rng.normal(size=(32, 128))).astype(np.float32).tolist()

    def clock(self):
        return perf_counter() - self.excluded

    def _kernel(self):
        np = self._np
        t0 = perf_counter()
        x = np.array(self._x, dtype=np.float32)
        w = np.array(self._w, dtype=np.float32)
        acc = {}
        for i in range(20):
            y = np.tanh(x @ w)
            x = y[:, :32] * 0.5 + x * 0.5
            acc[i % 7] = acc.get(i % 7, 0.0) + float(x[i, 0])
        return perf_counter() - t0

    def tick(self):
        start = perf_counter()
        if self.every_s is None or start < self._due:
            return
        self.samples.append(min(self._kernel() for _ in range(self.BURST)))
        end = perf_counter()
        self.excluded += end - start
        self._due = end + self.every_s

    def factor(self):
        """Above 1 when the machine runs slower than the reference."""
        return median(self.samples) / REFERENCE_S if self.samples else 1.0


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# operation checks

@dataclass
class Checks:
    """Counts checked operations; one failed check fails its operation."""
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


# ---------------------------------------------------------------------------
# machine facts

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def git_commit(root):
    """HEAD of the checkout read from .git without running git, or
    'unknown' (the benchmark may run from an exported tree)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(root, threads):
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "commit": git_commit(root),
    }
