"""Span tracing from outside the program.

The tracer rebinds module attributes of pagen at the place where each
caller looks the name up (trainer imports total_loss and backward by name,
so those are wrapped as pagen.trainer.total_loss and
pagen.trainer.backward).  Spans live in memory and are written as JSON
lines when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import json
from collections import Counter
from time import perf_counter

from harness import AUTODIFF_OPS, PER_LAYER

# autodiff functions that are not graph ops
_NOT_OPS = frozenset({"backward", "gradients", "grad_check", "no_grad", "grad_enabled"})

REQUEST_SPANS = ("generation.generate", "generation.score_responses")
ROOT = "run"


def autodiff_ops(ad):
    """Public functions of the autodiff module that build graph nodes,
    found by scanning the module so that new fused ops are counted too."""
    return sorted(name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and not name.startswith("_") and name not in _NOT_OPS)


def span_targets(pagen):
    """(owner, attribute, span name) for every traced call site."""
    ad, C, E, G, MX, M, O, T = (pagen.autodiff, pagen.corpus, pagen.evaluate,
                                pagen.generation, pagen.metrics, pagen.model,
                                pagen.objective, pagen.trainer)
    return [
        (T, "train", "trainer.train"),
        (T, "backward", "autodiff.backward"),
        (M, "encode_batch", "model.encode_batch"),
        (M, "teacher_forced_log_probs", "model.teacher_forced_log_probs"),
        (M, "decode_logits", "model.decode_logits"),
        (M, "decode_step", "model.decode_step"),
        (M, "save_checkpoint", "model.save_checkpoint"),
        (T, "total_loss", "objective.total_loss"),
        (O, "bow_loss", "objective.bow_loss"),
        (O, "gaussian_kl", "objective.gaussian_kl"),
        (O, "r1", "objective.r1"),
        (O, "r2", "objective.r2"),
        (T, "clip_gradients", "trainer.clip_gradients"),
        (T, "adam_step", "trainer.adam_step"),
        (T, "write_history_csv", "trainer.write_history_csv"),
        (T, "encode_triples", "trainer.encode_triples"),
        (E, "encode_triples", "trainer.encode_triples"),
        (G, "generate", "generation.generate"),
        (G, "score_responses", "generation.score_responses"),
        (MX, "make_distractors", "metrics.make_distractors"),
        (MX, "urank", "metrics.urank"),
        (MX, "udistinct", "metrics.udistinct"),
        (MX, "build_user_lms", "metrics.build_user_lms"),
        (MX, "uppl", "metrics.uppl"),
        (MX, "bleu1", "metrics.bleu1"),
        (E, "evaluate_model", "evaluate.evaluate_model"),
        (E, "generate_responses", "evaluate.generate_responses"),
        (C, "generate_synthetic", "corpus.generate_synthetic"),
        (C, "split", "corpus.split"),
    ]


class Tracer:
    """Spans are [name, start, end, parent index, id]; the id is the
    training batch or request the span belongs to."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.open = Counter()
        self.op_calls = {}
        self.batch_ops = 0
        self.batches = 0
        self.decoder_rows = 0
        self.rid = None
        self.missing = []      # call sites the program no longer has
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        i = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self.stack[-1] if self.stack else -1, self.rid])
        self.stack.append(i)
        self.open[name] += 1
        return i

    def _exit(self, i):
        self.spans[i][2] = perf_counter()
        self.stack.pop()
        self.open[self.spans[i][0]] -= 1

    @contextlib.contextmanager
    def span(self, name):
        i = self._enter(name)
        try:
            yield
        finally:
            self._exit(i)

    def traced(self, name, fn):
        def wrapper(*args, **kwargs):
            i = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(i)
        return wrapper

    def counted(self, name, fn):
        calls = self.op_calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, pagen):
        ad = pagen.autodiff
        for name in autodiff_ops(ad):
            self._rebind(ad, name, self.counted(name, getattr(ad, name)))
        for owner, attr, name in span_targets(pagen):
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            wrapped = self.traced(name, fn)
            if name == "objective.total_loss":
                wrapped = self._batch_hook(wrapped)
            elif name == "model.decode_logits":
                wrapped = self._rows_hook(wrapped)
            self._rebind(owner, attr, wrapped)
        # Vocabulary.build is a classmethod: wrap the function underneath
        voc = pagen.corpus.Vocabulary
        build = voc.__dict__["build"].__func__
        self._rebind(voc, "build",
                     classmethod(self.traced("corpus.Vocabulary.build", build)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self, pagen):
        self.install(pagen)
        try:
            yield self
        finally:
            self.uninstall()

    def _batch_hook(self, fn):
        """Numbers the batch and counts the graph ops its forward pass makes."""
        def wrapper(*args, **kwargs):
            self.batches += 1
            self.rid = f"batch{self.batches}"
            before = sum(self.op_calls.values())
            try:
                return fn(*args, **kwargs)
            finally:
                self.batch_ops += sum(self.op_calls.values()) - before
        return wrapper

    def _rows_hook(self, fn):
        def wrapper(prev_idx, *args, **kwargs):
            if any(self.open[n] for n in REQUEST_SPANS):
                self.decoder_rows += len(prev_idx)
            return fn(prev_idx, *args, **kwargs)
        return wrapper

    # -- results -----------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, rid in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "id": rid}) + "\n")


def busy_and_self(spans):
    """Per-name (calls, busy seconds, self seconds).

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children clipped to the parent and merged, so
    overlapping children are not counted twice).
    """
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    out = {}
    for i, (name, start, end, _parent, _rid) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        calls, busy, self_ = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, busy + (end - start), self_ + (end - start - covered))
    return out


def root_accounting(spans, agg):
    """(duration, self, summed busy of its children) in seconds of the one
    span named ROOT; self + children equals the duration exactly when the
    children nest inside the root without overlapping."""
    roots = [i for i, s in enumerate(spans) if s[0] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    i = roots[0]
    kids = sum(c[2] - c[1] for c in spans if c[3] == i)
    return spans[i][2] - spans[i][1], agg[ROOT][2], kids


def layer_metrics(tracer):
    """Per-layer metric values from a finished trace (probes and overhead
    are added by the caller)."""
    agg = busy_and_self(tracer.spans)
    values = {}
    for name, _unit, _better in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind in ("calls", "busy_ms", "self_ms") and not base.startswith("autodiff.op."):
            calls, busy, self_ = agg.get(base, (0, 0.0, 0.0))
            values[name] = {"calls": calls, "busy_ms": busy * 1e3,
                            "self_ms": self_ * 1e3}[kind]
    for op in AUTODIFF_OPS:
        values[f"autodiff.op.{op}.calls"] = tracer.op_calls.get(op, 0)
    requests = sum(agg.get(n, (0,))[0] for n in REQUEST_SPANS)
    generates = agg.get("generation.generate", (0,))[0]
    values["autodiff.ops_per_batch"] = tracer.batch_ops / tracer.batches if tracer.batches else 0.0
    values["model.decode_step.calls_per_request"] = (
        agg.get("model.decode_step", (0,))[0] / generates if generates else 0.0)
    values["generation.decoder_rows_per_request"] = (
        tracer.decoder_rows / requests if requests else 0.0)
    values["trace.spans"] = len(tracer.spans)
    root, root_self, kids = root_accounting(tracer.spans, agg)
    values["trace.root_ms"] = root * 1e3
    values["trace.root_self_ms"] = root_self * 1e3
    values["trace.root_children_ms"] = kids * 1e3
    return values
