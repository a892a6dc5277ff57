"""The four workloads.  Each makes its inputs from the seed, runs pagen
through its public API, and checks every output it times.

A workload has setup(run, seed) -> state, fingerprint(state),
warmup(run, state, seed), timed(run, state, seed, seconds) -> Timed and
probe_spec(state) -> probes.Spec.  run.measure() sets up several times,
warms up once, then times.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import tempfile
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

from pagen import corpus as C
from pagen import evaluate as E
from pagen import generation as G
from pagen import metrics as MX
from pagen import model as M
from pagen import trainer as T
from pagen.autodiff import ContractError
from pagen.corpus import EOS, RESERVED
from pagen.trainer import DivergenceError, TrainConfig

from harness import latency_summary
from probes import Spec

FAILURES = (DivergenceError, ContractError)

# The default lr of 2e-4 is too slow for the few steps the benchmark trains:
# four paper-scale steps at 2e-4 do not reliably lower the loss, and a toy
# model trained for four epochs in set-up would decode to max_length rather
# than end at EOS.
FAST_LR = 2e-3


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  The defaults are the benchmark; tests shrink them."""
    users: int = 8
    triples_per_user: int = 400
    setup_triples_per_user: int = 200
    batch_size: int = 64
    toy_epochs: int = 4
    setup_epochs: int = 4
    warmup_batches: int = 16
    paper_triples: int = 32
    paper_batch: int = 32
    paper_epochs: int = 4
    paper_words: int = 20000
    paper_overrides: tuple = ()
    eval_items: int = 80
    eval_warmup_items: int = 10
    eval_rounds: int = 5
    serve_warmup: int = 50
    beam: int = 10
    distractors: int = 10


class Run:
    """What one measured pass needs: the operation checks, a directory for
    training output, the machine pace (its clock() times every operation and
    its tick() runs between operations) and, in the traced pass, the
    tracer."""

    def __init__(self, workdir, checks, pace, tracer=None):
        self.workdir = workdir
        self.checks = checks
        self.pace = pace
        self.tracer = tracer

    def out_dir(self):
        return tempfile.mkdtemp(prefix="train-", dir=self.workdir)

    def set_id(self, rid):
        if self.tracer is not None:
            self.tracer.rid = rid


@dataclass
class Timed:
    ops: int                 # timed operations completed
    busy_s: float            # wall time those operations took
    op_ms: dict              # kind of operation -> latency of each
    trainings: list = field(default_factory=list)
    info: dict = field(default_factory=dict)   # name -> (value, unit)

    def op_ms_p50(self):
        """Mean over the kinds of operation of each kind's median latency,
        so that each kind's typical operation counts, whatever the others
        cost."""
        medians = [median(ms) for ms in self.op_ms.values() if ms]
        return sum(medians) / len(medians)


# ---------------------------------------------------------------------------
# inputs

@dataclass
class Corpus:
    train: list
    test: list
    vocab: C.Vocabulary
    users: C.UserTable

    @property
    def target_tokens(self):
        """Decoder targets per epoch: every reply token plus EOS."""
        return sum(len(t.reply) + 1 for t in self.train)


def toy_corpus(seed, sizes, triples_per_user):
    triples = C.generate_synthetic(sizes.users, triples_per_user, 0.9, seed)
    train, test = C.split(triples, 0.95, seed=seed)
    return Corpus(train, test, C.Vocabulary.build(train),
                  C.UserTable.build({t.user_id for t in triples}))


def toy_config(corpus, variant, **extra):
    """The acceptance gate's desk-scale configuration."""
    return M.ModelConfig(variant=variant, vocab_size=len(corpus.vocab),
                         num_users=len(corpus.users), anneal_batches=3000,
                         gamma1=0.5, gamma2=0.5, **extra).toy()


def zipf_corpus(seed, sizes):
    """Zipf-distributed words, lengths 12 +- 3 with the same length multiset
    for every seed (so batch shapes do not depend on the seed), and a
    vocabulary that holds every word."""
    rng = np.random.default_rng(seed)
    n, W = sizes.paper_triples, sizes.paper_words
    words = np.array([f"w{i}" for i in range(W)])
    p = 1.0 / np.arange(1, W + 1) ** 1.1
    p /= p.sum()
    offsets = np.resize(np.arange(-3, 4), n)
    q_len = 12 + rng.permutation(offsets)
    r_len = 12 + rng.permutation(offsets)
    draws = iter(words[rng.choice(W, size=int(q_len.sum() + r_len.sum()), p=p)].tolist())
    triples = [C.DialogueTriple(f"user{i % sizes.users}",
                                [next(draws) for _ in range(q_len[i])],
                                [next(draws) for _ in range(r_len[i])])
               for i in range(n)]
    coverage = C.DialogueTriple("vocabulary", words.tolist(), [words[0]])
    vocab = C.Vocabulary.build(triples + [coverage], max_size=W)
    return Corpus(triples, [], vocab, C.UserTable.build(t.user_id for t in triples))


# ---------------------------------------------------------------------------
# checked operations

@dataclass
class Training:
    variant: str
    seconds: float
    tokens: int
    batches: int
    batch_ms: list       # every batch but the first, which also sets up
    totals: list
    ckpt: str

    @property
    def final_loss(self):
        """Mean total over the last quarter of the history."""
        tail = self.totals[-max(1, len(self.totals) // 4):]
        return sum(tail) / len(tail)


@contextlib.contextmanager
def _batch_clock(pace, stamps):
    """Rebinds trainer.adam_step to record when each batch ends and to tick
    the pace between batches."""
    inner = T.adam_step

    def adam_step(params, state):
        inner(params, state)
        stamps.append(pace.clock())
        pace.tick()

    T.adam_step = adam_step
    try:
        yield
    finally:
        T.adam_step = inner


def train_checked(run, corpus, config, tcfg, seed):
    """trainer.train with its output checked: every loss finite and, over
    two or more whole epochs, the last epoch's mean below the first's."""
    stamps = []
    start = run.pace.clock()
    try:
        with _batch_clock(run.pace, stamps):
            ckpt, history = T.train(corpus.train, corpus.vocab, corpus.users, config,
                                    tcfg, seed=seed, out_dir=run.out_dir())
    except FAILURES as e:
        run.checks.record(False, f"train {config.variant}: {e}")
        return None
    seconds = run.pace.clock() - start
    totals = [b.total for b in history]
    per_epoch = -(-len(corpus.train) // tcfg.batch_size)
    ok = all(math.isfinite(x) for x in totals)
    if ok and len(totals) >= 2 * per_epoch:
        first = sum(totals[:per_epoch]) / per_epoch
        last = sum(totals[-per_epoch:]) / per_epoch
        ok = last < first
    run.checks.record(ok, f"train {config.variant}: loss not finite or not falling")
    epochs = len(totals) / per_epoch
    batch_ms = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    return Training(config.variant, seconds, round(epochs * corpus.target_tokens),
                    len(stamps), batch_ms, totals, ckpt)


def generate_checked(run, req, model):
    params, config = model
    try:
        hyps = G.generate(req, params, config)
    except FAILURES as e:
        return run.checks.record(False, f"generate: {e}")
    scores = [h.normalized() for h in hyps]
    ok = (1 <= len(hyps) <= req.beam_width
          and all(h.tokens and len(h.tokens) <= req.max_length for h in hyps)
          and all(len(RESERVED) <= t < config.vocab_size and t != EOS
                  for h in hyps for t in h.tokens)
          and all(math.isfinite(s) for s in scores)
          and all(a >= b for a, b in zip(scores, scores[1:])))
    return run.checks.record(ok, f"generate: bad hypotheses for query {req.query}")


def score_checked(run, query, replies, user, model, seed):
    params, config = model
    try:
        scores = G.score_responses(query, replies, user, params, config, seed=seed)
    except FAILURES as e:
        return run.checks.record(False, f"score_responses: {e}")
    ok = scores.shape == (len(replies),) and bool(np.all(np.isfinite(scores) & (scores <= 0)))
    return run.checks.record(ok, f"score_responses: bad scores {scores}")


@contextlib.contextmanager
def _ticking(pace):
    """Ticks the pace after each generate or score_responses call that
    evaluate_model makes."""
    inner = G.generate, G.score_responses

    def after(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                pace.tick()
        return wrapper

    G.generate, G.score_responses = map(after, inner)
    try:
        yield
    finally:
        G.generate, G.score_responses = inner


def _params_digest(models):
    h = hashlib.sha256()
    for params, config in models:
        h.update(config.to_text().encode())
        for name in sorted(params):
            h.update(params[name].data.tobytes())
    return h.hexdigest()


def _repeat(seconds, body):
    """Runs body(i) at least once and again while another run is expected
    to finish within `seconds` of the start."""
    start = perf_counter()
    i = 0
    while True:
        t0 = perf_counter()
        body(i)
        i += 1
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return


# ---------------------------------------------------------------------------
# workloads

class _Training:
    """A training workload: each config in turn, repeated for the timed
    phase.  Subclasses set up the corpus and configs and name the batch
    size, epochs, learning rate and warm-up batches."""

    def __init__(self, sizes):
        self.sizes = sizes

    def fingerprint(self, state):
        c = state["corpus"]
        return repr([(t.user_id, t.query, t.reply) for t in c.train + c.test])

    def warmup(self, run, state, seed):
        tcfg = TrainConfig(batch_size=self.batch, epochs=1, lr=self.lr,
                           max_batches=self.warmup_batches)
        for config in state["configs"]:
            train_checked(run, state["corpus"], config, tcfg, seed)

    def timed(self, run, state, seed, seconds):
        tcfg = TrainConfig(batch_size=self.batch, epochs=self.epochs, lr=self.lr)
        trainings = []

        def rep(i):
            for config in state["configs"]:
                tr = train_checked(run, state["corpus"], config, tcfg, seed)
                if tr is not None:
                    trainings.append(tr)

        _repeat(seconds, rep)
        return _training_timed(run, trainings)

    def probe_spec(self, state):
        c = state["corpus"]
        return Spec(state["configs"][0], self.batch,
                    max(len(t.query) for t in c.train), max(len(t.reply) for t in c.train),
                    self.sizes.beam)


class TrainToy(_Training):
    """PAGENERATOR then S2SA with attention, the pair the acceptance gate
    spends most of its time on, at ModelConfig.toy() and batch 64."""

    def __init__(self, sizes):
        super().__init__(sizes)
        self.batch, self.epochs = sizes.batch_size, sizes.toy_epochs
        self.lr, self.warmup_batches = TrainConfig.lr, sizes.warmup_batches

    def setup(self, run, seed):
        corpus = toy_corpus(seed, self.sizes, self.sizes.triples_per_user)
        configs = [toy_config(corpus, "PAGENERATOR"),
                   toy_config(corpus, "S2SA", use_attention=True)]
        return {"corpus": corpus, "configs": configs, "trainings": []}


class TrainPaper(_Training):
    """One PAGENERATOR training at the paper's sizes (V=20004, We=300,
    H=256, Hd=512, z=128) and batch 32: BLAS, V-wide buffers and Adam."""

    def __init__(self, sizes):
        super().__init__(sizes)
        self.batch, self.epochs = sizes.paper_batch, sizes.paper_epochs
        self.lr, self.warmup_batches = FAST_LR, 1

    def setup(self, run, seed):
        corpus = zipf_corpus(seed, self.sizes)
        config = M.ModelConfig(vocab_size=len(corpus.vocab), num_users=len(corpus.users),
                               **dict(self.sizes.paper_overrides))
        return {"corpus": corpus, "configs": [config], "trainings": []}


def _training_timed(run, trainings):
    reps = [tuple(t.totals) for t in trainings]
    per_rep = len({t.variant for t in trainings}) or 1
    run.checks.record(all(r == reps[i % per_rep] for i, r in enumerate(reps)),
                      "repeated trainings gave different loss histories")
    op_ms = {}
    for t in trainings:
        op_ms.setdefault(t.variant, []).extend(t.batch_ms)
    info = {f"ms_per_batch.{v}": (median(ms), "ms") for v, ms in op_ms.items() if ms}
    return Timed(ops=sum(t.batches for t in trainings),
                 busy_s=sum(t.seconds for t in trainings),
                 op_ms=op_ms, trainings=trainings, info=info)


class _Decoding:
    """A workload on models trained in set-up: a half-size toy corpus (its
    test split is 10 items per user) and one short training per
    (variant, extra) in SPECS.  Probes use one score request's shapes."""

    SPECS = ()

    def __init__(self, sizes):
        self.sizes = sizes

    def setup(self, run, seed):
        sizes = self.sizes
        corpus = toy_corpus(seed, sizes, sizes.setup_triples_per_user)
        tcfg = TrainConfig(batch_size=sizes.batch_size, epochs=sizes.setup_epochs,
                           lr=FAST_LR)
        models, trainings = [], []
        for variant, extra in self.SPECS:
            tr = train_checked(run, corpus, toy_config(corpus, variant, **extra), tcfg, seed)
            if tr is None:
                raise RuntimeError(f"set-up training of {variant} failed")
            trainings.append(tr)
            models.append(M.load_checkpoint(tr.ckpt))
        return {"corpus": corpus, "models": models, "trainings": trainings}

    def fingerprint(self, state):
        return _params_digest(state["models"])

    def probe_spec(self, state):
        c = state["corpus"]
        return Spec(state["models"][0][1], 1 + self.sizes.distractors,
                    max(len(t.query) for t in c.test), max(len(t.reply) for t in c.test),
                    self.sizes.beam)


class Serve(_Decoding):
    """One closed-loop client: each request waits for the previous one.
    A seeded half-and-half mix of beam-10 generate and 11-reply
    score_responses requests on a briefly trained toy PAGENERATOR."""

    SPECS = (("PAGENERATOR", {}),)

    def setup(self, run, seed):
        state = super().setup(run, seed)
        c = state["corpus"]
        state["items"] = T.encode_triples(c.test, c.vocab, c.users)
        return state

    def _requests(self, state, seed):
        items = state["items"]
        rng = np.random.default_rng(seed)
        i = 0
        while True:
            j = int(rng.integers(len(items)))
            user, query, reply = items[j]
            if rng.random() < 0.5:
                yield "generate", G.GenRequest(query=query, user_index=user,
                                               beam_width=self.sizes.beam, seed=i)
            else:
                others = rng.choice(len(items) - 1, size=self.sizes.distractors, replace=False)
                replies = [reply] + [items[k + (k >= j)][2] for k in others]
                yield "score", (query, replies, user, i)
            i += 1

    def _send(self, run, model, kind, req):
        if kind == "generate":
            generate_checked(run, req, model)
        else:
            query, replies, user, rseed = req
            score_checked(run, query, replies, user, model, rseed)

    def warmup(self, run, state, seed):
        stream = self._requests(state, seed + 1)
        for _ in range(self.sizes.serve_warmup):
            self._send(run, state["models"][0], *next(stream))

    def timed(self, run, state, seed, seconds):
        model = state["models"][0]
        lat = {"generate": [], "score": []}
        stream = self._requests(state, seed)
        start, loop_start = perf_counter(), run.pace.clock()
        n = 0
        while perf_counter() - start < seconds:
            kind, req = next(stream)
            run.set_id(f"req{n}")
            t0 = run.pace.clock()
            self._send(run, model, kind, req)
            lat[kind].append((run.pace.clock() - t0) * 1e3)
            n += 1
            run.pace.tick()
        elapsed = run.pace.clock() - loop_start
        info = {"req_per_s": (n / elapsed, "requests/s")}
        for kind, name in (("generate", "gen"), ("score", "score")):
            p50, p, tail, count = latency_summary(lat[kind])
            info[f"{name}_latency_ms_p50"] = (p50, "ms")
            if p is not None:
                info[f"{name}_latency_ms_p{p:g}"] = (tail, "ms")
            info[f"{name}_requests"] = (count, "count")
        return Timed(ops=n, busy_s=elapsed, op_ms=lat, info=info)


class Evaluate(_Decoding):
    """One evaluate_model pass (bleu1, uppl, urank with 5 rounds, udistinct)
    of a toy PAGENERATOR against a toy S2SA+attention reference."""

    SPECS = (("PAGENERATOR", {}), ("S2SA", {"use_attention": True}))
    METRICS = ("bleu1", "uppl", "urank", "udistinct")

    def _pass(self, run, state, seed, test):
        c = state["corpus"]
        model, reference = state["models"]
        try:
            results, _rows = E.evaluate_model(
                model, reference, c.train, test, c.vocab, c.users,
                metric_config=MX.MetricConfig(rounds=self.sizes.eval_rounds,
                                              n_distractors=self.sizes.distractors,
                                              beam_width=self.sizes.beam),
                seed=seed, metrics=self.METRICS)
        except FAILURES as e:
            run.checks.record(False, f"evaluate_model: {e}")
            return None
        ok = (all(0.0 <= results[k] <= 1.0 for k in ("bleu1", "urank", "udist1", "udist2"))
              and results["uppl"] >= 1.0)
        run.checks.record(ok, f"evaluate_model: out-of-range results {results}")
        return results

    def warmup(self, run, state, seed):
        # the test split is grouped by user; take a stride so that udistinct
        # sees several users
        test = state["corpus"].test
        n = self.sizes.eval_warmup_items
        self._pass(run, state, seed, test[::max(1, len(test) // n)][:n])

    def timed(self, run, state, seed, seconds):
        passes, results = [], []

        def one(i):
            run.set_id(f"pass{i}")
            t0 = run.pace.clock()
            with _ticking(run.pace):
                results.append(self._pass(run, state, seed,
                                          state["corpus"].test[:self.sizes.eval_items]))
            passes.append((run.pace.clock() - t0) * 1e3)

        _repeat(seconds, one)
        run.checks.record(all(r == results[0] for r in results),
                          "repeated evaluate_model passes disagree")
        info = {"evaluate_s": (median(passes) / 1e3, "s")}
        if results[0] is not None:
            info.update({k: (v, "value") for k, v in results[0].items()})
        return Timed(ops=len(passes), busy_s=sum(passes) / 1e3, op_ms={"pass": passes},
                     info=info)


WORKLOADS = {"train_toy": TrainToy, "train_paper": TrainPaper,
             "serve": Serve, "evaluate": Evaluate}


def workdir_root():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(root, exist_ok=True)
    return root
