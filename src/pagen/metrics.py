"""Persona evaluation metrics (rank promotion, per-user bigram perplexity,
between-user distinct-n) and the standard BLEU-1 / word-embedding metrics.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import generation as G
from .corpus import atomic_open, read_lines
from .model import check_range


@dataclass
class MetricConfig:
    n_distractors: int = 10
    rounds: int = 10
    beam_width: int = 10
    max_length: int = 30

    def __post_init__(self):
        check_range(self, ("n_distractors", "rounds", "beam_width"), lambda v: v >= 1, ">= 1")
        check_range(self, ("max_length",), lambda v: v >= 0, ">= 0")


# ---------------------------------------------------------------------------
# per-user bigram language model

BOS_TOK = "<s>"
EOS_TOK = "</s>"
UNK_TOK = "<oov>"


class BigramLM:
    """Interpolated bigram model: lam * user MLE + (1 - lam) * add-one
    smoothed background.  When the user has never seen the context, the
    user component falls back to the background so that every per-context
    distribution still sums to one.
    """

    def __init__(self, background_sentences, lam=0.7):
        self.lam = lam
        self.vocab = {EOS_TOK, UNK_TOK}.union(*background_sentences)
        self.v_size = len(self.vocab)
        self.bg_bi, self.bg_ctx = self._count(background_sentences)
        self.user_bi = {}
        self.user_ctx = {}

    def _norm(self, tok):
        return tok if tok in self.vocab or tok == BOS_TOK else UNK_TOK

    def _count(self, sentences):
        """Bigram and context counts of each sentence as [<s>, *s, </s>],
        tokens as given: one Counter over them joined [<s>, *s, </s>, <s>,
        ...], less each join's (</s>, <s>) bigram and </s> context, which
        leaves 0 at least, since a sentence may itself hold </s> or <s>."""
        toks = [BOS_TOK, *chain.from_iterable((*s, EOS_TOK, BOS_TOK) for s in sentences)]
        bi, ctx = Counter(zip(toks, toks[1:])), Counter(toks[:-1])
        bi[EOS_TOK, BOS_TOK] -= len(sentences)
        ctx[EOS_TOK] -= len(sentences)
        return bi, ctx

    def fit_user(self, sentences):
        """Finetune on one user's utterances; counts interpolate against
        the shared background at query time."""
        self.user_bi, self.user_ctx = self._count([[*map(self._norm, s)] for s in sentences])

    def prob(self, prev, word):
        prev, word = self._norm(prev), self._norm(word)
        p_bg = (self.bg_bi.get((prev, word), 0) + 1) / (self.bg_ctx.get(prev, 0) + self.v_size)
        cu = self.user_ctx.get(prev, 0)
        p_user = self.user_bi.get((prev, word), 0) / cu if cu else p_bg
        return self.lam * p_user + (1 - self.lam) * p_bg

    def perplexity(self, tokens):
        if not tokens:
            raise ValueError("empty sequence")
        seq = [BOS_TOK] + list(tokens) + [EOS_TOK]
        logp = sum(math.log(self.prob(a, b)) for a, b in zip(seq, seq[1:]))
        return math.exp(-logp / (len(seq) - 1))


def build_user_lms(train_triples, evaluated_users):
    """One shared background count of all reply-side utterances, finetuned
    per user.  Each reply is counted once, into its user's counts, and the
    background is their sum (integer counts, so exactly the direct count)."""
    replies = {}
    for t in train_triples:
        replies.setdefault(t.user_id, []).append(t.reply)
    background = BigramLM([])
    background.vocab.update(*(t.reply for t in train_triples))
    background.v_size = len(background.vocab)
    counts = {user: background._count(rs) for user, rs in replies.items()}
    for bi, ctx in counts.values():
        background.bg_bi.update(bi)
        background.bg_ctx.update(ctx)
    lms = {}
    for user in evaluated_users:
        lms[user] = copy.copy(background)
        lms[user].user_bi, lms[user].user_ctx = counts.get(user, (Counter(), Counter()))
    return lms


@dataclass
class UpplReport:
    value: float
    per_user: dict = field(default_factory=dict)
    skipped: int = 0


def uppl(responses_by_user, lms):
    """Average perplexity of generated replies under each user's LM;
    averaged over responses within a user, then over users."""
    per_user = {}
    skipped = 0
    for user, responses in responses_by_user.items():
        vals = []
        for r in responses:
            if not r:
                skipped += 1
                continue
            vals.append(lms[user].perplexity(r))
        if vals:
            per_user[user] = float(np.mean(vals))
    value = float(np.mean(list(per_user.values()))) if per_user else float("nan")
    return UpplReport(value=value, per_user=per_user, skipped=skipped)


# ---------------------------------------------------------------------------
# rank promotion against a reference seq2seq

@dataclass
class URankReport:
    value: float
    per_round: list = field(default_factory=list)
    spread: float = 0.0
    skipped: int = 0


def rank_count(scores):
    """Number of distractors scored strictly above the ground truth;
    scores[0] is the truth, the rest are distractors.  Ties do not count."""
    scores = np.asarray(scores)
    return int((scores[1:] > scores[0]).sum())


def _usable(eval_items, config):
    return [(u, q, r, d) for u, q, r, d in eval_items if len(d) >= config.n_distractors]


def rank_counts(eval_items, model, config, seed=0):
    """One model's ranks of the ground truth on the usable items of
    eval_items (those with at least config.n_distractors distractors), as a
    (seeds, items) int array: config.rounds seeds seed*1000 + rnd for a
    latent model, and the one seed seed*1000 for a non-latent model, which
    ignores it.  All items go through one score_many call."""
    params, cfg = model
    seeds = [seed * 1000 + rnd for rnd in range(config.rounds if cfg.is_latent else 1)]
    scores = G.score_many([(q, [r] + list(d[:config.n_distractors]), u)
                           for u, q, r, d in _usable(eval_items, config)], params, cfg, seeds)
    return np.array([[rank_count(s) for s in item] for item in scores],
                    dtype=np.int64).reshape(-1, len(seeds)).T


def urank(eval_items, model, reference, config, seed=0, reference_ranks=None):
    """Rate of rank-promoted ground-truth replies.

    eval_items: list of (user_index, query ids, reply ids, distractor id
    lists).  model / reference: (params, ModelConfig) pairs.  Rank is the
    number of distractors scored strictly above the ground truth; uRank is
    1 when the evaluated model ranks the truth strictly better than the
    reference does.  Latent models are averaged over config.rounds z seeds;
    a non-latent model ignores the seed, so it is scored once per item.
    reference_ranks may carry the reference's rank_counts of the same items,
    config and seed, to reuse across evaluated models.  With no item that
    has enough distractors, uRank is nan.
    """
    n_usable = len(_usable(eval_items, config))
    skipped = len(eval_items) - n_usable
    if not n_usable:
        return URankReport(value=float("nan"), spread=float("nan"), skipped=skipped)
    if reference_ranks is None:
        reference_ranks = rank_counts(eval_items, reference, config, seed)
    ranks = (reference_ranks if model is reference
             else rank_counts(eval_items, model, config, seed))
    # a non-latent model's one row of ranks stands for every round
    hits = (ranks < reference_ranks).sum(axis=1)
    per_round = [h / n_usable for h in hits.tolist()]
    value = float(np.mean(per_round))
    spread = float(np.max(per_round) - np.min(per_round)) if len(per_round) > 1 else 0.0
    return URankReport(value=value, per_round=per_round, spread=spread, skipped=skipped)


def make_distractors(eval_items_raw, reference, config):
    """Generate config.n_distractors user-irrelevant responses per query from
    the reference model via beam search.  eval_items_raw: (user_index, query, reply)."""
    n = config.n_distractors
    reqs = [G.GenRequest(query=q, beam_width=max(n + 2, config.beam_width),
                         max_length=config.max_length, z_mode="mean")
            for _, q, _ in eval_items_raw]
    hyps = G.generate_many(reqs, *reference)
    return [(u, q, r, [h.tokens for h in hs if h.tokens][:n])
            for (u, q, r), hs in zip(eval_items_raw, hyps)]


# ---------------------------------------------------------------------------
# diversity between users

def distinct_n(responses, n):
    """Unique n-grams / total n-grams across a response set."""
    grams = []
    for r in responses:
        grams.extend(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
    if not grams:
        return None
    return len(set(grams)) / len(grams)


def udistinct(queries, user_indices, model, seed=0, max_length=30):
    """Distinct-1/2 of the responses one model generates for the same
    query across m users, averaged over the query set."""
    if len(user_indices) < 2:
        raise ValueError("udistinct needs at least 2 users")
    reqs = [G.GenRequest(query=q, user_index=u, beam_width=1, max_length=max_length,
                         z_mode="sample", seed=seed * 10000 + qi * 100 + u)
            for qi, q in enumerate(queries) for u in user_indices]
    hyps = G.generate_many(reqs, *model)
    m = len(user_indices)
    d1s, d2s, skipped = [], [], 0
    for qi in range(len(queries)):
        responses = [hs[0].tokens if hs else [] for hs in hyps[qi * m:(qi + 1) * m]]
        d1 = distinct_n(responses, 1)
        d2 = distinct_n(responses, 2)
        if d1 is None:
            skipped += 1
            continue
        d1s.append(d1)
        d2s.append(d2 if d2 is not None else 1.0)
    if not d1s:
        return float("nan"), float("nan"), skipped
    return float(np.mean(d1s)), float(np.mean(d2s)), skipped


# ---------------------------------------------------------------------------
# standard metrics

def bleu1(candidate, reference):
    """Clipped unigram precision times the brevity penalty."""
    if not reference:
        raise ValueError("empty reference")
    if not candidate:
        return 0.0
    ref_counts = {}
    for t in reference:
        ref_counts[t] = ref_counts.get(t, 0) + 1
    cand_counts = {}
    for t in candidate:
        cand_counts[t] = cand_counts.get(t, 0) + 1
    clipped = sum(min(c, ref_counts.get(t, 0)) for t, c in cand_counts.items())
    precision = clipped / len(candidate)
    bp = math.exp(min(0.0, 1.0 - len(reference) / len(candidate)))
    return precision * bp


def load_word_vectors(path):
    """Text format: header line "count dim" (two positive integers), then
    "token v1 ... vd" per token; a malformed file raises ValueError naming
    "path:line"."""
    vectors = {}
    lines = read_lines(path)
    header = next(lines, "").split()
    try:
        count, dim = (int(h) for h in header) if len(header) == 2 else (0, 0)
    except ValueError:
        count = dim = 0
    if count < 1 or dim < 1:
        raise ValueError(f"{path}:1: expected a header 'count dim' of two positive integers")
    for lineno, line in enumerate(lines, 2):
        parts = line.split()
        if not parts:
            continue
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        if vec.shape != (dim,):
            raise ValueError(f"{path}:{lineno}: bad vector dimension for token {parts[0]!r}: "
                             f"{vec.size} values, header says {dim}")
        if parts[0] in vectors:
            raise ValueError(f"{path}:{lineno}: duplicate token {parts[0]!r}")
        vectors[parts[0]] = vec
    if len(vectors) != count:
        raise ValueError(f"{path}:1: header count {count} != {len(vectors)} vectors")
    return vectors


def save_word_vectors(path, vectors):
    dim = len(next(iter(vectors.values())))
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{len(vectors)} {dim}\n")
        for tok in sorted(vectors):
            vals = " ".join(repr(float(v)) for v in vectors[tok])
            f.write(f"{tok} {vals}\n")


def _cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def _known(tokens, vectors):
    return [vectors[t] for t in tokens if t in vectors]


def embedding_metrics(candidate, reference, vectors):
    """(Embedding Average, Vector Extrema, Greedy Matching) cosines.

    Out-of-vocabulary tokens are dropped; returns None when either side
    has no known tokens.
    """
    cv = _known(candidate, vectors)
    rv = _known(reference, vectors)
    if not cv or not rv:
        return None
    cm, rm = np.stack(cv), np.stack(rv)

    average = _cosine(cm.mean(axis=0), rm.mean(axis=0))

    def extrema(mat):
        idx = np.argmax(np.abs(mat), axis=0)
        return mat[idx, np.arange(mat.shape[1])]

    ext = _cosine(extrema(cm), extrema(rm))

    def directed(a, b):
        return float(np.mean([max(_cosine(x, y) for y in b) for x in a]))

    greedy = 0.5 * (directed(cv, rv) + directed(rv, cv))
    return average, ext, greedy
