"""End-to-end evaluation pipeline shared by the CLI and the test suite:
generates responses on a test split and computes the persona metrics plus
BLEU-1 and the word-embedding metrics against the references."""

from __future__ import annotations

import numpy as np

from . import generation as G
from . import metrics as MX
from .corpus import UNSPECIFIED_USER_ID
from .model import ConfigError
from .trainer import encode_triples

ALL_METRICS = ("bleu1", "embed", "urank", "uppl", "udistinct")
DEFAULT_METRICS = ("bleu1", "urank", "uppl", "udistinct")  # embed needs word vectors
UDISTINCT_QUERIES = 20  # distinct test queries that udistinct decodes for every user


def generate_responses(model, test_triples, vocab, users, seed=0, beam_width=10,
                       max_length=30):
    """Top beam hypothesis per test triple, decoded back to tokens."""
    reqs = [G.GenRequest(query=vocab.encode(t.query), user_index=users.index(t.user_id),
                         beam_width=beam_width, max_length=max_length,
                         z_mode="sample", seed=seed * 100000 + i)
            for i, t in enumerate(test_triples)]
    return [vocab.decode(hs[0].tokens) if hs and hs[0].tokens else []
            for hs in G.generate_many(reqs, *model)]


def check_metrics(metrics, vectors):
    """Raise ConfigError("metrics") for a name not in ALL_METRICS, or for
    embed without word vectors."""
    for name in metrics:
        if name not in ALL_METRICS:
            raise ConfigError("metrics", f"unknown metric {name!r} "
                                         f"(expected some of {', '.join(ALL_METRICS)})")
        if name == "embed" and vectors is None:
            raise ConfigError("metrics", "embed needs word vectors")


def evaluate_model(model, reference, train_triples, test_triples, vocab, users,
                   metric_config=None, seed=0, metrics=DEFAULT_METRICS, vectors=None,
                   distractors=None, reference_ranks=None):
    """Returns (results dict, per-item rows).  `distractors` may carry the
    reference beam-search outputs, and `reference_ranks` the reference's
    metrics.rank_counts on them, to reuse across evaluated models."""
    check_metrics(metrics, vectors)
    cfg = metric_config or MX.MetricConfig()
    results = {}
    rows = []
    responses = None
    indexed = encode_triples(test_triples, vocab, users)
    evaluated_users = sorted({t.user_id for t in test_triples
                              if t.user_id != UNSPECIFIED_USER_ID})

    if "bleu1" in metrics or "embed" in metrics or "uppl" in metrics:
        responses = generate_responses(model, test_triples, vocab, users, seed=seed,
                                       beam_width=cfg.beam_width,
                                       max_length=cfg.max_length)

    if "bleu1" in metrics:
        vals = [MX.bleu1(resp, t.reply) for resp, t in zip(responses, test_triples)]
        results["bleu1"] = float(np.mean(vals))
        for i, v in enumerate(vals):
            rows.append((i, "bleu1", v))

    if "embed" in metrics:
        triples_vals = [MX.embedding_metrics(resp, t.reply, vectors)
                        for resp, t in zip(responses, test_triples)]
        kept = [v for v in triples_vals if v is not None]
        results["embed_skipped"] = len(triples_vals) - len(kept)
        if kept:
            arr = np.array(kept)
            results["embed_average"] = float(arr[:, 0].mean())
            results["embed_extrema"] = float(arr[:, 1].mean())
            results["embed_greedy"] = float(arr[:, 2].mean())
        for i, v in enumerate(triples_vals):
            if v is not None:
                rows.append((i, "embed_average", v[0]))

    if "uppl" in metrics:
        lms = MX.build_user_lms(train_triples, evaluated_users)
        by_user = {}
        for resp, t in zip(responses, test_triples):
            if t.user_id in lms:
                by_user.setdefault(t.user_id, []).append(resp)
        report = MX.uppl(by_user, lms)
        results["uppl"] = report.value
        results["uppl_skipped"] = report.skipped
        for u, v in sorted(report.per_user.items()):
            rows.append((u, "uppl", v))

    if "urank" in metrics:
        if distractors is None:
            distractors = MX.make_distractors(indexed, reference, cfg)
        report = MX.urank(distractors, model, reference, cfg, seed=seed,
                          reference_ranks=reference_ranks)
        results["urank"] = report.value
        results["urank_spread"] = report.spread
        results["urank_skipped"] = report.skipped
        for i, v in enumerate(report.per_round):
            rows.append((i, "urank_round", v))

    if "udistinct" in metrics:
        # distinct queries, in the order they first occur
        queries = list({tuple(q): q for _, q, _ in indexed}.values())[:UDISTINCT_QUERIES]
        user_indices = [users.index(u) for u in evaluated_users]
        d1, d2, skipped = MX.udistinct(queries, user_indices, model, seed=seed,
                                       max_length=cfg.max_length)
        results["udist1"] = d1
        results["udist2"] = d2
        results["udistinct_skipped"] = skipped

    return results, rows
