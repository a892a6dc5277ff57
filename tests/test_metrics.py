"""Unit tests for the persona metrics and the standard ones."""

import math
import re
from collections import Counter

import numpy as np
import pytest

import np_oracle
from conftest import toy_config
from pagen import corpus as C
from pagen import evaluate as E
from pagen import metrics as MX
from pagen import model as M
from pagen import selfcheck as SC
from pagen.metrics import (BigramLM, MetricConfig, bleu1, build_user_lms,
                           distinct_n, embedding_metrics, load_word_vectors,
                           rank_count, save_word_vectors, udistinct, uppl, urank)


def test_metric_config_validation():
    with pytest.raises(ValueError, match="^n_distractors: must be >= 1, got 0$"):
        MetricConfig(n_distractors=0)
    with pytest.raises(ValueError, match="^rounds: must be >= 1, got -1$"):
        MetricConfig(rounds=-1)
    with pytest.raises(ValueError, match="^beam_width: must be >= 1, got 0$"):
        MetricConfig(beam_width=0)
    with pytest.raises(ValueError, match="^max_length: must be >= 0, got -3$"):
        MetricConfig(max_length=-3)
    assert MetricConfig(max_length=0).max_length == 0


# ---------------------------------------------------------------------------
# ranking

def test_rank_count_examples():
    # truth -1.0 against distractors -0.5, -1.5, -2.0: one scores above
    assert rank_count([-1.0, -0.5, -1.5, -2.0]) == 1
    assert rank_count([-1.0, -0.5, -0.2, -0.1]) == 3
    assert rank_count([-1.0, -2.0, -3.0]) == 0
    # ties do not count as "above"
    assert rank_count([-1.0, -1.0, -1.0]) == 0


def test_rank_count_monotone_transform_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = rng.standard_normal(8)
        assert rank_count(scores) == rank_count(3.0 * scores + 7.0)


def test_urank_promotion_logic(monkeypatch):
    """Scripted scores: the model demotes one distractor below the truth on
    item 0 and matches the reference on item 1."""
    table = {
        ("m", 0): [-1.0, -0.5, -2.0],   # rank 1
        ("s", 0): [-1.0, -0.5, -0.4],   # rank 2 -> promoted
        ("m", 1): [-1.0, -2.0, -3.0],   # rank 0
        ("s", 1): [-1.0, -2.0, -3.0],   # rank 0 -> not promoted
    }

    def fake_scores(items, params, config, seeds):
        return [np.array([table[(params, query[0])]] * len(seeds)) for query, _, _ in items]

    monkeypatch.setattr(MX.G, "score_many", fake_scores)
    items = [(1, [0], [9], [[1], [2]]), (1, [1], [9], [[1], [2]])]
    cfg = MetricConfig(n_distractors=2, rounds=3)
    fake_cfg = type("Cfg", (), {"is_latent": True})()
    report = urank(items, ("m", fake_cfg), ("s", fake_cfg), cfg, seed=0)
    assert report.value == pytest.approx(0.5)
    assert len(report.per_round) == 3
    assert report.skipped == 0


def test_urank_skips_items_without_enough_distractors(monkeypatch):
    monkeypatch.setattr(MX.G, "score_many", lambda items, p, c, seeds:
                        [np.array([[-1.0, -0.5]] * len(seeds))] * len(items))
    fake_cfg = type("Cfg", (), {"is_latent": False})()
    items = [(1, [0], [9], [[1]]), (1, [1], [9], [])]
    report = urank(items, ("m", fake_cfg), ("s", fake_cfg),
                   MetricConfig(n_distractors=1, rounds=2), seed=0)
    assert report.skipped == 1
    assert len(report.per_round) == 1  # non-latent pair scores once


def test_urank_scores_a_non_latent_reference_once_per_item(monkeypatch):
    """The S2SA reference ignores the seed, so it is scored once per item
    with one seed, the latent model once per item with every round's seed,
    each model in one score_many call over all items; the report equals
    scoring both models item by item in every round."""
    cfg_m, cfg_s = toy_config(), toy_config(variant="S2SA")
    model, reference = (M.init_params(cfg_m, seed=1), cfg_m), (M.init_params(cfg_s, seed=2), cfg_s)
    rng = np.random.default_rng(3)
    items = [(int(rng.integers(1, 4)), list(rng.integers(4, 30, 3)), list(rng.integers(4, 30, 4)),
              [list(rng.integers(4, 30, n)) for n in rng.integers(1, 5, 3)])
             for _ in range(6)]
    expect = []
    for rnd in range(3):
        hits = 0
        for u, q, r, d in items:
            m, s = (rank_count(MX.G.score_responses(q, [r] + d, u, *pair, seed=7000 + rnd))
                    for pair in (model, reference))
            hits += m < s
        expect.append(hits / len(items))

    calls = {}
    score = MX.G.score_many

    def counted(items, params, config, seeds):
        calls.setdefault(config.variant, []).append((len(items), list(seeds)))
        return score(items, params, config, seeds)

    monkeypatch.setattr(MX.G, "score_many", counted)
    report = urank(items, model, reference, MetricConfig(n_distractors=3, rounds=3), seed=7)
    assert report.per_round == expect
    assert report.value == float(np.mean(expect))
    assert calls == {"PAGENERATOR": [(len(items), [7000, 7001, 7002])],
                     "S2SA": [(len(items), [7000])]}


def test_urank_over_no_usable_item_is_nan(monkeypatch):
    """Like uppl and udistinct, uRank over nothing is nan, not "never
    promoted"."""
    monkeypatch.setattr(MX.G, "score_many", lambda *a: pytest.fail("nothing to score"))
    fake_cfg = type("Cfg", (), {"is_latent": True})()
    report = urank([(1, [0], [9], [[1]]), (1, [1], [9], [])], ("m", fake_cfg), ("s", fake_cfg),
                   MetricConfig(n_distractors=2, rounds=3), seed=0)
    assert math.isnan(report.value)
    assert report.skipped == 2 and report.per_round == []


# ---------------------------------------------------------------------------
# bigram LM / uPPL

def test_bigram_lm_pure_user_counts():
    lm = BigramLM([["a", "b"], ["b", "c"]], lam=1.0)
    lm.fit_user([["a", "b"]])
    # every transition of "a b" was seen exactly once for this user
    assert lm.perplexity(["a", "b"]) == pytest.approx(1.0)


def test_bigram_lm_matches_count_oracle():
    rng = np.random.default_rng(1)
    vocab = [f"t{i}" for i in range(12)]
    for _ in range(60):
        bg = [[vocab[i] for i in rng.integers(0, 12, rng.integers(1, 8))]
              for _ in range(4)]
        us = [[vocab[i] for i in rng.integers(0, 12, rng.integers(1, 8))]
              for _ in range(2)]
        sent = [vocab[i] for i in rng.integers(0, 12, rng.integers(1, 8))]
        lm = BigramLM(bg, lam=0.7)
        lm.fit_user(us)
        expect = np_oracle.bigram_perplexity_oracle(bg, us, 0.7, sent)
        assert lm.perplexity(sent) == pytest.approx(expect, abs=1e-9)


def test_bigram_lm_uniform_perplexity_equals_vocab_size():
    class UniformLM(BigramLM):
        def prob(self, prev, word):
            return 1.0 / self.v_size

    lm = UniformLM([["a", "b", "c"]])
    assert lm.perplexity(["a", "c"]) == pytest.approx(lm.v_size)


def test_bigram_lm_unseen_word_raises_perplexity():
    lm = BigramLM([["a", "b"], ["a", "c"]], lam=0.7)
    lm.fit_user([["a", "b"]])
    assert lm.perplexity(["a", "zzz"]) > lm.perplexity(["a", "b"])


def test_perplexity_empty_sequence():
    lm = BigramLM([["a"]])
    with pytest.raises(ValueError):
        lm.perplexity([])


def test_uppl_aggregation():
    class ConstLM:
        def __init__(self, v):
            self.v = v

        def perplexity(self, tokens):
            return self.v

    lms = {"u1": ConstLM(10.0), "u2": ConstLM(20.0)}
    report = uppl({"u1": [["a"], ["b"], []], "u2": [["c"]]}, lms)
    assert report.value == pytest.approx(15.0)
    assert report.per_user == {"u1": 10.0, "u2": 20.0}
    assert report.skipped == 1


def test_build_user_lms_keys(tiny_triples):
    lms = build_user_lms(tiny_triples, ["alice", "bob"])
    assert set(lms) == {"alice", "bob"}
    assert lms["alice"].perplexity(["hi", "alice", "here"]) < \
        lms["bob"].perplexity(["hi", "alice", "here"])


def test_build_user_lms_is_the_direct_count():
    """Summing the per-user counts gives the background that counting every
    reply gives, and each user's counts are its own replies'.  Replies that
    hold a literal </s> or <s> keep their joins' counts exact."""
    triples = C.generate_synthetic(4, 30, 0.9, seed=2)
    users = sorted({t.user_id for t in triples})[:3] + ["nobody"]
    triples += [C.DialogueTriple(users[0], ["q"], ["a", MX.EOS_TOK, MX.BOS_TOK, "b"]),
                C.DialogueTriple(users[0], ["q"], [MX.EOS_TOK]),
                C.DialogueTriple(users[1], ["q"], [MX.BOS_TOK, "c"])]
    lms = build_user_lms(triples, users)
    direct = BigramLM([t.reply for t in triples])

    def counted(replies):  # sentence by sentence, as [<s>, *reply, </s>]
        seqs = [[MX.BOS_TOK, *r, MX.EOS_TOK] for r in replies]
        return (Counter(b for s in seqs for b in zip(s, s[1:])),
                Counter(t for s in seqs for t in s[:-1]))

    assert (direct.bg_bi, direct.bg_ctx) == counted([t.reply for t in triples])
    for user in users:
        lm = lms[user]
        assert (lm.vocab, lm.v_size, lm.bg_bi, lm.bg_ctx) == \
            (direct.vocab, direct.v_size, direct.bg_bi, direct.bg_ctx)
        direct.fit_user([t.reply for t in triples if t.user_id == user])
        assert (lm.user_bi, lm.user_ctx) == (direct.user_bi, direct.user_ctx) == \
            counted([t.reply for t in triples if t.user_id == user])
        for t in triples[:20] + triples[-3:]:
            assert lm.perplexity(t.reply + ["unseen"]) == direct.perplexity(t.reply + ["unseen"])
    assert lms[users[0]].user_bi[MX.EOS_TOK, MX.BOS_TOK] == 1
    assert lms[users[0]].user_ctx[MX.EOS_TOK] == 2


# ---------------------------------------------------------------------------
# distinct / uDistinct

def test_distinct_examples():
    assert distinct_n([["a", "b"], ["b", "c"]], 1) == pytest.approx(3 / 4)
    assert distinct_n([["a", "b", "c", "d"]], 1) == 1.0
    assert distinct_n([["a", "a", "a"]], 1) == pytest.approx(1 / 3)
    assert distinct_n([["a", "b", "a"], ["a", "b"]], 2) == pytest.approx(2 / 3)
    assert distinct_n([["a"]], 2) is None
    assert distinct_n([], 1) is None


def test_distinct_matches_oracle_random():
    rng = np.random.default_rng(2)
    vocab = [f"t{i}" for i in range(8)]
    for _ in range(60):
        resp = [[vocab[i] for i in rng.integers(0, 8, rng.integers(1, 7))]
                for _ in range(3)]
        for n in (1, 2):
            assert distinct_n(resp, n) == pytest.approx(
                SC.distinct_n_oracle(resp, n), abs=1e-9)


def test_udistinct_needs_two_users():
    with pytest.raises(ValueError):
        udistinct([[5]], [1], (None, None))


def test_evaluate_model_decodes_in_batches(monkeypatch):
    """Each of the three beam searches of a pass (responses, distractors,
    uDistinct) is one generate_many call of at most max_length decoder
    steps, and uRank scores all items in one score_many call per model, so
    a per-request loop cannot come back unnoticed."""
    triples = C.generate_synthetic(3, 20, 0.9, seed=4)
    train, test = C.split(triples, 0.8, seed=4)
    vocab, users = C.Vocabulary.build(train), C.UserTable.build({t.user_id for t in triples})
    cfg_m, cfg_s = (toy_config(variant=v, vocab_size=len(vocab), num_users=len(users))
                    for v in ("PAGENERATOR", "S2SA"))
    model, reference = (M.init_params(cfg_m, seed=1), cfg_m), (M.init_params(cfg_s, seed=2), cfg_s)
    mc = MetricConfig(n_distractors=3, rounds=3, beam_width=4, max_length=6)
    counts = {"generate_many": 0, "decode_step": 0, "score_many": 0, "encode_batch": 0}
    for owner, name in ((MX.G, "generate_many"), (M, "decode_step"), (MX.G, "score_many"),
                        (M, "encode_batch")):
        def counted(*a, _inner=getattr(owner, name), _name=name, **k):
            counts[_name] += 1
            return _inner(*a, **k)
        monkeypatch.setattr(owner, name, counted)
    results, _ = E.evaluate_model(model, reference, train, test, vocab, users, metric_config=mc,
                                  seed=1, metrics=("bleu1", "uppl", "urank", "udistinct"))
    assert len(test) > 10 and results["urank_skipped"] < len(test)
    assert counts["generate_many"] == 3
    assert 3 <= counts["decode_step"] <= 3 * mc.max_length
    assert counts["score_many"] == 2
    # one encoder pass per search and per score_many group, here one group per model
    assert counts["encode_batch"] == 3 + 2


# ---------------------------------------------------------------------------
# BLEU-1 / embeddings

def test_bleu1_examples():
    assert bleu1(["a", "b"], ["a", "b"]) == 1.0
    assert bleu1(["a", "b"], ["a", "c"]) == 0.5
    # short candidate: precision 1 with brevity penalty e^(1-2)
    assert bleu1(["a"], ["a", "b"]) == pytest.approx(math.exp(-1.0))
    # clipping: "a a" against a single "a"
    assert bleu1(["a", "a"], ["a"]) == 0.5
    assert bleu1([], ["a"]) == 0.0
    with pytest.raises(ValueError):
        bleu1(["a"], [])


def test_bleu1_matches_oracle_random():
    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(9)]
    for _ in range(80):
        cand = [vocab[i] for i in rng.integers(0, 9, rng.integers(1, 8))]
        ref = [vocab[i] for i in rng.integers(0, 9, rng.integers(1, 8))]
        assert bleu1(cand, ref) == pytest.approx(SC.bleu1_oracle(cand, ref), abs=1e-9)


def _unit_vectors():
    return {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0]),
            "nx": np.array([-1.0, 0.0])}


def test_embedding_metrics_identity_and_orthogonal():
    v = _unit_vectors()
    assert embedding_metrics(["x", "y"], ["x", "y"], v) == pytest.approx((1.0, 1.0, 1.0))
    avg, ext, greedy = embedding_metrics(["x"], ["y"], v)
    assert avg == 0.0 and ext == 0.0 and greedy == 0.0
    assert embedding_metrics(["oov"], ["x"], v) is None


def test_embedding_metrics_matches_oracle_random():
    rng = np.random.default_rng(4)
    vecs = {f"t{i}": rng.standard_normal(4) for i in range(10)}
    names = list(vecs)
    for _ in range(60):
        cand = [names[i] for i in rng.integers(0, 10, rng.integers(1, 8))]
        ref = [names[i] for i in rng.integers(0, 10, rng.integers(1, 8))]
        got = embedding_metrics(cand, ref, vecs)
        expect = np_oracle.embedding_metrics_oracle(cand, ref, vecs)
        assert np.allclose(got, expect, atol=1e-9)


def test_word_vector_roundtrip(tmp_path):
    vecs = {"alpha": np.array([0.25, -1.5]), "beta": np.array([2.0, 0.125])}
    path = tmp_path / "vec.txt"
    save_word_vectors(path, vecs)
    back = load_word_vectors(path)
    assert set(back) == set(vecs)
    for k in vecs:
        assert np.array_equal(back[k], vecs[k])


def test_word_vector_header_mismatch(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("3 2\na 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="count"):
        load_word_vectors(path)


def test_word_vector_bad_dim(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("1 3\na 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="dimension"):
        load_word_vectors(path)


@pytest.mark.parametrize("text,where,what", [
    ("", 1, "expected a header"),
    ("2\na 1.0\n", 1, "expected a header"),
    ("0 2\n", 1, "expected a header"),
    ("1 two\na 1.0 2.0\n", 1, "expected a header"),
    ("1 2\n\na 1.0 x2\n", 3, "could not convert string to float"),
    ("2 2\na 1.0 2.0\nb 1.0\n", 3, "bad vector dimension for token 'b': 1 values"),
    ("2 2\na 1.0 2.0\na 3.0 4.0\n", 3, "duplicate token 'a'"),
    ("3 2\na 1.0 2.0\n", 1, "header count 3 != 1 vectors"),
])
def test_word_vector_errors_name_the_line(tmp_path, text, where, what):
    path = tmp_path / "vec.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{where}: {what}")):
        load_word_vectors(path)


def test_word_vectors_not_utf8_name_the_line(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_bytes(b"2 2\na 1.0 2.0\ncaf\xff 0.5 0.5\n")
    with pytest.raises(C.CorpusError, match=re.escape(f"{path}:3: not UTF-8")):
        load_word_vectors(path)
