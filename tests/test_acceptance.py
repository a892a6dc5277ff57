"""Acceptance gate: eight numbered criteria, one verdict line each.

Criteria 1-4 are oracle checks (finite differences, Monte Carlo KL,
brute-force metric reimplementations, hinge contracts).  Criteria 5-7
share one desk-scale experiment: four model variants trained on a
synthetic persona corpus for three seeds, which takes a few minutes.
Criterion 8 reruns a small CLI pipeline and compares artifact bytes.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import time

import numpy as np
import pytest

import np_oracle
from pagen import cli
from pagen import corpus as C
from pagen import evaluate as E
from pagen import metrics as MX
from pagen import model as M
from pagen import selfcheck as SC
from pagen.autodiff import Tensor, no_grad
from pagen.model import GaussianParams, ModelConfig, load_checkpoint
from pagen.objective import gaussian_kl, r1, r2
from pagen.trainer import TrainConfig, encode_triples, train

SEEDS = (0, 1, 2)
CORPUS_SEED = 123


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness

def test_criterion_1_gradient_checks():
    start = time.perf_counter()
    prim_ok, _ = SC.check_primitives(seed=0, h=1e-4, tol=1e-4)
    e2e = SC.check_end_to_end(seed=0, h=1e-4)
    elapsed = time.perf_counter() - start
    worst = max(e2e.values())
    _verdict(1, prim_ok and all(err < 1e-4 for err in e2e.values()) and elapsed < 60.0,
             f"primitives={'ok' if prim_ok else 'fail'} "
             f"end_to_end_max_rel_err={worst:.2e} runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: closed-form KL vs Monte Carlo

def test_criterion_2_kl_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    self_kl = 0.0
    for _ in range(10):
        g = GaussianParams(Tensor(rng.uniform(-2, 2, (1, 4))),
                           Tensor(rng.uniform(-1, 1, (1, 4))))
        self_kl = max(self_kl, abs(gaussian_kl(g, g).data.item()))
    mc_ok, lines = SC.check_kl(pairs=20, dim=4, samples=1_000_000, rel_tol=0.01,
                               seed=0)
    elapsed = time.perf_counter() - start
    _verdict(2, self_kl < 1e-9 and mc_ok and elapsed < 30.0,
             f"self_kl={self_kl:.1e} mc_pairs={sum(l.startswith('ok') for l in lines)}/20 "
             f"runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: metric implementations vs brute-force oracles

def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(0)
    vocab = [f"t{i}" for i in range(20)]

    def sent():
        return [vocab[i] for i in rng.integers(0, 20, rng.integers(1, 9))]

    worst = 0.0
    for _ in range(50):
        cand, ref = sent(), sent()
        worst = max(worst, abs(MX.bleu1(cand, ref) - SC.bleu1_oracle(cand, ref)))

        resp = [sent() for _ in range(3)]
        for n in (1, 2):
            a, b = MX.distinct_n(resp, n), SC.distinct_n_oracle(resp, n)
            if a is not None:
                worst = max(worst, abs(a - b))

        bg = [sent() for _ in range(4)]
        us = [sent() for _ in range(2)]
        lm = MX.BigramLM(bg, lam=0.7)
        lm.fit_user(us)
        probe = sent()
        worst = max(worst, abs(lm.perplexity(probe) -
                               np_oracle.bigram_perplexity_oracle(bg, us, 0.7, probe)))

        m_scores = rng.standard_normal(6)
        s_scores = rng.standard_normal(6)
        mine = 1 if MX.rank_count(m_scores) < MX.rank_count(s_scores) else 0
        worst = max(worst, abs(mine - np_oracle.urank_oracle(m_scores, s_scores)))

        vecs = {w: rng.standard_normal(4) for w in vocab}
        got = MX.embedding_metrics(cand, ref, vecs)
        expect = np_oracle.embedding_metrics_oracle(cand, ref, vecs)
        worst = max(worst, float(np.abs(np.array(got) - np.array(expect)).max()))

    _verdict(3, worst < 1e-9, f"50 cases per metric, max_abs_err={worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: hinge regularizer contracts

def test_criterion_4_regularizer_contracts():
    rng = np.random.default_rng(0)
    worst = 0.0
    floor_ok = True
    for _ in range(200):
        gamma1 = float(rng.uniform(0.05, 1.0))
        gamma2 = float(rng.uniform(0.05, 1.0))
        ku = Tensor(rng.uniform(0, 3, 5))
        kk = Tensor(rng.uniform(0, 3, 5))
        out1 = r1(ku, kk, gamma1).data
        floor_ok &= bool(np.all(out1 >= -gamma1 - 1e-12))
        raw = ku.data - kk.data
        above = raw > -gamma1
        worst = max(worst, float(np.abs(out1[above] - raw[above]).max(initial=0.0)))

        vu = Tensor(rng.uniform(0.1, 4, (5, 3)))
        vk = Tensor(rng.uniform(0.1, 4, (5, 3)))
        out2 = r2(vu, vk, gamma2).data
        floor_ok &= bool(np.all(out2 >= -gamma2 - 1e-12))
        raw2 = vu.data.mean(axis=1) - vk.data.mean(axis=1)
        above2 = raw2 > -gamma2
        worst = max(worst, float(np.abs(out2[above2] - raw2[above2]).max(initial=0.0)))
    _verdict(4, floor_ok and worst < 1e-9,
             f"floors_respected={floor_ok} max_unclamped_err={worst:.2e}")


# ---------------------------------------------------------------------------
# desk-scale experiment shared by criteria 5-7

MODEL_SPECS = (
    ("S2SA", "S2SA", {}),
    ("CVAE", "CVAE", {}),
    ("FULL", "PAGENERATOR", {}),
    ("NO_UE", "PAGENERATOR", {"decode_with_user": False}),
)


def _run_seed(seed, out_root, data):
    tr, te, vocab, users = data
    models = {}
    for name, base, extra in MODEL_SPECS:
        cfg = ModelConfig(variant=base, vocab_size=len(vocab), num_users=len(users),
                          anneal_batches=3000, gamma1=0.5, gamma2=0.5,
                          use_attention=(base == "S2SA"), **extra).toy()
        ckpt, _ = train(tr, vocab, users, cfg, TrainConfig(batch_size=64, epochs=30),
                        seed=seed, out_dir=str(out_root / f"{name}_{seed}"))
        models[name] = load_checkpoint(ckpt)

    cfg_m = MX.MetricConfig(rounds=5, n_distractors=10, beam_width=10, max_length=12)
    raw = [(u, q, r) for u, q, r in encode_triples(te, vocab, users)]
    distractors = MX.make_distractors(raw, models["S2SA"], cfg_m)
    uranks = {name: MX.urank(distractors, models[name], models["S2SA"], cfg_m,
                             seed=seed).value for name in models}

    ev_users = sorted({t.user_id for t in te})
    lms = MX.build_user_lms(tr, ev_users)
    uppls, udists = {}, {}
    queries = [q for _, q, _ in raw[:15]]
    user_indices = [users.index(u) for u in ev_users]
    for name in ("CVAE", "FULL", "NO_UE"):
        responses = E.generate_responses(models[name], te, vocab, users, seed=seed,
                                         beam_width=5, max_length=12)
        by_user = {}
        for resp, t in zip(responses, te):
            by_user.setdefault(t.user_id, []).append(resp)
        uppls[name] = MX.uppl(by_user, lms).value
        d1, d2, _ = MX.udistinct(queries, user_indices, models[name], seed=seed,
                                 max_length=12)
        udists[name] = (d1, d2)
    return {"models": models, "uranks": uranks, "uppls": uppls, "udists": udists}


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    out_root = tmp_path_factory.mktemp("desk")
    triples = C.generate_synthetic(8, 400, 0.9, seed=CORPUS_SEED)
    tr, te = C.split(triples, 0.95, seed=0)
    vocab = C.Vocabulary.build(tr)
    users = C.UserTable.build({t.user_id for t in triples})
    te = te[:80]
    data = (tr, te, vocab, users)
    start = time.perf_counter()
    runs = {seed: _run_seed(seed, out_root, data) for seed in SEEDS}
    return {"runs": runs, "data": data, "elapsed": time.perf_counter() - start}


def test_criterion_5_table_ordering(desk_runs):
    details = []
    passing = 0
    for seed in SEEDS:
        r = desk_runs["runs"][seed]
        ur, up, ud = r["uranks"], r["uppls"], r["udists"]
        a = ur["FULL"] > ur["CVAE"] > 0.0 and ur["S2SA"] == 0.0
        b = up["FULL"] < up["CVAE"]
        c = ud["FULL"][0] >= ud["CVAE"][0] and ud["FULL"][1] >= ud["CVAE"][1]
        passing += a and b and c
        details.append(f"seed{seed}:a={a} b={b} c={c}")
    elapsed = desk_runs["elapsed"]
    _verdict(5, passing >= 2 and elapsed < 1800.0,
             f"{' '.join(details)} seeds_passing={passing}/3 runtime={elapsed:.0f}s")


def test_criterion_6_user_embedding_ablation(desk_runs):
    details = []
    passing = 0
    for seed in SEEDS:
        r = desk_runs["runs"][seed]
        ok = (r["uranks"]["NO_UE"] < r["uranks"]["FULL"]
              and r["udists"]["NO_UE"][0] < r["udists"]["FULL"][0]
              and r["udists"]["NO_UE"][1] < r["udists"]["FULL"][1])
        passing += ok
        details.append(f"seed{seed}:{ok}")
    _verdict(6, passing >= 2, f"{' '.join(details)} seeds_passing={passing}/3")


def test_criterion_7_regularizer_mechanisms(desk_runs):
    tr, te, vocab, users = desk_runs["data"]
    indexed = encode_triples(te, vocab, users)
    user_idx = np.array([u for u, _, _ in indexed], dtype=np.int64)
    q_idx, q_len = M.pad_batch([q for _, q, _ in indexed])
    r_idx, r_len = M.pad_batch([r for _, _, r in indexed])

    details = []
    all_ok = True
    for seed in SEEDS:
        params, cfg = desk_runs["runs"][seed]["models"]["FULL"]
        with no_grad():
            h_q = M.encode_batch(q_idx, q_len, params, cfg).final
            h_r = M.encode_batch(r_idx, r_len, params, cfg).final
            post = M.posterior_net(h_q, h_r, params, cfg)
            e_u = M.user_embedding(user_idx, params, cfg)
            e_unk = M.user_embedding(np.zeros_like(user_idx), params, cfg)
            p_user = M.prior_net(h_q, e_u, params, cfg)
            p_unk = M.prior_net(h_q, e_unk, params, cfg)
        kl_diff = float((gaussian_kl(post, p_user).data -
                         gaussian_kl(post, p_unk).data).mean())
        var_diff = float((np.exp(p_user.log_var.data).mean(axis=1) -
                          np.exp(p_unk.log_var.data).mean(axis=1)).mean())
        ok = kl_diff <= 0.0 and var_diff <= 0.0
        all_ok &= ok
        details.append(f"seed{seed}:kl_diff={kl_diff:.3f} var_diff={var_diff:.3f}")
    _verdict(7, all_ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: byte-identical pipeline reruns

PIPELINE_CONFIG = """\
variant=PAGENERATOR
word_embed_dim=8
user_embed_dim=6
encoder_hidden=8
decoder_hidden=12
z_dim=4
bow_hidden=10
gamma1=0.5
gamma2=0.5
anneal_batches=50
batch_size=32
epochs=2
lr=0.002
train_ratio=0.9
"""


def test_criterion_8_reproducibility(tmp_path):
    data = tmp_path / "corpus.tsv"
    C.write_corpus(data, C.generate_synthetic(4, 60, 0.9, seed=7))
    config = tmp_path / "pipe.cfg"
    config.write_text(PIPELINE_CONFIG, encoding="utf-8")

    def pipeline(tag):
        run = tmp_path / f"run_{tag}"
        assert cli.main(["train", "--config", str(config), "--data", str(data),
                         "--out", str(run), "--seed", "3"]) == 0
        ev = tmp_path / f"eval_{tag}"
        assert cli.main(["evaluate", "--model", str(run / "model.ckpt"),
                         "--ref-model", str(run / "model.ckpt"),
                         "--data", str(run / "test.tsv"),
                         "--train-data", str(run / "train.tsv"),
                         "--metrics", "bleu1,uppl,urank", "--rounds", "2",
                         "--distractors", "5", "--beam", "5",
                         "--seed", "3", "--out", str(ev)]) == 0
        return run, ev

    run_a, ev_a = pipeline("a")
    run_b, ev_b = pipeline("b")
    same = []
    for rel in ("model.ckpt", "history.csv", "manifest.txt"):
        same.append((run_a / rel).read_bytes() == (run_b / rel).read_bytes())
    for rel in ("report.txt", "per_item.csv", "manifest.txt"):
        same.append((ev_a / rel).read_bytes() == (ev_b / rel).read_bytes())
    _verdict(8, all(same),
             "train+evaluate rerun artifacts byte-identical" if all(same)
             else f"mismatches={[i for i, s in enumerate(same) if not s]}")
