"""Unit tests for beam search decoding and response scoring."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import np_oracle
from conftest import toy_config
from pagen import autodiff as ad
from pagen import generation as G
from pagen import model as M
from pagen.autodiff import ContractError
from pagen.corpus import BOS, EOS, PAD, UNK
from pagen.generation import (GenRequest, Hypothesis, generate, generate_many, score_many,
                              score_responses)


def _model(variant="S2SA", seed=0, **overrides):
    cfg = toy_config(variant=variant, **overrides)
    return M.init_params(cfg, seed=seed), cfg


def test_request_validation():
    with pytest.raises(ContractError):
        GenRequest(query=[5], beam_width=0)
    with pytest.raises(ContractError):
        GenRequest(query=[5], z_mode="argmax")
    with pytest.raises(ContractError, match="max_length"):
        GenRequest(query=[5], max_length=-2)
    assert GenRequest(query=[5], max_length=0).max_length == 0
    with pytest.raises(ContractError):
        generate(GenRequest(query=[]), *_model())


def test_hypothesis_normalization():
    h = Hypothesis(tokens=[5, 6, 7], log_prob=-8.0)
    assert h.normalized() == -2.0


def _greedy_reference(query, params, cfg, max_length):
    """Independent greedy loop: argmax step by step with the same
    forbidden-token rules as the beam (no PAD/UNK/BOS, no EOS first)."""
    enc = M.encode_batch(*M.pad_batch([query]), params, cfg)
    state = M.decoder_init_state(enc.final, params, cfg)
    tokens = []
    prev = BOS
    for step in range(max_length):
        logp, state = M.decode_step(np.array([prev]), state, None, None, enc,
                                    params, cfg)
        p = logp.data[0].copy()
        p[[PAD, UNK, BOS]] = -np.inf
        if step == 0:
            p[EOS] = -np.inf
        tok = int(np.argmax(p))
        if tok == EOS:
            break
        tokens.append(tok)
        prev = tok
    return tokens


def test_beam_width_one_is_greedy():
    for seed in range(5):
        params, cfg = _model(seed=seed)
        query = [5 + seed, 9, 12]
        req = GenRequest(query=query, beam_width=1, max_length=8)
        hyps = generate(req, params, cfg)
        assert hyps[0].tokens == _greedy_reference(query, params, cfg, 8)


def _beam_reference(request, params, cfg):
    """Beam search with per-beam candidate lists: each beam proposes its own
    top-W tokens, and the pooled candidates are sorted by (-score, beam,
    token).  generate() selects from one flat (beam, token) ordering."""
    W = request.beam_width
    with ad.no_grad():
        enc = M.encode_batch(*M.pad_batch([request.query]), params, cfg)
        z_vec = np_oracle.draw_z(enc.final, request.user_index, params, cfg, request.z_mode,
                                 request.seed)
        beams, finished = [Hypothesis()], []
        h0, c0 = M.decoder_init_state(enc.final, params, cfg)
        states = [(h0.data[0], c0.data[0])]
        for step in range(request.max_length):
            k = len(beams)
            prev = np.array([b.tokens[-1] if b.tokens else BOS for b in beams])
            h = ad.constant(np.stack([s[0] for s in states]))
            c = ad.constant(np.stack([s[1] for s in states]))
            z = ad.constant(np.repeat(z_vec[None, :], k, axis=0)) if z_vec is not None else None
            u_idx = np.full(k, request.user_index, dtype=np.int64)
            e_u = M.user_embedding(u_idx, params, cfg) if cfg.decoder_uses_user else None
            enc_k = M.EncoderOutput(final=ad.constant(np.repeat(enc.final.data, k, axis=0)),
                                    states=ad.constant(np.repeat(enc.states.data, k, axis=1)),
                                    mask=np.repeat(enc.mask, k, axis=0))
            logp, (h_new, c_new) = M.decode_step(prev, (h, c), z, e_u, enc_k,
                                                 params, cfg, user_idx=u_idx)
            logp = logp.data
            logp[:, [PAD, UNK, BOS]] = -np.inf
            if step == 0:
                logp[:, EOS] = -np.inf
            cands = []
            for i, b in enumerate(beams):
                for tok in np.argsort(-logp[i])[:W]:
                    cands.append((b.log_prob + logp[i, tok], i, int(tok)))
            cands.sort(key=lambda x: (-x[0], x[1], x[2]))
            new_beams, new_states = [], []
            for score, i, tok in cands[:W]:
                if tok == EOS:
                    finished.append(Hypothesis(list(beams[i].tokens), score))
                else:
                    new_beams.append(Hypothesis(beams[i].tokens + [tok], score))
                    new_states.append((h_new.data[i].copy(), c_new.data[i].copy()))
            beams, states = new_beams, new_states
            if not beams or len(finished) >= W:
                break
        finished += [Hypothesis(b.tokens, b.log_prob) for b in beams]
        finished.sort(key=lambda hyp: -hyp.normalized())
        return finished[:W]


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_beam_matches_per_beam_candidate_reference(variant):
    for seed, width in enumerate((2, 5, 10)):
        params, cfg = _model(variant=variant, seed=seed)
        req = GenRequest(query=[5 + seed, 9, 12], user_index=1 + seed, beam_width=width,
                         max_length=7, seed=seed)
        got, want = generate(req, params, cfg), _beam_reference(req, params, cfg)
        assert [h.tokens for h in got] == [h.tokens for h in want]
        assert [h.log_prob for h in got] == [h.log_prob for h in want]


def test_generate_deterministic():
    params, cfg = _model(variant="PAGENERATOR")
    req = GenRequest(query=[5, 6], user_index=1, beam_width=4, max_length=6,
                     z_mode="sample", seed=42)
    a = generate(req, params, cfg)
    b = generate(req, params, cfg)
    assert [h.tokens for h in a] == [h.tokens for h in b]
    assert [h.log_prob for h in a] == [h.log_prob for h in b]


def test_generate_output_contract():
    params, cfg = _model(variant="CVAE")
    req = GenRequest(query=[7, 8, 9], user_index=2, beam_width=5, max_length=10)
    hyps = generate(req, params, cfg)
    assert 1 <= len(hyps) <= 5
    scores = [h.normalized() for h in hyps]
    assert scores == sorted(scores, reverse=True)
    for h in hyps:
        assert h.tokens, "empty hypotheses are forbidden"
        assert all(t not in (PAD, UNK, BOS, EOS) for t in h.tokens)
        assert all(0 <= t < cfg.vocab_size for t in h.tokens)
        assert h.log_prob < 0.0


def test_generate_respects_max_length():
    params, cfg = _model()
    hyps = generate(GenRequest(query=[5], beam_width=3, max_length=4), params, cfg)
    assert all(len(h.tokens) <= 4 for h in hyps)


def test_z_mode_mean_is_stable_across_seeds():
    params, cfg = _model(variant="PAGENERATOR")
    a = generate(GenRequest(query=[5, 6], user_index=1, beam_width=2,
                            z_mode="mean", seed=1), params, cfg)
    b = generate(GenRequest(query=[5, 6], user_index=1, beam_width=2,
                            z_mode="mean", seed=99), params, cfg)
    assert [h.tokens for h in a] == [h.tokens for h in b]


def test_score_responses_contract():
    params, cfg = _model()
    with pytest.raises(ContractError):
        score_responses([5], [], 0, params, cfg)
    with pytest.raises(ContractError):
        score_responses([5], [[6], []], 0, params, cfg)
    with pytest.raises(ContractError):
        score_many([([5], [[6]], 0)], params, cfg, [])
    with pytest.raises(ContractError):
        score_responses([5], [[6]], 4, params, cfg)  # toy_config has 4 users


def test_scores_are_negative_and_ranked_consistently():
    params, cfg = _model(variant="PAGENERATOR")
    scores = score_responses([5, 6, 7], [[8, 9], [10], [11, 12, 13]], 1, params, cfg,
                             seed=3)
    assert scores.shape == (3,)
    assert np.all(scores < 0.0)
    single = score_responses([5, 6, 7], [[8, 9]], 1, params, cfg, seed=3)[0]
    assert single == pytest.approx(scores[0])


def test_score_matches_manual_cross_entropy():
    params, cfg = _model(variant="S2SA", seed=4)
    query = [5, 9, 14]
    replies = [[6, 7, 8], [10, 11], [12]]
    got = score_responses(query, replies, 0, params, cfg)

    pd = {k: p.data.astype(np.float64) for k, p in params.items()}
    enc = M.encode_batch(*M.pad_batch([query]), params, cfg)
    h_q = np.repeat(enc.final.data.astype(np.float64), 3, axis=0)
    h0 = np.tanh(h_q @ pd["dec_init_W"] + pd["dec_init_b"])
    c0 = np.zeros((3, cfg.decoder_hidden))
    r_idx, r_len = M.pad_batch(replies)
    expect = np_oracle.decoder_logprob_np(pd, cfg, h0, c0, None, None, r_idx, r_len)
    assert np.allclose(got, expect, atol=1e-5)


def test_latent_score_depends_on_seed_in_sample_mode():
    params, cfg = _model(variant="PAGENERATOR", seed=5)
    a = score_responses([5, 6], [[7, 8]], 1, params, cfg, seed=0)
    b = score_responses([5, 6], [[7, 8]], 1, params, cfg, seed=1)
    assert a[0] != b[0]


# ---------------------------------------------------------------------------
# batched beam search and scoring

BATCHED = (("PAGENERATOR", {}), ("S2SA", {"use_attention": True}), ("FACT_BIAS", {}))


def _mixed_requests(seed=0, n=9):
    """Requests with mixed query lengths, beam widths, max lengths, z modes
    and users."""
    rng = np.random.default_rng(seed)
    return [GenRequest(query=[int(t) for t in rng.integers(4, 30, rng.integers(1, 6))],
                       user_index=int(rng.integers(0, 4)),
                       beam_width=int(rng.choice([1, 2, 5, 10])),
                       max_length=int(rng.choice([0, 1, 3, 7])),
                       z_mode=str(rng.choice(["sample", "mean"])), seed=int(rng.integers(100)))
            for _ in range(n)]


def _tokens(hyps):
    return [h.tokens for h in hyps]


def _bits(hyps):
    return [(h.tokens, np.asarray(h.log_prob).tobytes()) for h in hyps]


@pytest.mark.parametrize("variant,extra", BATCHED)
def test_generate_many_matches_single_requests(variant, extra):
    for seed in range(3):
        params, cfg = _model(variant=variant, seed=seed, **extra)
        reqs = _mixed_requests(seed)
        got = generate_many(reqs, params, cfg)
        assert len(got) == len(reqs)
        for req, hyps in zip(reqs, got):
            single = generate(req, params, cfg)
            assert _tokens(hyps) == _tokens(single) == _tokens(_beam_reference(req, params, cfg))
            assert _bits(hyps) == _bits(single)  # no product has one row


@pytest.mark.parametrize("variant,extra", [(v, {}) for v in M.VARIANTS]
                         + [("PAGENERATOR", {"use_attention": True})])
def test_generate_is_bitwise_the_single_request_search(variant, extra):
    params, cfg = _model(variant=variant, seed=1, **extra)
    for req in _mixed_requests(seed=4, n=6) + [GenRequest(query=[5, 6], max_length=0)]:
        got, want = generate(req, params, cfg), np_oracle.generate_one(req, params, cfg)
        assert [(h.tokens, h.log_prob) for h in got] == [(h.tokens, h.log_prob) for h in want]


def test_a_mixed_group_is_bitwise_the_single_request_search():
    """One group of beam widths 1, 3 and 12 and max_lengths 0, 1 and 30
    gives each request np_oracle's full-sort hypotheses, bit for bit."""
    for variant, extra in BATCHED:
        params, cfg = _model(variant=variant, seed=2, **extra)
        reqs = [GenRequest(query=[5 + i, 9, 12][:1 + i % 3], user_index=i % 4, beam_width=w,
                           max_length=n, z_mode=("mean", "sample")[i % 2], seed=i)
                for i, (w, n) in enumerate((w, n) for w in (1, 3, 12) for n in (0, 1, 30))]
        for req, got in zip(reqs, generate_many(reqs, params, cfg)):
            want = np_oracle.generate_one(req, params, cfg)
            assert [(h.tokens, h.log_prob) for h in got] == [(h.tokens, h.log_prob) for h in want]


def test_beam_search_on_a_tied_grid_with_minus_inf_entries(monkeypatch):
    """decode_step replaced by a table row per previous token: log-probs in
    quarters, so beams tie at the W-th place, and -inf in places, so some
    requests have fewer finite candidates than their width.  A group gets
    np_oracle's full-sort hypotheses bit for bit, and never a -inf one."""
    params, cfg = _model(variant="PAGENERATOR", seed=1, vocab_size=12)
    rng = np.random.default_rng(3)
    table = -rng.integers(1, 4, (12, 12)).astype(np.float32) / 4
    table[rng.random(table.shape) < 0.3] = -np.inf
    step = M.decode_step

    def grid(prev, *a, **k):
        _, state = step(prev, *a, **k)
        return ad.constant(table[prev]), state

    monkeypatch.setattr(M, "decode_step", grid)
    reqs = [GenRequest(query=[4 + i % 8], user_index=i % 4, beam_width=w, max_length=n, seed=i)
            for i, (w, n) in enumerate((w, n) for w in (1, 2, 3, 5, 12) for n in (1, 2, 6))]
    got = generate_many(reqs, params, cfg)
    for req, hyps in zip(reqs, got):
        want = np_oracle.generate_one(req, params, cfg)
        assert [(h.tokens, h.log_prob) for h in hyps] == [(h.tokens, h.log_prob) for h in want]
        assert all(np.isfinite(h.log_prob) for h in hyps)
    assert any(len(hyps) < req.beam_width for req, hyps in zip(reqs, got))
    assert any(len({h.log_prob for h in hyps}) < len(hyps) for hyps in got)  # ties


def test_beam_search_never_returns_a_minus_inf_hypothesis():
    """With fewer finite candidates than its width, a request keeps fewer
    beams: at V=8 and width 6, one step has only the 4 real tokens."""
    params, cfg = _model(variant="S2SA", vocab_size=8)
    for req in (GenRequest(query=[5, 6], beam_width=6, max_length=1),
                GenRequest(query=[4], beam_width=12, max_length=3)):
        hyps = generate(req, params, cfg)
        assert all(np.isfinite(h.log_prob) for h in hyps)
        assert all(t not in (PAD, UNK, BOS, EOS) for h in hyps for t in h.tokens)
        assert [(h.tokens, h.log_prob) for h in hyps] == \
            [(h.tokens, h.log_prob) for h in np_oracle.generate_one(req, params, cfg)]
    assert sorted(t for h in generate(GenRequest(query=[5, 6], beam_width=6, max_length=1),
                                      params, cfg) for t in h.tokens) == [4, 5, 6, 7]


def test_top_picks_what_a_stable_full_sort_picks():
    """G._top against a stable argsort of each request's rows flattened:
    the same (row, token, score) in the same order, -inf never picked."""
    rng = np.random.default_rng(0)
    tied = 0
    for _ in range(300):
        counts = rng.integers(1, 5, rng.integers(1, 5))
        widths = rng.integers(1, 15, len(counts))
        V = int(rng.integers(2, 7))
        total = -rng.integers(0, 3, (counts.sum(), V)).astype(np.float32)
        total[rng.random(total.shape) < 0.2] = -np.inf
        req, row, tok, score = G._top(total, counts, widths)
        assert req.tolist() == sorted(req.tolist())
        for i, start in enumerate(np.cumsum(counts) - counts):
            block = total[start:start + counts[i]]
            order = np.argsort(-block, axis=None, kind="stable")
            values = block.ravel()[order]
            w = widths[i]
            if w < len(values) and values[w - 1] == values[w] > -np.inf:
                # a tie at the W-th place that spans beams
                tied += len(set(order[values == values[w - 1]] // V)) > 1
            order = order[:w][values[:w] > -np.inf]
            mine = req == i
            assert row[mine].tolist() == (start + order // V).tolist()
            assert tok[mine].tolist() == (order % V).tolist()
            assert score[mine].tobytes() == block.ravel()[order].tobytes()
    assert tied > 20


def test_generate_many_of_no_requests_is_empty():
    assert generate_many([], *_model()) == []


@pytest.mark.parametrize("bad", [GenRequest(query=[]), GenRequest(query=[5], user_index=4),
                                 GenRequest(query=[5], user_index=-1), GenRequest(query=[5, 30]),
                                 GenRequest(query=[-1, 5])])
@pytest.mark.parametrize("cap", [1, G.MAX_ROWS])
def test_generate_many_checks_every_request_before_decoding(bad, cap, monkeypatch):
    params, cfg = _model(variant="PAGENERATOR")
    encoded = []
    monkeypatch.setattr(M, "encode_batch", lambda *a: encoded.append(a))
    monkeypatch.setattr(G, "MAX_ROWS", cap)
    with pytest.raises(ContractError):
        generate_many([GenRequest(query=[5, 6]), bad, GenRequest(query=[7])], params, cfg)
    assert not encoded


@pytest.mark.parametrize("variant,extra", BATCHED)
def test_generate_many_does_not_depend_on_the_row_cap(variant, extra, monkeypatch):
    params, cfg = _model(variant=variant, seed=2, **extra)
    reqs = _mixed_requests(seed=5, n=12)
    want = [_tokens(h) for h in generate_many(reqs, params, cfg)]
    rows, step = [], M.decode_step
    monkeypatch.setattr(M, "decode_step", lambda prev, *a, **k: rows.append(len(prev)) or
                        step(prev, *a, **k))
    for cap in (1, 7, 16, 10 ** 6):
        monkeypatch.setattr(G, "MAX_ROWS", cap)
        rows.clear()
        got = generate_many(reqs, params, cfg)
        assert [_tokens(h) for h in got] == want
        # a request wider than the cap runs in a group of its own
        assert max(rows) <= max(cap, max(r.beam_width for r in reqs))
        if cap == 1:  # one request per group: each is a search of its own
            assert got == [np_oracle.generate_one(r, params, cfg) for r in reqs]


@pytest.mark.parametrize("variant,extra", BATCHED + (("CVAE", {}), ("VAE", {})))
def test_score_rounds_is_bitwise_per_seed_scoring(variant, extra):
    """All rounds of one item in one score_many call give, seed by seed, the
    bits of scoring that seed alone."""
    params, cfg = _model(variant=variant, seed=3, **extra)
    query, replies, seeds = [5, 9, 14, 6], [[6, 7, 8], [10, 11], [12], [13, 5, 7, 9]], [0, 7, 3]
    [got] = score_many([(query, replies, 2)], params, cfg, seeds)
    assert got.shape == (3, 4) and got.dtype == np.float64
    for row, seed in zip(got, seeds):
        want = np_oracle.score_one(query, replies, 2, params, cfg, seed=seed)
        assert row.tobytes() == want.tobytes()
        single = score_responses(query, replies, 2, params, cfg, seed=seed)
        assert single.tobytes() == want.tobytes()


# items whose replies share prefixes: duplicates, replies that are prefixes
# of others, one-token replies and a reply that holds EOS where another
# ends; the second item alone with one seed is one lane, whose first step
# is a single node
TREE_ITEMS = [([5, 9, 14], [[6, 7, 8], [6, 7], [6, 7, 8], [6], [10, 11], [6, 7, 8, 9], [6],
                            [6, EOS, 8]], 1),
              ([7, 12], [[13], [13], [14, 6]], 2)]


@pytest.mark.parametrize("use_attention", [False, True])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_tree_scoring_is_bitwise_the_row_by_row_sum(variant, use_attention, monkeypatch):
    """score_many runs each (item, seed) as one lane of the reply tree.  It
    gives the bits of teacher forcing every reply on a row of its own
    (lanes=None) with its lane's set-up copied to the row, as scoring did
    before the tree, while its decoder runs fewer rows than there are live
    (row, step) pairs.  At decoder_hidden=64 a one-row product rounds
    differently from a many-row one, so a one-node step would show."""
    params, cfg = _model(variant=variant, seed=4, decoder_hidden=64, use_attention=use_attention)
    for p in params.values():
        p.data *= 4.0  # so that a last-bit difference in a state reaches the scores
    decoded, decoder_lstm = [], M.decoder_lstm

    def spy(tokens, sizes, *a):
        decoded.append(list(sizes))
        return decoder_lstm(tokens, sizes, *a)

    monkeypatch.setattr(M, "decoder_lstm", spy)
    for items, seeds in ((TREE_ITEMS, [0, 5]), (TREE_ITEMS[1:], [3])):
        decoded.clear()
        got = score_many(items, params, cfg, seeds)
        [sizes] = decoded
        draws = [(i, "sample", seed) for i in range(len(items)) for seed in seeds]
        replies = [items[i][1] for i, _, _ in draws]
        with ad.no_grad():
            [(_, (enc, z, e_u, users, state))] = G._set_up(
                [items], lambda item: (item[0], item[2], [("sample", s) for s in seeds]), params,
                cfg)
            lane = np.repeat(np.arange(len(draws)), [len(r) for r in replies])
            r_idx, r_len = M.pad_batch([r for rs in replies for r in rs])

            def rows(t):
                return None if t is None else ad.constant(t.data[lane])

            want = M.teacher_forced_log_probs(
                r_idx, r_len, tuple(map(rows, state)), rows(z), rows(e_u),
                None if enc is None else G._rows(enc, lane), params, cfg, user_idx=users[lane])
        assert np.concatenate([g.ravel() for g in got]).tobytes() == \
            want.data.astype(np.float64).tobytes()
        assert sizes[0] == len(draws) and sum(sizes) < (r_len + 1).sum()


@pytest.mark.parametrize("variant,extra", BATCHED)
def test_grouping_moves_no_bit(variant, extra, monkeypatch):
    """At decoder_hidden=64, where numpy's one-row product rounds
    differently from a many-row one, every request and every item gives
    the same bits in one group as alone (MAX_ROWS=1): no product has one
    row."""
    params, cfg = _model(variant=variant, seed=6, decoder_hidden=64, **extra)
    for p in params.values():
        p.data *= 4.0  # so that a last-bit difference in a state reaches the outputs
    reqs, items = _mixed_requests(seed=7, n=8), _mixed_items(seed=8, n=8)
    grouped = generate_many(reqs, params, cfg), score_many(items, params, cfg, [1, 2])
    monkeypatch.setattr(G, "MAX_ROWS", 1)
    alone = generate_many(reqs, params, cfg), score_many(items, params, cfg, [1, 2])
    assert [[(h.tokens, h.log_prob) for h in hyps] for hyps in grouped[0]] == \
        [[(h.tokens, h.log_prob) for h in hyps] for hyps in alone[0]]
    assert [s.tobytes() for s in grouped[1]] == [s.tobytes() for s in alone[1]]


@pytest.mark.parametrize("use_attention", [False, True])
@pytest.mark.parametrize("variant", ["PAGENERATOR", "FACT_BIAS"])
def test_teacher_forcing_with_lanes_trains_as_copied_rows(variant, use_attention):
    """With grad enabled, in float64, teacher forcing with lanes gives the
    loss and every parameter gradient of the lanes=None pass with each
    lane's set-up copied to its rows: a shared node or pair sums the
    gradients of its rows.  Lane 0 holds shared prefixes, a duplicate reply
    and a one-token reply."""
    cfg = toy_config(variant=variant, use_attention=use_attention)
    params = M.init_params(cfg, seed=10, dtype=np.float64)
    for p in params.values():
        p.data *= 4.0
    queries, users = [[5, 9, 14], [7, 12]], np.array([1, 2])
    replies = [[6, 7, 8], [6, 7], [6, 7, 8], [6], [10, 11], [13, 5]]
    lanes = np.array([0, 0, 0, 0, 0, 1])
    rng = np.random.default_rng(11)
    noise, weights = rng.standard_normal((2, cfg.z_dim)), rng.standard_normal(len(replies))

    def loss_and_grads(rows, lanes):
        for p in params.values():
            p.zero_grad()
        enc = M.encode_batch(*M.pad_batch([queries[i] for i in rows]), params, cfg)
        e_u = M.user_embedding(users[rows], params, cfg)
        z = (M.sample_z(M.prior_net(enc.final, e_u, params, cfg), noise[rows])
             if cfg.is_latent else None)
        lp = M.teacher_forced_log_probs(
            *M.pad_batch(replies), M.decoder_init_state(enc.final, params, cfg), z,
            e_u if cfg.decoder_uses_user else None, enc, params, cfg, user_idx=users[rows],
            lanes=lanes)
        loss = ad.reduce_sum(ad.mul(lp, ad.constant(weights)))
        ad.backward(loss)
        return float(loss.data), {k: p.grad for k, p in params.items() if p.grad is not None}

    loss, grads = loss_and_grads(np.arange(2), lanes)
    want_loss, want = loss_and_grads(lanes, None)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
    assert grads.keys() == want.keys() and {"dec_W", "out_W", "enc_fwd_W"} <= grads.keys()
    for k in want:
        assert np.allclose(grads[k], want[k], rtol=1e-9, atol=1e-12), k


# small token ids, so that replies often share prefixes
_TOKENS = st.lists(st.integers(4, 8), min_size=1, max_size=5)
_ITEMS = st.lists(st.tuples(_TOKENS, st.lists(_TOKENS, min_size=1, max_size=6),
                            st.integers(0, 3)), min_size=1, max_size=8)


@pytest.mark.parametrize("variant,extra", [("PAGENERATOR", {}), ("S2SA", {"use_attention": True}),
                                           ("FACT_BIAS", {})])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(items=_ITEMS, max_rows=st.integers(1, 64), seeds=st.lists(st.integers(0, 9), min_size=1,
                                                                  max_size=3))
def test_score_many_is_bitwise_per_item_scoring(variant, extra, items, max_rows, seeds):
    """However MAX_ROWS groups the items, and so whatever the grid's J and
    lane count, each item's scores have the bits of scoring it alone.  At
    decoder_hidden=64 a one-row product rounds differently from a many-row
    one, so a one-row step would show."""
    params, cfg = _model(variant=variant, seed=12, decoder_hidden=64, **extra)
    for p in params.values():
        p.data *= 4.0  # so that a last-bit difference in a state reaches the scores
    alone = [score_many([item], params, cfg, seeds)[0] for item in items]
    with mock.patch.object(G, "MAX_ROWS", max_rows):
        grouped = score_many(items, params, cfg, seeds)
    assert [s.tobytes() for s in grouped] == [s.tobytes() for s in alone]


_REQUESTS = st.lists(st.builds(GenRequest, query=st.lists(st.integers(4, 29), min_size=1,
                                                         max_size=12),
                               user_index=st.integers(0, 3), beam_width=st.integers(1, 6),
                               max_length=st.integers(0, 30),
                               z_mode=st.sampled_from(["sample", "mean"]),
                               seed=st.integers(0, 9)),
                     min_size=1, max_size=8)


@pytest.mark.parametrize("variant,extra", BATCHED)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(requests=_REQUESTS, max_rows=st.integers(1, 64))
def test_generate_many_is_bitwise_per_request_search(variant, extra, requests, max_rows):
    """However MAX_ROWS groups and chunks the requests, each group gives
    the bits of running as a call of its own (its chunk's encoder rows, z,
    user rows and initial state do not depend on the other groups), and
    without attention each request's hypotheses have the tokens and
    log_prob bits of searching it alone.  With attention a request's bits
    can depend on its group's longest query: numpy sums a grid of 8 or
    more steps in another order than a shorter one."""
    params, cfg = _model(variant=variant, seed=13, word_embed_dim=32, encoder_hidden=32,
                         decoder_hidden=64, **extra)
    for p in params.values():
        p.data *= 4.0  # so that a last-bit difference in a state reaches the scores
    with mock.patch.object(G, "MAX_ROWS", max_rows):
        grouped = [_bits(hyps) for hyps in generate_many(requests, params, cfg)]
        groups = G._groups(requests, [(r.beam_width,) for r in requests], (max_rows,))
        assert grouped == [_bits(hyps) for g in groups for hyps in generate_many(g, params, cfg)]
    if not cfg.use_attention:
        assert grouped == [_bits(generate(r, params, cfg)) for r in requests]


def test_a_group_attends_over_its_own_longest_query(monkeypatch):
    """Under MAX_ROWS=4, requests of beam width 2 (items of two rows) run
    in groups of two, and a chunk holds two groups.  With queries of 1 to
    13 tokens, each group's attention grid is cut to its own longest
    query, so each group has the bits of running as a call of its own;
    over its chunk's longer grid some would not (numpy sums a grid of 8 or
    more steps in another order than a shorter one)."""
    monkeypatch.setattr(G, "MAX_ROWS", 4)
    for seed in range(8):
        params, cfg = _model(variant="S2SA", seed=seed, use_attention=True, word_embed_dim=32,
                             encoder_hidden=32, decoder_hidden=64)
        for p in params.values():
            p.data *= 4.0
        rng = np.random.default_rng(seed)
        queries = [[int(t) for t in rng.integers(4, 30, rng.integers(1, 14))] for _ in range(8)]
        reqs = [GenRequest(query=q, user_index=i % 4, beam_width=2, max_length=10, seed=i)
                for i, q in enumerate(queries)]
        items = [(q, [[5, 6, 7], [8, 9]], i % 4) for i, q in enumerate(queries)]
        pairs = range(0, 8, 2)
        assert [_bits(h) for h in generate_many(reqs, params, cfg)] == \
            [_bits(h) for i in pairs for h in generate_many(reqs[i:i + 2], params, cfg)], seed
        assert [s.tobytes() for s in score_many(items, params, cfg, [0])] == \
            [s.tobytes() for i in pairs for s in score_many(items[i:i + 2], params, cfg, [0])], seed


@pytest.mark.parametrize("use_attention", [False, True])
def test_set_up_runs_once_per_chunk_and_the_decoder_once_per_group(use_attention, monkeypatch):
    """Under MAX_ROWS=4, six requests of beam width 2 (or six items of two
    rows) make three groups of two, and the groups' queries two chunks of
    at most four: one generate_many or score_many call encodes and draws z
    once per chunk, and runs the decoder once per group (max_length=1 is
    one beam step)."""
    params, cfg = _model(variant="PAGENERATOR", seed=2, use_attention=use_attention)
    reqs = [GenRequest(query=[5 + i] * (1 + i % 3), user_index=i % 4, beam_width=2,
                       max_length=1, seed=i) for i in range(6)]
    items = [(r.query, [[6, 7], [8 + r.seed]], r.user_index) for r in reqs]
    alone = ([_bits(generate(r, params, cfg)) for r in reqs],
             [score_many([item], params, cfg, [3])[0].tobytes() for item in items])
    calls = []

    def spy(name, fn):
        return lambda *a: calls.append((name, len(a[0]) if name == "encode" else None)) or fn(*a)

    monkeypatch.setattr(M, "encode_batch", spy("encode", M.encode_batch))
    monkeypatch.setattr(G, "_draw_z", spy("draw", G._draw_z))
    monkeypatch.setattr(M, "decoder_lstm", spy("decode", M.decoder_lstm))
    monkeypatch.setattr(G, "MAX_ROWS", 4)
    chunks_then_groups = [("encode", 4), ("draw", None), ("decode", None), ("decode", None),
                          ("encode", 2), ("draw", None), ("decode", None)]
    assert [_bits(hyps) for hyps in generate_many(reqs, params, cfg)] == alone[0]
    assert calls == chunks_then_groups
    calls.clear()
    assert [s.tobytes() for s in score_many(items, params, cfg, [3])] == alone[1]
    assert calls == chunks_then_groups


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_set_up_looks_each_chunk_of_users_up_once(variant, monkeypatch):
    """One user-embedding lookup per chunk feeds the prior and the decoder's
    lanes; a variant without a user embedding makes none."""
    params, cfg = _model(variant=variant, seed=2)
    reqs = [GenRequest(query=[5 + i, 6], user_index=i % 4, beam_width=2, max_length=2, seed=i)
            for i in range(6)]
    items = [(r.query, [[6, 7], [8 + r.seed]], r.user_index) for r in reqs]
    table, calls, embedding = params.get("user_emb"), [], ad.embedding
    monkeypatch.setattr(ad, "embedding",
                        lambda t, idx: calls.append(t is table) or embedding(t, idx))
    monkeypatch.setattr(G, "MAX_ROWS", 4)
    chunks = 2 if table is not None else 0
    generate_many(reqs, params, cfg)
    assert sum(calls) == chunks
    calls.clear()
    score_many(items, params, cfg, [3, 4])
    assert sum(calls) == chunks


def _mixed_items(seed=0, n=9):
    """Score items with mixed query and reply lengths, reply counts and
    users."""
    rng = np.random.default_rng(seed)

    def tokens(hi):
        return [int(t) for t in rng.integers(4, 30, rng.integers(1, hi))]

    return [(tokens(7), [tokens(9) for _ in range(rng.integers(1, 6))], int(rng.integers(0, 4)))
            for _ in range(n)]


def _ranks(scores):
    return [[np.sum(row[1:] > row[0]) for row in s] for s in scores]


@pytest.mark.parametrize("variant,extra", BATCHED)
def test_score_many_matches_per_item_scoring(variant, extra):
    seeds = [4, 0, 9]
    for seed in range(3):
        params, cfg = _model(variant=variant, seed=seed, **extra)
        items = _mixed_items(seed)
        got = score_many(items, params, cfg, seeds)
        want = [np.stack([np_oracle.score_one(q, r, u, params, cfg, seed=s) for s in seeds])
                for q, r, u in items]
        assert [s.shape for s in got] == [(len(seeds), len(r)) for _, r, _ in items]
        assert _ranks(got) == _ranks(want)
        # the batched GEMMs may round the last bits differently
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=0, atol=1e-5)


@pytest.mark.parametrize("caps", [(1, G.MAX_SCORED), (7, G.MAX_SCORED), (10 ** 6, G.MAX_SCORED),
                                  (10 ** 6, 1), (10 ** 6, 2500)])
def test_score_many_groups_stay_under_both_caps(caps, monkeypatch):
    """Row caps of 1, 7 and 10**6 and output-buffer caps give the same
    ranks; no group goes above a cap unless it is one item."""
    params, cfg = _model(variant="PAGENERATOR", seed=1)
    items, seeds = _mixed_items(seed=6, n=12), [3]
    want = _ranks(score_many(items, params, cfg, seeds))
    groups, tf, unbounded = [], M.teacher_forced_log_probs, (10 ** 6, G.MAX_SCORED)

    def spy(reply_idx, reply_lengths, *a, **k):
        groups.append((len(reply_lengths), int((reply_lengths + 1).sum()) * cfg.vocab_size))
        return tf(reply_idx, reply_lengths, *a, **k)

    monkeypatch.setattr(M, "teacher_forced_log_probs", spy)
    monkeypatch.setattr(G, "MAX_ROWS", caps[0])
    monkeypatch.setattr(G, "MAX_SCORED", caps[1])
    assert _ranks(score_many(items, params, cfg, seeds)) == want
    alone = [(len(seeds) * len(r), len(seeds) * sum(len(x) + 1 for x in r) * cfg.vocab_size)
             for _, r, _ in items]
    assert sum(rows for rows, _ in groups) == sum(rows for rows, _ in alone)
    for group in groups:
        assert group in alone or all(g <= cap for g, cap in zip(group, caps))
    if 1 in caps:  # one item per group
        assert groups == alone
    elif caps == unbounded:  # at these sizes, one group
        assert len(groups) == 1
    else:
        assert 1 < len(groups) < len(items)


@pytest.mark.parametrize("bad", [([], [[6]], 0), ([5], [], 0), ([5], [[6], []], 0),
                                 ([5], [[6]], 4), ([5], [[6]], -1), ([5], [[6], [7, 30]], 0),
                                 ([5, -1], [[6]], 0)])
def test_score_many_checks_every_item_before_decoding(bad, monkeypatch):
    params, cfg = _model(variant="PAGENERATOR")
    encoded = []
    monkeypatch.setattr(M, "encode_batch", lambda *a: encoded.append(a))
    monkeypatch.setattr(G, "MAX_ROWS", 1)
    with pytest.raises(ContractError):
        score_many([([5, 6], [[7]], 1), bad, ([7], [[8, 9]], 2)], params, cfg, [0])
    assert not encoded


def test_a_bad_token_is_named_with_its_item_or_request():
    """A token outside [0, vocab_size), in a query or a reply, fails before
    any decoding with the index of its item or request and the token."""
    params, cfg = _model(variant="PAGENERATOR")
    good = ([5, 6], [[7]], 1)
    with pytest.raises(ContractError, match=r"item 1: token 30 outside \[0, 30\)"):
        score_many([good, ([5], [[6], [7, 30]], 0)], params, cfg, [0])
    with pytest.raises(ContractError, match=r"item 2: token -3 outside"):
        score_many([good, good, ([5, -3], [[6]], 0)], params, cfg, [0])
    with pytest.raises(ContractError, match=r"request 1: token -1 outside"):
        generate_many([GenRequest(query=[5]), GenRequest(query=[-1, 5])], params, cfg)


def test_score_many_of_no_items_is_empty():
    assert score_many([], *_model(), [0]) == []


def test_top_makes_no_index_array_of_the_block_when_every_entry_ties():
    """With every entry tied at the W-th score, _top keeps only as many of
    them as there are places, so its temporaries stay within a few score
    blocks: an index array of the whole block would be 2 blocks per int64."""
    total = np.zeros((30, 20004), dtype=np.float32)
    tracemalloc.start()
    try:
        req, row, tok, score = G._top(total, np.array([10, 10, 10]), np.array([10, 10, 10]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * total.nbytes
    assert row.tolist() == [0] * 10 + [10] * 10 + [20] * 10 and tok.tolist() == list(range(10)) * 3


def test_draw_z_makes_one_noise_row_per_distinct_seed(monkeypatch):
    params, cfg = _model(variant="PAGENERATOR")
    items, seeds = _mixed_items(seed=1, n=6), [4, 0, 4, 9]
    want = score_many(items, params, cfg, seeds)
    made, rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed) or rng(seed))
    got = score_many(items, params, cfg, seeds)
    assert sorted(made) == [0, 4, 9]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
