"""Unit tests for beam search decoding and response scoring."""

import numpy as np
import pytest

import np_oracle
from conftest import toy_config
from pagen import autodiff as ad
from pagen import generation as G
from pagen import model as M
from pagen.autodiff import ContractError
from pagen.corpus import BOS, EOS, PAD, UNK
from pagen.generation import GenRequest, Hypothesis, generate, score_responses


def _model(variant="S2SA", seed=0, **overrides):
    cfg = toy_config(variant=variant, **overrides)
    return M.init_params(cfg, seed=seed), cfg


def test_request_validation():
    with pytest.raises(ContractError):
        GenRequest(query=[5], beam_width=0)
    with pytest.raises(ContractError):
        GenRequest(query=[5], z_mode="argmax")
    with pytest.raises(ContractError):
        generate(GenRequest(query=[]), *_model())


def test_hypothesis_normalization():
    h = Hypothesis(tokens=[5, 6, 7], log_prob=-8.0)
    assert h.normalized() == -2.0


def _greedy_reference(query, params, cfg, max_length):
    """Independent greedy loop: argmax step by step with the same
    forbidden-token rules as the beam (no PAD/UNK/BOS, no EOS first)."""
    enc = M.encode_batch(*M.pad_batch([query]), params, cfg)
    state = M.decoder_init_state(enc.final, params, cfg, 1)
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
        z_vec = G._draw_z(enc.final, request.user_index, params, cfg, request.z_mode,
                          request.seed) if cfg.is_latent else None
        beams, finished = [Hypothesis()], []
        h0, c0 = M.decoder_init_state(enc.final, params, cfg, 1)
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
