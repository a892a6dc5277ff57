"""Unit tests for the network components, the variant lattice, and the
checkpoint format."""

import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

import np_oracle
from conftest import toy_batch, toy_config
from pagen import autodiff as ad
from pagen import model as M
from pagen import trainer as T
from pagen.autodiff import ContractError, Tensor, backward
from pagen.corpus import BOS, EOS, PAD, UNSPECIFIED_USER
from pagen.model import GaussianParams, ModelConfig
from pagen.objective import total_loss


def test_config_validation():
    with pytest.raises(ValueError, match="variant"):
        toy_config(variant="GPT")
    with pytest.raises(ValueError):
        toy_config(z_dim=0)
    with pytest.raises(ValueError):
        toy_config(gamma1=-1.0)


def test_config_text_roundtrip():
    cfg = toy_config(variant="CVAE", gamma1=0.25, use_attention=True)
    assert ModelConfig.from_text(cfg.to_text()) == cfg
    with pytest.raises(ValueError, match="unknown config key"):
        ModelConfig.from_text("bogus=1\n")


@pytest.mark.parametrize("line", ["use_r1=True", "decode_with_user=yes", "z_dim=ten"])
def test_config_text_rejects_bad_values(line):
    key = line.partition("=")[0]
    with pytest.raises(ValueError, match=f"^ckpt:2: {key}: expected"):
        ModelConfig.from_text("variant=CVAE\n" + line + "\n", source="ckpt")


def test_toy_profile_keeps_variant():
    cfg = ModelConfig(variant="CVAE", vocab_size=50, num_users=3).toy()
    assert cfg.variant == "CVAE"
    assert cfg.encoder_hidden == 32
    assert cfg.vocab_size == 50


def test_decoder_user_usage_per_variant():
    assert not toy_config(variant="S2SA").decoder_uses_user
    assert not toy_config(variant="FACT_BIAS").decoder_uses_user
    assert toy_config(variant="SPEAKER").decoder_uses_user
    assert not toy_config(variant="VAE").decoder_uses_user
    # the latent channel is the only user path in a CVAE
    assert not toy_config(variant="CVAE").decoder_uses_user
    assert toy_config(variant="PAGENERATOR").decoder_uses_user
    assert not toy_config(variant="PAGENERATOR", decode_with_user=False).decoder_uses_user


def test_param_shapes_per_variant():
    cfg = toy_config(variant="PAGENERATOR")
    p = M.init_params(cfg)
    we, ue, zd, Hd = (cfg.word_embed_dim, cfg.user_embed_dim, cfg.z_dim,
                      cfg.decoder_hidden)
    assert p["dec_W"].shape == (we + zd + ue + Hd, 4 * Hd)
    assert p["prior_W"].shape == (2 * cfg.encoder_hidden + ue, 2 * zd)
    assert p["user_emb"].shape == (cfg.num_users, ue)

    p = M.init_params(toy_config(variant="CVAE"))
    assert p["dec_W"].shape == (we + zd + Hd, 4 * Hd)  # no user rows

    p = M.init_params(toy_config(variant="S2SA"))
    assert p["dec_W"].shape == (we + Hd, 4 * Hd)
    assert "user_emb" not in p and "prior_W" not in p

    p = M.init_params(toy_config(variant="FACT_BIAS"))
    assert p["fact_factors"].shape == (4, 3)
    assert p["out_W"].shape == (3 + Hd, 30)  # the factor projection's rows first
    assert "fact_proj" not in p

    p = M.init_params(toy_config(variant="S2SA", use_attention=True))
    assert "att_W" in p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_params_draws_per_tensor_values_without_temporaries(dtype):
    """init_params gives bitwise the values of one uniform draw per tensor
    in sorted-name order, cast to dtype, while its traced peak stays within
    its one flat array plus a few draw pieces: no tensor-sized temporary."""
    cfg = ModelConfig(vocab_size=20000, num_users=4).toy()
    tracemalloc.start()
    try:
        params = M.init_params(cfg, seed=7, dtype=dtype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rng = np.random.default_rng(7)
    for k in sorted(params):
        want = rng.uniform(-0.08, 0.08, size=params[k].shape).astype(dtype)
        assert params[k].data.dtype == dtype and params[k].data.tobytes() == want.tobytes(), k
    total = sum(p.data.nbytes for p in params.values())
    assert max(p.data.nbytes for p in params.values()) > 4 * M.CHUNK * 8
    assert peak < total + 4 * M.CHUNK * 8, (peak, total)


def test_encode_shapes_and_mask():
    cfg = toy_config()
    params = M.init_params(cfg)
    _, q_idx, q_len, _, _ = toy_batch()
    enc = M.encode_batch(q_idx, q_len, params, cfg)
    B, T = q_idx.shape
    assert enc.final.shape == (B, 2 * cfg.encoder_hidden)
    assert enc.states.shape == (T, B, 2 * cfg.encoder_hidden)
    assert np.array_equal(enc.mask, (np.arange(T)[None, :] < q_len[:, None]))


def test_encode_padding_invariance():
    # extra PAD columns must not change the encoding
    cfg = toy_config()
    params = M.init_params(cfg)
    idx = np.array([[5, 6, 7]])
    lengths = np.array([3])
    a = M.encode_batch(idx, lengths, params, cfg).final.data
    padded = np.array([[5, 6, 7, 0, 0]])
    b = M.encode_batch(padded, lengths, params, cfg).final.data
    assert np.allclose(a, b)


def test_encode_empty_errors():
    cfg = toy_config()
    params = M.init_params(cfg)
    with pytest.raises(ContractError):
        M.encode_batch(*M.pad_batch([[]]), params, cfg)
    with pytest.raises(ContractError):
        M.encode_batch(np.array([[5]]), np.array([0]), params, cfg)


def test_pad_batch_is_the_row_by_row_fill():
    """pad_batch's one masked assignment gives the array and lengths of
    filling each row in a loop, tuples and empty rows included."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows = [[int(t) for t in rng.integers(4, 100, rng.integers(0, 9))]
                for _ in range(rng.integers(1, 12))]
        rows[0] = tuple(rows[0]) + (5,)
        want = np.full((len(rows), max(map(len, rows))), PAD, dtype=np.int64)
        for i, r in enumerate(rows):
            want[i, :len(r)] = r
        idx, lengths = M.pad_batch(rows)
        assert idx.dtype == want.dtype and idx.tolist() == want.tolist()
        assert lengths.tolist() == [len(r) for r in rows]


def test_prior_with_zero_weights_is_standard_normal():
    cfg = toy_config()
    params = M.init_params(cfg)
    params["prior_W"].data[:] = 0.0
    params["prior_b"].data[:] = 0.0
    h_q = ad.constant(np.random.default_rng(0).standard_normal((2, 2 * cfg.encoder_hidden)))
    e_u = ad.constant(np.zeros((2, cfg.user_embed_dim)))
    g = M.prior_net(h_q, e_u, params, cfg)
    assert np.allclose(g.mu.data, 0.0)
    assert np.allclose(g.log_var.data, 0.0)  # unit variance
    noise = np.random.default_rng(1).standard_normal((2, cfg.z_dim))
    assert np.allclose(M.sample_z(g, noise).data, noise)


def test_sample_z_closed_form():
    mu = np.array([[1.0, -2.0]])
    log_var = np.log(np.array([[4.0, 0.25]]))
    g = GaussianParams(mu=Tensor(mu), log_var=Tensor(log_var))
    noise = np.array([[1.0, -1.0]])
    assert np.allclose(M.sample_z(g, noise).data, [[3.0, -2.5]])


def test_sample_z_monte_carlo_moments():
    n = 1_000_000
    mu = np.array([1.0, -2.0, 0.5])
    var = np.array([4.0, 1.0, 0.25])
    g = GaussianParams(mu=Tensor(np.repeat(mu[None, :], n, axis=0)),
                       log_var=Tensor(np.repeat(np.log(var)[None, :], n, axis=0)))
    noise = np.random.default_rng(0).standard_normal((n, 3))
    z = M.sample_z(g, noise).data
    assert np.abs(z.mean(axis=0) - mu).max() < 0.01
    assert np.abs(z.var(axis=0) / var - 1.0).max() < 0.01


def test_prior_user_index():
    idx = np.array([1, 2, 3])
    assert np.array_equal(M.prior_user_index(idx, toy_config(variant="VAE")),
                          np.full(3, UNSPECIFIED_USER))
    assert np.array_equal(M.prior_user_index(idx, toy_config(variant="CVAE")), idx)
    assert np.array_equal(M.prior_user_index(idx, toy_config()), idx)


def test_decode_step_is_distribution():
    cfg = toy_config(variant="S2SA")
    params = M.init_params(cfg)
    _, q_idx, q_len, _, _ = toy_batch()
    enc = M.encode_batch(q_idx, q_len, params, cfg)
    state = M.decoder_init_state(enc.final, params, cfg)
    logp, _ = M.decode_step(np.array([2, 2, 2]), state, None, None, enc, params, cfg)
    assert logp.shape == (3, cfg.vocab_size)
    assert np.all(logp.data <= 0.0)
    assert np.allclose(np.exp(logp.data).sum(axis=1), 1.0)


def test_teacher_forced_log_probs_negative():
    cfg = toy_config(variant="S2SA")
    params = M.init_params(cfg)
    batch = toy_batch()
    user_idx, q_idx, q_len, r_idx, r_len = batch
    enc = M.encode_batch(q_idx, q_len, params, cfg)
    state = M.decoder_init_state(enc.final, params, cfg)
    lp = M.teacher_forced_log_probs(r_idx, r_len, state, None, None, enc, params, cfg)
    assert lp.shape == (3,)
    assert np.all(lp.data < 0.0)


@pytest.mark.parametrize("variant,use_attention", [
    pytest.param("S2SA", True, id="S2SA"), pytest.param("PAGENERATOR", True, id="PAGENERATOR"),
    ("FACT_BIAS", False), ("FACT_BIAS", True)])
def test_attention_log_probs_match_numpy_oracle(variant, use_attention):
    cfg = toy_config(variant=variant, use_attention=use_attention)
    params = M.init_params(cfg, seed=11, dtype=np.float64)
    for p in params.values():
        p.data *= 5.0  # sharp attention weights, so a wrong score shows
    user_idx, q_idx, q_len, r_idx, r_len = toy_batch(seed=12, q_max=6)
    q_len[0] = 1  # one query of a single valid step among padding
    rng = np.random.default_rng(13)
    z = rng.standard_normal((3, cfg.z_dim)) if cfg.is_latent else None
    e_u = params["user_emb"].data[user_idx] if cfg.decoder_uses_user else None

    enc = M.encode_batch(q_idx, q_len, params, cfg)
    state = M.decoder_init_state(enc.final, params, cfg)
    got = M.teacher_forced_log_probs(
        r_idx, r_len, state, None if z is None else ad.constant(z),
        None if e_u is None else ad.constant(e_u), enc, params, cfg, user_idx=user_idx).data

    pd = {k: p.data for k, p in params.items()}
    final, states, mask = np_oracle.encoder_np(pd, cfg, q_idx, q_len)
    assert np.allclose(enc.final.data, final, atol=1e-12)
    # attention weighs a padded position by exactly 0, so only the valid
    # positions' states are compared
    valid = mask.T.astype(bool)
    assert np.allclose(enc.states.data[valid], states.transpose(1, 0, 2)[valid], atol=1e-12)
    assert np.array_equal(enc.mask, mask)
    h0 = np.tanh(final @ pd["dec_init_W"] + pd["dec_init_b"])
    expect = np_oracle.decoder_logprob_np(pd, cfg, h0, np.zeros_like(h0), z, e_u,
                                          r_idx, r_len, enc_states=states, enc_mask=mask,
                                          user_idx=user_idx)
    assert np.allclose(got, expect, atol=1e-10)
    # the oracle without attention, or without FACT_BIAS's user bias,
    # disagrees, so the comparison has teeth
    if use_attention:
        plain = np_oracle.decoder_logprob_np(pd, toy_config(variant=variant), h0,
                                             np.zeros_like(h0), z, e_u, r_idx, r_len,
                                             user_idx=user_idx)
        assert not np.allclose(got, plain, atol=1e-3)
    if variant == "FACT_BIAS":
        unbiased = dict(pd, fact_factors=np.zeros_like(pd["fact_factors"]))
        plain = np_oracle.decoder_logprob_np(unbiased, cfg, h0, np.zeros_like(h0), z, e_u,
                                             r_idx, r_len, enc_states=states, enc_mask=mask,
                                             user_idx=user_idx)
        assert not np.allclose(got, plain, atol=1e-3)


@pytest.mark.parametrize("use_attention", [False, True])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_teacher_forcing_matches_decode_step_loop(variant, use_attention):
    """Teacher forcing equals feeding the targets through decode_step one
    step at a time."""
    cfg = toy_config(variant=variant, use_attention=use_attention)
    params = M.init_params(cfg, seed=14, dtype=np.float64)
    for p in params.values():
        p.data *= 5.0
    user_idx, q_idx, q_len, r_idx, r_len = toy_batch(seed=15, q_max=6)
    rng = np.random.default_rng(16)
    z = ad.constant(rng.standard_normal((3, cfg.z_dim))) if cfg.is_latent else None
    e_u = M.user_embedding(user_idx, params, cfg) if cfg.decoder_uses_user else None
    enc = M.encode_batch(q_idx, q_len, params, cfg)
    state = M.decoder_init_state(enc.final, params, cfg)
    got = M.teacher_forced_log_probs(r_idx, r_len, state, z, e_u, enc, params, cfg,
                                     user_idx=user_idx).data

    Tr = r_idx.shape[1]
    expect = np.zeros(3)
    prev = np.full(3, BOS)
    for t in range(Tr + 1):
        target = np.where(t < r_len, r_idx[:, min(t, Tr - 1)], EOS)
        logp, state = M.decode_step(prev, state, z, e_u, enc, params, cfg,
                                    user_idx=user_idx)
        expect += logp.data[np.arange(3), target] * (t <= r_len)
        prev = target
    assert got.dtype == np.float64
    assert np.allclose(got, expect, rtol=0.0, atol=1e-10)


def test_reply_tree_shares_each_prefix_once():
    """Replies [6, 7] twice, [6] and [8] in lane 0 and [6] in lane 1: the
    decoder runs one node per (lane, prefix) and the output layer one pair
    per (lane, prefix, target), where a reply's end targets EOS.  The pairs
    form a (J, lanes) grid, each lane's down its column."""
    r_idx, r_len = M.pad_batch([[6, 7], [6, 7], [6], [8], [6]])
    tokens, sizes, parents, node, target, row_pair = M.reply_tree(
        r_idx, r_len, np.array([0, 0, 0, 0, 1]))
    assert sizes.tolist() == [2, 3, 1]
    assert tokens.tolist() == [BOS, BOS, 6, 8, 6, 7]
    assert parents.tolist() == [0, 1, 0, 0, 1, 0]
    # down lane 0's column: [6]'s pairs, then those [6, 7] adds, then [8]'s
    assert node.T.tolist() == [[0, 2, 2, 5, 0, 3], [1, 4, 0, 0, 0, 0]]
    assert target.T.tolist() == [[6, EOS, 7, EOS, 8, EOS], [6, EOS, -1, -1, -1, -1]]
    # each row's pairs in time order, as (grid row, lane), then -1
    t = np.arange(3)[:, None]
    live = (t <= r_len).T
    assert np.array(divmod(row_pair, 2)).transpose(2, 1, 0)[live].tolist() == [
        [0, 0], [2, 0], [3, 0], [0, 0], [2, 0], [3, 0], [0, 0], [1, 0], [4, 0], [5, 0],
        [0, 1], [1, 1]]
    assert (row_pair.T[~live] == -1).all()
    # one row per lane: nothing is shared, the rows run longest first, and
    # after step 0, which reads each row's lane, every row continues itself
    r_idx, r_len = r_idx[::-1], r_len[::-1]
    tokens, sizes, parents, node, target, row_pair = M.reply_tree(r_idx, r_len, np.arange(5))
    assert sizes.tolist() == [5, 5, 2]
    assert parents.tolist() == [3, 4, 0, 1, 2] + [0, 1, 2, 3, 4] + [0, 1]
    assert tokens.tolist() == [BOS] * 5 + [6, 6, 6, 8, 6] + [7, 7]
    assert node.tolist() == [[2, 3, 4, 0, 1], [7, 8, 9, 5, 6], [0, 0, 0, 10, 11]]
    assert target.tolist() == [[6, 8, 6, 6, 6], [EOS, EOS, EOS, 7, 7], [-1, -1, -1, EOS, EOS]]
    assert np.array_equal(row_pair, np.where(t <= r_len, t * 5 + np.arange(5), -1))


def test_reply_tree_matches_a_brute_force_trie():
    """On random replies (holding BOS, EOS and UNK ids too), random unsorted
    lanes with gaps and extra padding, reply_tree's nodes are each distinct
    (lane, prefix) once, its grid pairs each distinct (lane, prefix,
    target) once in its lane's column, the grid is as tall as the largest
    lane's pairs, and each row reads its own pairs in time order, then -1."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        replies = [list(rng.integers(1, 6, rng.integers(1, 5)))
                   for _ in range(rng.integers(1, 10))]
        lanes = rng.integers(0, 4, len(replies))
        steps = [(r, lane, t) for r, lane in zip(replies, lanes) for t in range(len(r) + 1)]
        r_idx, r_len = M.pad_batch(replies)
        tokens, sizes, parents, node, target, row_pair = M.reply_tree(
            np.pad(r_idx, ((0, 0), (0, rng.integers(0, 3)))), r_len, lanes)
        prefix, first = {}, np.concatenate([[0], np.cumsum(sizes)])
        for t in range(len(sizes)):  # each node's (lane, prefix), walking its parents
            for i in range(first[t], first[t + 1]):
                lane, before = (parents[i], ()) if t == 0 else prefix[first[t - 1] + parents[i]]
                prefix[i] = (lane, before + ((tokens[i],) if t else ()))
        assert sorted(prefix.values()) == sorted({(lane, tuple(r[:t])) for r, lane, t in steps})
        scored = np.argwhere(target >= 0)
        assert all(prefix[node[j, lane]][0] == lane for j, lane in scored)
        assert sorted(prefix[node[j, lane]] + (target[j, lane],) for j, lane in scored) == \
            sorted({(lane, tuple(r[:t]), (r + [EOS])[t]) for r, lane, t in steps})
        assert len(node) == np.bincount(scored[:, 1]).max()
        for b, (r, lane) in enumerate(zip(replies, lanes)):
            j, col = np.divmod(row_pair[:len(r) + 1, b], node.shape[1])
            assert (col == lane).all() and (row_pair[len(r) + 1:, b] == -1).all()
            read = [prefix[node[j[t], lane]][1] + (target[j[t], lane],) for t in range(len(r) + 1)]
            assert read == [tuple(r[:t]) + ((r + [EOS])[t],) for t in range(len(r) + 1)]


SCORING_SETUPS = [(v, False) for v in M.VARIANTS] + [("S2SA", True), ("FACT_BIAS", True)]


@pytest.mark.parametrize("variant, use_attention", SCORING_SETUPS)
def test_teacher_forcing_is_padding_invariant(variant, use_attention):
    """A ragged batch scores each reply as if it were alone and unpadded,
    and extra padded steps change neither the loss nor any gradient (in
    float64; FACT_BIAS maps each scored row to its own user)."""
    cfg = toy_config(variant=variant, use_attention=use_attention)
    params = M.init_params(cfg, seed=17, dtype=np.float64)
    for p in params.values():
        p.data *= 5.0
    batch = toy_batch(seed=18, batch=4, q_max=6, r_max=6)
    user_idx, q_idx, q_len, r_idx, r_len = batch
    r_len[:] = [6, 1, 3, 2]  # the longest row and a one-token reply
    z = np.random.default_rng(19).standard_normal((4, cfg.z_dim))

    def scores(rows, trim):
        q, r = q_idx[rows], r_idx[rows]
        if trim:
            q, r = q[:, :q_len[rows].max()], r[:, :r_len[rows].max()]
        enc = M.encode_batch(q, q_len[rows], params, cfg)
        state = M.decoder_init_state(enc.final, params, cfg)
        e_u = M.user_embedding(user_idx[rows], params, cfg) if cfg.decoder_uses_user else None
        return M.teacher_forced_log_probs(r, r_len[rows], state, ad.constant(z[rows]) if
                                          cfg.is_latent else None, e_u, enc, params, cfg,
                                          user_idx=user_idx[rows]).data

    together = scores(np.arange(4), trim=False)
    alone = [scores(np.array([b]), trim=True)[0] for b in range(4)]
    assert np.allclose(together, alone, rtol=1e-12, atol=0.0)

    def loss_and_grads(r_pad):
        for p in params.values():
            p.zero_grad()
        padded = (user_idx, q_idx, q_len, np.pad(r_idx, ((0, 0), (0, r_pad))), r_len)
        loss, _ = total_loss(padded, params, cfg, noise=z, batch_index=5)
        backward(loss)
        return float(loss.data), {k: p.grad.copy() for k, p in params.items()}

    loss, grads = loss_and_grads(0)
    loss_padded, grads_padded = loss_and_grads(4)
    assert loss_padded == pytest.approx(loss, rel=1e-12)
    for k in grads:
        assert np.allclose(grads_padded[k], grads[k], rtol=1e-10, atol=1e-12), k


@pytest.mark.parametrize("variant,attention,v_wide_copies",
                         [("PAGENERATOR", False, 0), ("FACT_BIAS", False, 0), ("S2SA", True, 0)],
                         ids=["PAGENERATOR", "FACT_BIAS", "S2SA+attention"])
def test_backward_allocates_no_table_and_copies_no_logits(monkeypatch, variant, attention,
                                                          v_wide_copies):
    """In one backward of a toy batch with packed parameters marked
    stale_grad, as the trainer leaves them, the embedding gradients go
    straight into the arena (no table-sized buffer), and so does the first
    gradient of every other weight matrix: the one _accum gets is the
    weight's own .grad, never a product or concatenation made apart and
    copied in (prior_W, read twice, has its second gradient added).  Every
    first gradient becomes .grad uncopied, and no backward hands on a copy
    of a V-wide upstream gradient."""
    cfg = toy_config(variant, use_attention=attention)
    params = M.init_params(cfg, seed=20)
    T.arena(params)
    for p in params.values():
        p.stale_grad = True
    weights = {id(p) for p in params.values() if p.data.ndim == 2}
    noise = np.random.default_rng(21).standard_normal((3, cfg.z_dim)).astype(np.float32) \
        if cfg.is_latent else None
    made, kept, copies, upstream, apart = [], [], [], [], []
    real_zeros_like, real_zeros, real_accum, real_result = (np.zeros_like, np.zeros,
                                                            ad._accum, ad._result)

    def result(data, parents, backward_fn):  # each backward's upstream gradient
        def bwd(g):
            upstream.append(g)
            backward_fn(g)
            upstream.pop()
        return real_result(data, parents, bwd)

    def zeros_like(a, *args, **kwargs):
        made.append(np.shape(a))
        return real_zeros_like(a, *args, **kwargs)

    def zeros(shape, *args, **kwargs):
        made.append(tuple(np.atleast_1d(shape)))
        return real_zeros(shape, *args, **kwargs)

    def accum(t, g):
        first = t.requires_grad and t.grad is None
        if id(t) in weights and t.stale_grad and g is not t.grad:
            apart.append(t.shape)
        up = upstream[-1]
        if (t.requires_grad and g.shape == up.shape and not np.shares_memory(g, up)
                and np.array_equal(g, up)):
            copies.append(g.shape)
        real_accum(t, g)
        if first:
            kept.append(t.grad is g)

    monkeypatch.setattr(ad, "_result", result)
    loss, _ = total_loss(toy_batch(seed=22), params, cfg, noise=noise, batch_index=5)
    monkeypatch.setattr(np, "zeros_like", zeros_like)
    monkeypatch.setattr(np, "zeros", zeros)
    monkeypatch.setattr(ad, "_accum", accum)
    backward(loss)
    monkeypatch.undo()
    tables = {params[k].shape for k in ("word_emb", "user_emb") if k in params}
    assert made and kept  # the wrappers saw the backward
    assert not tables & set(made), made
    assert not apart, apart
    assert all(kept)
    assert len([s for s in copies if s[-1] == cfg.vocab_size]) <= v_wide_copies, copies
    assert params["word_emb"].grad.base is T.arena(params)[1] and np.abs(params["word_emb"].grad).max() > 0


def _buffer(a):
    while a.base is not None:
        a = a.base
    return a


def _node_arrays(node):
    """The arrays one op node holds for its backward: its output and every
    array its backward closure keeps (directly or in a list or tuple), each
    as the buffer it views, by id."""
    kept = [node.data]
    for cell in node._backward.__closure__ or ():
        v = cell.cell_contents
        kept.extend(v if isinstance(v, (list, tuple)) else [v])
    return {id(b): b for b in (_buffer(a) for a in kept if isinstance(a, np.ndarray))}


def _graph_arrays(root):
    """The arrays the graph under root holds for its backward, each counted
    once; the buffers of its leaves (the weights, which init_params lays
    out in one array) belong to their owner, not to the graph."""
    found, leaves, seen, stack = {}, set(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is None:
            leaves.add(id(_buffer(node.data)))
            continue
        found.update(_node_arrays(node))
        stack.extend(node._parents)
    return [a for k, a in found.items() if k not in leaves]


def test_backward_frees_the_logits_while_the_loss_lives(monkeypatch):
    """Once backward(loss) has run, the output node's (N, V) buffer, which
    held the logits and then their log-softmax, is unreachable although
    loss itself is still held: backward frees each node's saved arrays as
    soon as it has used them."""
    cfg = toy_config("PAGENERATOR")
    params = M.init_params(cfg, seed=23)
    noise = np.random.default_rng(24).standard_normal((3, cfg.z_dim)).astype(np.float32)
    refs, real = [], ad.affine_log_softmax_pick

    def spy(x, W, b, targets):
        out = real(x, W, b, targets)
        refs.extend(weakref.ref(a) for a in _graph_arrays(out)
                    if a.shape == (np.count_nonzero(targets >= 0), W.shape[1]))
        return out

    monkeypatch.setattr(ad, "affine_log_softmax_pick", spy)
    loss, _ = total_loss(toy_batch(seed=25), params, cfg, noise=noise, batch_index=5)
    monkeypatch.undo()
    assert len(refs) == 1 and refs[0]() is not None
    backward(loss)
    assert np.isfinite(loss.data)
    assert refs[0]() is None


def test_forward_holds_one_logits_sized_array():
    """After one PAGENERATOR or FACT_BIAS forward at V=5000 the graph holds
    exactly one array of N x V for its N scored decoder rows: the output
    node's buffer, which serves as logits, log-softmax and later their
    gradient."""
    batch = toy_batch(seed=29, vocab=5000)
    n = int(np.sum(batch[4] + 1))  # each reply's tokens plus EOS
    for variant in ("PAGENERATOR", "FACT_BIAS"):
        cfg = ModelConfig(variant=variant, vocab_size=5000, num_users=4).toy()
        noise = np.random.default_rng(30).standard_normal((3, cfg.z_dim)).astype(np.float32)
        params = M.init_params(cfg, seed=31)
        loss, _ = total_loss(batch, params, cfg, noise=noise, batch_index=5)
        held = _graph_arrays(loss)
        assert len([a for a in held if a.size == n * cfg.vocab_size]) == 1, variant
        assert max(a.size for a in held) == n * cfg.vocab_size, variant


def test_lstm_holds_its_states_and_cells_only(monkeypatch):
    """After a toy PAGENERATOR forward each of its five LSTM calls holds
    two (N, H) arrays for its backward, the states hs and the cells cs of
    its packed rows: the backward rebuilds the state each row continues
    and tanh of each cell from them."""
    cfg = toy_config("PAGENERATOR")
    params = M.init_params(cfg, seed=41)
    noise = np.random.default_rng(42).standard_normal((3, cfg.z_dim)).astype(np.float32)
    nodes, real = [], ad.lstm

    def spy(*args, **kwargs):
        hs, final = real(*args, **kwargs)
        nodes.append(hs)
        return hs, final

    monkeypatch.setattr(ad, "lstm", spy)
    loss, _ = total_loss(toy_batch(seed=43), params, cfg, noise=noise, batch_index=5)
    assert len(nodes) == 5
    for hs in nodes:
        held = [a for a in _node_arrays(hs).values() if a.shape == hs.shape]
        assert len(held) == 2 and any(a is hs.data for a in held)
    backward(loss)
    assert np.isfinite(loss.data)


def test_backward_writes_weight_gradients_into_the_arena():
    """With packed parameters marked stale_grad, as the trainer leaves them,
    one PAGENERATOR batch's backward at V=5000 computes the out_W and bow_W2
    gradients straight into their arena views: all it allocates at once
    stays below the size of one of them, and the gradients equal those of a
    backward into fresh buffers."""
    cfg = ModelConfig(vocab_size=5000, num_users=4).toy()
    batch = toy_batch(seed=26, vocab=5000)
    noise = np.random.default_rng(27).standard_normal((3, cfg.z_dim)).astype(np.float32)
    params = M.init_params(cfg, seed=28)
    backward(total_loss(batch, params, cfg, noise=noise, batch_index=5)[0])
    expect = {k: p.grad.copy() for k, p in params.items()}
    T.arena(params)[1].fill(np.nan)
    for p in params.values():
        p.stale_grad = True
    loss, _ = total_loss(batch, params, cfg, noise=noise, batch_index=5)
    tracemalloc.start()
    try:
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = params["out_W"].grad.nbytes
    assert size == params["bow_W2"].grad.nbytes == 64 * 5000 * 4
    assert peak < size, (peak, size)
    assert not any(p.stale_grad for p in params.values())  # every parameter was reached
    for k, p in params.items():
        assert np.array_equal(p.grad, expect[k]), k


def test_fact_bias_rank_and_zero_case():
    """FACT_BIAS's user bias, its logits less S2SA's from the same state
    and the rest of out_W, is of rank at most fact_rank over the users, and
    0 for zero factors."""
    cfg = toy_config(variant="FACT_BIAS")
    params = M.init_params(cfg, dtype=np.float64)
    users = np.arange(cfg.num_users)
    h = ad.constant(np.random.default_rng(1).standard_normal((len(users), cfg.decoder_hidden)))
    s2s = dict(params, out_W=Tensor(params["out_W"].data[cfg.fact_rank:]))

    def bias():
        return (M.output_logits(h, None, params, cfg, user_idx=users).data
                - M.output_logits(h, None, s2s, toy_config(variant="S2SA")).data)

    assert np.linalg.matrix_rank(bias(), tol=1e-9) <= cfg.fact_rank < len(users)
    params["fact_factors"].data[:] = 0.0
    assert np.allclose(bias(), 0.0)


def test_fact_bias_requires_user_idx():
    cfg = toy_config(variant="FACT_BIAS")
    params = M.init_params(cfg)
    _, q_idx, q_len, _, _ = toy_batch()
    enc = M.encode_batch(q_idx, q_len, params, cfg)
    state = M.decoder_init_state(enc.final, params, cfg)
    with pytest.raises(ContractError):
        M.decode_step(np.array([2, 2, 2]), state, None, None, enc, params, cfg)
    with pytest.raises(ContractError):
        M.decode_logits(np.array([2, 2, 2]), state, None, None, enc, params, cfg)


def test_user_embedding_contract():
    cfg = toy_config()
    params = M.init_params(cfg)
    with pytest.raises(ContractError):
        M.user_embedding(np.array([cfg.num_users]), params, cfg)


# ---------------------------------------------------------------------------
# variant lattice identities by weight surgery

def test_vae_equals_cvae_with_collapsed_user_rows():
    cfg_cvae = toy_config(variant="CVAE")
    cfg_vae = toy_config(variant="VAE")
    params = M.init_params(cfg_cvae, seed=3)
    params["user_emb"].data[:] = params["user_emb"].data[UNSPECIFIED_USER]
    batch = toy_batch(seed=4)
    noise = np.random.default_rng(5).standard_normal((3, cfg_cvae.z_dim)).astype(np.float32)
    loss_c, _ = total_loss(batch, params, cfg_cvae, noise=noise, batch_index=50)
    loss_v, _ = total_loss(batch, params, cfg_vae, noise=noise, batch_index=50)
    assert float(loss_c.data) == float(loss_v.data)


def test_speaker_equals_s2sa_plus_zero_user_embedding():
    cfg_spk = toy_config(variant="SPEAKER")
    cfg_s2s = toy_config(variant="S2SA")
    spk = M.init_params(cfg_spk, seed=6)
    spk["user_emb"].data[:] = 0.0
    we, ue = cfg_spk.word_embed_dim, cfg_spk.user_embed_dim
    s2s = {k: v for k, v in spk.items() if k != "user_emb"}
    s2s["dec_W"] = Tensor(np.delete(spk["dec_W"].data, np.s_[we:we + ue], axis=0),
                          requires_grad=True, name="dec_W")
    batch = toy_batch(seed=7)
    loss_spk, _ = total_loss(batch, spk, cfg_spk)
    loss_s2s, _ = total_loss(batch, s2s, cfg_s2s)
    assert float(loss_spk.data) == pytest.approx(float(loss_s2s.data), abs=1e-6)


def test_fact_bias_with_zero_factors_equals_s2sa():
    cfg_fb = toy_config(variant="FACT_BIAS")
    cfg_s2s = toy_config(variant="S2SA")
    fb = M.init_params(cfg_fb, seed=8)
    fb["fact_factors"].data[:] = 0.0
    s2s = {k: v for k, v in fb.items() if k not in ("user_emb", "fact_factors")}
    s2s["out_W"] = Tensor(fb["out_W"].data[cfg_fb.fact_rank:], requires_grad=True, name="out_W")
    batch = toy_batch(seed=9)
    loss_fb, _ = total_loss(batch, fb, cfg_fb)
    loss_s2s, _ = total_loss(batch, s2s, cfg_s2s)
    assert float(loss_fb.data) == float(loss_s2s.data)


def test_gradient_reaches_per_user_parameters():
    for variant, table in (("PAGENERATOR", "user_emb"), ("SPEAKER", "user_emb"),
                           ("CVAE", "user_emb"), ("FACT_BIAS", "fact_factors")):
        cfg = toy_config(variant=variant)
        params = M.init_params(cfg, seed=10)
        batch = toy_batch(seed=11)
        noise = (np.random.default_rng(12).standard_normal((3, cfg.z_dim)).astype(np.float32)
                 if cfg.is_latent else None)
        loss, _ = total_loss(batch, params, cfg, noise=noise, batch_index=50)
        for p in params.values():
            p.zero_grad()
        backward(loss)
        grad = params[table].grad
        used = np.unique(batch[0])
        assert grad is not None, variant
        assert all(np.abs(grad[u]).max() > 0 for u in used), variant


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_byte_identical(tmp_path):
    cfg = toy_config(variant="PAGENERATOR", gamma1=0.5)
    params = M.init_params(cfg, seed=13)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    M.save_checkpoint(p1, params, cfg)
    loaded, cfg2 = M.load_checkpoint(p1)
    assert cfg2 == cfg
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert np.array_equal(loaded[k].data, params[k].data.astype(np.float32))
    M.save_checkpoint(p2, loaded, cfg2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_save_copies_no_tensor(tmp_path):
    """Saving writes each tensor's own buffer: the save's traced peak stays
    below the size of the largest tensor."""
    cfg = ModelConfig(vocab_size=5000, num_users=4).toy()
    params = M.init_params(cfg, seed=14)
    largest = max(p.data.nbytes for p in params.values())
    tracemalloc.start()
    try:
        M.save_checkpoint(tmp_path / "m.ckpt", params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest, (peak, largest)
    loaded, _ = M.load_checkpoint(tmp_path / "m.ckpt")
    assert all(np.array_equal(loaded[k].data, params[k].data) for k in params)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        M.load_checkpoint(path)


def _saved(tmp_path, transform=None):
    cfg = toy_config(variant="PAGENERATOR")
    params = M.init_params(cfg, seed=3)
    if transform:
        transform(params)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, params, cfg)
    return path


def test_checkpoint_cut_short_names_file_and_tensor(tmp_path):
    path = _saved(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: checkpoint cut short in tensor '\w+'"):
        M.load_checkpoint(path)


def test_checkpoint_dims_past_int64_read_as_cut_short(tmp_path):
    """Dims whose product wraps to 0 in int64 (2**31 * 2**31 * 4) still
    need more bytes than the file has."""
    path = _saved(tmp_path)
    blob = path.read_bytes()
    header = b"\x05\x00out_b\x01"
    assert blob.count(header) == 1
    path.write_bytes(blob.replace(header, header[:-1] + b"\x03"
                                  + struct.pack("<3I", 2**31, 2**31, 4)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint cut short "
                                         "in tensor 'out_b'"):
        M.load_checkpoint(path)


def test_checkpoint_cut_in_its_config_is_rejected(tmp_path):
    path = _saved(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:blob.rindex(b"z_dim=")])  # every other key still parses
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint config"):
        M.load_checkpoint(path)


def test_checkpoint_renamed_tensor_is_rejected(tmp_path):
    path = _saved(tmp_path)
    blob = path.read_bytes()
    assert blob.count(b"\x05\x00out_b") == 1
    path.write_bytes(blob.replace(b"\x05\x00out_b", b"\x05\x00out_c"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unexpected tensor 'out_c'"):
        M.load_checkpoint(path)


def test_checkpoint_with_a_separate_fact_proj_is_rejected(tmp_path):
    """A FACT_BIAS checkpoint that keeps the factor projection as its own
    (fact_rank, V) tensor fact_proj, beside an (Hd, V) out_W, is refused,
    and the error names fact_proj."""
    cfg = toy_config(variant="FACT_BIAS")
    params = M.init_params(cfg, seed=3)
    W = params["out_W"].data
    params["fact_proj"] = Tensor(W[:cfg.fact_rank].copy())
    params["out_W"] = Tensor(W[cfg.fact_rank:].copy())
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, params, cfg)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unexpected tensor "
                                         "'fact_proj'"):
        M.load_checkpoint(path)


def test_checkpoint_missing_tensor_is_rejected(tmp_path):
    path = _saved(tmp_path, lambda p: p.pop("dec_b"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing tensor 'dec_b'"):
        M.load_checkpoint(path)


def test_checkpoint_transposed_tensor_is_rejected(tmp_path):
    def transpose(params):
        params["out_W"] = Tensor(params["out_W"].data.T.copy())

    path = _saved(tmp_path, transpose)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: tensor 'out_W' has "
                                         r"shape \(30, 8\), its config needs \(8, 30\)"):
        M.load_checkpoint(path)

