"""Unit tests for the loss terms and the combined objective."""

import math

import numpy as np
import pytest

import np_oracle
from conftest import toy_batch, toy_config
from pagen import autodiff as ad
from pagen import generation as G
from pagen import model as M
from pagen.autodiff import ShapeError, Tensor, backward, grad_check
from pagen.corpus import UNSPECIFIED_USER
from pagen.model import GaussianParams
from pagen.objective import (LossBreakdown, NumericError, anneal_weight, bow_loss,
                             gaussian_kl, r1, r2, total_loss)


def _gauss(mu, var):
    mu = np.atleast_2d(np.asarray(mu, dtype=np.float64))
    var = np.atleast_2d(np.asarray(var, dtype=np.float64))
    return GaussianParams(mu=Tensor(mu), log_var=Tensor(np.log(var)))


def test_kl_self_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = _gauss(rng.uniform(-3, 3, 4), rng.uniform(0.2, 5, 4))
        assert abs(gaussian_kl(g, g).data.item()) < 1e-9


def test_kl_known_values():
    # KL(N(0,1) || N(1,1)) = 0.5
    assert gaussian_kl(_gauss([0.0], [1.0]), _gauss([1.0], [1.0])).data.item() == \
        pytest.approx(0.5, abs=1e-12)
    # KL(N(0,4) || N(0,1)) = 0.5 * (4 - 1 - ln 4) = 1.5 - 0.5 ln 4
    assert gaussian_kl(_gauss([0.0], [4.0]), _gauss([0.0], [1.0])).data.item() == \
        pytest.approx(1.5 - 0.5 * math.log(4.0), abs=1e-12)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = _gauss(rng.uniform(-2, 2, 3), rng.uniform(0.1, 4, 3))
        b = _gauss(rng.uniform(-2, 2, 3), rng.uniform(0.1, 4, 3))
        assert gaussian_kl(a, b).data.item() >= -1e-12


def test_kl_matches_numpy_formula():
    rng = np.random.default_rng(2)
    mu_a, mu_b = rng.standard_normal((2, 5, 4))
    lv_a, lv_b = rng.uniform(-1, 1, (2, 5, 4))
    got = gaussian_kl(GaussianParams(Tensor(mu_a), Tensor(lv_a)),
                      GaussianParams(Tensor(mu_b), Tensor(lv_b))).data
    assert np.allclose(got, np_oracle.kl_np(mu_a, lv_a, mu_b, lv_b), atol=1e-12)


def test_kl_shape_mismatch():
    with pytest.raises(ShapeError):
        gaussian_kl(_gauss([0.0], [1.0]), _gauss([0.0, 0.0], [1.0, 1.0]))


def test_r1_hinge_contract():
    ku = Tensor(np.array([2.0, 0.1, 1.0]))
    kk = Tensor(np.array([1.0, 0.9, 1.0]))
    out = r1(ku, kk, gamma1=0.5).data
    # diffs are 1.0, -0.8, 0.0 with floor -0.5
    assert np.allclose(out, [1.0, -0.5, 0.0])
    with pytest.raises(ValueError):
        r1(ku, kk, gamma1=0.0)


def test_r2_hinge_contract():
    vu = Tensor(np.array([[2.0, 4.0], [1.0, 1.0]]))
    vk = Tensor(np.array([[1.0, 1.0], [4.0, 4.0]]))
    out = r2(vu, vk, gamma2=0.3).data
    # mean differences are 2.0 and -3.0 with floor -0.3
    assert np.allclose(out, [2.0, -0.3])
    with pytest.raises(ShapeError):
        r2(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))), gamma2=0.3)


def test_hinge_gradient_zero_when_clamped():
    diff = Tensor(np.array([-2.0]), requires_grad=True)
    backward(ad.reduce_sum(ad.hinge_floor(diff, -0.5)))
    assert np.allclose(diff.grad, 0.0)
    diff = Tensor(np.array([1.0]), requires_grad=True)
    backward(ad.reduce_sum(ad.hinge_floor(diff, -0.5)))
    assert np.allclose(diff.grad, 1.0)


def test_anneal_weight_ramp():
    assert anneal_weight(0, 100) == 0.0
    assert anneal_weight(50, 100) == 0.5
    assert anneal_weight(250, 100) == 1.0
    with pytest.raises(ValueError):
        anneal_weight(1, 0)


def _bow_inputs(seed=0, dtype=np.float64):
    cfg = toy_config()
    params = M.init_params(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    z = ad.constant(rng.standard_normal((2, cfg.z_dim)))
    h_q = ad.constant(rng.standard_normal((2, 2 * cfg.encoder_hidden)))
    e_u = ad.constant(rng.standard_normal((2, cfg.user_embed_dim)))
    return cfg, params, z, h_q, e_u


def test_bow_loss_is_order_invariant():
    cfg, params, z, h_q, e_u = _bow_inputs()
    r_idx = np.array([[5, 9, 7], [4, 6, 0]])
    r_len = np.array([3, 2])
    a = float(bow_loss(z, h_q, e_u, r_idx, r_len, params).data.sum())
    shuffled = np.array([[7, 5, 9], [6, 4, 0]])
    b = float(bow_loss(z, h_q, e_u, shuffled, r_len, params).data.sum())
    assert a == pytest.approx(b, abs=1e-9)


def test_bow_loss_uniform_with_zero_output_weights():
    cfg, params, z, h_q, e_u = _bow_inputs()
    params["bow_W2"].data[:] = 0.0
    params["bow_b2"].data[:] = 0.0
    r_idx = np.array([[5, 9, 7], [4, 6, 0]])
    r_len = np.array([3, 2])
    out = bow_loss(z, h_q, e_u, r_idx, r_len, params).data
    assert np.allclose(out, r_len * math.log(cfg.vocab_size), atol=1e-9)


def test_bow_loss_decreases_after_gradient_step():
    cfg, params, z, h_q, e_u = _bow_inputs(seed=3)
    r_idx = np.array([[5, 5, 5], [5, 5, 5]])
    r_len = np.array([3, 3])

    def value():
        return bow_loss(z, h_q, e_u, r_idx, r_len, params)

    before = float(value().data.sum())
    loss = ad.reduce_sum(value())
    for p in params.values():
        p.zero_grad()
    backward(loss)
    for name in ("bow_W1", "bow_b1", "bow_W2", "bow_b2"):
        params[name].data -= 0.05 * params[name].grad
    assert float(value().data.sum()) < before


def test_breakdown_check_finite():
    b = LossBreakdown(total=float("nan"))
    with pytest.raises(NumericError, match="total"):
        b.check_finite()


def test_variant_gating():
    batch = toy_batch(seed=20)
    noise = np.random.default_rng(21).standard_normal((3, 3)).astype(np.float32)

    cfg = toy_config(variant="S2SA")
    _, bd = total_loss(batch, M.init_params(cfg, seed=22), cfg)
    assert bd.kl_user == bd.bow == bd.r1 == bd.r2 == 0.0
    assert bd.total == pytest.approx(bd.reconstruction, abs=1e-5)

    cfg = toy_config(variant="VAE")
    _, bd = total_loss(batch, M.init_params(cfg, seed=22), cfg, noise=noise,
                       batch_index=5)
    assert bd.r1 == bd.r2 == 0.0
    assert bd.bow != 0.0 and bd.kl_user != 0.0


def test_total_combines_terms_with_annealed_kl():
    cfg = toy_config(variant="PAGENERATOR", anneal_batches=10)
    params = M.init_params(cfg, seed=23)
    batch = toy_batch(seed=24)
    noise = np.random.default_rng(25).standard_normal((3, cfg.z_dim)).astype(np.float32)
    _, bd = total_loss(batch, params, cfg, noise=noise, batch_index=5)
    assert bd.anneal_weight == 0.5
    expect = bd.reconstruction + 0.5 * bd.kl_user + bd.bow + bd.r1 + bd.r2
    assert bd.total == pytest.approx(expect, rel=1e-5)


def test_r1_gradient_pulls_user_prior_and_pushes_unk_prior():
    # when the hinge is active the gradient through kl_unk is the exact
    # negation of the same path through kl_user
    rng = np.random.default_rng(26)
    mu_q = Tensor(rng.standard_normal((2, 3)))
    lv_q = Tensor(rng.uniform(-0.5, 0.5, (2, 3)))
    mu_u = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    mu_k = Tensor(mu_u.data.copy(), requires_grad=True)
    lv_p = Tensor(rng.uniform(-0.5, 0.5, (2, 3)))
    q = GaussianParams(mu_q, lv_q)
    kl_user = gaussian_kl(q, GaussianParams(mu_u, lv_p))
    kl_unk = gaussian_kl(q, GaussianParams(mu_k, lv_p))
    backward(ad.reduce_sum(r1(kl_user, kl_unk, gamma1=100.0)))
    assert np.allclose(mu_u.grad, -mu_k.grad, atol=1e-12)


def test_total_loss_matches_straight_line_oracle():
    """Recombine reconstruction, KL, BOW, and the hinges with plain numpy."""
    cfg = toy_config(variant="PAGENERATOR", anneal_batches=10, gamma1=0.2, gamma2=0.2)
    params = M.init_params(cfg, seed=30, dtype=np.float64)
    batch = toy_batch(seed=31)
    user_idx, q_idx, q_len, r_idx, r_len = batch
    noise = np.random.default_rng(32).standard_normal((3, cfg.z_dim))
    loss, bd = total_loss(batch, params, cfg, noise=noise, batch_index=4)

    pd = {k: p.data for k, p in params.items()}
    enc_q = M.encode_batch(q_idx, q_len, params, cfg)
    enc_r = M.encode_batch(r_idx, r_len, params, cfg)
    h_q, h_r = enc_q.final.data, enc_r.final.data
    e_u = pd["user_emb"][user_idx]
    e_unk = pd["user_emb"][np.full(3, UNSPECIFIED_USER)]

    post = np.concatenate([h_q, h_r], axis=1) @ pd["post_W"] + pd["post_b"]
    mu_q_, lv_q_ = post[:, :cfg.z_dim], post[:, cfg.z_dim:]
    pri_u = np.concatenate([h_q, e_u], axis=1) @ pd["prior_W"] + pd["prior_b"]
    pri_k = np.concatenate([h_q, e_unk], axis=1) @ pd["prior_W"] + pd["prior_b"]
    mu_u_, lv_u_ = pri_u[:, :cfg.z_dim], pri_u[:, cfg.z_dim:]
    mu_k_, lv_k_ = pri_k[:, :cfg.z_dim], pri_k[:, cfg.z_dim:]
    z = mu_q_ + np.exp(0.5 * lv_q_) * noise

    kl_user = np_oracle.kl_np(mu_q_, lv_q_, mu_u_, lv_u_)
    kl_unk = np_oracle.kl_np(mu_q_, lv_q_, mu_k_, lv_k_)
    r1_v = np.maximum(kl_user - kl_unk, -cfg.gamma1)
    r2_v = np.maximum(np.exp(lv_u_).mean(axis=1) - np.exp(lv_k_).mean(axis=1),
                      -cfg.gamma2)

    h0 = np.tanh(h_q @ pd["dec_init_W"] + pd["dec_init_b"])
    c0 = np.zeros((3, cfg.decoder_hidden))
    recon = -np_oracle.decoder_logprob_np(pd, cfg, h0, c0, z, e_u, r_idx, r_len)
    bow = -np_oracle.bow_logprob_np(pd, z, h_q, e_u, r_idx, r_len)

    w = min(1.0, 4 / cfg.anneal_batches)
    expect = (recon + w * kl_user + bow + r1_v + r2_v).mean()
    assert float(loss.data) == pytest.approx(expect, abs=1e-9)
    assert bd.reconstruction == pytest.approx(recon.mean(), abs=1e-9)
    assert bd.kl_user == pytest.approx(kl_user.mean(), abs=1e-9)
    assert bd.bow == pytest.approx(bow.mean(), abs=1e-9)


@pytest.mark.parametrize("use_attention", [False, True])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_total_loss_gradients_match_finite_differences(variant, use_attention):
    cfg = toy_config(variant=variant, use_attention=use_attention)
    params = M.init_params(cfg, seed=21, dtype=np.float64)
    # At the +-0.08 init many coordinates barely move the loss, and central
    # differences of such a coordinate lose most digits to round-off.
    for p in params.values():
        p.data *= 5.0
    batch = toy_batch(seed=22)
    noise = np.random.default_rng(23).standard_normal((3, cfg.z_dim))

    def loss_fn():
        return total_loss(batch, params, cfg, noise=noise, batch_index=7)[0]

    errors = grad_check(loss_fn, params, h=1e-4, max_coords=6, rng=np.random.default_rng(24))
    assert all(err < 1e-4 for err in errors.values()), errors


def _graph_nodes(root):
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


@pytest.mark.parametrize("use_attention", [False, True])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_training_batch_builds_no_unreachable_node(variant, use_attention, monkeypatch):
    """Every graph node a training batch builds reaches the loss, the
    encoder's per-step states included, at batch 0 (KL weight 0) and
    batch 1 alike."""
    cfg = toy_config(variant=variant, use_attention=use_attention)
    made, result = [], ad._result

    def spy_result(data, parents, backward_fn):
        out = result(data, parents, backward_fn)
        if out.requires_grad:
            made.append(out)
        return out

    monkeypatch.setattr(ad, "_result", spy_result)
    for batch_index in (0, 1):
        made.clear()
        loss, _ = total_loss(toy_batch(seed=4), M.init_params(cfg), cfg,
                             noise=np.zeros((3, cfg.z_dim)), batch_index=batch_index)
        reached, todo = set(), [loss]
        while todo:
            node = todo.pop()
            if id(node) not in reached:
                reached.add(id(node))
                todo.extend(node._parents)
        dead = [t for t in made if id(t) not in reached]
        assert not dead, (batch_index, [t.data.shape for t in dead])


@pytest.mark.parametrize("variant,lookups", [("SPEAKER", 1), ("VAE", 1), ("CVAE", 1),
                                             ("PAGENERATOR", 2)])
def test_training_batch_looks_up_the_user_embedding_once(variant, lookups, monkeypatch):
    """One lookup of the batch's users feeds the prior, the BOW net and the
    decoder; only PAGENERATOR's unspecified-user prior makes a second."""
    cfg = toy_config(variant=variant)
    params = M.init_params(cfg)
    calls, embedding = [], ad.embedding

    def spy_embedding(table, idx):
        calls.append(table is params["user_emb"])
        return embedding(table, idx)

    monkeypatch.setattr(ad, "embedding", spy_embedding)
    total_loss(toy_batch(seed=4), params, cfg, noise=np.zeros((3, cfg.z_dim)), batch_index=1)
    assert sum(calls) == lookups


@pytest.mark.parametrize("variant", M.LATENT_VARIANTS)
def test_draw_z_equals_the_per_draw_oracle(variant):
    """_draw_z over draws that mix "mean" and "sample" gives, draw by draw,
    the bits of np_oracle.draw_z for that query, user, mode and seed."""
    cfg = toy_config(variant=variant)
    params = M.init_params(cfg, seed=5)
    users, q_idx, q_len, _, _ = toy_batch(seed=6)
    draws = [(0, "sample", 3), (1, "mean", 3), (0, "mean", 9), (2, "sample", 9),
             (1, "sample", 3), (2, "mean", 0)]
    with ad.no_grad():
        enc = M.encode_batch(q_idx, q_len, params, cfg)
        e_u = M.user_embedding(M.prior_user_index(users, cfg), params, cfg)
        got = G._draw_z(enc.final, e_u, params, cfg, draws)
        for j, (row, mode, seed) in enumerate(draws):
            one = M.encode_batch(q_idx[row:row + 1], q_len[row:row + 1], params, cfg)
            want = np_oracle.draw_z(one.final, users[row], params, cfg, mode, seed)
            assert got[j].tobytes() == want.tobytes(), (j, got[j], want)


@pytest.mark.parametrize("use_attention", [False, True])
def test_graph_size_does_not_grow_with_sequence_length(use_attention):
    cfg = toy_config("PAGENERATOR", use_attention=use_attention)
    params = M.init_params(cfg)
    sizes = []
    for T in (3, 12):
        batch = toy_batch(seed=4, q_max=T, r_max=T)
        assert batch[1].shape[1] == batch[3].shape[1] == T
        loss, _ = total_loss(batch, params, cfg, noise=np.zeros((3, cfg.z_dim)),
                             batch_index=1)
        sizes.append(_graph_nodes(loss))
    assert sizes[0] == sizes[1]
