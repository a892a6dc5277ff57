"""Layer probes: each layer run alone on random inputs at a workload's
shapes, forward and backward timed separately.

Together the probes give the layer table of the ROADMAP baseline: encoder,
decoder step with and without attention, output projection + log-softmax,
BOW loss, KL and the R1/R2 hinges, clip + Adam, and one beam-search step.
Backward starts from the scalar sum of the layer's output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import median
from time import perf_counter

import numpy as np

from pagen import autodiff as ad
from pagen import model as M
from pagen import objective as O
from pagen import trainer as T
from pagen.corpus import BOS


MIN_REPS = 3
MIN_SECONDS = 0.2


@dataclass(frozen=True)
class Spec:
    config: M.ModelConfig    # a latent variant, so every probed layer exists
    batch: int
    q_len: int
    r_len: int
    beam: int


def _median_of(step):
    """Median of step() over at least MIN_REPS calls and MIN_SECONDS."""
    times, start = [], perf_counter()
    while len(times) < MIN_REPS or perf_counter() - start < MIN_SECONDS:
        times.append(step())
    return median(times)


def _fwd_bwd(params, build):
    """(forward ms, backward ms) of build() -> scalar tensor."""
    fwd, bwd = [], []

    def step():
        for p in params.values():
            p.zero_grad()
        t0 = perf_counter()
        out = build()
        t1 = perf_counter()
        ad.backward(out)
        t2 = perf_counter()
        fwd.append((t1 - t0) * 1e3)
        bwd.append((t2 - t1) * 1e3)
        return 0.0

    _median_of(step)
    return median(fwd), median(bwd)


def _leaf(rng, shape, scale=1.0):
    return ad.Tensor(rng.normal(0.0, scale, shape).astype(np.float32), requires_grad=True)


def run(spec, seed):
    cfg = replace(spec.config, use_attention=False)
    cfg_att = replace(spec.config, use_attention=True)
    params = M.init_params(cfg_att, seed=seed)
    rng = np.random.default_rng(seed)
    B, V, zd = spec.batch, cfg.vocab_size, cfg.z_dim
    users = rng.integers(1, cfg.num_users, B)
    q_len = rng.integers(1, spec.q_len + 1, B)
    r_len = rng.integers(1, spec.r_len + 1, B)
    q_len[0], r_len[0] = spec.q_len, spec.r_len
    q_idx = np.where(np.arange(spec.q_len) < q_len[:, None],
                     rng.integers(4, V, (B, spec.q_len)), 0)
    r_idx = np.where(np.arange(spec.r_len) < r_len[:, None],
                     rng.integers(4, V, (B, spec.r_len)), 0)
    with ad.no_grad():
        enc = M.encode_batch(q_idx, q_len, params, cfg)
    h_q = ad.constant(enc.final.data)
    z = ad.constant(rng.normal(size=(B, zd)).astype(np.float32))
    e_u = ad.constant(params["user_emb"].data[users])
    state = (ad.constant(rng.normal(0, 0.1, (B, cfg.decoder_hidden)).astype(np.float32)),
             ad.constant(np.zeros((B, cfg.decoder_hidden), np.float32)))
    prev = np.full(B, BOS)
    out = {}

    def put(name, pair):
        out[f"{name}.fwd_ms"], out[f"{name}.bwd_ms"] = pair

    put("model.encode_batch", _fwd_bwd(params, lambda: ad.reduce_sum(
        M.encode_batch(q_idx, q_len, params, cfg).final)))
    put("model.decode_logits", _fwd_bwd(params, lambda: ad.reduce_sum(
        M.decode_logits(prev, state, z, e_u, enc, params, cfg)[0])))
    att = _fwd_bwd(params, lambda: ad.reduce_sum(
        M.decode_logits(prev, state, z, e_u, enc, params, cfg_att)[0]))
    out["model.decode_logits.att_fwd_ms"], out["model.decode_logits.att_bwd_ms"] = att
    targets = r_idx[:, 0]
    put("model.out_proj_log_softmax", _fwd_bwd(params, lambda: ad.reduce_sum(ad.pick(
        ad.log_softmax(ad.add(ad.matmul(state[0], params["out_W"]), params["out_b"])),
        targets))))
    put("model.teacher_forced_log_probs", _fwd_bwd(params, lambda: ad.reduce_sum(
        M.teacher_forced_log_probs(r_idx, r_len, state, z, e_u, enc, params, cfg,
                                   user_idx=users))))
    put("objective.bow_loss", _fwd_bwd(params, lambda: ad.reduce_sum(
        O.bow_loss(z, h_q, e_u, r_idx, r_len, params))))
    ga = M.GaussianParams(_leaf(rng, (B, zd)), _leaf(rng, (B, zd), 0.5))
    gb = M.GaussianParams(_leaf(rng, (B, zd)), _leaf(rng, (B, zd), 0.5))
    leaves = {"a": ga.mu, "b": ga.log_var, "c": gb.mu, "d": gb.log_var}
    put("objective.gaussian_kl", _fwd_bwd(leaves, lambda: ad.reduce_sum(O.gaussian_kl(ga, gb))))
    k1, k2 = _leaf(rng, (B,)), _leaf(rng, (B,))
    put("objective.r1", _fwd_bwd({"a": k1, "b": k2}, lambda: ad.reduce_sum(
        O.r1(k1, k2, cfg.gamma1))))
    v1, v2 = _leaf(rng, (B, zd)), _leaf(rng, (B, zd))
    put("objective.r2", _fwd_bwd({"a": v1, "b": v2}, lambda: ad.reduce_sum(
        O.r2(v1, v2, cfg.gamma2))))
    batch = (users, q_idx, q_len, r_idx, r_len)
    noise = rng.standard_normal((B, zd)).astype(np.float32)
    put("objective.total_loss", _fwd_bwd(params, lambda: O.total_loss(
        batch, params, cfg, noise=noise, batch_index=1)[0]))

    # the gradients of the last total_loss backward feed clip + Adam
    grads = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
    adam = T.AdamState()

    def timed(fn):
        def step():
            for k, g in grads.items():
                params[k].grad = g.copy()
            t0 = perf_counter()
            fn()
            return (perf_counter() - t0) * 1e3
        return _median_of(step)

    out["trainer.clip_gradients.probe_ms"] = timed(lambda: T.clip_gradients(params, 5.0))
    out["trainer.adam_step.probe_ms"] = timed(lambda: T.adam_step(params, adam))

    k = spec.beam
    with ad.no_grad():
        enc_k = M.encode_batch(np.repeat(q_idx[:1], k, axis=0), np.repeat(q_len[:1], k),
                               params, cfg)
    beam_state = (ad.constant(state[0].data[:1].repeat(k, 0)),
                  ad.constant(state[1].data[:1].repeat(k, 0)))
    z_k = ad.constant(z.data[:1].repeat(k, 0))
    e_k = ad.constant(e_u.data[:1].repeat(k, 0))
    prev_k = rng.integers(4, V, k)

    def beam_step():
        t0 = perf_counter()
        with ad.no_grad():
            M.decode_step(prev_k, beam_state, z_k, e_k, enc_k, params, cfg)
        return (perf_counter() - t0) * 1e3

    out["model.decode_step.beam_fwd_ms"] = _median_of(beam_step)
    return out
