"""Loss terms: reconstruction, closed-form Gaussian KL, bag-of-words loss,
the two hinge regularizers, KL annealing, and the combined objective.

Sign convention: the minimized loss is the negated lower bound, so the
two regularizers (subtracted from the maximized objective) are added here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import model as M
from .autodiff import ShapeError
from .corpus import UNSPECIFIED_USER


class NumericError(RuntimeError):
    """A loss term went non-finite."""


@dataclass
class LossBreakdown:
    reconstruction: float = 0.0
    kl_user: float = 0.0
    kl_unk: float = 0.0
    bow: float = 0.0
    r1: float = 0.0
    r2: float = 0.0
    anneal_weight: float = 1.0
    total: float = 0.0

    def check_finite(self):
        for name in self.FIELDS:
            if not np.isfinite(getattr(self, name)):
                raise NumericError(f"non-finite loss term: {name}")


# the field order is the history.csv column order
LossBreakdown.FIELDS = tuple(f.name for f in fields(LossBreakdown))


def gaussian_kl(a, b):
    """KL(N(mu_a, var_a) || N(mu_b, var_b)) for diagonal Gaussians.

    Inputs are GaussianParams whose mu/log_var are (B, d) or (d,) tensors;
    returns the per-example KL, reduced over the dimension axis.
    """
    if a.mu.shape != b.mu.shape:
        raise ShapeError(f"gaussian_kl: {a.mu.shape} vs {b.mu.shape}")
    var_a = ad.exp(a.log_var)
    diff = ad.sub(a.mu, b.mu)
    # log var_b - log var_a + (var_a + diff^2) / var_b - 1
    ratio = ad.mul(ad.add(var_a, ad.mul(diff, diff)), ad.exp(ad.scale(b.log_var, -1.0)))
    term = ad.add_const(ad.add(ad.sub(b.log_var, a.log_var), ratio), -1.0)
    return ad.scale(ad.reduce_sum(term, axis=term.data.ndim - 1), 0.5)


def bow_loss(z, h_q, e_u, reply_idx, reply_lengths, params):
    """Negative log-likelihood of the reply's bag of words (duplicates
    counted, position-independent) under an MLP on [z; h_q; e_u]."""
    hid = ad.tanh(ad.matmul(ad.concat([z, h_q, e_u], axis=1), params["bow_W1"],
                            params["bow_b1"]))
    logp = ad.log_softmax(ad.matmul(hid, params["bow_W2"], params["bow_b2"]))
    mask = np.arange(reply_idx.shape[1]) < reply_lengths[:, None]
    tokens = ad.mul(ad.pick(logp, reply_idx), ad.constant(mask.astype(logp.dtype)))
    return ad.scale(ad.reduce_sum(tokens, axis=1), -1.0)


def r1(kl_user, kl_unk, gamma1):
    """max(-gamma1, KL(q||p_user) - KL(q||p_unk)); subgradient 0 at the kink."""
    if gamma1 <= 0:
        raise ValueError("gamma1 must be > 0")
    return ad.hinge_floor(ad.sub(kl_user, kl_unk), -gamma1)


def r2(var_user, var_unk, gamma2):
    """max(-gamma2, mean_i var_user_i - mean_i var_unk_i).

    The written form treats the variance as scalar; with a vector z we
    reduce by mean over dimensions, which keeps gamma2 scale-free in z_dim.
    """
    if gamma2 <= 0:
        raise ValueError("gamma2 must be > 0")
    if var_user.shape != var_unk.shape:
        raise ShapeError(f"r2: {var_user.shape} vs {var_unk.shape}")
    ax = var_user.data.ndim - 1
    diff = ad.sub(ad.reduce_mean(var_user, axis=ax), ad.reduce_mean(var_unk, axis=ax))
    return ad.hinge_floor(diff, -gamma2)


def anneal_weight(batch_index, anneal_batches):
    """Linear KL ramp: min(1, batch_index / anneal_batches)."""
    if anneal_batches <= 0:
        raise ValueError("anneal_batches must be > 0")
    return min(1.0, batch_index / anneal_batches)


def total_loss(batch, params, config, noise=None, batch_index=0):
    """Full forward pass and combined loss for one padded batch.

    batch: (user_idx, q_idx, q_len, r_idx, r_len) numpy arrays.
    Returns (loss tensor for backward, LossBreakdown of batch means).
    Active terms per variant: S2SA/SPEAKER/FACT_BIAS reconstruction only;
    VAE/CVAE add annealed KL and BOW; PAGENERATOR adds the regularizers.
    The annealing weight applies to kl_user only.
    """
    user_idx, q_idx, q_len, r_idx, r_len = batch
    B = len(user_idx)
    enc_q = M.encode_batch(q_idx, q_len, params, config)
    state = M.decoder_init_state(enc_q.final, params, config)

    w = anneal_weight(batch_index, config.anneal_batches) if config.is_latent else 0.0
    z = None
    # one lookup feeds the prior, the BOW net and the decoder (decoder_lstm
    # reads it only if config.decoder_uses_user, so never VAE's unspecified row)
    e_u = M.user_embedding(M.prior_user_index(user_idx, config), params, config)
    terms = {}  # per-example (B,) tensors, keyed by LossBreakdown field

    if config.is_latent:
        enc_r = M.encode_batch(r_idx, r_len, params, config)
        posterior = M.posterior_net(enc_q.final, enc_r.final, params, config)
        prior_user = M.prior_net(enc_q.final, e_u, params, config)
        if noise is None:
            noise = np.zeros((B, config.z_dim))  # sample_z casts to the model dtype
        z = M.sample_z(posterior, noise)
        terms["kl_user"] = gaussian_kl(posterior, prior_user)
        terms["bow"] = bow_loss(z, enc_q.final, e_u, r_idx, r_len, params)
        if config.variant == "PAGENERATOR" and (config.use_r1 or config.use_r2):
            unk_idx = np.full(B, UNSPECIFIED_USER, dtype=np.int64)
            prior_unk = M.prior_net(enc_q.final, M.user_embedding(unk_idx, params, config),
                                    params, config)
            terms["kl_unk"] = gaussian_kl(posterior, prior_unk)
            if config.use_r1:
                terms["r1"] = r1(terms["kl_user"], terms["kl_unk"], config.gamma1)
            if config.use_r2:
                terms["r2"] = r2(ad.exp(prior_user.log_var), ad.exp(prior_unk.log_var),
                                 config.gamma2)

    log_probs = M.teacher_forced_log_probs(r_idx, r_len, state, z, e_u, enc_q,
                                           params, config, user_idx=user_idx)
    terms["reconstruction"] = ad.scale(log_probs, -1.0)

    # the loss sums every term but kl_unk, kl_user at the annealing weight
    summed = [ad.scale(terms[name], w) if name == "kl_user" else terms[name]
              for name in LossBreakdown.FIELDS if name in terms and name != "kl_unk"]
    loss = ad.reduce_mean(reduce(ad.add, summed))
    breakdown = LossBreakdown(anneal_weight=w, total=float(loss.data),
                              **{name: float(t.data.mean()) for name, t in terms.items()})
    breakdown.check_finite()
    return loss, breakdown
