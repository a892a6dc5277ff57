"""Response generation: prior z sampling at inference time, greedy
decoding as beam width 1, and beam search with a single z per request."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as M
from .autodiff import ContractError, no_grad
from .corpus import BOS, EOS, UNSPECIFIED_USER


@dataclass
class Hypothesis:
    tokens: list = field(default_factory=list)
    log_prob: float = 0.0

    def normalized(self):
        return self.log_prob / max(1, len(self.tokens) + 1)  # +1 counts EOS


@dataclass
class GenRequest:
    query: list                  # token indices
    user_index: int = UNSPECIFIED_USER
    beam_width: int = 10
    max_length: int = 30
    z_mode: str = "sample"       # "sample" | "mean"
    seed: int = 0

    def __post_init__(self):
        if self.beam_width < 1:
            raise ContractError("beam width must be >= 1")
        if self.z_mode not in ("sample", "mean"):
            raise ContractError(f"unknown z mode {self.z_mode!r}")


def _draw_z(enc_final, user_index, params, config, z_mode, seed):
    """One z per request from the prior p(z | q, u); None if not latent."""
    if not config.is_latent:
        return None
    prior_idx = M.prior_user_index(np.array([user_index]), config)
    e_u = M.user_embedding(prior_idx, params, config)
    prior = M.prior_net(enc_final, e_u, params, config)
    mu = prior.mu.data[0]
    if z_mode == "mean":
        return mu.copy()
    std = np.exp(0.5 * prior.log_var.data[0])
    eps = np.random.default_rng(seed).standard_normal(config.z_dim).astype(mu.dtype)
    return mu + std * eps


def _rows(enc, z_vec, user_index, k, params, config):
    """The k decoder rows of one request: (encoder output tiled k times,
    z, the decoder's user embedding, user indices)."""
    enc_k = M.EncoderOutput(final=ad.constant(np.repeat(enc.final.data, k, axis=0)),
                            states=ad.constant(np.repeat(enc.states.data, k, axis=1)),
                            mask=np.repeat(enc.mask, k, axis=0))
    z = ad.constant(np.repeat(z_vec[None, :], k, axis=0)) if z_vec is not None else None
    u_idx = np.full(k, user_index, dtype=np.int64)
    e_u = M.user_embedding(u_idx, params, config) if config.decoder_uses_user else None
    return enc_k, z, e_u, u_idx


def generate(request, params, config):
    """Beam search; returns hypotheses sorted by length-normalized score."""
    if not request.query:
        raise ContractError("empty query")
    width = request.beam_width
    with no_grad():
        enc = M.encode_batch(*M.pad_batch([request.query]), params, config)
        z_vec = _draw_z(enc.final, request.user_index, params, config,
                        request.z_mode, request.seed)
        h, c = (s.data for s in M.decoder_init_state(enc.final, params, config, 1))
        # live beams: one row of BOS + tokens each, and its summed log-prob
        tokens, scores = np.full((1, 1), BOS), np.zeros(1, dtype=h.dtype)
        finished = []
        for step in range(request.max_length):
            enc_k, z, e_u, u_idx = _rows(enc, z_vec, request.user_index, len(tokens),
                                         params, config)
            logp, (h_new, c_new) = M.decode_step(tokens[:, -1], (ad.constant(h), ad.constant(c)),
                                                 z, e_u, enc_k, params, config, user_idx=u_idx)
            logp = logp.data
            logp[:, [0, 1, 2]] = -np.inf  # never emit PAD/UNK/BOS
            if step == 0:
                logp[:, EOS] = -np.inf  # no empty replies
            total = scores[:, None] + logp
            # top-W (beam, token) pairs by score; the stable sort over the
            # row-major flattening breaks ties by beam, then by token
            order = np.argsort(-total, axis=None, kind="stable")[:width]
            beam, tok = np.divmod(order, total.shape[1])
            # EOS retires a hypothesis, the rest carry on
            eos = tok == EOS
            finished += [Hypothesis(tokens[i, 1:].tolist(), total[i, EOS]) for i in beam[eos]]
            keep, tok = beam[~eos], tok[~eos]
            tokens = np.concatenate([tokens[keep], tok[:, None]], axis=1)
            scores, h, c = total[keep, tok], h_new.data[keep], c_new.data[keep]
            if not len(keep) or len(finished) >= width:
                break
        finished += [Hypothesis(t[1:].tolist(), s) for t, s in zip(tokens, scores)]  # max length
        finished.sort(key=lambda hyp: -hyp.normalized())
        return finished[:width]


def score_responses(query, replies, user_index, params, config, seed=0):
    """Teacher-forced log-probability of each reply given (q, u) and one
    shared z drawn from the prior with the request seed.  Raw sums, no
    length normalization (the ranking metric depends on raw scores)."""
    if not replies or any(not r for r in replies):
        raise ContractError("replies must be nonempty")
    n = len(replies)
    with no_grad():
        enc = M.encode_batch(*M.pad_batch([query]), params, config)
        z_vec = _draw_z(enc.final, user_index, params, config, "sample", seed)
        enc_n, z, e_u, u_idx = _rows(enc, z_vec, user_index, n, params, config)
        state = M.decoder_init_state(enc_n.final, params, config, n)
        r_idx, r_len = M.pad_batch(replies)
        lp = M.teacher_forced_log_probs(r_idx, r_len, state, z, e_u, enc_n, params,
                                        config, user_idx=u_idx)
        return lp.data.astype(np.float64)
