"""Plain-numpy forward reimplementations used as independent oracles.

Nothing here touches the autodiff graph; every function works on raw
arrays pulled out of the parameter tensors, so agreement with the library
is evidence rather than tautology.  The metric oracles recount in plain
Python.  The exceptions are at the end: the single-request beam search
and scoring that the batched ones replaced, kept on the model's layers as
bitwise references, and the synthetic corpus drawn by Generator.choice,
as generate_synthetic did before it built each user's CDF once.
"""

import math
from collections import Counter

import numpy as np

from pagen import autodiff as ad
from pagen import model as M
from pagen.corpus import DialogueTriple
from pagen.generation import Hypothesis

BOS, EOS = 2, 3


def sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_step_np(x, h, c, W, b, hidden):
    z = np.concatenate([x, h], axis=1) @ W + b
    i = sigmoid_np(z[:, :hidden])
    f = sigmoid_np(z[:, hidden:2 * hidden])
    o = sigmoid_np(z[:, 2 * hidden:3 * hidden])
    g = np.tanh(z[:, 3 * hidden:])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def log_softmax_np(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def kl_np(mu_a, lv_a, mu_b, lv_b):
    """Diagonal-Gaussian KL, reduced over the last axis."""
    term = lv_b - lv_a + (np.exp(lv_a) + (mu_a - mu_b) ** 2) / np.exp(lv_b) - 1.0
    return 0.5 * term.sum(axis=-1)


def encoder_np(pd, config, idx, lengths):
    """Masked bi-directional LSTM encoder.

    Returns (final (B, 2H), states (B, T, 2H), mask (B, T)); a padded step
    carries the previous state forward in both directions.
    """
    B, T = idx.shape
    H = config.encoder_hidden
    dtype = pd["word_emb"].dtype
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(dtype)
    emb = pd["word_emb"][idx]

    def run(W, b, steps):
        h = c = np.zeros((B, H), dtype=dtype)
        states = np.zeros((B, T, H), dtype=dtype)
        for t in steps:
            h_new, c_new = lstm_step_np(emb[:, t], h, c, W, b, H)
            m = mask[:, t:t + 1]
            h, c = m * h_new + (1 - m) * h, m * c_new + (1 - m) * c
            states[:, t] = h
        return h, states

    h_f, s_f = run(pd["enc_fwd_W"], pd["enc_fwd_b"], range(T))
    h_b, s_b = run(pd["enc_bwd_W"], pd["enc_bwd_b"], reversed(range(T)))
    return (np.concatenate([h_f, h_b], axis=1), np.concatenate([s_f, s_b], axis=2),
            mask)


def attention_np(pd, h, states, mask):
    """Luong general attention: tanh(W_c [h; sum_t a_t s_t] + b_c) with
    a = softmax_t(s_t . (h @ W_a)) over the valid encoder steps."""
    scores = np.einsum("btd,bd->bt", states, h @ pd["att_W"])
    weights = np.exp(log_softmax_np(np.where(mask > 0, scores, -np.inf)))
    ctx = np.einsum("bt,btd->bd", weights, states)
    return np.tanh(np.concatenate([h, ctx], axis=1) @ pd["att_comb_W"] + pd["att_comb_b"])


def decoder_logprob_np(pd, config, h0, c0, z, e_u, reply_idx, reply_lengths,
                       enc_states=None, enc_mask=None, user_idx=None):
    """Teacher-forced log p(reply + EOS | ...) computed step by step.

    pd: name -> numpy array of parameter values.  h0/c0: initial decoder
    state arrays.  z / e_u may be None depending on the variant.  With
    config.use_attention, enc_states (B, T, 2H) and enc_mask (B, T) come
    from encoder_np.  FACT_BIAS needs user_idx (B,): its logits are
    h @ W + b + f_u @ P as two separate products, with f_u the user's
    fact_factors row and P the first fact_rank rows of out_W, W the rest.
    """
    B, Tr = reply_idx.shape
    Hd = config.decoder_hidden
    h, c = h0.copy(), c0.copy()
    prev = np.full(B, BOS, dtype=np.int64)
    total = np.zeros(B, dtype=h0.dtype)
    for t in range(Tr + 1):
        parts = [pd["word_emb"][prev]]
        if z is not None:
            parts.append(z)
        if e_u is not None:
            parts.append(e_u)
        x = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
        h, c = lstm_step_np(x, h, c, pd["dec_W"], pd["dec_b"], Hd)
        out = attention_np(pd, h, enc_states, enc_mask) if config.use_attention else h
        if config.variant == "FACT_BIAS":
            r = config.fact_rank
            logits = (out @ pd["out_W"][r:] + pd["out_b"]
                      + pd["fact_factors"][user_idx] @ pd["out_W"][:r])
        else:
            logits = out @ pd["out_W"] + pd["out_b"]
        logp = log_softmax_np(logits)
        if t < Tr:
            target = np.where(t < reply_lengths, reply_idx[:, t], EOS).astype(np.int64)
        else:
            target = np.full(B, EOS, dtype=np.int64)
        mask = (t <= reply_lengths).astype(h.dtype)
        total += logp[np.arange(B), target] * mask
        prev = target
    return total


def bow_logprob_np(pd, z, h_q, e_u, reply_idx, reply_lengths):
    """Bag-of-words log-likelihood term computed with a manual MLP."""
    hid = np.tanh(np.concatenate([z, h_q, e_u], axis=1) @ pd["bow_W1"] + pd["bow_b1"])
    logp = log_softmax_np(hid @ pd["bow_W2"] + pd["bow_b2"])
    B, Tr = reply_idx.shape
    total = np.zeros(B, dtype=z.dtype)
    for t in range(Tr):
        mask = (t < reply_lengths).astype(z.dtype)
        total += logp[np.arange(B), reply_idx[:, t]] * mask
    return total


def clip_gradients_np(grads, max_norm):
    """Per-tensor global-norm clipping, the form the flat one replaced:
    name -> gradient array (or None, skipped), scaled in place; returns the
    pre-clip norm."""
    total = 0.0
    for g in grads.values():
        if g is not None:
            total += float((g.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if max_norm and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            if g is not None:
                g *= scale
    return norm


def adam_step_np(data, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-parameter bias-corrected Adam at step t, the form the flat one
    replaced.  data: name -> array, updated in place; a name whose gradient
    is None is skipped, and its moments (name -> array in m and v) start at
    zero with its first gradient."""
    for name in sorted(data):
        g = grads.get(name)
        if g is None:
            continue
        if name not in m:
            m[name] = np.zeros_like(data[name])
            v[name] = np.zeros_like(data[name])
        m[name] = beta1 * m[name] + (1 - beta1) * g
        v[name] = beta2 * v[name] + (1 - beta2) * g * g
        m_hat = m[name] / (1 - beta1 ** t)
        v_hat = v[name] / (1 - beta2 ** t)
        data[name] -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(data[name].dtype)


# ---------------------------------------------------------------------------
# brute-force metric oracles, sharing no code with pagen.metrics

def bigram_perplexity_oracle(background, user_sents, lam, tokens):
    """Recount everything from scratch and evaluate the interpolated
    bigram probability transition by transition."""
    vocab = {"</s>", "<oov>"}
    for s in background:
        vocab.update(s)
    v = len(vocab)

    def norm(t):
        return t if (t in vocab or t == "<s>") else "<oov>"

    def counts(sents):
        bi, uni = Counter(), Counter()
        for s in sents:
            seq = ["<s>"] + [norm(t) for t in s] + ["</s>"]
            for i in range(len(seq) - 1):
                bi[(seq[i], seq[i + 1])] += 1
                uni[seq[i]] += 1
        return bi, uni

    bg_bi, bg_uni = counts(background)
    u_bi, u_uni = counts(user_sents)
    seq = ["<s>"] + [norm(t) for t in tokens] + ["</s>"]
    total = 0.0
    for i in range(len(seq) - 1):
        a, b = seq[i], seq[i + 1]
        p_bg = (bg_bi[(a, b)] + 1) / (bg_uni[a] + v)
        if u_uni[a] > 0:
            p_u = u_bi[(a, b)] / u_uni[a]
        else:
            p_u = p_bg
        total += math.log(lam * p_u + (1 - lam) * p_bg)
    return math.exp(-total / (len(seq) - 1))


def urank_oracle(m_scores, s_scores):
    """Indicator from explicit pairwise comparisons."""
    rank_m = 0
    for s in m_scores[1:]:
        if s > m_scores[0]:
            rank_m += 1
    rank_s = 0
    for s in s_scores[1:]:
        if s > s_scores[0]:
            rank_s += 1
    return 1 if rank_m < rank_s else 0


def embedding_metrics_oracle(candidate, reference, vectors):
    cv = [vectors[t] for t in candidate if t in vectors]
    rv = [vectors[t] for t in reference if t in vectors]
    if not cv or not rv:
        return None

    def cos(a, b):
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(x * x for x in b))
        if na == 0 or nb == 0:
            return 0.0
        return sum(x * y for x, y in zip(a, b)) / (na * nb)

    def mean_vec(vs):
        return [sum(v[i] for v in vs) / len(vs) for i in range(len(vs[0]))]

    average = cos(mean_vec(cv), mean_vec(rv))

    def extrema(vs):
        out = []
        for i in range(len(vs[0])):
            best = vs[0][i]
            for v in vs[1:]:
                if abs(v[i]) > abs(best):
                    best = v[i]
            out.append(best)
        return out

    ext = cos(extrema(cv), extrema(rv))

    def directed(a, b):
        return sum(max(cos(x, y) for y in b) for x in a) / len(a)

    greedy = 0.5 * (directed(cv, rv) + directed(rv, cv))
    return average, ext, greedy


# ---------------------------------------------------------------------------
# the single-request beam search and scoring that the batched ones replaced

def draw_z(enc_final, user_index, params, config, z_mode, seed):
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
    enc_k = M.EncoderOutput(final=ad.constant(np.repeat(enc.final.data, k, axis=0)),
                            states=ad.constant(np.repeat(enc.states.data, k, axis=1)),
                            mask=np.repeat(enc.mask, k, axis=0))
    z = ad.constant(np.repeat(z_vec[None, :], k, axis=0)) if z_vec is not None else None
    u_idx = np.full(k, user_index, dtype=np.int64)
    e_u = M.user_embedding(u_idx, params, config) if config.decoder_uses_user else None
    return enc_k, z, e_u, u_idx


def generate_one(request, params, config):
    """Beam search for one request on a one-request decoder batch."""
    width = request.beam_width
    with ad.no_grad():
        enc = M.encode_batch(*M.pad_batch([request.query]), params, config)
        z_vec = draw_z(enc.final, request.user_index, params, config,
                       request.z_mode, request.seed)
        h, c = (s.data for s in M.decoder_init_state(enc.final, params, config))
        tokens, scores = np.full((1, 1), BOS), np.zeros(1, dtype=h.dtype)
        finished = []
        for step in range(request.max_length):
            enc_k, z, e_u, u_idx = _rows(enc, z_vec, request.user_index, len(tokens),
                                         params, config)
            logp, (h_new, c_new) = M.decode_step(tokens[:, -1], (ad.constant(h), ad.constant(c)),
                                                 z, e_u, enc_k, params, config, user_idx=u_idx)
            logp = logp.data
            logp[:, [0, 1, 2]] = -np.inf
            if step == 0:
                logp[:, EOS] = -np.inf
            total = scores[:, None] + logp
            order = np.argsort(-total, axis=None, kind="stable")[:width]
            order = order[total.ravel()[order] > -np.inf]  # never a -inf candidate
            beam, tok = np.divmod(order, total.shape[1])
            eos = tok == EOS
            finished += [Hypothesis(tokens[i, 1:].tolist(), total[i, EOS]) for i in beam[eos]]
            keep, tok = beam[~eos], tok[~eos]
            tokens = np.concatenate([tokens[keep], tok[:, None]], axis=1)
            scores, h, c = total[keep, tok], h_new.data[keep], c_new.data[keep]
            if not len(keep) or len(finished) >= width:
                break
        finished += [Hypothesis(t[1:].tolist(), s) for t, s in zip(tokens, scores)]
        finished.sort(key=lambda hyp: -hyp.normalized())
        return finished[:width]


def score_one(query, replies, user_index, params, config, seed=0):
    """Teacher-forced log-probabilities of the replies under one z."""
    n = len(replies)
    with ad.no_grad():
        enc = M.encode_batch(*M.pad_batch([query]), params, config)
        z_vec = draw_z(enc.final, user_index, params, config, "sample", seed)
        enc_n, z, e_u, u_idx = _rows(enc, z_vec, user_index, n, params, config)
        state = M.decoder_init_state(enc_n.final, params, config)
        r_idx, r_len = M.pad_batch(replies)
        lp = M.teacher_forced_log_probs(r_idx, r_len, state, z, e_u, enc_n, params,
                                        config, user_idx=u_idx)
        return lp.data.astype(np.float64)


def generate_synthetic_np(num_users, triples_per_user, signature_strength, seed):
    """corpus.generate_synthetic's triples for valid arguments, each reply's
    words from Generator.choice(p=preference)."""
    rng = np.random.default_rng(seed)
    topics = [f"topic{i}" for i in range(6)]
    fillers = [f"q{i}" for i in range(12)]
    pool = [f"w{i}" for i in range(24)]
    prefs = [rng.dirichlet(np.full(24, 0.5)) for _ in range(num_users)]
    triples = []
    for k in range(num_users):
        for _ in range(triples_per_user):
            topic = topics[rng.integers(6)]
            q_len = int(rng.integers(2, 5))
            query = [topic] + [fillers[rng.integers(12)] for _ in range(q_len)]
            r_len = int(rng.integers(3, 7))
            reply = [pool[i] for i in rng.choice(24, size=r_len, p=prefs[k])]
            if rng.random() < 0.5:
                reply[rng.integers(r_len)] = topic
            if rng.random() < signature_strength:
                reply[rng.integers(r_len)] = f"sig{k}_{rng.integers(2)}"
            triples.append(DialogueTriple(f"user{k}", query, reply))
    return triples
