"""Response generation: prior z sampling at inference time, greedy
decoding as beam width 1, one batched beam search with a single z per
request, and batched teacher-forced scoring of candidate replies."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from . import model as M
from .autodiff import ContractError, no_grad
from .corpus import BOS, EOS, PAD, UNK, UNSPECIFIED_USER

# Most decoder rows in one batch: generate_many splits longer request lists
# into groups whose beam widths sum to at most this, and score_many groups
# items by their len(seeds) x len(replies) rows.  Each step holds a few
# (rows, V) float32 buffers, so at the paper's V=20004 a full group costs
# about 20 MB per buffer.
MAX_ROWS = 256
# Most floats in the output buffer (scored tokens x V) of one score_many
# group, 16 MB of float32.  At V=20004 one item of 10 seeds x 11 replies
# (at least 220 scored tokens) is over it, so there every item runs alone:
# the output GEMMs dominate and grouping would only multiply the buffer.
# At toy sizes MAX_ROWS binds first.
MAX_SCORED = 1 << 22


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
        if self.max_length < 0:
            raise ContractError(f"max_length must be >= 0, got {self.max_length}")
        if self.z_mode not in ("sample", "mean"):
            raise ContractError(f"unknown z mode {self.z_mode!r}")


def _draw_z(enc_final, user_idx, params, config, draws):
    """z vectors from the prior p(z | q, u), stacked (len(draws), z_dim);
    None if not latent.  draws holds one (query row, z_mode, seed) per z:
    "mean" takes the prior mean, "sample" M.sample_z with default_rng(seed)."""
    if not config.is_latent:
        return None
    e_u = M.user_embedding(M.prior_user_index(user_idx, config), params, config)
    prior = M.prior_net(enc_final, e_u, params, config)
    rows, modes, seeds = zip(*draws)
    rows = np.array(rows)
    prior = M.GaussianParams(*(ad.constant(t.data[rows]) for t in (prior.mu, prior.log_var)))
    noise = [np.random.default_rng(seed).standard_normal(config.z_dim) for seed in seeds]
    mean = np.array(modes)[:, None] == "mean"
    return np.where(mean, prior.mu.data, M.sample_z(prior, noise).data)


def _rows(enc, src, z, user_idx, params, config):
    """Decoder rows that read encoder row src[j], z row z[j] and user
    user_idx[j]: (the encoder states attention reads, None without
    attention; z; the decoder's user embedding)."""
    enc_k = M.EncoderOutput(final=None, states=ad.constant(enc.states.data[:, src]),
                            mask=enc.mask[src]) if config.use_attention else None
    z = ad.constant(z) if z is not None else None
    e_u = M.user_embedding(user_idx, params, config) if config.decoder_uses_user else None
    return enc_k, z, e_u


def _check(query, user_index, config):
    if not query:
        raise ContractError("empty query")
    if not 0 <= user_index < config.num_users:
        raise ContractError(f"unknown user index {user_index}")


def _groups(items, costs, caps):
    """Consecutive runs of items whose costs (one tuple per item) sum to at
    most caps in every component; an item over a cap runs alone."""
    group, total = [], None
    for item, cost in zip(items, costs):
        summed = tuple(map(sum, zip(total, cost))) if group else cost
        if group and any(t > cap for t, cap in zip(summed, caps)):
            yield group
            group, summed = [], cost
        group.append(item)
        total = summed
    if group:
        yield group


def generate(request, params, config):
    """Beam search for one request; returns hypotheses sorted by
    length-normalized score."""
    return generate_many([request], params, config)[0]


def generate_many(requests, params, config):
    """Beam search for many requests at once; returns one hypothesis list
    per request, each sorted by length-normalized score.

    Every live beam of every request is one row of a single decoder batch
    (at most MAX_ROWS rows; longer lists run in groups).  Each request keeps
    its own z, user, max_length, finished list, stop rule and top-W
    selection.  Every request is checked before any decoding."""
    for r in requests:
        _check(r.query, r.user_index, config)
    return [hyps for group in _groups(requests, [(r.beam_width,) for r in requests], (MAX_ROWS,))
            for hyps in _beam_search(group, params, config)]


def _beam_search(requests, params, config):
    n = len(requests)
    users = np.array([r.user_index for r in requests], dtype=np.int64)
    with no_grad():
        enc = M.encode_batch(*M.pad_batch([r.query for r in requests]), params, config)
        z_all = _draw_z(enc.final, users, params, config,
                        [(i, r.z_mode, r.seed) for i, r in enumerate(requests)])
        h, c = (s.data for s in M.decoder_init_state(enc.final, params, config))
        # per request: its live beams as rows of BOS + tokens and their summed
        # log-probs; the live rows of the requests in `live` are contiguous
        # and in order in h, c and src (each live row's request)
        tokens = [np.full((1, 1), BOS)] * n
        scores = [np.zeros(1, dtype=h.dtype)] * n
        finished = [[] for _ in range(n)]
        live = [i for i, r in enumerate(requests) if r.max_length > 0]
        src, step = np.array(live, dtype=np.int64), 0
        if len(live) < n:
            h, c = h[live], c[live]
        while live:
            counts = [len(tokens[i]) for i in live]
            u_idx = users[src]
            enc_k, z, e_u = _rows(enc, src, z_all[src] if z_all is not None else None,
                                  u_idx, params, config)
            prev = np.concatenate([tokens[i][:, -1] for i in live])
            logp, (h_new, c_new) = M.decode_step(prev, (ad.constant(h), ad.constant(c)),
                                                 z, e_u, enc_k, params, config,
                                                 user_idx=u_idx)
            logp = logp.data
            logp[:, [PAD, UNK, BOS]] = -np.inf
            if step == 0:
                logp[:, EOS] = -np.inf  # no empty replies
            still, keep_rows, start = [], [], 0
            for i, k in zip(live, counts):
                width = requests[i].beam_width
                total = scores[i][:, None] + logp[start:start + k]
                # top-W (beam, token) pairs by score; the stable sort over the
                # row-major flattening breaks ties by beam, then by token
                order = np.argsort(-total, axis=None, kind="stable")[:width]
                beam, tok = np.divmod(order, total.shape[1])
                # EOS retires a hypothesis, the rest carry on
                eos = tok == EOS
                finished[i] += [Hypothesis(tokens[i][b, 1:].tolist(), total[b, EOS])
                                for b in beam[eos]]
                keep, tok = beam[~eos], tok[~eos]
                tokens[i] = np.concatenate([tokens[i][keep], tok[:, None]], axis=1)
                scores[i] = total[keep, tok]
                if len(keep) and len(finished[i]) < width and step + 1 < requests[i].max_length:
                    still.append(i)
                    keep_rows.append(keep + start if start else keep)
                start += k
            if still:
                rows = keep_rows[0] if len(keep_rows) == 1 else np.concatenate(keep_rows)
                h, c, src = h_new.data[rows], c_new.data[rows], src[rows]
            live, step = still, step + 1
    results = []
    for r, done, toks, sc in zip(requests, finished, tokens, scores):
        done += [Hypothesis(t[1:].tolist(), s) for t, s in zip(toks, sc)]  # still live
        done.sort(key=lambda hyp: -hyp.normalized())
        results.append(done[:r.beam_width])
    return results


def score_responses(query, replies, user_index, params, config, seed=0):
    """Teacher-forced log-probability of each reply given (q, u) and one
    shared z drawn from the prior with the request seed: score_many of one
    item and one seed."""
    return score_many([(query, replies, user_index)], params, config, [seed])[0][0]


def score_many(items, params, config, seeds):
    """Teacher-forced log-probabilities of the replies of many items, each
    item a (query, replies, user_index), under one z per seed drawn from the
    prior with default_rng(seed).  Raw sums, no length normalization (the
    ranking metric depends on raw scores).  Returns one
    (len(seeds), len(replies)) float64 array per item.

    Every item is checked before any decoding.  An item is len(seeds) x
    len(replies) decoder rows; items run in groups of at most MAX_ROWS rows
    whose output buffer holds at most MAX_SCORED floats, and an item over
    either cap runs alone.  Each group makes one encoder pass, one prior,
    one decoder initial state and one teacher-forced pass."""
    if not seeds:
        raise ContractError("no seeds to score with")
    for query, replies, user_index in items:
        if not replies or any(not r for r in replies):
            raise ContractError("replies must be nonempty")
        _check(query, user_index, config)
    costs = [(len(seeds) * len(replies),
              len(seeds) * sum(len(r) + 1 for r in replies) * config.vocab_size)  # +1: EOS
             for _, replies, _ in items]
    return [scores for group in _groups(items, costs, (MAX_ROWS, MAX_SCORED))
            for scores in _score_group(group, params, config, seeds)]


def _score_group(items, params, config, seeds):
    """score_many of one group: its rows run item by item, within an item
    seed by seed, within a seed reply by reply."""
    widths = [len(replies) for _, replies, _ in items]
    rows = [len(seeds) * w for w in widths]
    users = np.array([u for _, _, u in items], dtype=np.int64)
    src = np.repeat(np.arange(len(items)), rows)  # each row's item
    with no_grad():
        enc = M.encode_batch(*M.pad_batch([q for q, _, _ in items]), params, config)
        z_all = _draw_z(enc.final, users, params, config,
                        [(i, "sample", seed) for i in range(len(items)) for seed in seeds])
        z = None if z_all is None else np.repeat(z_all, [w for w in widths for _ in seeds], axis=0)
        u_rows = users[src]
        enc_n, z, e_u = _rows(enc, src, z, u_rows, params, config)
        state = M.decoder_init_state(ad.constant(enc.final.data[src]), params, config)
        r_idx, r_len = M.pad_batch([r for _, replies, _ in items for _ in seeds for r in replies])
        lp = M.teacher_forced_log_probs(r_idx, r_len, state, z, e_u, enc_n, params, config,
                                        user_idx=u_rows)
    scores = lp.data.astype(np.float64)
    return [scores[end - n:end].reshape(len(seeds), w)
            for end, n, w in zip(accumulate(rows), rows, widths)]
