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
from .corpus import BOS, EOS, UNSPECIFIED_USER

# Most decoder rows in one batch: generate_many splits longer request lists
# into groups whose beam widths sum to at most this, score_many groups items
# by their len(seeds) x len(replies) rows, and both set up at most this many
# queries at once (_set_up).  A step holds a few (rows, V) float32 buffers,
# about 20 MB each for a full group at the paper's V=20004.
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


def _draw_z(enc_final, e_u, params, config, draws):
    """z vectors from the prior p(z | q, u), stacked (len(draws), z_dim);
    None if not latent.  e_u holds each query row's prior user embedding
    (M.prior_user_index's row).  draws holds one (query row, z_mode, seed)
    per z: "mean" takes the prior mean, "sample" M.sample_z with
    default_rng(seed)."""
    if not config.is_latent:
        return None
    prior = M.prior_net(enc_final, e_u, params, config)
    rows, modes, seeds = zip(*draws)
    rows = np.array(rows)
    prior = M.GaussianParams(*(ad.constant(t.data[rows]) for t in (prior.mu, prior.log_var)))
    noise = {seed: np.random.default_rng(seed).standard_normal(config.z_dim) for seed in set(seeds)}
    mean = np.array([m == "mean" for m in modes])[:, None]
    return np.where(mean, prior.mu.data, M.sample_z(prior, [noise[s] for s in seeds]).data)


def _set_up(groups, inputs, params, config):
    """Each group with its decoder inputs, one row per lane: (the encoder
    states attention reads, None without attention; z; the decoder's user
    embedding; each lane's user; the initial state (h0, c0)).  inputs(x) is
    a request or item's (query, user, [(z_mode, seed) per lane]), as many
    lanes for each.  A chunk of at most MAX_ROWS queries is set up at once;
    its groups take their lanes' rows as views, with the attention grid cut
    to the group's longest query.  Runs under the caller's no_grad."""
    for chunk in _groups(groups, [(len(g),) for g in groups], (MAX_ROWS,)):
        queries, users, lanes = zip(*(inputs(x) for g in chunk for x in g))
        draws = [(i, *d) for i, ds in enumerate(lanes) for d in ds]  # for _draw_z
        users, src = np.array(users, dtype=np.int64), np.array([row for row, _, _ in draws])
        idx, lengths = M.pad_batch(queries)
        enc = M.encode_batch(idx, lengths, params, config)
        # one lookup feeds the prior and the decoder (which reads it only if
        # config.decoder_uses_user, so never VAE's unspecified row)
        e_u = M.user_embedding(M.prior_user_index(users, config), params, config)
        z = _draw_z(enc.final, e_u, params, config, draws)
        e_u = e_u.data[src] if config.decoder_uses_user else None
        state = M.decoder_init_state(ad.constant(enc.final.data[src]), params, config)
        ends = [len(lanes[0]) * n for n in accumulate(map(len, chunk), initial=0)]
        for group, lo, hi in zip(chunk, ends, ends[1:]):
            rows = src[lo:hi]
            yield group, (_rows(enc, rows, lengths[rows].max()) if config.use_attention else None,
                          None if z is None else ad.constant(z[lo:hi]),
                          None if e_u is None else ad.constant(e_u[lo:hi]),
                          users[rows], tuple(ad.constant(t.data[lo:hi]) for t in state))


def _rows(enc, src, T=None):
    """The encoder states and mask of rows src[j] of enc, cut to T steps."""
    return M.EncoderOutput(final=None, states=ad.constant(enc.states.data[:T, src]),
                           mask=enc.mask[src, :T])


def _check(where, query, user_index, config, replies=()):
    """Reject a request or item before any decoding, naming it (where)."""
    if not query:
        raise ContractError(f"{where}: empty query")
    if not 0 <= user_index < config.num_users:
        raise ContractError(f"{where}: unknown user index {user_index}")
    for tokens in (query, *replies):
        if tokens and (min(tokens) < 0 or max(tokens) >= config.vocab_size):
            bad = next(t for t in tokens if not 0 <= t < config.vocab_size)
            raise ContractError(f"{where}: token {bad} outside [0, {config.vocab_size})")


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
    (at most MAX_ROWS rows; longer lists run in groups), and one top-W
    selection per step serves them all.  Each request keeps its own z, user,
    max_length, finished list and stop rule, and is checked before any decoding."""
    for i, r in enumerate(requests):
        _check(f"request {i}", r.query, r.user_index, config)
    groups = list(_groups(requests, [(r.beam_width,) for r in requests], (MAX_ROWS,)))
    with no_grad():  # one lane per request
        return [hyps for group, setup in _set_up(
                    groups, lambda r: (r.query, r.user_index, [(r.z_mode, r.seed)]), params, config)
                for hyps in _beam_search(group, setup, params, config)]


def _beam_search(requests, setup, params, config):
    enc, z_all, e_users, users, state = setup
    widths = np.array([r.beam_width for r in requests])
    lengths = np.array([r.max_length for r in requests])
    h, c = (s.data for s in state)
    # per request: its finished hypotheses, then the beams it leaves with
    finished = [[] if n else [Hypothesis([], h.dtype.type(0))] for n in lengths]
    done = np.zeros(len(requests), dtype=np.int64)  # EOS hypotheses
    # the live beams of the requests in `live` are rows of tokens (BOS +
    # tokens), scores (summed log-probs), h and c, grouped by request in
    # live order: counts[i] rows of request live[i]; src: each row's request
    live = np.flatnonzero(lengths > 0)
    src, counts, step = live, np.ones(len(live), dtype=np.int64), 0
    tokens, scores = np.full((len(live), 1), BOS), np.zeros(len(live), dtype=h.dtype)
    h, c = h[live], c[live]
    while len(live):
        logp, (h_new, c_new) = M.decode_step(
            tokens[:, -1], (ad.constant(h), ad.constant(c)),
            None if z_all is None else ad.constant(z_all.data[src]),
            None if e_users is None else ad.constant(e_users.data[src]),
            None if enc is None else _rows(enc, src), params, config, user_idx=users[src])
        logp = logp.data
        # never PAD, UNK or BOS (ids 0-2), nor EOS (3) at step 0: no empty replies
        logp[:, :EOS + (step == 0)] = -np.inf
        req, row, tok, scores = _top(scores[:, None] + logp, counts, widths[live])
        # EOS retires a hypothesis, the rest carry on
        eos = tok == EOS
        for i, r, s in zip(live[req[eos]], row[eos], scores[eos]):
            finished[i].append(Hypothesis(tokens[r, 1:].tolist(), s))
        done[live] += np.bincount(req[eos], minlength=len(live))
        req, row, tok, scores = req[~eos], row[~eos], tok[~eos], scores[~eos]
        tokens, src = np.concatenate([tokens[row], tok[:, None]], axis=1), live[req]
        counts = np.bincount(req, minlength=len(live))
        go = (counts > 0) & (done[live] < widths[live]) & (step + 1 < lengths[live])
        if not go.all():  # a request that stops leaves with its live beams
            stay = go[req]
            for i, t, s in zip(src[~stay], tokens[~stay], scores[~stay]):
                finished[i].append(Hypothesis(t[1:].tolist(), s))
            tokens, scores, row, src = tokens[stay], scores[stay], row[stay], src[stay]
            live, counts = live[go], counts[go]
        h, c, step = h_new.data[row], c_new.data[row], step + 1
    return [sorted(hyps, key=lambda hyp: -hyp.normalized())[:r.beam_width]
            for r, hyps in zip(requests, finished)]


def _top(total, counts, widths):
    """The top widths[i] (row, token) entries of request i's counts[i]
    consecutive rows of total, as (request, row, token, score) arrays grouped
    by request, best first; ties go by row, then token, as in a stable sort
    of the rows flattened.  A -inf entry is never picked."""
    n, V, K = len(counts), total.shape[1], counts.max()
    starts = np.cumsum(counts) - counts
    if len(total) == n * K:  # every count is K
        block = total.reshape(n, K * V)
    else:  # pad each request to K rows with -inf rows at its end
        block = np.full((n, K, V), -np.inf, dtype=total.dtype)
        req = np.repeat(np.arange(n), counts)
        block[req, np.arange(len(total)) - starts[req]] = total
        block = block.reshape(n, K * V)
    # the W-th score of each row; the finite entries above it, and of those
    # tied with it the first ones in flat order, as many as there are places
    kth = K * V - np.minimum(widths, K * V)
    worst = np.partition(block, sorted(set(kth.tolist())), axis=1)[np.arange(n), kth]
    worst = np.maximum(worst, -np.finfo(total.dtype).max)[:, None]
    keep = block >= worst
    if (keep.sum(axis=1) > widths).any():
        tie = block == worst
        places = widths - np.count_nonzero(block > worst, axis=1)
        keep &= ~tie | (np.cumsum(tie, axis=1, dtype=np.int32) <= places[:, None])
    req, j = np.divmod(np.flatnonzero(keep), K * V)
    score = block[req, j]
    # candidates come in flat order, so a stable sort keeps it among ties
    order = np.lexsort((-score, req))
    req, (beam, tok) = req[order], np.divmod(j[order], V)
    return req, starts[req] + beam, tok, score[order]


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

    Every item is checked before any decoding, its token ids too.  An item
    is len(seeds) x len(replies) rows; items run in groups of at most
    MAX_ROWS rows whose output buffer holds at most MAX_SCORED floats, and
    an item over either cap runs alone.  Each chunk of MAX_ROWS items makes
    one encoder pass and one prior, and each group one teacher-forced pass,
    with a lane per (item, seed) whose replies share their prefixes' steps."""
    if not seeds:
        raise ContractError("no seeds to score with")
    for i, (query, replies, user_index) in enumerate(items):
        if not replies or any(not r for r in replies):
            raise ContractError(f"item {i}: replies must be nonempty")
        _check(f"item {i}", query, user_index, config, replies)
    costs = [(len(seeds) * len(replies),
              len(seeds) * sum(len(r) + 1 for r in replies) * config.vocab_size)  # +1: EOS
             for _, replies, _ in items]
    groups = list(_groups(items, costs, (MAX_ROWS, MAX_SCORED)))
    draws = [("sample", seed) for seed in seeds]
    with no_grad():
        return [scores for group, setup in _set_up(groups, lambda it: (it[0], it[2], draws),
                                                   params, config)
                for scores in _score_group(group, setup, params, config, seeds)]


def _score_group(items, setup, params, config, seeds):
    """score_many of one group, given its _set_up inputs: its rows run item by
    item, within an item seed by seed, within a seed reply by reply.  Each
    (item, seed) is one lane of teacher_forced_log_probs, so its replies
    share their common prefixes' decoder steps."""
    widths = [len(replies) for _, replies, _ in items]
    rows = [len(seeds) * w for w in widths]
    enc, z, e_u, users, state = setup
    r_idx, r_len = M.pad_batch([r for _, replies, _ in items for _ in seeds for r in replies])
    lanes = np.repeat(np.arange(len(users)), np.repeat(widths, len(seeds)))
    lp = M.teacher_forced_log_probs(r_idx, r_len, state, z, e_u, enc, params, config,
                                    user_idx=users, lanes=lanes)
    scores = lp.data.astype(np.float64)
    return [scores[end - n:end].reshape(len(seeds), w)
            for end, n, w in zip(accumulate(rows), rows, widths)]
