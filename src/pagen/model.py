"""Network components: embeddings, packed bi-directional LSTM encoder,
prior/posterior networks, decoder with optional attention, the five
baseline variants as configuration, and the binary checkpoint format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, asdict, replace
from itertools import chain

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ContractError
from .corpus import PAD, BOS, EOS, UNSPECIFIED_USER, CorpusError, atomic_open

VARIANTS = ("S2SA", "FACT_BIAS", "SPEAKER", "VAE", "CVAE", "PAGENERATOR")
LATENT_VARIANTS = ("VAE", "CVAE", "PAGENERATOR")

CHECKPOINT_MAGIC = b"PAGN"
CHECKPOINT_VERSION = 1


def coerce_value(ftype, text, where):
    """Parse config text as a dataclass field of type ftype (the annotation,
    which may be a string).  Booleans are only "true" or "false"; a bad
    value raises ValueError prefixed with `where`."""
    kind = getattr(ftype, "__name__", ftype)
    try:
        if kind == "bool":
            if text not in ("true", "false"):
                raise ValueError
            return text == "true"
        return {"int": int, "float": float}.get(kind, str)(text)
    except ValueError:
        expected = "true or false" if kind == "bool" else kind
        raise ValueError(f"{where}: expected {expected}, got {text!r}") from None


def parse_config_lines(lines, source, *schemas):
    """Flat key=value lines -> (one kwargs dict per dataclass in schemas,
    where), where maps each key read to its "source:lineno".

    Blank lines and '#' comments are skipped.  A key must be a field of one
    of the schemas and its value must parse as that field's type; anything
    else raises ValueError("source:lineno: ...") naming the key.
    """
    out = [{} for _ in schemas]
    where = {}
    fields = {k: (kwargs, f.type) for kwargs, schema in zip(out, schemas)
              for k, f in schema.__dataclass_fields__.items()}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        k, sep, v = line.partition("=")
        k, v = k.strip(), v.strip()
        where[k] = loc = f"{source}:{lineno}"
        if not sep:
            raise ValueError(f"{loc}: expected key=value")
        if k not in fields:
            raise ValueError(f"{loc}: unknown config key {k!r}")
        kwargs, ftype = fields[k]
        kwargs[k] = coerce_value(ftype, v, f"{loc}: {k}")
    return out, where


class ConfigError(ValueError):
    """A config value out of range; key names the field at fault."""

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key


def check_range(config, fields, ok, expected):
    """Raise ConfigError for the first of a config's fields whose value v
    fails ok(v); expected says what it must be."""
    for f in fields:
        if not ok(getattr(config, f)):
            raise ConfigError(f, f"must be {expected}, got {getattr(config, f)!r}")


def checked(cls, kwargs, where):
    """cls(**kwargs) for a config dataclass (or corpus.generate_synthetic);
    a range error names where[key], the place the value at fault came from
    (e.g. "file:line" or a flag)."""
    try:
        return cls(**kwargs)
    except (ConfigError, CorpusError) as e:
        if e.key not in where:
            raise
        raise ValueError(f"{where[e.key]}: {e}") from None


@dataclass
class ModelConfig:
    variant: str = "PAGENERATOR"
    vocab_size: int = 20004
    num_users: int = 2
    word_embed_dim: int = 300
    user_embed_dim: int = 128
    encoder_hidden: int = 256
    decoder_hidden: int = 512
    z_dim: int = 128
    bow_hidden: int = 400
    fact_rank: int = 32
    decode_with_user: bool = True
    use_attention: bool = False
    use_r1: bool = True
    use_r2: bool = True
    gamma1: float = 0.1
    gamma2: float = 0.1
    anneal_batches: int = 100000

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError("variant", f"unknown variant {self.variant!r} "
                                         f"(expected one of {', '.join(VARIANTS)})")
        check_range(self, ("vocab_size", "num_users", "word_embed_dim", "user_embed_dim",
                           "encoder_hidden", "decoder_hidden", "z_dim", "bow_hidden",
                           "fact_rank", "anneal_batches"), lambda v: v > 0, "positive")
        if self.variant == "PAGENERATOR":
            check_range(self, [f for f, used in (("gamma1", self.use_r1), ("gamma2", self.use_r2))
                               if used], lambda v: v > 0, "> 0")

    @property
    def is_latent(self):
        return self.variant in LATENT_VARIANTS

    @property
    def decoder_uses_user(self):
        # CVAE takes the user only as prior knowledge; feeding the user
        # embedding to the decoder is what distinguishes the full model
        # (and SPEAKER, which has no latent channel).
        if self.variant == "SPEAKER":
            return True
        if self.variant == "PAGENERATOR":
            return self.decode_with_user
        return False

    def to_text(self):
        """Canonical key-sorted key=value block (checkpoint trailer)."""
        d = asdict(self)
        lines = []
        for k in sorted(d):
            v = d[k]
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{k}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, source="<config>"):
        (kwargs,), where = parse_config_lines(text.splitlines(), source, cls)
        return checked(cls, kwargs, where)

    def toy(self):
        """Desk-scale profile; the full-scale sizes stay the defaults."""
        return replace(self, word_embed_dim=32, user_embed_dim=16, encoder_hidden=32,
                       decoder_hidden=64, z_dim=16, bow_hidden=64, fact_rank=8)


@dataclass
class GaussianParams:
    mu: Tensor
    log_var: Tensor


class EncoderOutput:
    """An encoder pass: final, the (batch, 2*encoder_hidden) encodings; mask,
    the (batch, T) 0/1 validity; and states, the (T, batch,
    2*encoder_hidden) grid attention reads.  states may be given as a
    function that builds it, which runs on first use, so that a model
    without attention never builds it."""

    def __init__(self, final, states, mask):
        self.final, self.mask, self._states = final, mask, states

    @property
    def states(self):
        if callable(self._states):
            self._states = self._states()
        return self._states


# ---------------------------------------------------------------------------
# parameters

def param_shapes(config):
    """Name -> shape of every trainable tensor of a config's model."""
    H, Hd = config.encoder_hidden, config.decoder_hidden
    we, ue, zd = config.word_embed_dim, config.user_embed_dim, config.z_dim
    V, U = config.vocab_size, config.num_users

    shapes = {
        "word_emb": (V, we),
        "enc_fwd_W": (we + H, 4 * H),
        "enc_fwd_b": (4 * H,),
        "enc_bwd_W": (we + H, 4 * H),
        "enc_bwd_b": (4 * H,),
        "dec_init_W": (2 * H, Hd),
        "dec_init_b": (Hd,),
        "out_W": (Hd, V),
        "out_b": (V,),
    }
    dec_in = we
    if config.is_latent:
        dec_in += zd
        shapes.update({
            "prior_W": (2 * H + ue, 2 * zd),
            "prior_b": (2 * zd,),
            "post_W": (4 * H, 2 * zd),
            "post_b": (2 * zd,),
            "bow_W1": (zd + 2 * H + ue, config.bow_hidden),
            "bow_b1": (config.bow_hidden,),
            "bow_W2": (config.bow_hidden, V),
            "bow_b2": (V,),
        })
    if config.decoder_uses_user:
        dec_in += ue
    shapes["dec_W"] = (dec_in + Hd, 4 * Hd)
    shapes["dec_b"] = (4 * Hd,)
    if config.is_latent or config.decoder_uses_user:
        shapes["user_emb"] = (U, ue)
    if config.variant == "FACT_BIAS":
        # h @ W + b + f_u @ P is one affine map of [f_u; h]: out_W is [P; W]
        shapes["fact_factors"] = (U, config.fact_rank)
        shapes["out_W"] = (config.fact_rank + Hd, V)
    if config.use_attention:
        shapes["att_W"] = (Hd, 2 * H)
        shapes["att_comb_W"] = (Hd + 2 * H, Hd)
        shapes["att_comb_b"] = (Hd,)
    return shapes


# loops over the flat parameter array (init_params' draws, Adam's step) take
# this many values at a time, so that their temporaries stay small and in cache
CHUNK = 65536


def flat_views(flat, shapes):
    """name -> view of the 1-D array flat, shaped as in shapes, in sorted-name
    order with no gaps: the one layout of the weights, their gradients and
    Adam's moments (trainer.arena)."""
    views, lo = {}, 0
    for k in sorted(shapes):
        n = math.prod(shapes[k])
        views[k] = flat[lo:lo + n].reshape(shapes[k])
        lo += n
    return views


def init_params(config, seed=0, dtype=np.float32):
    """Uniform(-0.08, 0.08) init for every trainable tensor, drawn in
    sorted-name order; the tensors are the flat_views of one array.

    The draws fill it CHUNK values at a time, the same stream as one draw
    per tensor, so no tensor-sized temporary is made: glibc would keep such
    blocks in its heap, and a training's peak RSS would grow by them."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(config)
    flat = np.empty(sum(math.prod(s) for s in shapes.values()), dtype=dtype)
    for lo in range(0, flat.size, CHUNK):
        flat[lo:lo + CHUNK] = rng.uniform(-0.08, 0.08, size=min(CHUNK, flat.size - lo))
    return {k: Tensor(v, requires_grad=True, name=k) for k, v in flat_views(flat, shapes).items()}


# ---------------------------------------------------------------------------
# encoder

def pad_batch(token_lists):
    """Index lists -> (padded (B, T) int array, lengths (B,)), filled through
    one boolean mask, which assigns in row-major order: row by row."""
    sizes = [*map(len, token_lists)]
    out, lengths = np.full((len(sizes), max(sizes)), PAD, dtype=np.int64), np.array(sizes)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(token_lists), dtype=np.int64, count=sum(sizes))
    return out, lengths


def encode_batch(idx, lengths, params, config):
    """Bi-directional LSTM over a padded batch of token indices.

    Each direction is one packed ad.lstm with the rows longest first, so
    step t runs only the rows longer than t.  The backward direction is a
    forward pass over each row's tokens reversed, so its state at position
    t summarizes tokens t..len-1 of the row and its final state is the
    full backward encoding.  states is the (T, B, 2H) grid attention
    reads, built on first use.  A padded position repeats the row's last
    one; attention weighs it by exactly 0 (exp(-1e9 - max) underflows), so
    no output reads it.
    """
    B, T = idx.shape
    H = config.encoder_hidden
    if lengths.min() <= 0:
        raise ContractError("encode: empty input sequence")
    order = np.argsort(-lengths, kind="stable")
    n, rows = lengths[order], idx[order]
    step = np.arange(n[0])[:, None]
    live = step < n  # in length order, each step's rows are a prefix
    sizes = live.sum(axis=1)
    tokens = {"fwd": rows.T[:n[0]][live],
              "bwd": rows[np.arange(B), np.maximum(n - 1 - step, 0)][live]}
    dtype = params["word_emb"].dtype
    zeros = ad.constant(np.zeros((B, H), dtype=dtype))
    fwd, bwd = (ad.lstm(ad.embedding(params["word_emb"], tokens[d]), params[f"enc_{d}_W"],
                        params[f"enc_{d}_b"], zeros, zeros, sizes=sizes)[0]
                for d in ("fwd", "bwd"))
    # step t of row b is packed row first[t] + its rank, in both directions
    first, rank = np.cumsum(sizes) - sizes, np.argsort(order)
    last = lengths - 1

    def states():
        pos = np.arange(T)[:, None]
        return ad.concat([ad.embedding(fwd, first[np.minimum(pos, last)] + rank),
                          ad.embedding(bwd, first[np.maximum(last - pos, 0)] + rank)], axis=2)

    return EncoderOutput(final=ad.embedding(ad.concat([fwd, bwd], axis=1), first[last] + rank),
                         states=states, mask=(np.arange(T) < lengths[:, None]).astype(dtype))


# ---------------------------------------------------------------------------
# prior / posterior

def _split_gaussian(out, z_dim):
    return GaussianParams(mu=ad.index(out, np.s_[:, :z_dim]),
                          log_var=ad.index(out, np.s_[:, z_dim:2 * z_dim]))


def prior_net(h_q, e_u, params, config):
    """Affine map on [h_q; e_u] -> (mu, log_var), each z_dim wide."""
    out = ad.matmul(ad.concat([h_q, e_u], axis=1), params["prior_W"], params["prior_b"])
    return _split_gaussian(out, config.z_dim)


def posterior_net(h_q, h_r, params, config):
    out = ad.matmul(ad.concat([h_q, h_r], axis=1), params["post_W"], params["post_b"])
    return _split_gaussian(out, config.z_dim)


def sample_z(g, noise):
    """Reparameterized sample z = mu + exp(0.5 * log_var) * noise."""
    eps = ad.constant(np.asarray(noise, dtype=g.mu.dtype))
    std = ad.exp(ad.scale(g.log_var, 0.5))
    return ad.add(g.mu, ad.mul(std, eps))


def prior_user_index(user_idx, config):
    """Which user-embedding row feeds the prior: VAE always the
    unspecified user, CVAE/PAGENERATOR the real one."""
    user_idx = np.asarray(user_idx)
    if config.variant == "VAE":
        return np.full_like(user_idx, UNSPECIFIED_USER)
    return user_idx


# ---------------------------------------------------------------------------
# decoder

def decoder_init_state(h_q, params, config):
    h0 = ad.tanh(ad.matmul(h_q, params["dec_init_W"], params["dec_init_b"]))
    c0 = ad.constant(np.zeros((h_q.shape[0], config.decoder_hidden), dtype=h0.dtype))
    return h0, c0


def _attention_context(h_dec, enc, params):
    """Luong general score s . (h @ W_a), masked softmax over the valid
    encoder steps s, and the weighted sum of the encoder states; h_dec is
    one step (B, Hd) or every step (T, B, Hd)."""
    q = "bd" if h_dec.data.ndim == 2 else "tbd"
    w = q[:-1] + "s"
    scores = ad.contract(f"sbd,{q}->{w}", enc.states, ad.matmul(h_dec, params["att_W"]))
    neg = ad.constant((1.0 - enc.mask) * -1e9)
    weights = ad.softmax(ad.add(scores, neg))
    return ad.contract(f"{w},sbd->{q}", weights, enc.states)


def decoder_lstm(tokens, sizes, parents, state, z, e_u, params, config):
    """The decoder's recurrence over packed previous tokens (ad.lstm's
    layout: sizes per step, parents): one LSTM on [embedding of prev; z;
    e_u], where [z; e_u] is one row per row of the initial state, the same
    at every step.  Only (h, c) carries from one step to the next.
    Returns (hs (N, Hd), the cells of the last step's rows)."""
    parts = [t for t, used in ((z, config.is_latent), (e_u, config.decoder_uses_user)) if used]
    static = ad.concat(parts, axis=1) if len(parts) > 1 else (parts[0] if parts else None)
    x = ad.embedding(params["word_emb"], tokens)
    return ad.lstm(x, params["dec_W"], params["dec_b"], *state, sizes=sizes, parents=parents,
                   static=static)


def output_logits(h, enc, params, config, user_idx=None, targets=None):
    """Vocabulary logits from decoder states h: attention, then the output
    projection, of [f_u; h] for FACT_BIAS, f_u the user's factor row (which
    needs user_idx, one user per batch row).  Nothing here feeds back.

    h is one step (B, Hd) or every step (T, B, Hd), and the logits have its
    leading axes; attention reads every encoder step.  With targets, one per
    state, the layer ends in ad.affine_log_softmax_pick and gives each
    state's log-probability of its target instead of the logits, and 0 for
    a state whose target is negative (none), which skips the output layer."""
    if config.use_attention:
        ctx = _attention_context(h, enc, params)
        h = ad.tanh(ad.matmul(ad.concat([h, ctx], axis=-1), params["att_comb_W"],
                              params["att_comb_b"]))
    if config.variant == "FACT_BIAS":
        if user_idx is None:
            raise ContractError("FACT_BIAS decode requires user_idx")
        f_u = ad.embedding(params["fact_factors"], np.broadcast_to(user_idx, h.data.shape[:-1]))
        h = ad.concat([f_u, h], axis=-1)
    if targets is not None:
        return ad.affine_log_softmax_pick(h, params["out_W"], params["out_b"], targets)
    return ad.matmul(h, params["out_W"], params["out_b"])


def decode_logits(prev_idx, state, z, e_u, enc, params, config, user_idx=None):
    """One decoder step from the (B,) previous tokens; returns (logits, new_state)."""
    prev_idx = np.asarray(prev_idx)
    h, c = decoder_lstm(prev_idx, [len(prev_idx)], None, state, z, e_u, params, config)
    return output_logits(h, enc, params, config, user_idx=user_idx), (h, ad.constant(c))


def decode_step(prev_idx, state, z, e_u, enc, params, config, user_idx=None):
    """One decoder step returning log-probabilities over the vocab."""
    logits, new_state = decode_logits(prev_idx, state, z, e_u, enc, params, config,
                                      user_idx=user_idx)
    return ad.log_softmax(logits), new_state


def user_embedding(user_idx, params, config):
    user_idx = np.asarray(user_idx)
    if "user_emb" not in params:
        return None
    if user_idx.min(initial=0) < 0 or user_idx.max(initial=0) >= config.num_users:
        raise ContractError("unknown user index")
    return ad.embedding(params["user_emb"], user_idx)


def reply_tree(reply_idx, lengths, lanes):
    """The decoder rows of teacher forcing for the B padded replies of
    reply_idx (B, Tr), row b in lane lanes[b], each scoring its tokens and
    then EOS at step t == its length: one node per distinct (lane, tokens
    before step t) among the rows that reach step t, and one output pair
    per distinct (lane, targets up to step t), its node and its target.
    The rows are ordered once, by their lane's longest row, then lane, then
    targets, so that each level's nodes are runs of rows and no loop runs
    per level; with one row per lane that is longest first, and each step
    after the first continues its rows in place (ad.lstm's slice fast path).

    Returns (tokens, sizes, parents), the nodes in ad.lstm's layout with
    each node's input token (BOS at step 0, where a node's parent is its
    lane); (node, target), the (J, lanes) grid of pairs, column l holding
    lane l's pairs, row after row and each row's in time order, and target
    -1 below them; and row_pair (T, B), the flat grid position of the pair
    row b reads at step t, -1 past its length."""
    B = len(lengths)
    T = int(lengths.max()) + 1
    t = np.arange(T)[:, None]
    live = t <= lengths
    # the sort keys: each row's lane's longest row, its lane, then its
    # targets: its tokens, EOS at its end and past it a key above every
    # token, so a row that ends sorts after the rows sharing its prefix
    longest = np.zeros(lanes.max() + 1, dtype=lengths.dtype)
    np.maximum.at(longest, lanes, lengths)
    keys = np.concatenate([-longest[lanes][None], lanes[None], np.where(live, EOS, 1 << 62)])
    np.copyto(keys[2:-1], reply_idx.T[:T - 1], where=t[:-1] < lengths)
    order = np.lexsort(keys[::-1])
    keys, live = keys[1:, order], live[:, order]  # the lanes, then the targets by step
    lane, target = keys[0], keys[1:]
    # the first level at which each row differs from the row before it:
    # 0 in another lane, t + 1 where key t is the first that differs
    differ = np.concatenate([keys[:, 1:] != keys[:, :-1], np.ones((1, B - 1), dtype=bool)])
    level = np.concatenate([[0], differ.argmax(axis=0)])
    node, pair = live & (level <= t), live & (level <= t + 1)
    # each live row's node, numbered in ad.lstm's order: a row that is not
    # a node reads the node of the row before it, the last one so far
    nodes = np.cumsum(node).reshape(T, B) - 1
    sizes = node.sum(axis=1)
    tokens = np.concatenate([np.full((1, B), BOS), target[:-1]])[node]
    parents = np.concatenate([lane[None], nodes[:-1] - (np.cumsum(sizes) - sizes)[:-1, None]])
    # down a lane's column come its rows' own pairs, row after row: count
    # them in that order, from the lane's first
    j = np.cumsum(pair.T).reshape(B, T)
    j -= np.maximum.accumulate(np.where(level == 0, j[:, 0], 0))[:, None]
    L = len(longest)
    at = (j * L + lane[:, None]).T[pair]  # each pair's flat grid position, in time order
    grid = np.zeros((2, (j.max() + 1) * L), dtype=np.int64)
    grid[1] = -1
    grid[0, at], grid[1, at] = nodes[pair], target[pair]
    # likewise, a live row that is not a pair reads the last pair so far
    row_pair = np.empty((T, B), dtype=np.int64)
    row_pair[:, order] = np.where(live, at[np.cumsum(pair).reshape(T, B) - 1], -1)
    return tokens, sizes, parents[node], *grid.reshape(2, -1, L), row_pair


def teacher_forced_log_probs(reply_idx, reply_lengths, state, z, e_u, enc, params,
                             config, user_idx=None, lanes=None):
    """Per-row sum of log p(token) over the reply plus EOS, teacher forced.

    reply_idx: (B, Tr) padded, no BOS/EOS.  Returns a (B,) tensor of
    log-probabilities (non-positive).  lanes: an optional (B,) lane per
    row, by default one per row, as in training; state, z, e_u, enc and
    user_idx hold one row per lane.  The decoder runs once per node of
    reply_tree, so the rows of a lane share a common prefix's steps, and
    the output layer once per pair, on reply_tree's (J, lanes) grid, whose
    columns line up with those rows.  Each row gathers its pairs from the
    grid and sums them in time order.
    """
    lanes = np.arange(len(reply_lengths)) if lanes is None else np.asarray(lanes)
    tokens, sizes, parents, node, target, row_pair = reply_tree(reply_idx, reply_lengths, lanes)
    hs, _ = decoder_lstm(tokens, sizes, parents, state, z, e_u, params, config)
    picked = output_logits(ad.embedding(hs, node), enc, params, config, user_idx=user_idx,
                           targets=target)
    # a sum over axis 0 adds the steps one by one in time order (numpy sums
    # along the last axis pairwise, which would round differently)
    return ad.reduce_sum(ad.take(picked, row_pair), axis=0)


# ---------------------------------------------------------------------------
# checkpoint format

def save_checkpoint(path, params, config):
    """Binary layout: magic "PAGN", u32 version, u32 tensor count; per
    tensor u16 name length + UTF-8 name, u8 rank, u32 dims, float32
    little-endian row-major values; then the canonical config text."""
    with atomic_open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(params)))
        for name in sorted(params):
            data = np.ascontiguousarray(params[name].data, dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", data.ndim))
            for d in data.shape:
                f.write(struct.pack("<I", d))
            f.write(memoryview(data).cast("B"))  # the array's own bytes, uncopied
        f.write(config.to_text().encode("utf-8"))


def load_checkpoint(path):
    """Read a save_checkpoint file.  A bad header, a file cut short, a
    config trailer other than the canonical one save_checkpoint writes, or
    a tensor that is missing, unexpected or of the wrong shape for the
    stored config raises ValueError naming the file (and the tensor)."""
    with open(path, "rb") as f:
        blob = f.read()
    view, off = memoryview(blob), 0

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise ValueError(f"{path}: checkpoint cut short in {what} "
                             f"(needs {off + n} bytes, file has {len(blob)})")
        off += n
        return view[off - n:off]

    if take(4, "the header") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    version, count = struct.unpack("<II", take(8, "the header"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    params = {}
    for i in range(count):
        (nlen,) = struct.unpack("<H", take(2, f"the name of tensor {i}"))
        name = bytes(take(nlen, f"the name of tensor {i}")).decode("utf-8", errors="replace")
        what = f"tensor {name!r}"
        (rank,) = struct.unpack("<B", take(1, what))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, what))
        data = np.frombuffer(take(4 * math.prod(dims), what), dtype="<f4")
        if name in params:
            raise ValueError(f"{path}: {what} stored twice")
        params[name] = Tensor(data.reshape(dims).copy(), requires_grad=True, name=name)
    text = blob[off:].decode("utf-8", errors="replace")
    config = ModelConfig.from_text(text, source=f"{path} config")
    if text != config.to_text():  # a key lost to truncation would read as its default
        raise ValueError(f"{path}: checkpoint config is cut short or not canonical")
    shapes = param_shapes(config)
    unexpected = sorted(params.keys() - shapes.keys())
    if unexpected:
        raise ValueError(f"{path}: unexpected tensor {unexpected[0]!r} for its config")
    for name, shape in sorted(shapes.items()):
        if name not in params:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if params[name].shape != shape:
            raise ValueError(f"{path}: tensor {name!r} has shape {params[name].shape}, "
                             f"its config needs {shape}")
    return params, config
