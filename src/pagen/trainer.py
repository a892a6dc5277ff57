"""Adam optimization, length-bucketed batching, and the training loop.

Training is bitwise reproducible given (seed, config, corpus) on a single
thread: one RNG stream drives batch shuffling and reparameterization noise.
"""

from __future__ import annotations

import csv
import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import model as M
from .autodiff import ContractError, backward
from .corpus import atomic_open
from .objective import total_loss, NumericError, LossBreakdown


class DivergenceError(RuntimeError):
    pass


def arena(params):
    """(weights, grads): the two flat arrays that every .data and .grad of a
    name -> Tensor dict are views into, laid out by model.flat_views.

    The dict counts as packed when its .data are contiguous views that fill
    one array and its .grad views that fill another, as this function
    leaves them.  .data already laid out so (as init_params leaves them)
    are kept and only the gradients are made.  Otherwise (not packed yet,
    or a .data or .grad rebound since) it is packed again into new arrays
    by copying its values, a missing gradient as zeros."""
    ps = [params[k] for k in sorted(params)]
    n = sum(p.data.size for p in ps)
    W = ps[0].data.base if ps else None
    G = ps[0].grad.base if ps and ps[0].grad is not None else None
    if (W is not None and G is not None and W.size == G.size == n
            and all(p.data.base is W and p.grad is not None and p.grad.base is G
                    and p.data.flags.c_contiguous and p.grad.flags.c_contiguous for p in ps)):
        return W, G
    dtypes = sorted({str(p.data.dtype) for p in ps})
    if len(dtypes) > 1:
        raise ContractError(f"one arena holds one dtype, got {', '.join(dtypes)}")
    shapes = {k: p.data.shape for k, p in params.items()}
    if not (W is not None and W.ndim == 1 and W.size == n
            and all(params[k].data.base is W
                    and params[k].data.__array_interface__ == v.__array_interface__
                    for k, v in M.flat_views(W, shapes).items())):
        W = np.empty(n, dtype=dtypes[0] if dtypes else np.float32)
        for k, v in M.flat_views(W, shapes).items():
            v[...] = params[k].data
            params[k].data = v
    G = np.zeros_like(W)
    for k, v in M.flat_views(G, shapes).items():
        if params[k].grad is not None:
            v[...] = params[k].grad
        params[k].grad = v
    return W, G


# Adam's moment decays and denominator floor, Kingma & Ba's defaults
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 2e-4
    clip_norm: float = 0.0  # global-norm clipping threshold; 0: no clipping
    norm: float = None      # the last gradient's norm, before clipping
    step: int = 0
    m: np.ndarray = None    # flat moments, laid out as the arena of `layout`
    v: np.ndarray = None
    layout: tuple = ()      # (name, shape) of each parameter, in sorted order


def clip_gradients(params, max_norm):
    """(norm, scale): the flat gradient's global norm, summed in float64, and
    the clip factor, 1.0 within max_norm or with max_norm 0.  Writes nothing."""
    _, G = arena(params)
    norm = float(np.sqrt(np.einsum("i,i->", G, G, dtype=np.float64)))
    return norm, (max_norm / norm if max_norm and norm > max_norm else 1.0)


def adam_step(params, state):
    """Bias-corrected Adam (Kingma & Ba, arXiv:1412.6980) in place over the
    flat arena, M.CHUNK elements at a time, on the gradient clipped to
    state.clip_norm, whose norm (state.norm) is checked before anything changes.
    A zero gradient leaves a weight unchanged while its moments are still zero."""
    W, G = arena(params)
    state.norm, scale = clip_gradients(params, state.clip_norm)
    if not np.isfinite(state.norm):  # a float64 sum of float32 squares cannot overflow
        bad = next((k for k in sorted(params) if not np.isfinite(params[k].grad).all()), None)
        raise DivergenceError(f"non-finite gradient for parameter {bad}" if bad
                              else f"the gradient norm overflowed {W.dtype}")
    layout = tuple((k, params[k].data.shape) for k in sorted(params))
    if state.m is None:
        state.m, state.v, state.layout = np.zeros_like(W), np.zeros_like(W), layout
    elif state.layout != layout:
        raise ContractError("AdamState holds the moments of another parameter set")
    state.step += 1
    b1, b2, lr, eps = BETA1, BETA2, state.lr, EPS
    c1, c2 = 1 - b1 ** state.step, 1 - b2 ** state.step
    scratch = np.empty((3, min(M.CHUNK, W.size)), dtype=W.dtype)
    # the per-parameter step's operation order, with Python-float scalars,
    # so that every result is bitwise unchanged:
    #   g = g*scale;  m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
    #   w -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
    for lo in range(0, W.size, M.CHUNK):
        w, g, m, v = (x[lo:lo + M.CHUNK] for x in (W, G, state.m, state.v))
        s, u, c = scratch[:, :g.size]
        g = np.multiply(g, scale, out=c)
        np.multiply(g, 1 - b1, out=s)
        m *= b1
        m += s
        np.multiply(g, 1 - b2, out=s)
        s *= g
        v *= b2
        v += s
        np.divide(m, c1, out=s)
        s *= lr
        np.divide(v, c2, out=u)
        np.sqrt(u, out=u)
        u += eps
        s /= u
        w -= s


@dataclass
class TrainConfig:
    batch_size: int = 128
    epochs: int = 10
    lr: float = 2e-4
    clip_norm: float = 5.0
    checkpoint_every: int = 0   # batches; 0 = end of training only
    max_batches: int = 0        # 0 = no cap

    def __post_init__(self):
        M.check_range(self, ("batch_size", "epochs"), lambda v: v >= 1, ">= 1")
        M.check_range(self, ("checkpoint_every", "max_batches"), lambda v: v >= 0, ">= 0")
        M.check_range(self, ("lr",), lambda v: 0 < v < float("inf"), "positive and finite")
        M.check_range(self, ("clip_norm",), lambda v: v >= 0, ">= 0 (0: no clipping)")


def encode_triples(triples, vocab, users):
    """Pre-index a corpus: list of (user_idx, query ids, reply ids)."""
    return [(users.index(t.user_id), vocab.encode(t.query), vocab.encode(t.reply))
            for t in triples]


def make_batches(indexed, batch_size, rng):
    """Group examples of similar reply length, then shuffle batch order."""
    order = rng.permutation(len(indexed))
    ordered = sorted(order, key=lambda i: (len(indexed[i][2]), len(indexed[i][1])))
    batches = [ordered[i:i + batch_size] for i in range(0, len(ordered), batch_size)]
    rng.shuffle(batches)
    return batches


def batch_arrays(indexed, idxs):
    users = np.array([indexed[i][0] for i in idxs], dtype=np.int64)
    q_idx, q_len = M.pad_batch([indexed[i][1] for i in idxs])
    r_idx, r_len = M.pad_batch([indexed[i][2] for i in idxs])
    return users, q_idx, q_len, r_idx, r_len


def write_history_csv(path, history, norms):
    """One row per batch: its LossBreakdown, the pre-clip gradient norm and
    whether clipping scaled the gradient (1) or not (0)."""
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("batch",) + LossBreakdown.FIELDS + ("grad_norm", "clipped"))
        for i, (b, (norm, clipped)) in enumerate(zip(history, norms)):
            w.writerow([i] + [repr(getattr(b, k)) for k in LossBreakdown.FIELDS]
                       + [repr(norm), int(clipped)])


def train(triples, vocab, users, config, train_config, seed, out_dir,
          params=None, log_every=0):
    """Train one model variant; returns (checkpoint path, loss history).
    With log_every N > 0 it prints the losses after every N-th batch.

    On divergence the last good parameters and the history so far are
    written, then a DivergenceError is raised.
    """
    if log_every < 0:
        raise ValueError(f"log_every must be >= 0, got {log_every}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    if params is None:
        params = M.init_params(config, seed=seed)
    state = AdamState(lr=train_config.lr, clip_norm=train_config.clip_norm)
    indexed = encode_triples(triples, vocab, users)
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    history, norms = [], []

    def save():
        M.save_checkpoint(ckpt_path, params, config)
        write_history_csv(os.path.join(out_dir, "history.csv"), history, norms)

    # lazy: an epoch's batch order is drawn from rng only after the noise
    # of the previous epoch's last batch
    stream = (idxs for _ in range(train_config.epochs)
              for idxs in make_batches(indexed, train_config.batch_size, rng))
    for batch_index, idxs in enumerate(itertools.islice(stream, train_config.max_batches or None)):
        batch = batch_arrays(indexed, idxs)
        noise = rng.standard_normal((len(idxs), config.z_dim)).astype(np.float32) \
            if config.is_latent else None
        arena(params)
        for p in params.values():  # the arena is overwritten, not zero-filled first
            p.stale_grad = True
        try:
            loss, breakdown = total_loss(batch, params, config, noise=noise,
                                         batch_index=batch_index)
            backward(loss)  # frees the graph as it goes
            for p in params.values():
                if p.stale_grad:  # no gradient reached p
                    p.grad.fill(0)
                    p.stale_grad = False
            adam_step(params, state)
        except (NumericError, DivergenceError) as e:
            save()  # the failed batch changed no parameter
            raise DivergenceError(f"aborted at batch {batch_index}: {e}") from e
        history.append(breakdown)
        norms.append((state.norm, 0 < state.clip_norm < state.norm))
        if log_every and len(history) % log_every == 0:
            print(f"batch {len(history)}: total={breakdown.total:.4f} "
                  f"recon={breakdown.reconstruction:.4f} kl={breakdown.kl_user:.4f}")
        if train_config.checkpoint_every and len(history) % train_config.checkpoint_every == 0:
            M.save_checkpoint(ckpt_path, params, config)
    save()
    return ckpt_path, history
