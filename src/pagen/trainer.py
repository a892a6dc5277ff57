"""Adam optimization, length-bucketed batching, and the training loop.

Training is bitwise reproducible given (seed, config, corpus) on a single
thread: one RNG stream drives batch shuffling and reparameterization noise.
"""

from __future__ import annotations

import csv
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from .autodiff import backward
from .objective import total_loss, NumericError, LossBreakdown


class DivergenceError(RuntimeError):
    pass


@dataclass
class AdamState:
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def clip_gradients(params, max_norm):
    """Global-norm gradient clipping; returns the pre-clip norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if max_norm and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def adam_step(params, state):
    """Standard bias-corrected Adam update in place, reading .grad.  Every
    gradient is checked before any parameter or moment changes."""
    names = [name for name in sorted(params) if params[name].grad is not None]
    for name in names:
        if not np.isfinite(params[name].grad).all():
            raise DivergenceError(f"non-finite gradient for parameter {name}")
    state.step += 1
    t = state.step
    for name in names:
        p = params[name]
        g = p.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = state.m[name] / (1 - state.beta1 ** t)
        v_hat = state.v[name] / (1 - state.beta2 ** t)
        p.data -= (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype)


@dataclass
class TrainConfig:
    batch_size: int = 128
    epochs: int = 10
    lr: float = 2e-4
    clip_norm: float = 5.0
    checkpoint_every: int = 0   # batches; 0 = end of training only
    max_batches: int = 0        # 0 = no cap


def encode_triples(triples, vocab, users):
    """Pre-index a corpus: list of (user_idx, query ids, reply ids)."""
    out = []
    for t in triples:
        out.append((users.index(t.user_id), vocab.encode(t.query), vocab.encode(t.reply)))
    return out


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


def write_history_csv(path, history):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("batch",) + LossBreakdown.FIELDS)
        for i, b in enumerate(history):
            w.writerow([i] + [repr(getattr(b, k)) for k in LossBreakdown.FIELDS])


def train(triples, vocab, users, config, train_config, seed, out_dir,
          params=None, log_every=0):
    """Train one model variant; returns (checkpoint path, loss history).

    On divergence the last good parameters and the history so far are
    written, then a DivergenceError is raised.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    if params is None:
        params = M.init_params(config, seed=seed)
    state = AdamState(lr=train_config.lr)
    indexed = encode_triples(triples, vocab, users)
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    history = []

    def save():
        M.save_checkpoint(ckpt_path, params, config)
        write_history_csv(os.path.join(out_dir, "history.csv"), history)

    # lazy: an epoch's batch order is drawn from rng only after the noise
    # of the previous epoch's last batch
    stream = (idxs for _ in range(train_config.epochs)
              for idxs in make_batches(indexed, train_config.batch_size, rng))
    for batch_index, idxs in enumerate(itertools.islice(stream, train_config.max_batches or None)):
        batch = batch_arrays(indexed, idxs)
        noise = rng.standard_normal((len(idxs), config.z_dim)).astype(np.float32) \
            if config.is_latent else None
        for p in params.values():
            p.zero_grad()
        try:
            loss, breakdown = total_loss(batch, params, config, noise=noise,
                                         batch_index=batch_index)
            backward(loss)
            clip_gradients(params, train_config.clip_norm)
            adam_step(params, state)
        except (NumericError, DivergenceError) as e:
            save()  # the failed batch changed no parameter
            raise DivergenceError(f"aborted at batch {batch_index}: {e}") from e
        history.append(breakdown)
        if log_every and len(history) % log_every == 0:
            print(f"batch {len(history)}: total={breakdown.total:.4f} "
                  f"recon={breakdown.reconstruction:.4f} kl={breakdown.kl_user:.4f}")
        if train_config.checkpoint_every and len(history) % train_config.checkpoint_every == 0:
            M.save_checkpoint(ckpt_path, params, config)
    save()
    return ckpt_path, history
