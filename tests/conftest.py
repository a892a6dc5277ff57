import contextlib
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from pagen import autodiff as ad
from pagen import corpus as C
from pagen import model as M


def toy_config(variant="PAGENERATOR", **overrides):
    """Small-dimension config shared across the unit tests."""
    base = dict(variant=variant, vocab_size=30, num_users=4, word_embed_dim=6,
                user_embed_dim=4, encoder_hidden=5, decoder_hidden=8, z_dim=3,
                bow_hidden=7, fact_rank=3, anneal_batches=10)
    base.update(overrides)
    return M.ModelConfig(**base)


def toy_batch(seed=0, batch=3, q_max=4, r_max=5, vocab=30):
    rng = np.random.default_rng(seed)
    user_idx = rng.integers(1, 4, batch).astype(np.int64)
    q_len = rng.integers(2, q_max + 1, batch)
    r_len = rng.integers(2, r_max + 1, batch)
    q_idx = np.zeros((batch, q_max), dtype=np.int64)
    r_idx = np.zeros((batch, r_max), dtype=np.int64)
    for i in range(batch):
        q_idx[i, :q_len[i]] = rng.integers(4, vocab, q_len[i])
        r_idx[i, :r_len[i]] = rng.integers(4, vocab, r_len[i])
    return user_idx, q_idx, q_len, r_idx, r_len


@pytest.fixture
def tiny_triples():
    """Deterministic handwritten corpus: 3 users, 6 triples."""
    rows = [
        ("alice", "hello there friend", "hi alice here"),
        ("alice", "how are you", "doing great thanks"),
        ("bob", "hello there", "bob says hello"),
        ("bob", "what is new", "nothing much today"),
        ("carol", "good morning", "morning to you"),
        ("carol", "see you later", "bye for now"),
    ]
    return [C.DialogueTriple(u, q.split(), r.split()) for u, q, r in rows]


class CountingPool:
    """A thread pool that counts the product blocks it is given."""

    def __init__(self, threads):
        self.pool = ThreadPoolExecutor(threads)
        self.blocks = 0

    def submit(self, fn, *args, **kwargs):
        self.blocks += 1
        return self.pool.submit(fn, *args, **kwargs)


@contextlib.contextmanager
def split_over(workers):
    """The engine's products split into up to `workers` blocks, on a pool
    that counts the blocks it runs (the caller runs one more per product).
    Tests set the worker count, never SPLIT_FLOOR: below the floor a block
    can round differently from the one-call product."""
    pool = CountingPool(max(workers - 1, 1))
    try:
        with mock.patch.object(ad, "WORKERS", workers), mock.patch.object(ad, "_pool", pool):
            yield pool
    finally:
        pool.pool.shutdown()
