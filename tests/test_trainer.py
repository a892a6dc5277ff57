"""Unit tests for the optimizer, batching, and the training loop."""

import csv
import threading
from dataclasses import replace

import numpy as np
import pytest

import np_oracle
from conftest import split_over, toy_batch, toy_config
from pagen import corpus as C
from pagen import generation as G
from pagen import model as M
from pagen import trainer as T
from pagen.autodiff import ContractError, Tensor, backward
from pagen.objective import LossBreakdown, total_loss
from pagen.trainer import (AdamState, DivergenceError, TrainConfig, adam_step,
                           batch_arrays, clip_gradients, encode_triples,
                           make_batches, train)


def test_adam_first_step_hand_value():
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([2.0])
    adam_step({"w": p}, AdamState(lr=0.1))
    # m_hat = 2, v_hat = 4, update = 0.1 * 2 / (2 + eps)
    assert p.data[0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_matches_reference_recurrence():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(5)
    p = Tensor(theta.copy(), requires_grad=True)
    state = AdamState(lr=0.01)
    m = np.zeros(5)
    v = np.zeros(5)
    for t in range(1, 6):
        g = rng.standard_normal(5)
        p.grad = g.copy()
        adam_step({"w": p}, state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta = theta - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.allclose(p.data, theta, atol=1e-12)


def test_adam_skips_params_without_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    adam_step({"w": p}, AdamState())
    assert p.data[0] == 1.0


def test_adam_rejects_nonfinite_gradient():
    # a finite float64 gradient can still overflow the float64 norm
    for grad, match in (([np.nan], "parameter w"), ([1.0, 1e200], "norm overflowed")):
        p = Tensor(np.zeros(len(grad)), requires_grad=True)
        p.grad = np.array(grad)
        with pytest.raises(DivergenceError, match=match):
            adam_step({"w": p}, AdamState(clip_norm=5.0))
        assert not p.data.any()


def test_adam_checks_every_gradient_before_updating():
    # a NaN on the last name in sorted order must stop the step before
    # the earlier names move
    rng = np.random.default_rng(0)
    params = {name: Tensor(rng.standard_normal(3), requires_grad=True)
              for name in ("a_first", "m_middle", "z_last")}
    state = AdamState(lr=0.1)
    for p in params.values():
        p.grad = rng.standard_normal(3)
    adam_step(params, state)
    before = {k: p.data.copy() for k, p in params.items()}
    moments = state.m.copy(), state.v.copy()
    for p in params.values():
        p.grad = rng.standard_normal(3)
    params["z_last"].grad[1] = np.nan
    with pytest.raises(DivergenceError, match="z_last"):
        adam_step(params, state)
    assert state.step == 1
    for k, p in params.items():
        assert np.array_equal(p.data, before[k])
    # the moments are flat arrays over every parameter
    assert np.array_equal(state.m, moments[0]) and np.array_equal(state.v, moments[1])


def test_clip_gradients():
    a = Tensor(np.array([3.0]), requires_grad=True)
    b = Tensor(np.array([4.0]), requires_grad=True)
    a.grad, b.grad = np.array([3.0]), np.array([4.0])
    assert clip_gradients({"a": a, "b": b}, max_norm=1.0) == (5.0, 0.2)
    assert a.grad[0] == 3.0 and b.grad[0] == 4.0  # the scale is adam_step's to apply
    # within the threshold, or with no threshold, the scale is one
    assert clip_gradients({"a": a, "b": b}, max_norm=5.0)[1] == 1.0
    assert clip_gradients({"a": a, "b": b}, max_norm=0.0)[1] == 1.0


def _mixed_params(rng):
    # one chunk and a part of another: the total is not a multiple of CHUNK
    shapes = {"big": (300, 251), "bias": (7,), "cube": (13, 5, 3), "late": (4, 6)}
    assert M.CHUNK < sum(np.prod(s) for s in shapes.values()) < 2 * M.CHUNK
    params = {k: Tensor(rng.uniform(-0.08, 0.08, s).astype(np.float32), requires_grad=True)
              for k, s in shapes.items()}
    return shapes, params


def test_flat_adam_is_bitwise_the_per_parameter_step():
    rng = np.random.default_rng(3)
    shapes, params = _mixed_params(rng)
    data = {k: p.data.copy() for k, p in params.items()}
    m, v = {}, {}
    state = AdamState(lr=0.01)
    for t in range(1, 6):
        grads = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
        if t == 1:
            grads["late"] = None  # its first gradient arrives at step 2
        for k, p in params.items():
            if t <= 2 or grads[k] is None:
                p.grad = None if grads[k] is None else grads[k].copy()  # packed again
            else:
                p.grad[...] = grads[k]  # written through the arena's view
        adam_step(params, state)
        np_oracle.adam_step_np(data, grads, m, v, t, lr=0.01)
        for k, p in params.items():
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == data[k].tobytes(), (t, k)
    assert state.step == 5


def test_flat_clip_matches_the_per_tensor_norm():
    for max_norm in (5.0, 1e4):  # a gradient that clips, and one that does not
        rng = np.random.default_rng(4)
        shapes, params = _mixed_params(rng)
        grads = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
        grads["late"] = None
        for k, p in params.items():
            p.grad = None if grads[k] is None else grads[k].copy()
        data = {k: p.data.copy() for k, p in params.items()}
        norm, scale = clip_gradients(params, max_norm=max_norm)
        for k, p in params.items():  # clip_gradients writes nothing
            expect = np.zeros(shapes[k], np.float32) if grads[k] is None else grads[k]
            assert p.grad.tobytes() == expect.tobytes(), k
        # np_oracle scales grads in place; its float64 sums run in another
        # order, a few float64 roundings apart
        assert norm == pytest.approx(np_oracle.clip_gradients_np(grads, max_norm), rel=1e-12)
        assert (scale < 1.0) == (max_norm == 5.0)
        # the update adam_step applies: the per-tensor clip, then per-tensor Adam
        state = AdamState(lr=0.01, clip_norm=max_norm)
        adam_step(params, state)
        np_oracle.adam_step_np(data, grads, {}, {}, 1, lr=0.01)
        assert state.norm == norm
        for k, p in params.items():
            assert p.data.tobytes() == data[k].tobytes(), (max_norm, k)


def test_adam_packs_arrays_it_did_not_make_by_value():
    # the weights and the gradient each fill an array of their own, the
    # gradient in another element order: not an arena, so packed by copying
    data = np.arange(6.0).reshape(2, 3)
    p = Tensor(data, requires_grad=True)
    p.grad = np.arange(6.0).reshape(3, 2).T
    want = {"w": data.copy()}
    np_oracle.adam_step_np(want, {"w": p.grad.copy()}, {}, {}, 1, lr=0.1)
    adam_step({"w": p}, AdamState(lr=0.1))
    assert p.data.tobytes() == want["w"].tobytes()


def test_arena_keeps_the_weights_init_params_laid_out():
    params = M.init_params(toy_config(), seed=3)
    flat = params["out_W"].data.base
    W, G = T.arena(params)
    assert W is flat and G.shape == W.shape and not G.any()
    # views of one array that fill it, but not in sorted-name order: copied
    flat = np.arange(4.0)
    params = {"a": Tensor(flat[2:], requires_grad=True), "b": Tensor(flat[:2], requires_grad=True)}
    W, _ = T.arena(params)
    assert W is not flat and W.tolist() == [2.0, 3.0, 0.0, 1.0]


def test_adam_rejects_mixed_dtypes():
    params = {"a": Tensor(np.zeros(2, np.float32), requires_grad=True),
              "b": Tensor(np.zeros(2, np.float64), requires_grad=True)}
    with pytest.raises(ContractError, match="float32, float64"):
        adam_step(params, AdamState())


def test_make_batches_partitions_and_buckets():
    triples = C.generate_synthetic(4, 40, 0.9, seed=0)
    vocab = C.Vocabulary.build(triples)
    users = C.UserTable.build({t.user_id for t in triples})
    indexed = encode_triples(triples, vocab, users)
    batches = make_batches(indexed, 16, np.random.default_rng(1))
    flat = sorted(i for b in batches for i in b)
    assert flat == list(range(len(indexed)))
    # within a batch reply lengths stay close (bucketed by sorted length)
    for b in batches:
        lens = [len(indexed[i][2]) for i in b]
        assert max(lens) - min(lens) <= 2


def test_batch_arrays_shapes():
    indexed = [(1, [5, 6], [7, 8, 9]), (2, [4], [6, 5])]
    users, q_idx, q_len, r_idx, r_len = batch_arrays(indexed, [0, 1])
    assert users.tolist() == [1, 2]
    assert q_idx.shape == (2, 2) and r_idx.shape == (2, 3)
    assert q_len.tolist() == [2, 1] and r_len.tolist() == [3, 2]


def _tiny_setup(seed=0):
    triples = C.generate_synthetic(3, 30, 0.9, seed=seed)
    vocab = C.Vocabulary.build(triples)
    users = C.UserTable.build({t.user_id for t in triples})
    return triples, vocab, users


def test_train_is_deterministic(tmp_path):
    triples, vocab, users = _tiny_setup()
    cfg = toy_config(vocab_size=len(vocab), num_users=len(users))
    tcfg = TrainConfig(batch_size=16, epochs=1, max_batches=4)
    c1, h1 = train(triples, vocab, users, cfg, tcfg, seed=5, out_dir=tmp_path / "a")
    c2, h2 = train(triples, vocab, users, cfg, tcfg, seed=5, out_dir=tmp_path / "b")
    assert open(c1, "rb").read() == open(c2, "rb").read()
    assert [b.total for b in h1] == [b.total for b in h2]


def test_train_seed_changes_result(tmp_path):
    triples, vocab, users = _tiny_setup()
    cfg = toy_config(vocab_size=len(vocab), num_users=len(users))
    tcfg = TrainConfig(batch_size=16, epochs=1, max_batches=4)
    c1, _ = train(triples, vocab, users, cfg, tcfg, seed=5, out_dir=tmp_path / "a")
    c2, _ = train(triples, vocab, users, cfg, tcfg, seed=6, out_dir=tmp_path / "b")
    assert open(c1, "rb").read() != open(c2, "rb").read()


def test_train_loss_decreases(tmp_path):
    triples, vocab, users = _tiny_setup()
    cfg = toy_config(variant="S2SA", vocab_size=len(vocab), num_users=len(users))
    tcfg = TrainConfig(batch_size=16, epochs=8, lr=5e-3)
    _, history = train(triples, vocab, users, cfg, tcfg, seed=0, out_dir=tmp_path / "r")
    per_epoch = len(history) // 8
    first = np.mean([b.reconstruction for b in history[:per_epoch]])
    last = np.mean([b.reconstruction for b in history[-per_epoch:]])
    assert last < first


def test_train_writes_history_and_checkpoint(tmp_path):
    triples, vocab, users = _tiny_setup()
    cfg = toy_config(variant="CVAE", vocab_size=len(vocab), num_users=len(users))
    tcfg = TrainConfig(batch_size=16, epochs=1, max_batches=3, checkpoint_every=2)
    ckpt, history = train(triples, vocab, users, cfg, tcfg, seed=1,
                          out_dir=tmp_path / "r")
    assert len(history) == 3
    params, cfg2 = M.load_checkpoint(ckpt)
    assert cfg2 == cfg
    with open(tmp_path / "r" / "history.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0][:2] == ["batch", "reconstruction"]
    assert len(rows) == 4


def test_history_records_grad_norm_and_clip_events(tmp_path, monkeypatch):
    triples, vocab, users = _tiny_setup()
    cfg = toy_config(variant="CVAE", vocab_size=len(vocab), num_users=len(users))
    tcfg = TrainConfig(batch_size=16, epochs=2, clip_norm=1.5)
    real_clip, norms = T.clip_gradients, []

    def clip(params, max_norm):
        norm, scale = real_clip(params, max_norm)
        norms.append(norm)
        return norm, scale

    monkeypatch.setattr(T, "clip_gradients", clip)
    _, history = train(triples, vocab, users, cfg, tcfg, seed=1, out_dir=tmp_path / "r")
    with open(tmp_path / "r" / "history.csv") as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == ["batch", *LossBreakdown.FIELDS, "grad_norm", "clipped"]
    assert len(rows) == len(history) == len(norms)
    assert [float(r["grad_norm"]) for r in rows] == norms
    assert [r["clipped"] for r in rows] == [str(int(n > 1.5)) for n in norms]
    assert {r["clipped"] for r in rows} == {"0", "1"}  # the run has both kinds of batch


def test_train_packs_weights_and_gradients_into_one_array_each(tmp_path):
    triples, vocab, users = _tiny_setup()
    cfg = toy_config(variant="PAGENERATOR", vocab_size=len(vocab), num_users=len(users))
    params = M.init_params(cfg, seed=0)
    train(triples, vocab, users, cfg, TrainConfig(batch_size=16, epochs=1, max_batches=2),
          seed=0, out_dir=tmp_path / "r", params=params)
    for attr in ("data", "grad"):
        bases = {id(getattr(p, attr).base) for p in params.values()}
        assert len(bases) == 1, attr
        flat = getattr(params["word_emb"], attr).base
        assert flat.size == sum(p.data.size for p in params.values()), attr


def test_divergence_writes_last_good_state(tmp_path, monkeypatch):
    triples, vocab, users = _tiny_setup()
    cfg = toy_config(vocab_size=len(vocab), num_users=len(users))
    tcfg = TrainConfig(batch_size=16, epochs=2)
    good, _ = train(triples, vocab, users, cfg, replace(tcfg, max_batches=2), seed=3,
                    out_dir=tmp_path / "good")

    params = M.init_params(cfg, seed=3)
    real_backward, calls = T.backward, []

    def poisoned_backward(loss):
        real_backward(loss)
        calls.append(loss)
        if len(calls) == 3:  # the third batch gets a NaN gradient
            params["word_emb"].grad[4, 0] = np.nan

    monkeypatch.setattr(T, "backward", poisoned_backward)
    with pytest.raises(DivergenceError, match="aborted at batch 2"):
        train(triples, vocab, users, cfg, tcfg, seed=3, out_dir=tmp_path / "bad",
              params=params)
    # the written state is that of the last good batch
    for name in ("model.ckpt", "history.csv"):
        assert (tmp_path / "bad" / name).read_bytes() == (tmp_path / "good" / name).read_bytes()


def test_annealing_starts_near_zero(tmp_path):
    triples, vocab, users = _tiny_setup()
    cfg = toy_config(variant="CVAE", vocab_size=len(vocab), num_users=len(users),
                     anneal_batches=100000)
    tcfg = TrainConfig(batch_size=16, epochs=1, max_batches=4)
    _, history = train(triples, vocab, users, cfg, tcfg, seed=2, out_dir=tmp_path / "r")
    assert all(b.anneal_weight < 0.001 for b in history)


def test_train_zeroes_a_gradient_no_backward_reached(tmp_path):
    """The trainer overwrites the gradient arena each batch instead of
    zero-filling it first; a parameter that no gradient reaches gets its
    leftover gradient zeroed before clipping and Adam, so it stays put."""
    triples, vocab, users = _tiny_setup()
    cfg = toy_config(vocab_size=len(vocab), num_users=len(users))
    params = M.init_params(cfg, seed=0)
    params["unused"] = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    T.arena(params)[1].fill(7.0)  # left over from an earlier step
    train(triples, vocab, users, cfg, TrainConfig(batch_size=16, epochs=1, max_batches=2),
          seed=0, out_dir=tmp_path / "r", params=params)
    assert np.array_equal(params["unused"].data, np.ones((2, 3)))
    assert not params["unused"].grad.any()
    assert params["word_emb"].grad.any()


def test_a_failed_save_leaves_the_previous_artifacts(tmp_path):
    """Checkpoint and history go to a temporary file that replaces the old
    one only once complete: a writer failing midway leaves the previous
    model.ckpt loadable, history.csv unchanged and no temporary file."""
    triples, vocab, users = _tiny_setup()
    cfg = toy_config(vocab_size=len(vocab), num_users=len(users))
    run = tmp_path / "r"
    ckpt, history = train(triples, vocab, users, cfg,
                          TrainConfig(batch_size=16, epochs=1, max_batches=2),
                          seed=0, out_dir=run)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    params, _ = M.load_checkpoint(ckpt)
    last = max(params)  # written last, after every other tensor
    params[last] = Tensor(np.full(params[last].shape, "x", dtype=object))
    with pytest.raises(ValueError):
        M.save_checkpoint(ckpt, params, cfg)
    with pytest.raises(AttributeError):  # fails on its last row
        T.write_history_csv(run / "history.csv", history + [None], [(1.0, False)] * 3)
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    assert M.load_checkpoint(ckpt)[1] == cfg


def _mid_corpus(words=4000, triples=32, seed=0):
    """32 triples of 12 words drawn from 4000, a vocabulary of all 4000:
    a model whose output-layer products cross SPLIT_FLOOR."""
    rng = np.random.default_rng(seed)
    names = [f"w{i}" for i in range(words)]
    data = [C.DialogueTriple(f"user{i % 4}", [names[j] for j in rng.integers(0, words, 12)],
                             [names[j] for j in rng.integers(0, words, 12)])
            for i in range(triples)]
    vocab = C.Vocabulary.build(data + [C.DialogueTriple("all", names, names[:1])])
    return data, vocab, C.UserTable.build(t.user_id for t in data)


def _mid_config(variant, vocab, users, attention):
    return M.ModelConfig(variant=variant, vocab_size=len(vocab), num_users=len(users),
                         word_embed_dim=64, user_embed_dim=32, encoder_hidden=64,
                         decoder_hidden=256, z_dim=32, bow_hidden=64, fact_rank=8,
                         use_attention=attention, anneal_batches=10)


def _trained_bytes(corpus, cfg, out_dir, batches=1):
    """The model.ckpt and history.csv bytes of a training of `batches` steps."""
    train(*corpus, cfg, TrainConfig(batch_size=32, epochs=1, max_batches=batches),
          seed=3, out_dir=out_dir)
    return [(out_dir / name).read_bytes() for name in ("model.ckpt", "history.csv")]


@pytest.mark.parametrize("attention", [False, True])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_split_products_keep_the_bits_at_any_worker_count(tmp_path, variant, attention):
    """At V=4004 and decoder_hidden=256 the output layer's products split
    over the workers.  A training step, beam search and scoring give the
    same bits at 1, 2 and 3 workers."""
    corpus = _mid_corpus()
    users, cfg = corpus[2], _mid_config(variant, corpus[1], corpus[2], attention)
    params = M.init_params(cfg, seed=4)
    requests = [G.GenRequest(query=list(range(4 + i, 16 + 2 * i)), user_index=i % len(users),
                             beam_width=10, max_length=6, seed=i) for i in range(4)]
    items = [(list(range(5, 12)), [list(range(20 + j, 30 + 2 * j)) for j in range(6)], 1),
             (list(range(40, 44)), [list(range(60, 72)), [7, 8, 9]], 2)]
    runs = []
    for workers in (1, 2, 3):
        with split_over(workers) as pool:
            step = _trained_bytes(corpus, cfg, tmp_path / str(workers))
            blocks = [pool.blocks]
            hyps = [[(h.tokens, np.float64(h.log_prob).tobytes()) for h in hs]
                    for hs in G.generate_many(requests, params, cfg)]
            blocks.append(pool.blocks)
            scores = [s.tobytes() for s in G.score_many(items, params, cfg, seeds=[0, 1])]
            blocks.append(pool.blocks)
        runs.append((step, hyps, scores))
        if workers > 1:  # each of the three reached the pool
            assert 0 < blocks[0] < blocks[1] < blocks[2]
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("attention", [False, True])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_no_product_takes_the_one_row_path(monkeypatch, variant, attention):
    """No product of a toy training step (forward and backward), of beam
    search or of scoring has a one-row first operand, which numpy would run
    down its gemv path, rounding otherwise than gemm: not with one-row
    batches, beams, queries and replies either."""
    cfg = toy_config(variant, use_attention=attention)
    params = M.init_params(cfg, seed=6)
    firsts, real = [], np.matmul

    def matmul(a, *args, **kwargs):
        firsts.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", matmul)
    for batch in (1, 3):
        noise = np.random.default_rng(batch).standard_normal((batch, cfg.z_dim)) \
            .astype(np.float32) if cfg.is_latent else None
        backward(total_loss(toy_batch(seed=batch, batch=batch), params, cfg, noise=noise,
                            batch_index=5)[0])
    G.generate_many([G.GenRequest(query=[7], user_index=1, beam_width=1, max_length=4),
                     G.GenRequest(query=[5, 6, 9], user_index=2, beam_width=3, max_length=4)],
                    params, cfg)
    G.score_many([([8], [[9, 10]], 1), ([5, 6], [[11], [12, 13, 14]], 2)], params, cfg, seeds=[0])
    monkeypatch.undo()
    assert len(firsts) > 20
    assert not [s for s in firsts if len(s) < 2 or s[-2] == 1], firsts


def test_two_threads_training_at_once_keep_their_sequential_bits(tmp_path):
    """Two threads train two models at once, their products sharing the
    pool, and each writes the bits of training alone at one worker."""
    corpus = _mid_corpus()
    configs = [_mid_config("PAGENERATOR", corpus[1], corpus[2], False),
               _mid_config("S2SA", corpus[1], corpus[2], True)]
    with split_over(1):
        alone = [_trained_bytes(corpus, cfg, tmp_path / f"alone{i}", batches=2)
                 for i, cfg in enumerate(configs)]
    together = [None, None]

    def run(i):
        together[i] = _trained_bytes(corpus, configs[i], tmp_path / f"together{i}", batches=2)

    with split_over(2) as pool:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert pool.blocks > 0
    assert together == alone
