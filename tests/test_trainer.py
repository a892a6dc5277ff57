"""Unit tests for the optimizer, batching, and the training loop."""

import csv
from dataclasses import replace

import numpy as np
import pytest

import np_oracle
from conftest import toy_config
from pagen import corpus as C
from pagen import model as M
from pagen import trainer as T
from pagen.autodiff import ContractError, Tensor
from pagen.objective import LossBreakdown
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
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    with pytest.raises(DivergenceError, match="w"):
        adam_step({"w": p}, AdamState())


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
    norm = clip_gradients({"a": a, "b": b}, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2) == pytest.approx(1.0)
    # below the threshold nothing changes
    a.grad = np.array([0.3])
    b.grad = np.array([0.4])
    clip_gradients({"a": a, "b": b}, max_norm=1.0)
    assert a.grad[0] == pytest.approx(0.3)


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
    rng = np.random.default_rng(4)
    shapes, params = _mixed_params(rng)
    grads = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
    grads["late"] = None
    for k, p in params.items():
        p.grad = None if grads[k] is None else grads[k].copy()
    want = np_oracle.clip_gradients_np(grads, max_norm=5.0)
    # the float64 sums run in another order: a few float64 roundings apart
    assert clip_gradients(params, max_norm=5.0) == pytest.approx(want, rel=1e-12)
    for k, p in params.items():
        expect = np.zeros(shapes[k], np.float32) if grads[k] is None else grads[k]
        np.testing.assert_allclose(p.grad, expect, rtol=1e-6)


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
        norms.append(real_clip(params, max_norm))
        return norms[-1]

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
