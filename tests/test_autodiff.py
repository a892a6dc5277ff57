"""Unit tests for the reverse-mode autodiff engine."""

import inspect
import re
import threading

import numpy as np
import pytest

from pagen import autodiff as ad
from pagen import generation, model, objective
from pagen.autodiff import ContractError, ShapeError, Tensor, backward, grad_check
from pagen.selfcheck import check_end_to_end, check_primitives, primitive_cases


def test_forward_values():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert float(ad.reduce_sum(ad.mul(x, x)).data) == 30.0
    sm = ad.softmax(Tensor(np.zeros((1, 3)))).data
    assert np.allclose(sm, 1.0 / 3.0)
    assert np.allclose(ad.log_softmax(Tensor(np.zeros((1, 3)))).data, -np.log(3.0))


def test_simple_gradient():
    x = Tensor(np.array([3.0]), requires_grad=True)
    backward(ad.reduce_sum(ad.mul(x, x)))
    assert np.allclose(x.grad, 6.0)


def test_fanout_accumulates():
    # f(x) = x*x + 3x uses x through two paths; grad is 2x + 3
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    backward(ad.reduce_sum(ad.add(ad.mul(x, x), ad.scale(x, 3.0))))
    assert np.allclose(x.grad, 2.0 * x.data + 3.0)


def test_bias_broadcast_gradient():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    backward(ad.reduce_sum(ad.add(x, b)))
    assert np.allclose(b.grad, [3.0, 3.0])
    assert np.allclose(x.grad, 1.0)


def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        backward(ad.mul(x, x))


def test_shape_errors_name_the_op():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 2)))
    for op, msg in ((ad.add, "add"), (ad.sub, "sub"), (ad.mul, "mul")):
        with pytest.raises(ShapeError, match=msg):
            op(a, b)
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(a, Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError, match="pick"):
        ad.pick(a, np.array([0, 1, 2]))
    # a trailing-axes operand must match a's trailing axes exactly
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.ones((3, 4))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match="pick"):
        ad.pick(Tensor(np.ones((2, 3, 4))), np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(ShapeError, match="lstm"):  # W has no rows for the state
        ad.lstm(Tensor(np.ones((6, 4))), Tensor(np.ones((4, 8))), Tensor(np.ones(8)),
                Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))), sizes=[3, 3])
    with pytest.raises(ShapeError, match="contract"):
        ad.contract("ij,jk->ik", a, a)
    with pytest.raises(ShapeError, match="contract"):
        ad.contract("ij,j->j", a, Tensor(np.ones(3)))  # i summed inside one operand


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_affine_log_softmax_pick_is_bitwise_the_ops_apart(monkeypatch, dtype):
    """On a (T, B, d) grid whose N scored rows have a target and the others
    -1, the fused output node equals matmul, log_softmax and pick applied
    to the N gathered rows bitwise: the picked values and the gradients of
    x, W and b, with N below, equal to and above one row block of the
    exp-sums.  A row without a target reads 0 and gets zero gradients in
    x.  The mask zeroes the first and last scored rows, whose gradients
    arrive as +0.0 and -0.0, and the first one's softmax underflows to 0
    away from its largest logit."""
    V, grid = 11, (3, 4)
    monkeypatch.setattr(ad, "_EXP_BLOCK_BYTES", 3 * V * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(5)
    W0, b0 = (rng.standard_normal(s).astype(dtype) for s in ((6, V), (V,)))
    for n in (2, 3, 7):
        x0 = rng.standard_normal(grid + (6,)).astype(dtype)
        scored = np.sort(rng.choice(x0[..., 0].size, n, replace=False))
        x0.reshape(-1, 6)[scored[0]] *= 300
        targets = np.full(grid, -1)
        targets.reshape(-1)[scored] = rng.integers(0, V, n)
        mask = np.r_[0, np.ones(n - 2), 0].astype(dtype)
        weights = rng.standard_normal(n).astype(dtype)
        weights[0], weights[-1] = abs(weights[0]), -abs(weights[-1])

        def grid_of(rows):  # the N per-row values on the grid, 0 elsewhere
            full = np.zeros(grid, dtype=dtype)
            full.reshape(-1)[scored] = rows
            return Tensor(full)

        def run(fused):
            x = Tensor(x0.copy() if fused else x0.reshape(-1, 6)[scored], requires_grad=True)
            W, b = (Tensor(a.copy(), requires_grad=True) for a in (W0, b0))
            h = ad.scale(x, 1.0)
            if fused:
                out = ad.affine_log_softmax_pick(h, W, b, targets)
                m, w = grid_of(mask), grid_of(weights)
            else:
                out = ad.pick(ad.log_softmax(ad.matmul(h, W, b)), targets.reshape(-1)[scored])
                m, w = Tensor(mask), Tensor(weights)
            backward(ad.reduce_sum(ad.mul(ad.mul(out, m), w)))
            assert out.data.dtype == x.grad.dtype == dtype
            if not fused:
                return out.data, x.grad, W.grad, b.grad
            unscored = np.setdiff1d(np.arange(targets.size), scored)
            for a in (out.data.reshape(-1), x.grad.reshape(-1, 6)):
                assert not a[unscored].any() and not np.signbit(a[unscored]).any()
            return out.data.reshape(-1)[scored], x.grad.reshape(-1, 6)[scored], W.grad, b.grad

        got, want = run(True), run(False)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], n


def test_affine_log_softmax_pick_takes_one_target_per_row():
    x, W, b = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 5))), Tensor(np.ones(5))
    targets = np.zeros((2, 3), dtype=np.int64)
    for bad in (np.zeros((2, 3, 2), dtype=np.int64), np.zeros((3, 2), dtype=np.int64),
                np.zeros(2, dtype=np.int64)):
        with pytest.raises(ShapeError, match="affine_log_softmax_pick"):
            ad.affine_log_softmax_pick(x, W, b, bad)
    for bad_W, bad_b in ((Tensor(np.ones((3, 5))), b), (W, Tensor(np.ones(4)))):
        with pytest.raises(ShapeError, match="affine_log_softmax_pick"):
            ad.affine_log_softmax_pick(x, bad_W, bad_b, targets)
    with pytest.raises(ShapeError, match="affine_log_softmax_pick"):
        ad.affine_log_softmax_pick(Tensor(np.ones(4)), W, b, np.zeros((), dtype=np.int64))
    assert ad.affine_log_softmax_pick(x, W, b, targets).shape == (2, 3)
    # no row with a target: zeros, and zero gradients for every input
    x, W, b = (Tensor(t.data, requires_grad=True) for t in (x, W, b))
    out = ad.affine_log_softmax_pick(x, W, b, np.full((2, 3), -1))
    backward(ad.reduce_sum(out))
    assert not out.data.any() and not any(t.grad.any() for t in (x, W, b))


def test_embedding_index_contract():
    table = Tensor(np.ones((4, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        ad.embedding(table, np.array([0, 4]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_take_reads_zero_at_minus_one_and_sums_repeats(dtype):
    """take reads flat positions in the indices' shape and keeps a's dtype;
    -1 reads 0 and takes no gradient, a repeated position sums its
    gradients, and a position outside [-1, a.size) raises ContractError."""
    a = Tensor(np.arange(6, dtype=dtype).reshape(2, 3) + 1, requires_grad=True)
    out = ad.take(a, [[5, -1], [0, 5]])
    assert out.data.dtype == dtype and out.data.tolist() == [[6, 0], [1, 6]]
    backward(ad.reduce_sum(ad.mul(out, Tensor(np.array([[1, 2], [3, 4]], dtype=dtype)))))
    assert a.grad.dtype == dtype and a.grad.tolist() == [[3, 0, 0], [0, 0, 5]]
    for bad in ([6], [-2]):
        with pytest.raises(ContractError, match="take"):
            ad.take(a, bad)


def test_scatter_gradients_are_bitwise_add_at_with_repeated_indices():
    """embedding adds its gradient into table.grad, and pick into a zeros
    buffer, by one flat 1-D np.add.at; with repeated indices that equals
    the 2-D np.add.at bitwise, in float32 where the order shows."""
    rng = np.random.default_rng(0)
    grad0 = rng.standard_normal((7, 5)).astype(np.float32)
    table = Tensor(rng.standard_normal((7, 5)).astype(np.float32), requires_grad=True)
    table.grad = view = grad0.copy()
    idx = rng.integers(0, 3, (6, 4))  # three rows share 24 lookups
    g = (rng.standard_normal((6, 4, 5)) * 10.0 ** rng.integers(-4, 4, (6, 4, 1))).astype(np.float32)
    out = ad.embedding(table, idx)
    out._backward(g)
    expect = grad0.copy()
    np.add.at(expect, idx, g)
    assert table.grad is view  # written in place, as into an arena view
    assert table.grad.tobytes() == expect.tobytes()

    a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
    cols = rng.integers(0, 4, (2, 3, 6))  # each row picks entries several times
    gp = (rng.standard_normal((2, 3, 6)) * 10.0 ** rng.integers(-4, 4, (2, 3, 6))).astype(np.float32)
    ad.pick(a, cols)._backward(gp)
    expect = np.zeros((6, 4), dtype=np.float32)
    np.add.at(expect, (np.arange(6)[:, None], cols.reshape(6, 6)), gp.reshape(6, 6))
    assert a.grad.tobytes() == expect.reshape(a.shape).tobytes()


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = ad.reduce_sum(ad.tanh(x))
        assert not out.requires_grad
        assert out._backward is None
    assert ad.grad_enabled()


def test_no_grad_is_per_thread():
    """A thread inside no_grad() does not stop another from recording."""
    inside, release = threading.Event(), threading.Event()

    def hold():
        with ad.no_grad():
            inside.set()
            release.wait(10)

    thread = threading.Thread(target=hold)
    thread.start()
    try:
        assert inside.wait(10)
        x = Tensor(np.ones(3), requires_grad=True)
        out = ad.reduce_sum(ad.tanh(x))
        assert ad.grad_enabled()
        assert out._backward is not None
    finally:
        release.set()
        thread.join()


def test_lstm_under_no_grad_keeps_no_backward():
    rng = np.random.default_rng(0)
    args = [Tensor(rng.standard_normal(s), requires_grad=True)
            for s in ((6, 4), (4 + 5, 20), (20,), (2, 5), (2, 5))]
    layout = dict(sizes=[2, 3, 1], parents=[1, 0, 0, 1, 1, 2])
    with ad.no_grad():
        hs, c = ad.lstm(*args, **layout)
        h = ad.index(hs, slice(5, 6))
    assert hs.shape == (6, 5) and h.shape == c.shape == (1, 5)
    for t in (hs, h):
        assert not t.requires_grad and t._backward is None and t._parents == ()
    hs_rec, c_rec = ad.lstm(*args, **layout)
    assert np.array_equal(hs.data, hs_rec.data) and np.array_equal(h.data, hs.data[5:])
    assert np.array_equal(c, c_rec) and hs_rec._backward is not None


def test_one_lstm_call_adds_one_graph_node(monkeypatch):
    """ad.lstm records its states hs as its only node; the last step's cells
    are a plain array beside it."""
    rng = np.random.default_rng(1)
    args = [Tensor(rng.standard_normal(s), requires_grad=True)
            for s in ((6, 4), (4 + 5, 20), (20,), (2, 5), (2, 5))]
    nodes, real = [], ad._result

    def spy(*a):
        nodes.append(real(*a))
        return nodes[-1]

    monkeypatch.setattr(ad, "_result", spy)
    hs, c = ad.lstm(*args, sizes=[2, 2, 2])
    assert nodes == [hs] and isinstance(c, np.ndarray) and c.shape == (2, 5)


def _packed(grid, lengths, reverse=False):
    """The rows of a time-major (T, B, ...) grid in ad.lstm's packed layout,
    rows longest first: row b's steps are its first lengths[b] positions,
    or those positions last to first (reverse, as the encoder's backward
    direction reads them).  Returns (packed rows, sizes, order, at), where
    at[t, b] is the packed row of grid position (t, b), -1 past the row's
    end."""
    T, B = grid.shape[:2]
    order = np.argsort(-lengths, kind="stable")
    step = np.arange(T)[:, None]
    live = step < lengths[order]
    src = np.where(live, lengths[order] - 1 - step, 0) if reverse else np.broadcast_to(step, live.shape)
    number = np.cumsum(live).reshape(live.shape) - 1  # the packed row of (step, sorted row)
    s = lengths - 1 - step if reverse else np.broadcast_to(step, (T, B))
    at = np.where(step < lengths, number[np.clip(s, 0, T - 1), np.argsort(order)], -1)
    return grid[src, order][live], live.sum(axis=1)[:lengths.max()], order, at


def _lstm_step_by_step(x, W, b, h0, c0, static, sizes, parents):
    """Reference for ad.lstm: the same layer built one step at a time from
    elementary ops, each step's parent states (and each row's static row)
    gathered by ad.embedding, whose backward sums a parent's children."""
    def sigmoid(x):  # 0.5 tanh(x / 2) + 0.5
        return ad.add_const(ad.scale(ad.tanh(ad.scale(x, 0.5)), 0.5), 0.5)

    H = h0.shape[1]
    h, c, lane, hs, first = h0, c0, static, [], 0
    for n in sizes:
        p = np.arange(n) if parents is None else np.asarray(parents[first:first + n])
        h, c = ad.embedding(h, p), ad.embedding(c, p)
        lane = None if static is None else ad.embedding(lane, p)
        inputs = [ad.index(x, slice(first, first + n))] + ([lane] if static is not None else [])
        z = ad.add(ad.matmul(ad.concat(inputs + [h], axis=1), W), b)
        i, f, o = (sigmoid(ad.index(z, np.s_[:, k * H:(k + 1) * H])) for k in range(3))
        g = ad.tanh(ad.index(z, np.s_[:, 3 * H:]))
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
        hs.append(h)
        first += n
    return ad.concat(hs, axis=0), c


# ragged rows for the masked and reverse layouts, and a prefix tree whose
# rows share parents, at step 0 (an h0 row) and later
LSTM_LENGTHS = np.array([5, 2, 3])
LSTM_TREE = ([2, 3, 2, 2, 1], [2, 0, 0, 0, 1, 2, 2, 1, 1, 0])


@pytest.mark.parametrize("variant", ["plain", "masked", "reverse", "static", "shared"])
def test_lstm_matches_step_by_step_graph(variant):
    """Loss, the last step's cells and every gradient (through the states
    and the last step's states, a slice of them) agree with the step-by-step
    reference to float64 rounding.  masked and reverse pack ragged rows
    longest first, masked with each row's state read from its own h0 row
    (step 0's parents permute h0); shared is a prefix tree with a static
    input, so BPTT sums the gradients of a parent's children and of a
    lane's static row."""
    rng = np.random.default_rng(5)
    T, B, n_in, H = 5, 3, 4, 6
    n_s = 3 if variant in ("static", "shared") else 0
    grid = rng.standard_normal((T, B, n_in))
    data = {k: rng.standard_normal(shape) for k, shape in (
        ("W", (n_in + n_s + H, 4 * H)), ("b", (4 * H,)), ("h0", (B, H)), ("c0", (B, H)),
        ("static", (B, n_s)))}
    if variant in ("masked", "reverse"):
        x, sizes, order, _ = _packed(grid, LSTM_LENGTHS, reverse=variant == "reverse")
        parents = None
        if variant == "masked":
            parents = np.concatenate([order] + [np.arange(n) for n in sizes[1:]])
    elif variant == "shared":
        sizes, parents = LSTM_TREE
        x = grid.reshape(T * B, n_in)[:sum(sizes)]
    else:
        x, sizes, parents = grid.reshape(T * B, n_in), [B] * T, None
    mix = rng.standard_normal((len(x), H))
    last = slice(len(x) - sizes[-1], len(x))

    def run(fused):
        p = {k: Tensor(v.copy(), requires_grad=True) for k, v in data.items()}
        xs = Tensor(x.copy(), requires_grad=True)
        args = (xs, p["W"], p["b"], p["h0"], p["c0"])
        static = p["static"] if n_s else None
        if fused:
            hs, c = ad.lstm(*args, sizes=sizes, parents=parents, static=static)
        else:
            hs, c = _lstm_step_by_step(*args, static, sizes, parents)
            c = c.data
        h = ad.index(hs, last)
        loss = ad.add(ad.reduce_sum(ad.mul(h, h)),
                      ad.reduce_sum(ad.mul(ad.tanh(hs), Tensor(mix))))
        backward(loss)
        grads = {k: v.grad for k, v in p.items() if k != "static" or n_s}
        grads["x"] = xs.grad
        return float(loss.data), c, grads

    loss, c, grads = run(fused=True)
    ref_loss, ref_c, ref_grads = run(fused=False)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert np.allclose(c, ref_c, rtol=1e-12, atol=1e-15)
    assert grads.keys() == ref_grads.keys()
    for k in grads:
        assert np.allclose(grads[k], ref_grads[k], rtol=1e-10, atol=1e-12), k


def _lstm_halving_pre_np(x, W, b, h0, c0, static, mask, reverse):
    """ad.lstm's forward as it was before it halved each step, and before it
    packed its rows: the whole (T, B) pre-activation block times half, and
    h @ (W_h * half), with a masked step keeping its row's state and
    reverse running the steps t = T-1 .. 0."""
    T, B, n_in = x.shape
    H = h0.shape[1]
    n_s = 0 if static is None else static.shape[1]
    Wx, Ws, Wh = W[:n_in], W[n_in:n_in + n_s], W[n_in + n_s:]
    half = np.where(np.arange(4 * H) < 3 * H, 0.5, 1.0).astype(W.dtype)
    shift = 1.0 - half
    pre = (x.reshape(T * B, n_in) @ Wx).reshape(T, B, 4 * H) + b
    if static is not None:
        pre += static @ Ws
    pre *= half
    Wh_half = Wh * half
    h, c, hs, cs = h0, c0, np.empty((T, B, H), dtype=x.dtype), np.empty((T, B, H), dtype=x.dtype)
    for t in (range(T - 1, -1, -1) if reverse else range(T)):
        a = np.tanh(pre[t] + h @ Wh_half) * half + shift
        c_new = a[:, H:2 * H] * c + a[:, :H] * a[:, 3 * H:]
        h_new = a[:, 2 * H:3 * H] * np.tanh(c_new)
        if mask is not None:
            keep = mask[t][:, None]
            h_new, c_new = np.where(keep, h_new, h), np.where(keep, c_new, c)
        h, c = h_new, c_new
        hs[t], cs[t] = h, c
    return hs, cs


@pytest.mark.parametrize("variant", ["plain", "masked", "reverse", "static"])
def test_lstm_forward_is_bitwise_the_halved_block_formula(variant):
    """Halving each step's gate pre-activations gives the bits of halving
    the whole block and W_h: a power-of-two scale commutes with rounding.
    And packing gives the bits of a masked (T, B) pass: masked runs each
    row's first steps, reverse each row's steps last to first, as the
    encoder's backward direction does, each step only on its live rows
    (one of them, at the last steps, as the first row of a two-row
    product)."""
    rng = np.random.default_rng(11)
    T, B, n_in, H = 7, 5, 6, 9
    n_s = 4 if variant == "static" else 0
    f32 = {k: rng.standard_normal(shape).astype(np.float32) for k, shape in (
        ("x", (T, B, n_in)), ("W", (n_in + n_s + H, 4 * H)), ("b", (4 * H,)),
        ("h0", (B, H)), ("c0", (B, H)), ("static", (B, n_s)))}
    static = f32["static"] if n_s else None
    lengths = rng.integers(1, T + 1, B) if variant in ("masked", "reverse") else np.full(B, T)
    lengths[np.argmax(lengths)] = T  # one row runs every step, alone at the last ones
    mask = np.arange(T)[:, None] < lengths if variant != "plain" else None
    reverse = variant == "reverse"
    want_hs, want_cs = _lstm_halving_pre_np(f32["x"], f32["W"], f32["b"], f32["h0"],
                                            f32["c0"], static, mask, reverse)
    x, sizes, order, at = _packed(f32["x"], lengths, reverse)
    h0, c0 = f32["h0"][order], f32["c0"][order]  # the packed rows are longest first
    live = at >= 0
    for grad in (True, False):
        args = [Tensor(a, requires_grad=grad) for a in (x, f32["W"], f32["b"], h0, c0)]
        hs, c = ad.lstm(*args, sizes=sizes,
                        static=None if static is None else Tensor(static[order]))
        assert hs.data.dtype == np.float32
        assert hs.data[at[live]].tobytes() == want_hs[live].tobytes()
        ends = (lengths - 1)[order[:sizes[-1]]] if not reverse else np.zeros(sizes[-1], int)
        assert c.tobytes() == want_cs[ends, order[:sizes[-1]]].tobytes()


def test_hinge_floor_values_and_subgradient():
    x = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
    out = ad.hinge_floor(x, 0.0)
    assert np.allclose(out.data, [0.0, 0.0, 2.0])
    backward(ad.reduce_sum(out))
    # subgradient is zero at and below the kink
    assert np.allclose(x.grad, [0.0, 0.0, 1.0])


def test_primitive_gradients_many_seeds():
    # finite differences against every primitive across 100 random draws
    for seed in range(100):
        for name, fn, params in primitive_cases(seed):
            errors = grad_check(fn, params, h=1e-4)
            assert all(err < 1e-4 for err in errors.values()), \
                f"seed {seed} primitive {name}: {errors}"


def test_check_primitives_summary_lines():
    ok, lines = check_primitives(seed=0)
    assert ok
    assert len(lines) == len(primitive_cases(0))
    assert all(line.startswith("ok") for line in lines)


def test_grad_check_flags_wrong_derivative():
    # an op whose recorded backward rule is deliberately off by 10%, or NaN
    x = Tensor(np.random.default_rng(0).standard_normal(4), requires_grad=True)

    def bad_tanh(t, one=1.1):
        out = Tensor(np.tanh(t.data), requires_grad=True)
        out._parents = (t,)

        def bwd(g):
            t.grad = (t.grad if t.grad is not None else 0) + g * (one - out.data ** 2)
        out._backward = bwd
        return out

    errors = grad_check(lambda: ad.reduce_sum(bad_tanh(x)), {"x": x})
    assert list(errors) == ["x"]
    assert not errors["x"] < 1e-4
    assert np.isnan(grad_check(lambda: ad.reduce_sum(bad_tanh(x, np.nan)), {"x": x})["x"])


@pytest.mark.parametrize("seed", range(10))
def test_end_to_end_check_passes_and_flags_a_planted_error(seed, monkeypatch):
    """The full loss's gradients pass at h=1e-4, tol=1e-4 (round-off of the
    loss is not counted as error), and a 0.1% error in the LSTM weight
    gradient is still caught."""
    assert all(err < 1e-4 for err in check_end_to_end(seed).values())
    lstm = ad.lstm

    def planted(x, W, b, h0, c0, **kw):  # W's gradient scaled by 1.001
        W_off = ad._result(W.data, (W,), lambda g: ad._accum(W, g * 1.001))
        return lstm(x, W_off, b, h0, c0, **kw)

    monkeypatch.setattr(ad, "lstm", planted)
    assert not all(err < 1e-4 for err in check_end_to_end(seed).values())


def test_backward_determinism():
    def run():
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        backward(ad.reduce_sum(ad.softmax(ad.matmul(ad.tanh(x), w))))
        return x.grad.copy(), w.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])


def test_backward_frees_the_graph_and_refuses_a_second_pass():
    """A graph is backpropagated once: backward frees each node it has used,
    and a second backward over the graph, or over a new graph built on one
    of its freed nodes, raises instead of giving wrong gradients."""
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    h = ad.tanh(x)
    loss = ad.reduce_sum(ad.mul(h, h))
    backward(loss)
    first = x.grad.copy()
    assert loss.grad is None and h.grad is None  # non-leaf gradients are dropped
    with pytest.raises(ContractError, match="already used"):
        backward(loss)
    with pytest.raises(ContractError, match="already used"):
        backward(ad.reduce_sum(ad.add(h, x)))
    assert np.array_equal(x.grad, first)  # a refused backward adds nothing


def _aliasing_graphs():
    """name -> (loss_fn, leaves): float64 graphs in which one gradient
    buffer could reach two tensors."""
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    c = ad.constant(rng.standard_normal((3, 8)))

    def reused_by_mul(swap):
        def loss():
            a, b = ad.scale(x, 0.5), ad.tanh(y)
            s, m = ad.add(a, b), ad.mul(a, b)
            return ad.reduce_sum(ad.mul(*((m, ad.tanh(s)) if swap else (ad.tanh(s), m))))
        return loss

    return {
        "add(x, x)": (lambda: ad.reduce_sum(ad.tanh(ad.add(ad.add(x, x), y))), (x, y)),
        "sub(x, x)": (lambda: ad.reduce_sum(ad.tanh(ad.add(ad.sub(x, x), ad.mul(x, y)))), (x, y)),
        "concat([x, x])": (lambda: ad.reduce_sum(ad.tanh(ad.mul(ad.concat([x, x]), c))), (x,)),
        "add(x, y)": (lambda: ad.reduce_sum(ad.mul(ad.add(x, y), ad.tanh(y))), (x, y)),
        "add reused by mul": (reused_by_mul(False), (x, y)),
        "add reused by mul, swapped": (reused_by_mul(True), (x, y)),
        "matmul reusing w": (lambda: ad.reduce_sum(ad.tanh(ad.matmul(
            ad.tanh(ad.matmul(x, w)), w))), (x, w)),
        "index(x) twice": (lambda: ad.reduce_sum(ad.tanh(ad.add(
            ad.mul(ad.index(x, 0), ad.index(x, np.s_[-1, :])), ad.index(y, 1)))), (x, y)),
    }


def _assert_no_shared_grads(leaves):
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)


@pytest.mark.parametrize("name", list(_aliasing_graphs()))
def test_no_gradient_buffer_reaches_two_tensors(name):
    """Gradients stay right where one buffer could reach two tensors (a
    tensor used twice, an add whose operands mul reuses), and afterwards no
    two leaves' .grad share memory; again when the leaves' .grad are
    existing views into one flat array, as in the trainer's arena, both
    zeroed and holding stale values that the first gradient overwrites."""
    loss_fn, leaves = _aliasing_graphs()[name]
    errors = grad_check(loss_fn, {f"p{i}": t for i, t in enumerate(leaves)}, h=1e-6)
    assert all(err < 1e-6 for err in errors.values()), errors
    _assert_no_shared_grads(leaves)
    expect = [t.grad.copy() for t in leaves]
    flat = np.zeros(sum(t.data.size for t in leaves))
    ends = np.cumsum([t.data.size for t in leaves])
    views = [flat[end - t.data.size:end].reshape(t.data.shape) for t, end in zip(leaves, ends)]
    for t, v in zip(leaves, views):
        t.grad = v
    backward(loss_fn())
    for t, v, e in zip(leaves, views, expect):
        assert t.grad is v
        assert np.allclose(v, e, rtol=1e-12, atol=1e-15)
    flat.fill(np.nan)
    for t in leaves:
        t.stale_grad = True
    backward(loss_fn())
    for t, v, e in zip(leaves, views, expect):
        assert t.grad is v and not t.stale_grad
        assert np.allclose(v, e, rtol=1e-12, atol=1e-15)


def test_concat_slice_roundtrip_gradient():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    cat = ad.concat([a, b], axis=1)
    backward(ad.reduce_sum(ad.mul(ad.index(cat, np.s_[:, 2:4]), ad.index(cat, np.s_[..., 2:4]))))
    # only column 2 of `a` and column 0 of `b` take gradient
    expect_a = np.zeros((2, 3))
    expect_a[:, 2] = 2.0 * a.data[:, 2]
    expect_b = np.zeros((2, 2))
    expect_b[:, 0] = 2.0 * b.data[:, 0]
    assert np.allclose(a.grad, expect_a)
    assert np.allclose(b.grad, expect_b)


def test_index_takes_basic_indices_only():
    """ad.index is a[key] for an int, a slice, Ellipsis or a tuple of them;
    an array index, whose repeated entries the backward's buffer[key] += g
    would add to once, raises ShapeError."""
    a = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    for key in ([0, 0], np.array([1, 0]), (0, [1, 1]), np.array([True, False]), True, None,
                (slice(None), None)):
        with pytest.raises(ShapeError, match="index"):
            ad.index(a, key)
    out = ad.index(a, (-1, ..., np.int64(1)))
    assert np.array_equal(out.data, a.data[-1, :, 1])
    backward(ad.reduce_sum(ad.mul(out, out)))
    expect = np.zeros_like(a.data)
    expect[-1, :, 1] = 2.0 * a.data[-1, :, 1]
    assert np.array_equal(a.grad, expect)


def _graph_ops():
    """The names of the engine's public graph ops."""
    not_ops = {"backward", "grad_check", "no_grad", "grad_enabled"}
    ops = [name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_") and name not in not_ops]
    assert "lstm" in ops and "contract" in ops and "add_const" in ops
    return ops


def _ops_not_called_in(source):
    return [op for op in _graph_ops() if not re.search(rf"\bad\.{op}\(", source)]


def test_every_graph_op_has_a_caller_in_the_model():
    """Every public graph op of the engine is called from the model, the
    objective or decoding: an op that only tests or self-checks use
    belongs on their side."""
    assert _ops_not_called_in("".join(inspect.getsource(m)
                                      for m in (model, objective, generation))) == []


def test_every_graph_op_has_a_finite_difference_case():
    """Every public graph op is called in selfcheck.primitive_cases, so
    `pagen selfcheck` checks its backward by finite differences."""
    assert _ops_not_called_in(inspect.getsource(primitive_cases)) == []
