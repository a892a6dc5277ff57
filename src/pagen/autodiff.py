"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Dynamic graph: every op records its parents and a backward closure on the
produced tensor, and backward() walks the graph in reverse topological
order.  Leading axes are rows: matmul, affine_log_softmax_pick, pick and
the trailing-axes broadcast of add treat an array of shape (..., n) as
rows of n entries.  Other shapes must match exactly; a mismatch raises a
ShapeError naming the op.  Training runs in float32, gradient checking in
float64.

Gradient ownership: a backward hands each input a buffer of its own (a
fresh array, or its upstream gradient or a view of it), and nothing reads
an upstream gradient after its backward, so a first gradient becomes
t.grad uncopied.  add of equal shapes gives b a copy when a has kept g.
A tensor whose .grad is a buffer to reuse (in training, its arena view)
is marked stale_grad: the first gradient to reach it is written into the
buffer (matmul computes its weight gradient straight into it), and only
later ones are added.

The output layer: affine_log_softmax_pick keeps one (N, V) buffer for
the N rows with a target (a row whose target is negative reads 0), which
holds their logits, then their log-softmax, then in the backward their
gradient.  An lstm is one node, the (N, H) states of its packed rows;
for BPTT it keeps its gate activations and the states and cells its rows
leave, and rebuilds the state each row continues and tanh of each cell.

Graph lifetime: a graph is backpropagated once and freed as it goes.
After each node's backward has run, backward() drops its closure, its
parents and its .grad, so saved activations die as soon as they are used;
a second backward through a freed node raises ContractError.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from itertools import accumulate

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible for the named op."""


class ContractError(RuntimeError):
    """An op precondition was violated."""


# per thread (and per asyncio task): no_grad in one thread does not stop
# another thread from recording its graph
_grad_enabled = contextvars.ContextVar("pagen_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (evaluation / decoding fast path)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def grad_enabled():
    return _grad_enabled.get()


class Tensor:
    # _parents is None once backward() has freed the node
    __slots__ = ("data", "grad", "stale_grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data)
        self.grad = None
        self.stale_grad = False  # the next gradient overwrites .grad instead of adding
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None
        self.stale_grad = False

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


def _result(data, parents, backward_fn):
    """Create an op output; records the closure only while grad is enabled."""
    needs = _grad_enabled.get() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t, g):
    """Add g to t.grad; the first gradient is g itself, never a copy, or
    is written into a stale .grad."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    elif t.stale_grad:
        t.grad[...] = g
        t.stale_grad = False
    else:
        t.grad += g


def _accum_product(t, x, y):
    """_accum(t, x @ y), the product computed straight into a stale .grad."""
    if t.requires_grad and t.stale_grad:
        np.matmul(x, y, out=t.grad)
        t.stale_grad = False
    elif t.requires_grad:
        _accum(t, x @ y)


def _grad_buffer(t):
    """t.grad, as zeros if no gradient has reached t yet; always
    C-contiguous, so that a flat view of it writes through."""
    if t.grad is None:
        t.grad = np.zeros(t.data.shape, dtype=t.data.dtype)
    elif t.stale_grad:
        t.grad.fill(0)
    if not t.grad.flags.c_contiguous:
        t.grad = np.ascontiguousarray(t.grad)
    t.stale_grad = False
    return t.grad


def backward(root):
    """Backpropagate from a scalar root; gradients accumulate on leaves.
    Each node is freed once its backward has run (see the module
    docstring), so the graph can be backpropagated only once."""
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.data.shape}")
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents is None:
            raise ContractError("backward through a graph that an earlier backward "
                                "has already used and freed")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    while order:
        node = order.pop()
        if node._backward is None:  # a leaf keeps its .grad
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node._backward, node._parents, node.grad = None, None, None


# ---------------------------------------------------------------------------
# primitives

def constant(data, name=None):
    return Tensor(np.asarray(data), requires_grad=False, name=name)


def add(a, b):
    """Elementwise add; b may also match the trailing axes of a (a bias
    row, or one (B, .) array added at every step of a (T, B, .) one)."""
    lead = a.data.ndim - b.data.ndim
    if lead < 0 or a.data.shape[lead:] != b.data.shape:
        raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        _accum(a, g)
        if lead:
            g = g.sum(axis=tuple(range(lead)))
        _accum(b, g.copy() if a.grad is g and b.requires_grad else g)  # never a's buffer

    return _result(a.data + b.data, (a, b), bwd)


def sub(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)

    return _result(a.data - b.data, (a, b), bwd)


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _result(a.data * b.data, (a, b), bwd)


def scale(a, s):
    """Multiply by a python scalar (KL annealing weight, sign flips)."""
    s = float(s)

    def bwd(g):
        _accum(a, g * s)

    return _result(a.data * s, (a,), bwd)


def add_const(a, c):
    c = float(c)

    def bwd(g):
        _accum(a, g)

    return _result(a.data + c, (a,), bwd)


def _mm(a, b, two=None):
    """a @ b for a 2-D a.  A one-row a runs as the first row of a two-row
    product, in the (2, k) scratch two if it is given and fits: numpy sends
    one row down the gemv path, which rounds differently from gemm, and a
    row's result must not depend on how many rows share its product."""
    if a.shape[0] != 1:
        return a @ b
    if two is None or two.dtype != a.dtype:
        two = np.empty((2,) + a.shape[1:], dtype=a.dtype)
    two[...] = a
    return (two @ b)[:1]


def matmul(a, b, bias=None):
    """(..., k) @ (k, n), plus an optional (n,) bias row: the leading axes
    of a are rows of one 2-D product; with a bias, one node bitwise equal
    to matmul then add."""
    if (a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]
            or (bias is not None and bias.data.shape != b.data.shape[1:])):
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}"
                         + ("" if bias is None else f" + {bias.data.shape}"))
    rows = a.data.reshape(-1, b.data.shape[0])
    out = _mm(rows, b.data)
    if bias is not None:
        out += bias.data

    def bwd(g):
        g = g.reshape(-1, b.data.shape[1])
        _accum(a, _mm(g, b.data.T).reshape(a.data.shape))
        _accum_product(b, rows.T, g)
        if bias is not None:
            _accum(bias, g.sum(axis=0))

    return _result(out.reshape(a.data.shape[:-1] + b.data.shape[1:]),
                   (a, b) if bias is None else (a, b, bias), bwd)


def tanh(a):
    out_data = np.tanh(a.data)

    def bwd(g):
        _accum(a, g * (1.0 - out_data * out_data))

    return _result(out_data, (a,), bwd)


def exp(a):
    out_data = np.exp(a.data)

    def bwd(g):
        _accum(a, g * out_data)

    return _result(out_data, (a,), bwd)


def softmax(a):
    """Softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(a, out_data * (g - dot))

    return _result(out_data, (a,), bwd)


def log_softmax(a):
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse

    def bwd(g):
        sm = np.exp(out_data)
        _accum(a, g - sm * g.sum(axis=-1, keepdims=True))

    return _result(out_data, (a,), bwd)


def concat(tensors, axis=-1):
    datas = [t.data for t in tensors]
    ndim = datas[0].ndim
    ax = axis % ndim
    for d in datas[1:]:
        if d.ndim != ndim:
            raise ShapeError("concat: rank mismatch")
        if d.shape[:ax] + d.shape[ax + 1:] != datas[0].shape[:ax] + datas[0].shape[ax + 1:]:
            raise ShapeError(f"concat: {d.shape} vs {datas[0].shape} along axis {ax}")
    out_data = np.concatenate(datas, axis=ax)
    sizes = [d.shape[ax] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * ndim
            idx[ax] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _result(out_data, tuple(tensors), bwd)


def index(a, key):
    """a[key] for a basic index: an int, slice or Ellipsis, or a tuple of
    them.  The backward adds g into a's gradient buffer at key, so an array
    index is refused: a repeated entry would be added to once."""
    parts = key if isinstance(key, tuple) else (key,)
    if not all(type(k) in (int, slice, type(Ellipsis)) or isinstance(k, np.integer) for k in parts):
        raise ShapeError(f"index: {key!r} is not a basic index")

    def bwd(g):
        _grad_buffer(a)[key] += g

    return _result(a.data[key], (a,), bwd)


@functools.cache
def _gate_scales(H, dtype):
    """lstm's read-only (half, shift) over the gate columns [i, f, o, g]:
    0.5 and 0.5 on the sigmoid columns, 1 and 0 on g."""
    half = np.where(np.arange(4 * H) < 3 * H, 0.5, 1.0).astype(dtype)
    shift = 1.0 - half
    half.flags.writeable = shift.flags.writeable = False
    return half, shift


def lstm(x, W, b, h0, c0, sizes, parents=None, static=None):
    """One LSTM layer over packed rows, with a hand-written BPTT backward.

    x: (N, n_in) step inputs, packed by step: step t runs only its sizes[t]
    rows, which follow those of the steps before it.  Each row continues a
    parent: parents[j] counts from the first row of the step before, or
    at step 0 is a row of the (B0, H) initial state h0, c0; None is a
    PackedSequence's layout, where row i continues row i.  Rows may share
    a parent (a prefix tree), and BPTT sums their gradients into it.
    static: an optional (B0, n_s) input fed at every step, each row reading
    the row of its lane (the h0 row it descends from).  W is (n_in + n_s +
    H, 4H) with its rows in the order [x; static; h], b is (4H,), and the
    gate columns are [i, f, o, g].

    x @ W_x + b runs once for all N rows and static @ W_s once per lane;
    only h @ W_h runs per step, and the backward forms dW, db and dx as
    matmuls over all rows at once.  No product has one row (_mm).  Returns
    (hs, c): the (N, H) states, the one graph node, and the cells of the
    last step's rows as a plain array (no gradient).
    """
    sizes = [int(n) for n in sizes]
    if x.data.ndim != 2 or h0.data.ndim != 2:
        raise ShapeError(f"lstm: inputs {x.data.shape} with state {h0.data.shape}")
    N, n_in = x.data.shape
    B0, H = h0.data.shape
    n_s = 0 if static is None else static.data.shape[-1]
    off = list(accumulate(sizes, initial=0))  # each step's first row
    before = [B0] + sizes[:-1]  # the rows each step's parents index
    if (W.data.shape != (n_in + n_s + H, 4 * H) or b.data.shape != (4 * H,)
            or c0.data.shape != (B0, H) or (static is not None and static.data.shape != (B0, n_s))
            or not sizes or min(sizes) < 1 or off[-1] != N
            or (parents is not None and np.shape(parents) != (N,))):
        raise ShapeError(f"lstm: x {x.data.shape}, W {W.data.shape}, b {b.data.shape}, h0/c0 "
                         f"{h0.data.shape}/{c0.data.shape}, static {getattr(static, 'shape', None)}"
                         f", sizes summing to {off[-1]}, parents {np.shape(parents)}")
    # each step's parents, None where row i continues row i (a slice)
    if parents is None:
        if any(n > m for n, m in zip(sizes, before)):
            raise ShapeError("lstm: a step has more rows than the step it continues")
        take = [None] * len(sizes)
    else:
        parents = np.asarray(parents)
        if parents.min() < 0 or (parents >= np.repeat(before, sizes)).any():
            raise ShapeError("lstm: a parent outside the step before")
        own = parents == np.arange(N) - np.repeat(off[:-1], sizes)
        own = np.logical_and.reduceat(own, off[:-1]).tolist()
        take = [None if own[t] else parents[off[t]:off[t + 1]] for t in range(len(sizes))]
    Wx, Ws, Wh = W.data[:n_in], W.data[n_in:n_in + n_s], W.data[n_in + n_s:]
    inputs = (x, W, b, h0, c0) + (() if static is None else (static,))
    record = _grad_enabled.get() and any(p.requires_grad for p in inputs)

    # pre holds every row's gate pre-activations, and each step turns its
    # own rows into the activations [i, f, o, g] in place.  The step halves
    # its sigmoid columns (exactly, a power of two) after adding h @ W_h:
    # sigmoid(z) = 0.5 * tanh(z / 2) + 0.5, so one tanh serves all four gates.
    half, shift = _gate_scales(H, Wh.dtype)
    pre = _mm(x.data, Wx)
    pre += b.data
    s = None if static is None else _mm(static.data, Ws)  # each lane's static @ W_s
    hs = np.empty((N, H), dtype=pre.dtype)
    cs = np.empty_like(hs) if record else None  # the cell each row leaves
    h, c = h0.data, c0.data
    two = np.empty((2, H), dtype=pre.dtype)  # _mm's scratch for a one-row step
    for t, p in enumerate(take):
        lo, hi = off[t], off[t + 1]
        h, c = (h[:hi - lo], c[:hi - lo]) if p is None else (h[p], c[p])
        z = pre[lo:hi]
        if s is not None:  # each row's lane term, carried like its state
            s = s[:hi - lo] if p is None else s[p]
            z += s
        z += _mm(h, Wh, two)
        z *= half
        np.tanh(z, out=z)
        z *= half
        z += shift
        c = z[:, H:2 * H] * c
        c += z[:, :H] * z[:, 3 * H:]
        h = np.multiply(z[:, 2 * H:3 * H], np.tanh(c), out=hs[lo:hi])
        if record:
            cs[lo:hi] = c

    def to_parents(t, g):
        """g, one row per row of step t, summed into the rows they continue."""
        p = take[t]
        if p is None and len(g) == before[t]:
            return g
        out = np.zeros((before[t], g.shape[1]), dtype=g.dtype)
        if p is None:
            out[:len(g)] = g
        else:
            np.add.at(out, p, g)
        return out

    def bwd(g_hs):
        tanh_c = np.tanh(cs)
        dZ = np.empty_like(pre)  # gradient of every row's gate pre-activations
        h_in = np.empty_like(hs)  # the state each row continues
        dh = dc = ds = None  # what step t's rows get from the rows continuing them
        for t in reversed(range(len(sizes))):
            lo, hi, p = off[t], off[t + 1], take[t]
            h_prev, c_prev = (h0.data, c0.data) if t == 0 else (hs[off[t - 1]:lo], cs[off[t - 1]:lo])
            h_prev, c_prev = (h_prev[:hi - lo], c_prev[:hi - lo]) if p is None else (h_prev[p], c_prev[p])
            h_in[lo:hi] = h_prev
            a, tc = pre[lo:hi], tanh_c[lo:hi]
            i, f, o, g = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
            dh_new = g_hs[lo:hi] if dh is None else g_hs[lo:hi] + dh
            dc_new = dh_new * o * (1.0 - tc * tc)
            if dc is not None:
                dc_new += dc
            dz = dZ[lo:hi]
            np.multiply(dc_new, g, out=dz[:, :H])
            np.multiply(dc_new, c_prev, out=dz[:, H:2 * H])
            np.multiply(dh_new, tc, out=dz[:, 2 * H:3 * H])
            np.multiply(dc_new, i, out=dz[:, 3 * H:])
            dact = a * (1.0 - a)  # sigmoid' on i, f, o
            dact[:, 3 * H:] = 1.0 - g * g  # tanh' on g
            dz *= dact
            dh, dc = to_parents(t, _mm(dz, Wh.T)), to_parents(t, dc_new * f)
            if static is not None:  # a lane's static row sums its rows' dz
                ds = to_parents(t, dz if ds is None else dz + ds)
        dW = [x.data.T @ dZ]
        if static is not None:
            dW.append(static.data.T @ ds)
            _accum(static, _mm(ds, Ws.T))
        dW.append(h_in.T @ dZ)
        _accum(W, np.concatenate(dW))
        _accum(b, dZ.sum(axis=0))
        _accum(x, _mm(dZ, Wx.T))
        _accum(h0, dh)
        _accum(c0, dc)

    return _result(hs, inputs, bwd), c


def contract(spec, a, b):
    """Two-operand einsum, e.g. contract("btd,bd->bt", states, query).

    Each index occurs at most once per term and in at least two of the
    three terms, so each gradient is an einsum of the other two terms; an
    index summed inside one operand (or repeated in a term) is rejected.
    """
    ins, _, out = spec.partition("->")
    sa, _, sb = ins.partition(",")
    for term, others in ((sa, sb + out), (sb, sa + out), (out, sa + sb)):
        if len(set(term)) < len(term) or set(term) - set(others):
            raise ShapeError(f"contract {spec!r}: index repeated or summed inside one term")
    try:
        out_data = np.einsum(spec, a.data, b.data)
    except ValueError:
        raise ShapeError(f"contract {spec!r}: {a.data.shape} with {b.data.shape}") from None

    def bwd(g):
        _accum(a, np.einsum(f"{out},{sb}->{sa}", g, b.data))
        _accum(b, np.einsum(f"{sa},{out}->{sb}", a.data, g))

    return _result(out_data, (a, b), bwd)


def reduce_sum(a, axis=None):
    def bwd(g):
        _accum(a, np.full_like(a.data, g) if axis is None
               else np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _result(a.data.sum(axis=axis), (a,), bwd)


def reduce_mean(a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]

    def bwd(g):
        _accum(a, np.full_like(a.data, g / n) if axis is None
               else np.broadcast_to(np.expand_dims(g / n, axis), a.data.shape).copy())

    return _result(a.data.mean(axis=axis), (a,), bwd)


def pick(a, indices):
    """Entries of a along its last axis, for cross-entropy.  indices has
    a's leading axes (one entry per row), or one more axis (K entries per
    row): out[..., k] = a[..., indices[..., k]], a take of flat positions."""
    idx = np.asarray(indices)
    lead, n = a.data.shape[:-1], a.data.shape[-1]
    if not lead or idx.shape[:len(lead)] != lead or idx.ndim > len(lead) + 1:
        raise ShapeError(f"pick: {a.data.shape} with indices {idx.shape}")
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= n:
        raise ContractError(f"pick: index out of range for rows of {n} entries")
    rows = np.arange(a.data.size // n).reshape(lead + (1,) * (idx.ndim - len(lead)))
    return take(a, rows * n + idx)


def take(a, indices):
    """Entries of a at flat positions, a.reshape(-1)[indices], in the
    indices' shape; position -1 means none and reads 0.  The backward adds
    g into a zeros buffer by one flat np.add.at, so a position taken twice
    sums its gradients."""
    idx = np.asarray(indices)
    if idx.min(initial=0) < -1 or idx.max(initial=0) >= a.data.size:
        raise ContractError(f"take: index out of range for {a.data.size} entries")

    def bwd(g):
        full = np.zeros(a.data.size + 1, dtype=a.data.dtype)  # -1 adds into the last
        np.add.at(full, idx.reshape(-1), g.reshape(-1))
        _accum(a, full[:-1].reshape(a.data.shape))

    return _result(np.concatenate((a.data.reshape(-1), np.zeros(1, a.dtype)))[idx], (a,), bwd)


# the log-softmax's exp-sums run over row blocks of about this many bytes
_EXP_BLOCK_BYTES = 1 << 20


def affine_log_softmax_pick(x, W, b, targets):
    """pick(log_softmax(matmul(x, W, b)), targets), one target per row of
    x, as one node bitwise equal to those ops apart on the rows that have a
    target: the output layer and the reconstruction loss's
    log-probabilities.  A negative target means none: that row reads 0,
    gets a zero gradient and never reaches the output layer (in teacher
    forcing, the steps after a reply's EOS).

    Its one (N, V) buffer, for the N rows with a target, takes the logits,
    then their log-softmax in place (the exp-sums run over row blocks of a
    small scratch array), then in the backward their gradient, 0 - softmax
    * g plus g at the targets (bitwise the ops apart, signed zeros
    included: they sum g over a row of zeros, which gives g + 0)."""
    idx = np.asarray(targets)
    if (x.data.ndim < 2 or W.data.ndim != 2 or x.data.shape[-1] != W.data.shape[0]
            or b.data.shape != W.data.shape[1:] or idx.shape != x.data.shape[:-1]):
        raise ShapeError(f"affine_log_softmax_pick: {x.data.shape} @ {W.data.shape} + "
                         f"{b.data.shape}, targets {idx.shape}")
    scored = np.flatnonzero(idx >= 0)  # the rows with a target, in row-major order
    rows = x.data.reshape(-1, W.data.shape[0])[scored]
    logp = _mm(rows, W.data)
    logp += b.data
    n, V = logp.shape
    logp -= logp.max(axis=-1, keepdims=True)
    block = max(1, _EXP_BLOCK_BYTES // (V * logp.itemsize))
    scratch = np.empty((min(block, n), V), dtype=logp.dtype)
    sums = np.empty((n, 1), dtype=logp.dtype)
    for lo in range(0, n, block):
        e = np.exp(logp[lo:lo + block], out=scratch[:min(block, n - lo)])
        e.sum(axis=-1, keepdims=True, out=sums[lo:lo + block])
    logp -= np.log(sums, out=sums)
    at = np.arange(n), idx.reshape(-1)[scored]

    def bwd(g):
        g = g.reshape(-1)[scored]
        grad = np.exp(logp, out=logp)
        grad *= (g + 0.0)[:, None]
        np.subtract(0.0, grad, out=grad)
        grad[at] += g
        dx = np.zeros((idx.size, W.data.shape[0]), dtype=grad.dtype)
        dx[scored] = _mm(grad, W.data.T)
        _accum(x, dx.reshape(x.data.shape))
        _accum_product(W, rows.T, grad)
        _accum(b, grad.sum(axis=0))

    out = np.zeros(idx.shape, dtype=logp.dtype)
    out.reshape(-1)[scored] = logp[at]
    return _result(out, (x, W, b), bwd)


def embedding(table, indices):
    """Row lookup: indices of any shape into a (rows, dim) table; the
    result has the indices' shape plus dim.  The backward adds each row's
    gradient straight into table.grad (for a parameter, its arena view), a
    repeated index accumulating in index order."""
    idx = np.asarray(indices)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.data.shape}")
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= table.data.shape[0]:
        raise ContractError(f"embedding index out of range for table with {table.data.shape[0]} rows")

    def bwd(g):
        # one 1-D add.at over flat element indices: bitwise the 2-D
        # np.add.at(grad, idx, g), and two to three times faster
        d = table.data.shape[1]
        flat = (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        np.add.at(_grad_buffer(table).reshape(-1), flat, g.reshape(-1))

    return _result(table.data[idx], (table,), bwd)


def hinge_floor(a, floor):
    """max(floor, a) elementwise; subgradient 0 at and below the kink."""
    floor = float(floor)
    mask = a.data > floor

    def bwd(g):
        _accum(a, g * mask)

    return _result(np.maximum(a.data, floor), (a,), bwd)


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(loss_fn, params, h=1e-4, max_coords=None, rng=None):
    """Compare backward() gradients against central finite differences.

    loss_fn: () -> scalar Tensor, closed over `params` (name -> Tensor).
    Checks every parameter; with max_coords set, a random subset of
    coordinates per parameter.  Run in float64.  Returns name -> the
    largest relative error over that parameter's checked coordinates (NaN
    if any is NaN), not counting error within the loss's round-off,
    4 * eps * (|L(p+h)| + |L(p-h)|) / 2h.
    """
    rng = rng or np.random.default_rng(0)
    for p in params.values():
        p.zero_grad()
    backward(loss_fn())  # the forwards below leave each .grad as it is
    errors = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        analytic = np.zeros(flat.size) if p.grad is None else p.grad.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        worst = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            up = float(loss_fn().data)
            flat[c] = orig - h
            down = float(loss_fn().data)
            flat[c] = orig
            numeric = (up - down) / (2.0 * h)
            a = analytic[c]
            roundoff = 4 * np.finfo(np.float64).eps * (abs(up) + abs(down)) / (2.0 * h)
            rel = max(abs(a - numeric) - roundoff, 0.0) / max(abs(a) + abs(numeric), 1e-8)
            worst = np.maximum(worst, rel)  # keeps a NaN
        errors[name] = float(worst)
    return errors
