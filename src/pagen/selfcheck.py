"""Build verification: finite-difference checks for every autodiff
primitive and one end-to-end loss, a Monte Carlo oracle for the closed-form
KL, and brute-force reimplementations of BLEU-1 and distinct-n, which
`pagen selfcheck` runs (the other metric oracles live with the tests).

The brute-force oracles here deliberately share no code with the metric
implementations they check.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from . import autodiff as ad
from . import metrics as MX
from . import model as M
from .autodiff import Tensor, grad_check
from .objective import gaussian_kl, total_loss


# ---------------------------------------------------------------------------
# primitive gradient checks

def _param(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def primitive_cases(seed=0):
    """(name, loss_fn, params) for every primitive op, float64 inputs."""
    rng = np.random.default_rng(seed)
    cases = []

    x = _param(rng, 3, 4)
    y = _param(rng, 3, 4)
    b = _param(rng, 4)
    w = _param(rng, 4, 5)
    cases.append(("add", lambda: ad.reduce_sum(ad.mul(ad.add(x, y), ad.add(x, y))),
                  {"x": x, "y": y}))
    cases.append(("add_bias", lambda: ad.reduce_sum(ad.tanh(ad.add(x, b))),
                  {"x": x, "b": b}))
    cases.append(("sub", lambda: ad.reduce_sum(ad.mul(ad.sub(x, y), ad.sub(x, y))),
                  {"x": x, "y": y}))
    cases.append(("mul", lambda: ad.reduce_sum(ad.mul(x, y)), {"x": x, "y": y}))
    cases.append(("matmul", lambda: ad.reduce_sum(ad.exp(ad.scale(ad.matmul(x, w), 0.3))),
                  {"x": x, "w": w}))
    cases.append(("tanh", lambda: ad.reduce_sum(ad.tanh(x)), {"x": x}))
    cases.append(("exp", lambda: ad.reduce_sum(ad.exp(ad.scale(x, 0.3))), {"x": x}))
    cases.append(("softmax", lambda: ad.reduce_sum(ad.mul(ad.softmax(x), y)),
                  {"x": x, "y": y}))
    cases.append(("log_softmax", lambda: ad.reduce_sum(ad.mul(ad.log_softmax(x), y)),
                  {"x": x, "y": y}))
    cases.append(("concat", lambda: ad.reduce_sum(ad.tanh(ad.concat([x, y], axis=1))),
                  {"x": x, "y": y}))
    seq = _param(rng, 3, 2, 4)
    cases.append(("index_cols", lambda: ad.reduce_sum(ad.mul(ad.index(x, np.s_[:, 1:3]),
                                                             ad.index(y, np.s_[:, 0:2]))),
                  {"x": x, "y": y}))
    cases.append(("index_step", lambda: ad.reduce_sum(ad.mul(ad.index(seq, 0),
                                                             ad.tanh(ad.index(seq, -1)))),
                  {"seq": seq}))
    # attention-shaped: scores over the steps, then their weighted sum
    cases.append(("contract", lambda: ad.reduce_sum(ad.tanh(ad.contract(
        "bt,btd->bd", ad.softmax(ad.contract("btd,bd->bt", seq, x)), seq))),
        {"seq": seq, "x": x}))
    cases.append(("reduce_sum_axis", lambda: ad.reduce_sum(ad.tanh(ad.reduce_sum(x, axis=1))),
                  {"x": x}))
    cases.append(("reduce_mean", lambda: ad.reduce_mean(ad.mul(x, x)), {"x": x}))
    cases.append(("reduce_mean_axis", lambda: ad.reduce_sum(ad.exp(ad.reduce_mean(x, axis=0))),
                  {"x": x}))

    idx = np.array([0, 2, 1])
    cases.append(("pick", lambda: ad.reduce_sum(ad.exp(ad.pick(x, idx))), {"x": x}))
    idx2 = np.array([[0, 2, 2], [1, 3, 0], [3, 3, 3]])  # rows repeat an entry
    cases.append(("pick_2d", lambda: ad.reduce_sum(ad.exp(ad.pick(x, idx2))), {"x": x}))
    table = _param(rng, 5, 4)
    lookup = np.array([1, 4, 1])
    cases.append(("embedding", lambda: ad.reduce_sum(ad.mul(ad.embedding(table, lookup), y)),
                  {"table": table, "y": y}))
    # inputs away from the kink so finite differences are valid
    far = Tensor(rng.standard_normal((3, 4)) * 2 + np.sign(rng.standard_normal((3, 4))) * 1.0,
                 requires_grad=True)
    cases.append(("hinge_floor", lambda: ad.reduce_sum(ad.hinge_floor(far, 0.0)),
                  {"x": far}))
    cases.append(("scale", lambda: ad.reduce_sum(ad.scale(x, -1.7)), {"x": x}))
    cases.append(("add_const", lambda: ad.reduce_sum(ad.tanh(ad.add_const(x, 0.7))), {"x": x}))

    # leading axes are rows: (T, B, .) operands as in teacher forcing
    steps = _param(rng, 2, 3, 4)
    cases.append(("matmul_3d", lambda: ad.reduce_sum(ad.exp(ad.scale(ad.matmul(steps, w), 0.3))),
                  {"steps": steps, "w": w}))
    cases.append(("add_trailing", lambda: ad.reduce_sum(ad.tanh(ad.add(steps, y))),
                  {"steps": steps, "y": y}))
    idx3 = np.array([[0, 2, 1], [3, 3, 0]])
    cases.append(("pick_3d", lambda: ad.reduce_sum(ad.exp(ad.pick(steps, idx3))),
                  {"steps": steps}))

    # the fused LSTM on packed rows: its states and the last step's states
    # reach the loss through their own random weights.  plain: B rows at
    # each of T steps; packed: rows ending at different steps; shared: a
    # prefix tree, where rows share a parent and the backward sums their
    # gradients into it
    T, B, n_in, n_s, H = 4, 3, 3, 2, 2
    seq_x = _param(rng, T * B, n_in)
    static = _param(rng, B, n_s)
    h0, c0 = _param(rng, B, H), _param(rng, B, H)
    bias = _param(rng, 4 * H)
    W_plain = _param(rng, n_in + H, 4 * H)
    W_static = _param(rng, n_in + n_s + H, 4 * H)
    # mix[2] is unused, but drawn so that the cases below keep their inputs
    mix = [rng.standard_normal(s) for s in ((T * B, H), (B, H), (B, H))]
    layouts = {"plain": ([B] * T, None), "packed": ([3, 2, 1, 1], None),
               "shared": ([2, 3, 2], [2, 0, 0, 0, 1, 2, 2])}

    def lstm_loss(W, layout, **kw):
        sizes, parents = layouts[layout]
        n = sum(sizes)
        hs, _ = ad.lstm(ad.index(seq_x, slice(n)), W, bias, h0, c0, sizes=sizes,
                        parents=parents, **kw)
        h = ad.index(hs, slice(n - sizes[-1], n))
        return ad.add(ad.reduce_sum(ad.mul(ad.tanh(hs), ad.constant(mix[0][:n]))),
                      ad.reduce_sum(ad.mul(h, ad.constant(mix[1][:sizes[-1]]))))

    state = {"x": seq_x, "h0": h0, "c0": c0, "b": bias}
    cases.append(("lstm", lambda: lstm_loss(W_plain, "plain"), dict(state, W=W_plain)))
    cases.append(("lstm_packed", lambda: lstm_loss(W_plain, "packed"), dict(state, W=W_plain)))
    cases.append(("lstm_shared", lambda: lstm_loss(W_static, "shared", static=static),
                  dict(state, W=W_static, static=static)))
    cases.append(("lstm_static", lambda: lstm_loss(W_static, "plain", static=static),
                  dict(state, W=W_static, static=static)))

    # matmul with a bias, on (B, .) and on (T, B, .) rows
    b_w = _param(rng, 5)
    cases.append(("matmul_bias", lambda: ad.reduce_sum(ad.tanh(ad.matmul(x, w, b_w))),
                  {"x": x, "w": w, "b": b_w}))
    cases.append(("matmul_bias_3d", lambda: ad.reduce_sum(ad.tanh(ad.matmul(steps, w, b_w))),
                  {"steps": steps, "w": w, "b": b_w}))
    # (T, B) indices that repeat rows within and across steps
    lookup2 = np.array([[1, 4, 1], [4, 4, 0]])
    cases.append(("embedding_2d", lambda: ad.reduce_sum(ad.mul(ad.embedding(table, lookup2),
                                                               steps)),
                  {"table": table, "steps": steps}))
    # the output layer on (T, B, .) rows as in teacher forcing: one row has
    # no target (-1); drawn last, so that the cases above keep their inputs
    # for every seed
    out_x, out_W, out_b = _param(rng, 2, 3, 4), _param(rng, 4, 5), _param(rng, 5)
    weights = ad.constant(rng.standard_normal((2, 3)))
    out_idx = np.array([[0, 2, 1], [3, -1, 0]])
    cases.append(("affine_log_softmax_pick", lambda: ad.reduce_sum(ad.mul(
        ad.affine_log_softmax_pick(out_x, out_W, out_b, out_idx), weights)),
        {"x": out_x, "W": out_W, "b": out_b}))
    # teacher forcing's gather from the output grid: a position taken twice, none (-1)
    grid, at = _param(rng, 3, 4), [[0, 5, 5], [11, -1, 0]]
    cases.append(("take", lambda: ad.reduce_sum(ad.exp(ad.take(grid, at))), {"a": grid}))
    return cases


def check_primitives(seed=0, h=1e-4, tol=1e-4):
    """Finite-difference check for every primitive; returns (ok, lines)."""
    lines = []
    ok = True
    for name, fn, params in primitive_cases(seed):
        errors = grad_check(fn, params, h=h)
        passed = all(err < tol for err in errors.values())
        ok = ok and passed
        lines.append(f"{'ok' if passed else 'FAIL':4s} primitive {name}: "
                     f"max_rel_err={max(errors.values()):.3e}")
    return ok, lines


def check_end_to_end(seed=0, h=1e-4, max_coords=4):
    """FD check of the full loss on a 2-example batch at float64, sampling
    max_coords coordinates per parameter tensor; returns grad_check's
    name -> max relative error."""
    config = M.ModelConfig(variant="PAGENERATOR", vocab_size=30, num_users=3,
                           word_embed_dim=6, user_embed_dim=4, encoder_hidden=5,
                           decoder_hidden=8, z_dim=3, bow_hidden=7, fact_rank=3,
                           anneal_batches=10)
    params = M.init_params(config, seed=seed, dtype=np.float64)
    user_idx = np.array([1, 2], dtype=np.int64)
    q_idx = np.array([[5, 7, 9], [6, 8, 0]], dtype=np.int64)
    q_len = np.array([3, 2])
    r_idx = np.array([[10, 11, 12, 13], [14, 15, 0, 0]], dtype=np.int64)
    r_len = np.array([4, 2])
    noise = np.random.default_rng(seed + 1).standard_normal((2, config.z_dim))
    batch = (user_idx, q_idx, q_len, r_idx, r_len)

    def loss_fn():
        return total_loss(batch, params, config, noise=noise, batch_index=7)[0]

    return grad_check(loss_fn, params, h=h, max_coords=max_coords,
                      rng=np.random.default_rng(seed + 2))


# ---------------------------------------------------------------------------
# Monte Carlo oracle for the closed-form KL

def kl_closed_form(mu_a, lv_a, mu_b, lv_b):
    g_a = M.GaussianParams(mu=Tensor(mu_a), log_var=Tensor(lv_a))
    g_b = M.GaussianParams(mu=Tensor(mu_b), log_var=Tensor(lv_b))
    return float(gaussian_kl(g_a, g_b).data)


def kl_monte_carlo(mu_a, lv_a, mu_b, lv_b, samples=1_000_000, seed=0):
    """E_a[log N_a(x) - log N_b(x)] by direct sampling."""
    rng = np.random.default_rng(seed)
    std_a = np.exp(0.5 * lv_a)
    x = mu_a + std_a * rng.standard_normal((samples, len(mu_a)))
    log_a = -0.5 * (((x - mu_a) / std_a) ** 2 + lv_a + math.log(2 * math.pi)).sum(axis=1)
    std_b = np.exp(0.5 * lv_b)
    log_b = -0.5 * (((x - mu_b) / std_b) ** 2 + lv_b + math.log(2 * math.pi)).sum(axis=1)
    return float((log_a - log_b).mean())


def check_kl(pairs=20, dim=4, samples=1_000_000, rel_tol=0.01, seed=0):
    rng = np.random.default_rng(seed)
    lines, ok = [], True
    while len(lines) < pairs:
        mu_a = rng.uniform(-2, 2, dim)
        mu_b = rng.uniform(-2, 2, dim)
        lv_a = rng.uniform(-1, 1, dim)
        lv_b = rng.uniform(-1, 1, dim)
        exact = kl_closed_form(mu_a, lv_a, mu_b, lv_b)
        if exact < 0.5:  # keep the MC estimator's relative error meaningful
            continue
        mc = kl_monte_carlo(mu_a, lv_a, mu_b, lv_b, samples=samples, seed=int(rng.integers(2**31)))
        rel = abs(mc - exact) / exact
        passed = rel < rel_tol
        ok = ok and passed
        lines.append(f"{'ok' if passed else 'FAIL':4s} kl pair {len(lines)}: "
                     f"exact={exact:.4f} mc={mc:.4f} rel={rel:.4%}")
    return ok, lines


# ---------------------------------------------------------------------------
# brute-force metric oracles

def bleu1_oracle(candidate, reference):
    if not candidate:
        return 0.0
    ref = Counter(reference)
    matched = 0
    used = Counter()
    for tok in candidate:
        if used[tok] < ref.get(tok, 0):
            matched += 1
            used[tok] += 1
    precision = matched / len(candidate)
    if len(candidate) >= len(reference):
        bp = 1.0
    else:
        bp = math.exp(1.0 - len(reference) / len(candidate))
    return precision * bp


def distinct_n_oracle(responses, n):
    seen, total = [], 0
    for r in responses:
        for i in range(len(r)):
            gram = r[i:i + n]
            if len(gram) == n:
                total += 1
                if gram not in seen:
                    seen.append(gram)
    if total == 0:
        return None
    return len(seen) / total


def check_metric_oracles(seed=0):
    """BLEU-1 and distinct-1/2 against their brute-force oracles on random
    token lists; returns (ok, lines)."""
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(20)]
    worst = 0.0
    for _ in range(50):
        cand = [vocab[i] for i in rng.integers(0, 20, rng.integers(1, 9))]
        ref = [vocab[i] for i in rng.integers(0, 20, rng.integers(1, 9))]
        worst = max(worst, abs(MX.bleu1(cand, ref) - bleu1_oracle(cand, ref)))
        resp = [[vocab[i] for i in rng.integers(0, 20, rng.integers(1, 9))]
                for _ in range(3)]
        for n in (1, 2):
            a, b = MX.distinct_n(resp, n), distinct_n_oracle(resp, n)
            if a is not None and b is not None:
                worst = max(worst, abs(a - b))
    passed = worst < 1e-9
    return passed, [f"{'ok' if passed else 'FAIL':4s} metric oracles (bleu1/distinct): "
                    f"max_abs_err={worst:.2e}"]


def run_all(seed=0):
    """Full self-check, printing one line per check; True when all pass."""
    def end_to_end(seed):
        errors = check_end_to_end(seed)
        failing = [name for name, err in errors.items() if not err < 1e-4]
        lines = [f"{'FAIL' if failing else 'ok':4s} end-to-end loss gradients: "
                 f"max_rel_err={max(errors.values()):.3e}"]
        if failing:
            lines.append("  failing parameters: " + ", ".join(failing))
        return not failing, lines

    ok_all = True
    for stage in (check_primitives, end_to_end,
                  lambda seed: check_kl(pairs=5, samples=200_000, seed=seed),
                  check_metric_oracles):
        ok, lines = stage(seed)
        ok_all &= ok
        print("\n".join(lines))
    return ok_all
