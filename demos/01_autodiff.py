# Walkthrough of the autodiff engine: fit a tiny MLP to a toy regression
# target and verify the gradients against finite differences.

import numpy as np

from pagen import autodiff as ad
from pagen.autodiff import Tensor, backward, grad_check

rng = np.random.default_rng(0)

# data: y = sin(3x) on [-1, 1]
x = rng.uniform(-1, 1, (64, 1))
y = np.sin(3 * x)

params = {
    "W1": Tensor(rng.standard_normal((1, 16)) * 0.5, requires_grad=True),
    "b1": Tensor(np.zeros(16), requires_grad=True),
    "W2": Tensor(rng.standard_normal((16, 1)) * 0.5, requires_grad=True),
    "b2": Tensor(np.zeros(1), requires_grad=True),
}


def loss_fn():
    h = ad.tanh(ad.add(ad.matmul(ad.constant(x), params["W1"]), params["b1"]))
    pred = ad.add(ad.matmul(h, params["W2"]), params["b2"])
    err = ad.sub(pred, ad.constant(y))
    return ad.reduce_mean(ad.mul(err, err))


print("gradient check against central finite differences:")
for name, err in grad_check(loss_fn, params, max_coords=8).items():
    print(f"  {name}: max_rel_err={err:.3e}")

print("\ntraining with plain gradient descent:")
for step in range(400):
    loss = loss_fn()
    for p in params.values():
        p.zero_grad()
    backward(loss)
    for p in params.values():
        p.data -= 0.5 * p.grad
    if step % 100 == 0 or step == 399:
        print(f"  step {step:3d}  mse {float(loss.data):.5f}")
