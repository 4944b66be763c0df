"""Tour of the tensor engine: tapes, backward passes, a fused layer op, gradient checking.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from abusenet import tensor as T
from abusenet.layers import DenseLayer
from abusenet.tensor import Tape, Tensor, grad_check

# Forward ops record onto the innermost active Tape; backward replays the
# tape in reverse execution order and accumulates gradients additively.
x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
with Tape() as tape:
    loss = T.sum_all(T.mul(x, x))  # sum of squares
tape.backward(loss)
print("loss:", float(loss.data))
print("d(sum x^2)/dx:", x.grad, "(expected 2x =", 2 * x.data, ")")

# Reusing a tensor twice accumulates both contributions.
y = Tensor(np.array([2.0]), requires_grad=True)
with Tape() as tape:
    loss = T.sum_all(T.add(y, y))
tape.backward(loss)
print("d(y+y)/dy:", y.grad)

# Each layer records itself as one fused op: a DenseLayer's forward is
# y = tanh(x @ W + b) in a single tape entry, with a hand-written backward.
rng = np.random.default_rng(0)
layer = DenseLayer(3, 2, activation="tanh", rng=rng, name="demo", dtype=np.float64)
layer.b.data[:] = rng.normal(size=2)
inp = Tensor(rng.normal(size=(4, 3)).astype(np.float64))
with Tape() as tape:
    loss = T.mean_all(layer.forward(inp))
print("tape ops for a dense layer plus its mean:", len(tape))

# grad_check compares analytic gradients against central finite differences.
# It requires float64; training itself runs in float32.
def forward():
    return T.mean_all(layer.forward(inp))

err = grad_check(forward, layer.parameters(), eps=1e-5)
print(f"max relative error vs finite differences: {err:.2e}")
