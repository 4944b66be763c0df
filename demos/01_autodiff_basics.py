"""Tour of the tensor engine: tapes, backward passes, gradient checking.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from abusenet import tensor as T
from abusenet.tensor import Parameter, Tape, Tensor, grad_check

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

# grad_check compares analytic gradients against central finite differences.
# It requires float64; training itself runs in float32.
rng = np.random.default_rng(0)
w = Parameter("w", Tensor(rng.normal(size=(3, 2)), dtype=np.float64))
b = Parameter("b", Tensor(np.zeros(2), dtype=np.float64))
inp = Tensor(rng.normal(size=(4, 3)).astype(np.float64))

def forward():
    return T.mean_all(T.tanh(T.add_bias(T.matmul(inp, w), b)))

err = grad_check(forward, [w, b], eps=1e-5)
print(f"max relative error vs finite differences: {err:.2e}")
