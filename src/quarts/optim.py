"""Adam optimizer over named parameter maps, stepped with the gradient
map ``Tape.backward`` returns."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam with bias correction over a {name: Tensor} parameter map.

    ``step(grads)`` reads each parameter's gradient from ``grads``, the map
    ``Tape.backward`` returns. A parameter absent from it is skipped
    entirely (state untouched), so a parameter group that never receives
    gradients stays bitwise unchanged. The step counter increases by 1 per
    ``step`` call.

    The update runs in place through one scratch buffer, sized to the
    largest parameter and viewed as each in turn, so a step allocates one
    parameter-sized temporary, ``(lr / bc1) * m``, at a time. Every value
    keeps the textbook expression's bits.
    """
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._scratch = np.empty(max((p.data.nbytes for p in params.values()), default=0),
                                 np.uint8)

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = grads.get(p)
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            s = self._scratch[:m.nbytes].view(m.dtype).reshape(m.shape)
            m *= b1
            m += np.multiply(1.0 - b1, g, out=s)
            v *= b2
            v += np.multiply(1.0 - b2, np.multiply(g, g, out=s), out=s)
            # (lr / bc1) * m / (sqrt(v / bc2) + eps), the divisor in the scratch
            np.add(np.sqrt(np.divide(v, bc2, out=s), out=s), self.EPS, out=s)
            p.data -= np.divide((self.lr / bc1) * m, s, out=s)

    def decay_lr(self, factor: float) -> None:
        self.lr *= factor

