"""Adam optimizer over ParamTensor collections."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingDivergenceError

# moment decay rates and denominator guard; every model here trains with these
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment update with bias correction.

    The optimizer owns its parameters' storage: the constructor packs every
    value and gradient into one flat buffer each (``value``, ``grad``) and
    binds each ParamTensor to reshaped views of them, so a step is a few
    whole-buffer operations.
    """

    def __init__(self, params, lr: float = 3e-4):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        size = sum(p.value.size for p in self.params)
        self.value = np.empty(size)
        self.grad = np.empty(size)
        start = 0
        for p in self.params:
            stop = start + p.value.size
            p.bind(self.value[start:stop].reshape(p.shape),
                   self.grad[start:stop].reshape(p.shape))
            start = stop
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._update = np.empty(size)
        self._denom = np.empty(size)

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        g = self.grad
        if not np.isfinite(g).all():
            raise TrainingDivergenceError("non-finite gradient")
        self.t += 1
        # every op is elementwise, in the order of m = b1 m + (1 - b1) g,
        # v = b2 v + ((1 - b2) g) g and value -= (lr mhat) / (sqrt(vhat) + eps),
        # so each element gets the same bits as a per-tensor update
        update, denom = self._update, self._denom
        self.m *= BETA1
        self.m += np.multiply(g, 1 - BETA1, out=update)
        self.v *= BETA2
        np.multiply(g, 1 - BETA2, out=update)
        self.v += np.multiply(update, g, out=update)
        np.divide(self.m, 1 - BETA1 ** self.t, out=update)
        update *= lr
        np.divide(self.v, 1 - BETA2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        update /= denom
        self.value -= update

    def state(self) -> dict:
        """Copy of the moment estimates and step count."""
        return {"m": self.m.copy(), "v": self.v.copy(), "t": self.t}

    def load_state(self, state: dict) -> None:
        self.m[...] = state["m"]
        self.v[...] = state["v"]
        self.t = state["t"]
