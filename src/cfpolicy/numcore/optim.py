"""Adam optimizer over ParamTensor collections."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingDivergenceError


class Adam:
    """Adaptive-moment update with bias correction."""

    def __init__(self, params, lr: float = 3e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise TrainingDivergenceError("non-finite gradient")
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            mhat = m / (1 - self.beta1 ** self.t)
            vhat = v / (1 - self.beta2 ** self.t)
            p.value -= lr * mhat / (np.sqrt(vhat) + self.eps)

    def state(self) -> dict:
        """Copy of the moment estimates and step count."""
        return {"m": [m.copy() for m in self.m], "v": [v.copy() for v in self.v],
                "t": self.t}

    def load_state(self, state: dict) -> None:
        self.m = [m.copy() for m in state["m"]]
        self.v = [v.copy() for v in state["v"]]
        self.t = state["t"]

