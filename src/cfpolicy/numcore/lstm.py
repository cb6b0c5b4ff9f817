"""Gated recurrent (LSTM-style) cell unrolled over a fixed 3-step window."""

from __future__ import annotations

import numpy as np

from ..errors import SchemaMismatchError
from .layers import Dense, ParamTensor, checked_arrays
from .losses import sigmoid


class RecurrentRegressor:
    """3-step LSTM cell followed by a linear head on the final hidden state.

    Gate layout along the 4H axis: input, forget, candidate, output.
    """

    WINDOW = 3

    def __init__(self, n_in: int, hidden: int, n_out: int, rng: np.random.Generator):
        self.n_in = n_in
        self.hidden = hidden
        bound = 1.0 / np.sqrt(max(n_in, hidden))
        self.Wx = ParamTensor(rng.uniform(-bound, bound, size=(n_in, 4 * hidden)))
        self.Wh = ParamTensor(rng.uniform(-bound, bound, size=(hidden, 4 * hidden)))
        self.b = ParamTensor(np.zeros(4 * hidden))
        self.head = Dense(hidden, n_out, rng)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """x: (B, 3, n_in) -> (B, n_out)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.WINDOW or x.shape[2] != self.n_in:
            raise SchemaMismatchError(
                f"expected (B, {self.WINDOW}, {self.n_in}) input, got {x.shape}")
        B, H = x.shape[0], self.hidden
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        steps = []
        for t in range(self.WINDOW):
            z = x[:, t, :] @ self.Wx.value + h @ self.Wh.value + self.b.value
            i = sigmoid(z[:, :H])
            f = sigmoid(z[:, H:2 * H])
            g = np.tanh(z[:, 2 * H:3 * H])
            o = sigmoid(z[:, 3 * H:])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            steps.append((x[:, t, :], h, c, i, f, g, o, tanh_c))
            h, c = h_new, c_new
        self._cache = steps
        return self.head.forward(h, train=train)

    def backward(self, dy: np.ndarray) -> None:
        """dy: (B, n_out); fills every parameter gradient. No caller reads the
        gradient with respect to the input window, so it is not computed."""
        steps = self._cache
        H = self.hidden
        dh = self.head.backward(dy)
        B = dh.shape[0]
        dc = np.zeros((B, H))
        # accumulate straight into the gradient slots
        dWx, dWh, db = self.Wx.grad, self.Wh.grad, self.b.grad
        for slot in (dWx, dWh, db):
            slot.fill(0.0)
        for t in range(self.WINDOW - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, g, o, tanh_c = steps[t]
            dc = dc + dh * o * (1.0 - tanh_c ** 2)
            do = dh * tanh_c
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate([
                di * i * (1 - i),
                df * f * (1 - f),
                dg * (1 - g ** 2),
                do * o * (1 - o),
            ], axis=1)
            dWx += x_t.T @ dz
            dWh += h_prev.T @ dz
            db += dz.sum(axis=0)
            dh = dz @ self.Wh.value.T
            dc = dc * f

    def clear_cache(self) -> None:
        self._cache = self.head._cache = None

    def params(self) -> dict:
        out = {"Wx": self.Wx, "Wh": self.Wh, "b": self.b}
        for name, p in self.head.params().items():
            out[f"head.{name}"] = p
        return out

    def state(self) -> dict:
        return {k: p.value for k, p in self.params().items()}

    def load_state(self, arrays: dict) -> None:
        """Copy ``arrays`` (as from ``state``) into the model; raises
        SchemaMismatchError when an array is missing, misshapen or extra."""
        arrays = checked_arrays(arrays, self.state())
        for k, p in self.params().items():
            p.value = arrays[k]
            p.grad.fill(0.0)
