"""Gated recurrent (LSTM-style) cell unrolled over a fixed 3-step window."""

from __future__ import annotations

import numpy as np

from ..errors import SchemaMismatchError
from .layers import Dense, ParamTensor, Workspace, checked_arrays
from .losses import sigmoid


class RecurrentRegressor:
    """3-step LSTM cell followed by a linear head on the final hidden state.

    Gate layout along the 4H axis: input, forget, candidate, output. The
    state starts at zero, so step 0 skips the ``h Wh`` and ``f c`` terms and
    the backward pass stops there without the state's gradients. Each step's
    gates, cell, tanh(cell) and hidden state live in workspace arrays, so
    only the head's output is allocated per forward.
    """

    WINDOW = 3

    def __init__(self, n_in: int, hidden: int, n_out: int, rng: np.random.Generator):
        self.n_in = n_in
        self.hidden = hidden
        bound = 1.0 / np.sqrt(max(n_in, hidden))
        self.Wx = ParamTensor(rng.uniform(-bound, bound, size=(n_in, 4 * hidden)))
        self.Wh = ParamTensor(rng.uniform(-bound, bound, size=(hidden, 4 * hidden)))
        self.b = ParamTensor(np.zeros(4 * hidden))
        self.head = Dense(hidden, n_out, rng, head=True)
        self.ws = Workspace()
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """x: (B, 3, n_in) -> (B, n_out)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.WINDOW or x.shape[2] != self.n_in:
            raise SchemaMismatchError(
                f"expected (B, {self.WINDOW}, {self.n_in}) input, got {x.shape}")
        B, H = x.shape[0], self.hidden
        ws = self.ws
        steps = []
        h = c = None
        for t in range(self.WINDOW):
            z = np.matmul(x[:, t, :], self.Wx.value, out=ws("z", B, 4 * H))
            if t:
                z += np.matmul(h, self.Wh.value, out=ws("hWh", B, 4 * H))
            z += self.b.value
            # squash z into gate-major storage: i, f, g and o each a contiguous
            # (B, H) block, so the elementwise work runs on contiguous rows
            z = z.reshape(B, 4, H).transpose(1, 0, 2)
            gates = ws(f"gates{t}", B, 4 * H).reshape(4, B, H)
            sigmoid(z[:2], out=gates[:2])
            np.tanh(z[2], out=gates[2])
            sigmoid(z[3], out=gates[3])
            i, f, g, o = gates
            # c_new = f c + i g
            c_new = np.multiply(i, g, out=ws(f"c{t}", B, H))
            if t:
                c_new += np.multiply(f, c, out=ws("fc", B, H))
            tanh_c = np.tanh(c_new, out=ws(f"tanh_c{t}", B, H))
            h_new = np.multiply(o, tanh_c, out=ws(f"h{t}", B, H))
            steps.append((x[:, t, :], h, c, gates, tanh_c))
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
        ws = self.ws
        dc = ws("dc", B, H)
        dc.fill(0.0)
        dgates = ws("dgates", B, 4 * H).reshape(4, B, H)  # gate-major, as forward's
        dz = ws("dz", B, 4 * H)
        tmp = ws("tmp", B, H)
        # accumulate straight into the gradient slots
        dWx, dWh, db = self.Wx.grad, self.Wh.grad, self.b.grad
        for slot in (dWx, dWh, db):
            slot.fill(0.0)
        for t in range(self.WINDOW - 1, -1, -1):
            x_t, h_prev, c_prev, gates, tanh_c = steps[t]
            i, f, g, o = gates
            # dc += dh o (1 - tanh_c^2)
            np.multiply(dh, o, out=tmp)
            tmp *= 1.0 - tanh_c ** 2
            dc += tmp
            # d gates = [di i (1 - i), df f (1 - f), dg (1 - g^2), do o (1 - o)]
            # with di = dc g, df = dc c_prev, dg = dc i and do = dh tanh_c
            d_i, d_f, d_g, d_o = dgates
            np.multiply(dc, g, out=d_i)
            if t:
                np.multiply(dc, c_prev, out=d_f)
            else:
                d_f[...] = 0.0  # c_prev is the zero state
            dgates[:2] *= gates[:2]
            dgates[:2] *= 1 - gates[:2]
            np.multiply(dc, i, out=d_g)
            d_g *= 1 - g ** 2
            np.multiply(dh, tanh_c, out=d_o)
            d_o *= o
            d_o *= 1 - o
            dz.reshape(B, 4, H)[...] = dgates.transpose(1, 0, 2)  # back to the 4H axis
            dWx += np.matmul(x_t.T, dz, out=ws("dWx", x_t.shape[1], 4 * H))
            db += dz.sum(axis=0)
            if not t:
                break  # h_prev is the zero state: no dWh term, no earlier step
            dWh += np.matmul(h_prev.T, dz, out=ws("dWh", H, 4 * H))
            dh = np.matmul(dz, self.Wh.value.T, out=ws("dh", B, H))
            dc *= f

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
