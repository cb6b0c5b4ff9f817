"""Dense / batch-norm / ReLU layers and the fixed MLP built from them.

Backprop is hand-written per layer; each layer caches what its backward
pass needs during forward. One forward must precede each backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SchemaMismatchError


class ParamTensor:
    """A trainable array with a same-shaped gradient slot."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape


class Dense:
    """Affine layer y = x W + b with uniform fan-in initialization."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(n_in)
        self.W = ParamTensor(rng.uniform(-bound, bound, size=(n_in, n_out)))
        self.b = ParamTensor(rng.uniform(-bound, bound, size=n_out))
        self._x = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.shape[1] != self.W.value.shape[0]:
            raise SchemaMismatchError(
                f"dense layer expects width {self.W.value.shape[0]}, got {x.shape[1]}")
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        self.W.grad = self._x.T @ dy
        self.b.grad = dy.sum(axis=0)
        return dy @ self.W.value.T

    def params(self):
        return {"W": self.W, "b": self.b}


class BatchNorm:
    """Batch normalization with running statistics for inference.

    Train mode normalizes by batch mean/population variance and updates
    running stats with momentum 0.9; eval mode is a fixed affine map.
    """

    def __init__(self, width: int, momentum: float = 0.9, eps: float = 1e-5):
        self.gamma = ParamTensor(np.ones(width))
        self.beta = ParamTensor(np.zeros(width))
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.momentum = momentum
        self.eps = eps
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if train:
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mu
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mu, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv_std
        self._cache = (xhat, inv_std, train, x.shape[0])
        return self.gamma.value * xhat + self.beta.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xhat, inv_std, train, n = self._cache
        self.gamma.grad = (dy * xhat).sum(axis=0)
        self.beta.grad = dy.sum(axis=0)
        dxhat = dy * self.gamma.value
        if not train:
            return dxhat * inv_std
        return (inv_std / n) * (
            n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}


class Relu:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask

    def params(self):
        return {}


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input first, output last) and head configuration."""

    widths: tuple
    batch_norm: bool = True
    output_head: str = "linear"  # 'linear' | 'softmax'

    def __post_init__(self):
        if len(self.widths) < 2 or any(w <= 0 for w in self.widths):
            raise ValueError("widths must list >=2 positive integers")
        if self.output_head not in ("linear", "softmax"):
            raise ValueError(f"unsupported head {self.output_head!r}")


class Mlp:
    """Feed-forward stack: (Dense -> [BatchNorm] -> ReLU)* -> Dense.

    The head Dense emits raw scores; a 'softmax' spec head is applied by
    callers (losses, predict) so gradients can be fused with the loss.
    """

    def __init__(self, spec: MlpSpec, rng: np.random.Generator):
        self.spec = spec
        self.layers = []
        widths = spec.widths
        for i in range(len(widths) - 2):
            self.layers.append(Dense(widths[i], widths[i + 1], rng))
            if spec.batch_norm:
                self.layers.append(BatchNorm(widths[i + 1]))
            self.layers.append(Relu())
        self.layers.append(Dense(widths[-2], widths[-1], rng))

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        if out.ndim == 1:
            out = out[None, :]
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def params(self) -> dict:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, p in layer.params().items():
                out[f"layer{i}.{name}"] = p
        return out

    def state(self) -> dict:
        """All arrays needed for bit-exact reload (params + running stats)."""
        arrays = {k: p.value for k, p in self.params().items()}
        for i, layer in enumerate(self.layers):
            if isinstance(layer, BatchNorm):
                arrays[f"layer{i}.running_mean"] = layer.running_mean
                arrays[f"layer{i}.running_var"] = layer.running_var
        return arrays

    def load_state(self, arrays: dict) -> None:
        for k, p in self.params().items():
            p.value = np.array(arrays[k], dtype=np.float64)
            p.grad = np.zeros_like(p.value)
        for i, layer in enumerate(self.layers):
            if isinstance(layer, BatchNorm):
                layer.running_mean = np.array(arrays[f"layer{i}.running_mean"])
                layer.running_var = np.array(arrays[f"layer{i}.running_var"])
