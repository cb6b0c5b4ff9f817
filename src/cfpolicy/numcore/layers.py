"""Dense / batch-norm / ReLU layers and the fixed MLP built from them.

Backprop is hand-written per layer; each layer caches in ``_cache`` what
its backward pass needs during forward. One forward must precede each
backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SchemaMismatchError

# running-statistics momentum and variance guard; every model here uses these
BN_MOMENTUM, BN_EPS = 0.9, 1e-5


class ParamTensor:
    """A trainable array with a same-shaped gradient slot.

    Assigning to ``value`` or ``grad`` copies into the existing storage
    after checking the shape, so a tensor keeps its storage for life once
    an optimizer has bound it to slices of its flat buffers (``bind``).
    """

    __slots__ = ("_value", "_grad", "_bound")

    def __init__(self, value: np.ndarray):
        self._value = np.array(value, dtype=np.float64)
        self._grad = np.zeros_like(self._value)
        self._bound = False

    @property
    def shape(self):
        return self._value.shape

    @property
    def value(self) -> np.ndarray:
        return self._value

    @value.setter
    def value(self, new) -> None:
        self._value[...] = self._checked(new)

    @property
    def grad(self) -> np.ndarray:
        return self._grad

    @grad.setter
    def grad(self, new) -> None:
        self._grad[...] = self._checked(new)

    def _checked(self, new):
        if np.shape(new) != self._value.shape:
            raise SchemaMismatchError(
                f"parameter has shape {self._value.shape}, got {np.shape(new)}")
        return new

    def bind(self, value: np.ndarray, grad: np.ndarray) -> None:
        """Move this tensor's value and gradient into ``value`` and ``grad``
        (views of an optimizer's buffers); a tensor is bound at most once."""
        if self._bound:
            raise ValueError("parameter is already bound to an optimizer")
        value[...] = self._value
        grad[...] = self._grad
        self._value, self._grad, self._bound = value, grad, True


def checked_arrays(arrays: dict, state: dict) -> dict:
    """``arrays`` as float64 copies, or SchemaMismatchError unless they have
    exactly the keys and shapes of the model ``state`` (a checkpoint that
    does not fit the model)."""
    for key, value in state.items():
        if key not in arrays:
            raise SchemaMismatchError(f"checkpoint has no array {key!r}")
        if np.shape(arrays[key]) != value.shape:
            raise SchemaMismatchError(f"checkpoint array {key!r} has shape "
                                      f"{np.shape(arrays[key])}, expected {value.shape}")
    for key in arrays:
        if key not in state:
            raise SchemaMismatchError(f"checkpoint array {key!r} is not one of the model's")
    return {key: np.array(value, dtype=np.float64) for key, value in arrays.items()}


class Dense:
    """Affine layer y = x W + b with uniform fan-in initialization."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(n_in)
        self.W = ParamTensor(rng.uniform(-bound, bound, size=(n_in, n_out)))
        self.b = ParamTensor(rng.uniform(-bound, bound, size=n_out))
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.shape[1] != self.W.value.shape[0]:
            raise SchemaMismatchError(
                f"dense layer expects width {self.W.value.shape[0]}, got {x.shape[1]}")
        self._cache = x
        return x @ self.W.value + self.b.value

    def backward(self, dy: np.ndarray, input_grad: bool = True):
        """Fill the parameter gradients; returns the input gradient, or None
        without ``input_grad``."""
        np.matmul(self._cache.T, dy, out=self.W.grad)
        dy.sum(axis=0, out=self.b.grad)
        return dy @ self.W.value.T if input_grad else None

    def params(self):
        return {"W": self.W, "b": self.b}


class BatchNorm:
    """Batch normalization with running statistics for inference.

    Train mode normalizes by batch mean/population variance and updates
    running stats with momentum 0.9; eval mode is a fixed affine map.
    ``running_mean`` and ``running_var`` are the rows of one ``running``
    array, so one momentum step updates both.
    """

    def __init__(self, width: int):
        self.gamma = ParamTensor(np.ones(width))
        self.beta = ParamTensor(np.zeros(width))
        self.running = np.array([np.zeros(width), np.ones(width)])
        self.running_mean, self.running_var = self.running
        self._batch = np.empty_like(self.running)  # this batch's mean and variance
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if train:  # the arithmetic of x.mean and x.var, with the mean taken once
            n = x.shape[0]
            mu, var = self._batch
            np.add.reduce(x, axis=0, out=mu)
            mu /= n
            d = x - mu
            np.add.reduce(d * d, axis=0, out=var)
            var /= n
            self.running *= BN_MOMENTUM
            self.running += (1 - BN_MOMENTUM) * self._batch
        else:
            d = x - self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        d *= inv_std  # d is now x-hat
        self._cache = (d, inv_std, train, x.shape[0])
        out = self.gamma.value * d
        out += self.beta.value
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Train mode: the compact form (gamma inv_std / n)(n dy - sum(dy)
        - xhat sum(dy xhat)), whose two sums are the beta and gamma
        gradients (Ioffe & Szegedy 2015, section 3)."""
        xhat, inv_std, train, n = self._cache
        t = dy * xhat
        np.add.reduce(t, axis=0, out=self.gamma.grad)
        np.add.reduce(dy, axis=0, out=self.beta.grad)
        if not train:
            return dy * self.gamma.value * inv_std
        np.multiply(xhat, self.gamma.grad, out=t)
        dx = n * dy
        dx -= self.beta.grad
        dx -= t
        dx *= self.gamma.value * inv_std / n
        return dx

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}


class Relu:
    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._cache = x > 0
        return x * self._cache

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._cache

    def params(self):
        return {}


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input first, output last) and hidden batch norm."""

    widths: tuple
    batch_norm: bool = True

    def __post_init__(self):
        if len(self.widths) < 2 or any(w <= 0 for w in self.widths):
            raise ValueError("widths must list >=2 positive integers")


class Mlp:
    """Feed-forward stack: (Dense -> [BatchNorm] -> ReLU)* -> Dense.

    The head Dense emits raw scores; callers (losses, predict) apply any
    softmax, so gradients can be fused with the loss.
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
        """x: (B, widths[0]) -> (B, widths[-1])."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def backward(self, dout: np.ndarray) -> None:
        """Fill every parameter gradient. No caller reads the gradient with
        respect to the input, so it is not computed."""
        for layer in reversed(self.layers[1:]):
            dout = layer.backward(dout)
        self.layers[0].backward(dout, input_grad=False)

    def clear_cache(self) -> None:
        for layer in self.layers:
            layer._cache = None

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
        """Copy ``arrays`` (as from ``state``) into the model; raises
        SchemaMismatchError when an array is missing, misshapen or extra."""
        arrays = checked_arrays(arrays, self.state())
        for k, p in self.params().items():
            p.value = arrays[k]
            p.grad.fill(0.0)
        for i, layer in enumerate(self.layers):
            if isinstance(layer, BatchNorm):
                layer.running_mean[...] = arrays[f"layer{i}.running_mean"]
                layer.running_var[...] = arrays[f"layer{i}.running_var"]
