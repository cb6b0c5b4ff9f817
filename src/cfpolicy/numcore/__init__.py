"""Minimal differentiable computation for the fixed architectures used here."""

from .layers import BatchNorm, Dense, Mlp, MlpSpec, Model, ParamTensor, Relu
from .losses import mse_loss, nll_loss, rmse_loss, sigmoid, softmax
from .lstm import RecurrentRegressor
from .optim import Adam
from .training import blocked_loss, fit, infer
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "ParamTensor", "Model", "Dense", "BatchNorm", "Relu", "Mlp", "MlpSpec",
    "RecurrentRegressor", "sigmoid", "softmax", "rmse_loss", "nll_loss", "mse_loss",
    "Adam", "blocked_loss", "fit", "infer", "save_checkpoint", "load_checkpoint",
]
