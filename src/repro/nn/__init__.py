"""Numpy deep-learning framework (§3.5) — the Keras/TensorFlow substitute.

Layers, Table-1 activations, Eq-12 losses, Eq-13–16 optimizers, the
Sequential training loop with early stopping (§5.6), Eq-17 metrics, and
the paper's MLP/CNN architectures (Figures 2–3).
"""

from .activations import ReLU, Sigmoid, Softmax, Tanh, get_activation
from .attention import MeanPool1D, SelfAttention, build_attention_network
from .architectures import (
    PAPER_CONFIGURATIONS,
    build_cnn,
    build_mlp,
    build_paper_network,
    paper_optimizer,
)
from .callbacks import EarlyStopping, History
from .contracts import ContractError, contracts_enabled
from .dtypes import DEFAULT_DTYPE, resolve_dtype
from .layers import Conv1D, Dense, Dropout, Flatten, Layer, MaxPool1D, Reshape
from .losses import (
    BinaryCrossEntropy,
    CategoricalCrossEntropy,
    MeanSquaredError,
    get_loss,
)
from .metrics import (
    ClassReport,
    accuracy,
    average_accuracy,
    classification_report,
    confusion_matrix,
    error_rate,
    macro_f1,
    msle,
    one_hot,
)
from .network import Sequential
from .optimizers import SGD, Adadelta, Adagrad, Adam, get_optimizer

__all__ = [
    "ContractError",
    "contracts_enabled",
    "DEFAULT_DTYPE",
    "resolve_dtype",
    "Layer",
    "Dense",
    "Conv1D",
    "MaxPool1D",
    "Flatten",
    "Reshape",
    "Dropout",
    "Sequential",
    "SGD",
    "Adagrad",
    "Adadelta",
    "Adam",
    "get_optimizer",
    "BinaryCrossEntropy",
    "CategoricalCrossEntropy",
    "MeanSquaredError",
    "get_loss",
    "Sigmoid",
    "Tanh",
    "ReLU",
    "Softmax",
    "get_activation",
    "EarlyStopping",
    "History",
    "accuracy",
    "average_accuracy",
    "error_rate",
    "confusion_matrix",
    "classification_report",
    "ClassReport",
    "macro_f1",
    "msle",
    "one_hot",
    "build_mlp",
    "build_cnn",
    "build_paper_network",
    "build_attention_network",
    "SelfAttention",
    "MeanPool1D",
    "paper_optimizer",
    "PAPER_CONFIGURATIONS",
]
