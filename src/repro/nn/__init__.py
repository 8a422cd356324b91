"""Numpy neural-network substrate (replaces PyTorch in the original system)."""

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.layers import Embedding, Flatten, Linear
from repro.nn.losses import CrossEntropyLoss, Loss, MSELoss, log_softmax, softmax
from repro.nn.models import (
    CelebACNN,
    CharLSTM,
    ConvClassifier,
    FEMNISTCNN,
    GNLeNet,
    MatrixFactorization,
    MLPClassifier,
)
from repro.nn.module import (
    Module,
    Parameter,
    get_flat_gradients,
    get_flat_parameters,
    set_flat_parameters,
)
from repro.nn.optim import SGD
from repro.nn.rnn import LSTM, LSTMLayer

__all__ = [
    "ReLU",
    "Conv2d",
    "MaxPool2d",
    "Embedding",
    "Flatten",
    "Linear",
    "CrossEntropyLoss",
    "Loss",
    "MSELoss",
    "log_softmax",
    "softmax",
    "CelebACNN",
    "CharLSTM",
    "ConvClassifier",
    "FEMNISTCNN",
    "GNLeNet",
    "MatrixFactorization",
    "MLPClassifier",
    "Module",
    "Parameter",
    "get_flat_gradients",
    "get_flat_parameters",
    "set_flat_parameters",
    "SGD",
    "LSTM",
    "LSTMLayer",
]
