"""From-scratch neural classifiers: layers, presets, SGD training."""

from .layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Flatten,
    Layer,
    LayerError,
    ReLU,
    Reshape,
    Tanh,
)
from .network import (
    CheckpointError,
    ModelError,
    ModelMeta,
    Network,
    PRESETS,
    init_model,
    load_model,
    predict,
    predict_logits,
    save_model,
)
from .training import TrainConfig, TrainReport, TrainingDivergedError, train

__all__ = [
    "AvgPool2D",
    "CheckpointError",
    "Conv2D",
    "Dense",
    "Flatten",
    "Layer",
    "LayerError",
    "ModelError",
    "ModelMeta",
    "Network",
    "PRESETS",
    "ReLU",
    "Reshape",
    "Tanh",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "init_model",
    "load_model",
    "predict",
    "predict_logits",
    "save_model",
    "train",
]
