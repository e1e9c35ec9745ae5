"""Unsupervised metric learning on piecewise-linear manifold approximations."""

from .data import FeatureDataset, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .evaluation import evaluate_embeddings, recall_at_k
from .manifold import ManifoldConfig, Neighborhoods, fit_all_neighborhoods
from .similarity import SimilarityConfig, pairwise_similarity_matrix
from .trainer import LossConfig, SamplerConfig, TrainConfig, Trainer, save_checkpoint, trainer_from_checkpoint

__version__ = "0.1.0"

__all__ = [
    "FeatureDataset",
    "SyntheticSpec",
    "generate_synthetic",
    "load_dataset",
    "save_dataset",
    "evaluate_embeddings",
    "recall_at_k",
    "ManifoldConfig",
    "Neighborhoods",
    "fit_all_neighborhoods",
    "SimilarityConfig",
    "pairwise_similarity_matrix",
    "LossConfig",
    "SamplerConfig",
    "TrainConfig",
    "Trainer",
    "save_checkpoint",
    "trainer_from_checkpoint",
]
