"""Stochastic text-mass modeling for text-video retrieval on synthetic data.

A text embedding is widened into a mass of stochastic samples t_s = t + R*eps
whose per-dimension radius R is derived from text-frame cosine similarities.
Training optimizes a symmetric contrastive objective over the sampled texts,
optionally regularized by a support vector on the mass surface; inference
scores each (query, candidate) pair by the best of M samples. Everything runs
on numpy float64 with hand-written gradients and fully seeded randomness.
"""

from .core import ContractViolation, DegenerateGeometryError, FormatError, OracleFailure
from .dataset import SyntheticSpec, generate, split_arrays
from .evaluation import inference_similarity_matrix, rank_metrics
from .mass import SamplingConfig
from .trainer import TrainingConfig, TrainingDivergence, train
from .workbench import RunConfig

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "DegenerateGeometryError",
    "FormatError",
    "OracleFailure",
    "RunConfig",
    "SamplingConfig",
    "SyntheticSpec",
    "TrainingConfig",
    "TrainingDivergence",
    "generate",
    "inference_similarity_matrix",
    "rank_metrics",
    "split_arrays",
    "train",
]
