"""Attribute-assisted multi-object tracking on synthetic pedestrian benchmarks."""

from .assoc import AssocConfig, Tracker, run_sequence, solve_assignment
from .core import AttributeVector, BBox, Detection, GtEntry, attribute_distance, cosine_distance, iou
from .fusion import FusionParams, FusionStrategy, TrainConfig, predict_attributes, train
from .metrics import clear_metrics, evaluate_sequences, hota_metrics, id_metrics, tpr_at_far
from .synthgen import WorldConfig, generate_benchmark, observe_frame, simulate_sequence

__version__ = "0.1.0"

__all__ = [
    "AssocConfig", "Tracker", "run_sequence", "solve_assignment",
    "AttributeVector", "BBox", "Detection", "GtEntry",
    "attribute_distance", "cosine_distance", "iou",
    "FusionParams", "FusionStrategy", "TrainConfig", "predict_attributes", "train",
    "clear_metrics", "evaluate_sequences", "hota_metrics", "id_metrics", "tpr_at_far",
    "WorldConfig", "generate_benchmark", "observe_frame", "simulate_sequence",
    "__version__",
]
