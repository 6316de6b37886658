"""Shared value types and pure geometric/feature distance functions.

Everything here is an immutable value or a pure function; the rest of the
package builds on these primitives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_ATTRIBUTES = 32

# Fixed attribute bit layout.  The group structure (one-hot body/hair,
# multi-hot colors) is what matters; labels are cosmetic.
IDX_GENDER_MALE = 0
BODY_SLICE = slice(1, 4)        # thin / medium / fat, one-hot
HAIR_SLICE = slice(4, 7)        # bald / short / long, one-hot
IDX_LONG_SLEEVE = 7
IDX_UPPER_LONG = 8
IDX_SKIRT = 9
IDX_LOWER_LONG = 10
IDX_BACKPACK = 11
IDX_HAT = 12
IDX_BOOTS = 13
UPPER_COLOR_SLICE = slice(14, 23)   # 9 colors, multi-hot, at least one
LOWER_COLOR_SLICE = slice(23, 32)   # 9 colors, multi-hot, at least one

COLOR_NAMES = (
    "black", "white", "gray", "red", "green", "blue", "yellow", "brown", "purple",
)

ATTRIBUTE_NAMES = (
    ("male",)
    + ("body_thin", "body_medium", "body_fat")
    + ("hair_bald", "hair_short", "hair_long")
    + ("long_sleeve", "upper_long", "skirt", "lower_long")
    + ("backpack", "hat", "boots")
    + tuple(f"upper_{c}" for c in COLOR_NAMES)
    + tuple(f"lower_{c}" for c in COLOR_NAMES)
)

assert len(ATTRIBUTE_NAMES) == N_ATTRIBUTES


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates (left, top, width, height)."""

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        for name in ("left", "top", "width", "height"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite bbox field {name}={v!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"non-positive box size {self.width}x{self.height}"
            )

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def cx(self) -> float:
        return self.left + self.width / 2.0

    @property
    def cy(self) -> float:
        return self.top + self.height / 2.0

    @property
    def area(self) -> float:
        return self.width * self.height

    def to_ltwh(self) -> np.ndarray:
        return np.array([self.left, self.top, self.width, self.height], dtype=np.float64)


def intersection_area(a: BBox, b: BBox) -> float:
    """Overlap area of two boxes; 0 when disjoint."""
    w = min(a.right, b.right) - max(a.left, b.left)
    h = min(a.bottom, b.bottom) - max(a.top, b.top)
    if w <= 0 or h <= 0:
        return 0.0
    return w * h


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    inter = intersection_area(a, b)
    if inter <= 0.0:
        return 0.0
    # clamp: coordinate roundoff can push the ratio a few ulp past 1
    return min(1.0, inter / (a.area + b.area - inter))


def box_rows(boxes) -> np.ndarray:
    """(N, 4) float array of (left, top, width, height) rows of the boxes."""
    return np.array([(b.left, b.top, b.width, b.height) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) IoU matrix between (N, 4) and (M, 4) arrays of
    (left, top, width, height) rows.

    Entry (i, j) is exactly ``iou`` of the two boxes: the same operations
    in the same order, the clamp to 1 included.
    """
    right_a, right_b = a[:, 0] + a[:, 2], b[:, 0] + b[:, 2]
    bottom_a, bottom_b = a[:, 1] + a[:, 3], b[:, 1] + b[:, 3]
    w = np.minimum(right_a[:, None], right_b[None, :]) - np.maximum(a[:, None, 0], b[None, :, 0])
    h = np.minimum(bottom_a[:, None], bottom_b[None, :]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((w > 0) & (h > 0), w * h, 0.0)
    union = (a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter
    return np.where(inter > 0.0, np.minimum(inter / union, 1.0), 0.0)


def occlusion_fraction(target: BBox, occluder: BBox) -> float:
    """Fraction of the target box covered by the occluder, in [0, 1]."""
    return min(1.0, intersection_area(target, occluder) / target.area)


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cos(u, v), clamped to [0, 2].

    Raises ValueError on zero vectors or mismatched dimensions.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("degenerate embedding")
    d = 1.0 - float(np.dot(u, v)) / (nu * nv)
    return min(2.0, max(0.0, d))


def attribute_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Mean absolute difference over the 32 attribute slots, in [0, 1]."""
    p = as_attribute_values(p)
    q = as_attribute_values(q)
    if p.shape != (N_ATTRIBUTES,) or q.shape != (N_ATTRIBUTES,):
        raise ValueError(f"attribute length mismatch {p.shape} vs {q.shape}")
    return float(np.mean(np.abs(p - q)))


def as_attribute_values(x) -> np.ndarray:
    """Coerce an AttributeVector or array-like to a float (32,) array."""
    if isinstance(x, AttributeVector):
        return x.values
    return np.asarray(x, dtype=np.float64)


def validate_binary_attributes(bits) -> np.ndarray:
    """Validate a binary attribute vector against the group constraints.

    Body-shape and hair-length bits are one-hot; each color group is
    multi-hot with at least one bit set.  Returns the validated array.
    """
    bits = np.asarray(bits, dtype=np.float64)
    if bits.shape != (N_ATTRIBUTES,):
        raise ValueError(f"expected {N_ATTRIBUTES} attribute bits, got shape {bits.shape}")
    if not np.all((bits == 0.0) | (bits == 1.0)):
        raise ValueError("binary attribute vector contains non-binary values")
    if bits[BODY_SLICE].sum() != 1:
        raise ValueError("body-shape bits must be one-hot")
    if bits[HAIR_SLICE].sum() != 1:
        raise ValueError("hair-length bits must be one-hot")
    if bits[UPPER_COLOR_SLICE].sum() < 1:
        raise ValueError("upper-color bits must have at least one bit set")
    if bits[LOWER_COLOR_SLICE].sum() < 1:
        raise ValueError("lower-color bits must have at least one bit set")
    return bits


def validate_prob_attributes(values) -> np.ndarray:
    """Validate a probabilistic attribute vector (each entry in [0, 1])."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (N_ATTRIBUTES,):
        raise ValueError(f"expected {N_ATTRIBUTES} attribute values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("attribute vector contains non-finite values")
    if values.min() < 0.0 or values.max() > 1.0:
        raise ValueError("attribute probabilities must lie in [0, 1]")
    return values


@dataclass(frozen=True, eq=False)
class AttributeVector:
    """32-slot attribute vector, binary ground truth or unit-interval probs."""

    values: np.ndarray
    mode: str  # "binary" | "prob"

    @classmethod
    def binary(cls, bits) -> "AttributeVector":
        return cls(validate_binary_attributes(bits), "binary")

    @classmethod
    def prob(cls, values) -> "AttributeVector":
        return cls(validate_prob_attributes(values), "prob")

    def __eq__(self, other):
        if not isinstance(other, AttributeVector):
            return NotImplemented
        return self.mode == other.mode and np.array_equal(self.values, other.values)


@dataclass(frozen=True, eq=False)
class Detection:
    """One per-frame observation: box, confidence and appearance features.

    ``embedding`` and ``attr_obs`` may be None for detections parsed from a
    bare MOT file before the feature sidecar is joined.
    """

    frame: int
    box: BBox
    confidence: float
    embedding: np.ndarray | None = None
    attr_obs: np.ndarray | None = None

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.embedding is not None and not np.all(np.isfinite(self.embedding)):
            raise ValueError("embedding contains non-finite values")
        if self.attr_obs is not None:
            validate_prob_attributes(self.attr_obs)


@dataclass(frozen=True)
class GtEntry:
    """Ground-truth (or result) row: one identity's box in one frame.

    ``active`` mirrors the MOTChallenge confidence flag on ground-truth
    files: inactive entries mark ignore regions for evaluation.
    """

    frame: int
    identity: int
    box: BBox
    visibility: float = 1.0
    active: bool = True

    def __post_init__(self):
        if self.identity < 1:
            raise ValueError(f"identity must be positive, got {self.identity}")
