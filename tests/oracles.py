"""Scalar and row-at-a-time oracles shared by the tests.

The package computes these quantities as array expressions; the tests
check them against the one-pair and one-row definitions kept here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from attmot.core import (BODY_SLICE, HAIR_SLICE, LOWER_COLOR_SLICE, N_ATTRIBUTES,
                         UPPER_COLOR_SLICE, BBox, MotTable, intersection_area, pairwise_iou)


def occlusion_fraction(target: BBox, occluder: BBox) -> float:
    """Fraction of the target box covered by the occluder, in [0, 1]."""
    return min(1.0, intersection_area(target, occluder) / target.area)


def cosine_distance(u, v) -> float:
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


def attribute_distance(p, q) -> float:
    """Mean absolute difference over the 32 attribute slots, in [0, 1]."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.shape != (N_ATTRIBUTES,) or q.shape != (N_ATTRIBUTES,):
        raise ValueError(f"attribute length mismatch {p.shape} vs {q.shape}")
    return float(np.mean(np.abs(p - q)))


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


@dataclass(frozen=True)
class Row:
    """One ground-truth or result row: one identity's box in one frame."""

    frame: int
    identity: int
    box: BBox
    visibility: float = 1.0
    active: bool = True


def by_frame_identity(rows: list[Row]) -> list[Row]:
    """The rows in ``MotTable`` order."""
    return sorted(rows, key=lambda r: (r.frame, r.identity))


def mot(rows: list[Row]) -> MotTable:
    """The ``MotTable`` of the rows."""
    return MotTable([r.frame for r in rows], [r.identity for r in rows],
                    np.array([(r.box.left, r.box.top, r.box.width, r.box.height) for r in rows],
                             dtype=np.float64).reshape(-1, 4),
                    [r.active for r in rows], [r.visibility for r in rows])


def rows_of(table: MotTable) -> list[Row]:
    """The rows of a ``MotTable``, in its order."""
    return [Row(f, i, BBox(*box), vis, active) for f, i, box, vis, active in zip(
        table.frames.tolist(), table.ids.tolist(), table.boxes.tolist(),
        table.visibility.tolist(), table.active.tolist())]


def gallery_min_cosine_batched(gallery, unit) -> np.ndarray:
    """(T, N) min cosine distance from each unit row to each track's
    gallery ring, every pair priced by one batched product, as the
    tracker did before it priced only the gated-in pairs."""
    return np.clip(1.0 - (gallery @ unit.T).max(axis=1), 0.0, 2.0)


def dense_cost_matrix(tracks, frame, config, infeasible, box_rows) -> np.ndarray:
    """(T, N) cost of every pair as the tracker priced it before every mode
    priced only the gated-in pairs: the IoU and the attribute term over all
    pairs, the embedding term on the gated-in pairs only (0 elsewhere), and
    +inf filled into the gated-out entries once the terms are combined.
    ``box_rows`` turns Kalman means into (left, top, width, height) rows."""
    mode = config.mode
    if mode in ("embed", "embed+attr"):
        rows, cols = np.nonzero(~infeasible)
        embed_mat = np.zeros(infeasible.shape)
        if len(rows):
            feats = frame.unit[cols]
            cuts = (np.flatnonzero(np.diff(rows)) + 1).tolist()
            sims = [tracks.gallery[rows[a]] @ feats[a:b].T
                    for a, b in zip([0] + cuts, cuts + [len(rows)])]
            embed_mat[rows, cols] = np.clip(
                1.0 - np.concatenate(sims, axis=1).max(axis=0), 0.0, 2.0)
    if mode in ("attr", "embed+attr"):
        attr_mat = np.abs(tracks.attr[:, None, :] - frame.attrs[None, :, :]).mean(axis=2)
    if mode == "iou":
        cost = 1.0 - pairwise_iou(box_rows(tracks.mean), frame.boxes)
    elif mode == "embed":
        cost = embed_mat
    elif mode == "attr":
        cost = attr_mat
    else:
        cost = config.lambda_e * embed_mat + config.lambda_a * attr_mat
    cost[infeasible] = np.inf
    return cost
