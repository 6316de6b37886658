"""Shared value types and pure geometric/feature distance functions.

Everything here is an immutable value or a pure function; the rest of the
package builds on these primitives.  A frame's detections travel through
the whole pipeline as one ``Detections`` table, checked once when it is
built, and a sequence's as a ``{frame: Detections}`` mapping.  A
sequence's ground truth or tracker results travel as one ``MotTable``,
likewise checked once.
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

# Association cost modes of the tracker (see ``assoc.build_cost_matrix``).
COST_MODES = ("iou", "embed", "attr", "embed+attr")


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


def _intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w = np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    h = np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    return np.where((w > 0) & (h > 0), w * h, 0.0)


def pairwise_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., N, M) intersection areas between (..., N, 4) and (..., M, 4)
    arrays of (left, top, width, height) rows; leading axes broadcast.

    Entry (i, j) is exactly ``intersection_area`` of the two boxes.
    """
    return _intersection(a[..., :, None, :], b[..., None, :, :])


def row_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each pair of (left, top, width, height) rows of two arrays
    that broadcast against each other.

    Each entry is exactly ``iou`` of its two boxes: the same operations in
    the same order, the clamp to 1 included.
    """
    inter = _intersection(a, b)
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    return np.where(inter > 0.0, np.minimum(inter / union, 1.0), 0.0)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) IoU matrix between (N, 4) and (M, 4) arrays of
    (left, top, width, height) rows; entry (i, j) is ``row_iou`` of row i
    of ``a`` and row j of ``b``."""
    return row_iou(a[:, None, :], b[None, :, :])


def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of a rectangular cost matrix.

    A port of the shortest-augmenting-path method of
    ``scipy.optimize.linear_sum_assignment`` (Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016) that returns the
    same ``(rows, cols)``, ties included: each search scans the remaining
    columns in scipy's order and prefers a free column among equal minima.
    A tall matrix is solved transposed, and the pairs are sorted by row.
    ``+inf`` marks a forbidden pair; a matrix with no complete assignment
    of finite cost, or with a NaN or ``-inf`` entry, raises ``ValueError``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {cost.ndim}-D array")
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    n_r, n_c = cost.shape
    if n_r == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    lows = cost.min(axis=1)                    # NaN where a row holds one
    if not (lows > -math.inf).all():
        raise ValueError("matrix contains invalid numeric entries")
    first, lows = cost.argmin(axis=1).tolist(), lows.tolist()
    rows = None                                # cost as lists, once a row needs them
    inf = math.inf
    u = [0.0] * n_r
    v = [0.0] * n_c
    col4row = [-1] * n_r
    row4col = [-1] * n_c
    path = [-1] * n_c
    v_zero = True
    for cur in range(n_r):
        # The search's first step prices every column at row - v (u[cur] is
        # still 0) and, among equal minima, takes the smallest free column,
        # else the largest.  A free pick ends the path at length one.
        j = first[cur]
        if v_zero and row4col[j] < 0:
            low = lows[cur]
        else:
            if rows is None:
                rows = cost.tolist()
            reduced = rows[cur] if v_zero else [c - vj for c, vj in zip(rows[cur], v)]
            low = min(reduced)
            j = reduced.index(low)
            if row4col[j] >= 0:
                j = next((k for k in range(j + 1, n_c)
                          if reduced[k] == low and row4col[k] < 0), -1)
        if low == inf:
            raise ValueError("cost matrix is infeasible")
        if j >= 0:
            u[cur] = low
            row4col[j] = cur
            col4row[cur] = j
            continue

        # The general shortest augmenting path from row cur.
        v_zero = False
        spc = [inf] * n_c                      # shortest path cost to each column
        remaining = list(range(n_c - 1, -1, -1))
        visited_rows, visited_cols = [], []
        min_val = 0.0
        i = cur
        while True:
            row, ui = rows[i], u[i]
            lowest, index = inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest, index = s, it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            visited_cols.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
            visited_rows.append(i)

        u[cur] += min_val
        for i in visited_rows:
            u[i] += min_val - spc[col4row[i]]
        for k in visited_cols:
            v[k] -= min_val - spc[k]
        while True:                            # augment along the path to j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break

    cols = np.array(col4row, dtype=np.int64)
    if transpose:
        order = np.argsort(cols)
        return cols[order], order
    return np.arange(n_r, dtype=np.int64), cols


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows of a 2-D array scaled to unit norm.

    Each row's norm is the square root of its own dot product, as
    ``np.linalg.norm`` computes the norm of one vector, so every row is
    bit-identical to ``row / np.linalg.norm(row)``.  A zero row raises
    ``ValueError``.
    """
    norms = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
    if (norms == 0).any():
        raise ValueError("degenerate embedding")
    return x / norms[:, None]


def first_broken(rules) -> tuple[int, str] | None:
    """``(row, reason)`` of the first row that breaks a rule, or None.

    ``rules`` is a sequence of ``(mask, reason)`` pairs in the order a row is
    checked, each mask one bool per row.  The reason is that of the first
    rule the row breaks; a callable reason is called with the row.
    """
    broken = np.array([mask for mask, _ in rules])
    if not broken.any():
        return None
    row = int(np.argmax(broken.any(axis=0)))
    reason = rules[int(np.argmax(broken[:, row]))][1]
    return row, reason(row) if callable(reason) else reason


class FeatureError(ValueError):
    """A detection's embedding or attribute row is not valid; the message
    names the row."""


def feature_row_error(embeddings: np.ndarray | None,
                      attrs: np.ndarray | None) -> tuple[int, str] | None:
    """First invalid row of stacked detection features, as ``(row, reason)``.

    ``embeddings`` is ``(N, D)`` and ``attrs`` ``(N, 32)``; either may be
    None.  A row is invalid when its embedding holds a non-finite value or
    its attributes are not finite values in [0, 1]; within one row the
    embedding is checked first.  Returns None when every row is valid.
    """
    # NaN fails every comparison, so the attribute range test also finds
    # non-finite values
    if ((embeddings is None or np.isfinite(embeddings).all())
            and (attrs is None or (attrs.min(initial=0.0) >= 0.0
                                   and attrs.max(initial=1.0) <= 1.0))):
        return None
    rules = []
    if embeddings is not None:
        rules.append((~np.isfinite(embeddings).all(axis=1), "embedding contains non-finite values"))
    if attrs is not None:
        rules += [(~np.isfinite(attrs).all(axis=1), "attribute vector contains non-finite values"),
                  (~((attrs >= 0.0) & (attrs <= 1.0)).all(axis=1),
                   "attribute probabilities must lie in [0, 1]")]
    return first_broken(rules)


def check_feature_rows(embeddings: np.ndarray | None, attrs: np.ndarray | None,
                       name_row) -> None:
    """Raise ``FeatureError`` for the first invalid row (``feature_row_error``);
    ``name_row(row)`` names it in the message."""
    bad = feature_row_error(embeddings, attrs)
    if bad is not None:
        raise FeatureError(f"{name_row(bad[0])}: {bad[1]}")


def binary_attribute_error(bits: np.ndarray) -> tuple[int, str] | None:
    """First row of an ``(n, 32)`` ground-truth attribute table that breaks
    the group rule, as ``(row, reason)``; None when every row holds it.

    Every value is 0 or 1, the body-shape and hair-length bits are one-hot,
    and each color group is multi-hot with at least one bit set.  The
    reason is the first of these rules the row breaks.  A table that is
    not ``(n, 32)`` raises ``ValueError``.
    """
    bits = np.asarray(bits, dtype=np.float64)
    if bits.ndim != 2 or bits.shape[1] != N_ATTRIBUTES:
        raise ValueError(f"expected (n, {N_ATTRIBUTES}) attribute bits, got shape {bits.shape}")
    rules = (
        (~((bits == 0.0) | (bits == 1.0)).all(axis=1),
         "binary attribute vector contains non-binary values"),
        (bits[:, BODY_SLICE].sum(axis=1) != 1, "body-shape bits must be one-hot"),
        (bits[:, HAIR_SLICE].sum(axis=1) != 1, "hair-length bits must be one-hot"),
        (bits[:, UPPER_COLOR_SLICE].sum(axis=1) < 1,
         "upper-color bits must have at least one bit set"),
        (bits[:, LOWER_COLOR_SLICE].sum(axis=1) < 1,
         "lower-color bits must have at least one bit set"),
    )
    return first_broken(rules)


@dataclass(frozen=True, eq=False)
class Detections:
    """One frame's detections as a checked table.

    ``boxes`` is ``(n, 4)`` (left, top, width, height) and ``confidences``
    ``(n,)``; ``embeddings`` ``(n, D)`` and ``attrs`` ``(n, 32)`` are the
    appearance features, or None for detections parsed from a bare MOT file
    before the feature sidecar is joined.  Construction is the one place a
    frame's rows are checked: the frame is >= 1, every box is finite with a
    positive size, every confidence lies in [0, 1], and the features pass
    ``check_feature_rows`` (finite embeddings, exactly 32 attribute values
    in [0, 1]), whose ``FeatureError`` names ``frame F, detection R``.
    Each array is kept as a read-only view of the one given, never a copy,
    so a batch may view a row range of a whole sequence's table.
    """

    frame: int
    boxes: np.ndarray
    confidences: np.ndarray
    embeddings: np.ndarray | None = None
    attrs: np.ndarray | None = None

    def __post_init__(self):
        frame = self.frame
        if frame < 1:
            raise ValueError(f"frame index must be >= 1, got {frame}")
        for name in ("boxes", "confidences", "embeddings", "attrs"):
            if getattr(self, name) is not None:
                view = np.asarray(getattr(self, name), dtype=np.float64).view()
                view.flags.writeable = False
                object.__setattr__(self, name, view)
        boxes, conf, emb, attrs = self.boxes, self.confidences, self.embeddings, self.attrs
        n = len(boxes)
        if boxes.shape != (n, 4) or conf.shape != (n,):
            raise ValueError(f"frame {frame}: expected (n, 4) boxes and (n,) confidences, "
                             f"got shapes {boxes.shape} and {conf.shape}")
        for name, table in (("embeddings", emb), ("attrs", attrs)):
            if table is not None and (table.ndim != 2 or len(table) != n):
                raise ValueError(f"frame {frame}: expected {n} rows of {name}, "
                                 f"got shape {table.shape}")
        if attrs is not None and attrs.shape[1] != N_ATTRIBUTES:
            raise FeatureError(f"frame {frame}, detection 0: expected {N_ATTRIBUTES} attribute "
                               f"values, got shape {attrs.shape[1:]}")
        ok = (np.isfinite(boxes).all(axis=1) & (boxes[:, 2] > 0) & (boxes[:, 3] > 0)
              & (conf >= 0.0) & (conf <= 1.0))
        if not ok.all():
            r = int(np.argmin(ok))
            raise ValueError(f"frame {frame}, detection {r}: box {boxes[r].tolist()} must be "
                             f"finite with a positive size and confidence {conf[r]} in [0, 1]")
        check_feature_rows(emb, attrs, lambda r: f"frame {frame}, detection {r}")

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True, eq=False)
class TrainSample:
    """Fusion-head training crops as stacked columns: ``embedding``
    ``(n, D)``, ``attr_obs`` ``(n, 32)``, ``identity`` ``(n,)`` int64 labels
    and ``gt_attrs`` ``(n, 32)``.  ``fusion.grad_check`` reads one crop,
    with 1-D fields and an int ``identity``."""

    embedding: np.ndarray
    attr_obs: np.ndarray
    identity: np.ndarray | int
    gt_attrs: np.ndarray


def _int_column(name: str, values) -> np.ndarray:
    """``values`` as an int64 array; a float or bool column is refused,
    never truncated."""
    column = np.asarray(values)
    if column.size and column.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {column.dtype}")
    return column.astype(np.int64)


@dataclass(frozen=True, eq=False)
class MotTable:
    """One sequence's ground truth or tracker results as a checked table.

    ``frames`` and ``ids`` are ``(n,)`` int64, ``boxes`` ``(n, 4)`` (left,
    top, width, height), ``active`` ``(n,)`` bool (the MOTChallenge flag of
    a ground-truth row: an inactive row is an ignore region) and
    ``visibility`` ``(n,)``; ``active`` defaults to all true and
    ``visibility`` to all 1.0.  The constructor sorts the rows into
    (frame, identity) order and is the one place they are checked: every
    frame and identity is >= 1, every box is finite with a positive size,
    every visibility lies in [0, 1], and no identity appears twice in one
    frame.  The columns are read-only.  Two tables are equal when every
    column is.
    """

    frames: np.ndarray
    ids: np.ndarray
    boxes: np.ndarray
    active: np.ndarray | None = None
    visibility: np.ndarray | None = None

    def __post_init__(self):
        frames = _int_column("frames", self.frames)
        ids = _int_column("ids", self.ids)
        n = len(frames)
        boxes = np.asarray(self.boxes, dtype=np.float64)
        if boxes.size == 0:
            boxes = boxes.reshape(0, 4)
        active = (np.ones(n, dtype=bool) if self.active is None
                  else np.asarray(self.active, dtype=bool))
        vis = (np.ones(n) if self.visibility is None
               else np.asarray(self.visibility, dtype=np.float64))
        if (frames.shape != (n,) or ids.shape != (n,) or boxes.shape != (n, 4)
                or active.shape != (n,) or vis.shape != (n,)):
            raise ValueError(f"expected (n,) frames, ids, active and visibility and (n, 4) "
                             f"boxes, got shapes {frames.shape}, {ids.shape}, {active.shape}, "
                             f"{vis.shape} and {boxes.shape}")
        order = np.lexsort((ids, frames))
        if (order[1:] < order[:-1]).any():
            frames, ids, boxes, active, vis = (c[order] for c in (frames, ids, boxes, active, vis))
        ok = ((frames >= 1) & (ids >= 1) & np.isfinite(boxes).all(axis=1)
              & (boxes[:, 2] > 0) & (boxes[:, 3] > 0) & (vis >= 0.0) & (vis <= 1.0))
        if not ok.all():
            r = int(np.argmin(ok))
            raise ValueError(f"frame {frames[r]}, identity {ids[r]}: frame and identity must be "
                             f">= 1, box {boxes[r].tolist()} finite with a positive size and "
                             f"visibility {vis[r]} in [0, 1]")
        repeat = (frames[1:] == frames[:-1]) & (ids[1:] == ids[:-1])
        if repeat.any():
            r = int(np.argmax(repeat))
            raise ValueError(f"frame {frames[r]}: identity {ids[r]} appears twice")
        for name, column in (("frames", frames), ("ids", ids), ("boxes", boxes),
                             ("active", active), ("visibility", vis)):
            column = column.view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.frames)

    def __eq__(self, other):
        if not isinstance(other, MotTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("frames", "ids", "boxes", "active", "visibility"))
