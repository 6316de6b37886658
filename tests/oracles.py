"""Scalar and row-at-a-time oracles shared by the tests.

The package computes these quantities as array expressions; the tests
check them against the one-pair and one-row definitions kept here, and
the fusion head, which never builds its query or attended tokens, against
the graph that builds them all.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from attmot import autodiff as ad
from attmot import fusion
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


def _narrow_tokens(a: ad.Var, start: int, length: int) -> ad.Var:
    """Token rows ``start:start + length`` of ``a``; the gradient is zero
    on the other rows."""
    idx = (Ellipsis, slice(start, start + length), slice(None))
    if not a.requires_grad:
        return ad.Var(a.value[idx])

    def fn(g):
        full = np.zeros_like(a.value)
        full[idx] = g
        return full

    return ad.Var(a.value[idx], (a,), (fn,))


def _attend_materialized(p, q: ad.Var, kv: ad.Var) -> ad.Var:
    scores = (q @ p["wq"]) @ ad.transpose_last(kv @ p["wk"])
    return ad.softmax(scores, axis=-1) @ (kv @ p["wv"])


def materialized_strategy_forward(p, e1: ad.Var, a1, strategy, params):
    """``fusion._strategy_forward`` as the graph that builds every token
    tensor: the query tokens ``a1[..., None] * attr_embed``, each attend's
    output tokens, and ``concat-self``'s joint self-attention over all its
    tokens, whose query rows are narrowed out; the head then dots each
    attended token with its row of ``attr_head_w``.  Same signature, so it
    can stand in for ``_strategy_forward``."""
    if a1 is None:
        a1 = fusion._raw_attr_feature(p, e1)
    e_out = e1 if strategy.kind == "attr-only" else fusion._adaptor(p, e1)
    kv = fusion._tokens(e_out, params.n_tokens, params.token_dim)
    q = ad.reshape(a1, a1.shape + (1,)) * p["attr_embed"]
    if strategy.kind in ("preproc-attr", "attr-only"):
        out = _attend_materialized(p, q, kv)
    elif strategy.kind == "preproc-both":
        out = _attend_materialized(p, _attend_materialized(p, q, q), kv)
    elif strategy.kind == "cross-fertilize":
        a_tok, e_tok = q, kv
        for r in range(strategy.rounds):
            a_new = _attend_materialized(p, a_tok, e_tok)
            if r + 1 < strategy.rounds:
                e_tok = _attend_materialized(p, e_tok, a_tok)
            a_tok = a_new
        out = a_tok
    elif strategy.kind == "self-enhance":
        out = q
        for _ in range(strategy.rounds):
            out = _attend_materialized(p, out, out)
    else:
        all_tok = ad.concat([kv, q], axis=-2)
        out = _narrow_tokens(_attend_materialized(p, all_tok, all_tok), params.n_tokens,
                             N_ATTRIBUTES)
    logits = ad.sum_(out * p["attr_head_w"], axis=-1) + p["attr_head_b"]
    return logits, e_out
