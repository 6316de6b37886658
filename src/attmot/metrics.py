"""Tracking evaluation: CLEAR metrics, identity metrics, the HOTA family
and verification TPR@FAR.

Every tracking metric scores a sequence's ground truth and predictions,
each one ``core.MotTable``, through one per-frame match table
(``_frame_table``): identities are numbered once per sequence, in order
of first appearance, and each frame holds the index arrays of its active
ground-truth and surviving prediction identities and their IoU matrix.
``evaluate_sequences`` builds it once per sequence and hands it to the
CLEAR, ID and HOTA scorers; the public ``clear_metrics``, ``id_metrics``
and ``hota_metrics`` each build it and score it.

The protocol is fixed: a match needs IoU >= ``IOU_THRESHOLD`` (0.5).
CLEAR matching keeps previous-frame correspondences while they still
overlap (the continuity rule), then matches the remainder with the
Hungarian algorithm; an identity switch is counted when a ground-truth
trajectory's matched id differs from its most recent earlier match.

Ground-truth rows with the active flag 0 are ignore regions: they are
excluded from FN counting, and predictions matched to them are suppressed
before scoring.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from .core import MotTable, linear_sum_assignment, pairwise_iou, row_iou

IOU_THRESHOLD = 0.5
HOTA_ALPHAS = np.round(np.arange(0.05, 0.96, 0.05), 2)  # 19 thresholds


@dataclass(frozen=True)
class FrameTable:
    """Per frame, in frame order: ``(gt index array, prediction index
    array, IoU matrix)``; identity indices run over ``0..n_gt-1`` and
    ``0..n_pred-1``."""

    frames: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    n_gt: int
    n_pred: int


def _distinct(sorted_values: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array.  (``np.union1d`` and
    ``np.intersect1d`` would import ``numpy.ma`` on first use.)"""
    keep = np.ones(len(sorted_values), dtype=bool)
    keep[1:] = sorted_values[1:] != sorted_values[:-1]
    return sorted_values[keep]


def _number(ids: np.ndarray) -> tuple[np.ndarray, int]:
    """Index of each identity, numbered in order of first appearance."""
    uniq, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(uniq))
    return rank[inverse], len(uniq)


def _iou_match(iou: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the Hungarian match on ``1 - iou`` of the pairs
    with IoU >= ``IOU_THRESHOLD``; no other pair is matched."""
    cost = np.where(iou >= IOU_THRESHOLD, 1.0 - iou, 1e5)
    rows, cols = linear_sum_assignment(cost)
    keep = cost[rows, cols] < 1e5
    return rows[keep], cols[keep]


def _frame_table(gt: MotTable, pred: MotTable) -> FrameTable:
    """The frame table of one sequence.

    The IoU of every same-frame (active gt, prediction) pair of the two
    tables is one elementwise pass, and each frame holds views of it.  A
    prediction matched (Hungarian, IoU >= ``IOU_THRESHOLD``) to an
    inactive gt row is dropped.
    """
    g_frame, g_id, g_active, g_box = gt.frames, gt.ids, gt.active, gt.boxes
    p_frame, p_id, p_box = pred.frames, pred.ids, pred.boxes
    frames = _distinct(np.sort(np.concatenate((g_frame, p_frame))))

    keep = np.ones(len(p_frame), dtype=bool)
    ignored = ~g_active
    ig_frames = _distinct(g_frame[ignored])
    shared = np.searchsorted(p_frame, ig_frames, "right") > np.searchsorted(p_frame, ig_frames)
    for f in ig_frames[shared].tolist():
        ig = g_box[ignored & (g_frame == f)]
        in_f = np.flatnonzero(p_frame == f)
        keep[in_f[_iou_match(pairwise_iou(ig, p_box[in_f]))[1]]] = False
    g_frame, g_box = g_frame[g_active], g_box[g_active]
    p_frame, p_box = p_frame[keep], p_box[keep]
    g_num, n_gt = _number(g_id[g_active])
    p_num, n_pred = _number(p_id[keep])

    # Segment k of a side holds its rows of frames[k]; the pairs of frame k
    # are its gt rows times its prediction rows, row-major.
    g_lo, g_hi = np.searchsorted(g_frame, frames), np.searchsorted(g_frame, frames, "right")
    p_lo, p_hi = np.searchsorted(p_frame, frames), np.searchsorted(p_frame, frames, "right")
    n_g, n_p = g_hi - g_lo, p_hi - p_lo
    sizes = n_g * n_p
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(len(frames)), sizes)
    pos = np.arange(sizes.sum()) - starts[seg]
    sim = row_iou(g_box[g_lo[seg] + pos // n_p[seg]], p_box[p_lo[seg] + pos % n_p[seg]])
    table = [(g_num[gl:gh], p_num[pl:ph], sim[s:s + a * b].reshape(a, b))
             for gl, gh, pl, ph, a, b, s in zip(g_lo.tolist(), g_hi.tolist(), p_lo.tolist(),
                                                p_hi.tolist(), n_g.tolist(), n_p.tolist(),
                                                starts.tolist())]
    return FrameTable(table, n_gt, n_pred)


@dataclass
class ClearResult:
    mota: float
    fp: int
    fn: int
    idsw: int
    n_gt: int

    @classmethod
    def of(cls, fp: int, fn: int, idsw: int, n_gt: int) -> "ClearResult":
        """MOTA = 1 - (FN + FP + IDSW) / total GT boxes."""
        if n_gt == 0:
            raise ValueError("MOTA undefined: no ground-truth boxes")
        return cls(mota=1.0 - (fn + fp + idsw) / n_gt, fp=fp, fn=fn, idsw=idsw, n_gt=n_gt)


def _score_clear(table: FrameTable) -> ClearResult:
    """CLEAR counts and MOTA of a frame table."""
    last_match = [-1] * table.n_gt  # pred index of each gt index's latest match
    fp = fn = idsw = n_gt = 0
    for g_idx, p_idx, sim in table.frames:
        g_ids, p_ids = g_idx.tolist(), p_idx.tolist()
        n_gt += len(g_ids)
        matches: dict[int, int] = {}  # gt row -> prediction column
        used_pred: set[int] = set()
        # Continuity: keep last frame's correspondence while it still holds.
        column = {pid: j for j, pid in enumerate(p_ids)}
        for gi, gid in enumerate(g_ids):
            j = column.get(last_match[gid])
            if j is not None and j not in used_pred and sim[gi, j] >= IOU_THRESHOLD:
                matches[gi] = j
                used_pred.add(j)
        rem_g = [gi for gi in range(len(g_ids)) if gi not in matches]
        rem_p = [j for j in range(len(p_ids)) if j not in used_pred]
        if rem_g and rem_p:
            for a, b in zip(*_iou_match(sim[np.ix_(rem_g, rem_p)])):
                matches[rem_g[a]] = rem_p[b]
        for gi, j in matches.items():
            gid, pid = g_ids[gi], p_ids[j]
            if last_match[gid] not in (-1, pid):
                idsw += 1
            last_match[gid] = pid
        fn += len(g_ids) - len(matches)
        fp += len(p_ids) - len(matches)
    return ClearResult.of(fp, fn, idsw, n_gt)


def clear_metrics(gt: MotTable, pred: MotTable) -> ClearResult:
    """CLEAR counts and MOTA = 1 - (FN + FP + IDSW) / total GT boxes."""
    return _score_clear(_frame_table(gt, pred))


@dataclass
class IdResult:
    idf1: float
    idp: float
    idr: float
    idtp: int
    idfp: int
    idfn: int

    @classmethod
    def of(cls, idtp: int, idfp: int, idfn: int) -> "IdResult":
        """IDF1, IDP and IDR of the identity counts (0 where undefined)."""
        denom = 2 * idtp + idfp + idfn
        return cls(idf1=2 * idtp / denom if denom else 0.0,
                   idp=idtp / (idtp + idfp) if idtp + idfp else 0.0,
                   idr=idtp / (idtp + idfn) if idtp + idfn else 0.0,
                   idtp=idtp, idfp=idfp, idfn=idfn)


def _score_id(table: FrameTable) -> IdResult:
    """Identity metrics of a frame table (see ``id_metrics``)."""
    n_g, n_p = table.n_gt, table.n_pred
    if n_g == 0:
        raise ValueError("identity metrics undefined: no ground-truth trajectories")
    gt_len = np.zeros(n_g, dtype=np.int64)
    pr_len = np.zeros(n_p, dtype=np.int64)
    overlap = np.zeros((n_g, n_p), dtype=np.int64)
    for g_idx, p_idx, sim in table.frames:
        gt_len[g_idx] += 1
        pr_len[p_idx] += 1
        gi, pj = np.nonzero(sim >= IOU_THRESHOLD)
        overlap[g_idx[gi], p_idx[pj]] += 1  # each (gt, pred) pair once per frame
    # Pairing gt i with prediction j saves 2 * overlap[i, j] of IDFP + IDFN,
    # so the maximum-overlap pairing minimizes IDFP + IDFN.
    rows, cols = linear_sum_assignment(-overlap)
    idtp = int(overlap[rows, cols].sum())
    return IdResult.of(idtp, int(pr_len.sum()) - idtp, int(gt_len.sum()) - idtp)


def id_metrics(gt: MotTable, pred: MotTable) -> IdResult:
    """Identity metrics under the optimal trajectory-level bipartite pairing.

    A gt trajectory paired with a predicted trajectory scores one IDTP per
    frame where both are present and overlap at least ``IOU_THRESHOLD``.
    The pairing minimizes IDFP + IDFN: pairing gt ``i`` with prediction
    ``j`` saves twice their overlap, so it is the ``n_gt x n_pred``
    maximum-overlap assignment.
    """
    return _score_id(_frame_table(gt, pred))


@dataclass
class HotaResult:
    hota: float
    deta: float
    assa: float
    # per-alpha accumulators kept for exact cross-sequence pooling
    tp: np.ndarray = field(repr=False, default=None)
    fn: np.ndarray = field(repr=False, default=None)
    fp: np.ndarray = field(repr=False, default=None)
    ass_sum: np.ndarray = field(repr=False, default=None)


def _hota_from_counts(tp, fn, fp, ass_sum):
    det_a = np.where(tp + fn + fp > 0, tp / np.maximum(tp + fn + fp, 1e-12), 0.0)
    ass_a = np.where(tp > 0, ass_sum / np.maximum(tp, 1e-12), 0.0)
    hota_a = np.sqrt(det_a * ass_a)
    return float(hota_a.mean()), float(det_a.mean()), float(ass_a.mean())


def _score_hota(table: FrameTable) -> HotaResult:
    """HOTA family of a frame table (see ``hota_metrics``)."""
    frames, n_g, n_p = table.frames, table.n_gt, table.n_pred
    if n_g == 0:
        raise ValueError("HOTA undefined: no ground-truth boxes")
    n_alpha = len(HOTA_ALPHAS)
    n_gt_boxes = float(sum(len(g) for g, _, _ in frames))
    if n_p == 0:
        zero = np.zeros(n_alpha)
        return HotaResult(0.0, 0.0, 0.0, tp=zero, fn=np.full(n_alpha, n_gt_boxes),
                          fp=zero.copy(), ass_sum=zero.copy())

    # Pass 1: global alignment scores.
    potential = np.zeros((n_g, n_p))
    gt_count = np.zeros(n_g)
    pr_count = np.zeros(n_p)
    for g_idx, p_idx, sim in frames:
        if sim.size:
            denom = sim.sum(axis=0, keepdims=True) + sim.sum(axis=1, keepdims=True) - sim
            ratio = np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 1e-12)
            potential[g_idx[:, None], p_idx] += ratio
        gt_count[g_idx] += 1
        pr_count[p_idx] += 1
    alignment = potential / np.maximum(gt_count[:, None] + pr_count[None, :] - potential, 1e-12)

    # Pass 2: one alignment-weighted Hungarian match per frame; the matched
    # pairs of all frames are then thresholded at every alpha at once.
    matched = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    for g_idx, p_idx, sim in frames:
        if sim.size:
            rows, cols = linear_sum_assignment(-(alignment[g_idx[:, None], p_idx] * sim))
            matched.append((g_idx[rows], p_idx[cols], sim[rows, cols]))
    match_g, match_p, match_iou = (np.concatenate(c) for c in zip(*matched))
    hit = match_iou[None, :] >= (HOTA_ALPHAS - 1e-12)[:, None]  # (alpha, match)
    tp = hit.sum(axis=1).astype(np.float64)
    fn = n_gt_boxes - tp
    fp = float(sum(len(p) for _, p, _ in frames)) - tp
    # Per-alpha association counts.
    alpha_idx, m_idx = np.nonzero(hit)
    match_counts = np.zeros((n_alpha, n_g, n_p))
    np.add.at(match_counts, (alpha_idx, match_g[m_idx], match_p[m_idx]), 1.0)
    union = gt_count[:, None] + pr_count[None, :] - match_counts
    ass = np.divide(match_counts, np.maximum(union, 1e-12))
    ass_sum = (match_counts * ass).reshape(n_alpha, -1).sum(axis=1)
    hota, deta, assa = _hota_from_counts(tp, fn, fp, ass_sum)
    return HotaResult(hota, deta, assa, tp=tp, fn=fn, fp=fp, ass_sum=ass_sum)


def hota_metrics(gt: MotTable, pred: MotTable) -> HotaResult:
    """HOTA averaged over 19 localization thresholds, with DetA and AssA.

    Follows the published two-pass procedure: a global alignment score per
    (gt id, pred id) guides per-frame Hungarian matching at each threshold;
    the association score of a matched pair is TPA / (TPA + FNA + FPA).
    """
    return _score_hota(_frame_table(gt, pred))


# ---------------------------------------------------------------------------
# Verification: TPR at fixed FAR
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VerificationSet:
    """Similarity scores for same-identity and different-identity pairs."""

    pos_scores: np.ndarray
    neg_scores: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.pos_scores, dtype=np.float64)
        neg = np.asarray(self.neg_scores, dtype=np.float64)
        if pos.size == 0 or neg.size == 0:
            raise ValueError("verification set needs both positive and negative pairs")
        object.__setattr__(self, "pos_scores", pos)
        object.__setattr__(self, "neg_scores", neg)


def tpr_at_far(vset: VerificationSet, far_levels=(0.1, 0.01, 0.001)) -> dict[float, float]:
    """True-positive rate at each false-acceptance rate.

    The acceptance threshold is the ceil(far * |neg|)-th highest negative
    score; TPR is the fraction of positives at or above it.
    """
    neg_sorted = np.sort(vset.neg_scores)[::-1]
    n_neg = neg_sorted.size
    out: dict[float, float] = {}
    for far in sorted(far_levels):
        if far * n_neg < 1.0:
            raise ValueError(f"insufficient negatives for far={far} (have {n_neg})")
        k = math.ceil(far * n_neg)
        threshold = neg_sorted[min(k, n_neg) - 1]
        out[far] = float(np.mean(vset.pos_scores >= threshold))
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ("MOTA", "FN", "FP", "IDs", "HOTA", "AssA", "IDR", "IDP", "IDF1")


@dataclass
class SequenceMetrics:
    name: str
    clear: ClearResult
    ids: IdResult
    hota: HotaResult

    def row(self) -> tuple:
        """The values of ``REPORT_COLUMNS``, in order."""
        return (self.clear.mota, self.clear.fn, self.clear.fp, self.clear.idsw,
                self.hota.hota, self.hota.assa, self.ids.idr, self.ids.idp, self.ids.idf1)


@dataclass
class MetricsReport:
    sequences: list[SequenceMetrics]

    def aggregate(self) -> SequenceMetrics:
        """Pool raw counts across sequences and recompute every rate."""
        if not self.sequences:
            raise ValueError("empty report")


        def totals(part, names):
            return [sum(getattr(getattr(s, part), k) for s in self.sequences) for k in names]

        clear = ClearResult.of(*totals("clear", ("fp", "fn", "idsw", "n_gt")))
        ids = IdResult.of(*totals("ids", ("idtp", "idfp", "idfn")))
        counts = totals("hota", ("tp", "fn", "fp", "ass_sum"))
        return SequenceMetrics(name="AGGREGATE", clear=clear, ids=ids,
                               hota=HotaResult(*_hota_from_counts(*counts), *counts))

    def to_csv(self) -> str:
        header = "sequence," + ",".join(c.lower() for c in REPORT_COLUMNS) + ",deta,gt"
        lines = [header]
        for s in [*self.sequences, self.aggregate()]:
            mota, fn, fp, idsw, hota, assa, idr, idp, idf1 = s.row()
            lines.append(
                f"{s.name},{mota:.6f},{fn},{fp},{idsw},{hota:.6f},{assa:.6f},"
                f"{idr:.6f},{idp:.6f},{idf1:.6f},{s.hota.deta:.6f},{s.clear.n_gt}"
            )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        widths = [max(10, len(c) + 2) for c in REPORT_COLUMNS]
        name_w = max([len("sequence")] + [len(s.name) for s in self.sequences] + [len("AGGREGATE")]) + 2
        head = "sequence".ljust(name_w) + "".join(c.rjust(w) for c, w in zip(REPORT_COLUMNS, widths))
        lines = [head, "-" * len(head)]
        for s in [*self.sequences, self.aggregate()]:
            cells = []
            for v, w in zip(s.row(), widths):
                cells.append((f"{v:.3f}" if isinstance(v, float) else str(v)).rjust(w))
            lines.append(s.name.ljust(name_w) + "".join(cells))
        return "\n".join(lines) + "\n"


def evaluate_sequences(named_pairs: list[tuple[str, MotTable, MotTable]]) -> MetricsReport:
    """Score (name, gt, pred) triples; rows are sorted by sequence name.

    Each sequence's frame table is built once and scored by CLEAR, ID and
    HOTA.
    """
    rows = []
    for name, gt, pred in sorted(named_pairs, key=lambda x: x[0]):
        table = _frame_table(gt, pred)
        rows.append(SequenceMetrics(name=name, clear=_score_clear(table),
                                    ids=_score_id(table), hota=_score_hota(table)))
    return MetricsReport(rows)
