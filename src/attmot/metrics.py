"""Tracking evaluation: CLEAR metrics, identity metrics, the HOTA family
and verification TPR@FAR.

Every tracking metric reads one per-frame match table (``_frame_table``):
for each frame, the active ground-truth identities, the prediction
identities left after ignore-region suppression, and their IoU matrix.
``evaluate_sequences`` builds it once per sequence and hands it to the
CLEAR, ID and HOTA scorers; the public ``clear_metrics``, ``id_metrics``
and ``hota_metrics`` each build it and score it.

CLEAR matching keeps previous-frame correspondences while they still
overlap (the continuity rule), then matches the remainder with the
Hungarian algorithm; an identity switch is counted when a ground-truth
trajectory's matched id differs from its most recent earlier match.

Ground-truth rows with the active flag 0 are ignore regions: they are
excluded from FN counting and, by default, predictions matched to them are
suppressed before scoring (``ignore_fp_suppression``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import GtEntry, box_rows, group_by_frame, pairwise_iou

HOTA_ALPHAS = np.round(np.arange(0.05, 0.96, 0.05), 2)  # 19 thresholds


def _raise_repeated_identity(frame: int, gts: list[GtEntry], preds: list[GtEntry]) -> None:
    for side, rows in (("gt", gts), ("prediction", preds)):
        ids = [e.identity for e in rows]
        for ident in ids:
            if ids.count(ident) > 1:
                raise ValueError(f"frame {frame}: {side} identity {ident} appears twice")


def _frame_table(gt: list[GtEntry], pred: list[GtEntry], iou_threshold: float = 0.5,
                 suppress: bool = True) -> list[tuple[list[int], list[int], np.ndarray]]:
    """Per frame, in frame order: active gt identities, prediction
    identities, and their IoU matrix.

    A prediction matched (Hungarian, IoU >= ``iou_threshold``) to an
    inactive gt row is dropped when ``suppress`` is set.  An identity that
    appears twice in one frame, on either side, raises ``ValueError``.
    """
    gt_frames = group_by_frame(gt)
    pred_frames = group_by_frame(pred)
    table = []
    for f in sorted(set(gt_frames) | set(pred_frames)):
        gts_f = gt_frames.get(f, [])
        preds_f = pred_frames.get(f, [])
        if (len({g.identity for g in gts_f}) + len({p.identity for p in preds_f})
                != len(gts_f) + len(preds_f)):
            _raise_repeated_identity(f, gts_f, preds_f)
        active = [g for g in gts_f if g.active]
        ignored = [g for g in gts_f if not g.active]
        pred_boxes = box_rows(p.box for p in preds_f)
        if suppress and ignored and preds_f:
            ov = pairwise_iou(box_rows(g.box for g in ignored), pred_boxes)
            cost = np.where(ov >= iou_threshold, 1.0 - ov, 1e5)
            rows, cols = linear_sum_assignment(cost)
            keep = np.ones(len(preds_f), dtype=bool)
            keep[cols[cost[rows, cols] < 1e5]] = False
            preds_f = [p for p, k in zip(preds_f, keep) if k]
            pred_boxes = pred_boxes[keep]
        table.append(([g.identity for g in active], [p.identity for p in preds_f],
                      pairwise_iou(box_rows(g.box for g in active), pred_boxes)))
    return table


@dataclass
class ClearResult:
    mota: float
    fp: int
    fn: int
    idsw: int
    n_gt: int


def _score_clear(table, iou_threshold: float = 0.5) -> ClearResult:
    """CLEAR counts and MOTA of a frame table."""
    last_match: dict[int, int] = {}
    fp = fn = idsw = n_gt = 0
    for g_ids, p_ids, sim in table:
        n_gt += len(g_ids)
        matches: dict[int, int] = {}
        used_pred: set[int] = set()
        # Continuity: keep last frame's correspondence while it still holds.
        preds_by_id = {pid: j for j, pid in enumerate(p_ids)}
        for gi, gid in enumerate(g_ids):
            prev = last_match.get(gid)
            if prev is None or prev not in preds_by_id:
                continue
            j = preds_by_id[prev]
            if j not in used_pred and sim[gi, j] >= iou_threshold:
                matches[gi] = j
                used_pred.add(j)
        rem_g = [gi for gi in range(len(g_ids)) if gi not in matches]
        rem_p = [j for j in range(len(p_ids)) if j not in used_pred]
        if rem_g and rem_p:
            sub = sim[np.ix_(rem_g, rem_p)]
            cost = np.where(sub >= iou_threshold, 1.0 - sub, 1e5)
            rows, cols = linear_sum_assignment(cost)
            for a, b in zip(rows, cols):
                if cost[a, b] < 1e5:
                    matches[rem_g[a]] = rem_p[b]
                    used_pred.add(rem_p[b])
        for gi, j in matches.items():
            gid = g_ids[gi]
            pid = p_ids[j]
            if gid in last_match and last_match[gid] != pid:
                idsw += 1
            last_match[gid] = pid
        fn += len(g_ids) - len(matches)
        fp += len(p_ids) - len(matches)
    if n_gt == 0:
        raise ValueError("MOTA undefined: no ground-truth boxes")
    mota = 1.0 - (fn + fp + idsw) / n_gt
    return ClearResult(mota=mota, fp=fp, fn=fn, idsw=idsw, n_gt=n_gt)


def clear_metrics(gt: list[GtEntry], pred: list[GtEntry], iou_threshold: float = 0.5,
                  ignore_fp_suppression: bool = True) -> ClearResult:
    """CLEAR counts and MOTA = 1 - (FN + FP + IDSW) / total GT boxes."""
    return _score_clear(_frame_table(gt, pred, iou_threshold, ignore_fp_suppression),
                        iou_threshold)


@dataclass
class IdResult:
    idf1: float
    idp: float
    idr: float
    idtp: int
    idfp: int
    idfn: int


def _score_id(table, iou_threshold: float = 0.5) -> IdResult:
    """Identity metrics of a frame table (see ``id_metrics``)."""
    gt_len: dict[int, int] = {}
    pr_len: dict[int, int] = {}
    overlap: dict[tuple[int, int], int] = {}
    for g_ids, p_ids, sim in table:
        for gid in g_ids:
            gt_len[gid] = gt_len.get(gid, 0) + 1
        for pid in p_ids:
            pr_len[pid] = pr_len.get(pid, 0) + 1
        for gi, pj in zip(*np.nonzero(sim >= iou_threshold)):
            key = (g_ids[gi], p_ids[pj])
            overlap[key] = overlap.get(key, 0) + 1
    gids = sorted(gt_len)
    pids = sorted(pr_len)
    n_g, n_p = len(gids), len(pids)
    total_gt = sum(gt_len.values())
    total_pr = sum(pr_len.values())
    if n_g == 0:
        raise ValueError("identity metrics undefined: no ground-truth trajectories")
    # Square cost matrix with dummy rows/cols: pairing costs IDFP + IDFN.
    size = n_g + n_p
    cost = np.zeros((size, size))
    for i, gid in enumerate(gids):
        cost[i, n_p:] = gt_len[gid]
        for j, pid in enumerate(pids):
            m = overlap.get((gid, pid), 0)
            cost[i, j] = gt_len[gid] + pr_len[pid] - 2 * m
    for j, pid in enumerate(pids):
        cost[n_g:, j] = pr_len[pid]
    rows, cols = linear_sum_assignment(cost)
    idtp = 0
    for r, c in zip(rows, cols):
        if r < n_g and c < n_p:
            idtp += overlap.get((gids[r], pids[c]), 0)
    idfn = total_gt - idtp
    idfp = total_pr - idtp
    idf1 = 2 * idtp / (2 * idtp + idfp + idfn) if (2 * idtp + idfp + idfn) else 0.0
    idp = idtp / total_pr if total_pr else 0.0
    idr = idtp / total_gt if total_gt else 0.0
    return IdResult(idf1=idf1, idp=idp, idr=idr, idtp=idtp, idfp=idfp, idfn=idfn)


def id_metrics(gt: list[GtEntry], pred: list[GtEntry], iou_threshold: float = 0.5,
               ignore_fp_suppression: bool = True) -> IdResult:
    """Identity metrics under the optimal trajectory-level bipartite pairing.

    A gt trajectory paired with a predicted trajectory scores one IDTP per
    frame where both are present and overlap at least ``iou_threshold``.
    The pairing minimizes IDFP + IDFN over all assignments (dummy rows and
    columns allow trajectories to stay unpaired).
    """
    return _score_id(_frame_table(gt, pred, iou_threshold, ignore_fp_suppression),
                     iou_threshold)


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


def _score_hota(table) -> HotaResult:
    """HOTA family of a frame table (see ``hota_metrics``)."""
    gid_index: dict[int, int] = {}
    pid_index: dict[int, int] = {}
    frames = [([gid_index.setdefault(g, len(gid_index)) for g in g_ids],
               [pid_index.setdefault(p, len(pid_index)) for p in p_ids], sim)
              for g_ids, p_ids, sim in table]
    n_g, n_p = len(gid_index), len(pid_index)
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
    for g_ids, p_ids, sim in frames:
        if g_ids and p_ids:
            denom = sim.sum(axis=0, keepdims=True) + sim.sum(axis=1, keepdims=True) - sim
            ratio = np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 1e-12)
            potential[np.ix_(g_ids, p_ids)] += ratio
        gt_count[g_ids] += 1
        pr_count[p_ids] += 1
    alignment = potential / np.maximum(gt_count[:, None] + pr_count[None, :] - potential, 1e-12)

    # Pass 2: one alignment-weighted Hungarian match per frame; the matched
    # pairs of all frames are then thresholded at every alpha at once.
    matched = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    for g_ids, p_ids, sim in frames:
        if g_ids and p_ids:
            rows, cols = linear_sum_assignment(-(alignment[np.ix_(g_ids, p_ids)] * sim))
            matched.append((np.asarray(g_ids)[rows], np.asarray(p_ids)[cols], sim[rows, cols]))
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


def hota_metrics(gt: list[GtEntry], pred: list[GtEntry],
                 ignore_fp_suppression: bool = True) -> HotaResult:
    """HOTA averaged over 19 localization thresholds, with DetA and AssA.

    Follows the published two-pass procedure: a global alignment score per
    (gt id, pred id) guides per-frame Hungarian matching at each threshold;
    the association score of a matched pair is TPA / (TPA + FNA + FPA).
    """
    return _score_hota(_frame_table(gt, pred, 0.5, ignore_fp_suppression))


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


def build_verification_set(features_by_identity: dict[int, list[np.ndarray]],
                           n_pairs: int = 10000, seed: int = 0) -> VerificationSet:
    """Sample same/different-identity pairs scored by cosine similarity."""
    rng = np.random.default_rng(seed)
    idents = sorted(k for k, v in features_by_identity.items() if len(v) >= 1)
    multi = [k for k in idents if len(features_by_identity[k]) >= 2]
    if len(multi) == 0 or len(idents) < 2:
        raise ValueError("need at least one identity with 2+ features and 2 identities")
    pos, neg = [], []
    for _ in range(n_pairs):
        k = multi[rng.integers(len(multi))]
        feats = features_by_identity[k]
        i, j = rng.choice(len(feats), size=2, replace=False)
        pos.append(float(np.dot(feats[i], feats[j]) /
                         (np.linalg.norm(feats[i]) * np.linalg.norm(feats[j]))))
        a, b = rng.choice(len(idents), size=2, replace=False)
        fa = features_by_identity[idents[a]]
        fb = features_by_identity[idents[b]]
        u = fa[rng.integers(len(fa))]
        v = fb[rng.integers(len(fb))]
        neg.append(float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))))
    return VerificationSet(np.array(pos), np.array(neg))


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


@dataclass
class MetricsReport:
    sequences: list[SequenceMetrics]

    def aggregate(self) -> SequenceMetrics:
        """Pool raw counts across sequences and recompute every rate."""
        if not self.sequences:
            raise ValueError("empty report")
        fp = sum(s.clear.fp for s in self.sequences)
        fn = sum(s.clear.fn for s in self.sequences)
        idsw = sum(s.clear.idsw for s in self.sequences)
        n_gt = sum(s.clear.n_gt for s in self.sequences)
        clear = ClearResult(mota=1.0 - (fn + fp + idsw) / n_gt, fp=fp, fn=fn,
                            idsw=idsw, n_gt=n_gt)
        idtp = sum(s.ids.idtp for s in self.sequences)
        idfp = sum(s.ids.idfp for s in self.sequences)
        idfn = sum(s.ids.idfn for s in self.sequences)
        denom = 2 * idtp + idfp + idfn
        ids = IdResult(
            idf1=2 * idtp / denom if denom else 0.0,
            idp=idtp / (idtp + idfp) if idtp + idfp else 0.0,
            idr=idtp / (idtp + idfn) if idtp + idfn else 0.0,
            idtp=idtp, idfp=idfp, idfn=idfn,
        )
        tp = sum(s.hota.tp for s in self.sequences)
        fn_a = sum(s.hota.fn for s in self.sequences)
        fp_a = sum(s.hota.fp for s in self.sequences)
        ass = sum(s.hota.ass_sum for s in self.sequences)
        hota, deta, assa = _hota_from_counts(tp, fn_a, fp_a, ass)
        return SequenceMetrics(name="AGGREGATE", clear=clear, ids=ids,
                               hota=HotaResult(hota, deta, assa, tp, fn_a, fp_a, ass))

    def _row_values(self, s: SequenceMetrics):
        return (s.clear.mota, s.clear.fn, s.clear.fp, s.clear.idsw,
                s.hota.hota, s.hota.assa, s.ids.idr, s.ids.idp, s.ids.idf1)

    def to_csv(self) -> str:
        header = "sequence," + ",".join(c.lower() for c in REPORT_COLUMNS) + ",deta,gt"
        lines = [header]
        for s in [*self.sequences, self.aggregate()]:
            mota, fn, fp, idsw, hota, assa, idr, idp, idf1 = self._row_values(s)
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
            vals = self._row_values(s)
            cells = []
            for v, w in zip(vals, widths):
                cells.append((f"{v:.3f}" if isinstance(v, float) else str(v)).rjust(w))
            lines.append(s.name.ljust(name_w) + "".join(cells))
        return "\n".join(lines) + "\n"


def evaluate_sequences(named_pairs: list[tuple[str, list[GtEntry], list[GtEntry]]]
                       ) -> MetricsReport:
    """Score (name, gt, pred) triples; rows are sorted by sequence name.

    Each sequence's frame table is built once, at IoU 0.5 with ignore-region
    suppression, and scored by CLEAR, ID and HOTA.
    """
    rows = []
    for name, gt, pred in sorted(named_pairs, key=lambda x: x[0]):
        table = _frame_table(gt, pred)
        rows.append(SequenceMetrics(name=name, clear=_score_clear(table),
                                    ids=_score_id(table), hota=_score_hota(table)))
    return MetricsReport(rows)
