"""Tracking evaluation: CLEAR metrics, identity metrics, the HOTA family
and verification TPR@FAR.

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

from .core import GtEntry, box_rows, pairwise_iou

HOTA_ALPHAS = np.round(np.arange(0.05, 0.96, 0.05), 2)  # 19 thresholds


def _by_frame(entries):
    frames: dict[int, list] = {}
    for e in entries:
        frames.setdefault(e.frame, []).append(e)
    return frames


def _pairwise_iou(a_entries, b_entries) -> np.ndarray:
    """IoU matrix between two per-frame entry lists."""
    return pairwise_iou(box_rows(e.box for e in a_entries), box_rows(e.box for e in b_entries))


def _suppress_ignored(gts_f, preds_f, iou_threshold, suppress):
    """Split gts into active/ignored; optionally drop preds on ignore regions."""
    active = [g for g in gts_f if g.active]
    ignored = [g for g in gts_f if not g.active]
    if not suppress or not ignored or not preds_f:
        return active, list(preds_f)
    ov = _pairwise_iou(ignored, preds_f)
    cost = np.where(ov >= iou_threshold, 1.0 - ov, 1e5)
    rows, cols = linear_sum_assignment(cost)
    drop = {int(c) for r, c in zip(rows, cols) if cost[r, c] < 1e5}
    return active, [p for j, p in enumerate(preds_f) if j not in drop]


@dataclass
class ClearResult:
    mota: float
    fp: int
    fn: int
    idsw: int
    n_gt: int


def clear_metrics(gt: list[GtEntry], pred: list[GtEntry], iou_threshold: float = 0.5,
                  ignore_fp_suppression: bool = True) -> ClearResult:
    """CLEAR counts and MOTA = 1 - (FN + FP + IDSW) / total GT boxes."""
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    all_frames = sorted(set(gt_frames) | set(pred_frames))
    last_match: dict[int, int] = {}
    fp = fn = idsw = n_gt = 0
    for f in all_frames:
        gts_f, preds_f = _suppress_ignored(gt_frames.get(f, []), pred_frames.get(f, []),
                                           iou_threshold, ignore_fp_suppression)
        n_gt += len(gts_f)
        sim = _pairwise_iou(gts_f, preds_f)
        matches: dict[int, int] = {}
        used_pred: set[int] = set()
        # Continuity: keep last frame's correspondence while it still holds.
        preds_by_id = {p.identity: j for j, p in enumerate(preds_f)}
        for gi, g in enumerate(gts_f):
            prev = last_match.get(g.identity)
            if prev is None or prev not in preds_by_id:
                continue
            j = preds_by_id[prev]
            if j not in used_pred and sim[gi, j] >= iou_threshold:
                matches[gi] = j
                used_pred.add(j)
        rem_g = [gi for gi in range(len(gts_f)) if gi not in matches]
        rem_p = [j for j in range(len(preds_f)) if j not in used_pred]
        if rem_g and rem_p:
            sub = sim[np.ix_(rem_g, rem_p)]
            cost = np.where(sub >= iou_threshold, 1.0 - sub, 1e5)
            rows, cols = linear_sum_assignment(cost)
            for a, b in zip(rows, cols):
                if cost[a, b] < 1e5:
                    matches[rem_g[a]] = rem_p[b]
                    used_pred.add(rem_p[b])
        for gi, j in matches.items():
            gid = gts_f[gi].identity
            pid = preds_f[j].identity
            if gid in last_match and last_match[gid] != pid:
                idsw += 1
            last_match[gid] = pid
        fn += len(gts_f) - len(matches)
        fp += len(preds_f) - len(matches)
    if n_gt == 0:
        raise ValueError("MOTA undefined: no ground-truth boxes")
    mota = 1.0 - (fn + fp + idsw) / n_gt
    return ClearResult(mota=mota, fp=fp, fn=fn, idsw=idsw, n_gt=n_gt)


@dataclass
class IdResult:
    idf1: float
    idp: float
    idr: float
    idtp: int
    idfp: int
    idfn: int


def id_metrics(gt: list[GtEntry], pred: list[GtEntry], iou_threshold: float = 0.5,
               ignore_fp_suppression: bool = True) -> IdResult:
    """Identity metrics under the optimal trajectory-level bipartite pairing.

    A gt trajectory paired with a predicted trajectory scores one IDTP per
    frame where both are present and overlap at least ``iou_threshold``.
    The pairing minimizes IDFP + IDFN over all assignments (dummy rows and
    columns allow trajectories to stay unpaired).
    """
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    gt_len: dict[int, int] = {}
    pr_len: dict[int, int] = {}
    overlap: dict[tuple[int, int], int] = {}
    for f in sorted(set(gt_frames) | set(pred_frames)):
        gts_f, preds_f = _suppress_ignored(gt_frames.get(f, []), pred_frames.get(f, []),
                                           iou_threshold, ignore_fp_suppression)
        for g in gts_f:
            gt_len[g.identity] = gt_len.get(g.identity, 0) + 1
        for p in preds_f:
            pr_len[p.identity] = pr_len.get(p.identity, 0) + 1
        sim = _pairwise_iou(gts_f, preds_f)
        for gi, pj in zip(*np.nonzero(sim >= iou_threshold)):
            key = (gts_f[gi].identity, preds_f[pj].identity)
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


def hota_metrics(gt: list[GtEntry], pred: list[GtEntry],
                 ignore_fp_suppression: bool = True) -> HotaResult:
    """HOTA averaged over 19 localization thresholds, with DetA and AssA.

    Follows the published two-pass procedure: a global alignment score per
    (gt id, pred id) guides per-frame Hungarian matching at each threshold;
    the association score of a matched pair is TPA / (TPA + FNA + FPA).
    """
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    frames = sorted(set(gt_frames) | set(pred_frames))
    per_frame: list[tuple[list[int], list[int], np.ndarray]] = []
    gid_index: dict[int, int] = {}
    pid_index: dict[int, int] = {}
    for f in frames:
        gts_f, preds_f = _suppress_ignored(gt_frames.get(f, []), pred_frames.get(f, []),
                                           0.5, ignore_fp_suppression)
        g_ids = [gid_index.setdefault(g.identity, len(gid_index)) for g in gts_f]
        p_ids = [pid_index.setdefault(p.identity, len(pid_index)) for p in preds_f]
        per_frame.append((g_ids, p_ids, _pairwise_iou(gts_f, preds_f)))
    n_g, n_p = len(gid_index), len(pid_index)
    if n_g == 0:
        raise ValueError("HOTA undefined: no ground-truth boxes")
    n_alpha = len(HOTA_ALPHAS)
    if n_p == 0:
        zero = np.zeros(n_alpha)
        fn_total = np.full(n_alpha, float(sum(len(g) for g, _, _ in per_frame)))
        return HotaResult(0.0, 0.0, 0.0, tp=zero, fn=fn_total, fp=zero.copy(), ass_sum=zero.copy())

    # Pass 1: global alignment scores.
    potential = np.zeros((n_g, n_p))
    gt_count = np.zeros(n_g)
    pr_count = np.zeros(n_p)
    for g_ids, p_ids, sim in per_frame:
        if g_ids and p_ids:
            denom = sim.sum(axis=0, keepdims=True) + sim.sum(axis=1, keepdims=True) - sim
            ratio = np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 1e-12)
            potential[np.ix_(g_ids, p_ids)] += ratio
        gt_count[g_ids] += 1
        pr_count[p_ids] += 1
    alignment = potential / np.maximum(gt_count[:, None] + pr_count[None, :] - potential, 1e-12)

    # Pass 2: per-threshold matching and association accumulation.
    tp = np.zeros(n_alpha)
    fn = np.zeros(n_alpha)
    fp = np.zeros(n_alpha)
    match_counts = [np.zeros((n_g, n_p)) for _ in range(n_alpha)]
    for g_ids, p_ids, sim in per_frame:
        if not g_ids or not p_ids:
            fn += len(g_ids)
            fp += len(p_ids)
            continue
        score = alignment[np.ix_(g_ids, p_ids)] * sim
        rows, cols = linear_sum_assignment(-score)
        for a, alpha in enumerate(HOTA_ALPHAS):
            matched = 0
            for r, c in zip(rows, cols):
                if sim[r, c] >= alpha - 1e-12:
                    match_counts[a][g_ids[r], p_ids[c]] += 1
                    matched += 1
            tp[a] += matched
            fn[a] += len(g_ids) - matched
            fp[a] += len(p_ids) - matched
    ass_sum = np.zeros(n_alpha)
    for a in range(n_alpha):
        mc = match_counts[a]
        union = gt_count[:, None] + pr_count[None, :] - mc
        ass = np.divide(mc, np.maximum(union, 1e-12))
        ass_sum[a] = (mc * ass).sum()
    hota, deta, assa = _hota_from_counts(tp, fn, fp, ass_sum)
    return HotaResult(hota, deta, assa, tp=tp, fn=fn, fp=fp, ass_sum=ass_sum)


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


def evaluate_sequences(named_pairs: list[tuple[str, list[GtEntry], list[GtEntry]]],
                       iou_threshold: float = 0.5,
                       ignore_fp_suppression: bool = True) -> MetricsReport:
    """Score (name, gt, pred) triples; rows are sorted by sequence name."""
    rows = []
    for name, gt, pred in sorted(named_pairs, key=lambda x: x[0]):
        rows.append(SequenceMetrics(
            name=name,
            clear=clear_metrics(gt, pred, iou_threshold, ignore_fp_suppression),
            ids=id_metrics(gt, pred, iou_threshold, ignore_fp_suppression),
            hota=hota_metrics(gt, pred, ignore_fp_suppression),
        ))
    return MetricsReport(rows)
