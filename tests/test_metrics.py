"""Evaluation metrics against hand-derived fixtures and exhaustive oracles."""
import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from attmot.core import BBox, GtEntry, pairwise_iou
from attmot.metrics import (
    HOTA_ALPHAS,
    ClearResult,
    HotaResult,
    IdResult,
    _hota_from_counts,
    VerificationSet,
    clear_metrics,
    evaluate_sequences,
    hota_metrics,
    id_metrics,
    tpr_at_far,
)


def g(frame, ident, x, y=0.0, w=10.0, h=10.0, active=True):
    return GtEntry(frame=frame, identity=ident, box=BBox(x, y, w, h), active=active)


def perfect_gt(n_frames=5, idents=(1, 2)):
    return [g(f, i, 100 * i) for f in range(1, n_frames + 1) for i in idents]


class TestClear:
    def test_perfect(self):
        gt = perfect_gt()
        r = clear_metrics(gt, gt)
        assert (r.mota, r.fp, r.fn, r.idsw) == (1.0, 0, 0, 0)

    def test_empty_pred(self):
        gt = perfect_gt()
        r = clear_metrics(gt, [])
        assert r.fn == 10 and r.mota == 0.0

    def test_no_gt_is_error(self):
        with pytest.raises(ValueError):
            clear_metrics([], [g(1, 1, 0)])

    def test_mota_point_seven_fixture(self):
        # 10 GT boxes (2 ids x 5 frames); predictions with exactly one FN
        # (id 1 frame 3 missing), one FP (stray box frame 2), and one IDSW
        # (id 2's match switches from 20 to 21 at frame 4):
        # MOTA = 1 - (1+1+1)/10 = 0.7
        gt = perfect_gt()
        pred = []
        for f in range(1, 6):
            if f != 3:
                pred.append(g(f, 10, 100))
            pred.append(g(f, 20 if f <= 3 else 21, 200))
        pred.append(g(2, 99, 500))
        r = clear_metrics(gt, pred)
        assert (r.fn, r.fp, r.idsw) == (1, 1, 1)
        assert r.mota == pytest.approx(0.7)

    def test_negative_mota_possible(self):
        gt = [g(1, 1, 0)]
        pred = [g(1, 2, 300), g(1, 3, 400), g(1, 4, 500)]
        r = clear_metrics(gt, pred)
        assert r.mota == pytest.approx(1.0 - 4 / 1)

    def test_continuity_preference(self):
        # an established match is kept while above threshold, even though a
        # fresh Hungarian would prefer the closer new identity
        gt = [g(1, 1, 0.0), g(2, 1, 0.0)]
        pred = [g(1, 7, 3.0),            # iou ~ 0.54 with gt
                g(2, 7, 3.0), g(2, 8, 0.5)]  # id 8 overlaps better at frame 2
        r = clear_metrics(gt, pred)
        assert r.idsw == 0
        assert r.fp == 1  # the better-overlapping newcomer is unmatched

    def test_ignore_regions(self):
        gt = [g(1, 1, 0), g(1, 2, 50, active=False)]
        pred = [g(1, 10, 0), g(1, 11, 50)]
        r = clear_metrics(gt, pred)
        # the inactive gt is no FN; the prediction on it is suppressed
        assert (r.fn, r.fp, r.n_gt) == (0, 0, 1)

    def test_idsw_counts_against_last_known_match(self):
        # a gap does not reset the identity correspondence
        gt = [g(1, 1, 0), g(3, 1, 0)]
        pred = [g(1, 5, 0), g(3, 6, 0)]
        assert clear_metrics(gt, pred).idsw == 1


class TestIdMetrics:
    def test_perfect(self):
        gt = perfect_gt()
        r = id_metrics(gt, gt)
        assert (r.idf1, r.idp, r.idr) == (1.0, 1.0, 1.0)

    def test_half_split_trajectory(self):
        # one gt trajectory of length 4 covered by two predicted ids of 2+2
        # perfect boxes: IDTP=2, IDFP=2, IDFN=2 -> IDF1 = 0.5
        gt = [g(f, 1, 0) for f in range(1, 5)]
        pred = [g(f, 1 if f <= 2 else 2, 0) for f in range(1, 5)]
        r = id_metrics(gt, pred)
        assert (r.idtp, r.idfp, r.idfn) == (2, 2, 2)
        assert r.idf1 == pytest.approx(0.5)

    def test_empty_pred(self):
        assert id_metrics(perfect_gt(), []).idf1 == 0.0

    def test_exhaustive_oracle(self):
        # oracle: maximize IDTP over all injective gt-to-pred pairings
        rng = np.random.default_rng(4)
        grid = [0.0, 8.0, 30.0, 60.0]
        for trial in range(40):
            n_frames = int(rng.integers(1, 6))
            gt, pred = [], []
            for f in range(1, n_frames + 1):
                for i in range(1, int(rng.integers(1, 4)) + 1):
                    if rng.random() < 0.8:
                        gt.append(g(f, i, grid[i - 1]))
                for j in range(1, int(rng.integers(1, 4)) + 1):
                    if rng.random() < 0.8:
                        pred.append(g(f, j, grid[int(rng.integers(0, 4))]))
            if not gt:
                continue
            r = id_metrics(gt, pred)
            # brute force
            gids = sorted({e.identity for e in gt})
            pids = sorted({e.identity for e in pred})
            overlap = {}
            for f in range(1, n_frames + 1):
                for a in [e for e in gt if e.frame == f]:
                    for b in [e for e in pred if e.frame == f]:
                        from attmot.core import iou
                        if iou(a.box, b.box) >= 0.5:
                            overlap[(a.identity, b.identity)] = overlap.get(
                                (a.identity, b.identity), 0) + 1
            best = 0
            for k in range(0, min(len(gids), len(pids)) + 1):
                for g_sub in itertools.permutations(gids, k):
                    for p_sub in itertools.permutations(pids, k):
                        best = max(best, sum(overlap.get((a, b), 0)
                                             for a, b in zip(g_sub, p_sub)))
            assert r.idtp == best, (trial, r.idtp, best)


def oracle_clear(gt, pred, iou_threshold=0.5):
    """Brute-force CLEAR protocol: continuity retention, then exhaustive
    max-cardinality / min-cost matching instead of the Hungarian solver."""
    from attmot.core import iou as iou_fn

    frames = sorted({e.frame for e in gt} | {e.frame for e in pred})
    last = {}
    fp = fn = idsw = n_gt = 0
    for f in frames:
        gts = [e for e in gt if e.frame == f and e.active]
        preds = [e for e in pred if e.frame == f]
        n_gt += len(gts)
        matches = {}
        used = set()
        pred_by_id = {p.identity: j for j, p in enumerate(preds)}
        for gi, a in enumerate(gts):
            prev = last.get(a.identity)
            if prev in pred_by_id:
                j = pred_by_id[prev]
                if j not in used and iou_fn(a.box, preds[j].box) >= iou_threshold:
                    matches[gi] = j
                    used.add(j)
        rem_g = [i for i in range(len(gts)) if i not in matches]
        rem_p = [j for j in range(len(preds)) if j not in used]
        best = (0, 0.0, {})
        for k in range(min(len(rem_g), len(rem_p)), -1, -1):
            found = None
            for g_sub in itertools.combinations(rem_g, k):
                for p_perm in itertools.permutations(rem_p, k):
                    if all(iou_fn(gts[a].box, preds[b].box) >= iou_threshold
                           for a, b in zip(g_sub, p_perm)):
                        cost = sum(1 - iou_fn(gts[a].box, preds[b].box)
                                   for a, b in zip(g_sub, p_perm))
                        if found is None or cost < found[0]:
                            found = (cost, dict(zip(g_sub, p_perm)))
            if found is not None:
                best = (k, found[0], found[1])
                break
        matches.update(best[2])
        for gi, j in matches.items():
            gid = gts[gi].identity
            pid = preds[j].identity
            if gid in last and last[gid] != pid:
                idsw += 1
            last[gid] = pid
        fn += len(gts) - len(matches)
        fp += len(preds) - len(matches)
    return fp, fn, idsw, n_gt


class TestClearOracle:
    def test_exhaustive_equivalence(self):
        rng = np.random.default_rng(9)
        grid = [0.0, 4.0, 30.0, 60.0, 90.0]
        for trial in range(40):
            n_frames = int(rng.integers(1, 6))
            gt, pred = [], []
            for f in range(1, n_frames + 1):
                for i in range(1, 4):
                    if rng.random() < 0.7:
                        gt.append(g(f, i, grid[i]))
                for j in range(1, 4):
                    if rng.random() < 0.7:
                        pred.append(g(f, j, grid[int(rng.integers(0, 5))]))
            if not gt:
                continue
            r = clear_metrics(gt, pred)
            fp, fn, idsw, n_gt = oracle_clear(gt, pred)
            assert (r.fp, r.fn, r.idsw, r.n_gt) == (fp, fn, idsw, n_gt), trial


class TestHota:
    def test_perfect(self):
        gt = perfect_gt()
        r = hota_metrics(gt, gt)
        assert r.hota == r.deta == r.assa == 1.0

    def test_empty_pred(self):
        assert hota_metrics(perfect_gt(), []).hota == 0.0

    def test_missed_frame_hand_value(self):
        # 2 frames, 1 target, prediction covers frame 1 with a perfect box.
        # At every alpha: TP=1, FN=1, FP=0 -> DetA = 1/2; the matched pair
        # has TPA=1, union = gt_count + pred_count - TPA = 2+1-1 = 2 so its
        # association score is 1/2 and AssA = 1/2; HOTA(alpha) = 1/2.
        gt = [g(1, 1, 0), g(2, 1, 0)]
        pred = [g(1, 9, 0)]
        r = hota_metrics(gt, pred)
        assert r.deta == pytest.approx(0.5, abs=1e-12)
        assert r.assa == pytest.approx(0.5, abs=1e-12)
        assert r.hota == pytest.approx(0.5, abs=1e-12)

    def test_alpha_grid(self):
        assert len(HOTA_ALPHAS) == 19
        assert HOTA_ALPHAS[0] == pytest.approx(0.05)
        assert HOTA_ALPHAS[-1] == pytest.approx(0.95)

    def test_localization_threshold_sensitivity(self):
        # a box at iou ~0.6 counts only for the alphas below 0.6
        gt = [g(1, 1, 0.0, w=10, h=10)]
        pred = [g(1, 5, 2.5, w=10, h=10)]  # iou = 7.5/12.5 = 0.6
        r = hota_metrics(gt, pred)
        covered = (HOTA_ALPHAS <= 0.6).mean()
        assert r.deta == pytest.approx(covered, abs=1e-12)

    def test_id_split_scores_below_perfect(self):
        gt = [g(f, 1, 0) for f in range(1, 5)]
        pred = [g(f, 1 if f <= 2 else 2, 0) for f in range(1, 5)]
        r = hota_metrics(gt, pred)
        assert r.deta == pytest.approx(1.0)
        assert r.assa == pytest.approx(0.5)  # each pair: 2 / (4 + 2 - 2)


class TestTprAtFar:
    def test_perfect_separation(self):
        vs = VerificationSet(np.linspace(1, 2, 50), np.linspace(-1, 0, 2000))
        assert all(v == 1.0 for v in tpr_at_far(vs).values())

    def test_exchangeable_scores(self):
        rng = np.random.default_rng(3)
        vs = VerificationSet(rng.normal(size=10000), rng.normal(size=10000))
        table = tpr_at_far(vs)
        assert table[0.1] == pytest.approx(0.1, abs=0.02)

    def test_monotone_in_far(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            r2 = np.random.default_rng(seed)
            vs = VerificationSet(r2.normal(0.5, 1, 500), r2.normal(0, 1, 5000))
            table = tpr_at_far(vs, far_levels=(0.001, 0.01, 0.05, 0.1, 0.5))
            vals = [table[k] for k in sorted(table)]
            assert vals == sorted(vals)

    def test_insufficient_negatives(self):
        vs = VerificationSet(np.ones(10), np.zeros(500))
        with pytest.raises(ValueError, match="insufficient negatives"):
            tpr_at_far(vs, far_levels=(0.001,))

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            VerificationSet(np.array([]), np.ones(10))


class TestReport:
    def _two_sequences(self):
        gt1 = perfect_gt()
        pred1 = [e for e in gt1 if not (e.frame == 1 and e.identity == 1)]
        gt2 = perfect_gt(n_frames=3)
        return [("b", gt2, gt2), ("a", gt1, pred1)]

    def test_rows_sorted_and_aggregated(self):
        rep = evaluate_sequences(self._two_sequences())
        assert [s.name for s in rep.sequences] == ["a", "b"]
        agg = rep.aggregate()
        assert agg.clear.n_gt == 16
        assert agg.clear.fn == 1
        assert agg.clear.mota == pytest.approx(1.0 - 1 / 16)

    def test_aggregate_pools_id_counts(self):
        rep = evaluate_sequences(self._two_sequences())
        agg = rep.aggregate()
        idtp = sum(s.ids.idtp for s in rep.sequences)
        idfp = sum(s.ids.idfp for s in rep.sequences)
        idfn = sum(s.ids.idfn for s in rep.sequences)
        assert agg.ids.idf1 == pytest.approx(2 * idtp / (2 * idtp + idfp + idfn))

    def test_aggregate_of_one_sequence_is_that_sequence(self):
        # pooling one sequence must reproduce its own rates bit for bit:
        # the scorers and the aggregate share one formula per rate
        gt = perfect_gt()
        pred = [g(f, 20 if f <= 3 else 21, 200 + f / 2) for f in range(1, 6)]
        pred += [g(f, 10, 100) for f in (1, 2, 4)] + [g(2, 99, 500)]
        rep = evaluate_sequences([("a", gt, pred)])
        (seq,) = rep.sequences
        agg = rep.aggregate()
        assert agg.clear == seq.clear
        assert agg.ids == seq.ids
        _assert_hota_equal(agg.hota, seq.hota)

    def test_deterministic_output(self):
        a = evaluate_sequences(self._two_sequences())
        b = evaluate_sequences(self._two_sequences())
        assert a.to_csv() == b.to_csv()
        assert a.to_table() == b.to_table()

    def test_csv_and_table_structure(self):
        rep = evaluate_sequences(self._two_sequences())
        csv = rep.to_csv().strip().splitlines()
        assert csv[0].startswith("sequence,mota,fn,fp,ids,hota,assa,idr,idp,idf1")
        assert csv[-1].startswith("AGGREGATE,")
        table = rep.to_table()
        for col in ("MOTA", "FN", "FP", "IDs", "HOTA", "AssA", "IDR", "IDP", "IDF1"):
            assert col in table.splitlines()[0]


# ---------------------------------------------------------------------------
# Oracle: one pass per metric, each regrouping by frame, suppressing
# ignore-region predictions and computing IoU itself, with HOTA's
# per-threshold loop in Python (the evaluation before the frame table).
# ---------------------------------------------------------------------------


def _ref_by_frame(entries):
    frames = {}
    for e in entries:
        frames.setdefault(e.frame, []).append(e)
    return frames


def _box_table(entries):
    rows = [(e.box.left, e.box.top, e.box.width, e.box.height) for e in entries]
    return np.array(rows, dtype=float).reshape(-1, 4)


def _ref_iou(a_entries, b_entries):
    return pairwise_iou(_box_table(a_entries), _box_table(b_entries))


def _ref_suppress(gts_f, preds_f, iou_threshold, suppress):
    active = [g for g in gts_f if g.active]
    ignored = [g for g in gts_f if not g.active]
    if not suppress or not ignored or not preds_f:
        return active, list(preds_f)
    ov = _ref_iou(ignored, preds_f)
    cost = np.where(ov >= iou_threshold, 1.0 - ov, 1e5)
    rows, cols = linear_sum_assignment(cost)
    drop = {int(c) for r, c in zip(rows, cols) if cost[r, c] < 1e5}
    return active, [p for j, p in enumerate(preds_f) if j not in drop]


def _ref_clear(gt, pred, iou_threshold=0.5, ignore_fp_suppression=True):
    gt_frames = _ref_by_frame(gt)
    pred_frames = _ref_by_frame(pred)
    last_match = {}
    fp = fn = idsw = n_gt = 0
    for f in sorted(set(gt_frames) | set(pred_frames)):
        gts_f, preds_f = _ref_suppress(gt_frames.get(f, []), pred_frames.get(f, []),
                                       iou_threshold, ignore_fp_suppression)
        n_gt += len(gts_f)
        sim = _ref_iou(gts_f, preds_f)
        matches = {}
        used_pred = set()
        preds_by_id = {p.identity: j for j, p in enumerate(preds_f)}
        for gi, g_ in enumerate(gts_f):
            prev = last_match.get(g_.identity)
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
    return ClearResult(mota=1.0 - (fn + fp + idsw) / n_gt, fp=fp, fn=fn, idsw=idsw, n_gt=n_gt)


def _ref_id(gt, pred, iou_threshold=0.5, ignore_fp_suppression=True):
    gt_frames = _ref_by_frame(gt)
    pred_frames = _ref_by_frame(pred)
    gt_len, pr_len, overlap = {}, {}, {}
    for f in sorted(set(gt_frames) | set(pred_frames)):
        gts_f, preds_f = _ref_suppress(gt_frames.get(f, []), pred_frames.get(f, []),
                                       iou_threshold, ignore_fp_suppression)
        for g_ in gts_f:
            gt_len[g_.identity] = gt_len.get(g_.identity, 0) + 1
        for p in preds_f:
            pr_len[p.identity] = pr_len.get(p.identity, 0) + 1
        sim = _ref_iou(gts_f, preds_f)
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
    size = n_g + n_p
    cost = np.zeros((size, size))
    for i, gid in enumerate(gids):
        cost[i, n_p:] = gt_len[gid]
        for j, pid in enumerate(pids):
            cost[i, j] = gt_len[gid] + pr_len[pid] - 2 * overlap.get((gid, pid), 0)
    for j, pid in enumerate(pids):
        cost[n_g:, j] = pr_len[pid]
    rows, cols = linear_sum_assignment(cost)
    idtp = sum(overlap.get((gids[r], pids[c]), 0)
               for r, c in zip(rows, cols) if r < n_g and c < n_p)
    idfn = total_gt - idtp
    idfp = total_pr - idtp
    idf1 = 2 * idtp / (2 * idtp + idfp + idfn) if (2 * idtp + idfp + idfn) else 0.0
    idp = idtp / total_pr if total_pr else 0.0
    idr = idtp / total_gt if total_gt else 0.0
    return IdResult(idf1=idf1, idp=idp, idr=idr, idtp=idtp, idfp=idfp, idfn=idfn)


def _ref_hota(gt, pred, ignore_fp_suppression=True):
    gt_frames = _ref_by_frame(gt)
    pred_frames = _ref_by_frame(pred)
    per_frame = []
    gid_index, pid_index = {}, {}
    for f in sorted(set(gt_frames) | set(pred_frames)):
        gts_f, preds_f = _ref_suppress(gt_frames.get(f, []), pred_frames.get(f, []),
                                       0.5, ignore_fp_suppression)
        g_ids = [gid_index.setdefault(g_.identity, len(gid_index)) for g_ in gts_f]
        p_ids = [pid_index.setdefault(p.identity, len(pid_index)) for p in preds_f]
        per_frame.append((g_ids, p_ids, _ref_iou(gts_f, preds_f)))
    n_g, n_p = len(gid_index), len(pid_index)
    if n_g == 0:
        raise ValueError("HOTA undefined: no ground-truth boxes")
    n_alpha = len(HOTA_ALPHAS)
    if n_p == 0:
        zero = np.zeros(n_alpha)
        fn_total = np.full(n_alpha, float(sum(len(g_) for g_, _, _ in per_frame)))
        return HotaResult(0.0, 0.0, 0.0, tp=zero, fn=fn_total, fp=zero.copy(), ass_sum=zero.copy())
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


# Boxes whose IoUs land exactly on thresholds: the nested ones overlap the
# first at 0.75, 0.5 and 0.25, the shifted ones partly or not at all.
_BOXES = [(0, 0, 10, 10), (0, 0, 10, 7.5), (0, 0, 10, 5), (0, 0, 5, 5),
          (5, 0, 10, 10), (2, 0, 10, 10), (30, 0, 10, 10), (60, 0, 10, 10)]


def _entries(rows):
    return [GtEntry(frame=f, identity=i, box=BBox(*_BOXES[b]), active=active)
            for f, i, b, active in rows]


# Up to 4 frames and 3 identities per side, so a frame may hold gt only,
# predictions only, or an ignore region.  The scored rows hold each
# identity at most once per frame; the repeated rows may hold one twice.
_gt_row = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(0, len(_BOXES) - 1),
                    st.sampled_from([True, True, True, False]))
_pred_row = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(0, len(_BOXES) - 1),
                      st.just(True))
_gt_rows = st.lists(_gt_row, max_size=12, unique_by=lambda r: r[:2])
_pred_rows = st.lists(_pred_row, max_size=12, unique_by=lambda r: r[:2])


def _first_repeat(gt, pred):
    """The error ``_frame_table`` must raise for the first identity that
    appears twice in one frame (frames in order, gt before predictions)."""
    for f in sorted({e.frame for e in gt + pred}):
        for side, rows in (("gt", gt), ("prediction", pred)):
            ids = [e.identity for e in rows if e.frame == f]
            repeated = [i for i in ids if ids.count(i) > 1]
            if repeated:
                return f"frame {f}: {side} identity {repeated[0]} appears twice"
    return None


def _assert_hota_equal(got, want):
    assert (got.hota, got.deta, got.assa) == (want.hota, want.deta, want.assa)
    for name in ("tp", "fn", "fp", "ass_sum"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestFrameTableAgainstOracle:
    @given(_gt_rows, _pred_rows)
    def test_evaluate_sequences_equals_oracle(self, gt_rows, pred_rows):
        gt, pred = _entries(gt_rows), _entries(pred_rows)
        try:
            want = (_ref_clear(gt, pred), _ref_id(gt, pred), _ref_hota(gt, pred))
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                evaluate_sequences([("s", gt, pred)])
            return
        got = evaluate_sequences([("s", gt, pred)]).sequences[0]
        assert got.clear == want[0]
        assert got.ids == want[1]
        _assert_hota_equal(got.hota, want[2])

    @given(_gt_rows, _pred_rows)
    def test_public_metrics_equal_oracle(self, gt_rows, pred_rows):
        gt, pred = _entries(gt_rows), _entries(pred_rows)
        if not any(e.active for e in gt):
            return
        assert clear_metrics(gt, pred) == _ref_clear(gt, pred)
        assert id_metrics(gt, pred) == _ref_id(gt, pred)
        _assert_hota_equal(hota_metrics(gt, pred), _ref_hota(gt, pred))

    @pytest.mark.parametrize("seed", range(3))
    def test_large_sequence_equals_oracle(self, seed):
        # dozens of identities per side, so HOTA's per-alpha sums run over
        # hundreds of (gt, pred) cells
        rng = np.random.default_rng(seed)
        gt, pred = [], []
        for f in range(1, 41):
            for i in range(1, 25):
                if rng.random() < 0.6:
                    x = 20.0 * i + rng.normal(0, 2)
                    gt.append(g(f, i, x, active=bool(rng.random() < 0.9)))
                    if rng.random() < 0.8:
                        pred.append(g(f, i + 100 * int(rng.integers(1, 4)), x + rng.normal(0, 3)))
            pred.append(g(f, 999, float(rng.uniform(0, 500))))
        got = evaluate_sequences([("s", gt, pred)]).sequences[0]
        assert got.clear == _ref_clear(gt, pred)
        assert got.ids == _ref_id(gt, pred)
        _assert_hota_equal(got.hota, _ref_hota(gt, pred))

    def test_duplicate_identity_is_rejected(self):
        # A repeated identity would be counted once in HOTA's presence
        # counts but twice in its matches (AssA 2e12); every scorer refuses it.
        once = [g(1, 1, 0), g(2, 1, 0)]
        twice = [g(1, 1, 0), g(2, 1, 0), g(2, 1, 100)]
        for gt, pred, msg in ((twice, once, "frame 2: gt identity 1 appears twice"),
                              (once, twice, "frame 2: prediction identity 1 appears twice")):
            for score in (lambda: evaluate_sequences([("s", gt, pred)]),
                          lambda: clear_metrics(gt, pred), lambda: id_metrics(gt, pred),
                          lambda: hota_metrics(gt, pred)):
                with pytest.raises(ValueError, match=re.escape(msg)):
                    score()

    @given(st.lists(_gt_row, max_size=12), st.lists(_pred_row, max_size=12))
    def test_repeated_identity_property(self, gt_rows, pred_rows):
        gt, pred = _entries(gt_rows), _entries(pred_rows)
        msg = _first_repeat(gt, pred)
        if msg is None:
            try:
                evaluate_sequences([("s", gt, pred)])
            except ValueError as exc:
                assert "appears twice" not in str(exc)
            return
        with pytest.raises(ValueError, match=re.escape(msg)):
            evaluate_sequences([("s", gt, pred)])
