"""Kalman filtering, cost matrices, assignment and track lifecycle."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attmot import metrics
from attmot.assoc import (
    AssocConfig,
    KalmanState,
    Tracker,
    _cholesky_rows,
    _gate_rows,
    _innovation_cov,
    _predict_rows,
    _update_rows,
    build_cost_matrix,
    detection_attrs,
    gating_distance,
    kalman_init,
    kalman_predict,
    kalman_update,
    outputs_to_entries,
    run_bundle,
    run_sequence,
    solve_assignment,
)
from attmot.core import BBox, Detection, attribute_distance, cosine_distance, iou
from attmot.fusion import FusionParams, all_strategies, predict_attributes
from attmot.synthgen import WorldConfig, simulate_sequence


def det(frame, box, emb=None, attr=None, conf=1.0):
    return Detection(frame=frame, box=box, confidence=conf,
                     embedding=emb, attr_obs=attr)


class TestKalmanInit:
    def test_mean_layout(self):
        s = kalman_init(BBox(100, 100, 50, 100))
        np.testing.assert_allclose(s.mean, [125, 150, 0.5, 100, 0, 0, 0, 0])

    def test_diagonal_positive_covariance(self):
        s = kalman_init(BBox(0, 0, 10, 20))
        assert np.array_equal(s.covariance, np.diag(np.diag(s.covariance)))
        assert np.all(np.diag(s.covariance) > 0)

    def test_deterministic(self):
        a = kalman_init(BBox(5, 6, 7, 8))
        b = kalman_init(BBox(5, 6, 7, 8))
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.covariance, b.covariance)


class TestKalmanPredict:
    def test_zero_velocity_keeps_position(self):
        s = kalman_init(BBox(100, 100, 50, 100))
        s2 = kalman_predict(s)
        np.testing.assert_allclose(s2.mean[:4], s.mean[:4])
        assert np.trace(s2.covariance) > np.trace(s.covariance)

    def test_velocity_advances_position(self):
        s = kalman_init(BBox(100, 100, 50, 100))
        mean = s.mean.copy()
        mean[4] = 1.0  # cx velocity
        s = KalmanState(mean=mean, covariance=s.covariance)
        for step in range(1, 4):
            s = kalman_predict(s)
            assert s.mean[0] == pytest.approx(125 + step)

    def test_trace_monotone_over_ten_predicts(self):
        s = kalman_init(BBox(0, 0, 40, 80))
        traces = [np.trace(s.covariance)]
        for _ in range(10):
            s = kalman_predict(s)
            traces.append(np.trace(s.covariance))
        assert all(b > a for a, b in zip(traces, traces[1:]))


class TestKalmanUpdate:
    def test_zero_innovation_keeps_mean(self):
        s = kalman_predict(kalman_init(BBox(100, 100, 50, 100)))
        s2 = kalman_update(s, s.box())
        np.testing.assert_allclose(s2.mean[:4], s.mean[:4], atol=1e-9)

    def test_trace_never_increases(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = kalman_init(BBox(rng.uniform(0, 500), rng.uniform(0, 300),
                                 rng.uniform(20, 80), rng.uniform(40, 160)))
            for _ in range(int(rng.integers(1, 4))):
                s = kalman_predict(s)
            before = np.trace(s.covariance)
            box = BBox(s.mean[0] + rng.normal(0, 5), s.mean[1] + rng.normal(0, 5),
                       max(5.0, s.mean[2] * s.mean[3]), max(5.0, s.mean[3]))
            s = kalman_update(s, box)
            assert np.trace(s.covariance) <= before + 1e-9

    def test_scalar_closed_form(self):
        # At init the covariance is diagonal, so the correction decouples
        # per coordinate: m' = m + p/(p+r) * y and p' = p*r/(p+r).
        s = kalman_init(BBox(100, 100, 50, 100))
        h = s.mean[3]
        p = s.covariance[0, 0]
        r = (h / 20.0) ** 2
        offset = 7.0
        meas = s.mean[:4].copy()
        meas[0] += offset
        w = meas[2] * meas[3]
        box = BBox(meas[0] - w / 2, meas[1] - meas[3] / 2, w, meas[3])
        s2 = kalman_update(s, box)
        assert s2.mean[0] == pytest.approx(s.mean[0] + p / (p + r) * offset, rel=1e-9)
        assert s2.covariance[0, 0] == pytest.approx(p * r / (p + r), rel=1e-9)

    def test_symmetric_pd_through_interleaving(self):
        rng = np.random.default_rng(1)
        s = kalman_init(BBox(50, 60, 30, 90))
        for _ in range(60):
            if rng.random() < 0.5:
                s = kalman_predict(s)
            else:
                box = BBox(s.mean[0] + rng.normal(0, 4) - 15, s.mean[1] + rng.normal(0, 4) - 45,
                           30 + rng.normal(0, 1), 90 + rng.normal(0, 2))
                s = kalman_update(s, box)
            assert np.abs(s.covariance - s.covariance.T).max() < 1e-9
            np.linalg.cholesky(s.covariance)  # raises if not PD


class TestGating:
    def test_zero_at_predicted_mean(self):
        s = kalman_predict(kalman_init(BBox(10, 10, 30, 60)))
        assert gating_distance(s, s.box()) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_along_axis(self):
        s = kalman_predict(kalman_init(BBox(10, 10, 30, 60)))
        base = s.box()
        dists = [gating_distance(s, BBox(base.left + dx, base.top, base.width, base.height))
                 for dx in (0, 5, 10, 20)]
        assert dists == sorted(dists)

    def test_identity_innovation_hand_value(self):
        # covariance chosen so S = P[:4,:4] + R = I; offsetting the
        # measurement by (3, 0, 0, 0) must give squared distance 9
        h = 2.0
        mean = np.array([50.0, 50.0, 0.5, h, 0, 0, 0, 0])
        r_std = np.array([h / 20, h / 20, 1e-1, h / 20])
        P = np.zeros((8, 8))
        P[:4, :4] = np.eye(4) - np.diag(r_std * r_std)
        P[4:, 4:] = np.eye(4)
        s = KalmanState(mean=mean, covariance=P)
        meas = mean[:4].copy()
        meas[0] += 3.0
        w = meas[2] * meas[3]
        box = BBox(meas[0] - w / 2, meas[1] - meas[3] / 2, w, meas[3])
        assert gating_distance(s, box) == pytest.approx(9.0, rel=1e-9)


class TestSolveAssignment:
    def test_single_cell(self):
        matches, ur, uc = solve_assignment(np.array([[0.0]]))
        assert matches == [(0, 0)] and ur == [] and uc == []

    def test_two_by_two(self):
        matches, _, _ = solve_assignment(np.array([[1.0, 2.0], [3.0, 1.0]]))
        assert sorted(matches) == [(0, 0), (1, 1)]

    def test_threshold_cut(self):
        cost = np.array([[5.0, 6.0], [7.0, 5.0]])
        matches, ur, uc = solve_assignment(cost, threshold=4.0)
        assert matches == [] and ur == [0, 1] and uc == [0, 1]

    def test_empty(self):
        matches, ur, uc = solve_assignment(np.zeros((0, 3)))
        assert matches == [] and ur == [] and uc == [0, 1, 2]

    def test_infeasible_mask(self):
        cost = np.array([[0.1, 0.2], [0.1, 0.2]])
        mask = np.array([[True, False], [False, True]])
        matches, _, _ = solve_assignment(cost, mask)
        assert sorted(matches) == [(0, 1), (1, 0)]

    def test_optimal_vs_brute_force(self):
        rng = np.random.default_rng(2)
        for n in range(1, 6):
            for _ in range(40):
                cost = rng.uniform(0, 10, (n, n))
                matches, _, _ = solve_assignment(cost)
                total = sum(cost[r, c] for r, c in matches)
                brute = min(sum(cost[i, p[i]] for i in range(n))
                            for p in itertools.permutations(range(n)))
                assert total == pytest.approx(brute, abs=1e-9)

    def test_rectangular(self):
        cost = np.array([[1.0, 9.0, 9.0], [9.0, 9.0, 2.0]])
        matches, ur, uc = solve_assignment(cost)
        assert sorted(matches) == [(0, 0), (1, 2)]
        assert ur == [] and uc == [1]


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestBuildCostMatrix:
    def _tracks_and_dets(self):
        e1, e2 = _unit([1, 0, 0, 0]), _unit([0, 1, 0, 0])
        a1 = np.zeros(32); a1[:4] = 1.0
        a2 = np.zeros(32); a2[4:8] = 1.0
        cfg = AssocConfig(mode="embed+attr")
        tracker = Tracker(cfg)
        tracker.step(1, [det(1, BBox(0, 0, 10, 20), e1, a1),
                         det(1, BBox(200, 0, 10, 20), e2, a2)])
        dets = [det(2, BBox(1, 0, 10, 20), _unit([1, 0.1, 0, 0]), a1),
                det(2, BBox(201, 0, 10, 20), _unit([0.1, 1, 0, 0]), a2)]
        return tracker.table, dets, cfg

    def test_additivity_and_degenerate_weights(self):
        tracks, dets, _ = self._tracks_and_dets()
        embed, _ = build_cost_matrix(tracks, dets, AssocConfig(mode="embed"))
        attr, _ = build_cost_matrix(tracks, dets, AssocConfig(mode="attr"))
        both, _ = build_cost_matrix(tracks, dets, AssocConfig(mode="embed+attr"))
        np.testing.assert_array_equal(both, embed + attr)
        lam, _ = build_cost_matrix(tracks, dets,
                                   AssocConfig(mode="embed+attr", lambda_e=2.0, lambda_a=0.5))
        np.testing.assert_allclose(lam, 2.0 * embed + 0.5 * attr)
        only_e, _ = build_cost_matrix(tracks, dets,
                                      AssocConfig(mode="embed+attr", lambda_a=0.0))
        np.testing.assert_array_equal(only_e, embed)

    def test_hand_case(self):
        tracks, dets, _ = self._tracks_and_dets()
        cost, infeasible = build_cost_matrix(tracks, dets, AssocConfig(mode="embed+attr"))
        expected = np.zeros((2, 2))
        for i, trk in enumerate(tracks):
            for j, d in enumerate(dets):
                e_cost = min(cosine_distance(g, d.embedding) for g in trk.gallery)
                a_cost = attribute_distance(trk.attr_estimate, d.attr_obs)
                expected[i, j] = e_cost + a_cost
        np.testing.assert_allclose(cost, expected, atol=1e-9)
        # far-apart pairs fail the Mahalanobis gate
        assert infeasible[0, 1] and infeasible[1, 0]
        assert not infeasible[0, 0] and not infeasible[1, 1]

    def test_iou_mode(self):
        tracks, dets, _ = self._tracks_and_dets()
        cost, _ = build_cost_matrix(tracks, dets, AssocConfig(mode="iou"))
        from attmot.core import iou
        for i, trk in enumerate(tracks):
            for j, d in enumerate(dets):
                assert cost[i, j] == pytest.approx(1.0 - iou(trk.state.box(), d.box))

    def test_concat_mode_matches_direct(self):
        tracks, dets, _ = self._tracks_and_dets()
        cost, _ = build_cost_matrix(tracks, dets, AssocConfig(mode="concat"))
        for i, trk in enumerate(tracks):
            for j, d in enumerate(dets):
                expected = min(
                    cosine_distance(np.concatenate([g, trk.attr_estimate]),
                                    np.concatenate([d.embedding, d.attr_obs]))
                    for g in trk.gallery)
                assert cost[i, j] == pytest.approx(expected, abs=1e-9)

    def test_fusion_source_requires_params(self):
        tracks, dets, _ = self._tracks_and_dets()
        with pytest.raises(ValueError, match="fusion_params"):
            build_cost_matrix(tracks, dets,
                              AssocConfig(mode="attr", attr_source="fusion"))

    def test_missing_embedding_rejected(self):
        tracks, _, _ = self._tracks_and_dets()
        bare = [det(2, BBox(0, 0, 10, 20))]
        with pytest.raises(ValueError, match="no embedding"):
            build_cost_matrix(tracks, bare, AssocConfig(mode="embed"))

    def test_empty_inputs(self):
        cost, mask = build_cost_matrix([], [], AssocConfig(mode="embed"))
        assert cost.shape == (0, 0) and mask.shape == (0, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AssocConfig(mode="bogus")
        with pytest.raises(ValueError):
            AssocConfig(mode="embed+attr", lambda_e=0.0, lambda_a=0.0)
        with pytest.raises(ValueError):
            AssocConfig(attr_ema=1.0)

    def test_minmax_normalization_flag(self):
        tracks, dets, _ = self._tracks_and_dets()
        cost, _ = build_cost_matrix(tracks, dets,
                                    AssocConfig(mode="embed+attr", normalize_costs=True))
        embed, _ = build_cost_matrix(tracks, dets, AssocConfig(mode="embed"))
        attr, _ = build_cost_matrix(tracks, dets, AssocConfig(mode="attr"))

        def minmax(m):
            return (m - m.min()) / (m.max() - m.min())

        np.testing.assert_allclose(cost, minmax(embed) + minmax(attr), atol=1e-12)

    def test_attr_binarize_flag(self):
        # fuzzy observations are thresholded at 0.5 before the distance
        soft = np.clip(np.concatenate([np.full(16, 0.8), np.full(16, 0.2)]), 0, 1)
        hard = (soft >= 0.5).astype(float)
        d = det(2, BBox(0, 0, 10, 20), _unit([1, 0, 0, 0]), soft)
        cfg_soft = AssocConfig(mode="attr")
        cfg_hard = AssocConfig(mode="attr", attr_binarize=True)
        from attmot.assoc import detection_attr_vector
        np.testing.assert_array_equal(detection_attr_vector(d, cfg_soft), soft)
        np.testing.assert_array_equal(detection_attr_vector(d, cfg_hard), hard)


class TestTrackerLifecycle:
    def test_single_detection_confirms_with_stable_id(self):
        cfg = AssocConfig(mode="iou", n_init=3)
        tracker = Tracker(cfg)
        outputs = []
        for f in range(1, 6):
            outputs += tracker.step(f, [det(f, BBox(10 + f, 10, 20, 40))])
        confirmed = [t for t in tracker.tracks if t.status == "confirmed"]
        assert len(confirmed) == 1
        ids = {o.identity for o in outputs}
        assert ids == {confirmed[0].identity}
        # confirmation backfills the tentative frames
        assert sorted(o.frame for o in outputs) == [1, 2, 3, 4, 5]

    def test_empty_frame_ages_tracks(self):
        cfg = AssocConfig(mode="iou", n_init=1)
        tracker = Tracker(cfg)
        tracker.step(1, [det(1, BBox(0, 0, 20, 40))])
        out = tracker.step(2, [])
        assert out == []  # coasting not emitted by default
        assert tracker.tracks[0].time_since_update == 1

    def test_emit_coasting_flag(self):
        cfg = AssocConfig(mode="iou", n_init=1, emit_coasting=True)
        tracker = Tracker(cfg)
        tracker.step(1, [det(1, BBox(0, 0, 20, 40))])
        out = tracker.step(2, [])
        assert len(out) == 1 and out[0].frame == 2

    def test_lost_after_max_age(self):
        cfg = AssocConfig(mode="iou", n_init=1, max_age=3)
        tracker = Tracker(cfg)
        tracker.step(1, [det(1, BBox(0, 0, 20, 40))])
        for f in range(2, 7):
            tracker.step(f, [])
        assert tracker.tracks == []

    def test_tentative_dies_on_miss(self):
        cfg = AssocConfig(mode="iou", n_init=3)
        tracker = Tracker(cfg)
        tracker.step(1, [det(1, BBox(0, 0, 20, 40))])
        tracker.step(2, [])
        assert tracker.tracks == []

    def test_identities_never_reused(self):
        cfg = AssocConfig(mode="iou", n_init=1, max_age=1)
        tracker = Tracker(cfg)
        first = tracker.step(1, [det(1, BBox(0, 0, 20, 40))])
        assert [o.identity for o in first] == [1]
        tracker.step(2, [])
        tracker.step(3, [])  # exceeds max_age: the track is dropped
        assert tracker.tracks == []
        again = tracker.step(4, [det(4, BBox(0, 0, 20, 40))])
        # the re-appearing target gets a fresh identity, never a recycled one
        assert [o.identity for o in again] == [2]

    def test_unique_ids_per_frame(self):
        cfg = AssocConfig(mode="iou", n_init=1)
        tracker = Tracker(cfg)
        for f in range(1, 5):
            outs = tracker.step(f, [det(f, BBox(0, 0, 20, 40)),
                                    det(f, BBox(300, 0, 20, 40))])
            ids = [o.identity for o in outs if o.frame == f]
            assert len(ids) == len(set(ids))

    def test_crossing_with_attributes_keeps_identities(self):
        # two noiseless targets with distinct attributes cross paths over
        # 10 frames; attr mode must hold both identities through it
        a_attr = np.zeros(32); a_attr[:8] = 1.0
        b_attr = np.zeros(32); b_attr[8:16] = 1.0
        cfg = AssocConfig(mode="attr", n_init=1)
        tracker = Tracker(cfg)
        # 100px-tall boxes at 12px/frame keep the motion inside the gate
        speed, y, w, h = 12.0, 100.0, 40.0, 100.0
        first = tracker.step(1, [det(1, BBox(0, y, w, h), attr=a_attr),
                                 det(1, BBox(240, y, w, h), attr=b_attr)])
        id_a = next(o.identity for o in first if o.box.left == 0)
        id_b = next(o.identity for o in first if o.box.left == 240)
        pairs = []
        for f in range(2, 22):
            ax = speed * (f - 1)
            bx = 240.0 - speed * (f - 1)
            outs = tracker.step(f, [det(f, BBox(ax, y, w, h), attr=a_attr),
                                    det(f, BBox(bx, y, w, h), attr=b_attr)])
            assert len(outs) == 2
            assert len(tracker.tracks) == 2  # no spurious births
            if abs(ax - bx) > 2 * speed:     # skip the coincident frames
                out_a = min(outs, key=lambda o: abs(o.box.left - ax))
                out_b = min(outs, key=lambda o: abs(o.box.left - bx))
                pairs.append((out_a.identity, out_b.identity))
        # identities follow the attribute signatures through the crossing
        assert all(pair == (id_a, id_b) for pair in pairs), pairs


class TestRunSequence:
    def test_empty(self):
        assert run_sequence({}, AssocConfig(mode="iou")) == []

    def test_deterministic(self):
        cfg = WorldConfig(n_identities=3, n_frames=20, latent_dim=16, seed=8)
        bundle = simulate_sequence(cfg)
        a = run_bundle(bundle, AssocConfig(mode="embed"))
        b = run_bundle(bundle, AssocConfig(mode="embed"))
        assert a == b

    def test_noiseless_single_pedestrian_perfect_mota(self):
        cfg = WorldConfig(n_identities=1, n_frames=25, latent_dim=16, seed=1,
                          miss_base=0.0, miss_occ_gain=0.0, jitter_sigma=0.0,
                          fp_rate=0.0, embed_noise_sigma=0.0, attr_flip_base=0.0,
                          attr_flip_occ_gain=0.0, w_linear=1.0, w_crossing=0.0,
                          w_loiter=0.0)
        bundle = simulate_sequence(cfg)
        outputs = run_bundle(bundle, AssocConfig(mode="embed"))
        rep = metrics.clear_metrics(bundle.gt_entries(), outputs_to_entries(outputs))
        assert rep.mota == 1.0 and rep.idsw == 0 and rep.fp == 0 and rep.fn == 0


class TestFailureContainment:
    def test_non_pd_innovation_marks_only_its_row(self):
        cfg = AssocConfig(mode="iou", n_init=1, max_age=2)
        tracker = Tracker(cfg)
        boxes = [BBox(0, 0, 20, 40), BBox(300, 0, 20, 40)]
        tracker.step(1, [det(1, b) for b in boxes])
        broken, healthy = tracker.tracks
        healthy_id = healthy.identity
        broken.state.covariance[:4, :4] = -1e6 * np.eye(4)
        with pytest.raises(ValueError, match="positive definite"):
            kalman_update(broken.state, boxes[0])
        with pytest.raises(ValueError, match="positive definite"):
            gating_distance(broken.state, boxes[0])

        _, infeasible = build_cost_matrix(tracker.table, [det(2, b) for b in boxes], cfg)
        assert infeasible[0].all() and not infeasible[1, 1]
        out = tracker.step(2, [det(2, b) for b in boxes])
        # the healthy track keeps its identity; the broken one is not
        # updated, so its detection starts a new track
        assert sorted(o.identity for o in out) == [healthy_id, 3]
        assert [t.time_since_update for t in tracker.tracks] == [1, 0, 0]
        for f in range(3, 6):
            out = tracker.step(f, [det(f, b) for b in boxes])
            assert len(out) == 2
        # max_age ends the broken track; the others carry on
        assert [t.identity for t in tracker.tracks] == [healthy_id, 3]

    def test_embedding_dimension_change_rejected(self):
        tracker = Tracker(AssocConfig(mode="embed", n_init=1))
        tracker.step(1, [det(1, BBox(0, 0, 20, 40), _unit([1, 0, 0, 0]))])
        with pytest.raises(ValueError, match=r"shape \(3,\); the gallery holds dimension 4"):
            tracker.step(2, [det(2, BBox(0, 0, 20, 40), _unit([1, 0, 0]))])
        # the rejected frame changed no state
        assert tracker.tracks[0].time_since_update == 0
        fresh = Tracker(AssocConfig(mode="iou"))
        with pytest.raises(ValueError, match=r"shape \(2,\); the gallery holds dimension 3"):
            fresh.step(1, [det(1, BBox(0, 0, 20, 40), _unit([1, 0, 0])),
                           det(1, BBox(90, 0, 20, 40), _unit([1, 0]))])


# ---------------------------------------------------------------------------
# Oracle: the one-track Kalman filter the batched kernels replaced, verbatim
# ---------------------------------------------------------------------------

_STD_POS = 1.0 / 20.0
_STD_VEL = 1.0 / 160.0


def _oracle_measurement(box):
    return np.array([box.cx, box.cy, box.width / box.height, box.height])


def _oracle_init(box):
    mean = np.zeros(8)
    mean[:4] = _oracle_measurement(box)
    h = box.height
    std = np.array([
        2 * _STD_POS * h, 2 * _STD_POS * h, 1e-2, 2 * _STD_POS * h,
        10 * _STD_VEL * h, 10 * _STD_VEL * h, 1e-5, 10 * _STD_VEL * h,
    ])
    return mean, np.diag(std * std)


def _oracle_predict(mean, covariance):
    h = mean[3]
    F = np.eye(8)
    for i in range(4):
        F[i, i + 4] = 1.0
    std = np.array([
        _STD_POS * h, _STD_POS * h, 1e-2, _STD_POS * h,
        _STD_VEL * h, _STD_VEL * h, 1e-5, _STD_VEL * h,
    ])
    Q = np.diag(std * std)
    cov = F @ covariance @ F.T + Q
    return F @ mean, (cov + cov.T) / 2.0


def _oracle_innovation(mean, covariance, box):
    h = mean[3]
    std = np.array([_STD_POS * h, _STD_POS * h, 1e-1, _STD_POS * h])
    S = covariance[:4, :4] + np.diag(std * std)
    return _oracle_measurement(box) - mean[:4], S


def _oracle_update(mean, covariance, box):
    y, S = _oracle_innovation(mean, covariance, box)
    chol = np.linalg.cholesky(S)
    PHt = covariance[:, :4]
    K = np.linalg.solve(chol.T, np.linalg.solve(chol, PHt.T)).T
    cov = covariance - K @ PHt.T
    return mean + K @ y, (cov + cov.T) / 2.0


def _oracle_gate(mean, covariance, box):
    y, S = _oracle_innovation(mean, covariance, box)
    z = np.linalg.solve(np.linalg.cholesky(S), y)
    return float(z @ z)


_coord = st.floats(-200.0, 1200.0)
_side = st.floats(2.0, 300.0)
_boxes = st.builds(BBox, _coord, _coord, _side, _side)


@st.composite
def _oracle_states(draw):
    """A state reached by the oracle from a birth through predicts and updates."""
    mean, cov = _oracle_init(draw(_boxes))
    for predict in draw(st.lists(st.booleans(), max_size=6)):
        if predict:
            mean, cov = _oracle_predict(mean, cov)
        else:
            mean, cov = _oracle_update(mean, cov, draw(_boxes))
    return mean, cov


_state_lists = st.lists(_oracle_states(), min_size=1, max_size=8)

# Measured, not derived; the worst gap seen over thousands of random
# examples was 4 ulp for both, and the bounds allow four times that.
# The batched gate solves all detections of a track as one multi-column
# system and sums squares in numpy, where the oracle solves one column and
# sums with a BLAS dot.
GATE_MAX_ULP = 16
# The fusion head runs one (N, D) matrix product per layer in place of N
# vector products, which rounds each logit differently.
ATTR_MAX_ULP = 16


class TestBatchedAgainstOracle:
    @given(_state_lists)
    @settings(max_examples=150)
    def test_predict_exact(self, states):
        means, covs = _predict_rows(np.stack([m for m, _ in states]),
                                    np.stack([c for _, c in states]))
        for (mean, cov), m, c in zip(states, means, covs):
            om, oc = _oracle_predict(mean, cov)
            np.testing.assert_array_equal(m, om)
            np.testing.assert_array_equal(c, oc)

    @given(_state_lists, st.data())
    @settings(max_examples=150)
    def test_update_exact(self, states, data):
        boxes = [data.draw(_boxes) for _ in states]
        meas = np.stack([_oracle_measurement(b) for b in boxes])
        means, covs = np.stack([m for m, _ in states]), np.stack([c for _, c in states])
        # factored here, as Tracker.step hands the gate's factors to the update
        chol, ok = _cholesky_rows(_innovation_cov(means, covs))
        assert ok.all()
        for upd_means, upd_covs in (_update_rows(means, covs, meas),
                                    _update_rows(means, covs, meas, chol)):
            for (mean, cov), box, m, c in zip(states, boxes, upd_means, upd_covs):
                om, oc = _oracle_update(mean, cov, box)
                np.testing.assert_array_equal(m, om)
                np.testing.assert_array_equal(c, oc)

    @given(_state_lists, st.lists(_boxes, min_size=1, max_size=8))
    @settings(max_examples=150)
    def test_gate_within_ulp_bound(self, states, boxes):
        meas = np.stack([_oracle_measurement(b) for b in boxes])
        d2 = _gate_rows(np.stack([m for m, _ in states]), np.stack([c for _, c in states]), meas)
        oracle = np.array([[_oracle_gate(m, c, b) for b in boxes] for m, c in states])
        np.testing.assert_array_max_ulp(d2, oracle, maxulp=GATE_MAX_ULP)

    @given(_state_lists, st.lists(_boxes, min_size=1, max_size=8))
    @settings(max_examples=100)
    @example([(_oracle_init(BBox(0.1, 0.1, 0.2, 0.2)))], [BBox(0.1, 0.1, 0.2, 0.2)])
    @example([(_oracle_init(BBox(0, 0, 10, 10)))], [BBox(10, 0, 10, 10), BBox(2, 2, 4, 4),
                                                    BBox(50, 50, 5, 5), BBox(0, 0, 10, 10)])
    def test_iou_cost_equals_iou_loop(self, states, boxes):
        tracker = Tracker(AssocConfig(mode="iou"))
        tab = tracker.table
        tab.add_rows(len(states))
        tab.mean[:] = [m for m, _ in states]
        tab.cov[:] = [c for _, c in states]
        dets = [det(1, b) for b in boxes]
        cost, _ = build_cost_matrix(tab, dets, AssocConfig(mode="iou"))
        expected = [[1.0 - iou(trk.state.box(), d.box) for d in dets] for trk in tab]
        np.testing.assert_array_equal(cost, expected)

    @given(st.sampled_from(all_strategies()), st.integers(0, 2**16),
           st.lists(st.booleans(), min_size=1, max_size=12))
    @settings(max_examples=30)
    def test_fusion_attributes_match_per_detection(self, strategy, seed, observed):
        params = FusionParams.random(16, n_identities=3, n_tokens=4, seed=seed)
        rng = np.random.default_rng(seed)
        dets = [det(1, BBox(0, 0, 10, 20), rng.normal(size=16),
                    rng.uniform(0, 1, 32) if has_obs else None)
                for has_obs in observed]
        cfg = AssocConfig(mode="embed+attr", attr_source="fusion")
        batched = detection_attrs(dets, cfg, (params, strategy))
        single = np.stack([predict_attributes(d.embedding, d.attr_obs, strategy, params)[0]
                           for d in dets])
        np.testing.assert_array_max_ulp(batched, single, maxulp=ATTR_MAX_ULP)
