"""Kalman filtering, cost matrices, assignment and track lifecycle."""
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attmot import assoc, metrics
from attmot.assoc import (
    GALLERY_BUDGET,
    AssocConfig,
    Tracker,
    TrackTable,
    _box_rows,
    _cholesky_rows,
    _innovation_cov,
    _measurements,
    build_cost_matrix,
    gating_distance,
    kalman_init,
    kalman_predict,
    kalman_update,
    run_sequence,
    solve_assignment,
    stack_frame,
)
from attmot.core import COST_MODES, BBox, Detections, FeatureError, MotTable, iou
from attmot.fusion import FusionParams, all_strategies, predict_attributes
from attmot.synthgen import WorldConfig, observe_all_frames, simulate_sequence
from oracles import Row, attribute_distance, by_frame_identity, cosine_distance, rows_of


def box_table(boxes):
    """(N, 4) (left, top, width, height) rows of the boxes."""
    rows = [(b.left, b.top, b.width, b.height) for b in boxes]
    return np.array(rows, dtype=float).reshape(-1, 4)


def dets(frame, boxes, embs=None, attrs=None):
    """One frame's detections of the boxes at confidence 1, with the
    embedding and attribute rows when given."""
    n = len(boxes)
    return Detections(frame, box_table(boxes), np.ones(n),
                      None if embs is None else np.array(embs, dtype=float).reshape(n, -1),
                      None if attrs is None else np.array(attrs, dtype=float).reshape(n, -1))


def _meas(*boxes):
    """(N, 4) measurement rows of the boxes."""
    return _measurements(box_table(boxes))


def _state_meas(means):
    """Measurement rows of the states' own boxes."""
    return _measurements(_box_rows(means))


class TestKalmanInit:
    def test_mean_layout(self):
        means, _ = kalman_init(_meas(BBox(100, 100, 50, 100)))
        np.testing.assert_allclose(means[0], [125, 150, 0.5, 100, 0, 0, 0, 0])

    def test_diagonal_positive_covariance(self):
        _, covs = kalman_init(_meas(BBox(0, 0, 10, 20)))
        assert np.array_equal(covs[0], np.diag(np.diag(covs[0])))
        assert np.all(np.diag(covs[0]) > 0)

    def test_deterministic(self):
        a_means, a_covs = kalman_init(_meas(BBox(5, 6, 7, 8)))
        b_means, b_covs = kalman_init(_meas(BBox(5, 6, 7, 8)))
        assert np.array_equal(a_means, b_means)
        assert np.array_equal(a_covs, b_covs)


class TestKalmanPredict:
    def test_zero_velocity_keeps_position(self):
        means, covs = kalman_init(_meas(BBox(100, 100, 50, 100)))
        means2, covs2 = kalman_predict(means, covs)
        np.testing.assert_allclose(means2[0, :4], means[0, :4])
        assert np.trace(covs2[0]) > np.trace(covs[0])

    def test_velocity_advances_position(self):
        means, covs = kalman_init(_meas(BBox(100, 100, 50, 100)))
        means[0, 4] = 1.0  # cx velocity
        for step in range(1, 4):
            means, covs = kalman_predict(means, covs)
            assert means[0, 0] == pytest.approx(125 + step)

    def test_trace_monotone_over_ten_predicts(self):
        means, covs = kalman_init(_meas(BBox(0, 0, 40, 80)))
        traces = [np.trace(covs[0])]
        for _ in range(10):
            means, covs = kalman_predict(means, covs)
            traces.append(np.trace(covs[0]))
        assert all(b > a for a, b in zip(traces, traces[1:]))


class TestKalmanUpdate:
    def test_zero_innovation_keeps_mean(self):
        means, covs = kalman_predict(*kalman_init(_meas(BBox(100, 100, 50, 100))))
        means2, _ = kalman_update(means, covs, _state_meas(means))
        np.testing.assert_allclose(means2[0, :4], means[0, :4], atol=1e-9)

    def test_trace_never_increases(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            means, covs = kalman_init(_meas(BBox(rng.uniform(0, 500), rng.uniform(0, 300),
                                                 rng.uniform(20, 80), rng.uniform(40, 160))))
            for _ in range(int(rng.integers(1, 4))):
                means, covs = kalman_predict(means, covs)
            before = np.trace(covs[0])
            m = means[0]
            box = BBox(m[0] + rng.normal(0, 5), m[1] + rng.normal(0, 5),
                       max(5.0, m[2] * m[3]), max(5.0, m[3]))
            means, covs = kalman_update(means, covs, _meas(box))
            assert np.trace(covs[0]) <= before + 1e-9

    def test_scalar_closed_form(self):
        # At init the covariance is diagonal, so the correction decouples
        # per coordinate: m' = m + p/(p+r) * y and p' = p*r/(p+r).
        means, covs = kalman_init(_meas(BBox(100, 100, 50, 100)))
        h = means[0, 3]
        p = covs[0, 0, 0]
        r = (h / 20.0) ** 2
        offset = 7.0
        meas = means[0, :4].copy()
        meas[0] += offset
        w = meas[2] * meas[3]
        box = BBox(meas[0] - w / 2, meas[1] - meas[3] / 2, w, meas[3])
        means2, covs2 = kalman_update(means, covs, _meas(box))
        assert means2[0, 0] == pytest.approx(means[0, 0] + p / (p + r) * offset, rel=1e-9)
        assert covs2[0, 0, 0] == pytest.approx(p * r / (p + r), rel=1e-9)

    def test_symmetric_pd_through_interleaving(self):
        rng = np.random.default_rng(1)
        means, covs = kalman_init(_meas(BBox(50, 60, 30, 90)))
        for _ in range(60):
            if rng.random() < 0.5:
                means, covs = kalman_predict(means, covs)
            else:
                m = means[0]
                box = BBox(m[0] + rng.normal(0, 4) - 15, m[1] + rng.normal(0, 4) - 45,
                           30 + rng.normal(0, 1), 90 + rng.normal(0, 2))
                means, covs = kalman_update(means, covs, _meas(box))
            cov = covs[0]
            assert np.abs(cov - cov.T).max() < 1e-9
            np.linalg.cholesky(cov)  # raises if not PD


class TestGating:
    def test_zero_at_predicted_mean(self):
        means, covs = kalman_predict(*kalman_init(_meas(BBox(10, 10, 30, 60))))
        d2 = gating_distance(means, covs, _state_meas(means))
        assert d2[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_monotone_along_axis(self):
        means, covs = kalman_predict(*kalman_init(_meas(BBox(10, 10, 30, 60))))
        base = BBox(*_box_rows(means)[0].tolist())
        boxes = [BBox(base.left + dx, base.top, base.width, base.height)
                 for dx in (0, 5, 10, 20)]
        dists = gating_distance(means, covs, _meas(*boxes))[0].tolist()
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
        meas = mean[:4].copy()
        meas[0] += 3.0
        w = meas[2] * meas[3]
        box = BBox(meas[0] - w / 2, meas[1] - meas[3] / 2, w, meas[3])
        d2 = gating_distance(mean[None], P[None], _meas(box))
        assert d2[0, 0] == pytest.approx(9.0, rel=1e-9)


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
        tracker.step(1, dets(1, [BBox(0, 0, 10, 20), BBox(200, 0, 10, 20)], [e1, e2], [a1, a2]))
        frame = dets(2, [BBox(1, 0, 10, 20), BBox(201, 0, 10, 20)],
                     [_unit([1, 0.1, 0, 0]), _unit([0.1, 1, 0, 0])], [a1, a2])
        return tracker.table, frame, cfg

    def test_additivity_and_degenerate_weights(self):
        tracks, frame, _ = self._tracks_and_dets()

        def costs(cfg):
            return build_cost_matrix(tracks, stack_frame(frame, cfg), cfg)[0]

        embed = costs(AssocConfig(mode="embed"))
        attr = costs(AssocConfig(mode="attr"))
        both = costs(AssocConfig(mode="embed+attr"))
        np.testing.assert_array_equal(both, embed + attr)
        lam = costs(AssocConfig(mode="embed+attr", lambda_e=2.0, lambda_a=0.5))
        np.testing.assert_allclose(lam, 2.0 * embed + 0.5 * attr)
        only_e = costs(AssocConfig(mode="embed+attr", lambda_a=0.0))
        np.testing.assert_array_equal(only_e, embed)

    def test_hand_case(self):
        tab, frame, cfg = self._tracks_and_dets()
        cost, infeasible = build_cost_matrix(tab, stack_frame(frame, cfg), cfg)
        expected = np.zeros((2, 2))
        for i in range(len(tab)):
            for j, (emb, attr) in enumerate(zip(frame.embeddings, frame.attrs)):
                e_cost = min(cosine_distance(g, emb) for g in tab.gallery[i, :tab.gal_n[i]])
                a_cost = attribute_distance(tab.attr[i], attr)
                expected[i, j] = e_cost + a_cost
        np.testing.assert_allclose(cost, expected, atol=1e-9)
        # far-apart pairs fail the Mahalanobis gate
        assert infeasible[0, 1] and infeasible[1, 0]
        assert not infeasible[0, 0] and not infeasible[1, 1]

    def test_iou_mode(self):
        tab, frame, _ = self._tracks_and_dets()
        cfg = AssocConfig(mode="iou")
        cost, _ = build_cost_matrix(tab, stack_frame(frame, cfg), cfg)
        for i, box in enumerate(_box_rows(tab.mean).tolist()):
            for j, d_box in enumerate(frame.boxes.tolist()):
                assert cost[i, j] == pytest.approx(1.0 - iou(BBox(*box), BBox(*d_box)))

    def test_fusion_source_requires_params(self):
        _, frame, _ = self._tracks_and_dets()
        with pytest.raises(ValueError, match="fusion_params"):
            stack_frame(frame, AssocConfig(mode="attr", attr_source="fusion"))

    def test_missing_embedding_rejected(self):
        bare = dets(2, [BBox(0, 0, 10, 20)])
        with pytest.raises(ValueError, match="no embedding"):
            stack_frame(bare, AssocConfig(mode="embed"))

    def test_empty_inputs(self):
        cfg = AssocConfig(mode="embed")
        cost, mask = build_cost_matrix([], stack_frame(dets(1, []), cfg), cfg)
        assert cost.shape == (0, 0) and mask.shape == (0, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AssocConfig(mode="bogus")
        with pytest.raises(ValueError):
            AssocConfig(mode="embed+attr", lambda_e=0.0, lambda_a=0.0)

    @pytest.mark.parametrize("mode", ["iou", "embed+attr"])
    @pytest.mark.parametrize("name", ["lambda_e", "lambda_a", "match_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_names_it(self, mode, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, not {value!r}"):
            AssocConfig(mode=mode, **{name: value})


class TestTrackerLifecycle:
    def test_single_detection_confirms_with_stable_id(self):
        cfg = AssocConfig(mode="iou", n_init=3)
        tracker = Tracker(cfg)
        for f in range(1, 3):
            tracker.step(f, dets(f, [BBox(10 + f, 10, 20, 40)]))
        assert len(tracker.results()) == 0  # still tentative: nothing reported
        for f in range(3, 6):
            tracker.step(f, dets(f, [BBox(10 + f, 10, 20, 40)]))
        confirmed = tracker.table.identity[tracker.table.confirmed].tolist()
        assert len(confirmed) == 1
        outputs = tracker.results()
        assert set(outputs.ids.tolist()) == {confirmed[0]}
        # confirmation backfills the tentative frames
        assert outputs.frames.tolist() == [1, 2, 3, 4, 5]

    def test_empty_frame_ages_tracks(self):
        cfg = AssocConfig(mode="iou", n_init=1)
        tracker = Tracker(cfg)
        tracker.step(1, dets(1, [BBox(0, 0, 20, 40)]))
        tracker.step(2, dets(2, []))
        assert tracker.results().frames.tolist() == [1]  # coasting tracks are not emitted
        assert tracker.table.age.tolist() == [1]

    def test_lost_after_max_age(self):
        cfg = AssocConfig(mode="iou", n_init=1, max_age=3)
        tracker = Tracker(cfg)
        tracker.step(1, dets(1, [BBox(0, 0, 20, 40)]))
        for f in range(2, 7):
            tracker.step(f, dets(f, []))
        assert len(tracker.table) == 0

    def test_tentative_dies_on_miss(self):
        cfg = AssocConfig(mode="iou", n_init=3)
        tracker = Tracker(cfg)
        tracker.step(1, dets(1, [BBox(0, 0, 20, 40)]))
        tracker.step(2, dets(2, []))
        assert len(tracker.table) == 0
        assert len(tracker.results()) == 0  # its birth row is never reported

    def test_identities_never_reused(self):
        cfg = AssocConfig(mode="iou", n_init=1, max_age=1)
        tracker = Tracker(cfg)
        tracker.step(1, dets(1, [BBox(0, 0, 20, 40)]))
        assert tracker.results().ids.tolist() == [1]
        tracker.step(2, dets(2, []))
        tracker.step(3, dets(3, []))  # exceeds max_age: the track is dropped
        assert len(tracker.table) == 0
        tracker.step(4, dets(4, [BBox(0, 0, 20, 40)]))
        # the re-appearing target gets a fresh identity, never a recycled one
        out = tracker.results()
        assert list(zip(out.frames.tolist(), out.ids.tolist())) == [(1, 1), (4, 2)]

    def test_unique_ids_per_frame(self):
        cfg = AssocConfig(mode="iou", n_init=1)
        tracker = Tracker(cfg)
        for f in range(1, 5):
            tracker.step(f, dets(f, [BBox(0, 0, 20, 40), BBox(300, 0, 20, 40)]))
        # the table refuses an identity twice in one frame
        out = tracker.results()
        assert list(zip(out.frames.tolist(), out.ids.tolist())) == [
            (f, i) for f in range(1, 5) for i in (1, 2)]

    def test_iou_tracker_keeps_no_appearance_state(self):
        # no iou cost reads embeddings or attributes, so none are kept
        tracker = Tracker(AssocConfig(mode="iou", n_init=1))
        for f in range(1, 4):
            tracker.step(f, dets(f, [BBox(10 + f, 10, 20, 40)], [_unit([1, 0, 0, 0])],
                                 [np.full(32, 0.5)]))
        assert len(tracker.table) == 1
        assert tracker.table.dim is None
        assert not tracker.table.attr.any()

    def test_crossing_with_attributes_keeps_identities(self):
        # two noiseless targets with distinct attributes cross paths over
        # 10 frames; attr mode must hold both identities through it
        a_attr = np.zeros(32); a_attr[:8] = 1.0
        b_attr = np.zeros(32); b_attr[8:16] = 1.0
        cfg = AssocConfig(mode="attr", n_init=1)
        tracker = Tracker(cfg)
        # 100px-tall boxes at 12px/frame keep the motion inside the gate
        speed, y, w, h = 12.0, 100.0, 40.0, 100.0
        tracker.step(1, dets(1, [BBox(0, y, w, h), BBox(240, y, w, h)],
                             attrs=[a_attr, b_attr]))
        first = rows_of(tracker.results())
        id_a = next(o.identity for o in first if o.box.left == 0)
        id_b = next(o.identity for o in first if o.box.left == 240)
        pairs = []
        for f in range(2, 22):
            ax = speed * (f - 1)
            bx = 240.0 - speed * (f - 1)
            tracker.step(f, dets(f, [BBox(ax, y, w, h), BBox(bx, y, w, h)],
                                 attrs=[a_attr, b_attr]))
            outs = [o for o in rows_of(tracker.results()) if o.frame == f]
            assert len(outs) == 2
            assert len(tracker.table) == 2  # no spurious births
            if abs(ax - bx) > 2 * speed:     # skip the coincident frames
                out_a = min(outs, key=lambda o: abs(o.box.left - ax))
                out_b = min(outs, key=lambda o: abs(o.box.left - bx))
                pairs.append((out_a.identity, out_b.identity))
        # identities follow the attribute signatures through the crossing
        assert all(pair == (id_a, id_b) for pair in pairs), pairs


class TestRunSequence:
    def test_empty(self):
        assert run_sequence({}, AssocConfig(mode="iou")) == MotTable([], [], [])

    def test_deterministic(self):
        cfg = WorldConfig(n_identities=3, n_frames=20, latent_dim=16, seed=8)
        bundle = simulate_sequence(cfg)
        a = run_sequence(observe_all_frames(bundle), AssocConfig(mode="embed"),
                         n_frames=bundle.n_frames)
        b = run_sequence(observe_all_frames(bundle), AssocConfig(mode="embed"),
                         n_frames=bundle.n_frames)
        assert a == b

    def test_noiseless_single_pedestrian_perfect_mota(self):
        cfg = WorldConfig(n_identities=1, n_frames=25, latent_dim=16, seed=1,
                          miss_base=0.0, miss_occ_gain=0.0, jitter_sigma=0.0,
                          fp_rate=0.0, embed_noise_sigma=0.0, attr_flip_base=0.0,
                          attr_flip_occ_gain=0.0, w_linear=1.0, w_crossing=0.0,
                          w_loiter=0.0)
        bundle = simulate_sequence(cfg)
        outputs = run_sequence(observe_all_frames(bundle), AssocConfig(mode="embed"),
                               n_frames=bundle.n_frames)
        rep = metrics.clear_metrics(bundle.gt_entries(), outputs)
        assert rep.mota == 1.0 and rep.idsw == 0 and rep.fp == 0 and rep.fn == 0

    def test_step_updates_through_module_kalman_update(self, monkeypatch):
        # The benchmark's layer timer replaces assoc.kalman_update by name;
        # the tracker must look it up there, once per frame with matches.
        calls = []
        real = assoc.kalman_update

        def counting(means, covs, meas, chol=None):
            calls.append(len(means))
            return real(means, covs, meas, chol)

        monkeypatch.setattr(assoc, "kalman_update", counting)
        # two targets 1 px/frame apart from frame 1 to 6, none in frame 4:
        # frame 1 gives births, frames 2, 3, 5 and 6 match both tracks
        frames = {f: dets(f, [BBox(10 + f, 10, 20, 40), BBox(300 - f, 10, 20, 40)])
                  for f in (1, 2, 3, 5, 6)}
        outputs = run_sequence(frames, AssocConfig(mode="iou"), n_frames=6)
        assert set(outputs.ids.tolist()) == {1, 2}
        assert calls == [2, 2, 2, 2]


    def test_step_costs_through_module_build_cost_matrix(self, monkeypatch):
        # The benchmark's layer timer replaces assoc.build_cost_matrix by
        # name and reads the mode from its third argument; the tracker must
        # call it there once per frame, empty frames included.
        calls = []
        real = assoc.build_cost_matrix

        def counting(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((len(args[0]), len(args[1].boxes), args[2], result))
            return result

        monkeypatch.setattr(assoc, "build_cost_matrix", counting)
        a1 = np.zeros(32); a1[:4] = 1.0
        a2 = np.zeros(32); a2[4:8] = 1.0
        frames = {f: dets(f, [BBox(10 + f, 10, 20, 40), BBox(300 - f, 10, 20, 40)],
                          [_unit([1, 0, 0, 0]), _unit([0, 1, 0, 0])], [a1, a2])
                  for f in (1, 2, 3, 5, 6)}
        cfg = AssocConfig(mode="embed+attr")
        outputs = run_sequence(frames, cfg, n_frames=6)
        assert set(outputs.ids.tolist()) == {1, 2}
        assert [(n_t, n_d) for n_t, n_d, _, _ in calls] == [(0, 2), (2, 2), (2, 2), (2, 0),
                                                            (2, 2), (2, 2)]
        for n_t, n_d, config, (cost, infeasible) in calls:
            assert isinstance(config, AssocConfig)
            assert cost.shape == infeasible.shape == (n_t, n_d)



class _ListTracker(Tracker):
    """The oracle of ``Tracker.results``: the tracker as it reported rows
    before its row buffers, one ``Row`` per confirmed box, returned by the
    step that emits it, and a tentative track's boxes held in a list until
    its confirmation emits them."""

    def __init__(self, config, fusion_params=None):
        super().__init__(config, fusion_params)
        self.pending = {}   # identity -> [(frame, box)] while tentative

    def step(self, frame, detections):
        cfg, tab = self.config, self.table
        batch = stack_frame(detections, cfg, self.fusion_params, tab.dim)
        tab.mean[:], tab.cov[:] = kalman_predict(tab.mean, tab.cov)
        tab.age += 1
        chol, pos_def = _cholesky_rows(_innovation_cov(tab.mean, tab.cov))
        cost, infeasible = build_cost_matrix(tab, batch, cfg, (chol, pos_def))
        matches, u_tracks, u_dets = solve_assignment(cost, infeasible, cfg.threshold)
        outputs = []
        if matches:
            rows, cols = np.array(matches).T
            tab.mean[rows], tab.cov[rows] = kalman_update(tab.mean[rows], tab.cov[rows],
                                                          batch.meas[cols], chol[rows])
            tab.hits[rows] += 1
            tab.age[rows] = 0
            self._absorb(rows, cols, batch, born=False)
            confirm = ~tab.confirmed[rows] & (tab.hits[rows] >= cfg.n_init)
            for ident, was_confirmed, now, box in zip(
                    tab.identity[rows].tolist(), tab.confirmed[rows].tolist(),
                    confirm.tolist(), _box_rows(tab.mean[rows]).tolist()):
                if was_confirmed:
                    outputs.append(Row(frame, ident, BBox(*box)))
                    continue
                self.pending[ident].append((frame, BBox(*box)))
                if now:
                    outputs.extend(Row(f, ident, b) for f, b in self.pending.pop(ident))
            tab.confirmed[rows] |= confirm
        if u_tracks:
            u = np.array(u_tracks)
            kept = tab.confirmed[u] & (tab.age[u] <= cfg.max_age)
            if not kept.all():
                keep = np.ones(len(tab), dtype=bool)
                keep[u[~kept]] = False
                tab.compact(keep)
        if u_dets:
            cols = np.array(u_dets)
            new = tab.add_rows(len(cols))
            tab.mean[new], tab.cov[new] = kalman_init(batch.meas[cols])
            tab.hits[new] = 1
            tab.identity[new] = np.arange(self._next_id, self._next_id + len(cols))
            self._next_id += len(cols)
            self._absorb(np.arange(new.start, new.stop), cols, batch, born=True)
            tab.confirmed[new] = cfg.n_init <= 1
            for box, ident in zip(batch.boxes[cols].tolist(), tab.identity[new].tolist()):
                if cfg.n_init <= 1:
                    outputs.append(Row(frame, ident, BBox(*box)))
                else:
                    self.pending[ident] = [(frame, BBox(*box))]
        return outputs


def _list_run_sequence(frames, config, fusion_params=None, n_frames=None):
    """``run_sequence`` through ``_ListTracker``: the rows, sorted."""
    tracker = _ListTracker(config, fusion_params)
    out = []
    for f in range(1, (n_frames or max(frames, default=0)) + 1):
        out += tracker.step(f, frames.get(f, Detections(f, np.empty((0, 4)), np.empty(0))))
    return by_frame_identity(out)


class TestRowBuffersAgainstListOracle:
    @given(st.sampled_from(COST_MODES), st.integers(0, 2**16), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 7), st.integers(4, 30))
    @settings(max_examples=60)
    def test_run_sequence_equals_list_oracle(self, mode, seed, n_init, max_age, n_ids,
                                             n_frames):
        world = WorldConfig(n_identities=n_ids, n_frames=n_frames, latent_dim=8, seed=seed,
                            w_crossing=0.8, w_linear=0.1, w_loiter=0.1, fp_rate=0.5)
        bundle = simulate_sequence(world)
        frames = observe_all_frames(bundle)
        cfg = AssocConfig(mode=mode, n_init=n_init, max_age=max_age)
        got = run_sequence(frames, cfg, n_frames=n_frames)
        want = _list_run_sequence(frames, cfg, n_frames=n_frames)
        assert rows_of(got) == want
        assert got.frames.dtype == got.ids.dtype == np.int64

    def test_step_by_step_results_equal_list_oracle(self):
        # results() read between steps reports exactly the rows the list
        # tracker has emitted so far
        bundle = simulate_sequence(WorldConfig(n_identities=6, n_frames=25, latent_dim=8,
                                               seed=4, w_crossing=0.8, w_linear=0.1,
                                               w_loiter=0.1))
        frames = observe_all_frames(bundle)
        cfg = AssocConfig(mode="embed+attr")
        tracker, oracle, emitted = Tracker(cfg), _ListTracker(cfg), []
        for f in range(1, 26):
            tracker.step(f, frames[f])
            emitted += oracle.step(f, frames[f])
            assert rows_of(tracker.results()) == by_frame_identity(emitted)


class TestFailureContainment:
    def test_non_pd_innovation_marks_only_its_row(self):
        cfg = AssocConfig(mode="iou", n_init=1, max_age=2)
        tracker = Tracker(cfg)
        boxes = [BBox(0, 0, 20, 40), BBox(300, 0, 20, 40)]
        tracker.step(1, dets(1, boxes))
        tab = tracker.table
        healthy_id = int(tab.identity[1])
        tab.cov[0, :4, :4] = -1e6 * np.eye(4)   # row 0 is the broken track
        d2 = gating_distance(tab.mean, tab.cov, _meas(*boxes))
        assert np.all(d2[0] == np.inf) and np.isfinite(d2[1]).all()
        with pytest.raises(np.linalg.LinAlgError):
            kalman_update(tab.mean[:1], tab.cov[:1], _meas(boxes[0]))

        frame = stack_frame(dets(2, boxes), cfg)
        _, infeasible = build_cost_matrix(tracker.table, frame, cfg)
        assert infeasible[0].all() and not infeasible[1, 1]
        tracker.step(2, dets(2, boxes))
        # the healthy track keeps its identity; the broken one is not
        # updated, so its detection starts a new track
        out = tracker.results()
        assert out.ids[out.frames == 2].tolist() == [healthy_id, 3]
        assert tab.age.tolist() == [1, 0, 0]
        for f in range(3, 6):
            tracker.step(f, dets(f, boxes))
            out = tracker.results()
            assert (out.frames == f).sum() == 2
        # max_age ends the broken track; the others carry on
        assert tab.identity.tolist() == [healthy_id, 3]

    def test_embedding_dimension_change_rejected(self):
        tracker = Tracker(AssocConfig(mode="embed", n_init=1))
        tracker.step(1, dets(1, [BBox(0, 0, 20, 40)], [_unit([1, 0, 0, 0])]))
        with pytest.raises(ValueError, match=r"shape \(3,\); the gallery holds dimension 4"):
            tracker.step(2, dets(2, [BBox(0, 0, 20, 40)], [_unit([1, 0, 0])]))
        # the rejected frame changed no state
        assert tracker.table.age.tolist() == [0]
        # one frame's embeddings are one table, so their dimensions cannot differ
        with pytest.raises(ValueError, match="inhomogeneous"):
            Detections(1, box_table([BBox(0, 0, 20, 40), BBox(90, 0, 20, 40)]), np.ones(2),
                       [_unit([1, 0, 0]), _unit([1, 0])])


def _bad_nan_embedding(frame, r):
    emb = frame.embeddings.copy()
    emb[r, 1] = np.nan
    return replace(frame, embeddings=emb)


def _bad_attr_value(frame, r):
    attrs = frame.attrs.copy()
    attrs[r, 7] = 1.25
    return replace(frame, attrs=attrs)


def _bad_attr_width(frame, r):
    return replace(frame, attrs=frame.attrs[:, :31])


# one bad detection, each rejected when its frame's table is built; a table
# of the wrong width is wrong from its first row on
_BAD_DETECTIONS = [
    pytest.param(_bad_nan_embedding, "embedding contains non-finite values", False,
                 id="nan-embedding"),
    pytest.param(_bad_attr_value, r"attribute probabilities must lie in \[0, 1\]", False,
                 id="attribute-above-1"),
    pytest.param(_bad_attr_width, r"expected 32 attribute values, got shape \(31,\)", True,
                 id="attribute-width"),
]


class TestFeatureBoundary:
    def _frames(self):
        rng = np.random.default_rng(4)
        return {f: dets(f, [BBox(40.0 * i, 10, 20, 40) for i in range(3)],
                        [_unit(rng.standard_normal(6)) for _ in range(3)],
                        rng.uniform(0, 1, (3, 32))) for f in (1, 2, 3)}

    @pytest.mark.parametrize("spoil,reason,whole_table", _BAD_DETECTIONS)
    def test_run_sequence_names_frame_and_detection(self, spoil, reason, whole_table):
        frames = self._frames()
        row = 0 if whole_table else 1
        with pytest.raises(FeatureError, match=f"^frame 2, detection {row}: {reason}"):
            frames[2] = spoil(frames[2], 1)
            run_sequence(frames, AssocConfig(mode="embed+attr"))

    @pytest.mark.parametrize("spoil,reason,whole_table", _BAD_DETECTIONS)
    def test_fusion_source_checks_observations_it_feeds_the_head(self, spoil, reason,
                                                                 whole_table):
        params = FusionParams.random(6, n_identities=3, n_tokens=2, seed=0)
        cfg = AssocConfig(mode="attr", attr_source="fusion")
        row = 0 if whole_table else 2
        with pytest.raises(FeatureError, match=f"^frame 1, detection {row}: {reason}"):
            stack_frame(spoil(self._frames()[1], 2), cfg, (params, all_strategies()[0]))


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
# Cost entries against the per-pair loop: the worst gap seen over 20,000
# random examples was 32 ulp (embed), and the bound allows four times that.
# The batched costs take one matrix product per track and numpy's norms and
# means where the loop takes BLAS dots, and ``1 - cos`` magnifies the
# difference as the cosine nears 1.  The iou and attr costs matched exactly.
COST_MAX_ULP = 128


_near_boxes = st.builds(BBox, st.floats(0.0, 100.0), st.floats(0.0, 100.0),
                        st.floats(2.0, 100.0), st.floats(2.0, 100.0))


@st.composite
def _cost_worlds(draw):
    """A config, a track table and a frame of detections of that config.

    Embeddings have at least 8 dimensions, so random gallery and detection
    directions stay far from parallel and no cost entry is a near-cancelling
    ``1 - cos``, where an ulp bound would say nothing."""
    mode = draw(st.sampled_from(COST_MODES))
    cfg = AssocConfig(mode=mode, lambda_e=draw(st.floats(0.1, 3.0)),
                      lambda_a=draw(st.floats(0.0, 3.0)))
    n_t = draw(st.integers(1, 5))
    dim = draw(st.integers(8, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tab = TrackTable()
    tab.add_rows(n_t)
    tab.mean[:], tab.cov[:] = kalman_init(_meas(*[draw(_near_boxes) for _ in range(n_t)]))
    tab.set_dim(dim)
    tab.gal_n[:] = [draw(st.sampled_from([1, 2, 5, GALLERY_BUDGET])) for _ in range(n_t)]
    gallery = rng.normal(size=(n_t, GALLERY_BUDGET, dim))
    tab.gallery[:] = gallery / np.linalg.norm(gallery, axis=2, keepdims=True)
    tab.gallery[~tab.gallery_filled()] = 0.0
    tab.attr[:] = rng.uniform(0.0, 1.0, (n_t, 32))
    rows = [(draw(_near_boxes), rng.normal(size=dim), rng.uniform(0.0, 1.0, 32))
            for _ in range(draw(st.integers(1, 6)))]
    return cfg, tab, dets(1, *zip(*rows))


def _oracle_cost(tab, frame, cfg):
    """The cost matrix as a per-pair loop over the scalar distances."""
    cost = np.empty((len(tab), len(frame)))
    for i, box in enumerate(_box_rows(tab.mean).tolist()):
        gallery = tab.gallery[i, :tab.gal_n[i]]
        for j, (d_box, emb, attr) in enumerate(zip(frame.boxes.tolist(), frame.embeddings,
                                                   frame.attrs)):
            if cfg.mode == "iou":
                cost[i, j] = 1.0 - iou(BBox(*box), BBox(*d_box))
                continue
            e = min(cosine_distance(g, emb) for g in gallery)
            a = attribute_distance(tab.attr[i], attr)
            cost[i, j] = {"embed": e, "attr": a,
                          "embed+attr": cfg.lambda_e * e + cfg.lambda_a * a}[cfg.mode]
    return cost


class TestBatchedAgainstOracle:
    @given(_cost_worlds())
    @settings(max_examples=150)
    def test_cost_matrix_within_ulp_bound(self, world):
        cfg, tab, frame = world
        cost, infeasible = build_cost_matrix(tab, stack_frame(frame, cfg, dim=tab.dim), cfg)
        assert infeasible.shape == cost.shape == (len(tab), len(frame))
        np.testing.assert_array_max_ulp(cost, _oracle_cost(tab, frame, cfg),
                                        maxulp=0 if cfg.mode == "iou" else COST_MAX_ULP)

    @given(_state_lists)
    @settings(max_examples=150)
    def test_predict_exact(self, states):
        means, covs = kalman_predict(np.stack([m for m, _ in states]),
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
        for upd_means, upd_covs in (kalman_update(means, covs, meas),
                                    kalman_update(means, covs, meas, chol)):
            for (mean, cov), box, m, c in zip(states, boxes, upd_means, upd_covs):
                om, oc = _oracle_update(mean, cov, box)
                np.testing.assert_array_equal(m, om)
                np.testing.assert_array_equal(c, oc)

    @given(_state_lists, st.lists(_boxes, min_size=1, max_size=8))
    @settings(max_examples=150)
    def test_gate_within_ulp_bound(self, states, boxes):
        meas = np.stack([_oracle_measurement(b) for b in boxes])
        d2 = gating_distance(np.stack([m for m, _ in states]), np.stack([c for _, c in states]),
                             meas)
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
        cfg = AssocConfig(mode="iou")
        cost, _ = build_cost_matrix(tab, stack_frame(dets(1, boxes), cfg), cfg)
        expected = [[1.0 - iou(BBox(*box), b) for b in boxes]
                    for box in _box_rows(tab.mean).tolist()]
        np.testing.assert_array_equal(cost, expected)

    @given(st.sampled_from(all_strategies()), st.integers(0, 2**16), st.integers(1, 12),
           st.booleans())
    @settings(max_examples=30)
    def test_fusion_attributes_match_per_detection(self, strategy, seed, n, observed):
        # a frame has attribute observations for all its detections or none
        params = FusionParams.random(16, n_identities=3, n_tokens=4, seed=seed)
        rng = np.random.default_rng(seed)
        frame = dets(1, [BBox(0, 0, 10, 20)] * n, rng.normal(size=(n, 16)),
                     rng.uniform(0, 1, (n, 32)) if observed else None)
        cfg = AssocConfig(mode="embed+attr", attr_source="fusion")
        batched = stack_frame(frame, cfg, (params, strategy)).attrs
        obs = frame.attrs if observed else [None] * n
        single = np.stack([predict_attributes(e, a, strategy, params)[0]
                           for e, a in zip(frame.embeddings, obs)])
        np.testing.assert_array_max_ulp(batched, single, maxulp=ATTR_MAX_ULP)
