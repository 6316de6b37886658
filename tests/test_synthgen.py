"""Synthetic world generation: priors, trajectories, occlusion, observation."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from attmot import synthgen
from attmot.core import N_ATTRIBUTES, BBox, FeatureError, MotTable, TrainSample
from attmot.synthgen import (
    _occlusion_matrix,
    AttributePrior,
    WorldConfig,
    generate_benchmark,
    observe_frame,
    occlusion_metadata_lines,
    sample_identity,
    sample_training_crops,
    simulate_sequence,
)
from oracles import Row, attribute_distance, cosine_distance, occlusion_fraction, rows_of


# The per-identity observation model that the frame-at-a-time emission
# replaced, kept verbatim as its oracle.
def perturb_embedding(latent, occ, config, rng):
    """Occlusion-scaled embedding noise: per-component sigma grows as
    ``sigma * (1 + embed_occ_gain * occ)``.

    Returns the unit-normalized noisy embedding and the pre-normalization
    perturbation norm (which concentrates around sqrt(dim) * sigma_eff).
    """
    sigma_eff = config.embed_noise_sigma * (1.0 + config.embed_occ_gain * occ)
    if sigma_eff == 0.0:
        return latent.copy(), 0.0
    noise = sigma_eff * rng.standard_normal(latent.shape[0])
    emb = latent + noise
    return emb / np.linalg.norm(emb), float(np.linalg.norm(noise))


def flip_attributes(bits, occ, config, rng):
    """Independent bit flips with ``min(0.5, base + gain * occ)``."""
    p_eff = min(0.5, config.attr_flip_base + config.attr_flip_occ_gain * occ)
    flips = rng.random(N_ATTRIBUTES) < p_eff
    return np.abs(bits - flips.astype(np.float64))


def _emit_observation(bundle, i, occ, frame, config, rng):
    """One observation of the identity in row ``i`` as a ``(frame, box,
    confidence, embedding, attributes)`` row, or None when its box is
    clipped away."""
    l, t, w, h = bundle.trajectories[frame - 1, i]
    if config.jitter_sigma > 0:
        l, t, w, h = np.array([l, t, w, h]) + rng.normal(0.0, config.jitter_sigma, 4)
    box = synthgen._clip_box(l, t, max(w, synthgen._MIN_BOX), max(h, synthgen._MIN_BOX),
                             config)
    if box is None:
        return None
    emb, _ = perturb_embedding(bundle.latents[i], occ, config, rng)
    attr = flip_attributes(bundle.attributes[i], occ, config, rng)
    conf = float(np.clip(1.0 - 0.5 * occ + 0.05 * rng.standard_normal(), 0.05, 1.0))
    return frame, box, conf, emb, attr


def _observe_frame_loop(bundle, frame):
    config = bundle.config
    rng = synthgen._rng(config, synthgen._STREAM_OBSERVE, frame)
    out = []
    for i in range(len(bundle.latents)):
        occ = float(bundle.occlusion[frame - 1, i])
        miss_p = min(1.0, config.miss_base + config.miss_occ_gain * occ)
        if rng.random() < miss_p:
            continue
        det = _emit_observation(bundle, i, occ, frame, config, rng)
        if det is not None:
            out.append(det)
    for _ in range(rng.poisson(config.fp_rate)):
        h = rng.uniform(40.0, 160.0)
        w = h * rng.uniform(0.35, 0.55)
        l = rng.uniform(0.0, max(1.0, config.image_width - w))
        t = rng.uniform(0.0, max(1.0, config.image_height - h))
        box = synthgen._clip_box(l, t, w, h, config)
        if box is None:
            continue
        emb = rng.standard_normal(config.latent_dim)
        emb /= np.linalg.norm(emb)
        attr = rng.uniform(0.0, 1.0, N_ATTRIBUTES)
        conf = float(rng.uniform(0.1, 0.6))
        out.append((frame, box, conf, emb, attr))
    return out


def _crops_loop(bundles, n_samples, seed=0):
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFF,
                                                        synthgen._STREAM_CROPS]))
    label_of = {}
    for b_idx, bundle in enumerate(bundles):
        for i in range(len(bundle.latents)):
            label_of[(b_idx, i + 1)] = len(label_of)
    samples = []
    while len(samples) < n_samples:
        b_idx = int(rng.integers(len(bundles)))
        bundle = bundles[b_idx]
        cfg = bundle.config
        frame = int(rng.integers(1, cfg.n_frames + 1))
        i = int(rng.integers(cfg.n_identities))
        det = _emit_observation(bundle, i, float(bundle.occlusion[frame - 1, i]), frame, cfg,
                                rng)
        if det is None:
            continue
        samples.append(TrainSample(embedding=det[3], attr_obs=det[4],
                                   identity=label_of[(b_idx, i + 1)],
                                   gt_attrs=bundle.attributes[i].copy()))
    return samples


def small_config(**kw):
    base = dict(n_identities=4, n_frames=30, latent_dim=16, seed=3)
    base.update(kw)
    return WorldConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        WorldConfig().validate()

    @pytest.mark.parametrize("kw", [
        dict(n_identities=0), dict(n_frames=0), dict(miss_base=1.5),
        dict(embed_occ_gain=-1), dict(latent_spread=0.0),
        dict(w_linear=0, w_crossing=0, w_loiter=0),
        dict(embed_noise_sigma=math.inf), dict(latent_spread=math.nan),
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            WorldConfig(**kw).validate()

    def test_bad_prior_rejected(self):
        with pytest.raises(ValueError):
            WorldConfig(prior=AttributePrior(body=(0.5, 0.5, 0.5))).validate()


# A zero shared direction with spread 1 leaves each latent its own unit
# draw, and takes the identity's randomness as any base does.
def _identity(rng, prior, latent_dim):
    return sample_identity(rng, prior, np.zeros(latent_dim), 1.0)


class TestSampleIdentity:
    def test_degenerate_prior_forces_body(self):
        prior = AttributePrior(body=(1.0, 0.0, 0.0))
        rng = np.random.default_rng(0)
        for _ in range(50):
            bits, _ = _identity(rng, prior, latent_dim=8)
            assert bits[1] == 1 and bits[2] == 0 and bits[3] == 0

    def test_monte_carlo_matches_prior(self):
        # empirical one-hot group frequencies within +-0.02 of the prior
        prior = AttributePrior()
        rng = np.random.default_rng(7)
        n = 10000
        counts = np.zeros(32)
        for _ in range(n):
            counts += _identity(rng, prior, latent_dim=4)[0]
        freq = counts / n
        np.testing.assert_allclose(freq[1:4], prior.body, atol=0.02)
        np.testing.assert_allclose(freq[4:7], prior.hair, atol=0.02)
        assert abs(freq[0] - prior.p_male) < 0.02
        np.testing.assert_allclose(freq[7:14], prior.p_binary, atol=0.02)

    def test_same_seed_identical_card(self):
        prior = AttributePrior()
        a = _identity(np.random.default_rng(11), prior, latent_dim=32)
        b = _identity(np.random.default_rng(11), prior, latent_dim=32)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_latent_unit_norm(self):
        base = np.ones(64) / 8.0
        for spread in (0.06, 1.0):
            _, latent = sample_identity(np.random.default_rng(0), AttributePrior(), base, spread)
            assert np.linalg.norm(latent) == pytest.approx(1.0, abs=1e-12)


class TestSimulateSequence:
    def test_single_linear_identity(self):
        cfg = small_config(n_identities=1, w_linear=1.0, w_crossing=0.0, w_loiter=0.0)
        bundle = simulate_sequence(cfg)
        gt = rows_of(bundle.gt_entries())
        assert len(gt) == cfg.n_frames
        cxs = [g.box.cx for g in gt]
        cys = [g.box.cy for g in gt]
        # linear interpolation start->end is monotone per coordinate
        for series in (cxs, cys):
            diffs = np.diff(series)
            assert np.all(diffs >= -1e-9) or np.all(diffs <= 1e-9)

    def test_crossing_pair_occludes(self):
        cfg = small_config(n_identities=2, w_linear=0.0, w_crossing=1.0, w_loiter=0.0,
                           n_frames=60)
        bundle = simulate_sequence(cfg)
        # rear pedestrian (higher index) exceeds 0.5 occlusion at the meeting
        assert bundle.occlusion[:, 1].max() > 0.5
        # the front one is never occluded by construction
        assert bundle.occlusion[:, 0].max() == 0.0

    def test_determinism(self):
        cfg = small_config()
        a = simulate_sequence(cfg)
        b = simulate_sequence(cfg)
        for name in ("attributes", "latents", "trajectories", "occlusion"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for f in range(1, cfg.n_frames + 1):
            da = observe_frame(a, f)
            db = observe_frame(b, f)
            assert len(da) == len(db)
            assert np.array_equal(da.boxes, db.boxes)
            assert np.array_equal(da.confidences, db.confidences)
            assert np.array_equal(da.embeddings, db.embeddings)
            assert np.array_equal(da.attrs, db.attrs)

    def test_boxes_inside_image(self):
        cfg = small_config(n_identities=6, n_frames=40)
        bundle = simulate_sequence(cfg)
        for g in rows_of(bundle.gt_entries()):
            assert g.box.left >= 0 and g.box.top >= 0
            assert g.box.right <= cfg.image_width and g.box.bottom <= cfg.image_height

    def test_visibility_complements_occlusion(self):
        cfg = small_config(n_identities=2, w_crossing=1.0, w_linear=0.0, w_loiter=0.0)
        bundle = simulate_sequence(cfg)
        for g in rows_of(bundle.gt_entries()):
            i = g.identity - 1
            assert g.visibility == pytest.approx(1.0 - bundle.occlusion[g.frame - 1, i])

    def test_gt_table_equals_per_row_loop(self):
        # the one-pass table holds exactly the rows of the loop over frames
        # and identities that it replaced
        cfg = small_config(n_identities=5, n_frames=30)
        bundle = simulate_sequence(cfg)
        gt = bundle.gt_entries()
        assert isinstance(gt, MotTable)
        assert rows_of(gt) == [
            Row(f, i + 1, BBox(*bundle.trajectories[f - 1, i]),
                1.0 - float(bundle.occlusion[f - 1, i]))
            for f in range(1, cfg.n_frames + 1) for i in range(cfg.n_identities)]


def _occlusion_loop(boxes):
    """The per-frame, per-pair loop that ``_occlusion_matrix`` replaces."""
    n_frames, n_ids = boxes.shape[:2]
    occ = np.zeros((n_frames, n_ids))
    for f in range(n_frames):
        row = [BBox(*boxes[f, i]) for i in range(n_ids)]
        for i in range(n_ids):
            worst = 0.0
            for j in range(i):
                worst = max(worst, occlusion_fraction(row[i], row[j]))
            occ[f, i] = worst
    return occ


# Corners on a small integer grid make shared and touching edges, nested and
# disjoint boxes common; the float draws add unrounded overlaps.
_coord = st.one_of(st.integers(0, 8).map(float), st.floats(0.0, 8.0))
_size = st.one_of(st.integers(1, 8).map(float), st.floats(0.01, 8.0))


@st.composite
def _occlusion_world(draw):
    n_frames, n_ids = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    return np.array([[draw(st.tuples(_coord, _coord, _size, _size)) for _ in range(n_ids)]
                     for _ in range(n_frames)]).reshape(n_frames, n_ids, 4)


# front box, a box touching its right edge, one inside it, one disjoint
# and one containing the front box
_HAND_BOXES = np.array([[[0, 0, 10, 10], [10, 0, 5, 5], [2, 2, 3, 3], [50, 50, 5, 5],
                         [-1, -1, 20, 20]]], dtype=float)


class TestOcclusionMatrix:
    def test_hand_cases(self):
        occ = _occlusion_matrix(_HAND_BOXES)
        assert occ.tolist() == [[0.0, 0.0, 1.0, 0.0, 100 / 400]]

    @given(_occlusion_world())
    @example(_HAND_BOXES)
    def test_equals_pairwise_loop(self, boxes):
        got = _occlusion_matrix(boxes)
        assert got.tobytes() == _occlusion_loop(boxes).tobytes()

    @pytest.mark.parametrize("bad", [[np.nan, 0, 1, 1], [0, np.inf, 1, 1], [0, 0, 0, 1],
                                     [0, 0, 1, -2]])
    def test_invalid_present_box_raises(self, bad):
        boxes = np.array([[[0, 0, 4, 4], bad]], dtype=float)
        with pytest.raises(ValueError, match="frame 1: box 1"):
            _occlusion_matrix(boxes)


class TestObserveFrame:
    def test_noiseless_limit(self):
        cfg = small_config(n_identities=1, miss_base=0.0, miss_occ_gain=0.0,
                           jitter_sigma=0.0, fp_rate=0.0,
                           embed_noise_sigma=0.0, attr_flip_base=0.0,
                           attr_flip_occ_gain=0.0, w_linear=1.0, w_crossing=0.0,
                           w_loiter=0.0)
        bundle = simulate_sequence(cfg)
        for f in (1, 10, 30):
            dets = observe_frame(bundle, f)
            assert len(dets) == 1 and dets.frame == f
            assert dets.boxes[0].tolist() == bundle.trajectories[f - 1, 0].tolist()
            assert np.array_equal(dets.embeddings[0], bundle.latents[0])
            assert np.array_equal(dets.attrs[0], bundle.attributes[0])

    def test_zero_flip_probability_preserves_attributes(self):
        cfg = small_config(attr_flip_base=0.0, attr_flip_occ_gain=0.0)
        rng = np.random.default_rng(0)
        bits = np.zeros(32)
        bits[0] = bits[1] = bits[4] = bits[14] = bits[23] = 1
        for occ in (0.0, 0.5, 1.0):
            assert np.array_equal(flip_attributes(bits, occ, cfg, rng), bits)

    def test_embedding_perturbation_norm_moment(self):
        # occ=1, gain 10, sigma 0.1: sigma_eff = sigma*(1+gain*occ) = 1.1, so
        # the pre-normalization noise norm concentrates at sqrt(d)*sigma_eff
        d = 64
        cfg = small_config(latent_dim=d, embed_noise_sigma=0.1, embed_occ_gain=10.0)
        rng = np.random.default_rng(123)
        latent = rng.standard_normal(d)
        latent /= np.linalg.norm(latent)
        norms = [perturb_embedding(latent, 1.0, cfg, rng)[1] for _ in range(1000)]
        expected = np.sqrt(d) * 0.1 * (1.0 + 10.0 * 1.0)
        assert abs(np.mean(norms) - expected) / expected < 0.10

    def test_out_of_range_frame(self):
        bundle = simulate_sequence(small_config())
        with pytest.raises(ValueError):
            observe_frame(bundle, 0)
        with pytest.raises(ValueError):
            observe_frame(bundle, 31)

    def test_observed_boxes_inside_image(self):
        cfg = small_config(jitter_sigma=25.0, fp_rate=1.0, n_frames=20)
        bundle = simulate_sequence(cfg)
        for f in range(1, 21):
            for box in observe_frame(bundle, f).boxes.tolist():
                box = BBox(*box)
                assert box.left >= 0 and box.top >= 0
                assert box.right <= cfg.image_width + 1e-9
                assert box.bottom <= cfg.image_height + 1e-9

    def test_attribute_robustness_gap(self):
        # Under heavy occlusion the attribute observation stays far closer
        # to ground truth than the embedding does to its latent.
        cfg = WorldConfig(n_identities=6, n_frames=60, latent_dim=64, seed=9,
                          w_crossing=1.0, w_linear=0.0, w_loiter=0.0)
        bundle = simulate_sequence(cfg)
        rng = np.random.default_rng(77)
        attr_ds, emb_ds = [], []
        for f in range(cfg.n_frames):
            for i, (latent, bits) in enumerate(zip(bundle.latents, bundle.attributes)):
                occ = float(bundle.occlusion[f, i])
                if occ < 0.5:
                    continue
                emb, _ = perturb_embedding(latent, occ, cfg, rng)
                obs = flip_attributes(bits, occ, cfg, rng)
                attr_ds.append(attribute_distance(obs, bits))
                emb_ds.append(cosine_distance(emb, latent) / 2.0)
        assert len(attr_ds) > 20
        assert np.mean(attr_ds) < np.mean(emb_ds)


class TestBenchmarkAndCrops:
    def test_generate_benchmark_distinct_seeds(self):
        bundles = generate_benchmark(small_config(), 3)
        assert [b.name for b in bundles] == ["seq-0000", "seq-0001", "seq-0002"]
        seeds = {b.config.seed for b in bundles}
        assert len(seeds) == 3

    def test_metadata_lines(self):
        bundle = simulate_sequence(small_config(n_frames=5))
        lines = occlusion_metadata_lines(bundle)
        assert len(lines) == 5
        import json
        row = json.loads(lines[0])
        assert row["frame"] == 1 and "occlusion" in row

    def test_crop_sampling(self):
        bundles = generate_benchmark(small_config(n_identities=3), 2)
        crops = sample_training_crops(bundles, 200, seed=5)
        assert crops.embedding.shape == (200, 16) and crops.attr_obs.shape == (200, 32)
        assert crops.identity.shape == (200,) and crops.identity.dtype == np.int64
        assert crops.gt_attrs.shape == (200, 32)
        assert set(crops.identity.tolist()) <= set(range(6))
        # a crop's label is its identity's row in the bundles' concatenated arrays
        attributes = np.concatenate([b.attributes for b in bundles])
        assert np.array_equal(crops.gt_attrs, attributes[crops.identity])
        again = sample_training_crops(bundles, 200, seed=5)
        for name in ("embedding", "attr_obs", "identity", "gt_attrs"):
            assert np.array_equal(getattr(crops, name), getattr(again, name))

    def test_crop_sampling_empty(self):
        with pytest.raises(ValueError):
            sample_training_crops([], 10)


# Worlds small enough to draw many of: a 160x140 image puts 60-px bodies
# near its edges, and a large jitter clips boxes there or drops them.
@st.composite
def _observation_world(draw):
    return WorldConfig(
        n_identities=draw(st.integers(1, 6)), n_frames=draw(st.integers(1, 4)),
        image_width=draw(st.sampled_from([160, 1280])),
        image_height=draw(st.sampled_from([140, 720])),
        w_linear=draw(st.sampled_from([0.0, 1.0])), w_crossing=1.0,
        miss_base=draw(st.sampled_from([0.0, 0.3, 1.0])),
        miss_occ_gain=draw(st.sampled_from([0.0, 0.5])),
        jitter_sigma=draw(st.sampled_from([0.0, 1.0, 40.0])),
        fp_rate=draw(st.sampled_from([0.0, 0.5, 3.0])),
        latent_dim=draw(st.sampled_from([2, 3, 8, 64, 512])),
        embed_noise_sigma=draw(st.sampled_from([0.0, 0.012, 0.5])),
        embed_occ_gain=draw(st.sampled_from([0.0, 25.0])),
        attr_flip_base=draw(st.sampled_from([0.0, 0.02, 0.5])),
        attr_flip_occ_gain=draw(st.sampled_from([0.0, 0.1])),
        seed=draw(st.integers(0, 2 ** 32)))


# every identity drawn (no misses) in a small image with a large jitter
_EDGE_WORLD = WorldConfig(n_identities=6, n_frames=4, image_width=160, image_height=140,
                          miss_base=0.0, miss_occ_gain=0.0, jitter_sigma=40.0,
                          fp_rate=3.0, latent_dim=8, embed_noise_sigma=0.0, seed=5)


def _row_bytes(rows, column):
    return np.array([row[column] for row in rows], dtype=np.float64).tobytes()


class TestEmissionOracle:
    """The frame-at-a-time emission equals the per-identity loop bit for bit."""

    @given(_observation_world())
    @example(_EDGE_WORLD)
    def test_observe_frame_equals_card_loop(self, config):
        bundle = simulate_sequence(config)
        for f in range(1, config.n_frames + 1):
            got, want = observe_frame(bundle, f), _observe_frame_loop(bundle, f)
            assert len(got) == len(want)
            assert got.frame == f and all(w[0] == f for w in want)
            if not want:
                continue
            assert got.embeddings.tobytes() == _row_bytes(want, 3)
            assert got.attrs.tobytes() == _row_bytes(want, 4)
            assert got.confidences.tobytes() == _row_bytes(want, 2)
            assert got.boxes.tobytes() == _row_bytes(want, 1)

    @given(_observation_world(), st.integers(0, 40), st.integers(1, 2), st.integers(0, 99))
    @example(_EDGE_WORLD, 40, 2, 0)
    def test_crops_equal_card_loop(self, config, n, n_bundles, seed):
        bundles = generate_benchmark(config, n_bundles)
        got, want = sample_training_crops(bundles, n, seed), _crops_loop(bundles, n, seed)
        assert got.identity.dtype == np.int64
        assert got.identity.tolist() == [c.identity for c in want]
        assert got.embedding.shape == (n, config.latent_dim)
        for name in ("embedding", "attr_obs", "gt_attrs"):
            column = getattr(got, name)
            assert column.shape[0] == n
            if want:
                assert column.tobytes() == np.array([getattr(c, name) for c in want]).tobytes()

    def test_edge_world_clips_and_drops_boxes(self):
        # the oracle's explicit example covers both outcomes at the image edge
        bundle = simulate_sequence(_EDGE_WORLD)
        clipped = dropped = 0
        for f in range(1, _EDGE_WORLD.n_frames + 1):
            rng = synthgen._rng(_EDGE_WORLD, synthgen._STREAM_OBSERVE, f)
            for i in range(_EDGE_WORLD.n_identities):
                rng.random()   # the miss draw, never a miss here
                det = _emit_observation(bundle, i, float(bundle.occlusion[f - 1, i]), f,
                                        _EDGE_WORLD, rng)
                if det is None:
                    dropped += 1
                    continue
                box = BBox(*det[1])
                if (min(box.left, box.top) == 0.0 or box.right > 160.0 - 1e-9
                        or box.bottom > 140.0 - 1e-9):
                    clipped += 1
        assert clipped > 0 and dropped > 0

    def test_mixed_latent_dimensions_rejected(self):
        bundles = [simulate_sequence(small_config(latent_dim=d)) for d in (8, 16)]
        with pytest.raises(ValueError, match=r"mix latent dimensions \[8, 16\]"):
            sample_training_crops(bundles, 4)

    def test_non_finite_embedding_rejected_with_frame(self):
        # infinite embedding noise makes NaN rows, rejected by the one array
        # check of the frame (or of the crops); a config holding it is refused,
        # so it is swapped in after the world is simulated
        cfg = small_config(embed_occ_gain=0.0, miss_base=0.0, miss_occ_gain=0.0)
        bundle = replace(simulate_sequence(cfg), config=replace(cfg, embed_noise_sigma=math.inf))
        with np.errstate(all="ignore"), pytest.raises(
                FeatureError, match=r"^frame 1, detection 0: embedding contains non-finite"):
            observe_frame(bundle, 1)
        with np.errstate(all="ignore"), pytest.raises(
                FeatureError, match=r"^crop 0: embedding contains non-finite"):
            sample_training_crops([bundle], 3)
