"""Synthetic pedestrian sequences with attributes, occlusion and noisy
observations.

Scripted 2-D trajectories (linear walks, crossing pairs, loiterers) stand in
for a rendered world.  Depth comes from a fixed draw order (lower identity
index is in front), which makes per-frame occlusion fractions computable
from box geometry alone.  The observation model encodes the premise that
appearance embeddings degrade sharply under occlusion while attribute
observations degrade far less: embedding noise scales with
``sigma * (1 + embed_occ_gain * occ)`` and attribute bits flip with
``min(0.5, flip_base + attr_flip_occ_gain * occ)``.

All randomness is derived from the config seed through named SeedSequence
streams, so identical configs reproduce byte-identical worlds regardless of
call order.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import (
    BODY_SLICE,
    HAIR_SLICE,
    IDX_GENDER_MALE,
    IDX_LONG_SLEEVE,
    LOWER_COLOR_SLICE,
    N_ATTRIBUTES,
    UPPER_COLOR_SLICE,
    Detections,
    MotTable,
    TrainSample,
    check_feature_rows,
    pairwise_intersection,
    unit_rows,
)

# SeedSequence stream tags
_STREAM_IDENTITIES = 0
_STREAM_PATHS = 1
_STREAM_OBSERVE = 2
_STREAM_SEQUENCE = 4
_STREAM_CROPS = 5

_MIN_BOX = 2.0  # boxes thinner than this after clipping are dropped
_LATENT_BLOCK = 256


def _check_finite(config, prefix: str = "") -> None:
    """Refuse a non-finite float field, or tuple entry, naming its key."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("float", "tuple") and not np.isfinite(value).all():
            raise ValueError(f"{prefix}{f.name} must be finite, not {value!r}")


@dataclass(frozen=True)
class AttributePrior:
    """Sampling distribution over the 32 attribute slots.

    Defaults are round numbers shaped like the dataset they imitate:
    short hair is the most common hair length, black the modal clothing
    color, and accessories are minority attributes.
    """

    p_male: float = 0.55
    body: tuple = (0.3, 0.5, 0.2)               # thin / medium / fat
    hair: tuple = (0.1, 0.6, 0.3)               # bald / short / long
    # long sleeve, upper long, skirt, lower long, backpack, hat, boots
    p_binary: tuple = (0.4, 0.3, 0.2, 0.5, 0.3, 0.2, 0.15)
    colors: tuple = (0.30, 0.15, 0.12, 0.09, 0.08, 0.08, 0.07, 0.06, 0.05)
    p_extra_color: float = 0.15                 # chance of a second clothing color

    def validate(self) -> None:
        _check_finite(self, "prior.")
        for name, probs, want in (("body", self.body, 3), ("hair", self.hair, 3),
                                  ("colors", self.colors, 9)):
            if len(probs) != want:
                raise ValueError(f"prior {name} must have {want} entries")
            if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
                raise ValueError(f"prior {name} must be a probability vector")
        if len(self.p_binary) != 7:
            raise ValueError("prior p_binary must have 7 entries")
        for p in (self.p_male, self.p_extra_color, *self.p_binary):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"prior probability {p} outside [0, 1]")


@dataclass(frozen=True)
class WorldConfig:
    """Everything that determines one synthetic sequence."""

    n_identities: int = 15
    n_frames: int = 100
    image_width: int = 1280
    image_height: int = 720
    # trajectory kind weights
    w_linear: float = 0.3
    w_crossing: float = 0.5
    w_loiter: float = 0.2
    # detection noise
    miss_base: float = 0.05
    miss_occ_gain: float = 0.15
    jitter_sigma: float = 1.0
    fp_rate: float = 0.1
    # embedding model: identity latents sit on a shared direction plus a
    # per-identity offset of relative size latent_spread, so appearance is
    # only moderately discriminative; occlusion scales the per-frame,
    # per-component noise (noise norm grows with sqrt(latent_dim)).
    latent_dim: int = 512
    latent_spread: float = 0.06
    embed_noise_sigma: float = 0.012
    embed_occ_gain: float = 25.0
    # attribute observation model
    attr_flip_base: float = 0.02
    attr_flip_occ_gain: float = 0.1
    prior: AttributePrior = field(default_factory=AttributePrior)
    seed: int = 0

    def validate(self) -> None:
        _check_finite(self)
        if self.n_identities < 1 or self.n_frames < 1:
            raise ValueError("n_identities and n_frames must be >= 1")
        if self.image_width < 64 or self.image_height < 64:
            raise ValueError("image must be at least 64x64")
        if self.latent_dim < 2:
            raise ValueError("latent_dim must be >= 2")
        if self.latent_spread <= 0:
            raise ValueError("latent_spread must be positive")
        weights = (self.w_linear, self.w_crossing, self.w_loiter)
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("trajectory weights must be non-negative, not all zero")
        for name in ("miss_base", "attr_flip_base"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        for name in ("miss_occ_gain", "jitter_sigma", "fp_rate",
                     "embed_noise_sigma", "embed_occ_gain", "attr_flip_occ_gain"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        self.prior.validate()


@dataclass(frozen=True, eq=False)
class SequenceBundle:
    """A generated sequence: its identities as arrays, with identity
    ``i + 1`` in row ``i``, and their per-frame occlusion.

    ``attributes`` is ``(n, 32)`` binary, ``latents`` ``(n, D)`` unit-norm
    appearance latents, ``trajectories`` ``(n_frames, n, 4)`` ltwh boxes
    (row ``f - 1`` is frame ``f``) and ``occlusion`` ``(n_frames, n)``.
    """

    name: str
    config: WorldConfig
    attributes: np.ndarray
    latents: np.ndarray
    trajectories: np.ndarray
    occlusion: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.config.n_frames

    def gt_entries(self) -> MotTable:
        """The scripted ground truth: every identity in every frame, with
        visibility 1 - its occlusion fraction."""
        n_frames, n_ids = self.occlusion.shape
        return MotTable(np.repeat(np.arange(1, n_frames + 1), n_ids),
                        np.tile(np.arange(1, n_ids + 1), n_frames),
                        self.trajectories.reshape(-1, 4),
                        visibility=1.0 - self.occlusion.reshape(-1))


def _rng(config: WorldConfig, *stream) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([config.seed & 0xFFFFFFFFFFFFFFF, *stream]))


def sample_attribute_bits(rng: np.random.Generator, prior: AttributePrior) -> np.ndarray:
    bits = np.zeros(N_ATTRIBUTES)
    bits[IDX_GENDER_MALE] = 1.0 if rng.random() < prior.p_male else 0.0
    bits[BODY_SLICE][rng.choice(3, p=prior.body)] = 1.0
    bits[HAIR_SLICE][rng.choice(3, p=prior.hair)] = 1.0
    for k, p in enumerate(prior.p_binary):
        bits[IDX_LONG_SLEEVE + k] = 1.0 if rng.random() < p else 0.0
    for sl in (UPPER_COLOR_SLICE, LOWER_COLOR_SLICE):
        primary = rng.choice(9, p=prior.colors)
        bits[sl][primary] = 1.0
        if rng.random() < prior.p_extra_color:
            extra = rng.choice(9, p=prior.colors)
            bits[sl][extra] = 1.0  # may coincide with the primary color
    return bits


def sample_identity(rng: np.random.Generator, prior: AttributePrior,
                    base_latent: np.ndarray, spread: float) -> tuple[np.ndarray, np.ndarray]:
    """One identity's attribute bits and unit-norm appearance latent.

    The latent is the unit-normalized mix ``base_latent + spread * own`` of
    a shared direction and the identity's own unit-normal draw, giving
    controllably similar appearances.
    """
    bits = sample_attribute_bits(rng, prior)
    latent = rng.standard_normal(len(base_latent))
    latent /= np.linalg.norm(latent)
    latent = base_latent + spread * latent
    latent /= np.linalg.norm(latent)
    return bits, latent


def _body_size(rng: np.random.Generator, config: WorldConfig) -> tuple[float, float]:
    h = rng.uniform(60.0, min(140.0, config.image_height * 0.45))
    w = h * rng.uniform(0.35, 0.5)
    return w, h


def _linear_path(rng, config, w, h) -> np.ndarray:
    n = config.n_frames
    x_max = config.image_width - w
    y_max = config.image_height - h
    start = np.array([rng.uniform(0, x_max), rng.uniform(0, y_max)])
    end = np.array([rng.uniform(0, x_max), rng.uniform(0, y_max)])
    t = np.linspace(0.0, 1.0, n)[:, None]
    pos = start[None, :] * (1 - t) + end[None, :] * t
    out = np.empty((n, 4))
    out[:, 0:2] = pos
    out[:, 2] = w
    out[:, 3] = h
    return out


def _loiter_path(rng, config, w, h) -> np.ndarray:
    n = config.n_frames
    x_max = config.image_width - w
    y_max = config.image_height - h
    margin = 30.0
    cx = rng.uniform(margin, max(margin + 1, x_max - margin))
    cy = rng.uniform(margin, max(margin + 1, y_max - margin))
    amp = rng.uniform(5.0, 25.0, size=2)
    freq = rng.uniform(0.02, 0.08, size=2)
    phase = rng.uniform(0, 2 * math.pi, size=2)
    t = np.arange(n)
    out = np.empty((n, 4))
    out[:, 0] = np.clip(cx + amp[0] * np.sin(freq[0] * t + phase[0]), 0, x_max)
    out[:, 1] = np.clip(cy + amp[1] * np.sin(freq[1] * t + phase[1]), 0, y_max)
    out[:, 2] = w
    out[:, 3] = h
    return out


def _crossing_pair_paths(rng, config) -> tuple[np.ndarray, np.ndarray]:
    """Two pedestrians walking through each other near mid-sequence.

    Paths share a vertical band so the rear one is heavily occluded at the
    crossing point.  A narrow traversal span keeps relative speed low, so
    the overlap window (and the embedding-corruption window with it) lasts
    several frames.
    """
    n = config.n_frames
    w1, h1 = _body_size(rng, config)
    w2, h2 = w1 * rng.uniform(0.9, 1.1), h1 * rng.uniform(0.9, 1.1)
    y = rng.uniform(0, config.image_height - max(h1, h2))
    x_lo = config.image_width * 0.33
    x_hi = config.image_width * 0.67 - max(w1, w2)
    t = np.linspace(0.0, 1.0, n)
    jit = rng.uniform(-0.05, 0.05)  # de-synchronize the meeting point a bit
    a = np.empty((n, 4))
    a[:, 0] = x_lo + (x_hi - x_lo) * np.clip(t + jit, 0, 1)
    a[:, 1] = y
    a[:, 2] = w1
    a[:, 3] = h1
    b = np.empty((n, 4))
    b[:, 0] = x_hi - (x_hi - x_lo) * t
    b[:, 1] = np.clip(y + rng.uniform(-8.0, 8.0), 0, config.image_height - h2)
    b[:, 2] = w2
    b[:, 3] = h2
    return a, b


def simulate_sequence(config: WorldConfig, name: str = "seq-0000") -> SequenceBundle:
    """Generate ground truth for one sequence (no observation noise)."""
    config.validate()
    identity_rng = _rng(config, _STREAM_IDENTITIES)
    path_rng = _rng(config, _STREAM_PATHS)
    n_ids = config.n_identities

    # Assign trajectory kinds; a crossing consumes the next identity as partner.
    weights = np.array([config.w_linear, config.w_crossing, config.w_loiter], dtype=float)
    weights /= weights.sum()
    paths: list[np.ndarray] = []
    i = 0
    while i < n_ids:
        kind = path_rng.choice(3, p=weights)
        if kind == 1 and i + 1 < n_ids:
            a, b = _crossing_pair_paths(path_rng, config)
            paths.extend([a, b])
            i += 2
            continue
        w, h = _body_size(path_rng, config)
        if kind == 2:
            paths.append(_loiter_path(path_rng, config, w, h))
        else:
            paths.append(_linear_path(path_rng, config, w, h))
        i += 1

    base = identity_rng.standard_normal(config.latent_dim)
    base /= np.linalg.norm(base)
    attributes = np.empty((n_ids, N_ATTRIBUTES))
    latents = np.empty((n_ids, config.latent_dim))
    for idx in range(n_ids):
        attributes[idx], latents[idx] = sample_identity(identity_rng, config.prior, base,
                                                        config.latent_spread)

    trajectories = np.stack(paths, axis=1)
    return SequenceBundle(name=name, config=config, attributes=attributes, latents=latents,
                          trajectories=trajectories, occlusion=_occlusion_matrix(trajectories))


def _occlusion_matrix(boxes: np.ndarray) -> np.ndarray:
    """(frames, ids) occlusion fractions of (frames, ids, 4) ltwh boxes.

    Draw order is identity order, lower index in front: entry (f, i) is the
    largest fraction of box i covered by a box j < i, capped at 1, and 0.0
    when there is none.  Each fraction is ``min(1, intersection / area)``
    of the two boxes, in that operation order.  A box that is not finite or
    has a non-positive size raises ``ValueError``.
    """
    bad = ~(np.isfinite(boxes).all(axis=2) & (boxes[..., 2] > 0) & (boxes[..., 3] > 0))
    if bad.any():
        f, i = np.argwhere(bad)[0]
        raise ValueError(f"frame {f + 1}: box {i} {boxes[f, i].tolist()} is not a finite "
                         "box of positive size")
    inter = pairwise_intersection(boxes, boxes)
    frac = np.minimum(1.0, inter / (boxes[..., 2] * boxes[..., 3])[:, :, None])
    in_front = np.tri(boxes.shape[1], k=-1, dtype=bool)
    return np.where(in_front, frac, 0.0).max(axis=2, initial=0.0)


def _clip_box(l, t, w, h, config) -> tuple[float, float, float, float] | None:
    """The (left, top, width, height) box clipped to the image, or None
    when less than ``_MIN_BOX`` of a side is left."""
    if l >= 0.0 and t >= 0.0 and l + w <= config.image_width and t + h <= config.image_height:
        return l, t, w, h
    right = min(l + w, float(config.image_width))
    bottom = min(t + h, float(config.image_height))
    l = max(l, 0.0)
    t = max(t, 0.0)
    if right - l < _MIN_BOX or bottom - t < _MIN_BOX:
        return None
    return l, t, right - l, bottom - t


class _Emissions:
    """Noisy detections of a batch of identities, drawn one identity at a
    time in stream order and finished as arrays.

    ``latents`` ``(n, D)`` and ``attributes`` ``(n, 32)`` hold the
    identities, one per row.  The buffers hold ``capacity`` rows;
    ``reserve`` adds more.  ``draw`` takes one identity's randomness in the
    order of the observation model: the box jitter, the embedding normals
    (none when its noise sigma is zero), the attribute uniforms and the
    confidence normal; a box clipped away takes no draw after the jitter.
    ``false_positive`` takes a clutter detection's embedding normals and
    attribute uniforms.  The normals and uniforms go straight into row
    buffers, and ``finish`` applies the model to all rows at once with the
    one-identity formulas' operations in their order, so each value equals
    the one-identity result bit for bit.
    """

    def __init__(self, capacity: int, latents: np.ndarray, attributes: np.ndarray):
        self.latents = latents
        self.attributes = attributes
        self.normals = np.zeros((capacity, latents.shape[1]))  # zero-noise rows stay 0
        self.uniforms = np.empty((capacity, N_ATTRIBUTES))
        self.conf = np.empty(capacity)             # normals of identities, values of clutter
        self.boxes: list[tuple] = []               # (left, top, width, height)
        self.rows: list[int] = []                  # identity rows come first
        self.occ: list[float] = []
        self.sigma: list[float] = []
        self.p_flip: list[float] = []

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` more rows."""
        short = len(self.boxes) + rows - len(self.conf)
        if short > 0:
            self.normals = np.concatenate([self.normals, np.zeros((short, self.normals.shape[1]))])
            self.uniforms = np.concatenate([self.uniforms, np.empty((short, N_ATTRIBUTES))])
            self.conf = np.concatenate([self.conf, np.empty(short)])

    def draw(self, rng: np.random.Generator, row: int, ltwh: np.ndarray, occ: float,
             config: WorldConfig) -> None:
        """Draw one observation of the identity in ``row`` whose true box is
        ``ltwh``; nothing is kept when the box is clipped away."""
        l, t, w, h = ltwh.tolist()
        if config.jitter_sigma > 0:
            jl, jt, jw, jh = rng.normal(0.0, config.jitter_sigma, 4).tolist()
            l, t, w, h = l + jl, t + jt, w + jw, h + jh
        box = _clip_box(l, t, max(w, _MIN_BOX), max(h, _MIN_BOX), config)
        if box is None:
            return
        k = len(self.boxes)
        # per-component embedding noise sigma * (1 + embed_occ_gain * occ)
        sigma = config.embed_noise_sigma * (1.0 + config.embed_occ_gain * occ)
        if sigma != 0.0:
            rng.standard_normal(out=self.normals[k])
        rng.random(out=self.uniforms[k])
        self.conf[k] = rng.standard_normal()
        self.boxes.append(box)
        self.rows.append(row)
        self.occ.append(occ)
        self.sigma.append(sigma)
        # independent bit flips with min(0.5, base + gain * occ)
        self.p_flip.append(min(0.5, config.attr_flip_base + config.attr_flip_occ_gain * occ))

    def false_positive(self, rng: np.random.Generator, box: tuple) -> None:
        """Draw a clutter detection: unit-normal embedding, uniform attributes."""
        k = len(self.boxes)
        rng.standard_normal(out=self.normals[k])
        rng.random(out=self.uniforms[k])
        self.conf[k] = rng.uniform(0.1, 0.6)
        self.boxes.append(box)

    def finish(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(n, D)`` unit embeddings, ``(n, 32)`` attributes and ``(n,)``
        confidences of the drawn rows."""
        n, k = len(self.boxes), len(self.rows)
        rows = np.array(self.rows, dtype=np.intp)
        raw = self.normals[:n]
        sigma = np.array(self.sigma)
        # latents are gathered a block of rows at a time to bound their memory
        for lo in range(0, k, _LATENT_BLOCK):
            hi = min(lo + _LATENT_BLOCK, k)
            raw[lo:hi] *= sigma[lo:hi, None]
            raw[lo:hi] += self.latents[rows[lo:hi]]
        # A new array, so the row buffers die with the emission: the
        # detections keep no unused rows alive, and freeing the crops' large
        # buffer raises glibc's heap-trim threshold, without which each
        # fusion.attribute_accuracy chunk page-faults its temporaries in again.
        emb = unit_rows(raw)
        zero = np.flatnonzero(sigma == 0.0)
        emb[zero] = self.latents[rows[zero]]    # no noise keeps the latent as is
        attrs = self.uniforms[:n]
        flips = attrs[:k] < np.array(self.p_flip)[:, None]
        attrs[:k] = np.abs(self.attributes[rows] - flips.astype(np.float64))
        conf = self.conf[:n]
        conf[:k] = np.clip(1.0 - 0.5 * np.array(self.occ) + 0.05 * conf[:k], 0.05, 1.0)
        return emb, attrs, conf


def observe_frame(bundle: SequenceBundle, frame: int) -> Detections:
    """Noisy detections for one 1-based frame, deterministic per (seed, frame)."""
    config = bundle.config
    if not 1 <= frame <= config.n_frames:
        raise ValueError(f"frame {frame} out of range 1..{config.n_frames}")
    rng = _rng(config, _STREAM_OBSERVE, frame)
    occ = bundle.occlusion[frame - 1]
    miss = np.minimum(1.0, config.miss_base + config.miss_occ_gain * occ)
    boxes = bundle.trajectories[frame - 1]
    em = _Emissions(len(boxes), bundle.latents, bundle.attributes)
    for i, (occ_i, miss_p) in enumerate(zip(occ.tolist(), miss.tolist())):
        if rng.random() >= miss_p:
            em.draw(rng, i, boxes[i], occ_i, config)
    n_fp = rng.poisson(config.fp_rate)
    em.reserve(n_fp)
    for _ in range(n_fp):
        h = rng.uniform(40.0, 160.0)
        w = h * rng.uniform(0.35, 0.55)
        l = rng.uniform(0.0, max(1.0, config.image_width - w))
        t = rng.uniform(0.0, max(1.0, config.image_height - h))
        box = _clip_box(l, t, w, h, config)
        if box is not None:
            em.false_positive(rng, box)
    emb, attrs, conf = em.finish()
    return Detections(frame, np.array(em.boxes).reshape(-1, 4), conf, emb, attrs)


def observe_all_frames(bundle: SequenceBundle) -> dict[int, Detections]:
    return {f: observe_frame(bundle, f) for f in range(1, bundle.config.n_frames + 1)}


def sequence_name(index: int) -> str:
    """Name of the 0-based ``index``-th sequence of a benchmark."""
    return f"seq-{index:04d}"


def iter_benchmark(config: WorldConfig, n_sequences: int) -> Iterator[SequenceBundle]:
    """The sequences of a benchmark, each with its own derived seed,
    simulated one at a time as the iterator is read.  The arguments are
    checked on the call, before any sequence is simulated."""
    if n_sequences < 1:
        raise ValueError("n_sequences must be >= 1")
    config.validate()
    root = config.seed & 0xFFFFFFFFFFFFFFF
    seeds = (int(np.random.SeedSequence([root, _STREAM_SEQUENCE, s]).generate_state(1)[0])
             for s in range(n_sequences))
    return (simulate_sequence(replace(config, seed=seed), name=sequence_name(s))
            for s, seed in enumerate(seeds))


def generate_benchmark(config: WorldConfig, n_sequences: int) -> list[SequenceBundle]:
    """Generate a list of sequences with per-sequence derived seeds."""
    return list(iter_benchmark(config, n_sequences))


def occlusion_metadata_lines(bundle: SequenceBundle) -> list[str]:
    """JSON-lines rows of per-frame occlusion fractions."""
    return [json.dumps({"frame": f, "occlusion": {str(i + 1): round(occ, 6)
                                                  for i, occ in enumerate(row)}},
                       sort_keys=True)
            for f, row in enumerate(bundle.occlusion.tolist(), start=1)]


def sample_training_crops(bundles: list[SequenceBundle], n_samples: int,
                          seed: int = 0) -> TrainSample:
    """Draw labeled crops from sequences as one ``TrainSample`` of stacked
    columns: ``embedding`` ``(n, D)``, ``attr_obs`` ``(n, 32)``,
    ``identity`` ``(n,)`` and ``gt_attrs`` ``(n, 32)``.

    A crop's identity label is its identity's row in the bundles'
    concatenated identity arrays, so labels are contiguous integers global
    across bundles.
    """
    if not bundles:
        raise ValueError("no bundles to sample from")
    dims = sorted({b.config.latent_dim for b in bundles})
    if len(dims) > 1:
        raise ValueError(f"bundles mix latent dimensions {dims}")
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFF, _STREAM_CROPS]))
    first_row = np.cumsum([0] + [len(b.latents) for b in bundles]).tolist()
    attributes = np.concatenate([b.attributes for b in bundles])
    em = _Emissions(max(n_samples, 0), np.concatenate([b.latents for b in bundles]), attributes)
    while len(em.rows) < n_samples:
        b_idx = int(rng.integers(len(bundles)))
        bundle = bundles[b_idx]
        cfg = bundle.config
        frame = int(rng.integers(1, cfg.n_frames + 1))
        i = int(rng.integers(cfg.n_identities))
        em.draw(rng, first_row[b_idx] + i, bundle.trajectories[frame - 1, i],
                float(bundle.occlusion[frame - 1, i]), cfg)
    emb, attrs, _ = em.finish()
    check_feature_rows(emb, attrs, lambda row: f"crop {row}")
    labels = np.array(em.rows, dtype=np.int64)
    return TrainSample(embedding=emb, attr_obs=attrs, identity=labels,
                       gt_attrs=attributes[labels])
