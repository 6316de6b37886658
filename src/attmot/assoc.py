"""Tracking engine: constant-velocity Kalman filtering, cost matrices in
several modes, optimal assignment and track lifecycle.

State and gating follow the DeepSORT lineage: the Kalman state is
(cx, cy, aspect, height) plus velocities, measurement noise scales with the
box height, and track-detection pairs are gated at the 0.95 chi-square
quantile for 4 degrees of freedom.

A ``Tracker`` keeps all live tracks in one struct-of-arrays ``TrackTable``:
means ``(T, 8)``, covariances ``(T, 3, 4)``, a gallery ring ``(T, B, D)`` of
unit embeddings, attribute estimates ``(T, 32)``, and hit, age and identity
columns.  ``hits >= n_init`` confirms a track; a birth fills every ring slot
with its embedding, and the match that brings ``hits`` to ``h`` writes slot
``(h - 1) mod B``.  The
gallery is filled only in the modes whose cost reads embeddings, and the
attribute estimates only in those that read attributes.  A frame arrives
as one checked ``core.Detections`` table; ``stack_frame`` derives the views
its cost mode reads once, as a ``FrameBatch`` for the gate, the costs, the
update and the births.  All tracks are predicted, gated and updated in one
batched pass, the gate and the update sharing one set of reciprocal
innovation standard deviations.  The gate picks the pairs that may
match, and every cost mode prices only those: the IoU and attribute terms
on the gathered pair rows, the embedding term with one gallery product
per gated track; every gated-out entry is +inf.  Dead rows are removed by
boolean compaction, and capacity grows by doubling.

The Kalman filter is ``kalman_init``, ``kalman_predict``, ``kalman_update``
and ``gating_distance``; each takes stacked rows, one per track, and a
single track is a one-row call.  Nothing couples the four (position,
velocity) pairs, so a covariance row holds each pair's variances and
covariance, ``(pxx, pxv, pvv)`` by four, and the filter is elementwise
arithmetic on them.  It repeats the nonzero terms of the one-track 8x8
filter in their order: means and covariances equal that filter's
exactly, and gate distances lie within 16 ulp of it.

Numeric failure stays with its track: a track whose innovation covariance
is not positive definite is infeasible against every detection of the
frame, so it is never updated and coasts until ``max_age`` ends it, while
the other tracks go on.  In a mode that reads embeddings, a frame without
them or whose dimension differs from the gallery's is rejected with a
``ValueError`` before any state changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .core import (COST_MODES, N_ATTRIBUTES, Detections, MotTable, linear_sum_assignment,
                   row_iou, unit_rows)

CHI2_95_4DOF = 9.4877
INF_COST = 1e5
GALLERY_BUDGET = 30   # embeddings kept per track
ATTR_EMA = 0.9        # weight of a track's attribute estimate against a new match

_STD_POS = 1.0 / 20.0
_STD_VEL = 1.0 / 160.0

_DEFAULT_MATCH_THRESHOLD = {
    "iou": 0.7,
    "embed": 1.0,
    "attr": 0.5,
    "embed+attr": 1.4,
}

# ---------------------------------------------------------------------------
# Kalman filter: row i of every argument belongs to track i, and covs[i]
# holds the (pxx, pxv, pvv) rows of its four pairs (``TrackTable.cov``)
# ---------------------------------------------------------------------------

def _measurements(ltwh: np.ndarray) -> np.ndarray:
    """(N, 4) rows (cx, cy, aspect, h) of (left, top, width, height) rows."""
    meas = np.empty_like(ltwh)
    meas[:, :2] = ltwh[:, :2] + ltwh[:, 2:] / 2.0
    meas[:, 2] = ltwh[:, 2] / ltwh[:, 3]
    meas[:, 3] = ltwh[:, 3]
    return meas


def _box_rows(means: np.ndarray) -> np.ndarray:
    """(T, 4) (left, top, width, height) boxes of the states, each side at
    least 1 pixel."""
    boxes = np.empty((len(means), 4))
    boxes[:, 3] = np.maximum(means[:, 3], 1.0)
    boxes[:, 2] = np.maximum(means[:, 2] * boxes[:, 3], 1.0)
    boxes[:, :2] = means[:, :2] - boxes[:, 2:] / 2.0
    return boxes


def _height_var(h: np.ndarray, std: float, aspect: float) -> np.ndarray:
    """(T, 4) variances of the pairs' components: ``(std * h)**2`` for cx,
    cy and h, ``aspect**2`` for the aspect."""
    s = h[:, None] * np.array([std, std, 0.0, std])
    s[:, 2] = aspect
    return s * s


def kalman_init(meas: np.ndarray):
    """Initial states from (N, 4) measurements; zero velocity."""
    means = np.zeros((len(meas), 8))
    means[:, :4] = meas
    covs = np.zeros((len(meas), 3, 4))
    covs[:, 0] = _height_var(meas[:, 3], 2 * _STD_POS, 1e-2)
    covs[:, 2] = _height_var(meas[:, 3], 10 * _STD_VEL, 1e-5)
    return means, covs


def kalman_predict(means: np.ndarray, covs: np.ndarray):
    """Constant-velocity prediction; process noise strictly grows the trace."""
    h = means[:, 3]
    pxx, pxv, pvv = covs[:, 0], covs[:, 1], covs[:, 2]
    b = pxv + pvv
    out = np.empty_like(covs)
    out[:, 0] = ((pxx + pxv) + b) + _height_var(h, _STD_POS, 1e-2)
    out[:, 1] = b
    out[:, 2] = pvv + _height_var(h, _STD_VEL, 1e-5)
    means = means.copy()
    means[:, :4] += means[:, 4:]
    return means, out


def _innovation(means: np.ndarray, covs: np.ndarray):
    """(T, 4) reciprocal square roots of the innovation variances, and the
    (T,) mask of the rows whose four variances are all positive (not NaN);
    the other rows get a placeholder of ones."""
    S = covs[:, 0] + _height_var(means[:, 3], _STD_POS, 1e-1)
    ok = (S > 0).all(axis=1)
    return 1.0 / np.sqrt(np.where(ok[:, None], S, 1.0)), ok


def gating_distance(means: np.ndarray, covs: np.ndarray, meas: np.ndarray,
                    innovation=None) -> np.ndarray:
    """(T, N) squared Mahalanobis distances of the measurements under the
    states; +inf on every row whose innovation covariance is not positive
    definite.  ``innovation`` is the ``_innovation`` result of the states
    when the caller already has it."""
    inv, ok = _innovation(means, covs) if innovation is None else innovation
    z = (meas.T[None, :, :] - means[:, :4, None]) * inv[:, :, None]   # (T, 4, N)
    z *= z
    d2 = ((z[:, 0] + z[:, 1]) + z[:, 2]) + z[:, 3]
    d2[~ok] = np.inf
    return d2


def kalman_update(means: np.ndarray, covs: np.ndarray, meas: np.ndarray, inv=None):
    """Standard correction of each state by its (cx, cy, aspect, h)
    measurement.  ``inv`` holds the reciprocal innovation standard
    deviations of the states (``_innovation``) when the caller already has
    them (the tracker passes the gate's); without it an innovation
    covariance that is not positive definite raises LinAlgError."""
    if inv is None:
        inv, ok = _innovation(means, covs)
        if not ok.all():
            raise np.linalg.LinAlgError("innovation covariance is not positive definite")
    pxx, pxv, pvv = covs[:, 0], covs[:, 1], covs[:, 2]
    # gain K = P H' S^-1, one (position, velocity) column per pair
    kx = (pxx * inv) * inv
    kv = (pxv * inv) * inv
    y = meas - means[:, :4]
    means = means.copy()
    means[:, :4] += kx * y
    means[:, 4:] += kv * y
    out = np.empty_like(covs)
    out[:, 0] = pxx - kx * pxx
    out[:, 1] = ((pxv - kx * pxv) + (pxv - kv * pxx)) / 2.0
    out[:, 2] = pvv - kv * pxv
    return means, out


# ---------------------------------------------------------------------------
# Track table
# ---------------------------------------------------------------------------

# Row shape and dtype of each column; the gallery ring is added once the
# first embedding fixes its dimension.
_COLUMNS = {
    "mean": ((8,), np.float64),
    "cov": ((3, 4), np.float64),             # (pxx, pxv, pvv) of each pair
    "attr": ((N_ATTRIBUTES,), np.float64),   # attribute estimate (EMA)
    "hits": ((), np.int64),                  # birth plus matches; never falls
    "age": ((), np.int64),                   # frames since the last match
    "identity": ((), np.int64),
}


class TrackTable:
    """Struct-of-arrays state of a tracker's live tracks, one row per track
    in birth order.

    Each column (``mean``, ``cov``, ``gallery``, ``attr``, ``hits``,
    ``age``, ``identity``) is an attribute holding a view of the first
    ``len(table)`` rows of a buffer: write through it in place, never
    rebind it.  A ``cov`` row is the Kalman covariance as its four
    (position, velocity) pairs, the only entries of the 8x8 matrix that
    the filter makes nonzero: ``cov[0]``, ``cov[1]`` and ``cov[2]`` hold
    the position variances, the position-velocity covariances and the
    velocity variances of (cx, cy, aspect, h).  The gallery is a ring of
    unit embeddings, every slot filled at birth; the min-distance lookup is
    order independent and blind to repeats, so overwriting the oldest slot
    in place replaces FIFO eviction.
    """

    def __init__(self):
        self._n = 0
        self._buf = {name: np.zeros((0, *shape), dtype)
                     for name, (shape, dtype) in _COLUMNS.items()}
        self._views()

    def __len__(self) -> int:
        return self._n

    def _views(self) -> None:
        for name, buf in self._buf.items():
            setattr(self, name, buf[:self._n])

    @property
    def dim(self) -> int | None:
        """Embedding dimension of the gallery; None until it exists."""
        gallery = self._buf.get("gallery")
        return None if gallery is None else gallery.shape[2]

    def set_dim(self, dim: int) -> None:
        self._buf["gallery"] = np.zeros((len(self._buf["mean"]), GALLERY_BUDGET, dim))
        self._views()

    def add_rows(self, k: int) -> slice:
        """Append ``k`` zeroed rows; returns their slice."""
        n = self._n
        cap = len(self._buf["mean"])
        if n + k > cap:
            cap = max(2 * cap, n + k, 8)
            for name, buf in self._buf.items():
                grown = np.zeros((cap, *buf.shape[1:]), buf.dtype)
                grown[:n] = buf[:n]
                self._buf[name] = grown
        for buf in self._buf.values():
            buf[n:n + k] = 0
        self._n = n + k
        self._views()
        return slice(n, n + k)

    def compact(self, keep: np.ndarray) -> None:
        """Keep the rows where ``keep`` is true, in order."""
        n = self._n
        first = int(np.argmin(keep))   # rows before the first dropped one stay put
        k = first + int(keep[first:].sum())
        for buf in self._buf.values():
            buf[first:k] = buf[first:n][keep[first:]]
        self._n = k
        self._views()


@dataclass(frozen=True)
class AssocConfig:
    """Association settings; ``mode`` picks the cost matrix."""

    mode: str = "embed"
    lambda_e: float = 1.0
    lambda_a: float = 1.0
    match_threshold: float | None = None   # None = per-mode default
    n_init: int = 3
    max_age: int = 30
    attr_source: str = "obs"               # "obs" | "fusion"

    def __post_init__(self):
        if self.mode not in COST_MODES:
            raise ValueError(f"unknown cost mode {self.mode!r}")
        for name in ("lambda_e", "lambda_a", "match_threshold"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
        if self.mode == "embed+attr" and self.lambda_e + self.lambda_a <= 0:
            raise ValueError("lambda_e + lambda_a must be positive for embed+attr")
        if self.lambda_e < 0 or self.lambda_a < 0:
            raise ValueError("lambda weights must be non-negative")
        if self.match_threshold is not None and self.match_threshold <= 0:
            raise ValueError("match threshold must be positive")
        if self.n_init < 1 or self.max_age < 1:
            raise ValueError("n_init and max_age must be >= 1")
        if self.attr_source not in ("obs", "fusion"):
            raise ValueError(f"unknown attr source {self.attr_source!r}")

    @property
    def threshold(self) -> float:
        if self.match_threshold is not None:
            return self.match_threshold
        return _DEFAULT_MATCH_THRESHOLD[self.mode]


@dataclass(frozen=True)
class FrameBatch:
    """The views of one frame's ``Detections`` that a cost mode reads,
    derived once by ``stack_frame``: (N, 4) boxes and (cx, cy, aspect, h)
    measurements, plus the unit embeddings and attribute rows, each only in
    the cost modes that read it and for a frame with detections (else
    None)."""

    boxes: np.ndarray
    meas: np.ndarray
    unit: np.ndarray | None
    attrs: np.ndarray | None


def predict_attributes(e1, a1_raw, strategy, params):
    """``fusion.predict_attributes``, imported on first use: a tracker that
    reads observed attributes never loads the fusion head."""
    from .fusion import predict_attributes as predict

    return predict(e1, a1_raw, strategy, params)


def stack_frame(detections: Detections, config: AssocConfig,
                fusion_params=None, dim: int | None = None) -> FrameBatch:
    """The views of one frame's checked detections that ``config.mode``
    reads; an empty frame has none.

    The embeddings must have dimension ``dim``, the gallery's, when given.
    The attributes are the observed ones, or with ``attr_source="fusion"``
    the fusion head's prediction from the embeddings, queried by the
    observed attributes when the frame has them (as in training) and else
    by the head's learned linear attribute feature.  Every view is
    C-contiguous, so the matrix products that read it round alike.
    """
    fusion = config.attr_source == "fusion"
    reads_emb = config.mode in ("embed", "embed+attr")
    reads_attrs = config.mode in ("attr", "embed+attr")
    emb, unit, attrs = detections.embeddings, None, detections.attrs
    if len(detections) and (reads_emb or (reads_attrs and fusion)):
        if emb is None:
            raise ValueError("detection carries no embedding for this cost mode")
        if dim is not None and emb.shape[1] != dim:
            raise ValueError(f"detection embeddings have shape {emb.shape[1:]}; "
                             f"the gallery holds dimension {dim}")
        emb = np.ascontiguousarray(emb)
        if reads_emb:
            unit = unit_rows(emb)
    if not (len(detections) and reads_attrs):
        attrs = None
    elif fusion:
        if fusion_params is None:
            raise ValueError("fusion_params required for attr_source='fusion'")
        params, strategy = fusion_params
        obs = None if attrs is None else np.ascontiguousarray(attrs)
        attrs = np.ascontiguousarray(predict_attributes(emb, obs, strategy, params)[0])
    elif attrs is None:
        raise ValueError("detection carries no attribute observation")
    else:
        attrs = np.ascontiguousarray(attrs)
    return FrameBatch(detections.boxes, _measurements(detections.boxes), unit, attrs)


def _gallery_min_cosine(gallery: np.ndarray, unit: np.ndarray, rows: np.ndarray,
                        cols: np.ndarray) -> np.ndarray:
    """Min cosine distance from unit feature row ``cols[k]`` to the slots
    of track ``rows[k]``'s gallery ring, one value per pair; ``rows`` is
    ascending, as ``np.nonzero`` gives it.

    Each track takes one product of its ring with its own run of gathered
    features, and one max and clip over all of them follow.  Rounding and
    clipping are monotone, so the distance of the largest similarity is the
    smallest distance, bit for bit."""
    if not len(rows):
        return np.zeros(0)
    feats = unit[cols]
    cuts = (np.flatnonzero(np.diff(rows)) + 1).tolist()
    sims = [gallery[rows[a]] @ feats[a:b].T
            for a, b in zip([0] + cuts, cuts + [len(rows)])]
    return np.clip(1.0 - np.concatenate(sims, axis=1).max(axis=0), 0.0, 2.0)


def build_cost_matrix(tracks: TrackTable, frame: FrameBatch, config: AssocConfig,
                      innovation=None):
    """Cost matrix plus infeasibility mask (Mahalanobis-gated pairs).

    ``tracks`` is a tracker's ``TrackTable`` and ``frame`` the
    ``stack_frame`` batch of the detections under the same ``config``.
    ``innovation`` reuses the reciprocal innovation standard deviations and
    positive-definite mask of the tracks (``_innovation``).  Every mode
    prices only the gated-in pairs, each term it reads once per pair, and
    every gated-out entry is +inf.
    """
    n_t, n_d = len(tracks), len(frame.boxes)
    if n_t == 0 or n_d == 0:
        return np.zeros((n_t, n_d)), np.zeros((n_t, n_d), dtype=bool)
    infeasible = gating_distance(tracks.mean, tracks.cov, frame.meas,
                                 innovation) > CHI2_95_4DOF
    rows, cols = np.nonzero(~infeasible)
    mode = config.mode
    if mode == "iou":
        priced = 1.0 - row_iou(_box_rows(tracks.mean[rows]), frame.boxes[cols])
    if mode in ("embed", "embed+attr"):
        priced = embed = _gallery_min_cosine(tracks.gallery, frame.unit, rows, cols)
    if mode in ("attr", "embed+attr"):
        priced = attr = np.abs(tracks.attr[rows] - frame.attrs[cols]).mean(axis=1)
    if mode == "embed+attr":
        priced = config.lambda_e * embed + config.lambda_a * attr
    cost = np.full((n_t, n_d), np.inf)
    cost[rows, cols] = priced
    return cost, infeasible


def solve_assignment(cost: np.ndarray, infeasible: np.ndarray | None = None,
                     threshold: float = math.inf):
    """Minimum-cost bipartite matching over feasible entries.

    Infeasible entries are priced at INF_COST, which dominates any sum of
    feasible costs, so the solver maximizes feasible cardinality first.
    Matches costlier than ``threshold`` are dropped to unmatched.
    Returns (matches, unmatched_rows, unmatched_cols).
    """
    cost = np.asarray(cost, dtype=np.float64)
    n_r, n_c = cost.shape
    if n_r == 0 or n_c == 0:
        return [], list(range(n_r)), list(range(n_c))
    work = cost if infeasible is None else np.where(infeasible, INF_COST, cost)
    rows, cols = linear_sum_assignment(work)
    keep = (work[rows, cols] < INF_COST) & ~(cost[rows, cols] > threshold)
    rows, cols = rows[keep].tolist(), cols[keep].tolist()
    matched_rows, matched_cols = set(rows), set(cols)
    return (list(zip(rows, cols)), [r for r in range(n_r) if r not in matched_rows],
            [c for c in range(n_c) if c not in matched_cols])


# ---------------------------------------------------------------------------
# Tracker
# ---------------------------------------------------------------------------


class Tracker:
    """Single-sequence online tracker; identities are never reused."""

    def __init__(self, config: AssocConfig, fusion_params=None):
        if config.attr_source == "fusion" and fusion_params is None:
            raise ValueError("fusion_params required for attr_source='fusion'")
        self.config = config
        self.fusion_params = fusion_params
        self.table = TrackTable()
        self._next_id = 1
        # row buffers: blocks of (frames, identities, boxes) columns
        self._rows = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 4)))]

    def _absorb(self, rows: np.ndarray, cols: np.ndarray, batch: FrameBatch,
                born: bool) -> None:
        """Fold detection ``cols`` into track ``rows``, whose ``hits`` count
        them already: the gallery push and the attribute EMA, each where the
        cost mode reads it; a newborn row takes the embedding into every
        ring slot and the attribute vector as is."""
        tab = self.table
        if batch.unit is not None:
            if tab.dim is None:
                tab.set_dim(batch.unit.shape[1])
            if born:
                tab.gallery[rows] = batch.unit[cols, None, :]
            else:
                tab.gallery[rows, (tab.hits[rows] - 1) % GALLERY_BUDGET] = batch.unit[cols]
        if batch.attrs is not None:
            new = batch.attrs[cols]
            tab.attr[rows] = new if born else ATTR_EMA * tab.attr[rows] + (1 - ATTR_EMA) * new

    def _emit(self, frame: int, idents: np.ndarray, boxes: np.ndarray) -> None:
        self._rows.append((np.full(len(idents), frame, dtype=np.int64), idents, boxes))

    def step(self, frame: int, detections: Detections) -> None:
        """Advance one frame.

        Every matched track's box and every newborn track's detection box
        is appended to the row buffers; a tentative track's rows wait there
        until it is confirmed, and those of a track that dies tentative are
        never reported (``results``)."""
        cfg = self.config
        tab = self.table
        batch = stack_frame(detections, cfg, self.fusion_params, tab.dim)
        tab.mean[:], tab.cov[:] = kalman_predict(tab.mean, tab.cov)
        tab.age += 1

        # once per frame: the gate and the update both use it
        inv, pos_def = _innovation(tab.mean, tab.cov)
        cost, infeasible = build_cost_matrix(tab, batch, cfg, (inv, pos_def))
        matches, u_tracks, u_dets = solve_assignment(cost, infeasible, cfg.threshold)

        if matches:
            rows, cols = np.array(matches).T
            tab.mean[rows], tab.cov[rows] = kalman_update(tab.mean[rows], tab.cov[rows],
                                                          batch.meas[cols], inv[rows])
            tab.hits[rows] += 1
            tab.age[rows] = 0
            self._absorb(rows, cols, batch, born=False)
            self._emit(frame, tab.identity[rows], _box_rows(tab.mean[rows]))

        if u_tracks:
            u = np.array(u_tracks)
            kept = (tab.hits[u] >= cfg.n_init) & (tab.age[u] <= cfg.max_age)
            # a tentative track needs consecutive hits; a confirmed one is
            # lost after max_age frames without a match
            if not kept.all():
                keep = np.ones(len(tab), dtype=bool)
                keep[u[~kept]] = False
                tab.compact(keep)

        if u_dets:
            cols = np.array(u_dets)
            new = tab.add_rows(len(cols))
            idents = np.arange(self._next_id, self._next_id + len(cols))
            self._next_id += len(cols)
            tab.mean[new], tab.cov[new] = kalman_init(batch.meas[cols])
            tab.hits[new] = 1
            tab.identity[new] = idents
            self._absorb(np.arange(new.start, new.stop), cols, batch, born=True)
            self._emit(frame, idents, batch.boxes[cols])

    def results(self) -> MotTable:
        """The rows of every track confirmed so far: its matched boxes, its
        birth detection box, and the rows it had while tentative.  Each hit
        emits one row, so a confirmed identity is one with at least
        ``n_init`` rows."""
        frames, ids, boxes = map(np.concatenate, zip(*self._rows))
        keep = np.bincount(ids)[ids] >= self.config.n_init
        return MotTable(frames[keep], ids[keep], boxes[keep])


def run_sequence(frames: dict[int, Detections], config: AssocConfig,
                 fusion_params=None, n_frames: int | None = None) -> MotTable:
    """Track a whole sequence of per-frame detections; deterministic.  A
    frame missing from ``frames`` has no detections.  Returns the
    confirmed tracks' rows (``Tracker.results``).

    Every key must be its table's frame and, when ``n_frames`` is given,
    at most ``n_frames``; any other key raises ``ValueError`` naming it,
    since its detections would be dropped or emitted under another frame.
    """
    for f, dets in frames.items():
        if dets.frame != f:
            raise ValueError(f"frame {f}: its detections are of frame {dets.frame}")
    last = n_frames if n_frames is not None else (max(frames) if frames else 0)
    beyond = [f for f in frames if f > last]
    if beyond:
        raise ValueError(f"frame {min(beyond)}: detections past the sequence's "
                         f"{last} frames")
    tracker = Tracker(config, fusion_params)
    for f in range(1, last + 1):
        dets = frames.get(f)
        if dets is None:
            dets = Detections(f, np.empty((0, 4)), np.empty(0))
        tracker.step(f, dets)
    return tracker.results()


def outputs_to_entries(outputs: MotTable) -> MotTable:
    """``outputs`` itself: ``run_sequence`` already returns result-file
    rows.  Kept only for the benchmark harness, which calls it."""
    return outputs
