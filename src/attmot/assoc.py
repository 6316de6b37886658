"""Tracking engine: constant-velocity Kalman filtering, cost matrices in
several modes, optimal assignment and track lifecycle.

State and gating follow the DeepSORT lineage: the Kalman state is
(cx, cy, aspect, height) plus velocities, measurement noise scales with the
box height, and track-detection pairs are gated at the 0.95 chi-square
quantile for 4 degrees of freedom.

A ``Tracker`` keeps all live tracks in one struct-of-arrays ``TrackTable``:
means ``(T, 8)``, covariances ``(T, 8, 8)``, a gallery ring ``(T, B, D)`` of
unit embeddings with fill counts and write pointers, attribute estimates
``(T, 32)``, and status, hit, age and identity columns.  The
gallery is filled only in the modes whose cost reads embeddings, and the
attribute estimates only in those that read attributes.  A frame arrives
as one checked ``core.Detections`` table; ``stack_frame`` derives the views
its cost mode reads once, as a ``FrameBatch`` for the gate, the costs, the
update and the births.  All tracks are predicted, gated and updated in one
batched pass, the gate and the update sharing one Cholesky factorization
of the innovation covariances, and each cost mode is one array expression
over the whole table.  Dead rows are removed by boolean compaction, and
capacity grows by doubling.

The Kalman filter is ``kalman_init``, ``kalman_predict``, ``kalman_update``
and ``gating_distance``; each takes stacked rows, one per track, and a
single track is a one-row call.  They keep the operation order of the
one-track filter, so every row is bit-identical to it.

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
                   pairwise_iou, unit_rows)

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

_I4 = np.arange(4)
_I8 = np.arange(8)
# Constant-velocity transition: each of (cx, cy, aspect, h) adds its velocity.
_F = np.eye(8)
_F[_I4, _I4 + 4] = 1.0
_F.flags.writeable = False


# ---------------------------------------------------------------------------
# Kalman filter: row i of every argument belongs to track i
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


def _height_std(h: np.ndarray, pos: float, vel: float,
                aspect: float, aspect_vel: float) -> np.ndarray:
    """(T, 8) std of the state components: ``pos * h`` for cx, cy and h,
    ``vel * h`` for their velocities, constants for the aspect and its
    velocity."""
    std = h[:, None] * np.array([pos, pos, 0.0, pos, vel, vel, 0.0, vel])
    std[:, 2] = aspect
    std[:, 6] = aspect_vel
    return std


def kalman_init(meas: np.ndarray):
    """Initial states from (N, 4) measurements; zero velocity."""
    means = np.zeros((len(meas), 8))
    means[:, :4] = meas
    std = _height_std(meas[:, 3], 2 * _STD_POS, 10 * _STD_VEL, 1e-2, 1e-5)
    covs = np.zeros((len(meas), 8, 8))
    covs[:, _I8, _I8] = std * std
    return means, covs


def kalman_predict(means: np.ndarray, covs: np.ndarray):
    """Constant-velocity prediction; process noise strictly grows the trace."""
    qstd = _height_std(means[:, 3], _STD_POS, _STD_VEL, 1e-2, 1e-5)
    means = means @ _F.T
    covs = _F[None] @ covs @ _F.T[None]
    covs[:, _I8, _I8] += qstd * qstd
    covs = (covs + covs.transpose(0, 2, 1)) / 2.0
    return means, covs


def _innovation_cov(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    std = _height_std(means[:, 3], _STD_POS, 0.0, 1e-1, 0.0)[:, :4]
    S = covs[:, :4, :4].copy()
    S[:, _I4, _I4] += std * std
    return S


def _cholesky_rows(S: np.ndarray):
    """Lower Cholesky factors of a stack of matrices plus a mask of the rows
    that are positive definite; failed rows get an identity placeholder."""
    try:
        return np.linalg.cholesky(S), np.ones(len(S), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    chol = np.empty_like(S)
    ok = np.ones(len(S), dtype=bool)
    for i, s in enumerate(S):
        try:
            chol[i] = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            chol[i] = np.eye(len(s))
            ok[i] = False
    return chol, ok


def gating_distance(means: np.ndarray, covs: np.ndarray, meas: np.ndarray,
                    innovation_chol=None) -> np.ndarray:
    """(T, N) squared Mahalanobis distances of the measurements under the
    states; +inf on every row whose innovation covariance is not positive
    definite.  ``innovation_chol`` is the ``_cholesky_rows`` result of the
    states' innovation covariances when the caller already has it."""
    if innovation_chol is None:
        innovation_chol = _cholesky_rows(_innovation_cov(means, covs))
    chol, ok = innovation_chol
    y = meas[None, :, :] - means[:, None, :4]          # (T, N, 4)
    z = np.linalg.solve(chol, y.transpose(0, 2, 1))    # (T, 4, N)
    d2 = (z * z).sum(axis=1)
    d2[~ok] = np.inf
    return d2


def kalman_update(means: np.ndarray, covs: np.ndarray, meas: np.ndarray, chol=None):
    """Standard correction of each state by its (cx, cy, aspect, h)
    measurement.  ``chol`` holds the Cholesky factors of the states'
    innovation covariances when the caller already has them (the tracker
    passes the gate's); without it an innovation covariance that is not
    positive definite raises LinAlgError."""
    if chol is None:
        chol = np.linalg.cholesky(_innovation_cov(means, covs))
    y = meas - means[:, :4]
    PHt = covs[:, :, :4]
    # K = P H' S^-1 via two solves; the transposes keep each K in the
    # memory layout of the one-track filter, so BLAS rounds identically.
    K = np.linalg.solve(chol.transpose(0, 2, 1),
                        np.linalg.solve(chol, PHt.transpose(0, 2, 1))).transpose(0, 2, 1)
    means = means + (K @ y[:, :, None])[:, :, 0]
    covs = covs - K @ PHt.transpose(0, 2, 1)
    covs = (covs + covs.transpose(0, 2, 1)) / 2.0
    return means, covs


# ---------------------------------------------------------------------------
# Track table
# ---------------------------------------------------------------------------

# Row shape and dtype of each column; the gallery ring is added once the
# first embedding fixes its dimension.
_COLUMNS = {
    "mean": ((8,), np.float64),
    "cov": ((8, 8), np.float64),
    "attr": ((N_ATTRIBUTES,), np.float64),   # attribute estimate (EMA)
    "confirmed": ((), bool),
    "hits": ((), np.int64),
    "age": ((), np.int64),                   # frames since the last match
    "identity": ((), np.int64),
    "gal_n": ((), np.int64),                 # filled gallery slots
    "gal_ptr": ((), np.int64),               # next gallery slot to write
}


class TrackTable:
    """Struct-of-arrays state of a tracker's live tracks, one row per track
    in birth order.

    Each column (``mean``, ``cov``, ``gallery``, ``attr``, ...) is an
    attribute holding a view of the first ``len(table)`` rows of a buffer:
    write through it in place, never rebind it.  The gallery is a ring of
    unit embeddings; the min-distance lookup is order independent, so
    overwriting the oldest slot in place replaces FIFO eviction.
    """

    def __init__(self):
        self.dim: int | None = None       # embedding dimension of the gallery
        self._n = 0
        self._buf = {name: np.zeros((0, *shape), dtype)
                     for name, (shape, dtype) in _COLUMNS.items()}
        self._views()

    def __len__(self) -> int:
        return self._n

    def _views(self) -> None:
        for name, buf in self._buf.items():
            setattr(self, name, buf[:self._n])

    def gallery_filled(self) -> np.ndarray:
        """(T, B) mask of the filled gallery slots."""
        return np.arange(GALLERY_BUDGET)[None, :] < self.gal_n[:, None]

    def set_dim(self, dim: int) -> None:
        self.dim = dim
        cap = len(self._buf["mean"])
        self._buf["gallery"] = np.zeros((cap, GALLERY_BUDGET, dim))
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

    def push_embeddings(self, rows: np.ndarray, unit: np.ndarray) -> None:
        """Write one unit embedding per row into its gallery ring."""
        self.gallery[rows, self.gal_ptr[rows]] = unit
        self.gal_ptr[rows] = (self.gal_ptr[rows] + 1) % GALLERY_BUDGET
        self.gal_n[rows] = np.minimum(self.gal_n[rows] + 1, GALLERY_BUDGET)


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


def _gallery_min_cosine(gallery: np.ndarray, filled: np.ndarray,
                        feats_normed: np.ndarray) -> np.ndarray:
    """(T, N) min cosine distance from each normalized feature row to the
    filled slots of each track's gallery ring, in one batched product."""
    sim = gallery @ feats_normed.T
    dist = np.clip(1.0 - sim, 0.0, 2.0)
    dist[~filled] = np.inf
    return dist.min(axis=1)


def build_cost_matrix(tracks: TrackTable, frame: FrameBatch, config: AssocConfig,
                      innovation_chol=None):
    """Cost matrix plus infeasibility mask (Mahalanobis-gated pairs).

    ``tracks`` is a tracker's ``TrackTable`` and ``frame`` the
    ``stack_frame`` batch of the detections under the same ``config``.
    ``innovation_chol`` reuses the factors and positive-definite mask of the
    tracks' innovation covariances (``_cholesky_rows``).
    """
    n_t, n_d = len(tracks), len(frame.boxes)
    if n_t == 0 or n_d == 0:
        return np.zeros((n_t, n_d)), np.zeros((n_t, n_d), dtype=bool)
    infeasible = gating_distance(tracks.mean, tracks.cov, frame.meas,
                                 innovation_chol) > CHI2_95_4DOF
    mode = config.mode
    if mode in ("embed", "embed+attr"):
        embed_mat = _gallery_min_cosine(tracks.gallery, tracks.gallery_filled(), frame.unit)
    if mode in ("attr", "embed+attr"):
        attr_mat = np.abs(tracks.attr[:, None, :] - frame.attrs[None, :, :]).mean(axis=2)

    if mode == "iou":
        cost = 1.0 - pairwise_iou(_box_rows(tracks.mean), frame.boxes)
    elif mode == "embed":
        cost = embed_mat
    elif mode == "attr":
        cost = attr_mat
    elif mode == "embed+attr":
        cost = config.lambda_e * embed_mat + config.lambda_a * attr_mat
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
        # row buffers: blocks of (frames, identities, boxes) columns, and
        # blocks of the identities confirmed so far
        self._rows = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 4)))]
        self._confirmed = [np.zeros(0, np.int64)]

    def _absorb(self, rows: np.ndarray, cols: np.ndarray, batch: FrameBatch,
                born: bool) -> None:
        """Fold detection ``cols`` into track ``rows``: the gallery push and
        the attribute EMA, each where the cost mode reads it; a newborn row
        takes the attribute vector as is."""
        tab = self.table
        if batch.unit is not None:
            if tab.dim is None:
                tab.set_dim(batch.unit.shape[1])
            tab.push_embeddings(rows, batch.unit[cols])
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

        # factored once per frame: the gate and the update both use it
        chol, pos_def = _cholesky_rows(_innovation_cov(tab.mean, tab.cov))
        cost, infeasible = build_cost_matrix(tab, batch, cfg, (chol, pos_def))
        matches, u_tracks, u_dets = solve_assignment(cost, infeasible, cfg.threshold)

        if matches:
            rows, cols = np.array(matches).T
            tab.mean[rows], tab.cov[rows] = kalman_update(tab.mean[rows], tab.cov[rows],
                                                          batch.meas[cols], chol[rows])
            tab.hits[rows] += 1
            tab.age[rows] = 0
            self._absorb(rows, cols, batch, born=False)
            confirm = ~tab.confirmed[rows] & (tab.hits[rows] >= cfg.n_init)
            tab.confirmed[rows] |= confirm
            self._confirmed.append(tab.identity[rows[confirm]])
            self._emit(frame, tab.identity[rows], _box_rows(tab.mean[rows]))

        if u_tracks:
            u = np.array(u_tracks)
            kept = tab.confirmed[u] & (tab.age[u] <= cfg.max_age)
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
            tab.confirmed[new] = cfg.n_init <= 1
            if cfg.n_init <= 1:
                self._confirmed.append(idents)
            self._emit(frame, idents, batch.boxes[cols])

    def results(self) -> MotTable:
        """The rows of every track confirmed so far: its matched boxes, its
        birth detection box, and the rows it had while tentative."""
        frames, ids, boxes = map(np.concatenate, zip(*self._rows))
        confirmed = np.zeros(self._next_id, dtype=bool)
        confirmed[np.concatenate(self._confirmed)] = True
        keep = confirmed[ids]
        return MotTable(frames[keep], ids[keep], boxes[keep])


def run_sequence(frames: dict[int, Detections], config: AssocConfig,
                 fusion_params=None, n_frames: int | None = None) -> MotTable:
    """Track a whole sequence of per-frame detections; deterministic.  A
    frame missing from ``frames`` has no detections.  Returns the
    confirmed tracks' rows (``Tracker.results``)."""
    tracker = Tracker(config, fusion_params)
    last = n_frames if n_frames is not None else (max(frames) if frames else 0)
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
