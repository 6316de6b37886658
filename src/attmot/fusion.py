"""Attribute/embedding fusion head: residual adaptor, cross-attention,
losses, fusion strategies, a deterministic trainer and gradient checking.

The head refines a fixed appearance embedding through a residual two-layer
MLP, then lets 32 learned attribute query tokens attend over the embedding
tokens to produce attribute logits.  Several alternative fusion topologies
are provided for ablation; ``preproc-attr`` (adaptor + cross-attention) is
the default.

Convention: token rows multiply projection matrices on the right, i.e. a
projection of tokens ``T`` by weights ``W`` is ``T @ W``.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .core import N_ATTRIBUTES, TrainSample

STRATEGY_KINDS = (
    "cross-fertilize",
    "self-enhance",
    "attr-only",
    "preproc-attr",
    "preproc-both",
    "concat-self",
)

_ITERATED_KINDS = ("cross-fertilize", "self-enhance")

BCE_EPS = 1e-7


@dataclass(frozen=True)
class FusionStrategy:
    """Fusion topology selector; ``rounds`` applies to the iterated kinds."""

    kind: str = "preproc-attr"
    rounds: int = 1

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown fusion strategy {self.kind!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.rounds != 1 and self.kind not in _ITERATED_KINDS:
            raise ValueError(f"fusion strategy {self.kind!r} takes no rounds, got {self.rounds}")

    @classmethod
    def parse(cls, text: str) -> "FusionStrategy":
        """Parse e.g. ``"preproc-attr"`` or ``"cross-fertilize:2"``."""
        if ":" in text:
            kind, rounds = text.split(":", 1)
            return cls(kind, int(rounds))
        return cls(text)

    def __str__(self):
        if self.rounds != 1:
            return f"{self.kind}:{self.rounds}"
        return self.kind


PREPROC_ATTR = FusionStrategy("preproc-attr")


def all_strategies(rounds: int = 1) -> tuple[FusionStrategy, ...]:
    return tuple(FusionStrategy(k, rounds if k in _ITERATED_KINDS else 1) for k in STRATEGY_KINDS)


# Parameter arrays, in a fixed order used by the trainer and grad checker.
PARAM_FIELDS = (
    "w1", "b1", "w2", "b2",
    "wq", "wk", "wv",
    "attr_embed", "attr_head_w", "attr_head_b",
    "attr_in_w", "attr_in_b",
    "id_head_w", "id_head_b",
)


def _token_dim(dim: int, n_tokens: int, n_identities: int) -> int:
    """Token width of a head of positive shape whose token count divides ``dim``."""
    if dim < 1 or n_tokens < 1 or n_identities < 1:
        raise ValueError("dimensions must be positive")
    if dim % n_tokens != 0:
        raise ValueError(f"embedding dim {dim} not divisible by token count {n_tokens}")
    return dim // n_tokens


@dataclass
class FusionParams:
    """All trainable tensors of the fusion head.

    Linear maps are stored in right-multiply orientation (input @ W + b).
    ``attr_in_w`` is the linear attribute head standing in for the extra
    feature-extraction branch: it produces the raw attribute feature from
    the embedding when no observed attribute vector is supplied.
    """

    dim: int
    n_tokens: int
    n_identities: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    attr_embed: np.ndarray
    attr_head_w: np.ndarray
    attr_head_b: np.ndarray
    attr_in_w: np.ndarray
    attr_in_b: np.ndarray
    id_head_w: np.ndarray
    id_head_b: np.ndarray

    def __post_init__(self):
        d, k = self.dim, self.n_identities
        dt = _token_dim(d, self.n_tokens, k)
        expected = {
            "w1": (d, d), "b1": (d,), "w2": (d, d), "b2": (d,),
            "wq": (dt, dt), "wk": (dt, dt), "wv": (dt, dt),
            "attr_embed": (N_ATTRIBUTES, dt),
            "attr_head_w": (N_ATTRIBUTES, dt), "attr_head_b": (N_ATTRIBUTES,),
            "attr_in_w": (d, N_ATTRIBUTES), "attr_in_b": (N_ATTRIBUTES,),
            "id_head_w": (d, k), "id_head_b": (k,),
        }
        for name, shape in expected.items():
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)

    @property
    def token_dim(self) -> int:
        return self.dim // self.n_tokens

    @classmethod
    def init(cls, dim: int, n_identities: int, n_tokens: int = 8,
             seed: int = 0) -> "FusionParams":
        """Fresh parameters scaled for a unit-norm embedding input.

        Key/value projections are scaled against the typical token norm
        sqrt(token_dim / dim) so every stage starts with O(1) activations;
        a plain fixed-step optimizer stalls otherwise.  A nonzero (small)
        adaptor matters too: exact zeros sit in a ReLU dead zone that
        never receives gradient.
        """
        dt = _token_dim(dim, n_tokens, n_identities)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 91]))
        sq = 1.0 / math.sqrt(dt)
        tok_norm = math.sqrt(dt / dim)
        return cls(
            dim=dim, n_tokens=n_tokens, n_identities=n_identities,
            w1=rng.normal(0.0, 0.3 / math.sqrt(dim), (dim, dim)),
            b1=np.zeros(dim),
            w2=rng.normal(0.0, 0.3 / math.sqrt(dim), (dim, dim)),
            b2=np.zeros(dim),
            wq=rng.normal(0.0, 1.5 * sq, (dt, dt)),
            wk=rng.normal(0.0, 1.5 * sq / tok_norm, (dt, dt)),
            wv=rng.normal(0.0, 2.0 * sq / tok_norm, (dt, dt)),
            attr_embed=rng.normal(0.0, 1.0, (N_ATTRIBUTES, dt)),
            attr_head_w=rng.normal(0.0, sq, (N_ATTRIBUTES, dt)),
            attr_head_b=np.zeros(N_ATTRIBUTES),
            attr_in_w=rng.normal(0.0, 1.0 / math.sqrt(dim), (dim, N_ATTRIBUTES)),
            attr_in_b=np.zeros(N_ATTRIBUTES),
            id_head_w=np.zeros((dim, n_identities)),
            id_head_b=np.zeros(n_identities),
        )

    @classmethod
    def random(cls, dim: int, n_identities: int, n_tokens: int = 8,
               seed: int = 0) -> "FusionParams":
        """Fully random parameters (used by gradient checks)."""
        dt = _token_dim(dim, n_tokens, n_identities)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))

        def mat(*shape, fan):
            return rng.normal(0.0, 0.5 / math.sqrt(fan), shape)

        return cls(
            dim=dim, n_tokens=n_tokens, n_identities=n_identities,
            w1=mat(dim, dim, fan=dim), b1=mat(dim, fan=dim),
            w2=mat(dim, dim, fan=dim), b2=mat(dim, fan=dim),
            wq=mat(dt, dt, fan=dt), wk=mat(dt, dt, fan=dt), wv=mat(dt, dt, fan=dt),
            attr_embed=rng.normal(0.0, 1.0, (N_ATTRIBUTES, dt)),
            attr_head_w=mat(N_ATTRIBUTES, dt, fan=dt),
            attr_head_b=mat(N_ATTRIBUTES, fan=1),
            attr_in_w=mat(dim, N_ATTRIBUTES, fan=dim),
            attr_in_b=mat(N_ATTRIBUTES, fan=1),
            id_head_w=mat(dim, n_identities, fan=dim),
            id_head_b=mat(n_identities, fan=1),
        )

    def copy(self) -> "FusionParams":
        kwargs = {name: getattr(self, name).copy() for name in PARAM_FIELDS}
        return FusionParams(dim=self.dim, n_tokens=self.n_tokens,
                            n_identities=self.n_identities, **kwargs)


@dataclass(frozen=True)
class TrainConfig:
    """Trainer settings; plain gradient descent with a fixed step."""

    step_size: float = 0.05
    iterations: int = 400
    batch_size: int = 128
    sigma: float = 1.0
    lambda_id: float = 0.1
    seed: int = 0
    n_tokens: int = 8
    # Query source during training: "obs" feeds the observed attribute
    # vector (the simulated extractor's attribute branch); "learned" feeds
    # the linear attribute head instead.
    attr_input: str = "obs"

    def __post_init__(self):
        if not 0.0 <= self.step_size < math.inf:
            raise ValueError(f"step_size must be finite and >= 0, got {self.step_size!r}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        if not 0.0 <= self.lambda_id < math.inf:
            raise ValueError(f"lambda_id must be finite and >= 0, got {self.lambda_id!r}")
        for name, least in (("iterations", 1), ("batch_size", 1), ("n_tokens", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.attr_input not in ("learned", "obs"):
            raise ValueError(f"unknown attr_input {self.attr_input!r}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    bce: float
    id_loss: float
    total: float


# ---------------------------------------------------------------------------
# Forward graph
# ---------------------------------------------------------------------------

def _param_vars(params: FusionParams, requires_grad: bool) -> dict[str, ad.Var]:
    return {
        name: ad.Var(getattr(params, name), requires_grad=requires_grad)
        for name in PARAM_FIELDS
    }


def _adaptor(p, e1: ad.Var) -> ad.Var:
    h = (e1 @ p["w1"]) + p["b1"]
    h = (h @ p["w2"]) + p["b2"]
    return ad.relu(h) + e1


def _tokens(e: ad.Var, n_tokens: int, token_dim: int) -> ad.Var:
    return ad.reshape(e, e.shape[:-1] + (n_tokens, token_dim))


def _queries(p, a1: ad.Var) -> ad.Var:
    weights = ad.reshape(a1, a1.shape + (1,))
    return weights * p["attr_embed"]


def _attention(p, q: ad.Var, kv: ad.Var) -> ad.Var:
    """Row-stochastic weights of the ``q`` tokens over the ``kv`` tokens."""
    return ad.softmax((q @ p["wq"]) @ ad.transpose_last(kv @ p["wk"]), axis=-1)


def _attend(p, q: ad.Var, kv: ad.Var) -> ad.Var:
    return _attention(p, q, kv) @ (kv @ p["wv"])


def _attr_head(p, tokens: ad.Var) -> ad.Var:
    return ad.sum_(tokens * p["attr_head_w"], axis=-1) + p["attr_head_b"]


def _raw_attr_feature(p, e1: ad.Var) -> ad.Var:
    return ad.sigmoid((e1 @ p["attr_in_w"]) + p["attr_in_b"])


def _strategy_forward(p, e1: ad.Var, a1: ad.Var | None, strategy: FusionStrategy,
                      params: FusionParams) -> tuple[ad.Var, ad.Var]:
    """Returns (attribute logits, adapted embedding) under a strategy."""
    t = params.n_tokens
    if a1 is None:
        a1 = _raw_attr_feature(p, e1)
    if strategy.kind == "attr-only":
        e_out = e1
    else:
        e_out = _adaptor(p, e1)
    kv = _tokens(e_out, t, params.token_dim)
    q = _queries(p, a1)

    if strategy.kind in ("preproc-attr", "attr-only"):
        out = _attend(p, q, kv)
    elif strategy.kind == "preproc-both":
        q = _attend(p, q, q)
        out = _attend(p, q, kv)
    elif strategy.kind == "cross-fertilize":
        a_tok, e_tok = q, kv
        for r in range(strategy.rounds):
            a_new = _attend(p, a_tok, e_tok)
            # The enhanced embedding tokens only matter while further
            # rounds consume them; the head output comes from a_tok.
            if r + 1 < strategy.rounds:
                e_tok = _attend(p, e_tok, a_tok)
            a_tok = a_new
        out = a_tok
    elif strategy.kind == "self-enhance":
        a_tok = q
        for _ in range(strategy.rounds):
            a_tok = _attend(p, a_tok, a_tok)
        out = a_tok
    elif strategy.kind == "concat-self":
        all_tok = ad.concat([kv, q], axis=-2)
        enhanced = _attend(p, all_tok, all_tok)
        out = ad.narrow(enhanced, axis=-2, start=t, length=N_ATTRIBUTES)
    else:  # pragma: no cover - guarded by FusionStrategy validation
        raise ValueError(strategy.kind)
    return _attr_head(p, out), e_out


def bce_weights(pos_freq: np.ndarray, sigma: float, uniform: bool = False):
    """Per-attribute positive/negative term weights for the weighted BCE."""
    pos_freq = np.asarray(pos_freq, dtype=np.float64)
    if uniform:
        ones = np.ones_like(pos_freq)
        return ones, ones
    s2 = sigma * sigma
    return np.exp((1.0 - pos_freq) / s2), np.exp(pos_freq / s2)


def _bce_var(probs: ad.Var, targets: np.ndarray, w_pos: np.ndarray, w_neg: np.ndarray,
             axis: int | None = None) -> ad.Var:
    """Weighted BCE, averaged over ``axis`` (all entries when None)."""
    targets = np.asarray(targets, dtype=np.float64)
    cw_pos = w_pos * targets
    cw_neg = w_neg * (1.0 - targets)
    p = ad.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    one_minus = ad.const(1.0) - p
    ll = (ad.const(cw_pos) * ad.log(p)) + (ad.const(cw_neg) * ad.log(one_minus))
    return ad.scale(ad.mean(ll, axis=axis), -1.0)


def _id_logits(p, e_out: ad.Var) -> ad.Var:
    return (e_out @ p["id_head_w"]) + p["id_head_b"]


def _total_loss(p, e1: ad.Var, a1: ad.Var | None, targets: np.ndarray,
                labels: np.ndarray, strategy: FusionStrategy, params: FusionParams,
                w_pos: np.ndarray, w_neg: np.ndarray, lambda_id: float):
    logits, e_out = _strategy_forward(p, e1, a1, strategy, params)
    bce = _bce_var(ad.sigmoid(logits), targets, w_pos, w_neg)
    if lambda_id > 0:
        ce = ad.softmax_cross_entropy(_id_logits(p, e_out), labels)
        total = bce + ad.scale(ce, lambda_id)
    else:
        ce = ad.const(0.0)
        total = bce
    return bce, ce, total


def _sample_losses(p, e1: ad.Var, a1: ad.Var | None, target: np.ndarray, label: int,
                   strategy: FusionStrategy, params: FusionParams,
                   w_pos: np.ndarray, w_neg: np.ndarray, lambda_id: float) -> np.ndarray:
    """``_total_loss`` of one sample, reduced over trailing axes only.

    Parameters may carry leading axes (a perturbation stack); the result
    then holds one loss per leading index, each with the operations and
    rounding of the unstacked ``_total_loss``.
    """
    logits, e_out = _strategy_forward(p, e1, a1, strategy, params)
    total = _bce_var(ad.sigmoid(logits), target, w_pos, w_neg, axis=-1).value
    if lambda_id > 0:
        # softmax_cross_entropy's operations for one label, row by row
        vals = _id_logits(p, e_out).value
        shifted = vals - vals.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        total = total + (-(shifted - logz)[..., label]) * lambda_id
    return total


# ---------------------------------------------------------------------------
# Public forward operations
# ---------------------------------------------------------------------------

def adaptor_forward(e1: np.ndarray, params: FusionParams) -> np.ndarray:
    """Residual MLP refinement of the embedding; identity at zero weights."""
    e1 = np.asarray(e1, dtype=np.float64)
    if e1.shape[-1] != params.dim:
        raise ValueError(f"embedding dim {e1.shape[-1]} != params dim {params.dim}")
    p = _param_vars(params, requires_grad=False)
    return _adaptor(p, ad.const(e1)).value


def cross_attention_forward(e2: np.ndarray, a1: np.ndarray, params: FusionParams) -> np.ndarray:
    """Attribute logits from cross-attention of attribute queries over
    embedding tokens (queries scaled by the incoming attribute values)."""
    e2 = np.asarray(e2, dtype=np.float64)
    a1 = np.asarray(a1, dtype=np.float64)
    if e2.shape[-1] != params.dim:
        raise ValueError(f"embedding dim {e2.shape[-1]} != params dim {params.dim}")
    if a1.shape[-1] != N_ATTRIBUTES:
        raise ValueError(f"attribute dim {a1.shape[-1]} != {N_ATTRIBUTES}")
    p = _param_vars(params, requires_grad=False)
    kv = _tokens(ad.const(e2), params.n_tokens, params.token_dim)
    q = _queries(p, ad.const(a1))
    return _attr_head(p, _attend(p, q, kv)).value


def cross_attention_weights(e2: np.ndarray, a1: np.ndarray, params: FusionParams) -> np.ndarray:
    """The row-stochastic attention matrix (32 query rows over key tokens)."""
    e2 = np.asarray(e2, dtype=np.float64)
    a1 = np.asarray(a1, dtype=np.float64)
    p = _param_vars(params, requires_grad=False)
    kv = _tokens(ad.const(e2), params.n_tokens, params.token_dim)
    q = _queries(p, ad.const(a1))
    return _attention(p, q, kv).value


def raw_attribute_feature(e1: np.ndarray, params: FusionParams) -> np.ndarray:
    """The linear attribute head's output (sigmoid of a linear map)."""
    p = _param_vars(params, requires_grad=False)
    return _raw_attr_feature(p, ad.const(np.asarray(e1, dtype=np.float64))).value


def predict_attributes(e1: np.ndarray, a1_raw: np.ndarray | None,
                       strategy: FusionStrategy, params: FusionParams) -> tuple[np.ndarray, np.ndarray]:
    """Attribute probabilities in (0,1)^32 plus the adapted embedding.

    ``e1`` is one embedding or a batch of them along leading axes.  When
    ``a1_raw`` is None the raw attribute feature comes from the learned
    linear head; otherwise the supplied vector is used (e.g. an observed
    attribute vector).
    """
    p = _param_vars(params, requires_grad=False)
    a1 = None if a1_raw is None else ad.const(np.asarray(a1_raw, dtype=np.float64))
    logits, e_out = _strategy_forward(p, ad.const(np.asarray(e1, dtype=np.float64)),
                                      a1, strategy, params)
    return ad.sigmoid(logits).value, e_out.value


def weighted_bce_loss(pred: np.ndarray, target: np.ndarray, pos_freq: np.ndarray,
                      sigma: float = 1.0, uniform: bool = False) -> float:
    """Weighted binary cross-entropy over the 32 attribute slots.

    Positive terms weigh ``exp((1-p_j)/sigma^2)`` and negative terms
    ``exp(p_j/sigma^2)`` where ``p_j`` is the positive frequency of slot j;
    with ``uniform=True`` it reduces to plain mean BCE.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"pred/target shape mismatch {pred.shape} vs {target.shape}")
    w_pos, w_neg = bce_weights(np.broadcast_to(pos_freq, pred.shape), sigma, uniform)
    return float(_bce_var(ad.const(pred), target, w_pos, w_neg).value)


def identity_loss(e_out: np.ndarray, label: int, params: FusionParams) -> float:
    """Softmax cross-entropy of the identity head on the adapted embedding."""
    if not 0 <= label < params.n_identities:
        raise ValueError(f"label {label} out of range for {params.n_identities} identities")
    p = _param_vars(params, requires_grad=False)
    logits = _id_logits(p, ad.const(np.asarray(e_out, dtype=np.float64)))
    return float(ad.softmax_cross_entropy(logits, label).value)


# ---------------------------------------------------------------------------
# Training and gradient verification
# ---------------------------------------------------------------------------

def train(dataset: TrainSample, config: TrainConfig = TrainConfig(),
          strategy: FusionStrategy = PREPROC_ATTR,
          params: FusionParams | None = None) -> tuple[FusionParams, list[TraceRow]]:
    """Plain gradient descent on weighted BCE + lambda_id * identity loss.

    ``dataset`` holds the crops as stacked columns.  Deterministic given
    (dataset order, config, strategy).  Raises on an empty dataset; aborts
    with a diagnostic if the loss goes non-finite.
    """
    emb, obs, gts = dataset.embedding, dataset.attr_obs, dataset.gt_attrs
    labels = dataset.identity
    n, dim = emb.shape
    if not n:
        raise ValueError("empty dataset")
    k = int(labels.max()) + 1
    if labels.min() < 0:
        raise ValueError("identity labels must be non-negative")
    if params is None:
        params = FusionParams.init(dim, n_identities=k, n_tokens=config.n_tokens,
                                   seed=config.seed)
    else:
        params = params.copy()
    pos_freq = gts.mean(axis=0)
    w_pos, w_neg = bce_weights(pos_freq, config.sigma)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 3]))
    batch = min(config.batch_size, n)
    trace: list[TraceRow] = []
    for it in range(config.iterations):
        idx = np.arange(n) if batch == n else rng.choice(n, size=batch, replace=False)
        a1 = ad.const(obs[idx]) if config.attr_input == "obs" else None
        p = _param_vars(params, requires_grad=True)
        bce, ce, total = _total_loss(
            p, ad.const(emb[idx]), a1, gts[idx], labels[idx], strategy, params,
            w_pos, w_neg, config.lambda_id,
        )
        tot = float(total.value)
        if not math.isfinite(tot):
            raise RuntimeError(f"non-finite loss {tot} at iteration {it}")
        trace.append(TraceRow(it, float(bce.value), float(ce.value), tot))
        if config.step_size > 0:
            ad.backward(total)
            for name in PARAM_FIELDS:
                grad = p[name].grad
                if grad is not None:
                    getattr(params, name)[...] -= config.step_size * grad
    return params, trace


# Perturbation rows per batched forward pass of grad_check: bounds its peak
# memory whatever the size of the tensor being checked.
_GRAD_CHECK_ROWS = 128
# Central-difference step of grad_check.
GRAD_CHECK_EPS = 1e-5


def _perturbation_rows(arr: np.ndarray, eps: float, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the ``(2n, 1) + arr.shape`` stack whose row
    ``2i`` is ``arr`` with entry ``i`` raised by ``eps`` and row ``2i + 1``
    is ``arr`` with it lowered by ``eps``.

    The singleton axis keeps a vector-shaped parameter one row per
    perturbation, so every matrix product sees the operand shapes of the
    unstacked graph and rounds the same way.
    """
    rows = np.arange(start, stop)
    entry = rows // 2
    stack = np.repeat(arr.reshape(1, -1), len(rows), axis=0)
    orig = arr.reshape(-1)[entry]
    stack[np.arange(len(rows)), entry] = np.where(rows % 2 == 0, orig + eps, orig - eps)
    return stack.reshape((len(rows), 1) + arr.shape)


def grad_check(params: FusionParams, sample: TrainSample,
               strategy: FusionStrategy = PREPROC_ATTR, *, lambda_id: float = 0.1,
               attr_input: str = "learned") -> float:
    """Max relative error of analytic partials vs central finite differences.

    The loss uses the attribute weights of positive frequency 0.5.  Every
    parameter entry is perturbed by +/- ``GRAD_CHECK_EPS`` to build the
    numeric gradient.  Per parameter tensor the error is
    ``|analytic - numeric| / max(1e-8, |numeric|)`` in the Euclidean norm;
    the maximum over tensors is returned.  (Entrywise ratios are
    meaningless in float64 at cancellation-zero partials, where central
    differences bottom out near 1e-11 absolute.)

    The numeric side stacks all 2n perturbed copies of a tensor along a
    leading axis and evaluates them with no-grad forward passes of
    ``_GRAD_CHECK_ROWS`` rows each; every row gets the loss that a forward
    pass with that one entry perturbed would give.
    """
    w_pos, w_neg = bce_weights(np.full(N_ATTRIBUTES, .5), 1.0)
    emb = np.asarray(sample.embedding, dtype=np.float64)
    gt = np.asarray(sample.gt_attrs, dtype=np.float64)
    label = int(sample.identity)
    obs = np.asarray(sample.attr_obs, dtype=np.float64)

    p = _param_vars(params, requires_grad=True)
    e1 = ad.const(emb)
    a1 = ad.const(obs) if attr_input == "obs" else None
    _, _, total = _total_loss(p, e1, a1, gt, label, strategy, params,
                              w_pos, w_neg, lambda_id)
    ad.backward(total)

    p_eval = _param_vars(params, requires_grad=False)
    worst = 0.0
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        losses = np.empty(2 * arr.size)
        for start in range(0, losses.size, _GRAD_CHECK_ROWS):
            stop = min(start + _GRAD_CHECK_ROWS, losses.size)
            stacked = {**p_eval, name: ad.const(_perturbation_rows(arr, GRAD_CHECK_EPS, start, stop))}
            out = _sample_losses(stacked, e1, a1, gt, label, strategy, params,
                                 w_pos, w_neg, lambda_id)
            # a tensor the loss does not read leaves the output unstacked
            losses[start:stop] = np.broadcast_to(out, (stop - start, 1))[:, 0]
        numeric = (losses[0::2] - losses[1::2]) / (2.0 * GRAD_CHECK_EPS)
        grad = p[name].grad
        ana = grad.reshape(-1) if grad is not None else np.zeros(arr.size)
        rel = float(np.linalg.norm(ana - numeric)) / max(1e-8, float(np.linalg.norm(numeric)))
        if rel > worst:
            worst = rel
    return worst


# Most rows attribute_accuracy scores at once, which bounds its
# peak memory whatever the size of the dataset.
_ACCURACY_ROWS = 256


def _row_chunks(n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of ceil(n / _ACCURACY_ROWS) chunks of nearly equal
    size covering ``range(n)``.  Balanced, because a small remainder chunk
    can take another BLAS path than one batch and round its probabilities
    differently; chunks of over half ``_ACCURACY_ROWS`` rows have matched
    one batch bit for bit in every case tried."""
    k = -(-n // _ACCURACY_ROWS)
    edges = [i * n // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def attribute_accuracy(params: FusionParams, dataset: TrainSample,
                       strategy: FusionStrategy = PREPROC_ATTR,
                       attr_input: str = "learned") -> float:
    """Mean per-attribute accuracy of thresholded predictions at 0.5.

    The dataset's columns are sliced and scored ``_row_chunks`` at a time;
    the per-attribute correct counts are summed as integers, so the result
    equals the one-batch ``correct.mean(axis=0).mean()`` bit for bit.
    Raises ValueError on an empty dataset.
    """
    n = len(dataset.identity)
    if not n:
        raise ValueError("empty dataset")
    counts = np.zeros(N_ATTRIBUTES, dtype=np.int64)
    for lo, hi in _row_chunks(n):
        obs = dataset.attr_obs[lo:hi] if attr_input == "obs" else None
        probs, _ = predict_attributes(dataset.embedding[lo:hi], obs, strategy, params)
        counts += ((probs >= 0.5) == (dataset.gt_attrs[lo:hi] >= 0.5)).sum(axis=0)
    return float((counts / n).mean())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MAGIC = b"attmot-fusion v1\n"


def save_fusion_head(path, params: FusionParams, strategy: FusionStrategy = PREPROC_ATTR) -> None:
    """Write params + strategy as a versioned binary blob (deterministic)."""
    header = {
        "dim": params.dim,
        "n_tokens": params.n_tokens,
        "n_identities": params.n_identities,
        "scale_scores": False,
        "strategy": {"kind": strategy.kind, "rounds": strategy.rounds},
        "arrays": [[name, list(getattr(params, name).shape)] for name in PARAM_FIELDS],
    }
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        for name in PARAM_FIELDS:
            fh.write(np.ascontiguousarray(getattr(params, name), dtype="<f8").tobytes())


def load_fusion_head(path) -> tuple[FusionParams, FusionStrategy]:
    """Read a ``save_fusion_head`` blob; a malformed or truncated file, one
    whose header declares an array larger than the bytes left, or one with
    bytes after the last array, raises ``ValueError`` naming it."""
    name = os.fspath(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a fusion-head file: {name}")
        try:
            header = json.loads(fh.readline().decode("ascii"))
            arrays = {}
            for field_name, shape in header["arrays"]:
                # checked before the read, so a forged shape allocates nothing
                n_bytes, left = 8 * math.prod(shape), size - fh.tell()
                if not 0 <= n_bytes <= left:
                    raise ValueError(f"array {field_name!r} of shape {shape} needs "
                                     f"{n_bytes} bytes, but {left} are left")
                arrays[field_name] = np.frombuffer(fh.read(n_bytes), "<f8").reshape(shape).copy()
            if fh.read(1):
                raise ValueError("bytes after the last array")
            if header["scale_scores"] is not False:
                raise ValueError("scale_scores must be false")
            params = FusionParams(dim=header["dim"], n_tokens=header["n_tokens"],
                                  n_identities=header["n_identities"], **arrays)
            strat = FusionStrategy(header["strategy"]["kind"], header["strategy"]["rounds"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"corrupt fusion-head file {name}: {exc!r}") from None
    return params, strat


def trace_to_csv(trace: list[TraceRow]) -> str:
    lines = ["iteration,bce,id_loss,total"]
    for row in trace:
        lines.append(f"{row.iteration},{row.bce:.10g},{row.id_loss:.10g},{row.total:.10g}")
    return "\n".join(lines) + "\n"
