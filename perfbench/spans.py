"""In-memory span tracer that times attmot's layers from outside the program.

Each wrapper replaces a public name on the object callers look it up on at
call time: a module attribute (``assoc.kalman_update``), or a class
attribute (``Tracker.step``).  ``assoc`` imports ``predict_attributes`` by
name, so that wrapper sits on ``assoc``, not on ``fusion``.  Nothing under
``src/`` is edited.  Private helpers (``_predict_all``, ``_gating_matrix``)
are not wrapped; their time falls into the self time of the enclosing span.

A span is ``[name, start, end, parent index, op id]``; spans stay in memory
and are written out once, after the pass.  Wrappers record only while
``Tracer.active`` is set, so the harness's own output checks leave no spans.
"""
from __future__ import annotations

import functools
import json
from collections import defaultdict

import numpy as np

from speed import ReferenceClock, clock

# Direct children of Tracker.step; step self time is step minus these.
STEP_CHILDREN = ("assoc.cost.iou", "assoc.cost.embed", "assoc.cost.embed_attr",
                 "assoc.assign", "assoc.kalman_update", "assoc.predict_attr")


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.ops: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin_op(self, label: str) -> None:
        """Start a new operation; later spans carry its id."""
        self.ops.append(label)

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``name`` is a span name, or a function of ``(args, kwargs)`` that
        returns one.  ``count(counts, args, kwargs, result)`` runs after the
        span closes and adds the layer's work counters.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1, len(tracer.ops) - 1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = clock()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "ops": self.ops, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# counters, measured where the work happens
# ---------------------------------------------------------------------------

def _count_observe(counts, args, kwargs, result):
    counts["synthgen.detections"] += len(result)


def _cost_name(args, kwargs):
    mode = _arg(args, kwargs, 2, "config").mode
    return "assoc.cost." + mode.replace("+", "_")


def _count_cost(counts, args, kwargs, result):
    _, infeasible = result
    counts["assoc.pairs"] += infeasible.size
    counts["assoc.feasible_pairs"] += infeasible.size - int(infeasible.sum())


def _count_assign(counts, args, kwargs, result):
    cost = _arg(args, kwargs, 0, "cost")
    counts["assoc.matches"] += len(result[0])
    counts["assoc.match_capacity"] += min(cost.shape)


def _count_frames(counts, args, kwargs, result):
    gt, pred = _arg(args, kwargs, 0, "gt"), _arg(args, kwargs, 1, "pred")
    counts["metrics.frames"] += len({e.frame for e in gt} | {e.frame for e in pred})


def _count_feature_parse(counts, args, kwargs, result):
    source = _arg(args, kwargs, 0, "source")
    with open(source, "rb") as fh:
        counts["motio.feature_bytes"] += fh.seek(0, 2)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of attmot."""
    from attmot import assoc, autodiff, core, fusion, metrics, motio, synthgen

    w = tracer.wrap
    w(synthgen, "simulate_sequence", "synthgen.simulate")
    w(synthgen, "observe_frame", "synthgen.observe", _count_observe)
    w(synthgen, "sample_training_crops", "synthgen.crops")
    w(assoc.Tracker, "step", "assoc.step")
    w(assoc, "build_cost_matrix", _cost_name, _count_cost)
    w(assoc, "solve_assignment", "assoc.assign", _count_assign)
    w(assoc, "kalman_update", "assoc.kalman_update")
    w(assoc, "predict_attributes", "assoc.predict_attr")
    w(core, "iou", "core.iou")
    w(metrics, "clear_metrics", "metrics.clear", _count_frames)
    w(metrics, "id_metrics", "metrics.id")
    w(metrics, "hota_metrics", "metrics.hota")
    for fn in ("parse_mot_file", "parse_attr_file", "write_mot_file", "write_det_file",
               "write_attr_file", "write_feature_file"):
        w(motio, fn, "motio." + fn.replace("_file", ""))
    w(motio, "parse_feature_file", "motio.parse_feature", _count_feature_parse)
    w(autodiff, "backward", "autodiff.backward")
    w(fusion, "train", "fusion.train")
    w(fusion, "grad_check", "fusion.grad_check")
    w(fusion, "attribute_accuracy", "fusion.accuracy")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, ref: ReferenceClock
                  ) -> tuple[dict[str, float], list[float], list[str]]:
    """Per-layer metrics of the recorded spans, the duration of every
    ``Tracker.step`` in ms, and the consistency checks that failed.  Span
    times are read on ``ref``, in reference seconds."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_time = [0.0] * len(tracer.spans)
    starts = ref(np.array([s[1] for s in tracer.spans])).tolist()
    ends = ref(np.array([s[2] for s in tracer.spans])).tolist()
    spans = [(name, start, end, parent) for (name, _, _, parent, _), start, end
             in zip(tracer.spans, starts, ends)]
    for name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    steps = [(end - start, end - start - child_time[i])
             for i, (name, start, end, _) in enumerate(spans) if name == "assoc.step"]
    c = tracer.counts
    out = {
        "synthgen.simulate_s": total["synthgen.simulate"],
        "synthgen.observe_s": total["synthgen.observe"],
        "synthgen.observe_calls": calls["synthgen.observe"],
        "synthgen.detections": c["synthgen.detections"],
        "synthgen.crops_s": total["synthgen.crops"],
        "assoc.step_s": total["assoc.step"],
        "assoc.step_self_s": sum(s for _, s in steps),
        "assoc.cost_s.iou": total["assoc.cost.iou"],
        "assoc.cost_s.embed": total["assoc.cost.embed"],
        "assoc.cost_s.embed_attr": total["assoc.cost.embed_attr"],
        "assoc.assign_s": total["assoc.assign"],
        "assoc.kalman_update_s": total["assoc.kalman_update"],
        "assoc.kalman_update_calls": calls["assoc.kalman_update"],
        "assoc.pairs": c["assoc.pairs"],
        "assoc.gate_pass_ratio": c["assoc.feasible_pairs"] / c["assoc.pairs"] if c["assoc.pairs"] else 0.0,
        "assoc.match_ratio": c["assoc.matches"] / c["assoc.match_capacity"] if c["assoc.match_capacity"] else 0.0,
        "core.iou_calls": calls["core.iou"],
        "assoc.predict_attr_s": total["assoc.predict_attr"],
        "assoc.predict_attr_calls": calls["assoc.predict_attr"],
        "metrics.clear_s": total["metrics.clear"],
        "metrics.id_s": total["metrics.id"],
        "metrics.hota_s": total["metrics.hota"],
        "metrics.frames": c["metrics.frames"],
        "motio.write_feature_s": total["motio.write_feature"],
        "motio.write_mot_s": total["motio.write_mot"],
        "motio.parse_feature_s": total["motio.parse_feature"],
        "motio.parse_mot_s": total["motio.parse_mot"],
        "motio.feature_bytes": c["motio.feature_bytes"],
        "motio.parse_feature_mb_per_s": (c["motio.feature_bytes"] / 1e6 / total["motio.parse_feature"]
                                         if total["motio.parse_feature"] else 0.0),
        "fusion.train_s": total["fusion.train"],
        "autodiff.backward_s": total["autodiff.backward"],
        "autodiff.backward_calls": calls["autodiff.backward"],
        "fusion.grad_check_s": total["fusion.grad_check"],
        "fusion.grad_check_calls": calls["fusion.grad_check"],
        "fusion.accuracy_s": total["fusion.accuracy"],
    }
    problems = []
    # Every call of a step child must sit inside a step span: the per-name
    # totals of the children plus step self time then rebuild the step total.
    rebuilt = sum(total[n] for n in STEP_CHILDREN) + out["assoc.step_self_s"]
    if abs(rebuilt - out["assoc.step_s"]) > 1e-6 + 1e-9 * out["assoc.step_s"]:
        problems.append(f"step children + self = {rebuilt:.6f} s, step = {out['assoc.step_s']:.6f} s")
    return out, [1e3 * d for d, _ in steps], problems
