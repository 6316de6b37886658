"""One pass of one benchmark workload, run in a fresh interpreter.

``run.py`` starts this file once per pass, so every pass pays its own
imports and each pass's set-up time and peak memory are measured alike:

    python3 perfbench/passes.py SPEC.json

SPEC names the workload, the seed, whether the pass is traced, whether the
CLI commands run in this process (``inproc``), a scratch directory, the
path of the record to write, the speed sampler's sample file (a traced
pass reads its span times on the ``speed.ReferenceClock`` of those
samples), and ``t_spawn``: the system-wide monotonic clock read by the
parent just before it started this process.  The record holds the measured
stage times with the intervals they were measured over (``run.py`` scales
them to reference seconds), the operations attempted and failed, the
output digests and, for a traced pass, the per-layer metrics.

The program receives only inputs generated here from the seed.  An
operation is a CLI command, a ``run_sequence``, an ``evaluate_sequences``,
a ``train`` or a ``grad_check`` call; it fails if it raises, exits
non-zero, or fails its output check.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from speed import PAD_S, ReferenceClock, clock, read_samples

N_SEQUENCES = {"occluded-crossing": 4, "cli-roundtrip": 4, "fusion-head": 2}
# The criterion-6 world: crossing-heavy, so identities occlude each other.
CROSSING_WORLD = dict(n_identities=15, n_frames=80, w_crossing=0.8, w_linear=0.1, w_loiter=0.1)
# The criterion-7 crop world.
CROP_WORLD = dict(n_identities=24, n_frames=60, latent_dim=256, latent_spread=0.5,
                  w_crossing=0.2, w_linear=0.6, w_loiter=0.2)
N_CROPS = 5000
TRACK_MODES = ("iou", "embed", "embed+attr")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Aborted(Exception):
    """An operation raised; the rest of the pass depends on its output."""


class Pass:
    """Stage timers, operation accounting and outputs of one pass."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.seed = int(spec["seed"])
        self.workdir = Path(spec["workdir"])
        self.tracer = None
        self.stages: dict[str, float] = {}
        self.intervals: list[tuple[str, float, float]] = []
        self.ops: list[dict] = []
        self.outputs: dict[str, str] = {}     # output name -> sha256
        self.quality: dict[str, float] = {}
        self.child_rss_kb = 0
        self.t_start = self.t_stop = 0.0

    # -- timing --------------------------------------------------------------
    def start(self) -> None:
        """End of set-up: the first timed stage begins now."""
        self.t_start = clock()
        if self.tracer is not None:
            self.tracer.active = True

    def stop(self) -> None:
        self.t_stop = clock()
        if self.tracer is not None:
            self.tracer.active = False

    @contextlib.contextmanager
    def stage(self, name: str):
        t0 = clock()
        try:
            yield
        finally:
            t1 = clock()
            self.stages[name] = self.stages.get(name, 0.0) + t1 - t0
            self.intervals.append((name, t0, t1))

    # -- operations ----------------------------------------------------------
    def op(self, label: str, fn, *args, **kwargs):
        """Run one operation; an exception fails it and aborts the pass."""
        record = {"label": label, "failure": None}
        self.ops.append(record)
        if self.tracer is not None:
            self.tracer.begin_op(label)
        try:
            return record, fn(*args, **kwargs)
        except Exception as exc:
            record["failure"] = f"raised {type(exc).__name__}: {exc}"
            raise Aborted(label) from exc

    @staticmethod
    def check(record: dict, ok: bool, what: str) -> None:
        if not ok and record["failure"] is None:
            record["failure"] = f"output check failed: {what}"

    def command(self, label: str, argv: list[str]) -> dict:
        """One ``attmot`` CLI command, as a child process or in process."""
        if self.spec["inproc"]:
            from attmot import cli

            with contextlib.redirect_stdout(io.StringIO()):
                record, rc = self.op(label, cli.main, argv)
        else:
            def run():
                with open(self.workdir / "stderr.txt", "ab") as err:
                    child = subprocess.Popen([sys.executable, "-m", "attmot", *argv],
                                             stdout=subprocess.DEVNULL, stderr=err)
                    _, status, usage = os.wait4(child.pid, 0)
                    child.returncode = os.waitstatus_to_exitcode(status)
                self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
                return child.returncode
            record, rc = self.op(label, run)
        self.check(record, rc == 0, f"exit code {rc}")
        if rc != 0:
            raise Aborted(label)
        return record

    # -- output checks -------------------------------------------------------
    def check_result_text(self, record: dict, name: str, text: str) -> None:
        """Result rows must survive motio parse -> write unchanged."""
        from attmot import motio

        again = motio.write_mot_file(motio.parse_mot_file(text.encode("ascii"), kind="gt"))
        self.check(record, again == text, f"{name} changes on parse -> write")
        self.outputs[name] = sha256(text.encode("ascii"))

    def check_report(self, record: dict, name: str, report) -> None:
        rows = [*report.sequences, report.aggregate()]
        ok = all(0.0 <= r.ids.idf1 <= 1.0 and 0.0 <= r.hota.hota <= 1.0 for r in rows)
        self.check(record, ok, f"{name}: IDF1 or HOTA outside [0, 1]")
        self.outputs[name] = sha256(report.to_csv().encode("ascii"))

    def record(self) -> dict:
        rss_kb = self.child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        t_spawn = float(self.spec["t_spawn"])
        return {
            "setup_s": self.t_start - t_spawn,
            "wall_s": self.t_stop - self.t_start,
            "stages": self.stages,
            "intervals": [("setup_s", t_spawn, self.t_start), ("wall_s", self.t_start, self.t_stop),
                          *self.intervals],
            "peak_rss_mb": rss_kb / 1024.0,
            "ops": self.ops,
            "outputs": self.outputs,
            "digest": sha256(json.dumps(self.outputs, sort_keys=True).encode("ascii")),
            "quality": self.quality,
        }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def occluded_crossing(p: Pass) -> None:
    """Criterion-6 world: simulate, observe, track in three cost modes, score."""
    from attmot import assoc, metrics, synthgen

    world = synthgen.WorldConfig(seed=p.seed, **CROSSING_WORLD)
    configs = {mode: assoc.AssocConfig(mode=mode, attr_source="obs") for mode in TRACK_MODES}
    p.start()
    with p.stage("generate_s"):
        bundles = synthgen.generate_benchmark(world, N_SEQUENCES["occluded-crossing"])
        frames = [synthgen.observe_all_frames(b) for b in bundles]
    tracked = {}
    with p.stage("track_s"):
        for mode, cfg in configs.items():
            tracked[mode] = [p.op(f"run_sequence {mode} {b.name}", assoc.run_sequence,
                                  f, cfg, n_frames=b.n_frames)
                             for b, f in zip(bundles, frames)]
    gts = [b.gt_entries() for b in bundles]
    entries = {mode: [assoc.outputs_to_entries(out) for _, out in runs]
               for mode, runs in tracked.items()}
    scored = {}
    with p.stage("eval_s"):
        for mode in TRACK_MODES:
            scored[mode] = p.op(f"evaluate_sequences {mode}", metrics.evaluate_sequences,
                                [(b.name, g, e) for b, g, e in zip(bundles, gts, entries[mode])])
    p.stop()

    from attmot import motio

    for mode in TRACK_MODES:
        for b, (record, _), e in zip(bundles, tracked[mode], entries[mode]):
            p.check_result_text(record, f"{mode}/{b.name}.txt", motio.write_mot_file(e))
        record, report = scored[mode]
        p.check_report(record, f"{mode}/report.csv", report)
    agg = {mode: scored[mode][1].aggregate() for mode in TRACK_MODES}
    p.quality["idf1_gap_pts"] = 100.0 * (agg["embed+attr"].ids.idf1 - agg["embed"].ids.idf1)
    p.quality["idsw_ratio"] = agg["embed+attr"].clear.idsw / max(1, agg["embed"].clear.idsw)


CLI_CONFIG = """attmot-config v1
n_sequences = {n}
n_identities = {n_identities}
n_frames = {n_frames}
w_crossing = {w_crossing}
w_linear = {w_linear}
w_loiter = {w_loiter}
seed = {seed}
"""


def cli_roundtrip(p: Pass) -> None:
    """``attmot generate -> track --mode embed+attr -> eval``, the way a user runs it."""
    config = p.workdir / "world.cfg"
    bench, res, report = p.workdir / "bench", p.workdir / "res", p.workdir / "report.csv"
    n = N_SEQUENCES["cli-roundtrip"]
    config.write_text(CLI_CONFIG.format(n=n, seed=p.seed, **CROSSING_WORLD), encoding="ascii")
    p.start()
    with p.stage("generate_s"):
        gen = p.command("attmot generate", ["generate", "-c", str(config), "-o", str(bench)])
    with p.stage("track_s"):
        track = p.command("attmot track",
                          ["track", "-b", str(bench), "--mode", "embed+attr", "-o", str(res)])
    with p.stage("eval_s"):
        ev = p.command("attmot eval", ["eval", "--gt", str(bench), "--res", str(res),
                                       "-o", str(report)])
    p.stop()

    sequences = sorted(d.name for d in bench.iterdir() if (d / "feats.csv").is_file())
    p.check(gen, len(sequences) == n, f"{len(sequences)} sequence directories for {n}")
    results = sorted(f.stem for f in res.glob("*.txt"))
    p.check(track, results == sequences, f"result files {results} for sequences {sequences}")
    for name in results:
        p.check_result_text(track, f"{name}.txt", (res / f"{name}.txt").read_text("ascii"))
    text = report.read_text("ascii")
    rows = [dict(zip(text.splitlines()[0].split(","), line.split(",")))
            for line in text.splitlines()[1:]]
    ok = len(rows) == n + 1 and all(0.0 <= float(r[k]) <= 1.0 for r in rows for k in ("idf1", "hota"))
    p.check(ev, ok, "report rows, or IDF1 or HOTA outside [0, 1]")
    p.outputs["report.csv"] = sha256(text.encode("ascii"))


def fusion_head(p: Pass) -> None:
    """Train the fusion head, check gradients, then track with its attributes."""
    import numpy as np

    from attmot import assoc, fusion, metrics, synthgen

    crop_world = synthgen.WorldConfig(seed=p.seed, **CROP_WORLD)
    track_world = synthgen.WorldConfig(seed=p.seed, **{**CROSSING_WORLD, "latent_dim": 256})
    rng = np.random.default_rng(np.random.SeedSequence([p.seed, 16]))
    gc_params = fusion.FusionParams.random(16, n_identities=3, n_tokens=4, seed=p.seed)
    gc_sample = fusion.TrainSample(
        embedding=rng.normal(size=16), attr_obs=rng.uniform(0, 1, 32),
        identity=int(rng.integers(3)), gt_attrs=(rng.uniform(0, 1, 32) > 0.5).astype(float))
    train_config = fusion.TrainConfig()
    p.start()
    with p.stage("generate_s"):
        crops = synthgen.sample_training_crops([synthgen.simulate_sequence(crop_world)],
                                               N_CROPS, seed=p.seed)
    with p.stage("train_s"):
        train, (params, loss_trace) = p.op("train", fusion.train, crops, train_config)
    with p.stage("eval_s"):
        accuracy = fusion.attribute_accuracy(params, crops, attr_input=train_config.attr_input)
    with p.stage("gradcheck_s"):
        checks = [p.op(f"grad_check {s}", fusion.grad_check, gc_params, gc_sample, s)
                  for s in fusion.all_strategies()]
    with p.stage("generate_s"):
        bundles = synthgen.generate_benchmark(track_world, N_SEQUENCES["fusion-head"])
        frames = [synthgen.observe_all_frames(b) for b in bundles]
    head = (params, fusion.PREPROC_ATTR)
    config = assoc.AssocConfig(mode="embed+attr", attr_source="fusion")
    with p.stage("track_s"):
        tracked = [p.op(f"run_sequence fusion {b.name}", assoc.run_sequence, f, config, head,
                        n_frames=b.n_frames)
                   for b, f in zip(bundles, frames)]
    rows = [(b.name, b.gt_entries(), assoc.outputs_to_entries(out))
            for b, (_, out) in zip(bundles, tracked)]
    with p.stage("eval_s"):
        ev, report = p.op("evaluate_sequences fusion", metrics.evaluate_sequences, rows)
    p.stop()

    from attmot import motio

    p.check(train, loss_trace[-1].total < loss_trace[0].total,
            f"loss {loss_trace[0].total:.4f} -> {loss_trace[-1].total:.4f} does not fall")
    p.check(train, accuracy >= 0.90, f"attribute accuracy {accuracy:.4f} < 0.90")
    head_path = p.workdir / "head.bin"
    fusion.save_fusion_head(head_path, params, fusion.PREPROC_ATTR)
    p.outputs["head.bin"] = sha256(head_path.read_bytes())
    head_path.unlink()
    for (record, err), s in zip(checks, fusion.all_strategies()):
        p.check(record, err <= 1e-4, f"grad_check {s} error {err:.3e} > 1e-4")
    for (record, _), (name, _, e) in zip(tracked, rows):
        p.check_result_text(record, f"{name}.txt", motio.write_mot_file(e))
    p.check_report(ev, "report.csv", report)
    p.quality["attr_accuracy"] = accuracy


WORKLOADS = {
    "occluded-crossing": occluded_crossing,
    "cli-roundtrip": cli_roundtrip,
    "fusion-head": fusion_head,
}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text("ascii"))
    p = Pass(spec)
    p.workdir.mkdir(parents=True, exist_ok=True)
    if spec["traced"]:
        import spans

        p.tracer = spans.Tracer()
        spans.install(p.tracer)
    if spec["inproc"]:
        import attmot.cli  # noqa: F401  (the commands run in this process)
    aborted = None
    try:
        WORKLOADS[spec["workload"]](p)
    except Aborted as exc:
        aborted = str(exc)
        p.stop()
    record = p.record()
    record["aborted"] = aborted
    if p.tracer is not None and aborted is None:
        time.sleep(PAD_S)  # the samples that close the last span
        ref = ReferenceClock(read_samples(Path(spec["samples"])))
        record["layers"], record["step_ms"], record["trace_problems"] = spans.layer_metrics(
            p.tracer, ref)
        p.tracer.dump(p.workdir / "spans.json")
    Path(spec["record"]).write_text(json.dumps(record), encoding="ascii")
    return 0 if aborted is None else 3


if __name__ == "__main__":
    sys.exit(main())
