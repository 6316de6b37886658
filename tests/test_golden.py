"""Golden SHA-256 digests of every CLI output on a tiny world.

One module-scoped run drives ``attmot generate``, ``train``, ``track`` (all
four cost modes plus ``--attr-source fusion``), ``eval`` and ``ablate``
(one ``attr_source = obs`` spec and one ``attr_source = fusion`` spec), and
each stage's files must hash to the digests in ``golden_digests.json``.  A
refactor that claims to keep outputs byte-identical keeps this file as it
is.  When outputs change on purpose, print the new digests with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change.

The world has enough crossings that the four modes' result files differ.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from attmot.assoc import COST_MODES
from attmot.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_digests.json")

WORLD_CFG = """attmot-config v1
n_sequences = 2
n_identities = 15
n_frames = 80
w_crossing = 0.8
seed = 6
"""

ABLATE_SPECS = {
    "ablate-obs": "variants = iou,embed,attr,embed+attr\nseeds = 3,4\n",
    "ablate-fusion": ("variants = embed,embed+attr\nseeds = 5\nattr_source = fusion\n"
                      "train_crops = 400\ntrain_seed = 2\n"),
}
STAGES = ("generate", "train", "track", "eval", "ablate")


def _tree(root: Path, prefix: str) -> dict[str, str]:
    return {f"{prefix}/{p.relative_to(root).as_posix()}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_pipeline(work: Path) -> dict[str, str]:
    """Run every command into ``work``; returns {output path: sha256}."""
    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    cfg = work / "world.cfg"
    cfg.write_text(WORLD_CFG)
    bench = work / "generate"
    run("generate", "-c", cfg, "-o", bench)
    head = work / "train" / "head.bin"
    head.parent.mkdir()
    run("train", "-b", bench, "--seed", "2", "--crops", "400", "--iterations", "30",
        "-o", head)
    runs = {mode: ["--mode", mode] for mode in COST_MODES}
    runs["fusion"] = ["--mode", "embed+attr", "--attr-source", "fusion", "--params", head]
    (work / "eval").mkdir()
    for name, opts in runs.items():
        res = work / "track" / name.replace("+", "P")
        run("track", "-b", bench, *opts, "-o", res)
        run("eval", "--gt", bench, "--res", res, "-o", work / "eval" / f"{res.name}.csv")
    for name, body in ABLATE_SPECS.items():
        spec = work / f"{name}.cfg"
        spec.write_text(f"attmot-config v1\nbenchmark = {bench}\n{body}")
        run("ablate", "-s", spec, "-o", work / "ablate" / name)
    digests = {}
    for stage in STAGES:
        digests.update(_tree(work / stage, stage))
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("stage", STAGES)
def test_stage_outputs_match_golden_digests(digests, golden, stage):
    want = {k: v for k, v in golden.items() if k.startswith(stage + "/")}
    got = {k: v for k, v in digests.items() if k.startswith(stage + "/")}
    assert want, f"no golden digests for {stage}"
    assert got == want


def test_modes_give_distinct_results(golden):
    tracks = [tuple(golden[f"track/{m.replace('+', 'P')}/seq-000{i}.txt"] for i in (0, 1))
              for m in COST_MODES]
    assert len(set(tracks)) == len(tracks)


def test_trace_harness_finds_every_wrapped_name():
    # perfbench/spans.py replaces public attmot names by getattr/setattr; a
    # deleted or renamed name would break every traced benchmark pass.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")])}
    proc = subprocess.run([sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["occluded-crossing", "cli-roundtrip"])
def test_benchmark_pass_runs_clean(tmp_path, workload):
    # perfbench/passes.py threads attmot's return values from one call to
    # the next (tables, reports, result files); one untraced pass must run
    # every operation without a failure.
    spec = {"workload": workload, "seed": 1, "traced": False, "inproc": False,
            "workdir": str(tmp_path / "work"), "record": str(tmp_path / "record.json"),
            "samples": str(tmp_path / "samples.bin"), "t_spawn": 0.0}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")])}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "passes.py"),
                           str(tmp_path / "spec.json")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["aborted"] is None
    assert record["ops"] and [op for op in record["ops"] if op["failure"]] == []


if __name__ == "__main__":
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        new = run_pipeline(Path(tmp))
    print(json.dumps(new, indent=1, sort_keys=True))
