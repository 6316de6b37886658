"""attmot benchmark: time the simulate -> observe -> track -> score loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports attmot from ``src/``
and exits with code 2, printing no result, when that is missing.  Workloads
(``perfbench/NOTES.md`` says why each was chosen):

- ``occluded-crossing``: in process, criterion-6 world, three cost modes;
- ``cli-roundtrip``: ``attmot generate``, ``track`` and ``eval`` as separate
  processes, the way a user runs them;
- ``fusion-head``: fusion-head training, gradient checks, and tracking with
  the trained head's attributes.

Load is a closed loop from one process: passes run one after another, each
in a fresh interpreter, until the next would end after ``--seconds``; at
least two passes always run, so the digests of their outputs can be
compared.  BLAS runs one thread, and the run, its passes and the CLI
commands they start share one CPU with a machine-speed sampler
(``speed.py``).  Times are reported in reference seconds: each measured
interval is scaled by the machine's speed during it, as the sampler saw
it; the measured seconds are printed beside them and kept in the record.
``--trace 0`` reports the end-to-end metrics as medians over passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, the tracing overhead and the quality
figures.  Every metric is printed with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, with the environment, every pass and the sampler's samples,
goes to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from passes import WORKLOADS
from speed import KERNEL_REF_S, PAD_S, ReferenceClock, clock, read_samples

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # a run must end within 180 s, so a hung pass is stopped before

# Reported with the end-to-end metrics but not in BENCHMARK.json: each runs
# on one workload only, so it has no value to bound on the others.
STAGE_ONLY = {"train_s": "s", "gradcheck_s": "s"}
QUALITY = {"occluded-crossing": ("idf1_gap_pts", "idsw_ratio"), "fusion-head": ("attr_accuracy",)}


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def python(code: str) -> str:
    """Run a snippet in a fresh interpreter with the benchmark's environment."""
    return subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                          capture_output=True, text=True, cwd=ROOT, timeout=60).stdout


ENV_PROBE = """
import ctypes, glob, json, os, platform, numpy, scipy, attmot
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
threads = None
for lib in libs:
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            threads = fn()
            break
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
                  "blas_threads": threads, "attmot": os.path.dirname(attmot.__file__)}))
"""

IMPORT_PROBE = ("import time; t = time.clock_gettime(time.CLOCK_MONOTONIC); import attmot.cli; "
                "print(t, time.clock_gettime(time.CLOCK_MONOTONIC))")


def environment() -> dict:
    env = json.loads(python(ENV_PROBE))
    if Path(env["attmot"]).resolve() != (ROOT / "src" / "attmot").resolve():
        raise RuntimeError(f"attmot imported from {env['attmot']}, not from this checkout")
    env.update(attmot="src/attmot", nproc=os.cpu_count(), machine=platform.machine(),
               blas_threads_requested=BLAS_THREADS, cpu=sorted(os.sched_getaffinity(0)),
               kernel_ref_s=KERNEL_REF_S)
    return env


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, t_limit: float):
        self.workload, self.seed, self.workdir, self.t_limit = workload, seed, workdir, t_limit
        self.child: subprocess.Popen | None = None
        self.samples_path = workdir / "speed.bin"
        self.sampler: subprocess.Popen | None = None

    def start_sampler(self) -> None:
        self.sampler = subprocess.Popen([sys.executable, str(BENCH / "speed.py"),
                                         str(self.samples_path)], env=child_env(), cwd=ROOT)
        while self.sampler.poll() is None and not self.samples():
            time.sleep(0.05)
        if not self.samples():
            raise RuntimeError("the speed sampler took no sample")

    def samples(self) -> list[tuple[float, float]]:
        return read_samples(self.samples_path) if self.samples_path.is_file() else []

    def reference_clock(self) -> ReferenceClock:
        time.sleep(PAD_S)  # the samples that close the last interval
        return ReferenceClock(self.samples())

    def run_pass(self, index: int, traced: bool, inproc: bool) -> dict:
        record_path = self.workdir / f"pass-{index}.json"
        spec = {"workload": self.workload, "seed": self.seed, "traced": traced,
                "inproc": inproc, "workdir": str(self.workdir / f"pass-{index}"),
                "samples": str(self.samples_path),
                "record": str(record_path)}
        spec_path = self.workdir / f"pass-{index}-spec.json"
        t_spawn = clock()
        spec_path.write_text(json.dumps({**spec, "t_spawn": t_spawn}), encoding="ascii")
        self.child = subprocess.Popen(
            [sys.executable, str(BENCH / "passes.py"), str(spec_path)], env=child_env(),
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = self.child.communicate(timeout=max(1.0, self.t_limit - clock()))
        except subprocess.TimeoutExpired:
            self.stop()
            err = b"pass timed out"
        self.child = None
        duration = clock() - t_spawn
        if not record_path.is_file():
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            return {"aborted": "pass crashed: " + " | ".join(tail), "duration": duration,
                    "ops": [{"label": "pass", "failure": "no record"}]}
        record = json.loads(record_path.read_text("ascii"))
        record["duration"] = duration
        spans_path = self.workdir / f"pass-{index}" / "spans.json"
        if spans_path.is_file():
            spans_path.replace(OUT / f"{self.workload}-seed{self.seed}-spans.json")
        shutil.rmtree(self.workdir / f"pass-{index}", ignore_errors=True)
        return record

    @staticmethod
    def scale(record: dict, ref: ReferenceClock) -> None:
        """Replace the measured times by reference seconds; keep them under ``raw``."""
        record["raw"] = {"setup_s": record["setup_s"], "wall_s": record["wall_s"],
                         **record["stages"]}
        scaled: dict[str, float] = defaultdict(float)
        for name, start, end in record["intervals"]:
            scaled[name] += ref.seconds(start, end)
        record["setup_s"] = scaled.pop("setup_s")
        record["wall_s"] = scaled.pop("wall_s")
        record["stages"] = dict(scaled)

    def stop(self) -> None:
        """Stop the running pass, every process it started, and the sampler."""
        if self.child is not None and self.child.poll() is None:
            os.killpg(self.child.pid, signal.SIGKILL)
            self.child.wait()
        if self.sampler is not None:
            if self.sampler.poll() is None:
                self.sampler.kill()
            self.sampler.wait()


def median_of(records: list[dict], get) -> float:
    return statistics.median(get(r) for r in records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "attmot" / "__init__.py").is_file():
        print(f"error: no attmot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t_begin = clock()
    # One CPU for the run, its passes, their CLI commands and the sampler.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(args.workload, args.seed, workdir, t_begin + RUN_LIMIT_S)
    # On SIGTERM, unwind through the finally below, which stops the pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        runner.start_sampler()
        env = environment()  # also compiles attmot's bytecode before any timing
        import_s = []
        if args.trace:
            imports = [tuple(map(float, python(IMPORT_PROBE).split())) for _ in range(3)]
            ref = runner.reference_clock()
            import_s = [ref.seconds(start, end) for start, end in imports]
        deadline = t_begin + args.seconds
        records: list[dict] = []
        while True:
            traced = bool(args.trace) and len(records) % 2 == 1
            inproc = bool(args.trace) and args.workload == "cli-roundtrip"
            records.append(runner.run_pass(len(records), traced, inproc))
            if records[-1]["aborted"]:
                break
            if len(records) >= 2 and not (args.trace and len(records) % 2):
                pass_s = statistics.median(r["duration"] for r in records)
                if clock() + pass_s > deadline:
                    break
        ref = runner.reference_clock()
        for record in records:
            if not record["aborted"]:
                runner.scale(record, ref)
    finally:
        runner.stop()
        samples = runner.samples()
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, env, records, import_s, samples)


def report(args, env: dict, records: list[dict], import_s: list[float],
           samples: list[tuple[float, float]]) -> int:
    e2e_units, layer_units = declared_metrics()
    ops = [op for r in records for op in r["ops"]]
    failures = [f"{op['label']}: {op['failure']}" for op in ops if op["failure"]]
    done = [r for r in records if not r["aborted"]]
    problems = [r["aborted"] for r in records if r["aborted"]]
    digests = {r["digest"] for r in done}
    if len(digests) > 1:
        problems.append("output digests differ between passes")
    untraced = [r for r in done if "layers" not in r]
    traced = [r for r in done if "layers" in r]
    for r in traced:
        problems.extend(r["trace_problems"])
    counts = {json.dumps({k: v for k, v in r["layers"].items() if layer_units[k] == "count"},
                         sort_keys=True) for r in traced}
    if len(counts) > 1:
        problems.append("per-layer counts differ between traced passes")
    if not untraced or (args.trace and not traced):
        result = {"correct": False, "attempted": len(ops), "failed": len(failures), "metrics": {}}
        write_record(args, env, records, result, failures, problems, speed_samples=samples)
        print(f"error: no pass completed: {problems + failures}", file=sys.stderr)
        print(json.dumps(result))
        return 1

    values = {name: median_of(untraced, lambda r, n=name: r.get(n, r["stages"].get(n, 0.0)))
              for name in [*e2e_units, *STAGE_ONLY]}
    measured = {name: median_of(untraced, lambda r, n=name: r["raw"].get(n, 0.0))
                for name in [*e2e_units, *STAGE_ONLY] if name in untraced[0]["raw"]}
    quality = {name: median_of(done, lambda r, n=name: r["quality"][n])
               for name in QUALITY.get(args.workload, ())}
    quality["failed_op_ratio"] = len(failures) / len(ops)
    if args.trace:
        values = {name: median_of(traced, lambda r, n=name: r["layers"][n])
                  for name in traced[0]["layers"]}
        step_ms = [ms for r in traced for ms in r["step_ms"]]
        cuts = statistics.quantiles(step_ms, n=100, method="inclusive")
        values.update({"assoc.step_p50_ms": cuts[49], "assoc.step_p99_ms": cuts[98],
                       "assoc.step_samples": len(step_ms)})
        values["cli.import_s"] = statistics.median(import_s)
        values["trace.overhead_ratio"] = (median_of(traced, lambda r: r["wall_s"])
                                          / median_of(untraced, lambda r: r["wall_s"]))
        values.update({name: quality.get(name, 0.0) for name in layer_units if name not in values})
        units = layer_units
    else:
        units = e2e_units
    if set(values) - set(STAGE_ONLY) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    metrics = {name: values[name] for name in units}
    correct = not failures and not problems

    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']} with {env['blas_threads']} thread(s), nproc {env['nproc']}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(records)} passes "
          f"({len(untraced)} untraced, {len(traced)} traced); values are medians over "
          f"{len(traced) if args.trace else len(untraced)} passes")
    for name, value in metrics.items():
        note = f"  (measured {measured[name]:.6f})" if not args.trace and name in measured else ""
        print(f"  {name:32s} {value:14.6f} {units[name]}{note}")
    if not args.trace:
        for name, unit in STAGE_ONLY.items():
            if values[name]:
                print(f"  {name:32s} {values[name]:14.6f} {unit}  (measured "
                      f"{measured[name]:.6f}; this workload only)")
        for name, value in quality.items():
            print(f"  {name:32s} {value:14.6f} {layer_units[name]}  (quality)")
    print(f"checks: {'ok' if correct else 'FAILED'}; {len(ops)} operations, {len(failures)} "
          f"failed; output digest {done[0]['digest'] if done else '-'} "
          f"({'identical across' if len(digests) == 1 else 'differs between'} {len(done)} passes)")
    for line in failures + problems:
        print(f"  FAILED: {line}")

    result = {"correct": correct, "attempted": len(ops), "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    write_record(args, env, records, result, failures, problems, measured=measured,
                 stage_only={name: values.get(name) for name in STAGE_ONLY}, quality=quality,
                 speed_samples=samples)
    print(json.dumps(result))
    return 0


def write_record(args, env: dict, records: list[dict], result: dict, failures: list[str],
                 problems: list[str], **extra) -> None:
    """The run's full record: environment, result, and every pass."""
    done = [r for r in records if not r["aborted"]]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "result": result, **extra,
              "digest": done[0]["digest"] if done else None,
              "outputs": done[0]["outputs"] if done else {}, "failures": failures,
              "problems": problems,
              "passes": [{k: r.get(k) for k in ("duration", "setup_s", "wall_s", "stages", "raw",
                                                "intervals", "peak_rss_mb", "digest", "aborted")}
                         | {"traced": "layers" in r} for r in records]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="ascii")


if __name__ == "__main__":
    sys.exit(main())
