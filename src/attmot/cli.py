"""Command-line orchestration: generate benchmarks, train the fusion head,
run trackers, evaluate and run ablation matrices.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import assoc, fusion, metrics, motio, synthgen
from .configfile import ConfigError, dump_world_config, load_config, world_config_from_mapping


class CliError(Exception):
    """Usage or configuration error (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parallel_map(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _write_sequence(seq_dir: Path, bundle) -> None:
    seq_dir.mkdir(parents=True, exist_ok=True)
    gt = bundle.gt_entries()
    (seq_dir / "gt.txt").write_text(motio.write_mot_file(gt), encoding="ascii")
    dets = [d for frame in synthgen.observe_all_frames(bundle).values() for d in frame]
    (seq_dir / "det.txt").write_text(motio.write_det_file(dets), encoding="ascii")
    (seq_dir / "feats.csv").write_text(motio.write_feature_file(dets), encoding="ascii")
    (seq_dir / "attrs.txt").write_text(
        motio.write_attr_file(bundle.attribute_table()), encoding="ascii")
    (seq_dir / "meta.jsonl").write_text(
        "\n".join(synthgen.occlusion_metadata_lines(bundle)) + "\n", encoding="ascii")


def cmd_generate(config_path: str, out_dir: str, jobs: int = 1) -> None:
    mapping = load_config(config_path)
    config, n_sequences = world_config_from_mapping(mapping)
    bundles = synthgen.generate_benchmark(config, n_sequences)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "world.cfg").write_text(dump_world_config(config, n_sequences), encoding="ascii")
    _parallel_map(lambda b: _write_sequence(out / b.name, b), bundles, jobs)
    print(f"wrote {n_sequences} sequence(s) to {out}")


# ---------------------------------------------------------------------------
# shared benchmark access
# ---------------------------------------------------------------------------

def _load_benchmark_config(bench: Path):
    cfg_path = bench / "world.cfg"
    if not cfg_path.is_file():
        raise CliError(f"no world.cfg under {bench}")
    return world_config_from_mapping(load_config(cfg_path))


def _sequence_dirs(bench: Path) -> list[Path]:
    dirs = sorted(p for p in bench.iterdir() if p.is_dir() and (p / "det.txt").is_file())
    if not dirs:
        raise CliError(f"no sequence directories under {bench}")
    return dirs


def _load_detections(seq_dir: Path):
    dets = motio.parse_mot_file(seq_dir / "det.txt", kind="det")
    feats = seq_dir / "feats.csv"
    if feats.is_file():
        dets = motio.parse_feature_file(feats, dets)
    return motio.group_by_frame(dets)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(bench_dir: str, strategy_text: str, seed: int, out_path: str,
              n_crops: int = 5000, iterations: int | None = None,
              trace_path: str | None = None) -> None:
    bench = Path(bench_dir)
    config, n_sequences = _load_benchmark_config(bench)
    strategy = fusion.FusionStrategy.parse(strategy_text)
    bundles = synthgen.generate_benchmark(config, n_sequences)
    crops = synthgen.sample_training_crops(bundles, n_crops, seed=seed)
    tc = fusion.TrainConfig(seed=seed)
    if iterations is not None:
        tc = replace(tc, iterations=iterations)
    params, trace = fusion.train(crops, tc, strategy)
    acc = fusion.attribute_accuracy(params, crops, strategy, attr_input=tc.attr_input)
    fusion.save_fusion_head(out_path, params, strategy)
    if trace_path:
        Path(trace_path).write_text(fusion.trace_to_csv(trace), encoding="ascii")
    print(f"trained {strategy} on {len(crops)} crops: "
          f"loss {trace[0].total:.4f} -> {trace[-1].total:.4f}, "
          f"attribute accuracy {acc:.4f}")
    print(f"saved parameters to {out_path}")


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------

def _assoc_config_from_args(args) -> assoc.AssocConfig:
    kwargs = dict(mode=args.mode, lambda_e=args.lambda_e, lambda_a=args.lambda_a,
                  attr_source=args.attr_source)
    if args.match_threshold is not None:
        kwargs["match_threshold"] = args.match_threshold
    try:
        return assoc.AssocConfig(**kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _track_one(seq_dir: Path, config: assoc.AssocConfig, fusion_params, out_dir: Path):
    frames = _load_detections(seq_dir)
    n_frames = max(frames) if frames else 0
    outputs = assoc.run_sequence(frames, config, fusion_params, n_frames=n_frames)
    entries = assoc.outputs_to_entries(outputs)
    (out_dir / f"{seq_dir.name}.txt").write_text(motio.write_mot_file(entries),
                                                 encoding="ascii")
    return seq_dir.name, len(outputs)


def cmd_track(bench_dir: str, config: assoc.AssocConfig, params_path: str | None,
              out_dir: str, jobs: int = 1) -> None:
    bench = Path(bench_dir)
    seq_dirs = _sequence_dirs(bench)
    fusion_params = None
    if config.attr_source == "fusion":
        if not params_path:
            raise CliError("--params is required with --attr-source fusion")
        fusion_params = fusion.load_fusion_head(params_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = _parallel_map(lambda s: _track_one(s, config, fusion_params, out),
                            seq_dirs, jobs)
    for name, n in results:
        print(f"{name}: {n} boxes")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(gt_dir: str, res_dir: str, out_csv: str | None, jobs: int = 1) -> metrics.MetricsReport:
    bench = Path(gt_dir)
    res = Path(res_dir)
    seq_dirs = _sequence_dirs(bench)

    def load_pair(seq_dir: Path):
        gt = motio.parse_mot_file(seq_dir / "gt.txt", kind="gt")
        res_file = res / f"{seq_dir.name}.txt"
        pred = motio.parse_mot_file(res_file, kind="gt") if res_file.is_file() else []
        return seq_dir.name, gt, pred

    pairs = _parallel_map(load_pair, seq_dirs, jobs)
    report = metrics.evaluate_sequences(pairs)
    if out_csv:
        Path(out_csv).write_text(report.to_csv(), encoding="ascii")
    print(report.to_table(), end="")
    return report


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def cmd_ablate(spec_path: str, out_dir: str, jobs: int = 1) -> None:
    spec = load_config(spec_path)
    bench_dir = spec.get("benchmark")
    if not bench_dir:
        raise CliError("ablate spec needs 'benchmark = <dir>'")
    variants_raw = spec.get("variants", ())
    if isinstance(variants_raw, str):
        variants_raw = (variants_raw,) if variants_raw else ()
    variants = [str(v).strip() for v in variants_raw if str(v).strip()]
    if not variants:
        raise CliError("no variants")
    seeds_raw = spec.get("seeds", 0)
    seeds = [int(s) for s in (seeds_raw if isinstance(seeds_raw, tuple) else (seeds_raw,))]
    attr_source = str(spec.get("attr_source", "obs"))
    strategy_text = str(spec.get("train_strategy", "preproc-attr"))
    train_seed = int(spec.get("train_seed", 0))
    lambda_e = float(spec.get("lambda_e", 1.0))
    lambda_a = float(spec.get("lambda_a", 1.0))

    bench = Path(bench_dir)
    if not bench.is_absolute():
        bench = Path(spec_path).parent / bench
    base_config, n_sequences = _load_benchmark_config(bench)

    out = Path(out_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    for mode in variants:
        try:
            assoc.AssocConfig(mode=mode, attr_source=attr_source)
        except ValueError as exc:
            raise CliError(f"variant {mode!r}: {exc}") from None

    fusion_params = None
    if attr_source == "fusion":
        bundles = synthgen.generate_benchmark(base_config, n_sequences)
        crops = synthgen.sample_training_crops(bundles, int(spec.get("train_crops", 5000)),
                                               seed=train_seed)
        strategy = fusion.FusionStrategy.parse(strategy_text)
        params, _ = fusion.train(crops, fusion.TrainConfig(seed=train_seed), strategy)
        fusion_params = (params, strategy)

    def canonical(bundle):
        # Round-trip everything through the file formats (in memory) so an
        # ablation run reproduces the generate -> track -> eval pipeline
        # bit-for-bit, including serialization rounding.
        dets = [d for frame in synthgen.observe_all_frames(bundle).values() for d in frame]
        bare = motio.parse_mot_file(motio.write_det_file(dets).encode(), "det")
        full = motio.parse_feature_file(motio.write_feature_file(dets).encode(), bare)
        gt = motio.parse_mot_file(motio.write_mot_file(bundle.gt_entries()).encode(), "gt")
        return motio.group_by_frame(full), gt

    rows_by_variant: dict[str, list[dict]] = {v: [] for v in variants}
    for seed in seeds:
        config = replace(base_config, seed=seed)
        bundles = synthgen.generate_benchmark(config, n_sequences)
        observations = _parallel_map(canonical, bundles, jobs)
        for mode in variants:
            acfg = assoc.AssocConfig(mode=mode, attr_source=attr_source,
                                     lambda_e=lambda_e, lambda_a=lambda_a)

            def run_one(pair):
                bundle, (frames, gt) = pair
                outputs = assoc.run_sequence(frames, acfg, fusion_params,
                                             n_frames=bundle.n_frames)
                entries = assoc.outputs_to_entries(outputs)
                entries = motio.parse_mot_file(motio.write_mot_file(entries).encode(), "gt")
                return (bundle.name, gt, entries)

            triples = _parallel_map(run_one, list(zip(bundles, observations)), jobs)
            report = metrics.evaluate_sequences(triples)
            (runs_dir / f"{mode.replace('+', 'P')}_seed{seed}.csv").write_text(
                report.to_csv(), encoding="ascii")
            agg = report.aggregate()
            rows_by_variant[mode].append({
                "seed": seed,
                "mota": agg.clear.mota, "fn": agg.clear.fn, "fp": agg.clear.fp,
                "ids": agg.clear.idsw, "hota": agg.hota.hota, "assa": agg.hota.assa,
                "idr": agg.ids.idr, "idp": agg.ids.idp, "idf1": agg.ids.idf1,
                "deta": agg.hota.deta,
            })

    cols = ("mota", "fn", "fp", "ids", "hota", "assa", "idr", "idp", "idf1", "deta")
    lines = ["variant," + ",".join(cols)]
    table = ["variant".ljust(14) + "".join(c.upper().rjust(10) for c in cols)]
    for mode in variants:
        med = {c: statistics.median([r[c] for r in rows_by_variant[mode]]) for c in cols}
        lines.append(mode + "," + ",".join(f"{med[c]:.6g}" for c in cols))
        table.append(mode.ljust(14) + "".join(
            (f"{med[c]:.3f}" if c not in ("fn", "fp", "ids") else f"{med[c]:g}").rjust(10)
            for c in cols))
    (out / "report.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    report_txt = "\n".join(table) + "\n"
    (out / "report.txt").write_text(report_txt, encoding="ascii")
    print(report_txt, end="")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify() -> int:
    """Fast self-checks of the core invariants; returns failure count."""
    import itertools

    from .core import BBox
    checks: list[tuple[str, bool]] = []

    def check(name, ok):
        checks.append((name, bool(ok)))

    b = BBox(0, 0, 10, 10)
    from .core import attribute_distance, cosine_distance, iou, occlusion_fraction
    check("iou identity", iou(b, b) == 1.0)
    check("iou hand case", abs(iou(b, BBox(5, 0, 10, 10)) - 1 / 3) < 1e-12)
    check("occlusion bounds", 0.0 <= occlusion_fraction(b, BBox(0, 0, 5, 10)) <= 1.0)
    check("cosine orthogonal", abs(cosine_distance([1, 0], [0, 1]) - 1.0) < 1e-12)
    check("attr distance", abs(attribute_distance(np.full(32, .5), np.zeros(32)) - .5) < 1e-12)

    rng = np.random.default_rng(0)
    ok = True
    for n in range(1, 6):
        c = rng.uniform(0, 5, (n, n))
        m, _, _ = assoc.solve_assignment(c)
        total = sum(c[r, col] for r, col in m)
        brute = min(sum(c[i, p[i]] for i in range(n))
                    for p in itertools.permutations(range(n)))
        ok &= abs(total - brute) < 1e-9
    check("assignment optimal (n<=5)", ok)

    s = assoc.kalman_init(BBox(100, 100, 50, 100))
    s2 = assoc.kalman_predict(s)
    check("kalman trace grows", np.trace(s2.covariance) > np.trace(s.covariance))
    s3 = assoc.kalman_update(s2, s2.box())
    check("kalman zero innovation", np.allclose(s3.mean[:4], s2.mean[:4], atol=1e-9))

    params = fusion.FusionParams.random(16, n_identities=3, n_tokens=4, seed=1)
    sample = fusion.TrainSample(rng.normal(size=16), rng.uniform(0, 1, 32), 1,
                                (rng.uniform(0, 1, 32) > .5).astype(float))
    check("gradients vs finite differences",
          fusion.grad_check(params, sample, fusion.PREPROC_ATTR) <= 1e-4)
    check("uniform bce anchor",
          abs(fusion.weighted_bce_loss(np.full(32, .5), np.zeros(32),
                                       np.full(32, .5), uniform=True) - np.log(2)) < 1e-9)

    from .core import GtEntry
    gt = [GtEntry(f, i, BBox(60 * i, 10, 40, 80)) for f in range(1, 4) for i in (1, 2)]
    rep = metrics.clear_metrics(gt, gt)
    check("clear perfect", rep.mota == 1.0 and rep.idsw == 0)
    check("idf1 perfect", metrics.id_metrics(gt, gt).idf1 == 1.0)
    check("hota perfect", metrics.hota_metrics(gt, gt).hota == 1.0)

    text = motio.write_mot_file(gt)
    check("mot round-trip", motio.write_mot_file(motio.parse_mot_file(text.encode(), "gt")) == text)

    failures = 0
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        failures += 0 if passed else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return failures


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="attmot",
                     description="Attribute-assisted tracking on synthetic benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic benchmark")
    p.add_argument("-c", "--config", required=True, help="world config file")
    p.add_argument("-o", "--out", required=True, help="output benchmark directory")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("train", help="train the fusion head on benchmark crops")
    p.add_argument("-b", "--benchmark", required=True)
    p.add_argument("--strategy", default="preproc-attr",
                   help="fusion strategy (default preproc-attr; e.g. cross-fertilize:2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crops", type=int, default=5000)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--trace", default=None, help="write the loss trace CSV here")
    p.add_argument("-o", "--out", required=True, help="parameter file to write")

    p = sub.add_parser("track", help="run the tracker over a benchmark")
    p.add_argument("-b", "--benchmark", required=True)
    p.add_argument("--mode", default="embed", choices=assoc.COST_MODES)
    p.add_argument("--lambda-e", type=float, default=1.0)
    p.add_argument("--lambda-a", type=float, default=1.0)
    p.add_argument("--match-threshold", type=float, default=None)
    p.add_argument("--attr-source", default="obs", choices=("obs", "fusion"))
    p.add_argument("--params", default=None, help="trained fusion head file")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--out", required=True, help="result directory")

    p = sub.add_parser("eval", help="evaluate result files against a benchmark")
    p.add_argument("--gt", required=True, help="benchmark directory")
    p.add_argument("--res", required=True, help="result directory")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--out", default=None, help="metrics CSV to write")

    p = sub.add_parser("ablate", help="run an ablation matrix from a spec file")
    p.add_argument("-s", "--spec", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--out", required=True)

    sub.add_parser("verify", help="run fast built-in invariant checks")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            cmd_generate(args.config, args.out, args.jobs)
        elif args.command == "train":
            cmd_train(args.benchmark, args.strategy, args.seed, args.out,
                      n_crops=args.crops, iterations=args.iterations,
                      trace_path=args.trace)
        elif args.command == "track":
            cmd_track(args.benchmark, _assoc_config_from_args(args), args.params,
                      args.out, args.jobs)
        elif args.command == "eval":
            cmd_eval(args.gt, args.res, args.out, args.jobs)
        elif args.command == "ablate":
            cmd_ablate(args.spec, args.out, args.jobs)
        elif args.command == "verify":
            return 2 if cmd_verify() else 0
        return 0
    except (CliError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
