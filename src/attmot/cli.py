"""Command-line orchestration: generate benchmarks, train the fusion head,
run trackers, evaluate and run ablation matrices.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
Each command imports only the modules it runs.  numpy is the only runtime
dependency: the assignment solver (``core.linear_sum_assignment``) and the
fusion head's tape are attmot's own, so no command loads scipy.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from . import core, motio, synthgen
from .configfile import (ConfigError, dump_world_config, load_config, strict_float,
                         strict_int, world_config_from_mapping)


class CliError(Exception):
    """Usage or configuration error (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _output(path: str | Path, directory: bool) -> Path:
    """``path`` as an output directory or file.  A path that exists as the
    other kind, or whose nearest existing ancestor is not a directory, is a
    usage error, raised before the command does any work."""
    out = Path(path)
    if out.exists():
        if directory and not out.is_dir():
            raise CliError(f"output directory {out} exists and is not a directory")
        if not directory and out.is_dir():
            raise CliError(f"output file {out} is a directory")
    else:
        ancestor = next((a for a in out.parents if a.exists()), None)
        if ancestor is not None and not ancestor.is_dir():
            raise CliError(f"cannot create output {out}: {ancestor} is not a directory")
    return out


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

_SEQUENCE_FILES = ("gt.txt", "det.txt", "feats.csv", "attrs.txt", "meta.jsonl")


def _write_sequence(bundle, seq_dir: Path) -> None:
    """Write one sequence's files; its observations live only for this call."""
    seq_dir.mkdir(exist_ok=True)
    (seq_dir / "gt.txt").write_text(motio.write_mot_file(bundle.gt_entries()), encoding="ascii")
    frames = synthgen.observe_all_frames(bundle)
    (seq_dir / "det.txt").write_text(motio.write_det_file(frames), encoding="ascii")
    feats = seq_dir / "feats.csv"
    try:
        with feats.open("w", encoding="ascii") as fh:
            motio.write_feature_file(frames, fh)
    except BaseException:
        # the writer streams a block at a time; leave no partial sidecar
        feats.unlink(missing_ok=True)
        raise
    (seq_dir / "attrs.txt").write_text(motio.write_attr_file(bundle.attributes), encoding="ascii")
    (seq_dir / "meta.jsonl").write_text(
        "\n".join(synthgen.occlusion_metadata_lines(bundle)) + "\n", encoding="ascii")


def _write_benchmark(config, n_sequences: int, out: Path) -> None:
    """Write a benchmark of ``n_sequences`` sequences to ``out``, each
    sequence as soon as it is simulated.  A directory that already holds a
    sequence this benchmark would not write is refused before anything is
    written, since ``track`` and ``eval`` would read it as part of it, and
    so is a path to be written that exists as the wrong kind."""
    names = [synthgen.sequence_name(s) for s in range(n_sequences)]
    if out.is_dir():
        stale = [p.name for p in _sequence_dirs(out, require=False) if p.name not in names]
        if stale:
            raise CliError(f"{out} holds sequence directories ({', '.join(stale)}) that a "
                           f"{n_sequences}-sequence benchmark does not write; remove them "
                           "or choose another directory")
    _output(out / "world.cfg", directory=False)
    for name in names:
        _output(out / name, directory=True)
        for file in _SEQUENCE_FILES:
            _output(out / name / file, directory=False)
    bundles = synthgen.iter_benchmark(config, n_sequences)
    out.mkdir(parents=True, exist_ok=True)
    (out / "world.cfg").write_text(dump_world_config(config, n_sequences), encoding="ascii")
    for bundle in bundles:
        _write_sequence(bundle, out / bundle.name)


def cmd_generate(config_path: str, out_dir: str) -> None:
    out = _output(out_dir, directory=True)
    config, n_sequences = world_config_from_mapping(load_config(config_path))
    _write_benchmark(config, n_sequences, out)
    print(f"wrote {n_sequences} sequence(s) to {out}")


# ---------------------------------------------------------------------------
# shared benchmark access
# ---------------------------------------------------------------------------

def _load_benchmark_config(bench: Path):
    cfg_path = bench / "world.cfg"
    if not cfg_path.is_file():
        raise CliError(f"no world.cfg under {bench}")
    return world_config_from_mapping(load_config(cfg_path))


def _sequence_dirs(bench: Path, require: bool = True) -> list[Path]:
    """The sequence directories (those holding a ``det.txt``) of a
    benchmark directory; ``require`` makes none a usage error."""
    if not bench.is_dir():
        raise CliError(f"benchmark {bench} is not a directory")
    dirs = sorted(p for p in bench.iterdir() if p.is_dir() and (p / "det.txt").is_file())
    if require and not dirs:
        raise CliError(f"no sequence directories under {bench}")
    return dirs


def _load_detections(seq_dir: Path):
    """The sequence's ``{frame: Detections}``, with features when it has a sidecar."""
    dets = motio.parse_mot_file(seq_dir / "det.txt", kind="det")
    feats = seq_dir / "feats.csv"
    if feats.is_file():
        dets = motio.parse_feature_file(feats, dets)
    return dets


def _load_gt(seq_dir: Path):
    return motio.parse_mot_file(seq_dir / "gt.txt", kind="gt")


def _checked(name: str, convert, value):
    """``convert(value)``; a value it refuses is a usage error naming ``name``."""
    try:
        return convert(value)
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise CliError(f"{name} {value!r}: {exc}") from None


def _int_at_least(low: int, value) -> int:
    """An int >= ``low``; text (a command-line argument) is read as base-10 digits."""
    value = strict_int(int(value) if isinstance(value, str) else value)
    if value < low:
        raise argparse.ArgumentTypeError(f"{value} is not >= {low}")
    return value


def positive_int(value) -> int:
    return _int_at_least(1, value)


def non_negative_int(value) -> int:
    return _int_at_least(0, value)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _train_head(config, n_sequences: int, strategy, seed: int, n_crops: int,
                iterations: int | None = None):
    """Fusion head trained on crops of the benchmark world; returns
    ``(params, loss trace, crops, train config)``."""
    from . import fusion

    bundles = synthgen.generate_benchmark(config, n_sequences)
    crops = synthgen.sample_training_crops(bundles, n_crops, seed=seed)
    tc = fusion.TrainConfig(seed=seed)
    if iterations is not None:
        tc = replace(tc, iterations=iterations)
    params, trace = fusion.train(crops, tc, strategy)
    return params, trace, crops, tc


def cmd_train(bench_dir: str, strategy_text: str, seed: int, out_path: str,
              n_crops: int = 5000, iterations: int | None = None,
              trace_path: str | None = None) -> None:
    from . import fusion

    out = _output(out_path, directory=False)
    trace_out = _output(trace_path, directory=False) if trace_path else None
    strategy = _checked("--strategy", fusion.FusionStrategy.parse, strategy_text)
    config, n_sequences = _load_benchmark_config(Path(bench_dir))
    params, trace, crops, tc = _train_head(config, n_sequences, strategy, seed, n_crops,
                                           iterations)
    acc = fusion.attribute_accuracy(params, crops, strategy, attr_input=tc.attr_input)
    for path in filter(None, (out, trace_out)):
        path.parent.mkdir(parents=True, exist_ok=True)
    fusion.save_fusion_head(out, params, strategy)
    if trace_out:
        trace_out.write_text(fusion.trace_to_csv(trace), encoding="ascii")
    print(f"trained {strategy} on {len(crops.identity)} crops: "
          f"loss {trace[0].total:.4f} -> {trace[-1].total:.4f}, "
          f"attribute accuracy {acc:.4f}")
    print(f"saved parameters to {out_path}")


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------

def _assoc_config_from_args(args):
    from . import assoc

    kwargs = dict(mode=args.mode, lambda_e=args.lambda_e, lambda_a=args.lambda_a,
                  attr_source=args.attr_source)
    if args.match_threshold is not None:
        kwargs["match_threshold"] = args.match_threshold
    try:
        return assoc.AssocConfig(**kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _track_sequence(frames, config, fusion_params) -> str:
    """Result-file text of one sequence's per-frame detections."""
    from . import assoc

    return motio.write_mot_file(assoc.run_sequence(frames, config, fusion_params))


def _check_head_dim(params_path: str, dim: int, seq_dirs: list[Path]) -> None:
    """Every sequence's feature sidecar must hold the head's dimension."""
    for seq_dir in seq_dirs:
        feats = seq_dir / "feats.csv"
        if feats.is_file() and (feat_dim := motio.parse_feature_dim(feats)) != dim:
            raise CliError(f"fusion head {params_path} has dimension {dim}, but {feats} "
                           f"holds embeddings of dimension {feat_dim}")


def cmd_track(bench_dir: str, config, params_path: str | None, out_dir: str) -> None:
    out = _output(out_dir, directory=True)
    bench = Path(bench_dir)
    seq_dirs = _sequence_dirs(bench)
    for seq_dir in seq_dirs:
        _output(out / f"{seq_dir.name}.txt", directory=False)
    fusion_params = None
    if config.attr_source == "fusion":
        from . import fusion

        if not params_path:
            raise CliError("--params is required with --attr-source fusion")
        if not Path(params_path).is_file():
            raise CliError(f"no fusion head file {params_path}")
        fusion_params = fusion.load_fusion_head(params_path)
        _check_head_dim(params_path, fusion_params[0].dim, seq_dirs)
    out.mkdir(parents=True, exist_ok=True)
    for seq_dir in seq_dirs:
        text = _track_sequence(_load_detections(seq_dir), config, fusion_params)
        (out / f"{seq_dir.name}.txt").write_text(text, encoding="ascii")
        n_boxes = text.count("\n")
        print(f"{seq_dir.name}: {n_boxes} boxes")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(gt_dir: str, res_dir: str, out_csv: str | None):
    from . import metrics

    out = _output(out_csv, directory=False) if out_csv else None
    seq_dirs = _sequence_dirs(Path(gt_dir))
    res_files = [Path(res_dir) / f"{seq_dir.name}.txt" for seq_dir in seq_dirs]
    missing = [str(f) for f in res_files if not f.is_file()]
    if missing:
        raise CliError("missing result file(s): " + ", ".join(missing))
    report = metrics.evaluate_sequences([
        (seq_dir.name, _load_gt(seq_dir), motio.parse_mot_file(res_file, kind="gt"))
        for seq_dir, res_file in zip(seq_dirs, res_files)])
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_csv(), encoding="ascii")
    print(report.to_table(), end="")
    return report


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

ABLATE_KEYS = ("benchmark", "variants", "seeds", "attr_source", "lambda_e", "lambda_a",
               "train_strategy", "train_seed", "train_crops")


def _refuse_repeats(what: str, values: list) -> None:
    """A value an ablate spec lists twice is a usage error naming it."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise CliError(f"repeated ablate {what}(s) " + ", ".join(map(repr, repeated)))


def _run_csv(runs_dir: Path, mode: str, seed: int) -> Path:
    """The per-seed metrics file of one variant."""
    return runs_dir / f"{mode.replace('+', 'P')}_seed{seed}.csv"


def cmd_ablate(spec_path: str, out_dir: str) -> None:
    """Median metrics of every variant over the seeds.  Each seed's run is
    ``generate -> track -> eval`` on a temporary benchmark, loaded once."""
    from . import assoc, metrics

    out = _output(out_dir, directory=True)
    runs_dir = _output(out / "runs", directory=True)
    spec = load_config(spec_path)
    unknown = [key for key in spec if key not in ABLATE_KEYS]
    if unknown:
        raise CliError(f"{spec_path}: unknown ablate spec key(s) "
                       + ", ".join(map(repr, unknown)))
    bench_dir = spec.get("benchmark")
    if not bench_dir:
        raise CliError("ablate spec needs 'benchmark = <dir>'")
    variants_raw = spec.get("variants", ())
    if isinstance(variants_raw, str):
        variants_raw = (variants_raw,) if variants_raw else ()
    variants = [str(v).strip() for v in variants_raw if str(v).strip()]
    if not variants:
        raise CliError("no variants")
    _refuse_repeats("variant", variants)

    def value(key, default, convert):
        return _checked(f"ablate spec key {key}", convert, spec.get(key, default))

    seeds = value("seeds", 0,
                  lambda v: [strict_int(s) for s in (v if isinstance(v, tuple) else (v,))])
    _refuse_repeats("seed", seeds)
    for path in (out / "report.csv", out / "report.txt",
                 *(_run_csv(runs_dir, mode, seed) for mode in variants for seed in seeds)):
        _output(path, directory=False)
    attr_source = str(spec.get("attr_source", "obs"))
    lambda_e = value("lambda_e", 1.0, strict_float)
    lambda_a = value("lambda_a", 1.0, strict_float)
    if attr_source == "fusion":
        from . import fusion

        strategy = value("train_strategy", "preproc-attr",
                         lambda v: fusion.FusionStrategy.parse(str(v)))
        train_seed = value("train_seed", 0, non_negative_int)
        train_crops = value("train_crops", 5000, positive_int)

    bench = Path(bench_dir)
    if not bench.is_absolute():
        bench = Path(spec_path).parent / bench
    base_config, n_sequences = _load_benchmark_config(bench)

    configs = {}
    for mode in variants:
        try:
            configs[mode] = assoc.AssocConfig(mode=mode, attr_source=attr_source,
                                              lambda_e=lambda_e, lambda_a=lambda_a)
        except ValueError as exc:
            raise CliError(f"variant {mode!r}: {exc}") from None

    runs_dir.mkdir(parents=True, exist_ok=True)

    fusion_params = None
    if attr_source == "fusion":
        params, *_ = _train_head(base_config, n_sequences, strategy, train_seed, train_crops)
        fusion_params = (params, strategy)

    cols = (*(c.lower() for c in metrics.REPORT_COLUMNS), "deta")
    rows_by_variant: dict[str, list[tuple]] = {v: [] for v in variants}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            _write_benchmark(replace(base_config, seed=seed), n_sequences, Path(tmp))
            sequences = [(d.name, _load_detections(d), _load_gt(d))
                         for d in _sequence_dirs(Path(tmp))]
        for mode, acfg in configs.items():
            report = metrics.evaluate_sequences([
                (name, gt, motio.parse_mot_file(
                    _track_sequence(frames, acfg, fusion_params).encode("ascii"), kind="gt"))
                for name, frames, gt in sequences])
            _run_csv(runs_dir, mode, seed).write_text(report.to_csv(), encoding="ascii")
            a = report.aggregate()
            rows_by_variant[mode].append((*a.row(), a.hota.deta))

    lines = ["variant," + ",".join(cols)]
    table = ["variant".ljust(14) + "".join(c.upper().rjust(10) for c in cols)]
    for mode in variants:
        med = dict(zip(cols, map(statistics.median, zip(*rows_by_variant[mode]))))
        lines.append(mode + "," + ",".join(f"{med[c]:.6g}" for c in cols))
        table.append(mode.ljust(14) + "".join(
            (f"{med[c]:.3f}" if c not in ("fn", "fp", "ids") else f"{med[c]:g}").rjust(10)
            for c in cols))
    (out / "report.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    report_txt = "\n".join(table) + "\n"
    (out / "report.txt").write_text(report_txt, encoding="ascii")
    print(report_txt, end="")


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

    p = sub.add_parser("train", help="train the fusion head on benchmark crops")
    p.add_argument("-b", "--benchmark", required=True)
    p.add_argument("--strategy", default="preproc-attr",
                   help="fusion strategy (default preproc-attr; e.g. cross-fertilize:2)")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--crops", type=positive_int, default=5000)
    p.add_argument("--iterations", type=positive_int, default=None)
    p.add_argument("--trace", default=None, help="write the loss trace CSV here")
    p.add_argument("-o", "--out", required=True, help="parameter file to write")

    p = sub.add_parser("track", help="run the tracker over a benchmark")
    p.add_argument("-b", "--benchmark", required=True)
    p.add_argument("--mode", default="embed", choices=core.COST_MODES)
    p.add_argument("--lambda-e", type=float, default=1.0)
    p.add_argument("--lambda-a", type=float, default=1.0)
    p.add_argument("--match-threshold", type=float, default=None)
    p.add_argument("--attr-source", default="obs", choices=("obs", "fusion"))
    p.add_argument("--params", default=None, help="trained fusion head file")
    p.add_argument("-o", "--out", required=True, help="result directory")

    p = sub.add_parser("eval", help="evaluate result files against a benchmark")
    p.add_argument("--gt", required=True, help="benchmark directory")
    p.add_argument("--res", required=True, help="result directory")
    p.add_argument("-o", "--out", default=None, help="metrics CSV to write")

    p = sub.add_parser("ablate", help="run an ablation matrix from a spec file")
    p.add_argument("-s", "--spec", required=True)
    p.add_argument("-o", "--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            cmd_generate(args.config, args.out)
        elif args.command == "train":
            cmd_train(args.benchmark, args.strategy, args.seed, args.out,
                      n_crops=args.crops, iterations=args.iterations,
                      trace_path=args.trace)
        elif args.command == "track":
            cmd_track(args.benchmark, _assoc_config_from_args(args), args.params, args.out)
        elif args.command == "eval":
            cmd_eval(args.gt, args.res, args.out)
        elif args.command == "ablate":
            cmd_ablate(args.spec, args.out)
        return 0
    except (CliError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
