"""Command-line orchestration: determinism, pipelines, exit codes."""
import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from attmot import synthgen
from attmot.cli import main
from attmot.configfile import (
    ConfigError,
    dump_world_config,
    parse_config_text,
    strict_int,
    world_config_from_mapping,
)
from attmot.synthgen import WorldConfig

WORLD_CFG = """attmot-config v1
n_sequences = 2
n_identities = 5
n_frames = 24
latent_dim = 32
seed = 9
"""


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture()
def bench(tmp_path):
    cfg = tmp_path / "world.cfg"
    cfg.write_text(WORLD_CFG)
    out = tmp_path / "bench"
    assert main(["generate", "-c", str(cfg), "-o", str(out)]) == 0
    return out


class TestConfigFile:
    def test_header_required(self):
        with pytest.raises(ConfigError, match="header"):
            parse_config_text("n_frames = 5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("attmot-config v1\na = 1\na = 2\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            world_config_from_mapping({"bogus": 1})

    def test_round_trip(self):
        cfg = WorldConfig(n_identities=7, seed=123)
        text = dump_world_config(cfg, 4)
        cfg2, n = world_config_from_mapping(parse_config_text(text))
        assert n == 4 and cfg2 == cfg

    @pytest.mark.parametrize("line,names", [
        ("n_sequences = 2.5", "config key n_sequences: 2.5 is not an integer"),
        ("n_sequences = abc", "config key n_sequences: 'abc' is not an integer"),
        ("n_identities = 3.5", "config key n_identities: 3.5 is not an integer"),
        ("seed = true", "config key seed: True is not an integer"),
    ], ids=["n_sequences-float", "n_sequences-text", "n_identities-float", "seed-bool"])
    def test_non_integer_count_is_usage_error(self, tmp_path, capsys, line, names):
        cfg = tmp_path / "world.cfg"
        cfg.write_text(f"attmot-config v1\nn_frames = 5\nlatent_dim = 8\n{line}\n")
        out = tmp_path / "bench"
        assert main(["generate", "-c", str(cfg), "-o", str(out)]) == 1
        assert names in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line,names", [
        ("jitter_sigma = true", "config key jitter_sigma: True is not a number"),
        ("miss_base = false", "config key miss_base: False is not a number"),
        ("prior.p_male = true", "config key prior.p_male: True is not a number"),
        ("prior.body = 0.2,true,0.8", "config key prior.body: True is not a number"),
        ("fp_rate = abc", "config key fp_rate: 'abc' is not a number"),
    ], ids=["jitter_sigma-bool", "miss_base-bool", "prior-scalar-bool", "prior-tuple-bool",
            "fp_rate-text"])
    def test_non_number_float_key_is_usage_error(self, tmp_path, capsys, line, names):
        cfg = tmp_path / "world.cfg"
        cfg.write_text(f"attmot-config v1\nn_frames = 5\nlatent_dim = 8\n{line}\n")
        out = tmp_path / "bench"
        assert main(["generate", "-c", str(cfg), "-o", str(out)]) == 1
        assert names in capsys.readouterr().err
        assert not out.exists()

    def test_int_in_float_key_is_kept(self):
        cfg, _ = world_config_from_mapping({"jitter_sigma": 2, "prior.body": (0, 1, 0)})
        assert cfg.jitter_sigma == 2 and cfg.prior.body == (0, 1, 0)

    def test_integral_float_counts_convert(self):
        cfg, n = world_config_from_mapping({"n_sequences": 3.0, "n_frames": 40.0})
        assert (n, cfg.n_frames) == (3, 40)
        assert type(n) is int and type(cfg.n_frames) is int

    @pytest.mark.parametrize("value", [True, False, 2.5, float("nan"), float("inf"), "3",
                                       None, (3,)])
    def test_strict_int_refuses(self, value):
        with pytest.raises(ValueError, match="is not an integer"):
            strict_int(value)

    def test_prior_keys(self):
        mapping = parse_config_text(
            "attmot-config v1\nprior.p_male = 0.25\nprior.body = 0.2,0.6,0.2\n")
        cfg, _ = world_config_from_mapping(mapping)
        assert cfg.prior.p_male == 0.25
        assert cfg.prior.body == (0.2, 0.6, 0.2)


class TestGenerate:
    def test_writes_expected_files(self, bench):
        assert sorted(p.name for p in bench.iterdir()) == ["seq-0000", "seq-0001", "world.cfg"]
        for seq in ("seq-0000", "seq-0001"):
            names = sorted(p.name for p in (bench / seq).iterdir())
            assert names == ["attrs.txt", "det.txt", "feats.csv", "gt.txt", "meta.jsonl"]

    def test_rerun_is_byte_identical(self, bench, tmp_path):
        cfg = tmp_path / "again.cfg"
        cfg.write_text(WORLD_CFG)
        out2 = tmp_path / "bench2"
        assert main(["generate", "-c", str(cfg), "-o", str(out2)]) == 0
        assert tree_digest(bench) == tree_digest(out2)

    def test_invalid_config_fails_before_writing(self, tmp_path, capsys):
        # each bad value is refused, naming its key, before anything is written
        for line in ("n_frames = 0", "miss_occ_gain = nan", "jitter_sigma = nan",
                     "attr_flip_occ_gain = nan", "fp_rate = nan", "w_crossing = nan",
                     "latent_spread = inf", "prior.body = nan,0.5,0.5"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"attmot-config v1\nn_identities = 3\n{line}\n")
            out = tmp_path / "never"
            assert main(["generate", "-c", str(cfg), "-o", str(out)]) == 1, line
            assert not out.exists(), line
            assert line.split(" =")[0] in capsys.readouterr().err, line

    def test_refuses_directory_with_stale_sequences(self, tmp_path, capsys):
        # a 2-sequence benchmark written over a 3-sequence one would leave
        # seq-0002 behind, and track and eval would read it as a third
        three, two = tmp_path / "three.cfg", tmp_path / "two.cfg"
        three.write_text(WORLD_CFG.replace("n_sequences = 2", "n_sequences = 3"))
        two.write_text(WORLD_CFG)
        out = tmp_path / "bench"
        assert main(["generate", "-c", str(three), "-o", str(out)]) == 0
        before = tree_digest(out)
        capsys.readouterr()
        assert main(["generate", "-c", str(two), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{out} holds sequence directories (seq-0002)" in err
        assert tree_digest(out) == before
        # a benchmark of the same sequences may be written over it
        assert main(["generate", "-c", str(three), "-o", str(out)]) == 0
        assert tree_digest(out) == before

    def test_bad_feature_row_leaves_no_sidecar(self, tmp_path, monkeypatch, capsys):
        # the sidecar is streamed in blocks of whole frames, so a row past the
        # first block that cannot be written (one %.10g writes as inf) fails
        # after a block has been written
        real = synthgen.observe_all_frames

        def poisoned(bundle):
            frames = real(bundle)
            rows = [(f, i) for f, frame in frames.items() for i in range(len(frame))]
            f, i = rows[300]
            emb = frames[f].embeddings.copy()
            emb[i, 0] = 1.7976931346e308
            frames[f] = replace(frames[f], embeddings=emb)
            return frames

        monkeypatch.setattr(synthgen, "observe_all_frames", poisoned)
        cfg = tmp_path / "world.cfg"
        cfg.write_text(WORLD_CFG.replace("n_sequences = 2", "n_sequences = 1")
                       .replace("n_frames = 24", "n_frames = 80"))
        out = tmp_path / "bench"
        assert main(["generate", "-c", str(cfg), "-o", str(out)]) == 2
        assert "feature row 301 " in capsys.readouterr().err
        assert sorted(p.name for p in (out / "seq-0000").iterdir()) == ["det.txt", "gt.txt"]

    def test_metadata_is_valid_jsonl(self, bench):
        lines = (bench / "seq-0000" / "meta.jsonl").read_text().strip().splitlines()
        assert len(lines) == 24
        row = json.loads(lines[3])
        assert row["frame"] == 4


class TestTrackEval:
    def test_pipeline(self, bench, tmp_path):
        runs = tmp_path / "runs"
        assert main(["track", "-b", str(bench), "--mode", "embed+attr",
                     "-o", str(runs)]) == 0
        assert sorted(p.name for p in runs.iterdir()) == ["seq-0000.txt", "seq-0001.txt"]
        report = tmp_path / "report.csv"
        assert main(["eval", "--gt", str(bench), "--res", str(runs),
                     "-o", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 2 sequences + aggregate
        agg = lines[-1].split(",")
        assert agg[0] == "AGGREGATE"
        assert float(agg[1]) > 0.5  # MOTA on an easy benchmark

    def test_track_deterministic(self, bench, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["track", "-b", str(bench), "--mode", "embed", "-o", str(out)]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_fusion_source_requires_params(self, bench, tmp_path):
        assert main(["track", "-b", str(bench), "--mode", "attr",
                     "--attr-source", "fusion", "-o", str(tmp_path / "x")]) == 1

    def test_fusion_head_dimension_must_match_sidecar(self, bench, tmp_path, capsys):
        from attmot import fusion

        head = tmp_path / "h16.bin"
        fusion.save_fusion_head(head, fusion.FusionParams.random(16, n_identities=3,
                                                                 n_tokens=4, seed=1))
        out = tmp_path / "x"
        assert main(["track", "-b", str(bench), "--mode", "attr", "--attr-source", "fusion",
                     "--params", str(head), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "dimension 16" in err and "dimension 32" in err
        assert not out.exists()

    def test_track_refuses_missing_fusion_head(self, bench, tmp_path, capsys):
        head = tmp_path / "nope.bin"
        assert main(["track", "-b", str(bench), "--mode", "embed+attr", "--attr-source",
                     "fusion", "--params", str(head), "-o", str(tmp_path / "x")]) == 1
        assert f"no fusion head file {head}" in capsys.readouterr().err

    def test_eval_refuses_missing_result_files(self, bench, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["track", "-b", str(bench), "--mode", "iou", "-o", str(runs)]) == 0
        (runs / "seq-0001.txt").unlink()
        report = tmp_path / "report.csv"
        assert main(["eval", "--gt", str(bench), "--res", str(runs), "-o", str(report)]) == 1
        assert str(runs / "seq-0001.txt") in capsys.readouterr().err
        assert not report.exists()
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["eval", "--gt", str(bench), "--res", str(empty)]) == 1
        err = capsys.readouterr().err
        assert str(empty / "seq-0000.txt") in err and str(empty / "seq-0001.txt") in err


class TestTrain:
    def test_train_writes_deterministic_artifacts(self, bench, tmp_path):
        out_a = tmp_path / "a.bin"
        out_b = tmp_path / "b.bin"
        for out, trace in ((out_a, tmp_path / "a.csv"), (out_b, tmp_path / "b.csv")):
            assert main(["train", "-b", str(bench), "--seed", "3", "-o", str(out),
                         "--crops", "300", "--iterations", "25",
                         "--trace", str(trace)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header == "iteration,bce,id_loss,total"

    def test_trained_head_tracks(self, bench, tmp_path):
        head = tmp_path / "head.bin"
        assert main(["train", "-b", str(bench), "--seed", "1", "-o", str(head),
                     "--crops", "300", "--iterations", "25"]) == 0
        out = tmp_path / "runs"
        assert main(["track", "-b", str(bench), "--mode", "embed+attr",
                     "--attr-source", "fusion", "--params", str(head),
                     "-o", str(out)]) == 0


class TestAblate:
    def _spec(self, tmp_path, bench, variants="embed,embed+attr", seeds="3"):
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            f"attmot-config v1\nbenchmark = {bench}\nvariants = {variants}\n"
            f"seeds = {seeds}\n")
        return spec

    def test_matrix_report(self, bench, tmp_path):
        spec = self._spec(tmp_path, bench, seeds="3,4")
        out = tmp_path / "abl"
        assert main(["ablate", "-s", str(spec), "-o", str(out)]) == 0
        report = (out / "report.csv").read_text().strip().splitlines()
        assert report[0] == "variant,mota,fn,fp,ids,hota,assa,idr,idp,idf1,deta"
        assert report[1].startswith("embed,")
        assert report[2].startswith("embed+attr,")
        runs = {p.name for p in (out / "runs").iterdir()}
        assert runs == {"embed_seed3.csv", "embed_seed4.csv",
                        "embedPattr_seed3.csv", "embedPattr_seed4.csv"}

    def test_empty_variants_error(self, bench, tmp_path):
        spec = self._spec(tmp_path, bench, variants="")
        assert main(["ablate", "-s", str(spec), "-o", str(tmp_path / "x")]) == 1

    def test_reaggregation_from_run_csvs(self, bench, tmp_path):
        import statistics
        spec = self._spec(tmp_path, bench, variants="embed", seeds="3,4,5")
        out = tmp_path / "abl"
        assert main(["ablate", "-s", str(spec), "-o", str(out)]) == 0
        motas = []
        for seed in (3, 4, 5):
            rows = (out / "runs" / f"embed_seed{seed}.csv").read_text().strip().splitlines()
            agg = [r for r in rows if r.startswith("AGGREGATE,")][0]
            motas.append(float(agg.split(",")[1]))
        report = (out / "report.csv").read_text().strip().splitlines()[1].split(",")
        assert float(report[1]) == pytest.approx(statistics.median(motas), abs=1e-6)

    def test_single_variant_single_seed_equals_pipeline(self, bench, tmp_path):
        # the ablation path must reproduce the generate -> track -> eval
        # pipeline exactly for the same world seed
        spec = self._spec(tmp_path, bench, variants="embed", seeds="9")  # world seed
        out = tmp_path / "abl"
        assert main(["ablate", "-s", str(spec), "-o", str(out)]) == 0

        runs = tmp_path / "direct_runs"
        report = tmp_path / "direct.csv"
        assert main(["track", "-b", str(bench), "--mode", "embed", "-o", str(runs)]) == 0
        assert main(["eval", "--gt", str(bench), "--res", str(runs),
                     "-o", str(report)]) == 0

        ablate_rows = (out / "runs" / "embed_seed9.csv").read_text()
        assert ablate_rows == report.read_text()

    def test_unknown_spec_key_is_usage_error(self, bench, tmp_path, capsys):
        # misspelt 'seeds' and 'lambda_a' must not silently run seed 0 with
        # lambda_a = 1.0
        spec = tmp_path / "spec.cfg"
        spec.write_text(f"attmot-config v1\nbenchmark = {bench}\nvariants = embed+attr\n"
                        "seed = 7\nlambda_attr = 5\n")
        out = tmp_path / "abl"
        assert main(["ablate", "-s", str(spec), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "unknown ablate spec key(s) 'seed', 'lambda_attr'" in err
        assert not out.exists()

    def test_repeated_variant_is_usage_error(self, bench, tmp_path, capsys):
        spec = self._spec(tmp_path, bench, variants="embed,iou,embed")
        out = tmp_path / "abl"
        assert main(["ablate", "-s", str(spec), "-o", str(out)]) == 1
        assert "repeated ablate variant(s) 'embed'" in capsys.readouterr().err
        assert not out.exists()

    def test_idempotent(self, bench, tmp_path):
        spec = self._spec(tmp_path, bench, variants="embed", seeds="2")
        a, b = tmp_path / "o1", tmp_path / "o2"
        for out in (a, b):
            assert main(["ablate", "-s", str(spec), "-o", str(out)]) == 0
        assert tree_digest(a) == tree_digest(b)


class TestExitCodes:
    def test_usage_error(self):
        assert main(["track"]) == 1  # missing required args

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_config(self, tmp_path):
        assert main(["generate", "-c", str(tmp_path / "nope.cfg"),
                     "-o", str(tmp_path / "x")]) == 1

    def test_runtime_failure_is_exit_2(self, bench, tmp_path):
        (bench / "seq-0000" / "det.txt").write_text("1,1,not,a,number,x,1\n")
        assert main(["track", "-b", str(bench), "--mode", "iou",
                     "-o", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv,names", [
        (["train", "--strategy", "bogus"], "--strategy 'bogus'"),
        (["train", "--strategy", "cross-fertilize:x"], "--strategy 'cross-fertilize:x'"),
        (["train", "--crops", "0"], "argument --crops: 0 is not >= 1"),
        (["train", "--iterations", "0"], "argument --iterations: 0 is not >= 1"),
        (["ablate", "lambda_e = abc"], "ablate spec key lambda_e 'abc'"),
        (["ablate", "seeds = x"], "ablate spec key seeds 'x'"),
        (["ablate", "attr_source = fusion\ntrain_strategy = nope"],
         "ablate spec key train_strategy 'nope'"),
        (["ablate", "attr_source = fusion\ntrain_crops = 0"],
         "ablate spec key train_crops 0: 0 is not >= 1"),
        (["track", "--mode", "embed+attr", "--lambda-e", "nan"],
         "lambda_e must be finite, not nan"),
        (["track", "--mode", "embed+attr", "--lambda-a", "inf"],
         "lambda_a must be finite, not inf"),
        (["track", "--match-threshold", "nan"], "match_threshold must be finite, not nan"),
        (["ablate", "lambda_e = nan"], "variant 'embed': lambda_e must be finite, not nan"),
        (["ablate", "lambda_a = -inf"], "variant 'embed': lambda_a must be finite, not -inf"),
        (["ablate", "lambda_a = true"], "ablate spec key lambda_a True: True is not a number"),
        (["ablate", "lambda_e = false"], "ablate spec key lambda_e False: False is not a number"),
        (["ablate", "seeds = 1.5"], "ablate spec key seeds 1.5: 1.5 is not an integer"),
        (["ablate", "seeds = 3,true"],
         "ablate spec key seeds (3, True): True is not an integer"),
        (["ablate", "attr_source = fusion\ntrain_seed = 2.5"],
         "ablate spec key train_seed 2.5: 2.5 is not an integer"),
        (["ablate", "attr_source = fusion\ntrain_crops = 2.5"],
         "ablate spec key train_crops 2.5: 2.5 is not an integer"),
        (["ablate", "attr_source = fusion\ntrain_crops = true"],
         "ablate spec key train_crops True: True is not an integer"),
        (["train", "--seed", "-1"], "argument --seed: -1 is not >= 0"),
        (["ablate", "attr_source = fusion\ntrain_seed = -1"],
         "ablate spec key train_seed -1: -1 is not >= 0"),
        (["train", "--strategy", "preproc-attr:3"],
         "--strategy 'preproc-attr:3': fusion strategy 'preproc-attr' takes no rounds, got 3"),
        (["ablate", "attr_source = fusion\ntrain_strategy = attr-only:2"],
         "ablate spec key train_strategy 'attr-only:2': fusion strategy 'attr-only' takes "
         "no rounds, got 2"),
    ], ids=["strategy", "strategy-rounds", "crops", "iterations", "lambda_e", "seeds",
            "train_strategy", "train_crops", "track-lambda_e-nan", "track-lambda_a-inf",
            "track-threshold-nan", "lambda_e-nan", "lambda_a-inf", "lambda_a-bool",
            "lambda_e-bool", "seeds-float",
            "seeds-bool", "train_seed-float", "train_crops-float", "train_crops-bool",
            "seed-negative", "train_seed-negative", "strategy-rounds-non-iterated",
            "train_strategy-rounds-non-iterated"])
    def test_bad_argument_is_usage_error(self, bench, tmp_path, capsys, argv, names):
        out = tmp_path / "out"
        if argv[0] in ("train", "track"):
            argv = [*argv, "-b", str(bench), "-o", str(out)]
        else:
            spec = tmp_path / "spec.cfg"
            spec.write_text(f"attmot-config v1\nbenchmark = {bench}\nvariants = embed\n"
                            f"{argv[1]}\n")
            argv = ["ablate", "-s", str(spec), "-o", str(out)]
        assert main(argv) == 1
        assert names in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_cost_mode_is_usage_error(self, bench, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["track", "-b", str(bench), "--mode", "concat", "-o", str(out)]) == 1
        assert "'concat'" in capsys.readouterr().err
        spec = tmp_path / "spec.cfg"
        spec.write_text(f"attmot-config v1\nbenchmark = {bench}\nvariants = embed,concat\n"
                        "seeds = 3\n")
        assert main(["ablate", "-s", str(spec), "-o", str(out)]) == 1
        assert "variant 'concat': unknown cost mode 'concat'" in capsys.readouterr().err
        assert not out.exists()


class TestCommandImports:
    """Each command runs in a fresh interpreter with only the modules it needs."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def run(self, *args):
        env = {**os.environ, "PYTHONPATH": str(self.SRC)}
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=300)

    def loaded(self, *argv) -> list[str]:
        """Modules loaded by one command in a fresh interpreter."""
        code = ("import sys; from attmot.cli import main; "
                f"rc = main({list(map(str, argv))!r}); "
                "print(rc); print(' '.join(sorted(sys.modules)))")
        proc = self.run("-c", code)
        assert proc.returncode == 0, proc.stderr
        rc, modules = proc.stdout.splitlines()[-2:]
        assert rc == "0"
        return modules.split()

    @staticmethod
    def scipy_modules(loaded: list[str]) -> list[str]:
        return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]

    def test_generate_loads_no_scipy_and_no_tracking_modules(self, tmp_path):
        cfg = tmp_path / "world.cfg"
        cfg.write_text(WORLD_CFG)
        loaded = self.loaded("generate", "-c", cfg, "-o", tmp_path / "b")
        assert "attmot.synthgen" in loaded and "attmot.motio" in loaded
        unwanted = self.scipy_modules(loaded) + [
            m for m in loaded
            if m in ("attmot.assoc", "attmot.metrics", "attmot.fusion", "attmot.autodiff")]
        assert unwanted == []

    def test_track_and_eval_load_no_scipy(self, bench, tmp_path):
        runs = tmp_path / "runs"
        loaded = self.loaded("track", "-b", bench, "--mode", "embed+attr", "-o", runs)
        assert "attmot.assoc" in loaded
        assert self.scipy_modules(loaded) == []
        assert "attmot.fusion" not in loaded
        loaded = self.loaded("eval", "--gt", bench, "--res", runs)
        assert "attmot.metrics" in loaded
        assert self.scipy_modules(loaded) == []
        assert "numpy.ma" not in loaded

    def test_obs_ablate_loads_no_scipy_and_no_fusion_head(self, bench, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text(f"attmot-config v1\nbenchmark = {bench}\nvariants = embed+attr\n"
                        "seeds = 3\nattr_source = obs\n")
        loaded = self.loaded("ablate", "-s", spec, "-o", tmp_path / "abl")
        assert "attmot.assoc" in loaded and "attmot.metrics" in loaded
        unwanted = self.scipy_modules(loaded) + [
            m for m in loaded if m in ("attmot.fusion", "attmot.autodiff")]
        assert unwanted == []

    def test_train_and_fusion_track_load_no_scipy(self, bench, tmp_path):
        head = tmp_path / "head.bin"
        loaded = self.loaded("train", "-b", bench, "--crops", "200", "--iterations", "5",
                             "-o", head)
        assert "attmot.autodiff" in loaded
        assert self.scipy_modules(loaded) == []
        loaded = self.loaded("track", "-b", bench, "--mode", "embed+attr", "--attr-source",
                             "fusion", "--params", head, "-o", tmp_path / "fused")
        assert "attmot.fusion" in loaded
        assert self.scipy_modules(loaded) == []

    def test_every_module_imports_with_scipy_blocked(self):
        # a None entry in sys.modules makes any ``import scipy...`` fail
        code = ("import sys; sys.modules['scipy'] = None; "
                + "; ".join(f"import attmot.{p.stem}" for p in sorted(
                    (self.SRC / "attmot").glob("*.py")) if p.stem != "__main__"))
        proc = self.run("-c", code)
        assert proc.returncode == 0, proc.stderr

    def test_track_eval_train_run_from_fresh_interpreters(self, bench, tmp_path):
        runs, head = tmp_path / "runs", tmp_path / "head.bin"
        for argv in (["track", "-b", bench, "--mode", "embed+attr", "-o", runs],
                     ["eval", "--gt", bench, "--res", runs, "-o", tmp_path / "report.csv"],
                     ["train", "-b", bench, "--crops", "200", "--iterations", "5", "-o", head],
                     ["track", "-b", bench, "--mode", "attr", "--attr-source", "fusion",
                      "--params", head, "-o", tmp_path / "fused"]):
            proc = self.run("-m", "attmot", *map(str, argv))
            assert proc.returncode == 0, (argv, proc.stderr)
        assert (tmp_path / "report.csv").read_text().startswith("sequence,")
        assert sorted(p.name for p in (tmp_path / "fused").iterdir()) == [
            "seq-0000.txt", "seq-0001.txt"]


class TestDependencies:
    """numpy is the only runtime dependency; scipy is a test oracle."""

    ROOT = Path(__file__).resolve().parent.parent

    def test_no_module_imports_scipy(self):
        found = []
        for path in sorted((self.ROOT / "src" / "attmot").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
        assert found == []

    def test_runtime_dependencies_are_numpy_alone(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((self.ROOT / "pyproject.toml").read_text())["project"]
        assert [re.match(r"[A-Za-z0-9_.-]+", d)[0] for d in project["dependencies"]] == ["numpy"]
        assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
