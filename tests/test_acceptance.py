"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Budgets are asserted
with wall-clock checks; tolerances are pinned in the assertions.
"""
import itertools
import math
import statistics
import time

import numpy as np
import pytest

from attmot import fusion, metrics, motio, synthgen
from attmot.assoc import AssocConfig, run_sequence, outputs_to_entries, solve_assignment
from attmot.core import BBox, GtEntry
from attmot.fusion import (
    FusionParams,
    TrainConfig,
    TrainSample,
    all_strategies,
    grad_check,
    identity_loss,
    train,
    weighted_bce_loss,
)
from attmot.synthgen import WorldConfig, generate_benchmark, observe_all_frames


def _report(name, detail=""):
    print(f"PASS  {name}" + (f"  [{detail}]" if detail else ""))


def test_criterion_1_assignment_oracle():
    """solve_assignment matches exhaustive permutation search, 100 random
    matrices per size 1x1..7x7, exact total cost, under 5 seconds."""
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    for n in range(1, 8):
        perms = np.array(list(itertools.permutations(range(n))))
        rows = np.arange(n)
        for _ in range(100):
            cost = rng.uniform(0.0, 10.0, (n, n))
            matches, unmatched_rows, unmatched_cols = solve_assignment(cost)
            assert unmatched_rows == [] and unmatched_cols == []
            total = sum(cost[r, c] for r, c in matches)
            brute = cost[rows[None, :], perms].sum(axis=1).min()
            assert total == pytest.approx(brute, abs=1e-9), (n, total, brute)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"assignment oracle took {elapsed:.1f}s"
    _report("criterion 1: assignment oracle (700 matrices, exact)", f"{elapsed:.2f}s")


def test_criterion_2_gradient_correctness():
    """grad_check <= 1e-4 for every fusion strategy, d in {8, 16},
    20 seeds each, under 60 seconds."""
    start = time.monotonic()
    worst = 0.0
    for d in (8, 16):
        for seed in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([seed, d]))
            params = FusionParams.random(d, n_identities=3, n_tokens=4, seed=seed)
            sample = TrainSample(
                embedding=rng.normal(size=d),
                attr_obs=rng.uniform(0, 1, 32),
                identity=int(rng.integers(3)),
                gt_attrs=(rng.uniform(0, 1, 32) > 0.5).astype(float),
            )
            for strategy in all_strategies(rounds=1):
                err = grad_check(params, sample, strategy)
                worst = max(worst, err)
                assert err <= 1e-4, (d, seed, str(strategy), err)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"
    _report("criterion 2: gradient correctness (240 checks <= 1e-4)",
            f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_attention_adaptor_exactness():
    """Softmax rows sum to 1 within 1e-9; zero-weight adaptor is an exact
    identity; single-token attention ignores the query values."""
    rng = np.random.default_rng(7)
    for seed in range(10):
        params = FusionParams.random(16, n_identities=3, n_tokens=4, seed=seed)
        w = fusion.cross_attention_weights(rng.normal(size=16), rng.uniform(0, 1, 32), params)
        assert np.abs(w.sum(axis=-1) - 1.0).max() <= 1e-9

    params = FusionParams.random(16, n_identities=3, n_tokens=4, seed=77)
    for name in ("w1", "b1", "w2", "b2"):
        getattr(params, name)[...] = 0.0
    e1 = rng.normal(size=16)
    assert np.array_equal(fusion.adaptor_forward(e1, params), e1)

    single = FusionParams.random(8, n_identities=3, n_tokens=1, seed=5)
    e2 = rng.normal(size=8)
    out_a = fusion.cross_attention_forward(e2, rng.uniform(0, 1, 32), single)
    out_b = fusion.cross_attention_forward(e2, np.zeros(32), single)
    assert np.array_equal(out_a, out_b)
    token_value = e2 @ single.wv
    expected = (single.attr_head_w * token_value).sum(axis=1) + single.attr_head_b
    assert np.abs(out_a - expected).max() <= 1e-12
    _report("criterion 3: attention/adaptor exactness")


def test_criterion_4_loss_anchors():
    """Uniform BCE at 0.5 equals ln 2 +-1e-9; zero-logit identity loss is
    ln k +-1e-9; the weighted single-attribute case is exp(0.9) ln 2 +-1e-6."""
    target = (np.arange(32) % 2).astype(float)
    bce = weighted_bce_loss(np.full(32, 0.5), target, np.full(32, 0.5), uniform=True)
    assert abs(bce - math.log(2)) <= 1e-9

    params = FusionParams.init(16, n_identities=4, n_tokens=4)
    params.id_head_w[...] = 0.0
    params.id_head_b[...] = 0.0
    idl = identity_loss(np.random.default_rng(0).normal(size=16), 1, params)
    assert abs(idl - math.log(4)) <= 1e-9

    hand = weighted_bce_loss(np.array([0.5]), np.array([1.0]), np.array([0.1]), sigma=1.0)
    assert abs(hand - math.exp(0.9) * math.log(2)) <= 1e-6
    _report("criterion 4: loss anchors (ln 2, ln k, exp(0.9) ln 2)")


def _g(frame, ident, x, y=0.0, w=10.0, h=10.0, active=True):
    return GtEntry(frame=frame, identity=ident, box=BBox(x, y, w, h), active=active)


def test_criterion_5_metrics_oracle():
    """Hand-derived values on crafted micro-fixtures, exactly; exhaustive
    trajectory-pairing equivalence on all small random fixtures."""
    # fixture 1: perfect tracking scores 1.0 on every metric
    gt = [_g(f, i, 100 * i) for f in range(1, 6) for i in (1, 2)]
    assert metrics.clear_metrics(gt, gt).mota == 1.0
    assert metrics.id_metrics(gt, gt).idf1 == 1.0
    assert metrics.hota_metrics(gt, gt).hota == 1.0

    # fixture 2: 10 GT boxes with exactly 1 FP, 1 FN, 1 IDSW -> MOTA 0.7
    pred = []
    for f in range(1, 6):
        if f != 3:
            pred.append(_g(f, 10, 100))
        pred.append(_g(f, 20 if f <= 3 else 21, 200))
    pred.append(_g(2, 99, 500))
    r = metrics.clear_metrics(gt, pred)
    assert (r.fn, r.fp, r.idsw) == (1, 1, 1) and r.mota == pytest.approx(0.7, abs=1e-12)

    # fixture 3: length-4 trajectory split across two ids -> IDF1 0.5
    gt4 = [_g(f, 1, 0) for f in range(1, 5)]
    split = [_g(f, 1 if f <= 2 else 2, 0) for f in range(1, 5)]
    assert metrics.id_metrics(gt4, split).idf1 == pytest.approx(0.5, abs=1e-12)

    # fixture 4: one of two frames missed -> DetA = AssA = HOTA = 0.5
    h = metrics.hota_metrics([_g(1, 1, 0), _g(2, 1, 0)], [_g(1, 9, 0)])
    assert (h.hota, h.deta, h.assa) == (pytest.approx(0.5, abs=1e-12),) * 3

    # fixture 5: FP + FN + IDSW > GT makes MOTA negative
    neg = metrics.clear_metrics([_g(1, 1, 0)], [_g(1, 2, 300), _g(1, 3, 400), _g(1, 4, 500)])
    assert neg.mota == pytest.approx(-3.0, abs=1e-12)

    # exhaustive-search oracle on <=3-identity, <=5-frame fixtures
    from test_metrics import oracle_clear  # brute-force protocol oracle
    rng = np.random.default_rng(11)
    grid = [0.0, 4.0, 30.0, 60.0, 90.0]
    checked = 0
    for _ in range(30):
        n_frames = int(rng.integers(1, 6))
        gt_r, pred_r = [], []
        for f in range(1, n_frames + 1):
            for i in range(1, 4):
                if rng.random() < 0.7:
                    gt_r.append(_g(f, i, grid[i]))
            for j in range(1, 4):
                if rng.random() < 0.7:
                    pred_r.append(_g(f, j, grid[int(rng.integers(0, 5))]))
        if not gt_r:
            continue
        res = metrics.clear_metrics(gt_r, pred_r)
        assert (res.fp, res.fn, res.idsw, res.n_gt) == oracle_clear(gt_r, pred_r)
        # identity metrics against brute-force bipartite pairing
        ids = metrics.id_metrics(gt_r, pred_r)
        gids = sorted({e.identity for e in gt_r})
        pids = sorted({e.identity for e in pred_r})
        overlap = {}
        from attmot.core import iou
        for f in range(1, n_frames + 1):
            for a in [e for e in gt_r if e.frame == f]:
                for b in [e for e in pred_r if e.frame == f]:
                    if iou(a.box, b.box) >= 0.5:
                        key = (a.identity, b.identity)
                        overlap[key] = overlap.get(key, 0) + 1
        best = 0
        for k in range(0, min(len(gids), len(pids)) + 1):
            for gs in itertools.permutations(gids, k):
                for ps in itertools.permutations(pids, k):
                    best = max(best, sum(overlap.get((a, b), 0) for a, b in zip(gs, ps)))
        assert ids.idtp == best
        checked += 1
    assert checked >= 20
    _report("criterion 5: metrics oracle (5 fixtures exact + "
            f"{checked} exhaustive-search equivalences)")


def test_criterion_6_directional_reproduction():
    """On the occlusion-heavy benchmark (20 sequences x 15 identities,
    default noise, 10 seeds): median IDF1 of embed+attr exceeds embed-only
    by >= 3.0 points and median IDSW is <= 0.9x embed-only; under 2 min."""
    start = time.monotonic()
    gaps, idsw_embed, idsw_both = [], [], []
    for seed in range(1, 11):
        cfg = WorldConfig(n_identities=15, n_frames=80, seed=seed,
                          w_crossing=0.8, w_linear=0.1, w_loiter=0.1)
        bundles = generate_benchmark(cfg, 20)
        observations = [observe_all_frames(b) for b in bundles]
        scores = {}
        for mode in ("embed", "embed+attr"):
            rows = []
            for bundle, frames in zip(bundles, observations):
                outputs = run_sequence(frames, AssocConfig(mode=mode),
                                       n_frames=bundle.n_frames)
                rows.append((bundle.name, bundle.gt_entries(),
                             outputs_to_entries(outputs)))
            agg = metrics.evaluate_sequences(rows).aggregate()
            scores[mode] = (agg.ids.idf1, agg.clear.idsw)
        gaps.append(100.0 * (scores["embed+attr"][0] - scores["embed"][0]))
        idsw_embed.append(scores["embed"][1])
        idsw_both.append(scores["embed+attr"][1])
    elapsed = time.monotonic() - start
    med_gap = statistics.median(gaps)
    med_e = statistics.median(idsw_embed)
    med_b = statistics.median(idsw_both)
    assert med_gap >= 3.0, f"median IDF1 gap {med_gap:.2f} < 3.0 (gaps={gaps})"
    assert med_b <= 0.9 * med_e, f"median IDSW {med_b} vs embed-only {med_e}"
    assert elapsed < 120.0, f"directional run took {elapsed:.1f}s"
    _report("criterion 6: directional reproduction",
            f"IDF1 +{med_gap:.1f} pts, IDSW {med_e:.0f} -> {med_b:.0f}, {elapsed:.0f}s")


def test_criterion_7_fusion_head_training():
    """5k synthetic crops, default training config: mean per-attribute
    accuracy >= 0.90 and a strictly decreasing loss trace, under 60 s."""
    start = time.monotonic()
    crop_world = WorldConfig(n_identities=24, n_frames=60, latent_dim=256,
                             latent_spread=0.5, w_crossing=0.2, w_linear=0.6,
                             w_loiter=0.2, seed=42)
    bundle = synthgen.simulate_sequence(crop_world)
    crops = synthgen.sample_training_crops([bundle], 5000, seed=7)
    config = TrainConfig()
    params, trace = train(crops, config)
    accuracy = fusion.attribute_accuracy(params, crops, attr_input=config.attr_input)
    elapsed = time.monotonic() - start
    assert trace[-1].total < trace[0].total
    assert accuracy >= 0.90, f"attribute accuracy {accuracy:.4f} < 0.90"
    assert elapsed < 60.0, f"training took {elapsed:.1f}s"
    _report("criterion 7: fusion-head training",
            f"accuracy {accuracy:.3f}, loss {trace[0].total:.3f} -> "
            f"{trace[-1].total:.3f}, {elapsed:.1f}s")


def test_criterion_8_tpr_at_far():
    """Monotone in FAR; separated sets hit 1.0 everywhere; exchangeable
    sets sit at TPR = FAR +- 0.02 for FAR = 0.1 on 10k pairs."""
    rng = np.random.default_rng(31)
    for seed in range(10):
        r = np.random.default_rng(seed)
        vs = metrics.VerificationSet(r.normal(0.3, 1, 400), r.normal(0, 1, 4000))
        table = metrics.tpr_at_far(vs, far_levels=(0.001, 0.01, 0.1, 0.5))
        vals = [table[k] for k in sorted(table)]
        assert vals == sorted(vals)

    separated = metrics.VerificationSet(rng.uniform(2, 3, 500), rng.uniform(0, 1, 5000))
    assert all(v == 1.0 for v in metrics.tpr_at_far(separated).values())

    same = metrics.VerificationSet(rng.normal(size=10000), rng.normal(size=10000))
    tpr = metrics.tpr_at_far(same)[0.1]
    assert abs(tpr - 0.1) <= 0.02
    _report("criterion 8: TPR@FAR (monotone, separated, exchangeable)",
            f"exchangeable tpr@0.1 = {tpr:.3f}")


def test_criterion_9_determinism_and_round_trip(tmp_path):
    """Identical seeds give byte-identical benchmarks, traces, results and
    reports; MOT parse -> write -> parse is the identity."""
    from attmot.cli import main

    cfg_text = ("attmot-config v1\nn_sequences = 2\nn_identities = 5\n"
                "n_frames = 20\nlatent_dim = 32\nseed = 13\n")
    cfg = tmp_path / "world.cfg"
    cfg.write_text(cfg_text)

    def digest_tree(root):
        import hashlib
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}

    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    assert main(["generate", "-c", str(cfg), "-o", str(b1)]) == 0
    assert main(["generate", "-c", str(cfg), "-o", str(b2)]) == 0
    assert digest_tree(b1) == digest_tree(b2)

    heads, traces = [], []
    for tag in ("x", "y"):
        head = tmp_path / f"head_{tag}.bin"
        trace = tmp_path / f"trace_{tag}.csv"
        assert main(["train", "-b", str(b1), "--seed", "2", "-o", str(head),
                     "--crops", "400", "--iterations", "30", "--trace", str(trace)]) == 0
        heads.append(head.read_bytes())
        traces.append(trace.read_text())
    assert heads[0] == heads[1] and traces[0] == traces[1]

    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    rep1, rep2 = tmp_path / "rep1.csv", tmp_path / "rep2.csv"
    for runs, rep in ((r1, rep1), (r2, rep2)):
        assert main(["track", "-b", str(b1), "--mode", "embed+attr", "-o", str(runs)]) == 0
        assert main(["eval", "--gt", str(b1), "--res", str(runs), "-o", str(rep)]) == 0
    assert digest_tree(r1) == digest_tree(r2)
    assert rep1.read_text() == rep2.read_text()

    def det_key(d):
        return (d.frame, d.boxes.tolist(), d.confidences.tolist())

    for seq in ("seq-0000", "seq-0001"):
        for name, kind in (("gt.txt", "gt"), ("det.txt", "det")):
            text = (b1 / seq / name).read_text()
            parsed = motio.parse_mot_file(text.encode(), kind)
            rewritten = (motio.write_mot_file(parsed) if kind == "gt"
                         else motio.write_det_file(parsed))
            reparsed = motio.parse_mot_file(rewritten.encode(), kind)
            if kind == "gt":
                assert reparsed == parsed
            else:
                assert list(reparsed) == list(parsed)
                assert (list(map(det_key, reparsed.values()))
                        == list(map(det_key, parsed.values())))
        res_text = (r1 / f"{seq}.txt").read_text()
        parsed = motio.parse_mot_file(res_text.encode(), "gt")
        assert motio.write_mot_file(parsed) == res_text
    _report("criterion 9: determinism and round-trip")
