"""Fusion head: adaptor, cross-attention, losses, strategies, trainer,
gradient verification and serialization."""
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attmot import autodiff as ad
from attmot import fusion
from attmot.fusion import (
    PREPROC_ATTR,
    FusionParams,
    FusionStrategy,
    TrainConfig,
    TrainSample,
    adaptor_forward,
    all_strategies,
    attribute_accuracy,
    cross_attention_forward,
    cross_attention_weights,
    grad_check,
    identity_loss,
    load_fusion_head,
    predict_attributes,
    save_fusion_head,
    train,
    weighted_bce_loss,
)


def rand_sample(rng, dim, k=3):
    return TrainSample(
        embedding=rng.normal(size=dim),
        attr_obs=rng.uniform(0, 1, 32),
        identity=int(rng.integers(k)),
        gt_attrs=(rng.uniform(0, 1, 32) > 0.5).astype(float),
    )


def stack_samples(samples):
    """One-crop samples as one ``TrainSample`` of stacked columns."""
    return TrainSample(np.array([s.embedding for s in samples]),
                       np.array([s.attr_obs for s in samples]),
                       np.array([s.identity for s in samples], dtype=np.int64),
                       np.array([s.gt_attrs for s in samples]))


def empty_dataset(dim):
    return TrainSample(np.empty((0, dim)), np.empty((0, 32)), np.empty(0, dtype=np.int64),
                       np.empty((0, 32)))


def zero_adaptor(params):
    for name in ("w1", "b1", "w2", "b2"):
        getattr(params, name)[...] = 0.0
    return params


class TestStrategy:
    def test_parse(self):
        s = FusionStrategy.parse("cross-fertilize:3")
        assert s.kind == "cross-fertilize" and s.rounds == 3
        assert FusionStrategy.parse("attr-only") == FusionStrategy("attr-only")

    def test_invalid(self):
        with pytest.raises(ValueError):
            FusionStrategy("bogus")
        with pytest.raises(ValueError):
            FusionStrategy("preproc-attr", rounds=0)

    @pytest.mark.parametrize("kind", ["attr-only", "preproc-attr", "preproc-both",
                                      "concat-self"])
    def test_rounds_refused_for_non_iterated_kinds(self, kind):
        with pytest.raises(ValueError, match=f"fusion strategy '{kind}' takes no rounds, got 3"):
            FusionStrategy.parse(f"{kind}:3")
        assert FusionStrategy.parse(f"{kind}:1") == FusionStrategy(kind)

    def test_rounds_kept_for_iterated_kinds(self):
        for kind in ("cross-fertilize", "self-enhance"):
            assert str(FusionStrategy.parse(f"{kind}:3")) == f"{kind}:3"


class TestParams:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            FusionParams.init(10, n_identities=2, n_tokens=4)  # 10 % 4 != 0

    @pytest.mark.parametrize("make", [FusionParams.init, FusionParams.random])
    def test_zero_tokens_refused(self, make):
        with pytest.raises(ValueError, match="^dimensions must be positive$"):
            make(8, n_identities=2, n_tokens=0)

    def test_inconsistent_array_rejected(self):
        p = FusionParams.init(8, n_identities=2, n_tokens=4)
        with pytest.raises(ValueError):
            FusionParams(dim=8, n_tokens=4, n_identities=2,
                         **{**{n: getattr(p, n) for n in fusion.PARAM_FIELDS},
                            "wq": np.zeros((3, 3))})


class TestAdaptor:
    def test_zero_weights_exact_identity(self):
        params = zero_adaptor(FusionParams.init(16, n_identities=2, n_tokens=4))
        e = np.random.default_rng(0).normal(size=16)
        out = adaptor_forward(e, params)
        assert np.array_equal(out, e)

    def test_identity_weights_double_positive_input(self):
        params = zero_adaptor(FusionParams.init(16, n_identities=2, n_tokens=4))
        params.w1[...] = np.eye(16)
        params.w2[...] = np.eye(16)
        e = np.abs(np.random.default_rng(1).normal(size=16)) + 0.1
        np.testing.assert_allclose(adaptor_forward(e, params), 2 * e, rtol=1e-12)

    def test_random_params_finite(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            params = FusionParams.random(16, n_identities=2, n_tokens=4, seed=seed)
            out = adaptor_forward(rng.normal(size=16), params)
            assert np.all(np.isfinite(out))

    def test_dim_mismatch(self):
        params = FusionParams.init(16, n_identities=2, n_tokens=4)
        with pytest.raises(ValueError):
            adaptor_forward(np.ones(8), params)


class TestCrossAttention:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            params = FusionParams.random(16, n_identities=2, n_tokens=4, seed=seed)
            w = cross_attention_weights(rng.normal(size=16), rng.uniform(0, 1, 32), params)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)

    def test_single_token_ignores_query(self):
        # T_e = 1: softmax over a singleton is 1, so the output is
        # attr_head(W_v token) regardless of the query values.
        rng = np.random.default_rng(4)
        params = FusionParams.random(8, n_identities=2, n_tokens=1, seed=5)
        e2 = rng.normal(size=8)
        out_a = cross_attention_forward(e2, rng.uniform(0, 1, 32), params)
        out_b = cross_attention_forward(e2, rng.uniform(0, 1, 32), params)
        np.testing.assert_array_equal(out_a, out_b)
        token_value = e2 @ params.wv  # the single token is e2 itself
        expected = (params.attr_head_w * token_value).sum(axis=1) + params.attr_head_b
        np.testing.assert_allclose(out_a, expected, atol=1e-12)

    def test_three_token_hand_fixture(self):
        # d=6, T_e=3 toy with hand-chosen weights, evaluated independently
        # below with explicit matrix arithmetic.
        params = FusionParams.init(6, n_identities=2, n_tokens=3, seed=0)
        dt = 2
        params.wq[...] = np.array([[1.0, 0.5], [0.0, 1.0]])
        params.wk[...] = np.array([[0.5, -0.25], [1.0, 0.75]])
        params.wv[...] = np.array([[2.0, 0.0], [-1.0, 1.0]])
        params.attr_embed[...] = np.tile(np.array([[0.2, -0.4]]), (32, 1))
        params.attr_embed[3] = (1.0, 1.5)
        params.attr_head_w[...] = np.tile(np.array([[1.0, -2.0]]), (32, 1))
        params.attr_head_b[...] = np.linspace(-1, 1, 32)
        e2 = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        a1 = np.linspace(0.1, 0.9, 32)

        got = cross_attention_forward(e2, a1, params)

        tokens = e2.reshape(3, 2)
        expected = np.empty(32)
        for j in range(32):
            q = a1[j] * params.attr_embed[j]
            scores = np.array([(q @ params.wq) @ (tokens[t] @ params.wk) for t in range(3)])
            ex = np.exp(scores - scores.max())
            alpha = ex / ex.sum()
            attended = sum(alpha[t] * (tokens[t] @ params.wv) for t in range(3))
            expected[j] = params.attr_head_w[j] @ attended + params.attr_head_b[j]
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TestPredictAttributes:
    def test_preproc_attr_zero_adaptor_reduces_to_cross_attention(self):
        rng = np.random.default_rng(5)
        params = zero_adaptor(FusionParams.random(16, n_identities=2, n_tokens=4, seed=7))
        e1 = rng.normal(size=16)
        a1 = rng.uniform(0, 1, 32)
        probs, e_out = predict_attributes(e1, a1, PREPROC_ATTR, params)
        logits = cross_attention_forward(e1, a1, params)
        np.testing.assert_allclose(probs, 1 / (1 + np.exp(-logits)), atol=1e-12)
        np.testing.assert_array_equal(e_out, e1)

    def test_very_negative_logits_give_zero_without_warning(self):
        rng = np.random.default_rng(6)
        params = FusionParams.random(16, n_identities=2, n_tokens=4, seed=1)
        params.attr_head_b[...] = -1e4
        e1, a1 = rng.normal(size=(3, 16)), rng.uniform(0, 1, (3, 32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs, _ = predict_attributes(e1, a1, PREPROC_ATTR, params)
            logits = cross_attention_forward(adaptor_forward(e1, params), a1, params)
            want = ad.sigmoid(ad.const(logits)).value
        assert np.array_equal(probs, want) and not probs.any()

    def test_sigmoid_bounds_strict(self):
        rng = np.random.default_rng(6)
        for strat in all_strategies(rounds=2):
            params = FusionParams.random(16, n_identities=2, n_tokens=4, seed=1)
            probs, _ = predict_attributes(rng.normal(size=16), rng.uniform(0, 1, 32),
                                          strat, params)
            assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_cross_fertilize_rounds_matter(self):
        rng = np.random.default_rng(7)
        differing = 0
        for seed in range(100):
            params = FusionParams.random(16, n_identities=2, n_tokens=4, seed=seed)
            e1 = rng.normal(size=16)
            a1 = rng.uniform(0, 1, 32)
            p1, _ = predict_attributes(e1, a1, FusionStrategy("cross-fertilize", 1), params)
            p2, _ = predict_attributes(e1, a1, FusionStrategy("cross-fertilize", 2), params)
            if not np.allclose(p1, p2):
                differing += 1
        assert differing == 100

    def test_attr_only_equals_preproc_attr_with_zero_adaptor(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            params = zero_adaptor(FusionParams.random(16, n_identities=2, n_tokens=4,
                                                      seed=seed))
            e1 = rng.normal(size=16)
            a1 = rng.uniform(0, 1, 32)
            pa, ea = predict_attributes(e1, a1, FusionStrategy("attr-only"), params)
            pb, eb = predict_attributes(e1, a1, PREPROC_ATTR, params)
            np.testing.assert_array_equal(pa, pb)
            np.testing.assert_array_equal(ea, eb)

    def test_learned_head_used_when_no_observation(self):
        rng = np.random.default_rng(9)
        params = FusionParams.random(16, n_identities=2, n_tokens=4, seed=3)
        e1 = rng.normal(size=16)
        a1 = fusion.raw_attribute_feature(e1, params)
        via_none, _ = predict_attributes(e1, None, PREPROC_ATTR, params)
        via_head, _ = predict_attributes(e1, a1, PREPROC_ATTR, params)
        np.testing.assert_allclose(via_none, via_head, atol=1e-12)

    def test_adapted_embedding_returned_for_all_strategies(self):
        rng = np.random.default_rng(10)
        params = FusionParams.random(16, n_identities=2, n_tokens=4, seed=4)
        e1 = rng.normal(size=16)
        a1 = rng.uniform(0, 1, 32)
        e2 = adaptor_forward(e1, params)
        for strat in all_strategies():
            _, e_out = predict_attributes(e1, a1, strat, params)
            if strat.kind == "attr-only":
                np.testing.assert_array_equal(e_out, e1)
            else:
                np.testing.assert_array_equal(e_out, e2)


class TestWeightedBce:
    def test_perfect_prediction_tiny_loss(self):
        target = (np.arange(32) % 2).astype(float)
        loss = weighted_bce_loss(target, target, np.full(32, 0.5), uniform=True)
        assert 0.0 <= loss <= 1.1e-7

    def test_uniform_half_is_ln2(self):
        loss = weighted_bce_loss(np.full(32, 0.5), (np.arange(32) % 2).astype(float),
                                 np.full(32, 0.5), uniform=True)
        assert loss == pytest.approx(math.log(2), abs=1e-9)

    def test_weighted_single_attribute_hand_value(self):
        # positive frequency 0.1, sigma 1, target 1, pred 0.5:
        # weight exp((1 - 0.1)/1) on the positive term, -log(0.5) = ln 2
        loss = weighted_bce_loss(np.array([0.5]), np.array([1.0]), np.array([0.1]), 1.0)
        assert loss == pytest.approx(math.exp(0.9) * math.log(2), abs=1e-6)

    def test_non_negative_and_finite(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pred = rng.uniform(0, 1, 32)
            target = (rng.uniform(0, 1, 32) > 0.5).astype(float)
            freq = rng.uniform(0.05, 0.95, 32)
            loss = weighted_bce_loss(pred, target, freq, sigma=rng.uniform(0.5, 2.0))
            assert loss >= 0.0 and math.isfinite(loss)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_bce_loss(np.ones(32), np.ones(31), np.full(32, 0.5))


class TestIdentityLoss:
    def test_uniform_logits(self):
        params = FusionParams.init(16, n_identities=4, n_tokens=4)
        params.id_head_w[...] = 0.0
        params.id_head_b[...] = 0.0
        e = np.random.default_rng(0).normal(size=16)
        assert identity_loss(e, 2, params) == pytest.approx(math.log(4), abs=1e-9)

    def test_monotone_in_margin(self):
        params = zero_adaptor(FusionParams.init(4, n_identities=2, n_tokens=4))
        e = np.array([1.0, 0.0, 0.0, 0.0])
        losses = []
        for margin in (1.0, 2.0, 4.0):
            params.id_head_w[...] = 0.0
            params.id_head_w[0, 0] = margin  # logit margin for class 0
            losses.append(identity_loss(e, 0, params))
        assert losses[0] > losses[1] > losses[2] > 0.0

    def test_single_class_zero_loss(self):
        params = FusionParams.random(8, n_identities=1, n_tokens=4, seed=0)
        e = np.random.default_rng(1).normal(size=8)
        assert identity_loss(e, 0, params) == pytest.approx(0.0, abs=1e-12)

    def test_label_out_of_range(self):
        params = FusionParams.init(8, n_identities=3, n_tokens=4)
        with pytest.raises(ValueError):
            identity_loss(np.ones(8), 3, params)


class TestTrain:
    def _dataset(self, n=240, dim=32, k=5, seed=0):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=dim)
        base /= np.linalg.norm(base)
        latents = base + 0.4 * rng.normal(size=(k, dim))
        latents /= np.linalg.norm(latents, axis=1, keepdims=True)
        bits = (rng.uniform(0, 1, (k, 32)) > 0.5).astype(float)
        data = []
        for i in range(n):
            ident = i % k
            emb = latents[ident] + 0.05 * rng.normal(size=dim)
            emb /= np.linalg.norm(emb)
            obs = np.abs(bits[ident] - (rng.random(32) < 0.05))
            data.append(TrainSample(emb, obs, ident, bits[ident]))
        return stack_samples(data)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty dataset"):
            train(empty_dataset(32), TrainConfig())

    def test_zero_step_flat_trace(self):
        data = self._dataset(60)
        cfg = TrainConfig(step_size=0.0, iterations=5, batch_size=100, n_tokens=4, seed=1)
        params_before = FusionParams.init(32, n_identities=5, n_tokens=4, seed=1)
        params, trace = train(data, cfg, params=params_before)
        assert len({row.total for row in trace}) == 1
        for name in fusion.PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(params, name), getattr(params_before, name))

    def test_deterministic(self):
        data = self._dataset()
        cfg = TrainConfig(iterations=30, batch_size=64, n_tokens=4, seed=3)
        p1, t1 = train(data, cfg)
        p2, t2 = train(data, cfg)
        assert t1 == t2
        for name in fusion.PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))

    def test_loss_decreases(self):
        data = self._dataset(400)
        cfg = TrainConfig(iterations=600, batch_size=128, n_tokens=4, seed=2)
        params, trace = train(data, cfg)
        assert trace[-1].total < trace[0].total
        acc = attribute_accuracy(params, data, attr_input="obs")
        assert acc > 0.8

    def test_trace_csv_format(self):
        data = self._dataset(60)
        _, trace = train(data, TrainConfig(iterations=3, batch_size=64, n_tokens=4))
        text = fusion.trace_to_csv(trace)
        lines = text.strip().splitlines()
        assert lines[0] == "iteration,bce,id_loss,total"
        assert len(lines) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts(self):
        data = self._dataset(60)
        cfg = TrainConfig(step_size=1e120, iterations=20, batch_size=64, n_tokens=4)
        with pytest.raises(RuntimeError, match="non-finite"):
            train(data, cfg)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(step_size=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(sigma=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lambda_id=-0.5)
        with pytest.raises(ValueError):
            TrainConfig(attr_input="nope")

    @pytest.mark.parametrize("setting,value,match", [
        ("seed", -1, "seed must be >= 0"),
        ("step_size", math.nan, "step_size must be finite"),
        ("lambda_id", math.nan, "lambda_id must be finite"),
        ("sigma", math.inf, "sigma must be finite"),
        ("n_tokens", 0, "n_tokens must be >= 1"),
    ])
    def test_refuses_setting_train_cannot_use(self, setting, value, match):
        with pytest.raises(ValueError, match=f"^{match}"):
            TrainConfig(**{setting: value})


def _accuracy_one_batch(params, dataset, strategy, attr_input):
    """The one-batch ``attribute_accuracy`` that the chunked one replaced,
    kept as its oracle; returns the accuracy and every row's probabilities."""
    obs = dataset.attr_obs if attr_input == "obs" else None
    probs, _ = predict_attributes(dataset.embedding, obs, strategy, params)
    correct = (probs >= 0.5) == (dataset.gt_attrs >= 0.5)
    return float(correct.mean(axis=0).mean()), probs


def _random_crops(n, dim, seed):
    rng = np.random.default_rng(seed)
    return stack_samples([rand_sample(rng, dim) for _ in range(n)])


def _rows(data, lo, hi):
    return TrainSample(data.embedding[lo:hi], data.attr_obs[lo:hi], data.identity[lo:hi],
                       data.gt_attrs[lo:hi])


class TestChunkedAccuracy:
    @given(n=st.integers(1, 1300), dim=st.sampled_from([16, 64]),
           strategy=st.sampled_from(all_strategies()),
           attr_input=st.sampled_from(["learned", "obs"]), seed=st.integers(0, 2**16))
    @example(n=256, dim=64, strategy=PREPROC_ATTR, attr_input="obs", seed=0)
    @example(n=257, dim=64, strategy=FusionStrategy("concat-self"), attr_input="learned", seed=1)
    @example(n=512, dim=16, strategy=FusionStrategy("cross-fertilize"), attr_input="obs", seed=2)
    @example(n=513, dim=16, strategy=FusionStrategy("attr-only"), attr_input="learned", seed=3)
    @settings(max_examples=60, deadline=None)
    def test_equals_one_batch(self, n, dim, strategy, attr_input, seed):
        params = FusionParams.random(dim, n_identities=3, n_tokens=4, seed=seed)
        data = _random_crops(n, dim, seed)
        want, want_probs = _accuracy_one_batch(params, data, strategy, attr_input)
        assert attribute_accuracy(params, data, strategy, attr_input) == want
        chunks = fusion._row_chunks(n)
        sizes = [hi - lo for lo, hi in chunks]
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert [lo for lo, _ in chunks[1:]] == [hi for _, hi in chunks[:-1]]
        assert len(chunks) == -(-n // 256) and max(sizes) - min(sizes) <= 1
        probs = np.concatenate([_accuracy_one_batch(params, _rows(data, lo, hi), strategy,
                                                    attr_input)[1]
                                for lo, hi in chunks])
        np.testing.assert_array_equal(probs, want_probs)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty dataset"):
            attribute_accuracy(FusionParams.random(16, n_identities=3, n_tokens=4),
                               empty_dataset(16))

    def test_memory_does_not_grow_with_crops(self):
        params = FusionParams.random(64, n_identities=3, n_tokens=4, seed=1)

        def peak(data):
            tracemalloc.start()
            try:
                attribute_accuracy(params, data)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = _random_crops(512, 64, 1), _random_crops(2048, 64, 2)
        assert peak(large) < 1.5 * peak(small)


class TestGradCheck:
    def test_linear_only_toy(self):
        # adaptor out of the path (attr-only), single key token
        rng = np.random.default_rng(20)
        params = FusionParams.random(8, n_identities=3, n_tokens=1, seed=4)
        sample = rand_sample(rng, 8)
        err = grad_check(params, sample, FusionStrategy("attr-only"), attr_input="obs")
        assert err <= 1e-6

    def test_full_path(self):
        rng = np.random.default_rng(21)
        params = FusionParams.random(16, n_identities=3, n_tokens=4, seed=5)
        sample = rand_sample(rng, 16)
        assert grad_check(params, sample, PREPROC_ATTR) <= 1e-4

    def test_learned_attr_input_path(self):
        rng = np.random.default_rng(22)
        params = FusionParams.random(16, n_identities=3, n_tokens=4, seed=6)
        sample = rand_sample(rng, 16)
        assert grad_check(params, sample, PREPROC_ATTR, attr_input="learned") <= 1e-4

    def test_single_coordinate_taylor(self):
        # perturbing one weight by eps changes the loss by grad*eps + O(eps^2)
        from attmot import autodiff as ad
        from attmot.fusion import _param_vars, _total_loss, bce_weights

        rng = np.random.default_rng(23)
        params = FusionParams.random(16, n_identities=3, n_tokens=4, seed=7)
        sample = rand_sample(rng, 16)
        w_pos, w_neg = bce_weights(np.full(32, 0.5), 1.0, False)

        def loss(req):
            p = _param_vars(params, req)
            return p, _total_loss(p, ad.const(sample.embedding), ad.const(sample.attr_obs),
                                  sample.gt_attrs, sample.identity, PREPROC_ATTR, params,
                                  w_pos, w_neg, 0.1)[2]

        p, total = loss(True)
        ad.backward(total)
        g = p["wq"].grad[0, 0]
        base = float(total.value)
        eps = 1e-4
        params.wq[0, 0] += eps
        bumped = float(loss(False)[1].value)
        assert bumped - base == pytest.approx(g * eps, abs=5 * eps * eps)


def _grad_check_loop(params, sample, strategy, *, lambda_id, attr_input, eps=1e-5):
    """Oracle: ``grad_check`` as it was before the batched numeric side, two
    full forward passes per parameter entry (default weights and sigma)."""
    from attmot.fusion import N_ATTRIBUTES, _param_vars, _total_loss, bce_weights

    w_pos, w_neg = bce_weights(np.full(N_ATTRIBUTES, 0.5), 1.0, False)
    params = params.copy()
    emb = np.asarray(sample.embedding, dtype=np.float64)
    gt = np.asarray(sample.gt_attrs, dtype=np.float64)
    label = int(sample.identity)
    obs = np.asarray(sample.attr_obs, dtype=np.float64)

    p = _param_vars(params, requires_grad=True)
    a1 = ad.const(obs) if attr_input == "obs" else None
    _, _, total = _total_loss(p, ad.const(emb), a1, gt, label, strategy, params,
                              w_pos, w_neg, lambda_id)
    ad.backward(total)
    analytic = {
        name: (p[name].grad if p[name].grad is not None else np.zeros_like(getattr(params, name)))
        for name in fusion.PARAM_FIELDS
    }

    p_eval = _param_vars(params, requires_grad=False)
    emb_c = ad.const(emb)
    obs_c = ad.const(obs) if attr_input == "obs" else None

    def value() -> float:
        _, _, tot = _total_loss(p_eval, emb_c, obs_c, gt, label, strategy, params,
                                w_pos, w_neg, lambda_id)
        return float(tot.value)

    worst = 0.0
    for name in fusion.PARAM_FIELDS:
        arr = getattr(params, name)
        flat = arr.reshape(-1)
        ana = analytic[name].reshape(-1)
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = value()
            flat[i] = orig - eps
            f_minus = value()
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * eps)
        rel = float(np.linalg.norm(ana - numeric)) / max(1e-8, float(np.linalg.norm(numeric)))
        if rel > worst:
            worst = rel
    return worst


@st.composite
def _grad_check_cases(draw):
    n_tokens = draw(st.sampled_from((1, 2, 4)))
    dim = n_tokens * draw(st.integers(1, 16 // n_tokens))
    kind = draw(st.sampled_from(fusion.STRATEGY_KINDS))
    rounds = draw(st.sampled_from((1, 2))) if kind in ("cross-fertilize", "self-enhance") else 1
    seed = draw(st.integers(0, 2**16))
    params = FusionParams.random(dim, n_identities=3, n_tokens=n_tokens, seed=seed)
    sample = rand_sample(np.random.default_rng(seed), dim)
    return (params, sample, FusionStrategy(kind, rounds),
            draw(st.sampled_from((0.0, 0.1))), draw(st.sampled_from(("learned", "obs"))))


def _wrong_backward(monkeypatch, op: str, wrong):
    """Replace the backward rule of autodiff op ``op`` by ``wrong(g, rule)``;
    its forward values stay exact."""
    real = getattr(ad, op)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        out.grad_fns = tuple(lambda g, rule=rule: wrong(g, rule) for rule in out.grad_fns)
        return out

    monkeypatch.setattr(ad, op, patched)


class TestBatchedGradCheck:
    @given(_grad_check_cases())
    @settings(max_examples=40)
    def test_equals_per_entry_loop(self, case):
        # Seen equal bit for bit; the stated bound leaves room for BLAS
        # kernels that round a stacked product differently.
        params, sample, strategy, lambda_id, attr_input = case
        got = grad_check(params, sample, strategy, lambda_id=lambda_id, attr_input=attr_input)
        want = _grad_check_loop(params, sample, strategy, lambda_id=lambda_id,
                                attr_input=attr_input)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_leaves_params_untouched(self):
        params = FusionParams.random(8, n_identities=3, n_tokens=4, seed=1)
        before = params.copy()
        grad_check(params, rand_sample(np.random.default_rng(1), 8), PREPROC_ATTR)
        for name in fusion.PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(params, name), getattr(before, name))


class TestGradCheckCatchesWrongGradients:
    """A wrong backward rule must fail the check: the numeric side is not
    allowed to pass by agreeing with the analytic side vacuously."""

    def _case(self):
        params = FusionParams.random(8, n_identities=3, n_tokens=4, seed=11)
        return params, rand_sample(np.random.default_rng(11), 8)

    @pytest.mark.parametrize("strategy", [s for s in all_strategies() if s.kind != "attr-only"],
                             ids=str)
    def test_relu_gradient_scaled(self, monkeypatch, strategy):
        # every strategy but attr-only runs the adaptor, the only relu
        params, sample = self._case()
        assert grad_check(params, sample, strategy) <= 1e-4
        _wrong_backward(monkeypatch, "relu", lambda g, rule: 1.01 * rule(g))
        assert grad_check(params, sample, strategy) > 1e-4

    @pytest.mark.parametrize("strategy", all_strategies(), ids=str)
    def test_transpose_gradient_zeroed(self, monkeypatch, strategy):
        # every strategy attends, and attention transposes the keys
        params, sample = self._case()
        _wrong_backward(monkeypatch, "transpose_last", lambda g, rule: np.zeros_like(rule(g)))
        assert grad_check(params, sample, strategy) > 1e-4


class TestSerialization:
    def test_round_trip(self, tmp_path):
        params = FusionParams.random(16, n_identities=4, n_tokens=4, seed=9)
        strat = FusionStrategy("cross-fertilize", 2)
        path = tmp_path / "head.bin"
        save_fusion_head(path, params, strat)
        loaded, loaded_strat = load_fusion_head(path)
        assert loaded_strat == strat
        assert (loaded.dim, loaded.n_tokens, loaded.n_identities) == (16, 4, 4)
        for name in fusion.PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))

    def test_deterministic_bytes(self, tmp_path):
        params = FusionParams.random(8, n_identities=2, n_tokens=2, seed=1)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_fusion_head(a, params)
        save_fusion_head(b, params)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("cut", ["header", "first-array", "mid-array", "last-byte"])
    def test_truncated_file_names_path(self, tmp_path, cut):
        path = tmp_path / "head.bin"
        save_fusion_head(path, FusionParams.random(8, n_identities=2, n_tokens=2, seed=1))
        blob = path.read_bytes()
        header_end = blob.index(b"\n", len(b"attmot-fusion v1\n")) + 1
        keep = {"header": header_end - 10, "first-array": header_end + 8,
                "mid-array": (header_end + len(blob)) // 2, "last-byte": len(blob) - 1}[cut]
        path.write_bytes(blob[:keep])
        with pytest.raises(ValueError, match=f"corrupt fusion-head file {re.escape(str(path))}"):
            load_fusion_head(path)

    @pytest.mark.parametrize("tail", [b"\0", b"garbage"])
    def test_trailing_bytes_name_path(self, tmp_path, tail):
        path = tmp_path / "head.bin"
        save_fusion_head(path, FusionParams.random(8, n_identities=2, n_tokens=2, seed=1))
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(ValueError, match=f"corrupt fusion-head file {re.escape(str(path))}"
                                             ".*bytes after the last array"):
            load_fusion_head(path)

    def test_scale_scores_true_refused(self, tmp_path):
        path = tmp_path / "head.bin"
        save_fusion_head(path, FusionParams.random(8, n_identities=2, n_tokens=2, seed=1))
        blob = path.read_bytes()
        assert blob.count(b'"scale_scores": false') == 1
        path.write_bytes(blob.replace(b'"scale_scores": false', b'"scale_scores": true'))
        with pytest.raises(ValueError, match=f"corrupt fusion-head file {re.escape(str(path))}"
                                             ".*scale_scores must be false"):
            load_fusion_head(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a params file")
        with pytest.raises(ValueError):
            load_fusion_head(path)
