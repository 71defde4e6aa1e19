import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from simga import model
from simga.data import gen_structural_heterophily, gen_twin_graph
from simga.errors import DivergenceError, InputFormatError, ParameterError
from simga.model import (
    HyperParams,
    _backward,
    _logits_with_cache,
    aggregate,
    embed,
    evaluate,
    fit,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    precompute_similarity,
    save_checkpoint,
)
from simga.nn import (
    adam_init,
    adam_step,
    flatten_arrays,
    grad_check,
    mlp_backward_to_pre,
    mlp_forward_from_pre,
    softmax_cross_entropy,
    unflatten_arrays,
)
from simga.graph import random_graph
from simga.simrank import PUSH_BLOCK, SparseSim, topk_prune


def small_bundle(seed=0, n=60):
    return gen_structural_heterophily(seed=seed, n=n, classes=2)


def quick_hp(**kw):
    base = dict(dropout=0.0, k=16, eps=0.1, sim_mode="exact", width=16,
                mlp_h_depth=1, max_epochs=30, patience=100, lr=0.05)
    base.update(kw)
    return HyperParams(**base)


def identity_sim(n):
    return topk_prune(SparseSim(sp.csr_matrix(np.eye(n)), k=n, method="custom", c=0.6), 1)


class TestHyperParams:
    def test_defaults_valid(self):
        hp = HyperParams()
        assert hp.c == 0.6 and hp.alpha == 0.5 and hp.k == 1024

    @pytest.mark.parametrize(
        "field,value",
        [("delta", 1.5), ("alpha", -0.1), ("c", 1.0), ("k", 0), ("eps", 0.0),
         ("dropout", 1.0), ("lr", 0.0), ("mlp_h_depth", 3), ("sim_mode", "other"),
         ("patience", 0), ("eps", float("nan")), ("eps", float("inf")),
         ("lr", float("nan")), ("lr", float("inf")),
         ("weight_decay", float("nan")), ("weight_decay", float("inf"))],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ParameterError):
            HyperParams(**{field: value})

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nalpha=0.25\nk=12\npatience=inf\nsim_mode=approx\n")
        hp = HyperParams.from_file(path)
        assert hp.alpha == 0.25 and hp.k == 12 and hp.sim_mode == "approx"
        assert np.isinf(hp.patience)

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha=0.25\n")
        hp = HyperParams.from_file(path, overrides={"alpha": 0.75})
        assert hp.alpha == 0.75

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alhpa=0.25\n")
        with pytest.raises(InputFormatError):
            HyperParams.from_file(path)

    def test_line_without_equals_names_its_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha=0.25\nwidth 64\n")
        with pytest.raises(InputFormatError, match=r"run\.cfg: line 2: expected key=value"):
            HyperParams.from_file(path)

    def test_typed_values_parse_like_their_text(self):
        typed = {"lr": 0.01, "weight_decay": 5e-4, "k": 12, "patience": float("inf"), "sim_mode": "approx"}
        assert HyperParams.from_dict(typed) == HyperParams.from_dict({k: str(v) for k, v in typed.items()})


class TestEmbed:
    def test_delta_zero_ignores_features(self):
        bundle = small_bundle()
        hp = quick_hp(delta=0.0)
        rng = np.random.default_rng(0)
        params = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
        h1 = embed(bundle, params, hp)
        bundle.features[:] = 1e6  # mangle features; output must not move
        h2 = embed(bundle, params, hp)
        assert np.array_equal(h1, h2)

    def test_delta_one_ignores_adjacency(self):
        bundle = small_bundle()
        hp = quick_hp(delta=1.0)
        rng = np.random.default_rng(0)
        params = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
        h1 = embed(bundle, params, hp)
        params.mlp_a[0].weight[:] = 1e6
        h2 = embed(bundle, params, hp)
        assert np.array_equal(h1, h2)

    def test_zero_weights_give_bias_rows(self):
        bundle = small_bundle()
        hp = quick_hp()
        rng = np.random.default_rng(0)
        params = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
        for block in (params.mlp_f, params.mlp_a, params.mlp_h):
            for layer in block:
                layer.weight[:] = 0.0
        params.mlp_h[0].bias[:] = np.arange(bundle.num_classes)
        h = embed(bundle, params, hp)
        assert np.array_equal(h, np.tile(np.arange(bundle.num_classes), (bundle.n, 1)))


class TestPrecomputeSimilarity:
    def test_freed_memory_handed_back_after_the_push(self):
        # the push's blocks formed on its threads stay in their malloc arenas once freed
        g = random_graph(PUSH_BLOCK + 1, avg_degree=4, seed=3)  # two blocks: the push runs on threads
        with mock.patch.object(model, "_release_freed_memory") as release:
            precompute_similarity(g, quick_hp(sim_mode="approx"))
            assert release.call_count == 1
            precompute_similarity(small_bundle().graph, quick_hp())  # exact: no push
            assert release.call_count == 1


class TestAggregate:
    def test_alpha_one_is_skip_only(self):
        bundle = small_bundle()
        sim = precompute_similarity(bundle.graph, quick_hp())
        h = np.random.default_rng(0).normal(size=(bundle.n, 3))
        assert np.array_equal(aggregate(sim, h, alpha=1.0), h)

    def test_alpha_zero_is_aggregation_only(self):
        bundle = small_bundle()
        sim = precompute_similarity(bundle.graph, quick_hp())
        h = np.random.default_rng(0).normal(size=(bundle.n, 3))
        want = sim.values @ h
        assert np.abs(aggregate(sim, h, alpha=0.0) - want).max() <= 1e-12

    def test_identity_similarity_passes_through_at_any_alpha(self):
        h = np.random.default_rng(1).normal(size=(12, 4))
        sim = identity_sim(12)
        assert np.array_equal(aggregate(sim, h, alpha=0.5), h)

    def test_linearity(self):
        bundle = small_bundle()
        sim = precompute_similarity(bundle.graph, quick_hp())
        rng = np.random.default_rng(2)
        h1 = rng.normal(size=(bundle.n, 4))
        h2 = rng.normal(size=(bundle.n, 4))
        lhs = aggregate(sim, h1 + h2, 0.3)
        rhs = aggregate(sim, h1, 0.3) + aggregate(sim, h2, 0.3)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestForward:
    def test_rows_sum_to_one(self):
        bundle = small_bundle()
        hp = quick_hp()
        params = init_params(np.random.default_rng(0), bundle.num_features, bundle.n,
                             bundle.num_classes, hp)
        sim = precompute_similarity(bundle.graph, hp)
        probs = forward(bundle, sim, params, hp)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_evaluation_deterministic(self):
        bundle = small_bundle()
        hp = quick_hp(dropout=0.5, mlp_h_depth=2)
        params = init_params(np.random.default_rng(1), bundle.num_features, bundle.n,
                             bundle.num_classes, hp)
        sim = precompute_similarity(bundle.graph, hp)
        a = forward(bundle, sim, params, hp, training=False)
        b = forward(bundle, sim, params, hp, training=False)
        assert np.array_equal(a, b)

    def test_twin_rows_identical(self):
        bundle, pairs = gen_twin_graph(base_seed=2, twin_pairs=3)
        hp = quick_hp(k=bundle.n)
        rng = np.random.default_rng(5)
        params = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
        sim = precompute_similarity(bundle.graph, hp)
        probs = forward(bundle, sim, params, hp)
        for u, v in pairs:
            assert np.abs(probs[u] - probs[v]).max() <= 1e-9


def unfolded_logits(bundle, sim, params, hp, rng):
    """The two-branch forward with the blend materialised: the head runs on
    combined = delta * (X W_f + b_f) + (1 - delta) * (A W_a + b_a)."""
    lf, la = params.mlp_f[0], params.mlp_a[0]
    adj = bundle.graph.adjacency_csr()
    combined = hp.delta * (bundle.features @ lf.weight + lf.bias)
    combined += (1.0 - hp.delta) * (adj @ la.weight + la.bias)
    h0 = params.mlp_h[0]
    hh, cache_h = mlp_forward_from_pre(params.mlp_h, combined @ h0.weight + h0.bias, hp.dropout, True, rng)
    cache_h["inputs"][0] = combined
    return aggregate(sim, hh, hp.alpha), cache_h


def unfolded_grads(bundle, sim, params, hp, cache_h, grad_z):
    """Backprop of unfolded_logits, through the materialised blend's gradient."""
    grad_h = (1.0 - hp.alpha) * (sim.csr.T @ grad_z) + hp.alpha * grad_z
    g, grads_h = mlp_backward_to_pre(params.mlp_h, cache_h, grad_h)
    grads_h[0] = (cache_h["inputs"][0].T @ g, g.sum(axis=0))
    grad_combined = g @ params.mlp_h[0].weight.T
    grad_hf = hp.delta * grad_combined
    grad_ha = (1.0 - hp.delta) * grad_combined
    adj = bundle.graph.adjacency_csr()
    flat = [bundle.features.T @ grad_hf, grad_hf.sum(axis=0), adj.T @ grad_ha, grad_ha.sum(axis=0)]
    for gw, gb in grads_h:
        flat.extend((gw, gb))
    return flat


class TestFoldedHead:
    """The head's first layer is applied to each branch before its product;
    outputs and gradients must match the model with the blend materialised."""

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_matches_unfolded_model(self, depth, delta, alpha):
        bundle = small_bundle(seed=4)
        hp = quick_hp(mlp_h_depth=depth, dropout=0.5, delta=delta, alpha=alpha)
        rng = np.random.default_rng(7)
        params = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
        for _, arr in params.named_arrays():  # nonzero biases, so the bias fold counts
            arr[...] = rng.normal(size=arr.shape)
        sim = precompute_similarity(bundle.graph, hp)

        want_z, cache_h = unfolded_logits(bundle, sim, params, hp, np.random.default_rng(11))
        got_z, cache = _logits_with_cache(bundle, sim, params, hp, True, np.random.default_rng(11))
        _, grad_z = softmax_cross_entropy(want_z, bundle.labels, bundle.train_idx)
        want = [want_z] + unfolded_grads(bundle, sim, params, hp, cache_h, grad_z)
        grads = _backward(bundle, sim, params, hp, cache, grad_z)
        got = [got_z] + [g[0] @ g[1] if isinstance(g, tuple) else g for g in grads]  # W_a's pair
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_depth_one_gradient_check(self):
        # the default depth is linear before the softmax: no ReLU kink to skip
        bundle = gen_structural_heterophily(seed=6, n=20, classes=2)
        hp = quick_hp(k=bundle.n, width=10, delta=0.3, alpha=0.4)
        rng = np.random.default_rng(0)
        params = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
        sim = precompute_similarity(bundle.graph, hp)
        arrays = params.arrays()

        def value_and_grad(flat):
            for dst, src in zip(arrays, unflatten_arrays(flat, arrays)):
                dst[...] = src
            loss, grads, pre = loss_and_grads(bundle, sim, params, hp, bundle.train_idx)
            assert pre.size == 0
            return loss, flatten_arrays(grads), pre

        err = grad_check(value_and_grad, flatten_arrays(arrays).copy(), samples=200,
                         rng=np.random.default_rng(13))
        assert err <= 1e-6


class TestFit:
    def test_zero_epochs_returns_initial_params(self):
        bundle = small_bundle()
        hp = quick_hp(max_epochs=0, patience=np.inf)
        params, report = fit(bundle, hp)
        assert report.curve == [] and report.best_epoch == 0
        # near-chance accuracy from untrained parameters
        assert 0.0 <= report.test_accuracy <= 1.0

    def test_empty_split_rejected(self):
        bundle = small_bundle()
        bundle.val_idx = np.empty(0, dtype=np.int64)
        with pytest.raises(ParameterError, match="val"):
            fit(bundle, quick_hp())

    def test_twin_bundle_is_memorizable(self):
        # capacity check: 200 plain training steps drive train accuracy to 1
        bundle, _ = gen_twin_graph(base_seed=1, twin_pairs=4, base_nodes=40)
        hp = quick_hp(k=bundle.n, lr=0.05, max_epochs=200)
        rng = np.random.default_rng(hp.seed)
        params = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
        sim = precompute_similarity(bundle.graph, hp)
        arrays = params.arrays()
        state = adam_init(arrays)
        for _ in range(200):
            loss, grads, _ = loss_and_grads(bundle, sim, params, hp, bundle.train_idx)
            adam_step(arrays, grads, state, hp.lr, weight_decay=0.0)
        assert evaluate(bundle, sim, params, hp, bundle.train_idx) == 1.0

    @pytest.mark.parametrize(
        "depth,n,width",
        [(1, 120, 16), (2, 120, 16), (1, 1100, 64), (2, 1100, 64)],
        ids=["1", "2", "1-n1100-w64", "2-n1100-w64"],
    )
    def test_matches_two_forward_reference_loop(self, depth, n, width):
        # fit reuses each eval pass as the next training forward and forms W_a's
        # gradient inside Adam; a plain loop with a training forward, a textbook
        # Adam step and an eval forward per epoch must give the same run bit for
        # bit. At n=1100, width 64, W_a spans three Adam blocks.
        bundle = small_bundle(seed=2, n=n)
        hp = quick_hp(mlp_h_depth=depth, dropout=0.5, weight_decay=5e-4, max_epochs=60, patience=8,
                      width=width)
        sim = precompute_similarity(bundle.graph, hp)
        params, report = fit(bundle, hp, sim=sim)

        rng = np.random.default_rng(hp.seed)
        ref = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
        arrays = ref.arrays()
        m = [np.zeros_like(a) for a in arrays]
        v = [np.zeros_like(a) for a in arrays]
        best, best_val, best_epoch, since_best, curve = [a.copy() for a in arrays], -1.0, 0, 0, []
        for epoch in range(1, hp.max_epochs + 1):
            loss, grads, _ = loss_and_grads(bundle, sim, ref, hp, bundle.train_idx, training=True, rng=rng)
            bc1, bc2 = 1.0 - 0.9**epoch, 1.0 - 0.999**epoch
            for p, g, mi, vi in zip(arrays, grads, m, v):
                g = g + hp.weight_decay * p
                mi *= 0.9
                mi += (1.0 - 0.9) * g
                vi *= 0.999
                vi += (1.0 - 0.999) * (g * g)
                p -= hp.lr * (mi / bc1) / (np.sqrt(vi / bc2) + 1e-8)
            z = aggregate(sim, embed(bundle, ref, hp), hp.alpha)
            val = bundle.val_idx
            val_acc = float(np.mean(np.argmax(z[val], axis=1) == bundle.labels[val]))
            curve.append({"epoch": epoch, "loss": loss, "val_acc": val_acc})
            if val_acc > best_val:
                best_val, best_epoch, since_best = val_acc, epoch, 0
                best = [a.copy() for a in arrays]
            else:
                since_best += 1
                if since_best >= hp.patience:
                    break
        assert report.curve == curve
        assert report.best_epoch == best_epoch
        for got, want in zip(params.arrays(), best):
            assert np.array_equal(got, want)
        assert report.test_accuracy == evaluate(bundle, sim, params, hp, bundle.test_idx)

    @staticmethod
    def _fit_peak_in_arrays(**kw) -> float:
        """fit's traced peak in n x width float64 arrays, adjacency and S built beforehand."""
        bundle = small_bundle(seed=3, n=2000)
        hp = quick_hp(width=256, max_epochs=5, patience=np.inf, **kw)
        sim = precompute_similarity(bundle.graph, hp)
        bundle.graph.adjacency_csr()
        tracemalloc.start()
        try:
            fit(bundle, hp, sim=sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (bundle.n * hp.width * 8)

    def test_peak_memory_stays_near_the_live_parameters(self):
        # W_a, its Adam m and v, and best are four n x width arrays that live
        # through fit; its gradient is formed inside Adam a block at a time,
        # so the traced peak stays under five of them
        assert self._fit_peak_in_arrays() < 5

    def test_peak_memory_at_depth_two_holds_one_step(self):
        # at depth 2 the forward cache (pre-activation, mask, activation) and
        # A G0 are n x width; they die with the training step, and the last
        # eval pass is dropped before a fresh training forward, so no two
        # epochs' temporaries overlap
        assert self._fit_peak_in_arrays(mlp_h_depth=2, dropout=0.5) < 12

    def test_wall_clock_accounting(self):
        bundle = small_bundle()
        hp = quick_hp(max_epochs=40)
        t0 = time.perf_counter()
        _, report = fit(bundle, hp)
        total = time.perf_counter() - t0
        parts = report.precompute_seconds + report.train_seconds
        assert parts <= total
        assert total - parts < 0.25  # bookkeeping outside the two timers is tiny

    def test_alpha_one_equals_identity_similarity_run(self):
        bundle = small_bundle()
        hp = quick_hp(alpha=1.0, max_epochs=25)
        _, rep_a = fit(bundle, hp, sim=precompute_similarity(bundle.graph, hp))
        _, rep_b = fit(bundle, hp, sim=identity_sim(bundle.n))
        assert rep_a.test_accuracy == rep_b.test_accuracy
        assert rep_a.best_epoch == rep_b.best_epoch
        assert [e["loss"] for e in rep_a.curve] == [e["loss"] for e in rep_b.curve]
        assert [e["val_acc"] for e in rep_a.curve] == [e["val_acc"] for e in rep_b.curve]

    def test_seed_reproducibility(self):
        bundle = small_bundle()
        hp = quick_hp(max_epochs=20, dropout=0.4, mlp_h_depth=2)
        _, rep_a = fit(bundle, hp)
        _, rep_b = fit(bundle, hp)
        assert [e["loss"] for e in rep_a.curve] == [e["loss"] for e in rep_b.curve]
        assert rep_a.test_accuracy == rep_b.test_accuracy

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_epoch(self):
        bundle = small_bundle()
        hp = quick_hp(lr=1e160, max_epochs=50)  # absurd step size forces overflow
        with pytest.raises(DivergenceError, match="epoch"):
            fit(bundle, hp)

    def test_early_stopping_respects_patience(self):
        bundle = small_bundle()
        hp = quick_hp(max_epochs=500, patience=5)
        _, report = fit(bundle, hp)
        last = report.curve[-1]["epoch"]
        assert last <= 500
        if last < 500:
            assert last == report.best_epoch + 5 or report.best_epoch == last


class TestTrainingDtype:
    """fit trains in the features' dtype: a float64 operand anywhere would promote a float32 run."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("depth,dropout", [(1, 0.0), (2, 0.5)])
    def test_every_training_array_takes_the_features_dtype(self, monkeypatch, dtype, depth, dropout):
        bundle = small_bundle(seed=2, n=1100)  # W_a spans three Adam blocks at width 64
        bundle.features = bundle.features.astype(dtype)
        hp = quick_hp(mlp_h_depth=depth, dropout=dropout, width=64, max_epochs=3, patience=np.inf)
        seen: list[tuple[str, np.ndarray]] = []
        logits_with_cache, step = model._logits_with_cache, model.adam_step

        def traced_logits(*args, **kwargs):
            z, cache = logits_with_cache(*args, **kwargs)
            seen.append(("logits", z))
            for key, arrays in cache["cache_h"].items():
                seen.extend((f"cache {key}", a) for a in arrays if a is not None)
            return z, cache

        def traced_step(params, grads, state, *args, **kwargs):
            for g in grads:
                seen.extend(("gradient", a) for a in (g if isinstance(g, tuple) else (g,)))
            state = step(params, grads, state, *args, **kwargs)
            seen.extend(("adam", a) for a in [*state.m, *state.v, state.scratch])
            return state

        monkeypatch.setattr(model, "_logits_with_cache", traced_logits)
        monkeypatch.setattr(model, "adam_step", traced_step)
        params, report = fit(bundle, hp)
        seen.extend(("parameter", a) for a in params.arrays())
        assert {name for name, _ in seen} >= {"logits", "cache pre", "gradient", "adam", "parameter"}
        if depth == 2:  # the hidden activation and its dropout masks
            assert {"cache inputs", "cache masks"} <= {name for name, _ in seen}
        assert [(name, a.dtype) for name, a in seen if a.dtype != dtype] == []
        assert report.similarity.csr.dtype == np.float64  # the S that is dumped and checkpointed

    def test_float32_run_draws_the_float64_run_s_weights(self):
        bundle = small_bundle(seed=2, n=300)
        hp = quick_hp(max_epochs=0)
        params64, _ = fit(bundle, hp)
        bundle.features = bundle.features.astype(np.float32)
        params32, _ = fit(bundle, hp)
        for a, b in zip(params64.arrays(), params32.arrays()):
            assert b.dtype == np.float32 and np.array_equal(a.astype(np.float32), b)


class TestEvaluate:
    def test_perfect_logits(self):
        bundle = small_bundle()
        hp = quick_hp(delta=1.0, alpha=1.0)
        rng = np.random.default_rng(0)
        params = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
        # one-hot feature of the true class, identity-like readout
        bundle.features = np.eye(bundle.num_classes)[bundle.labels]
        params.mlp_f[0].weight = np.zeros((bundle.num_classes, hp.width))
        params.mlp_f[0].weight[: bundle.num_classes, : bundle.num_classes] = np.eye(bundle.num_classes) * 10
        params.mlp_f[0].bias[:] = 0
        params.mlp_h[0].weight = np.zeros((hp.width, bundle.num_classes))
        params.mlp_h[0].weight[: bundle.num_classes, :] = np.eye(bundle.num_classes)
        params.mlp_h[0].bias[:] = 0
        sim = identity_sim(bundle.n)
        assert evaluate(bundle, sim, params, hp, bundle.test_idx) == 1.0

    def test_uniform_logits_tie_break_to_class_zero(self):
        bundle = small_bundle()
        hp = quick_hp()
        rng = np.random.default_rng(0)
        params = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
        for block in (params.mlp_f, params.mlp_a, params.mlp_h):
            for layer in block:
                layer.weight[:] = 0.0
                layer.bias[:] = 0.0
        sim = identity_sim(bundle.n)
        acc = evaluate(bundle, sim, params, hp, bundle.test_idx)
        frac_zero = float(np.mean(bundle.labels[bundle.test_idx] == 0))
        assert acc == pytest.approx(frac_zero)

    def test_invariant_under_split_permutation(self):
        bundle = small_bundle()
        hp = quick_hp()
        params, _ = fit(bundle, quick_hp(max_epochs=10))
        sim = precompute_similarity(bundle.graph, hp)
        split = bundle.test_idx
        a = evaluate(bundle, sim, params, hp, split)
        b = evaluate(bundle, sim, params, hp, split[::-1].copy())
        assert a == b


class TestGroupingEffect:
    def test_trained_embeddings_cluster_by_class(self):
        bundle = small_bundle(seed=7, n=120)
        hp = quick_hp(max_epochs=150)
        params, _ = fit(bundle, hp)
        sim = precompute_similarity(bundle.graph, hp)
        z = aggregate(sim, embed(bundle, params, hp), hp.alpha)
        rng = np.random.default_rng(0)  # 4,000 sampled pairs; those of a node with itself dropped
        us = rng.integers(0, bundle.n, size=4000)
        vs = rng.integers(0, bundle.n, size=4000)
        us, vs = us[us != vs], vs[us != vs]
        dists = np.linalg.norm(z[us] - z[vs], axis=1)
        same = bundle.labels[us] == bundle.labels[vs]
        assert dists[same].mean() < dists[~same].mean()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        bundle = small_bundle()
        hp = quick_hp(mlp_h_depth=2)
        params = init_params(np.random.default_rng(3), bundle.num_features, bundle.n,
                             bundle.num_classes, hp)
        sim = precompute_similarity(bundle.graph, hp)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, hp, sim)
        loaded_params, loaded_hp, loaded_sim = load_checkpoint(path)
        assert loaded_hp == hp
        assert (loaded_sim.n, loaded_sim.k, loaded_sim.c, loaded_sim.method) == (
            sim.n, sim.k, sim.c, sim.method
        )
        for key in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(loaded_sim.csr, key), getattr(sim.csr, key))
        for (name_a, arr_a), (name_b, arr_b) in zip(
            params.named_arrays(), loaded_params.named_arrays()
        ):
            assert name_a == name_b
            assert np.array_equal(arr_a, arr_b)
