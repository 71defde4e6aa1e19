import numpy as np
import pytest

from simga.errors import NumericError, ParameterError
from simga.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    LinearLayer,
    adam_init,
    adam_step,
    flatten_arrays,
    grad_check,
    init_linear,
    mlp_backward,
    mlp_forward,
    softmax_cross_entropy,
    softmax_rows,
    unflatten_arrays,
)


def make_mlp(rng, widths):
    return [init_linear(rng, a, b) for a, b in zip(widths[:-1], widths[1:])]


class TestMlpForward:
    def test_single_layer_is_affine(self):
        rng = np.random.default_rng(0)
        layer = LinearLayer(weight=rng.normal(size=(4, 3)), bias=np.zeros(3))
        x = rng.normal(size=(5, 4))
        out, _ = mlp_forward([layer], x)
        assert np.allclose(out, x @ layer.weight)

    def test_zero_dropout_training_equals_eval(self):
        rng = np.random.default_rng(1)
        layers = make_mlp(rng, [6, 8, 3])
        x = rng.normal(size=(7, 6))
        eval_out, _ = mlp_forward(layers, x, dropout=0.0, training=False)
        train_out, _ = mlp_forward(layers, x, dropout=0.0, training=True, rng=rng)
        assert np.array_equal(eval_out, train_out)

    def test_inverted_dropout_is_unbiased(self):
        # averaged over many masks, the training output approaches the
        # no-dropout output; 2% is measured on the mean deviation, the scale
        # at which a 10k-sample Monte Carlo average is statistically stable
        rng = np.random.default_rng(2)
        layers = make_mlp(rng, [5, 16, 4])
        x = rng.normal(size=(6, 5))
        ref, _ = mlp_forward(layers, x, dropout=0.0, training=False)
        mask_rng = np.random.default_rng(3)
        acc = np.zeros_like(ref)
        reps = 10_000
        for _ in range(reps):
            out, _ = mlp_forward(layers, x, dropout=0.5, training=True, rng=mask_rng)
            acc += out
        acc /= reps
        assert np.abs(acc - ref).mean() < 0.02 * np.abs(ref).mean()

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        layers = make_mlp(rng, [4, 3])
        with pytest.raises(ParameterError):
            mlp_forward(layers, np.zeros((2, 5)))

    def test_non_finite_output_rejected(self):
        layer = LinearLayer(weight=np.array([[np.inf]]), bias=np.zeros(1))
        with pytest.raises(NumericError):
            mlp_forward([layer], np.ones((1, 1)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        layers = make_mlp(rng, [4, 6, 5, 2])
        x = rng.normal(size=(3, 4))
        arrays = [a for layer in layers for a in (layer.weight, layer.bias)]

        def value_and_grad(flat):
            for dst, src in zip(arrays, unflatten_arrays(flat, arrays)):
                dst[...] = src
            out, cache = mlp_forward(layers, x)
            loss = 0.5 * float((out**2).sum())
            _, grads = mlp_backward(layers, cache, out)
            flat_grads = flatten_arrays([g for gw_gb in grads for g in gw_gb])
            pre = np.concatenate([z.ravel() for z in cache["pre"][:-1]])
            return loss, flat_grads, pre

        err = grad_check(value_and_grad, flatten_arrays(arrays).copy(), samples=150,
                         rng=np.random.default_rng(5))
        assert err <= 1e-6


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = np.zeros((4, 5))
        labels = np.array([0, 1, 2, 3])
        loss, _ = softmax_cross_entropy(logits, labels, np.arange(4))
        assert loss == pytest.approx(np.log(5), abs=1e-12)

    def test_confident_correct_logits_saturate(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss, _ = softmax_cross_entropy(logits, np.array([1, 2]), np.arange(2))
        assert loss < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = softmax_rows(rng.normal(size=(20, 7)) * 10)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_gradient_zero_outside_mask(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        _, grad = softmax_cross_entropy(logits, labels, np.array([1, 4]))
        untouched = [0, 2, 3, 5]
        assert np.all(grad[untouched] == 0.0)

    def test_empty_mask_rejected(self):
        with pytest.raises(ParameterError):
            softmax_cross_entropy(np.zeros((2, 2)), np.zeros(2, int), np.array([], dtype=int))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits0 = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        mask = np.array([0, 2, 3])

        def value_and_grad(flat):
            logits = flat.reshape(5, 3)
            loss, grad = softmax_cross_entropy(logits, labels, mask)
            return loss, grad.ravel(), np.empty(0)

        err = grad_check(value_and_grad, logits0.ravel().copy(), samples=15,
                         rng=np.random.default_rng(3))
        assert err <= 1e-6


class TestAdam:
    def test_zero_gradient_is_a_no_op(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        state = adam_init(params)
        adam_step(params, [np.zeros(2), np.zeros((1, 1))], state, lr=0.1, weight_decay=0.0)
        assert params[0].tolist() == [1.0, -2.0]
        assert params[1][0, 0] == 3.0

    def test_first_step_moves_by_about_lr(self):
        theta = np.array([0.0])
        state = adam_init([theta])
        adam_step([theta], [np.array([1.0])], state, lr=0.1)
        # bias-corrected first step is -lr * 1 / (1 + eps-term)
        assert theta[0] == pytest.approx(-0.1, rel=1e-6)

    def test_weight_decay_shrinks_parameters_monotonically(self):
        theta = np.array([5.0])
        state = adam_init([theta])
        prev = 5.0
        for _ in range(50):
            adam_step([theta], [np.zeros(1)], state, lr=0.05, weight_decay=0.1)
            assert 0.0 <= theta[0] < prev
            prev = theta[0]

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_matches_reference_formula_bit_for_bit(self, weight_decay):
        def reference_step(params, grads, state, lr, wd):
            state.step += 1
            bc1 = 1.0 - ADAM_BETA1**state.step
            bc2 = 1.0 - ADAM_BETA2**state.step
            for p, g, m, v in zip(params, grads, state.m, state.v):
                if wd:
                    g = g + wd * p
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * (g * g)
                p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

        rng = np.random.default_rng(0)
        rows = ADAM_BLOCK // 64
        # row counts that are not a multiple of the block's rows, 1-D biases
        # longer and shorter than a block, and rows wider than a block
        shapes = [(3 * rows + 17, 64), (64,), (rows - 1, 64), (ADAM_BLOCK + 5,), (3,), (2, ADAM_BLOCK + 1)]
        params = [rng.standard_normal(s) for s in shapes]
        expect = [p.copy() for p in params]
        state, ref_state = adam_init(params), adam_init(expect)
        for _ in range(5):
            grads = [rng.standard_normal(s) for s in shapes]
            adam_step(params, grads, state, lr=0.01, weight_decay=weight_decay)
            reference_step(expect, grads, ref_state, 0.01, weight_decay)
        for got, want in zip(params + state.m + state.v, expect + ref_state.m + ref_state.v):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("inner", [4, 64])
    def test_factor_pair_matches_materialised_gradient(self, inner, weight_decay):
        # a gradient given as (left, right) is formed block by block inside the
        # step; the run must equal the one given left @ right bit for bit
        rng = np.random.default_rng(1)
        rows = ADAM_BLOCK // 64
        for n in (rows - 3, rows + 1, 2 * rows + 1, 2 * rows + 17, 3 * rows + 2):  # k * rows + 1: a one-row tail
            params = [rng.standard_normal((n, 64)), rng.standard_normal(64)]
            expect = [p.copy() for p in params]
            state, ref_state = adam_init(params), adam_init(expect)
            for _ in range(4):
                left, right, bias = (rng.standard_normal(s) for s in ((n, inner), (inner, 64), 64))
                adam_step(params, [(left, right), bias], state, lr=0.01, weight_decay=weight_decay)
                adam_step(expect, [left @ right, bias], ref_state, lr=0.01, weight_decay=weight_decay)
            for got, want in zip(params + state.m + state.v, expect + ref_state.m + ref_state.v):
                assert np.array_equal(got, want)

    def test_step_counter_increases(self):
        theta = np.array([1.0])
        state = adam_init([theta])
        for want in (1, 2, 3):
            adam_step([theta], [np.ones(1)], state, lr=0.01)
            assert state.step == want


class TestGradCheck:
    def test_linear_regression_toy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=(12,))

        def value_and_grad(w):
            resid = x @ w - y
            loss = 0.5 * float(resid @ resid)
            return loss, x.T @ resid, np.empty(0)

        err = grad_check(value_and_grad, rng.normal(size=3), samples=3,
                         rng=np.random.default_rng(1))
        assert err <= 1e-7

    def test_detects_a_wrong_gradient(self):
        def value_and_grad(w):
            return float(w @ w), 3.0 * w, np.empty(0)  # true gradient is 2w

        err = grad_check(value_and_grad, np.array([1.0, 2.0]), samples=2,
                         rng=np.random.default_rng(0))
        assert err > 0.1

    def test_kink_coordinates_are_skipped_but_smooth_ones_judged(self):
        # coordinate 0 drives a ReLU input that sits 5e-6 from its kink, so a
        # 1e-5 central-difference step crosses it and must be skipped;
        # coordinate 1 is smooth and must still be judged
        def make(grad1):
            def value_and_grad(w):
                pre = np.array([w[0] - 5e-6])
                loss = float(np.maximum(pre[0], 0.0) + 3.0 * w[1])
                grad = np.array([1.0 if pre[0] > 0 else 0.0, grad1])
                return loss, grad, pre

            return value_and_grad

        params = np.array([1e-5, 2.0])
        rng = np.random.default_rng(0)
        # honest gradients: the kink coordinate would score ~0.25 if judged
        assert grad_check(make(3.0), params.copy(), samples=2, rng=rng) <= 1e-9
        # a deliberately wrong smooth-coordinate gradient must be caught
        assert grad_check(make(2.7), params.copy(), samples=2, rng=rng) > 0.05
