"""Minimal dense NN stack: linear layers, the MLP past its first layer, loss, Adam, grad check.

Arrays are float32 or float64 numpy. The training path (mlp_forward_from_pre,
the backward passes, the loss gradient and Adam) keeps the dtype it is given,
since one float64 operand would promote a float32 product; init_linear draws
weights in float64 from the rng stream, and the caller casts them. Gradients
are hand-derived per layer (no autodiff). Training is bit-reproducible for a
fixed seed in single-threaded mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError

__all__ = [
    "ensure_finite",
    "LinearLayer",
    "init_linear",
    "draws_dropout",
    "check_fan_in",
    "mlp_forward_from_pre",
    "mlp_backward_to_pre",
    "softmax_rows",
    "softmax_cross_entropy",
    "AdamState",
    "adam_init",
    "adam_step",
    "grad_check",
    "flatten_arrays",
    "unflatten_arrays",
]


def ensure_finite(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {context}")
    return arr


@dataclass
class LinearLayer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)

    def __post_init__(self) -> None:
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ParameterError("inconsistent linear layer shapes")


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int) -> LinearLayer:
    """Symmetric uniform init in +-sqrt(6 / (fan_in + fan_out)), zero bias."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    if fan_in * fan_out * 8 > np.iinfo(np.intp).max:  # numpy would refuse to size it (ValueError)
        raise MemoryError(f"a {fan_in} x {fan_out} float64 weight matrix is past the address space")
    weight = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return LinearLayer(weight=weight, bias=np.zeros(fan_out))


def draws_dropout(layers: list[LinearLayer], dropout: float) -> bool:
    """Whether a training mlp_forward_from_pre over these layers draws dropout masks."""
    return dropout > 0.0 and len(layers) > 1


def check_fan_in(i: int, x: np.ndarray, layer: LinearLayer) -> None:
    """Refuse an input `x` to layer `i` whose width is not the layer's fan_in."""
    if x.shape[1] != layer.weight.shape[0]:
        raise ParameterError(f"layer {i}: input width {x.shape[1]} != fan_in {layer.weight.shape[0]}")


def mlp_forward_from_pre(
    layers: list[LinearLayer],
    pre0: np.ndarray,
    dropout: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Affine stack with ReLU between layers (none after the last), from `pre0` on.

    `pre0` is the first layer's pre-activation: the caller has applied
    layers[0] itself, so the cache holds no input for it, and with a single
    layer the output is `pre0`. While training, inverted dropout is applied to
    each hidden activation, so evaluation needs no rescaling. Returns (output,
    cache for mlp_backward_to_pre).
    """
    if training and draws_dropout(layers, dropout) and rng is None:
        raise ParameterError("dropout during training needs an rng")
    inputs: list[np.ndarray | None] = [None]
    pre = [pre0]
    masks: list[np.ndarray | None] = []
    z = pre0
    for i in range(1, len(layers)):
        h = np.maximum(z, 0.0)
        mask = None
        if training and dropout > 0.0:
            # from float64 draws whatever h's dtype, in h's dtype: g * mask keeps g's
            mask = np.divide(rng.random(h.shape) >= dropout, 1.0 - dropout, dtype=h.dtype)
            h *= mask
        masks.append(mask)
        check_fan_in(i, h, layers[i])
        inputs.append(h)
        z = h @ layers[i].weight + layers[i].bias
        pre.append(z)
    ensure_finite(z, "mlp output")
    return z, {"inputs": inputs, "pre": pre, "masks": masks}


def mlp_backward_to_pre(
    layers: list[LinearLayer], cache: dict, grad_out: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray] | None]]:
    """Backprop through mlp_forward_from_pre: (grad wrt pre0, [(dW, db)] per layer).

    The first layer's entry is None: the caller applied that layer, so the
    caller differentiates it, from the returned grad wrt pre0.
    """
    grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(layers)
    g = grad_out
    for i in range(len(layers) - 1, 0, -1):
        grads[i] = (cache["inputs"][i].T @ g, g.sum(axis=0))
        g = g @ layers[i].weight.T
        mask = cache["masks"][i - 1]
        if mask is not None:
            g = g * mask
        g = g * (cache["pre"][i - 1] > 0.0)
    return g, grads


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, index_mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean NLL over the masked rows; gradient is zero outside the mask.

    Stabilized by row-wise max subtraction.
    """
    idx = np.asarray(index_mask, dtype=np.int64)
    if idx.size == 0:
        raise ParameterError("empty index mask")
    sub = logits[idx]
    y = np.asarray(labels)[idx]
    z = sub - sub.max(axis=1, keepdims=True)
    e = np.exp(z)
    norm = e.sum(axis=1)
    loss = float(np.mean(np.log(norm) - z[np.arange(idx.size), y], dtype=np.float64))
    probs = np.divide(e, norm[:, None], out=e)  # softmax_rows(sub), from the same exp(z)
    probs[np.arange(idx.size), y] -= 1.0
    grad = np.zeros_like(logits)
    grad[idx] = probs / idx.size
    ensure_finite(grad, "cross-entropy gradient")
    return loss, grad


# Elements per Adam block: the block's six streams (param, grad, m, v and two
# scratch rows) take 6 * 256 KB in float64 and 6 * 128 KB in float32, inside a
# 2 MB L2. Tuned on the benchmark host (Xeon, 2 MB L2 per core) over 8192-131072
# elements: float64 steps are fastest here, and float32 steps are flat from
# 32768 to 65536 (9.8 against 9.7 ms for a 40,000 x 64 factored gradient).
ADAM_BLOCK = 32768
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# grad_check's central-difference step, and how near 0 a pre-activation sits at a ReLU kink
GRAD_CHECK_STEP, GRAD_CHECK_KINK = 1e-5, 1e-6


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, ADAM_BLOCK)), repr=False)


def adam_init(params: list[np.ndarray]) -> AdamState:
    return AdamState(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray | tuple[np.ndarray, np.ndarray]],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> AdamState:
    """One bias-corrected Adam update, in place; weight decay enters as +wd*theta on the gradient.

    Per element, with g' = g + wd*theta and (b1, b2, eps) = (ADAM_BETA1, ADAM_BETA2, ADAM_EPS):
    m = b1*m + (1-b1)*g',  v = b2*v + (1-b2)*g'^2,  theta -= lr*(m/bc1) / (sqrt(v/bc2) + eps).
    Each array is updated in blocks of leading-axis rows holding about
    ADAM_BLOCK elements, with the state's two scratch rows as temporaries, so
    a step allocates no array and a block's streams stay in cache.

    A gradient may come as a factor pair (left, right) with g = left @ right;
    each block's rows of g are then formed in scratch from left's rows, so the
    full gradient is never built. Those rows are bit-identical to left @ right's
    wherever BLAS's gemm rounds a row the same in a block as in the whole product
    (checked for n x 4 @ 4 x 64 and n x 64 @ 64 x 64). A one-row product runs as
    gemv and can differ in the last bit, so no block of a 2-D array holds one row
    of several: blocks hold two rows at least, and a one-row tail joins the block
    before it.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ParameterError("params/grads/state length mismatch")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        rows = max(p.ndim, ADAM_BLOCK // max(1, p[:1].size))  # two rows at least when 2-D
        bounds = [*range(0, len(p), rows), len(p)]
        if p.ndim == 2 and len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            del bounds[-2]  # the one-row tail joins the block before it
        need = p[: rows + 1].size  # a block may hold one row more
        # in p's dtype: float64 rows would run a float32 block through float64
        if need > state.scratch.shape[1] or state.scratch.dtype != p.dtype:
            state.scratch = np.empty((2, need), dtype=p.dtype)
        for lo, hi in zip(bounds, bounds[1:]):
            pb, mb, vb = (arr[lo:hi] for arr in (p, m, v))
            a, b = (row[: pb.size].reshape(pb.shape) for row in state.scratch)
            if isinstance(g, tuple):
                gb = np.matmul(g[0][lo:hi], g[1], out=a)
                if weight_decay:
                    gb += np.multiply(pb, weight_decay, out=b)
            else:
                gb = g[lo:hi]
                if weight_decay:
                    gb = np.add(gb, np.multiply(pb, weight_decay, out=a), out=a)
            mb *= ADAM_BETA1
            mb += np.multiply(gb, 1.0 - ADAM_BETA1, out=b)
            vb *= ADAM_BETA2
            np.multiply(gb, gb, out=b)
            b *= 1.0 - ADAM_BETA2
            vb += b
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            np.divide(mb, bc1, out=a)
            a *= lr
            a /= b
            pb -= a
    return state


def flatten_arrays(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays]) if arrays else np.empty(0)


def unflatten_arrays(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    out = []
    pos = 0
    for a in like:
        out.append(flat[pos : pos + a.size].reshape(a.shape))
        pos += a.size
    if pos != flat.size:
        raise ParameterError("flat vector size mismatch")
    return out


def grad_check(
    value_and_grad, params: np.ndarray, samples: int = 200, rng: np.random.Generator | None = None
) -> float:
    """Central-difference check of an analytic gradient on sampled coordinates.

    value_and_grad(flat_params) must return (loss, flat_grad, relu_pre) with
    relu_pre the concatenated hidden pre-activations (may be empty); the loss
    must be deterministic (dropout off). Coordinates whose perturbation flips a
    ReLU sign, or that sit within GRAD_CHECK_KINK of a kink, are skipped: the
    central difference straddles a nondifferentiable point there. Returns the max
    relative error, with the denominator floored at 1e-3 so near-zero
    coordinates are judged on an absolute scale.
    """
    rng = rng or np.random.default_rng(0)
    loss0, grad0, pre0 = value_and_grad(params)
    if not np.isfinite(loss0):
        raise NumericError("loss non-finite at the base point")
    count = min(samples, params.size)
    coords = rng.choice(params.size, size=count, replace=False)
    signs0 = pre0 > 0.0
    worst = 0.0
    for i in coords:
        bumped = params.copy()
        bumped[i] += GRAD_CHECK_STEP
        loss_p, _, pre_p = value_and_grad(bumped)
        bumped[i] -= 2.0 * GRAD_CHECK_STEP
        loss_m, _, pre_m = value_and_grad(bumped)
        if pre0.size:
            crossed = (
                np.any((pre_p > 0.0) != signs0)
                or np.any((pre_m > 0.0) != signs0)
                or min(np.abs(pre_p).min(), np.abs(pre_m).min()) < GRAD_CHECK_KINK
            )
            if crossed:
                continue
        numeric = (loss_p - loss_m) / (2.0 * GRAD_CHECK_STEP)
        analytic = grad0[i]
        denom = max(abs(numeric), abs(analytic), 1e-3)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst
