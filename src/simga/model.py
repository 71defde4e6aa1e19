"""The similarity-aggregation classifier: two input branches, one head, one global mix.

Pipeline: a feature branch embeds the node-feature matrix and an adjacency
branch embeds raw binary adjacency rows (sparse row x dense weight); the two
are blended with the feature factor delta and passed through the head MLP to
get H. The head's first layer W_h0 is affine and nothing nonlinear sits
between the blend and it, so W_h0 is applied to each branch's weight before
the products (X (W_f W_h0), A (W_a W_h0)); the blend is formed at W_h0's
output width, never at the branch width, and the backward pass runs its
sparse product at that width too. The adjacency weight's n x width gradient
is never built either: the backward pass returns it as two factors and Adam
forms it one cache block of rows at a time. The precomputed sparse similarity
then mixes rows globally, Z = (1 - alpha) * S @ H + alpha * H, and a softmax
over Z gives class probabilities. S is computed once before training (the
expensive part is outside the training loop) and reused every epoch.
"""

from __future__ import annotations

import copy
import json
import math
import time
import zipfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .data import DatasetBundle
from .errors import DivergenceError, InputFormatError, NumericError, ParameterError
from .graph import Graph
from .nn import (
    AdamState,
    LinearLayer,
    adam_init,
    adam_step,
    check_fan_in,
    draws_dropout,
    init_linear,
    mlp_backward_to_pre,
    mlp_forward_from_pre,
    softmax_cross_entropy,
    softmax_rows,
)
from .simrank import (
    SparseSim,
    simrank_fixedpoint,
    simrank_localpush,
    sparse_aggregate,
    topk_from_push,
    topk_prune,
)
from .textio import input_error

__all__ = [
    "HyperParams",
    "SimgaParams",
    "TrainReport",
    "init_params",
    "precompute_similarity",
    "embed",
    "aggregate",
    "forward",
    "fit",
    "evaluate",
    "grouping_report",
    "GroupingReport",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 3


@dataclass
class HyperParams:
    """Run configuration, and the one declaration of every knob.

    Each field is a key of the flat key=value config file and a `simga train`
    flag (`--` + the name with `_` -> `-`); both parse values with the field's type.
    """

    delta: float = 0.5
    alpha: float = 0.5
    c: float = 0.6
    k: int = 1024
    eps: float = 0.1
    width: int = 64
    mlp_h_depth: int = 1
    lr: float = 0.01
    dropout: float = 0.5
    weight_decay: float = 5e-4
    max_epochs: int = 500
    patience: float = 100
    seed: int = 0
    sim_mode: str = "exact"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not (0.0 <= self.delta <= 1.0):
            raise ParameterError("delta must lie in [0, 1]")
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError("alpha must lie in [0, 1]")
        if not (0.0 < self.c < 1.0):
            raise ParameterError("decay factor c must lie in (0, 1)")
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if not (0.0 < self.eps < math.inf):
            raise ParameterError("eps must be finite and > 0")
        if self.width < 1:
            raise ParameterError("width must be >= 1")
        if self.mlp_h_depth not in (1, 2):
            raise ParameterError("mlp_h_depth must be 1 or 2")
        if not (0.0 < self.lr < math.inf):
            raise ParameterError("learning rate must be finite and > 0")
        if not (0.0 <= self.dropout < 1.0):
            raise ParameterError("dropout must lie in [0, 1)")
        if not (0.0 <= self.weight_decay < math.inf):
            raise ParameterError("weight decay must be finite and >= 0")
        if self.max_epochs < 0:
            raise ParameterError("max_epochs must be >= 0")
        if not self.patience > 0:
            raise ParameterError("patience must be > 0")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if self.sim_mode not in ("exact", "approx"):
            raise ParameterError("sim_mode must be 'exact' or 'approx'")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            out[f.name] = val if not (isinstance(val, float) and math.isinf(val)) else "inf"
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "HyperParams":
        """Every value is parsed from its text with the field's type, so 2.0 is no int."""
        if not isinstance(raw, dict):
            raise InputFormatError("hyperparameters are not a key-value mapping")
        kwargs = {}
        types = get_type_hints(cls)
        for key, val in raw.items():
            if key not in types:
                raise InputFormatError(f"unknown hyperparameter {key!r}")
            try:
                kwargs[key] = types[key](str(val))  # float accepts "inf" for patience
            except ValueError:
                raise InputFormatError(f"bad value for {key}: {val!r}") from None
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "HyperParams":
        """Flat key=value text file; '#' comments allowed; overrides win over file values."""
        raw: dict = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise input_error(fh, f"line {lineno}: expected key=value")
                key, _, val = text.partition("=")
                raw[key.strip()] = val.strip()
        if overrides:
            raw.update(overrides)
        return cls.from_dict(raw)


@dataclass
class SimgaParams:
    """The three learnable blocks: feature branch, adjacency branch, head."""

    mlp_f: list[LinearLayer]
    mlp_a: list[LinearLayer]
    mlp_h: list[LinearLayer]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for block_name, block in (("mlp_f", self.mlp_f), ("mlp_a", self.mlp_a), ("mlp_h", self.mlp_h)):
            for i, layer in enumerate(block):
                out.append((f"{block_name}.{i}.weight", layer.weight))
                out.append((f"{block_name}.{i}.bias", layer.bias))
        return out

    def arrays(self) -> list[np.ndarray]:
        return [a for _, a in self.named_arrays()]

    def clone(self) -> "SimgaParams":
        return copy.deepcopy(self)


def init_params(
    rng: np.random.Generator, num_features: int, n: int, num_classes: int, hp: HyperParams
) -> SimgaParams:
    mlp_f = [init_linear(rng, num_features, hp.width)]
    mlp_a = [init_linear(rng, n, hp.width)]
    if hp.mlp_h_depth == 1:
        mlp_h = [init_linear(rng, hp.width, num_classes)]
    else:
        mlp_h = [init_linear(rng, hp.width, hp.width), init_linear(rng, hp.width, num_classes)]
    return SimgaParams(mlp_f=mlp_f, mlp_a=mlp_a, mlp_h=mlp_h)


def precompute_similarity(g: Graph, hp: HyperParams) -> SparseSim:
    """The one production route to S: exact fixed point or push, then top-k pruning.

    exact  -> the fixed point run for ceil(log_c eps) iterations (absolute
              accuracy eps), top-k of each row.
    approx -> the push's estimate of the power series at eps, diagonal pinned
              to 1, top-k of each row; never dense, so it works past DENSE_LIMIT.
    """
    if hp.sim_mode == "exact":
        iterations = max(1, math.ceil(math.log(hp.eps) / math.log(hp.c)))
        return topk_prune(simrank_fixedpoint(g, hp.c, iterations), hp.k)
    return topk_from_push(simrank_localpush(g, hp.c, hp.eps), hp.k)


def _embed_with_cache(
    bundle: DatasetBundle,
    params: SimgaParams,
    hp: HyperParams,
    training: bool,
    rng: np.random.Generator | None,
):
    """H and its backward cache, with the head's first layer folded into both branches.

    The head's first layer W_h0 is affine, so it is applied to each branch's
    weight before the products, never to the blended branch output:
    pre0 = delta*X(W_f W_h0) + (1-delta)*A(W_a W_h0) + (delta*b_f + (1-delta)*b_a) W_h0 + b_h0.
    The sparse product A(W_a W_h0) then runs at W_h0's output width, the
    class count at mlp_h_depth=1. The rest of the head runs on pre0.
    """
    adj = bundle.graph.adjacency_csr()
    lf, la, l0 = params.mlp_f[0], params.mlp_a[0], params.mlp_h[0]
    check_fan_in(0, bundle.features, lf)
    d = hp.delta
    pre0 = adj @ (la.weight @ l0.weight)
    pre0 *= 1.0 - d
    pre0 += d * (bundle.features @ (lf.weight @ l0.weight))
    pre0 += (d * lf.bias + (1.0 - d) * la.bias) @ l0.weight + l0.bias
    hh, cache_h = mlp_forward_from_pre(params.mlp_h, pre0, hp.dropout, training, rng)
    return hh, {"cache_h": cache_h, "adj": adj}


def embed(
    bundle: DatasetBundle,
    params: SimgaParams,
    hp: HyperParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Pre-aggregation node embedding H = head(delta * feat_branch + (1-delta) * adj_branch)."""
    hh, _ = _embed_with_cache(bundle, params, hp, training, rng)
    return hh


def aggregate(s: SparseSim, h: np.ndarray, alpha: float) -> np.ndarray:
    """Global mix Z = (1 - alpha) * S @ H + alpha * H; alpha weights the skip term."""
    if not (0.0 <= alpha <= 1.0):
        raise ParameterError("alpha must lie in [0, 1]")
    return (1.0 - alpha) * sparse_aggregate(s, h) + alpha * h


def _logits_with_cache(bundle, s, params, hp, training, rng):
    hh, cache = _embed_with_cache(bundle, params, hp, training, rng)
    z = aggregate(s, hh, hp.alpha)
    return z, cache


def forward(
    bundle: DatasetBundle,
    s: SparseSim,
    params: SimgaParams,
    hp: HyperParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Row-stochastic class probabilities softmax(aggregate(s, embed(...)))."""
    z, _ = _logits_with_cache(bundle, s, params, hp, training, rng)
    return softmax_rows(z)


def _backward(bundle, s, params, hp, cache, grad_z) -> list[np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """Gradient of the loss wrt every parameter array, ordered like named_arrays().

    From g0 = dL/dpre0 (see _embed_with_cache) each branch's gradient is its
    width-W_h0 product times W_h0^T; Graph checks that the adjacency is
    symmetric, so A g0 = A^T g0. W_a's gradient, n x width, comes back as the
    factor pair (A g0, (1-delta) W_h0^T): adam_step forms it a block at a
    time, and loss_and_grads multiplies it out.
    """
    grad_h = (1.0 - hp.alpha) * (s.csr.T @ grad_z) + hp.alpha * grad_z
    g0, grads_h = mlp_backward_to_pre(params.mlp_h, cache["cache_h"], grad_h)
    lf, la, l0 = params.mlp_f[0], params.mlp_a[0], params.mlp_h[0]
    d = hp.delta
    xg = bundle.features.T @ g0
    ag = cache["adj"] @ g0
    gsum = g0.sum(axis=0)
    bias = d * lf.bias + (1.0 - d) * la.bias
    grads_h[0] = (d * (lf.weight.T @ xg) + (1.0 - d) * (la.weight.T @ ag) + np.outer(bias, gsum), gsum)
    wt = l0.weight.T
    flat = [d * (xg @ wt), d * (gsum @ wt), (ag, (1.0 - d) * wt), (1.0 - d) * (gsum @ wt)]
    for gw, gb in grads_h:
        flat.extend((gw, gb))
    return flat


def loss_and_grads(
    bundle: DatasetBundle,
    s: SparseSim,
    params: SimgaParams,
    hp: HyperParams,
    index_mask: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Masked cross-entropy plus parameter gradients; also returns the hidden pre-activations.

    The head's only hidden pre-activation is pre0 at mlp_h_depth=2; at depth 1
    there is none and an empty array comes back.
    """
    z, cache = _logits_with_cache(bundle, s, params, hp, training, rng)
    loss, grad_z = softmax_cross_entropy(z, bundle.labels, index_mask)
    grads = _backward(bundle, s, params, hp, cache, grad_z)
    grads = [g[0] @ g[1] if isinstance(g, tuple) else g for g in grads]  # W_a's pair multiplied out
    pre = np.concatenate([np.empty(0)] + [p.ravel() for p in cache["cache_h"]["pre"][:-1]])
    return loss, grads, pre


def _train_step(bundle, s, params, hp, state, rng, kept=None) -> float:
    """One training step, in place: forward, masked loss, backward, Adam; returns the loss.

    `kept`, an eval pass (logits, cache) at these parameters that dropout would
    not change, stands in for the training forward. Cache and gradients die here.
    """
    z, cache = kept if kept is not None else _logits_with_cache(bundle, s, params, hp, training=True, rng=rng)
    loss, grad_z = softmax_cross_entropy(z, bundle.labels, bundle.train_idx)
    if not math.isfinite(loss):
        raise NumericError("non-finite training loss")
    grads = _backward(bundle, s, params, hp, cache, grad_z)
    adam_step(params.arrays(), grads, state, hp.lr, hp.weight_decay)
    return loss


@dataclass
class TrainReport:
    curve: list[dict]  # per-epoch {"epoch", "loss", "val_acc"}
    best_epoch: int
    test_accuracy: float
    precompute_seconds: float
    train_seconds: float
    similarity: SparseSim = field(repr=False)  # the S trained against; not in the JSON

    def to_json_dict(self) -> dict:
        return {
            "test_accuracy": self.test_accuracy,
            "best_epoch": self.best_epoch,
            "precompute_seconds": self.precompute_seconds,
            "train_seconds": self.train_seconds,
            "curve": self.curve,
        }


def _accuracy(logits: np.ndarray, labels: np.ndarray, split: np.ndarray) -> float:
    pred = np.argmax(logits[split], axis=1)  # argmax takes the smallest index on ties
    return float(np.mean(pred == labels[split]))


def evaluate(
    bundle: DatasetBundle,
    s: SparseSim,
    params: SimgaParams,
    hp: HyperParams,
    split: np.ndarray,
) -> float:
    """Argmax accuracy over the split, dropout off; ties go to the smallest class."""
    split = np.asarray(split, dtype=np.int64)
    if split.size == 0:
        raise ParameterError("empty evaluation split")
    z, _ = _logits_with_cache(bundle, s, params, hp, training=False, rng=None)
    return _accuracy(z, bundle.labels, split)


def fit(
    bundle: DatasetBundle,
    hp: HyperParams,
    sim: SparseSim | None = None,
) -> tuple[SimgaParams, TrainReport]:
    """Full-batch training with early stopping on validation accuracy.

    The similarity matrix is precomputed (and timed separately) unless one is
    passed in; the report carries the S trained against. Stops after
    `patience` epochs without a new validation best, restores the best
    parameters, and reports test accuracy there.

    An epoch is one `_train_step` (forward, loss, backward, Adam) and one
    eval pass at the updated parameters for the validation accuracy. The next
    epoch's training forward runs at those same parameters, so it reuses the
    eval pass where dropout reaches nothing (dropout acts only between head
    layers, so at mlp_h_depth=1 or dropout=0); otherwise it drops the pass first.
    """
    for name, split in (("train", bundle.train_idx), ("val", bundle.val_idx), ("test", bundle.test_idx)):
        if split.size == 0:
            raise ParameterError(f"{name} split is empty")
    precompute_seconds = 0.0
    if sim is None:
        t0 = time.perf_counter()
        sim = precompute_similarity(bundle.graph, hp)
        precompute_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    rng = np.random.default_rng(hp.seed)
    params = init_params(rng, bundle.num_features, bundle.n, bundle.num_classes, hp)
    state: AdamState = adam_init(params.arrays())
    head_dropout = draws_dropout(params.mlp_h, hp.dropout)

    best = params.clone()
    best_val = -1.0
    best_epoch = 0
    since_best = 0
    curve: list[dict] = []
    evaluated = None  # (logits, cache) of the last eval pass, at the current parameters
    for epoch in range(1, hp.max_epochs + 1):
        kept, evaluated = (None if head_dropout else evaluated), None
        try:
            loss = _train_step(bundle, sim, params, hp, state, rng, kept)
            del kept  # nothing of the step outlives it into the eval pass
            evaluated = _logits_with_cache(bundle, sim, params, hp, training=False, rng=None)
        except NumericError as exc:
            raise DivergenceError(f"training diverged at epoch {epoch}: {exc}") from exc
        val_acc = _accuracy(evaluated[0], bundle.labels, bundle.val_idx)
        curve.append({"epoch": epoch, "loss": loss, "val_acc": val_acc})
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            for dst, src in zip(best.arrays(), params.arrays()):
                np.copyto(dst, src)
            since_best = 0
        else:
            since_best += 1
            if since_best >= hp.patience:
                break
    del evaluated
    test_acc = evaluate(bundle, sim, best, hp, bundle.test_idx)
    train_seconds = time.perf_counter() - t0
    report = TrainReport(
        curve=curve,
        best_epoch=best_epoch,
        test_accuracy=test_acc,
        precompute_seconds=precompute_seconds,
        train_seconds=train_seconds,
        similarity=sim,
    )
    return best, report


@dataclass
class GroupingReport:
    mean_intra_distance: float
    mean_inter_distance: float
    twin_max_deviation: float | None
    pairs_sampled: int


def grouping_report(
    z: np.ndarray,
    labels: np.ndarray,
    pair_sample: int,
    rng: np.random.Generator | None = None,
    twin_pairs: list[tuple[int, int]] | None = None,
) -> GroupingReport:
    """Row-distance statistics of an embedding, stratified by label agreement.

    Samples `pair_sample` unordered node pairs and averages Euclidean row
    distances within/between classes; for designated twin pairs reports the
    max absolute entry-wise deviation. Strata that receive no samples come
    back as nan.
    """
    if pair_sample < 1:
        raise ParameterError("pair_sample must be >= 1")
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    n = z.shape[0]
    if n < 2:
        raise ParameterError("need at least two rows")
    rng = rng or np.random.default_rng(0)
    us = rng.integers(0, n, size=pair_sample)
    vs = rng.integers(0, n, size=pair_sample)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    dists = np.linalg.norm(z[us] - z[vs], axis=1)
    same = labels[us] == labels[vs]
    mean_intra = float(dists[same].mean()) if same.any() else float("nan")
    mean_inter = float(dists[~same].mean()) if (~same).any() else float("nan")
    twin_dev = None
    if twin_pairs:
        twin_dev = max(float(np.abs(z[u] - z[v]).max()) for u, v in twin_pairs)
    return GroupingReport(
        mean_intra_distance=mean_intra,
        mean_inter_distance=mean_inter,
        twin_max_deviation=twin_dev,
        pairs_sampled=int(us.size),
    )


def save_checkpoint(path: str | Path, params: SimgaParams, hp: HyperParams, sim: SparseSim) -> None:
    """Named-tensor npz: the weights, the S they were trained against, the run config."""
    payload = {name: arr for name, arr in params.named_arrays()}
    csr = sim.csr  # its index arrays stored as int64, whatever index width scipy chose
    payload.update({"sim.indptr": csr.indptr.astype(np.int64), "sim.cols": csr.indices.astype(np.int64)})
    payload["sim.scores"] = csr.data
    payload["__format_version__"] = np.int64(CHECKPOINT_FORMAT_VERSION)
    payload["__hyperparams__"] = np.str_(json.dumps(hp.to_dict()))
    provenance = {"n": sim.n, "k": sim.k, "c": sim.c, "method": sim.method}
    payload["__similarity__"] = np.str_(json.dumps(provenance))
    np.savez(path, **payload)


def load_checkpoint(path: str | Path) -> tuple[SimgaParams, HyperParams, SparseSim]:
    """Read a checkpoint of this format version; anything else is an InputFormatError naming the path."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise InputFormatError(f"checkpoint {path}: not an npz file") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise InputFormatError(f"checkpoint {path}: not an npz file")

    def array(key: str) -> np.ndarray:
        if key not in data.files:
            raise InputFormatError(f"no {key} array")
        try:
            return data[key]
        except ValueError:  # a pickled object array, which allow_pickle=False refuses
            raise InputFormatError(f"{key} is not a plain array") from None

    def header(key: str):
        try:
            return json.loads(str(array(key)))
        except ValueError:
            raise InputFormatError(f"{key} is not JSON") from None

    try:
        with data:
            version = header("__format_version__")
            if version != CHECKPOINT_FORMAT_VERSION:
                raise InputFormatError(
                    f"format version {version} is not supported "
                    f"(this version reads {CHECKPOINT_FORMAT_VERSION}); retrain to write a new one"
                )
            hp = HyperParams.from_dict(header("__hyperparams__"))
            depth = {"mlp_f": 1, "mlp_a": 1, "mlp_h": hp.mlp_h_depth}
            blocks = {
                name: [
                    LinearLayer(weight=array(f"{name}.{i}.weight"), bias=array(f"{name}.{i}.bias"))
                    for i in range(layers)
                ]
                for name, layers in depth.items()
            }
            head = blocks["mlp_h"]
            hidden = {blocks["mlp_f"][0].weight.shape[1], blocks["mlp_a"][0].weight.shape[1]}
            hidden |= {layer.weight.shape[0] for layer in head}
            hidden |= {layer.weight.shape[1] for layer in head[:-1]}
            if hidden != {hp.width}:
                raise InputFormatError(
                    f"width {hp.width} disagrees with the stored weights' hidden sizes {sorted(hidden)}"
                )
            provenance = header("__similarity__")  # n, k, c and method of the stored S
            stored = {key: array(f"sim.{key}") for key in ("indptr", "cols", "scores")}
            for key in ("indptr", "cols"):  # numpy and scipy would truncate floats to ids
                if stored[key].dtype.kind not in "iu":
                    raise InputFormatError(f"sim.{key} holds {stored[key].dtype}, not integers")
            try:
                n, k, c, method = (provenance[key] for key in ("n", "k", "c", "method"))
                sim = SparseSim.from_arrays(n=int(n), k=int(k), c=float(c), method=str(method), **stored)
            except (KeyError, TypeError, ValueError, InputFormatError) as exc:
                raise InputFormatError(f"bad stored similarity: {exc}") from None
            trained_n = blocks["mlp_a"][0].weight.shape[0]  # the adjacency branch has one row per node
            if sim.n != trained_n:
                raise InputFormatError(f"stored similarity has {sim.n} nodes, the weights {trained_n}")
    except (InputFormatError, ParameterError) as exc:
        raise InputFormatError(f"checkpoint {path}: {exc}") from None
    return SimgaParams(**blocks), hp, sim
