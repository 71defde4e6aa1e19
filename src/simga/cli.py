"""Command-line entry points: homophily | simrank | train | eval | verify | bench.

Exit codes are stable: 0 success, 2 input error, 3 numeric failure, 4 guard
refusal (a dense-size guard, or an allocation the machine cannot make).
Every subcommand is deterministic, apart from wall-clock fields in reports:
train, verify and bench take --seed; homophily, simrank and eval draw no
random numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .bench import format_tsv, run_bench
from .data import load_bundle, load_labels, load_per_node
from .errors import GuardError, InputFormatError, NumericError, ParameterError
from .graph import load_edge_list, node_homophily
from .model import (
    HyperParams,
    aggregate,
    embed,
    evaluate,
    fit,
    load_checkpoint,
    precompute_similarity,
    save_checkpoint,
)
from .simrank import class_score_histogram, dump_sparse_sim, load_sparse_sim
from .textio import input_error
from .verify import run_all

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_GUARD = 4


class _Parser(argparse.ArgumentParser):
    """argparse with its flag errors raised as ParameterError: one line and exit 2, no usage block."""

    def error(self, message: str):
        raise ParameterError(message)


def _add_shared_io(parser: argparse.ArgumentParser, need_bundle: bool) -> None:
    parser.add_argument("--edges", required=True, help="edge list file ('u v' per line)")
    if need_bundle:
        parser.add_argument("--features", required=True, help="feature matrix file")
        parser.add_argument("--labels", required=True, help="label file (one int per line)")
        parser.add_argument("--train-split", required=True)
        parser.add_argument("--val-split", required=True)
        parser.add_argument("--test-split", required=True)


def _add_hp_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per HyperParams field: `--` + the name with `_` -> `-`, of the field's type."""
    parser.add_argument("--config", help="key=value config file; flags override it")
    types = get_type_hints(HyperParams)
    for f in dataclasses.fields(HyperParams):
        parser.add_argument("--" + f.name.replace("_", "-"), type=types[f.name], help=f"default {f.default}")


def _hyperparams(args: argparse.Namespace) -> HyperParams:
    """HyperParams from the flags given (and --config, if any); the rest keep their defaults."""
    overrides = {}
    for f in dataclasses.fields(HyperParams):
        val = getattr(args, f.name, None)
        if val is not None:
            overrides[f.name] = val
    config = getattr(args, "config", None)
    if config:
        return HyperParams.from_file(config, overrides)
    return HyperParams.from_dict(overrides)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_homophily(args: argparse.Namespace) -> int:
    with open(args.edges) as fh:
        g = load_edge_list(fh)
    print(f"{node_homophily(g, load_per_node(args.labels, load_labels, g.n, 'labels')):.4f}")
    return EXIT_OK


def cmd_simrank(args: argparse.Namespace) -> int:
    hp = _hyperparams(args)
    with open(args.edges) as fh:
        g = load_edge_list(fh)
    labels = load_per_node(args.labels, load_labels, g.n, "labels") if args.labels else None
    t0 = time.perf_counter()
    sim = precompute_similarity(g, hp)
    seconds = time.perf_counter() - t0
    out_dir = _out_dir(args)
    out = out_dir / "similarity.txt"
    with open(out, "w") as fh:
        dump_sparse_sim(sim, fh)
    print(f"precompute_seconds\t{seconds:.6f}")
    print(f"wrote\t{out}")
    if labels is not None:
        # intra/inter-class score distribution of the retained S
        hist = class_score_histogram(sim, labels)
        hist_path = out_dir / "score_histogram.tsv"
        with open(hist_path, "w") as fh:
            fh.write("log10_bin_lo\tlog10_bin_hi\tintra\tinter\n")
            for lo, hi, a, b in zip(
                hist.bin_edges[:-1], hist.bin_edges[1:], hist.intra_counts, hist.inter_counts
            ):
                fh.write(f"{lo:.6f}\t{hi:.6f}\t{a}\t{b}\n")
        print(f"wrote\t{hist_path}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    bundle = load_bundle(
        args.edges, args.features, args.labels, args.train_split, args.val_split, args.test_split
    )
    hp = _hyperparams(args)
    sim = None
    if args.sim:
        with open(args.sim) as fh:
            sim = load_sparse_sim(fh)
            if sim.n != bundle.n:
                raise input_error(fh, f"similarity dump of {sim.n} nodes, the graph has {bundle.n}")
    params, report = fit(bundle, hp, sim=sim)
    out = _out_dir(args)
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    save_checkpoint(out / "checkpoint.npz", params, hp, report.similarity)
    if args.export_embeddings:
        z = aggregate(report.similarity, embed(bundle, params, hp), hp.alpha)
        np.savetxt(out / "embeddings.txt", z)
    print(f"test_accuracy\t{report.test_accuracy:.6f}")
    print(f"best_epoch\t{report.best_epoch}")
    print(f"wrote\t{out / 'report.json'}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    bundle = load_bundle(
        args.edges, args.features, args.labels, args.train_split, args.val_split, args.test_split
    )
    params, hp, sim = load_checkpoint(args.checkpoint)  # which checks that S and the weights share n
    if sim.n != bundle.n:
        raise InputFormatError(
            f"checkpoint {args.checkpoint} was trained on {sim.n} nodes, the graph has {bundle.n}"
        )
    trained_width = params.mlp_f[0].weight.shape[0]
    if trained_width != bundle.num_features:
        raise InputFormatError(
            f"checkpoint {args.checkpoint} was trained on {trained_width} feature columns, "
            f"{args.features} has {bundle.num_features}"
        )
    split = {"train": bundle.train_idx, "val": bundle.val_idx, "test": bundle.test_idx}[args.split]
    acc = evaluate(bundle, sim, params, hp, split)
    result = {"split": args.split, "accuracy": acc}
    if args.out:
        out = _out_dir(args)
        with open(out / "eval.json", "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    print(f"accuracy\t{acc:.6f}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  max_error={r.max_error:.3e}  bound={r.bound:.3e}  ({r.detail})")
        failed = failed or not r.passed
    if failed:
        print("verification FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        ladder = [int(tok) for tok in args.ladder.split(",") if tok]
    except ValueError:
        raise ParameterError(f"--ladder must be comma-separated node counts, got {args.ladder!r}") from None
    result = run_bench(ladder, degree=args.degree, eps=args.eps, k=args.k, c=args.c, seed=args.seed)
    sys.stdout.write(format_tsv(result))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simga",
        description="SimRank global-aggregation toolkit: similarity precomputation, "
        "training, verification, and scaling benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homophily", help="print the node homophily of a labeled graph")
    _add_shared_io(p, need_bundle=False)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=cmd_homophily)

    p = sub.add_parser("simrank", help="precompute top-k sparse similarity and dump it")
    _add_shared_io(p, need_bundle=False)
    p.add_argument("--labels", help="optional; also write the intra/inter-class score histogram")
    p.add_argument("--c", type=float, help=f"decay factor, default {HyperParams.c}")
    p.add_argument("--eps", type=float, help=f"accuracy, default {HyperParams.eps}")
    p.add_argument("--k", type=int, help=f"entries kept per row, default {HyperParams.k}")
    p.add_argument("--mode", dest="sim_mode", choices=["exact", "approx"],
                   help=f"default {HyperParams.sim_mode}")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simrank)

    p = sub.add_parser("train", help="train the classifier and write report + checkpoint")
    _add_shared_io(p, need_bundle=True)
    _add_hp_flags(p)
    p.add_argument("--sim", help="precomputed similarity dump (else computed inline)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--export-embeddings", action="store_true", help="also write embeddings.txt")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    _add_shared_io(p, need_bundle=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--out", help="optional output directory for eval.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the built-in equivalence suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="scaling ladder benchmark (TSV on stdout)")
    p.add_argument("--ladder", default="1000,2000,4000,8000", help="comma-separated node counts")
    p.add_argument("--degree", type=float, default=8.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--c", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError as exc:  # e.g. a node id or label that sizes an array past the machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (NumericError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputFormatError, ParameterError, OSError) as exc:  # OSError: a path it cannot open or create
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:  # an input file that is not UTF-8 text
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OverflowError as exc:  # an integer input past the int64 range
        print(f"error: integer input outside the int64 range: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
