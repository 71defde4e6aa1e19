import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from simga import simrank, verify
from simga.cli import main
from simga.data import gen_structural_heterophily
from simga.graph import random_graph
from simga.model import load_checkpoint
from simga.simrank import load_sparse_sim

from test_textio import mutated


def write_bundle(d, bundle):
    """Write a bundle in the documented text formats into directory d."""
    d.mkdir(parents=True, exist_ok=True)
    g = bundle.graph
    lines = ["# generated fixture"]
    for u in range(g.n):
        for v in g.neighbor_slice(u):
            if u < v:
                lines.append(f"{u} {v}")
    (d / "edges.txt").write_text("\n".join(lines) + "\n")
    np.savetxt(d / "features.txt", bundle.features)
    np.savetxt(d / "labels.txt", bundle.labels, fmt="%d")
    np.savetxt(d / "train.txt", bundle.train_idx, fmt="%d")
    np.savetxt(d / "val.txt", bundle.val_idx, fmt="%d")
    np.savetxt(d / "test.txt", bundle.test_idx, fmt="%d")
    return d


@pytest.fixture
def fixture_dir(tmp_path):
    """A small structural-heterophily bundle in the documented text formats."""
    return write_bundle(tmp_path, gen_structural_heterophily(seed=0, n=48, classes=2))


def bundle_flags(d):
    return [
        "--edges", str(d / "edges.txt"),
        "--features", str(d / "features.txt"),
        "--labels", str(d / "labels.txt"),
        "--train-split", str(d / "train.txt"),
        "--val-split", str(d / "val.txt"),
        "--test-split", str(d / "test.txt"),
    ]


def train_args(d, out, extra=()):
    return ["train", *bundle_flags(d), "--out", str(out), "--max-epochs", "25",
            "--dropout", "0.0", "--k", "16", "--seed", "3", *extra]


class TestHomophily:
    def test_triangle_prints_one(self, tmp_path, capsys):
        (tmp_path / "e.txt").write_text("0 1\n1 2\n0 2\n")
        (tmp_path / "l.txt").write_text("0\n0\n0\n")
        code = main(["homophily", "--edges", str(tmp_path / "e.txt"), "--labels", str(tmp_path / "l.txt")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_missing_labels_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "e.txt").write_text("0 1\n")
        code = main(["homophily", "--edges", str(tmp_path / "e.txt"), "--labels", str(tmp_path / "nope.txt")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_wrong_label_count_names_the_labels_file(self, tmp_path, capsys):
        (tmp_path / "e.txt").write_text("0 1\n1 2\n0 2\n")
        (tmp_path / "l.txt").write_text("0\n0\n")
        code = main(["homophily", "--edges", str(tmp_path / "e.txt"), "--labels", str(tmp_path / "l.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert str(tmp_path / "l.txt") in err


class TestSimrank:
    def test_star_exact_dump_contains_leaf_pair(self, tmp_path, capsys):
        (tmp_path / "e.txt").write_text("0 1\n1 2\n")  # star center 1
        code = main(["simrank", "--edges", str(tmp_path / "e.txt"), "--mode", "exact",
                     "--eps", "0.01", "--k", "8", "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "precompute_seconds" in out
        text = (tmp_path / "out" / "similarity.txt").read_text()
        assert "0 2 0.59999999999999998" in text
        with open(tmp_path / "out" / "similarity.txt") as fh:
            sim = load_sparse_sim(fh)
        assert sim.values[0, 2] == 0.6

    def test_k_at_least_n_keeps_all_nonzeros(self, tmp_path, capsys):
        (tmp_path / "e.txt").write_text("0 1\n1 2\n0 2\n")
        main(["simrank", "--edges", str(tmp_path / "e.txt"), "--mode", "exact",
              "--eps", "0.01", "--k", "99", "--out", str(tmp_path / "out")])
        with open(tmp_path / "out" / "similarity.txt") as fh:
            sim = load_sparse_sim(fh)
        assert np.all(sim.values > 0)  # a triangle has no zero similarity pairs

    def test_approx_tightening_eps_improves_agreement(self, fixture_dir, capsys):
        d = fixture_dir
        dumps = {}
        for eps in ("0.2", "0.01"):
            main(["simrank", "--edges", str(d / "edges.txt"), "--mode", "approx",
                  "--eps", eps, "--k", "48", "--out", str(d / f"approx{eps}")])
            with open(d / f"approx{eps}" / "similarity.txt") as fh:
                dumps[eps] = load_sparse_sim(fh).values
        main(["simrank", "--edges", str(d / "edges.txt"), "--mode", "exact",
              "--eps", "0.01", "--k", "48", "--out", str(d / "exact")])
        with open(d / "exact" / "similarity.txt") as fh:
            exact = load_sparse_sim(fh).values
        err_loose = np.abs(dumps["0.2"] - exact).max()
        err_tight = np.abs(dumps["0.01"] - exact).max()
        assert err_tight <= err_loose

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exits_2(self, tmp_path, capsys, mode, eps):
        (tmp_path / "e.txt").write_text("0 1\n1 2\n")
        code = main(["simrank", "--edges", str(tmp_path / "e.txt"), "--mode", mode,
                     "--eps", eps, "--k", "8", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "similarity.txt").exists()

    def test_dense_guard_exits_4(self, tmp_path, capsys):
        lines = [f"{i} {i + 1}" for i in range(20001)]
        (tmp_path / "big.txt").write_text("\n".join(lines) + "\n")
        code = main(["simrank", "--edges", str(tmp_path / "big.txt"), "--mode", "exact",
                     "--eps", "0.1", "--k", "4", "--out", str(tmp_path / "out")])
        assert code == 4
        assert "n <= 20000" in capsys.readouterr().err


    def test_a_block_out_of_memory_exits_4(self, tmp_path, capsys):
        # a push of several blocks on two threads; the second block's spread runs out of memory
        g = random_graph(3 * simrank.PUSH_BLOCK, avg_degree=4, seed=2)
        u, v = sp.triu(g.adj).nonzero()
        np.savetxt(tmp_path / "e.txt", np.column_stack([u, v]), fmt="%d")
        second, real = simrank._BlockedResidual(g.n).bounds[1][0], simrank._spread

        def spread(ps, lo, hi, pt, c):
            if lo == second:
                raise MemoryError("no room for the spread")
            return real(ps, lo, hi, pt, c)

        with mock.patch.object(simrank, "PUSH_WORKERS", 2), mock.patch.object(simrank, "_spread", spread):
            code = main(["simrank", "--edges", str(tmp_path / "e.txt"), "--mode", "approx",
                         "--eps", "0.1", "--k", "4", "--out", str(tmp_path / "out")])
        assert code == 4
        assert_one_error_line(capsys.readouterr().err)
        assert not (tmp_path / "out" / "similarity.txt").exists()


class TestTrainEval:
    def test_train_writes_report_and_checkpoint(self, fixture_dir, capsys):
        out = fixture_dir / "run"
        code = main(train_args(fixture_dir, out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"test_accuracy", "best_epoch", "precompute_seconds",
                               "train_seconds", "curve"}
        assert len(report["curve"]) <= 25
        assert set(report["curve"][0]) == {"epoch", "loss", "val_acc"}
        assert (out / "checkpoint.npz").exists()

    def test_repeat_run_identical_up_to_timing(self, fixture_dir):
        a = fixture_dir / "a"
        b = fixture_dir / "b"
        main(train_args(fixture_dir, a))
        main(train_args(fixture_dir, b))
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        for key in ("precompute_seconds", "train_seconds"):
            ra.pop(key), rb.pop(key)
        assert ra == rb

    def test_train_with_precomputed_sim(self, fixture_dir):
        d = fixture_dir
        main(["simrank", "--edges", str(d / "edges.txt"), "--mode", "exact",
              "--eps", "0.1", "--k", "16", "--out", str(d / "sim")])
        out = d / "runsim"
        code = main(train_args(d, out, ["--sim", str(d / "sim" / "similarity.txt")]))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["precompute_seconds"] == 0.0

    def test_eval_scores_against_the_similarity_in_the_checkpoint(self, fixture_dir, capsys):
        # a dump made at another eps than the train run's: the checkpoint must
        # carry the dump's S itself, so eval scores against the trained matrix
        d = fixture_dir
        main(["simrank", "--edges", str(d / "edges.txt"), "--mode", "approx",
              "--eps", "0.001", "--k", "12", "--out", str(d / "apx")])
        out = d / "apxrun"
        main(train_args(d, out, ["--sim", str(d / "apx" / "similarity.txt")]))
        report = json.loads((out / "report.json").read_text())
        with open(d / "apx" / "similarity.txt") as fh:
            dump = load_sparse_sim(fh)
        _, _, stored = load_checkpoint(out / "checkpoint.npz")
        assert (stored.n, stored.k, stored.c, stored.method) == (dump.n, dump.k, dump.c, dump.method)
        for key in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(stored.csr, key), getattr(dump.csr, key))
        capsys.readouterr()
        code = main(["eval", *bundle_flags(d), "--checkpoint", str(out / "checkpoint.npz"),
                     "--split", "test"])
        assert code == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("accuracy")][0]
        assert float(line.split("\t")[1]) == pytest.approx(report["test_accuracy"], abs=5e-7)

    def test_eval_matches_training_report(self, fixture_dir, capsys):
        out = fixture_dir / "run"
        main(train_args(fixture_dir, out))
        report = json.loads((out / "report.json").read_text())
        capsys.readouterr()
        code = main(["eval", *bundle_flags(fixture_dir), "--checkpoint",
                     str(out / "checkpoint.npz"), "--split", "test"])
        assert code == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("accuracy")][0]
        assert float(line.split("\t")[1]) == pytest.approx(report["test_accuracy"], abs=5e-7)

    def test_export_embeddings(self, fixture_dir):
        out = fixture_dir / "runz"
        code = main(train_args(fixture_dir, out, ["--export-embeddings"]))
        assert code == 0
        z = np.loadtxt(out / "embeddings.txt")
        assert z.shape[0] == 48

    def test_config_file_with_flag_override(self, fixture_dir):
        cfg = fixture_dir / "run.cfg"
        cfg.write_text("max_epochs=5\nk=16\ndropout=0.0\n")
        out = fixture_dir / "cfgrun"
        code = main(["train", *bundle_flags(fixture_dir), "--config", str(cfg),
                     "--out", str(out), "--seed", "1", "--max-epochs", "7"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["curve"]) == 7  # flag overrides config

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, fixture_dir, capsys):
        out = fixture_dir / "div"
        code = main(train_args(fixture_dir, out, ["--lr", "1e160"]))
        assert code == 3


class TestVerifyBench:
    def test_verify_passes_on_fresh_checkout(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "max_error" in out

    def test_corrupt_push_fails(self, capsys, monkeypatch):
        # negative control: a push that misapplies the decay (1.5 c) must fail the suite
        real = verify.simrank_localpush
        monkeypatch.setattr(verify, "simrank_localpush", lambda g, c, eps: real(g, 1.5 * c, eps))
        assert main(["verify"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_bench_tsv(self, capsys):
        assert main(["bench", "--ladder", "150,300", "--degree", "6", "--k", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t") == ["n", "precompute_seconds", "epoch_seconds", "total_seconds"]
        assert lines[1].split("\t")[0] == "150"
        assert lines[2].split("\t")[0] == "300"
        assert lines[3].startswith("exponent\t")


class TestScoreHistogramDiagnostic:
    def test_simrank_with_labels_writes_histogram(self, tmp_path, capsys):
        (tmp_path / "e.txt").write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
        (tmp_path / "l.txt").write_text("0\n0\n0\n1\n1\n1\n")
        code = main(["simrank", "--edges", str(tmp_path / "e.txt"), "--labels", str(tmp_path / "l.txt"),
                     "--mode", "exact", "--eps", "0.01", "--k", "6", "--out", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "score_histogram.tsv").read_text().splitlines()
        assert lines[0] == "log10_bin_lo\tlog10_bin_hi\tintra\tinter"
        intra = sum(int(l.split("\t")[2]) for l in lines[1:])
        inter = sum(int(l.split("\t")[3]) for l in lines[1:])
        assert intra > 0 and inter == 0  # disconnected same-label cliques

    def test_wrong_label_count_refused_before_the_precompute(self, tmp_path, capsys):
        (tmp_path / "e.txt").write_text("0 1\n1 2\n0 2\n")
        (tmp_path / "l.txt").write_text("0\n0\n")
        code = main(["simrank", "--edges", str(tmp_path / "e.txt"), "--labels", str(tmp_path / "l.txt"),
                     "--mode", "exact", "--eps", "0.01", "--k", "3", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert str(tmp_path / "l.txt") in err
        assert not (tmp_path / "out" / "similarity.txt").exists()

    def test_approx_histogram_past_the_dense_limit(self, tmp_path, capsys):
        # 6667 disjoint triangles (n = 20,001), each node labelled by its corner
        tri = [f"{3 * t} {3 * t + 1}\n{3 * t + 1} {3 * t + 2}\n{3 * t} {3 * t + 2}\n" for t in range(6667)]
        (tmp_path / "e.txt").write_text("".join(tri))
        (tmp_path / "l.txt").write_text("".join(f"{i % 3}\n" for i in range(20_001)))
        code = main(["simrank", "--edges", str(tmp_path / "e.txt"), "--labels", str(tmp_path / "l.txt"),
                     "--mode", "approx", "--eps", "0.1", "--k", "4", "--out", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "score_histogram.tsv").read_text().splitlines()
        intra = sum(int(l.split("\t")[2]) for l in lines[1:])
        inter = sum(int(l.split("\t")[3]) for l in lines[1:])
        assert intra == 0 and inter == 3 * 6667  # every triangle pair, once


class TestBenchDegreeScaling:
    def test_precompute_grows_superlinearly_in_degree(self):
        # doubling the average degree at fixed n should more than double the
        # push time (the inner loop touches deg(u) * deg(v) pairs per pop)
        import time as _time

        from simga.graph import random_graph
        from simga.simrank import simrank_localpush

        timings = {}
        for degree in (8, 16):
            g = random_graph(2000, avg_degree=degree, seed=5)
            t0 = _time.perf_counter()
            simrank_localpush(g, 0.6, 0.1)
            timings[degree] = _time.perf_counter() - t0
        assert timings[16] > 2.0 * timings[8]


def assert_one_error_line(err):
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


DUMP_MUTATIONS = ["negative_column", "column_past_n", "nan_score", "inf_score", "duplicate_pair",
                  "descending_columns", "negative_row", "row_past_n", "another_n", "score_above_one",
                  "huge_score"]


def _mutate_dump(header, lines, n, mutation):
    """A dump's lines, header first, with one named edit that must be refused."""
    if mutation == "another_n":  # a well-formed dump of n + 1 nodes
        return [" ".join([str(n + 1), *header.split()[1:]]), *lines]
    first, last = lines[0].split(), lines[-1].split()
    return [header] + {
        "negative_column": [f"{first[0]} -1 {first[2]}", *lines[1:]],
        "column_past_n": [*lines[:-1], f"{last[0]} {n + 51} {last[2]}"],
        "nan_score": [f"{first[0]} {first[1]} nan", *lines[1:]],
        "inf_score": [f"{first[0]} {first[1]} inf", *lines[1:]],
        "score_above_one": [f"{first[0]} {first[1]} 5", *lines[1:]],
        "huge_score": [f"{first[0]} {first[1]} 1e308", *lines[1:]],  # finite in float64, not in float32
        "duplicate_pair": [lines[0], *lines],
        "descending_columns": [lines[1], lines[0], *lines[2:]],
        "negative_row": ["-1 0 0.5", *lines],
        "row_past_n": [*lines, f"{n} 0 0.5"],
    }[mutation]


class TestMalformedInputs:
    """Every malformed input ends in exit 2 with one `error:` line, never a traceback."""

    @pytest.mark.parametrize("mutation", DUMP_MUTATIONS)
    def test_bad_similarity_dump(self, fixture_dir, capsys, mutation):
        d = fixture_dir
        main(["simrank", "--edges", str(d / "edges.txt"), "--mode", "exact",
              "--eps", "0.1", "--k", "16", "--out", str(d / "sim")])
        header, *body = (d / "sim" / "similarity.txt").read_text().splitlines()
        bad = _mutate_dump(header, body, 48, mutation)
        (d / "bad.txt").write_text("\n".join(bad) + "\n")
        capsys.readouterr()
        code = main(train_args(d, d / "run", ["--sim", str(d / "bad.txt")]))
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert str(d / "bad.txt") in err

    @pytest.mark.parametrize(
        "damage", ["not_npz", "no_version", "no_array", "version_1", "version_2", "sim_column_past_n",
                   "depth_float", "width_list", "sim_negative_n", "version_not_int", "hyperparams_list",
                   "width_mismatch", "bias_2d", "object_array", "sim_float_columns", "sim_other_n",
                   "sim_longer_than_indptr", "sim_indptr_decreasing", "sim_columns_unsorted", "sim_nan_score",
                   "sim_row_over_k", "sim_c_nan", "int_weight", "mixed_weights", "sim_score_above_one",
                   "nan_weight", "inf_weight"]
    )
    def test_bad_checkpoint(self, fixture_dir, capsys, damage):
        d = fixture_dir
        main(train_args(d, d / "run"))
        with np.load(d / "run" / "checkpoint.npz") as ckpt:
            arrays = {key: ckpt[key] for key in ckpt.files}
        if damage == "no_version":
            del arrays["__format_version__"]
        elif damage == "no_array":
            del arrays["mlp_h.0.bias"]
        elif damage == "version_1":  # written before skip_form was removed
            hp = json.loads(str(arrays["__hyperparams__"]))
            arrays["__hyperparams__"] = np.str_(json.dumps({**hp, "skip_form": "main"}))
            arrays["__format_version__"] = np.int64(1)
        elif damage == "version_2":  # written before S was stored next to the weights
            for key in ("sim.indptr", "sim.cols", "sim.scores", "__similarity__"):
                del arrays[key]
            arrays["__format_version__"] = np.int64(2)
        elif damage == "sim_column_past_n":
            arrays["sim.cols"][-1] = 48
        elif damage in ("depth_float", "width_list"):  # JSON values of the wrong type
            hp = json.loads(str(arrays["__hyperparams__"]))
            hp.update({"mlp_h_depth": 2.0} if damage == "depth_float" else {"width": [1]})
            arrays["__hyperparams__"] = np.str_(json.dumps(hp))
        elif damage == "sim_negative_n":
            provenance = json.loads(str(arrays["__similarity__"]))
            arrays["__similarity__"] = np.str_(json.dumps({**provenance, "n": -1}))
            arrays["sim.indptr"] = np.empty(0, dtype=np.int64)
        elif damage == "version_not_int":
            arrays["__format_version__"] = np.str_("three")
        elif damage == "hyperparams_list":
            arrays["__hyperparams__"] = np.str_("[1, 2]")
        elif damage == "width_mismatch":  # the header's width is not the weights'
            hp = json.loads(str(arrays["__hyperparams__"]))
            arrays["__hyperparams__"] = np.str_(json.dumps({**hp, "width": hp["width"] + 1}))
        elif damage == "bias_2d":
            arrays["mlp_h.0.bias"] = arrays["mlp_h.0.bias"][None, :]
        elif damage == "object_array":  # saved pickled, which the loader refuses to unpickle
            arrays["mlp_f.0.weight"] = np.array([[1.0, "x"]], dtype=object)
        elif damage == "sim_float_columns":  # which a cast to int64 would truncate
            arrays["sim.cols"] = arrays["sim.cols"] + 0.5
        elif damage == "sim_other_n":  # a valid S of 49 nodes next to weights of 48
            provenance = json.loads(str(arrays["__similarity__"]))
            arrays["__similarity__"] = np.str_(json.dumps({**provenance, "n": 49}))
            arrays["sim.indptr"] = np.append(arrays["sim.indptr"], arrays["sim.indptr"][-1])
        elif damage == "sim_longer_than_indptr":  # an entry past indptr[-1], which scipy would drop
            arrays["sim.cols"] = np.append(arrays["sim.cols"], 0)
            arrays["sim.scores"] = np.append(arrays["sim.scores"], 0.5)
        elif damage == "sim_indptr_decreasing":
            arrays["sim.indptr"][1] = arrays["sim.indptr"][2] + 1
        elif damage == "sim_columns_unsorted":  # row 0's first two columns swapped
            assert arrays["sim.indptr"][1] >= 2
            arrays["sim.cols"][[0, 1]] = arrays["sim.cols"][[1, 0]]
        elif damage == "sim_nan_score":
            arrays["sim.scores"][0] = np.nan
        elif damage == "sim_row_over_k":  # provenance k below the longest row
            provenance = json.loads(str(arrays["__similarity__"]))
            k = int(np.diff(arrays["sim.indptr"]).max()) - 1
            assert k >= 1
            arrays["__similarity__"] = np.str_(json.dumps({**provenance, "k": k}))
        elif damage == "sim_c_nan":  # json writes the non-JSON token NaN
            provenance = json.loads(str(arrays["__similarity__"]))
            arrays["__similarity__"] = np.str_(json.dumps({**provenance, "c": float("nan")}))
        elif damage == "int_weight":
            arrays["mlp_h.0.weight"] = arrays["mlp_h.0.weight"].astype(np.int64)
        elif damage == "mixed_weights":  # float32 as training writes them, one of them float64
            arrays["mlp_a.0.bias"] = arrays["mlp_a.0.bias"].astype(np.float64)
        elif damage == "sim_score_above_one":
            arrays["sim.scores"][0] = 7.0
        elif damage == "nan_weight":
            arrays["mlp_h.0.weight"][0, 0] = np.nan
        elif damage == "inf_weight":
            arrays["mlp_a.0.weight"][0, 0] = np.inf
        path = d / "bad.npz"
        if damage == "not_npz":
            path.write_bytes(b"not a checkpoint\n")
        else:
            np.savez(path, **arrays)
        capsys.readouterr()
        code = main(["eval", *bundle_flags(d), "--checkpoint", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith(f"error: checkpoint {path}: ")
        if damage in ("version_1", "version_2"):
            assert f"format version {damage[-1]}" in err
        assert {
            "sim_column_past_n": "column id outside [0, 48)",
            "sim_float_columns": "sim.cols holds float64, not integers",
            "sim_other_n": "stored similarity has 49 nodes, the weights 48",
            "sim_longer_than_indptr": "indptr, columns and scores disagree in length",
            "sim_indptr_decreasing": "bad indptr",
            "sim_columns_unsorted": "columns not strictly ascending within a row",
            "sim_nan_score": "non-finite score",
            "sim_row_over_k": "row holds more than k=",
            "sim_c_nan": "decay factor must lie in (0, 1), got nan",
            "int_weight": "mlp_h.0.weight holds int64, not float32 or float64",
            "mixed_weights": "mlp_a.0.bias holds float64 and mlp_f.0.weight float32, not one dtype",
            "sim_score_above_one": "scores must lie in [0, 1]",
            "nan_weight": "mlp_h.0.weight holds a non-finite value",
            "inf_weight": "mlp_a.0.weight holds a non-finite value",
        }.get(damage, "") in err

    def test_eval_on_another_node_count(self, tmp_path, capsys):
        big = write_bundle(tmp_path / "n800", gen_structural_heterophily(seed=0, n=800, classes=4))
        small = tmp_path / "n700"  # the first 700 nodes of the same input
        small.mkdir()
        edges = np.loadtxt(big / "edges.txt", dtype=np.int64)
        np.savetxt(small / "edges.txt", edges[(edges < 700).all(axis=1)], fmt="%d")
        for name in ("features", "labels"):
            rows = (big / f"{name}.txt").read_text().splitlines(keepends=True)
            (small / f"{name}.txt").write_text("".join(rows[:700]))
        for name in ("train", "val", "test"):
            idx = np.loadtxt(big / f"{name}.txt", dtype=np.int64)
            np.savetxt(small / f"{name}.txt", idx[idx < 700], fmt="%d")
        assert main(train_args(big, tmp_path / "run", ["--max-epochs", "2"])) == 0
        capsys.readouterr()
        code = main(["eval", *bundle_flags(small), "--checkpoint", str(tmp_path / "run" / "checkpoint.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "trained on 800 nodes, the graph has 700" in err

    def test_eval_on_another_feature_width(self, fixture_dir, capsys):
        d = fixture_dir
        assert main(train_args(d, d / "run", ["--max-epochs", "2"])) == 0
        features = np.loadtxt(d / "features.txt")
        np.savetxt(d / "wide.txt", np.hstack([features, features[:, :1]]))  # one column more
        flags = bundle_flags(d)
        flags[flags.index("--features") + 1] = str(d / "wide.txt")
        capsys.readouterr()
        code = main(["eval", *flags, "--checkpoint", str(d / "run" / "checkpoint.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        width = features.shape[1]
        assert (f"checkpoint {d / 'run' / 'checkpoint.npz'} was trained on {width} feature columns, "
                f"{d / 'wide.txt'} has {width + 1}") in err

    @pytest.mark.parametrize("relabel, code", [(5, 2), (0, 0)])
    def test_eval_on_labels_the_head_cannot_output(self, fixture_dir, capsys, relabel, code):
        # trained on 2 classes; class 1 relabelled 5 needs a 6-wide head, relabelled 0 uses fewer classes
        d = fixture_dir
        assert main(train_args(d, d / "run", ["--max-epochs", "2"])) == 0
        labels = np.loadtxt(d / "labels.txt", dtype=np.int64)
        np.savetxt(d / "relabelled.txt", np.where(labels == 1, relabel, labels), fmt="%d")
        flags = bundle_flags(d)
        flags[flags.index("--labels") + 1] = str(d / "relabelled.txt")
        capsys.readouterr()
        assert main(["eval", *flags, "--checkpoint", str(d / "run" / "checkpoint.npz")]) == code
        if code:
            err = capsys.readouterr().err
            assert_one_error_line(err)
            assert (f"{d / 'relabelled.txt'} holds 6 classes, "
                    f"checkpoint {d / 'run' / 'checkpoint.npz'} was trained on 2") in err

    @pytest.mark.parametrize(
        "argv",
        [["bench", "--ladder", "150,300", "--degree", "nan"],
         ["bench", "--ladder", "150,300", "--degree", "inf"],
         ["bench", "--ladder", "abc"],
         ["bench", "--degree", "abc"],  # argparse's own refusals, also one line
         ["simrank", "--edges", "edges.txt", "--mode", "foo", "--out", "out"],
         ["bench", "--ladder", "8,8"]],  # one size: no line to fit an exponent to
    )
    def test_bad_bench_values(self, capsys, argv):
        assert main(argv) == 2
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "command, name, value, code",
        # the first five size arrays past any machine (7.11 PiB of degrees, 466
        # TiB of head weights) or past what numpy can size at all (2^60 ids,
        # 2^54 labels at width 64), so the refused allocation takes nothing;
        # the ids of the sixth would wrap a packed int64 pair key u*n+v
        [("homophily", "edges", "0 1000000000000000", 4),
         ("train", "labels", "1000000000000", 4),
         ("homophily", "edges", "0 1152921504606846976", 4),
         ("train", "edges", "0 1152921504606846976", 4),
         ("train", "labels", "18014398509481984", 4),
         ("homophily", "edges", "1000000000000 1000000000001", 4),
         ("homophily", "edges", "0 99999999999999999999", 2),
         ("train", "labels", "99999999999999999999", 2)],
    )
    def test_out_of_range_id_or_label(self, fixture_dir, capsys, command, name, value, code):
        d = fixture_dir
        path = d / f"{name}.txt"
        lines = path.read_text().splitlines()
        if name == "edges":
            lines.append(value)
        else:
            lines[0] = value
        path.write_text("\n".join(lines) + "\n")
        if command == "homophily":
            argv = ["homophily", "--edges", str(d / "edges.txt"), "--labels", str(d / "labels.txt")]
        else:
            argv = train_args(d, d / "run")
        assert main(argv) == code
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("name", ["edges", "features", "similarity"])
    def test_non_utf8_input(self, fixture_dir, capsys, name):
        d = fixture_dir
        main(["simrank", "--edges", str(d / "edges.txt"), "--mode", "exact",
              "--eps", "0.1", "--k", "16", "--out", str(d / "sim")])
        path = d / "sim" / "similarity.txt" if name == "similarity" else d / f"{name}.txt"
        path.write_bytes(path.read_bytes() + b"\xff 2\n")
        if name == "edges":
            argv = ["homophily", "--edges", str(path), "--labels", str(d / "labels.txt")]
        else:
            argv = train_args(d, d / "run", ["--sim", str(d / "sim" / "similarity.txt")])
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "not UTF-8" in err

    def test_dump_header_n_past_int64_pair_keys(self, fixture_dir, capsys):
        # the header's n sizes the row counts; 2^60 is past what numpy can size
        d = fixture_dir
        main(["simrank", "--edges", str(d / "edges.txt"), "--mode", "exact",
              "--eps", "0.1", "--k", "16", "--out", str(d / "sim")])
        dump = d / "sim" / "similarity.txt"
        _, body = dump.read_text().split("\n", 1)
        dump.write_text("1152921504606846976 3 0.6 fixedpoint\n" + body)
        capsys.readouterr()
        assert main(train_args(d, d / "run", ["--sim", str(dump)])) == 4
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith("error: out of memory:")

    @pytest.mark.parametrize("flags", [["--lr", "nan"], ["--weight-decay", "inf"], ["--k", "abc"]])
    def test_non_finite_train_flags(self, fixture_dir, capsys, flags):
        assert main(train_args(fixture_dir, fixture_dir / "run", flags)) == 2
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("entry", ["train_flag", "train_config", "verify", "bench"])
    def test_negative_seed(self, fixture_dir, capsys, entry):
        d = fixture_dir
        (d / "config.txt").write_text("seed=-1\n")
        argv = {
            "train_flag": train_args(d, d / "run", ["--seed", "-3"]),
            "train_config": ["train", *bundle_flags(d), "--out", str(d / "run"),
                             "--config", str(d / "config.txt")],
            "verify": ["verify", "--seed", "-1"],
            "bench": ["bench", "--ladder", "150,300", "--seed", "-1"],
        }[entry]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "seed" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "damage, name",
        [("short", "labels"), ("negative", "labels"), ("short", "features"), ("id_past_n", "val"),
         ("in_two_splits", "test")],
    )
    def test_bundle_refusal_names_its_file(self, fixture_dir, capsys, command, damage, name):
        d = fixture_dir
        if command == "eval":
            assert main(train_args(d, d / "run", ["--max-epochs", "2"])) == 0
        path = d / f"{name}.txt"
        lines = path.read_text().splitlines()
        if damage == "short":
            del lines[-1]
        elif damage == "negative":
            lines[0] = "-1"
        elif damage == "id_past_n":
            lines[0] = "48"
        else:  # a train node listed again in the test split
            lines[0] = (d / "train.txt").read_text().split()[0]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        if command == "train":
            argv = train_args(d, d / "run")
        else:
            argv = ["eval", *bundle_flags(d), "--checkpoint", str(d / "run" / "checkpoint.npz")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", ["simrank", "train", "eval"])
    @pytest.mark.parametrize("damage", ["out_is_a_file", "out_under_a_file", "edges_under_a_file"])
    def test_path_that_cannot_be_opened_or_created(self, fixture_dir, capsys, command, damage):
        d = fixture_dir
        if command == "eval":
            assert main(train_args(d, d / "run", ["--max-epochs", "2"])) == 0
        taken = d / "labels.txt"  # a file, so no directory can be made at or under it
        out = {"out_is_a_file": taken, "out_under_a_file": taken / "sub"}.get(damage, d / "out")
        argv = {
            "simrank": ["simrank", "--edges", str(d / "edges.txt"), "--k", "16", "--out", str(out)],
            "train": train_args(d, out, ["--max-epochs", "2"]),
            "eval": ["eval", *bundle_flags(d), "--checkpoint", str(d / "run" / "checkpoint.npz"),
                     "--out", str(out)],
        }[command]
        if damage == "edges_under_a_file":
            argv[argv.index("--edges") + 1] = str(taken / "x")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert str(taken) in err

    def test_bad_split_names_its_file(self, fixture_dir, capsys):
        d = fixture_dir
        lines = (d / "val.txt").read_text().splitlines()
        (d / "val.txt").write_text("\n".join(["1.5", *lines[1:]]) + "\n")
        assert main(train_args(d, d / "run")) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "val.txt: line 1: non-integer node id" in err

    def test_non_finite_feature_names_the_node(self, fixture_dir, capsys):
        d = fixture_dir
        feats = np.loadtxt(d / "features.txt")
        feats[5, 2] = np.nan
        np.savetxt(d / "features.txt", feats)
        assert main(train_args(d, d / "run")) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "node 5" in err

    def test_feature_past_float32_range_names_the_node(self, fixture_dir, capsys):
        # finite in float64, but it would train as inf and read as a divergence (exit 3)
        d = fixture_dir
        feats = np.loadtxt(d / "features.txt")
        feats[7, 0] = -1e39
        np.savetxt(d / "features.txt", feats)
        assert main(train_args(d, d / "run")) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "features.txt: node 7: feature value past float32's range" in err


def run_cli(argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestMutatedInputFiles:
    """Whatever one input file holds, simrank and train end in a documented exit code."""

    @settings(max_examples=24, deadline=None)
    @given(target=st.sampled_from(["edges", "features", "labels", "train", "similarity", "config"]),
           edit=st.data())
    def test_documented_exit_and_one_line(self, target, edit):
        with tempfile.TemporaryDirectory() as tmp:
            d = write_bundle(Path(tmp), gen_structural_heterophily(seed=0, n=48, classes=2))
            # HyperParams defaults for keys that train_args leaves unset
            (d / "config.txt").write_text("# run config\nwidth = 64\nlr = 0.01\neps = 0.1\nalpha = 0.5\n")
            simrank_argv = ["simrank", "--edges", str(d / "edges.txt"), "--labels", str(d / "labels.txt"),
                            "--mode", "approx", "--k", "16", "--out", str(d / "sim")]
            dump = d / "sim" / "similarity.txt"
            if target == "similarity":  # the clean files' dump, mutated below its header
                assert run_cli(simrank_argv)[0] == 0
                path = dump
                head, *body = path.read_text().splitlines(keepends=True)
            else:
                path = d / f"{target}.txt"
                head, body = "", path.read_text().splitlines()
            path.write_text(head + edit.draw(mutated(st.just([line.split() for line in body]))))
            runs = [] if target in ("similarity", "config") else [run_cli(simrank_argv)]
            sim_flags = ["--sim", str(dump)] if dump.exists() else []
            config_flags = ["--config", str(path)] if target == "config" else []
            runs.append(run_cli(train_args(d, d / "run", ["--max-epochs", "2", *sim_flags, *config_flags])))
        for code, err in runs:
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in err
            assert err.count("error:") == (code != 0)
