"""The numpy fast parse against the shared line loop.

Every reader makes one `textio.read_table` call, which tries `parse_table`
(one np.loadtxt pass) first and falls back to the line loop. These tests hold
the two to the same contract: on any text, the reader must return
bit-identical arrays to the line loop alone, or raise the same error with the
same message; and on well-formed files the reader must not fall back at all.
"""

import io
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simga import data, graph, simrank, textio
from simga.data import load_features, load_labels, load_split
from simga.graph import load_edge_list
from simga.simrank import SparseSim, dump_sparse_sim, load_sparse_sim

# tokens that are odd in an integer or float column; Python's int/float accept
# some of them (1_0, +5, ٣), numpy's parser fewer
ODD_TOKENS = ["1.0", "1_0", "+5", "٣", "0x1", "-3", "-0", "007", "1e3", "#",
              "99999999999999999999", "9223372036854775807", "9223372036854775808",
              "-9223372036854775809", "nan", "inf", "-inf", "1e400", "1e-320", ""]
# whitespace that str.split and numpy both split on, plus a carriage return,
# which numpy reads as a line break inside a line
SPACES = [" ", "\t", "\x0b", "\x0c", "\xa0", "　", "\r"]


@st.composite
def mutated(draw, rows):
    """Lines of well-formed rows with a few random edits (or an empty file)."""
    lines = [" ".join(r) for r in draw(rows)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(
            ["comment", "blank", "spaces", "token", "drop", "extra", "sep", "crlf", "truncate"]))
        if kind == "comment":
            lines.insert(at, draw(st.sampled_from(["# note", "#", "  # indented"])))
        elif kind == "blank":
            lines.insert(at, "")
        elif kind == "spaces":
            lines.insert(at, "".join(draw(st.lists(st.sampled_from(SPACES), min_size=1, max_size=3))))
        elif lines and kind in ("token", "drop", "extra", "sep", "crlf"):
            i = min(at, len(lines) - 1)
            toks = lines[i].split(" ")
            if kind == "token":
                toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(ODD_TOKENS))
            elif kind == "drop":
                toks.pop(draw(st.integers(0, len(toks) - 1)))
            elif kind == "extra":
                toks.append(draw(st.sampled_from(["0", "1", "2.5"])))
            lines[i] = draw(st.sampled_from(SPACES)).join(toks) if kind == "sep" else " ".join(toks)
            if kind == "crlf":
                lines[i] += "\r"
        elif kind == "truncate":
            lines = lines[:at]
    end = draw(st.sampled_from(["\n", ""]))
    return "\n".join(lines) + (end if lines else "")


ids = st.integers(0, 40).map(str)
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.4f}"),
    st.integers(-9, 9).map(str),
)
EDGE_TEXT = mutated(st.lists(st.tuples(ids, ids), min_size=1, max_size=8))
FEATURE_TEXT = st.integers(1, 3).flatmap(
    lambda w: mutated(st.lists(st.lists(floats, min_size=w, max_size=w), min_size=1, max_size=6)))
INT_TEXT = mutated(st.lists(st.tuples(ids), min_size=1, max_size=8))


@st.composite
def dump_text(draw):
    """A similarity dump: header, then sorted 'u v score' rows, then edits to the body."""
    n = draw(st.integers(1, 6))
    cells = sorted(draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1)))
    rows = [(str(u), str(v), f"{draw(st.floats(0, 1)):.17g}") for u, v in cells]
    body = draw(mutated(st.just(rows)))
    return f"{n} {n} 0.59999999999999998 fixedpoint\n" + body


def outcome(reader, text):
    """What the reader makes of the text: its arrays, or the error it raises."""
    try:
        result = reader(io.StringIO(text))
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    if isinstance(result, SparseSim):
        csr = result.csr
        return result.n, result.k, result.c, result.method, arrays(csr.indptr, csr.indices, csr.data)
    if isinstance(result, graph.Graph):
        return result.n, result.m, arrays(result.offsets, result.neighbors, result.degrees)
    return arrays(result)


def arrays(*arrs):
    return [(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()) for a in arrs]


def line_loop_only():
    """Within this context every reader skips the fast parse."""
    return mock.patch.object(textio, "parse_table", lambda *args, **kwargs: None)


def check_same(reader, text):
    fast = outcome(reader, text)
    with line_loop_only():
        slow = outcome(reader, text)
    assert fast == slow


class TestFastParseMatchesLineLoop:
    @settings(max_examples=60, deadline=None)
    @given(EDGE_TEXT)
    def test_edge_list(self, text):
        check_same(load_edge_list, text)

    @settings(max_examples=60, deadline=None)
    @given(FEATURE_TEXT)
    def test_features(self, text):
        check_same(load_features, text)

    @settings(max_examples=40, deadline=None)
    @given(INT_TEXT)
    def test_labels(self, text):
        check_same(load_labels, text)

    @settings(max_examples=40, deadline=None)
    @given(INT_TEXT)
    def test_split(self, text):
        check_same(load_split, text)

    @settings(max_examples=60, deadline=None)
    @given(dump_text())
    def test_similarity_dump(self, text):
        check_same(load_sparse_sim, text)

    @pytest.mark.parametrize(
        "reader, module, text",
        [
            (load_edge_list, graph, ""),
            (load_edge_list, graph, "0 1\n2 99999999999999999999\n"),
            (load_edge_list, graph, "0 1\n# tail\n"),
            (load_edge_list, graph, "0 -1\n"),
            (load_edge_list, graph, "0 1\r2 3\n"),
            (load_features, data, "1 nan\n"),
            (load_features, data, "1 2\n3\n"),
            (load_features, data, ""),
            (load_labels, data, "\n \n"),
            (load_labels, data, "1_0\n٣\n+5\n"),
            (load_labels, data, "5 0\n"),
            (load_split, data, "1 2\n3 4\n"),
            (load_split, data, ""),
            (load_split, data, "0x1\n"),
            (load_sparse_sim, simrank, "3 3 0.6 fixedpoint\n0 0 1\n1 1 1 1\n"),
            (load_sparse_sim, simrank, "3 3 0.6 fixedpoint\n"),
        ],
    )
    def test_named_cases(self, reader, module, text):  # module only names the case
        check_same(reader, text)

    def test_pipe_is_read_by_the_line_loop(self):
        # a stream that cannot rewind never enters the fast parse
        r, w = os.pipe()
        os.write(w, b"# from a pipe\n0 1\n1 2\n")
        os.close(w)
        with open(r) as fh:
            assert load_edge_list(fh).m == 2


def write_inputs(d):
    """One well-formed file per reader, as numpy and dump_sparse_sim write them."""
    rng = np.random.default_rng(0)
    np.savetxt(d / "edges.txt", rng.integers(0, 50, size=(200, 2)), fmt="%d")
    (d / "edges_header.txt").write_text("# u v\n\n  # second header line\n" + (d / "edges.txt").read_text())
    np.savetxt(d / "features.txt", rng.normal(size=(50, 3)))
    np.savetxt(d / "labels.txt", rng.integers(0, 4, size=50), fmt="%d")
    sim = SparseSim.from_arrays(n=3, k=2, indptr=[0, 2, 3, 4], cols=[0, 2, 1, 2],
                                scores=[1.0, 0.25, 1.0, 1.0], method="fixedpoint", c=0.6)
    with open(d / "sim.txt", "w") as fh:
        dump_sparse_sim(sim, fh)


class TestFastPathIsTaken:
    """On a well-formed file no reader may fall back to the line loop."""

    @pytest.mark.parametrize(
        "reader, file",
        [
            (load_edge_list, "edges.txt"),
            (load_edge_list, "edges_header.txt"),
            (load_features, "features.txt"),
            (load_labels, "labels.txt"),
            (load_split, "labels.txt"),
            (load_sparse_sim, "sim.txt"),
        ],
        ids=["edge_list", "edge_list_with_header", "features", "labels", "split", "similarity_dump"],
    )
    def test_reader_returns_without_its_line_loop(self, tmp_path, monkeypatch, reader, file):
        write_inputs(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("line loop used on a well-formed file")

        monkeypatch.setattr(textio, "_read_lines", refuse)
        with open(tmp_path / file) as fh:
            reader(fh)
        monkeypatch.undo()
        check_same(reader, (tmp_path / file).read_text())
