"""Unit tests for graph/label/score serialization."""

import numpy as np
import pytest

from repro.graph import (
    WebGraph,
    read_edge_list,
    read_graph_bundle,
    read_host_list,
    read_labels,
    read_scores,
    write_edge_list,
    write_graph_bundle,
    write_host_list,
    write_labels,
    write_scores,
)


@pytest.fixture()
def sample_graph():
    return WebGraph.from_edges(
        4, [(0, 1), (1, 2), (2, 0), (0, 3)], names=["a.com", "b.com", "c.com", "d.com"]
    )


def test_edge_list_roundtrip(tmp_path, sample_graph):
    path = tmp_path / "g.edges"
    write_edge_list(sample_graph, path)
    loaded = read_edge_list(path)
    assert loaded == sample_graph


def test_edge_list_gzip_roundtrip(tmp_path, sample_graph):
    path = tmp_path / "g.edges.gz"
    write_edge_list(sample_graph, path)
    assert read_edge_list(path) == sample_graph


def test_edge_list_preserves_isolated_nodes(tmp_path):
    g = WebGraph.from_edges(10, [(0, 1)])
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert read_edge_list(path).num_nodes == 10


def test_edge_list_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("# header\nnot-a-number\n")
    with pytest.raises(ValueError):
        read_edge_list(bad)
    bad.write_text("3\n1 2 3\n")
    with pytest.raises(ValueError):
        read_edge_list(bad)
    bad.write_text("# only comments\n")
    with pytest.raises(ValueError):
        read_edge_list(bad)


def test_host_list_roundtrip(tmp_path):
    names = ["www.a.com", "b.org", "sub.c.net"]
    path = tmp_path / "hosts.txt"
    write_host_list(names, path)
    assert read_host_list(path) == names


def test_host_list_rejects_newlines(tmp_path):
    with pytest.raises(ValueError):
        write_host_list(["bad\nname"], tmp_path / "h.txt")


def test_labels_roundtrip(tmp_path):
    labels = {0: "good", 3: "spam", 7: "unknown"}
    path = tmp_path / "l.labels"
    write_labels(labels, path)
    assert read_labels(path) == labels


def test_labels_reject_whitespace(tmp_path):
    with pytest.raises(ValueError):
        write_labels({0: "two words"}, tmp_path / "l.labels")


def test_labels_reject_malformed_line(tmp_path):
    bad = tmp_path / "bad.labels"
    bad.write_text("0 good extra\n")
    with pytest.raises(ValueError):
        read_labels(bad)


def test_scores_roundtrip_exact(tmp_path):
    scores = np.array([0.1, 1e-17, 3.25, -2.5])
    path = tmp_path / "s.scores"
    write_scores(scores, path)
    loaded = read_scores(path)
    # repr-based format preserves doubles exactly
    assert np.array_equal(loaded, scores)


def test_scores_empty(tmp_path):
    path = tmp_path / "empty.scores"
    write_scores(np.array([]), path)
    assert read_scores(path).size == 0


def test_bundle_roundtrip(tmp_path, sample_graph):
    labels = {0: "good", 1: "spam"}
    meta = {"seed": 7, "kind": "test"}
    out = write_graph_bundle(
        sample_graph, tmp_path / "bundle", labels=labels, metadata=meta
    )
    graph, loaded_labels, loaded_meta = read_graph_bundle(out)
    assert graph == sample_graph
    assert graph.names == sample_graph.names
    assert loaded_labels == labels
    assert loaded_meta == meta


def test_bundle_compressed(tmp_path, sample_graph):
    out = write_graph_bundle(sample_graph, tmp_path / "bz", compress=True)
    assert (out / "graph.edges.gz").exists()
    graph, labels, meta = read_graph_bundle(out)
    assert graph == sample_graph
    assert labels is None and meta is None


def test_bundle_missing_graph(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_graph_bundle(tmp_path)


def test_npz_roundtrip(tmp_path, sample_graph):
    from repro.graph import read_npz, write_npz

    path = tmp_path / "g.npz"
    write_npz(sample_graph, path)
    loaded = read_npz(path)
    assert loaded == sample_graph
    assert loaded.names == sample_graph.names


def test_npz_without_names(tmp_path):
    from repro.graph import read_npz, write_npz

    g = WebGraph.from_edges(6, [(0, 1), (4, 5)])
    path = tmp_path / "g.npz"
    write_npz(g, path)
    loaded = read_npz(path)
    assert loaded == g
    assert loaded.names is None


# ----------------------------------------------------------------------
# corrupted input: strict raises typed errors, lenient skips + warns
# ----------------------------------------------------------------------


def test_truncated_gzip_edge_list_raises_typed_error(tmp_path, sample_graph):
    from repro.graph import GraphFormatError, TruncatedFileError

    path = tmp_path / "g.edges.gz"
    write_edge_list(sample_graph, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedFileError):
        read_edge_list(path)
    # truncation is unrecoverable: lenient mode raises too
    with pytest.raises(TruncatedFileError):
        read_edge_list(path, strict=False)
    # and the typed error is still a GraphFormatError/ValueError
    assert issubclass(TruncatedFileError, GraphFormatError)
    assert issubclass(TruncatedFileError, ValueError)


def test_truncated_npz_raises_typed_error(tmp_path, sample_graph):
    from repro.graph import TruncatedFileError, read_npz, write_npz

    path = tmp_path / "g.npz"
    write_npz(sample_graph, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedFileError):
        read_npz(path)


def test_edge_list_non_integer_tokens(tmp_path):
    from repro.graph import GraphFormatError, GraphIOWarning

    path = tmp_path / "g.edges"
    path.write_text("4\n0 1\n1 x2\n2 3\n")
    with pytest.raises(GraphFormatError, match="non-integer"):
        read_edge_list(path)
    with pytest.warns(GraphIOWarning) as record:
        g = read_edge_list(path, strict=False)
    assert g.num_nodes == 4
    assert sorted(g.edges()) == [(0, 1), (2, 3)]
    assert record[0].message.counts["malformed"] == 1


def test_edge_list_id_out_of_range(tmp_path):
    from repro.graph import GraphFormatError, GraphIOWarning

    path = tmp_path / "g.edges"
    path.write_text("3\n0 1\n1 3\n2 0\n")  # id 3 >= num_nodes 3
    with pytest.raises(GraphFormatError, match="out of range"):
        read_edge_list(path)
    with pytest.warns(GraphIOWarning) as record:
        g = read_edge_list(path, strict=False)
    assert sorted(g.edges()) == [(0, 1), (2, 0)]
    assert record[0].message.counts["out-of-range"] == 1


def test_edge_list_negative_ids(tmp_path):
    from repro.graph import GraphFormatError, GraphIOWarning

    path = tmp_path / "g.edges"
    path.write_text("3\n0 1\n-1 2\n")
    with pytest.raises(GraphFormatError):
        read_edge_list(path)
    with pytest.warns(GraphIOWarning):
        g = read_edge_list(path, strict=False)
    assert sorted(g.edges()) == [(0, 1)]


def test_edge_list_empty_file(tmp_path):
    from repro.graph import GraphFormatError

    path = tmp_path / "empty.edges"
    path.write_text("")
    with pytest.raises(GraphFormatError, match="header"):
        read_edge_list(path)
    # the header is structural: lenient mode cannot invent one
    with pytest.raises(GraphFormatError, match="header"):
        read_edge_list(path, strict=False)


def test_edge_list_lenient_counts_duplicates(tmp_path):
    from repro.graph import GraphIOWarning

    path = tmp_path / "g.edges"
    path.write_text("3\n0 1\n0 1\n1 1\n1 2\n")
    with pytest.warns(GraphIOWarning) as record:
        g = read_edge_list(path, strict=False)
    counts = record[0].message.counts
    assert counts["duplicate"] == 1
    assert counts["self-link"] == 1
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_edge_list_strict_is_the_default(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("2\n0 zzz\n")
    with pytest.raises(ValueError):  # backward-compatible type
        read_edge_list(path)


def test_labels_lenient_skips_and_warns(tmp_path):
    from repro.graph import GraphFormatError, GraphIOWarning

    path = tmp_path / "l.labels"
    path.write_text("0 good\nbroken line here\n2 spam\n-1 spam\n")
    with pytest.raises(GraphFormatError):
        read_labels(path)
    with pytest.warns(GraphIOWarning) as record:
        labels = read_labels(path, strict=False)
    assert labels == {0: "good", 2: "spam"}
    assert record[0].message.counts["malformed"] == 2


def test_scores_lenient_skips_and_warns(tmp_path):
    from repro.graph import GraphFormatError, GraphIOWarning

    path = tmp_path / "s.scores"
    path.write_text("0 0.5\n1 not-a-float\n2 0.25\n")
    with pytest.raises(GraphFormatError):
        read_scores(path)
    with pytest.warns(GraphIOWarning):
        scores = read_scores(path, strict=False)
    assert scores[0] == 0.5 and scores[2] == 0.25


def test_write_failure_leaves_no_partial_file(tmp_path, sample_graph, monkeypatch):
    import repro.graph.io as io_mod

    def always_fail(src, dst):
        raise OSError("disk on fire")

    monkeypatch.setattr(io_mod.os, "replace", always_fail)
    monkeypatch.setattr(io_mod, "with_retries", lambda fn, **kw: fn())
    path = tmp_path / "g.edges"
    with pytest.raises(OSError):
        write_edge_list(sample_graph, path)
    monkeypatch.undo()
    # neither the final file nor a stale tmp survives the failed write
    assert list(tmp_path.iterdir()) == []


def test_bundle_lenient_mode_threads_through(tmp_path, sample_graph):
    from repro.graph import GraphFormatError, GraphIOWarning

    out = write_graph_bundle(sample_graph, tmp_path / "bundle")
    edges = out / "graph.edges"
    edges.write_text(edges.read_text() + "bad line!\n")
    with pytest.raises(GraphFormatError):
        read_graph_bundle(out)
    with pytest.warns(GraphIOWarning):
        graph, _, _ = read_graph_bundle(out, strict=False)
    assert graph == sample_graph


# ----------------------------------------------------------------------
# the vectorized reader accepts and rejects exactly what the line loop does
# ----------------------------------------------------------------------

#: (id, file text, whether the one-call numpy parse may take it as is)
EDGE_BODIES = [
    ("plain", "# repro edge list v1\n4\n0 1\n1 2\n2 0\n0 3\n", True),
    ("tabs-crlf-trailing", "# c\r\n4\r\n0\t1\r\n1 2   \r\n2\t0 \r\n", True),
    ("duplicates-self-links", "4\n0 1\n0 1\n1 1\n2 3\n0 1\n", True),
    ("blank-lines-in-body", "4\n0 1\n\n  \n1 2\n\n", True),
    ("comment-in-body", "4\n0 1\n\n# note\n1 2\n", False),
    ("trailing-comment", "4\n0 1\n1 2 # x\n", False),
    ("plus-sign", "12\n0 1\n+1 2\n", True),
    ("leading-zero", "12\n0 1\n01 2\n", True),
    ("underscore", "12\n0 1\n1_0 2\n", False),
    ("float-integral", "12\n0 1\n1.0 2\n", False),
    ("float", "12\n0 1\n1.5 2\n", False),
    ("hex", "12\n0 1\n0x1 2\n", False),
    ("arabic-indic-digit", "12\n0 1\n١ 2\n", False),
    ("one-token", "4\n0 1\n2\n", False),
    ("three-tokens", "4\n0 1\n1 2 3\n", False),
    ("negative-id", "4\n0 1\n-1 2\n", False),
    ("out-of-range-id", "4\n0 1\n1 4\n", False),
    ("header-only", "# c\n4\n", False),
    ("missing-header", "0 1\n1 2\n", False),
    ("empty-file", "", False),
]


def _write_body(path, text):
    import gzip

    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        path.write_text(text, encoding="utf-8", newline="")


def _read_outcome(path, strict):
    """What ``read_edge_list`` gives: the graph or the exception, plus
    every warning it emitted."""
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            graph = read_edge_list(path, strict=strict)
            result = ("graph", graph.num_nodes, graph.indptr.tolist(),
                      graph.indices.tolist())
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            result = ("error", type(exc), str(exc))
    emitted = [
        (type(w.message), str(w.message), dict(getattr(w.message, "counts", {})))
        for w in caught
    ]
    return result, emitted


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize("suffix", [".edges", ".edges.gz"])
@pytest.mark.parametrize(
    "text,clean", [(t, c) for _, t, c in EDGE_BODIES],
    ids=[name for name, _, _ in EDGE_BODIES],
)
def test_fast_reader_matches_line_loop(tmp_path, monkeypatch, text, clean,
                                       suffix, strict):
    import repro.graph.io as io_mod

    path = tmp_path / f"g{suffix}"
    _write_body(path, text)
    assert (io_mod._parse_edge_array(path) is not None) == clean
    fast = _read_outcome(path, strict)
    monkeypatch.setattr(io_mod, "_parse_edge_array", lambda path: None)
    assert _read_outcome(path, strict) == fast


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize("suffix", [".edges", ".edges.gz"])
@pytest.mark.parametrize(
    "text", [t for _, t, c in EDGE_BODIES if c],
    ids=[name for name, _, c in EDGE_BODIES if c],
)
def test_clean_edge_list_never_enters_the_line_loop(tmp_path, monkeypatch,
                                                    text, suffix, strict):
    import repro.graph.io as io_mod

    def _loop(*args):
        raise AssertionError("a clean file fell back to the line loop")

    path = tmp_path / f"g{suffix}"
    _write_body(path, text)
    monkeypatch.setattr(io_mod, "_parse_edge_lines", _loop)
    (kind, *_), _warnings = _read_outcome(path, strict)
    assert kind == "graph"


def test_strict_errors_keep_file_and_line(tmp_path):
    from repro.graph import GraphFormatError

    path = tmp_path / "g.edges"
    path.write_text("# c\n4\n0 1\n\n1 2 # x\n")
    with pytest.raises(GraphFormatError, match=r"g\.edges:5: expected"):
        read_edge_list(path)
