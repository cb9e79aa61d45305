"""Serialization of web graphs, label sets and score vectors.

A reproduction pipeline produces several on-disk artifacts: the host
graph itself, the good core (a host list, like the paper's directory +
``.gov`` + educational compilation), ground-truth label files, and score
vectors (PageRank, core-biased PageRank, mass estimates).  This module
defines plain-text formats for each so that every experiment is
re-runnable from files, plus gzip support because host graphs compress
well.

Formats
-------
Edge list (``.edges`` / ``.edges.gz``)::

    # comment lines start with '#'
    <num_nodes>
    <src> <dst>
    ...

Host list (``.hosts``): one host name per line, id = line number.

Label file (``.labels``): ``<node> <label>`` per line.

Score vector (``.scores``): ``<node> <value>`` per line (float repr).

Graph archive (``.npz``, :func:`write_npz`): a numpy archive of stored
(not deflated) members: ``indptr`` and ``indices`` (the CSR arrays),
``names`` when the graph has them, and ``meta``, a JSON string, when
the writer adds one.

Anchor (:func:`write_anchor`): a graph archive without names whose
``meta`` holds the graph's structural ``fingerprint`` and whatever the
writer adds.  :func:`write_graph_bundle` writes one beside the edge
list (``graph.anchor.npz``, :data:`BUNDLE_ANCHOR`) recording the edge
file's name, byte size and CRC-32; :func:`read_graph_bundle` reads the
graph from it, without parsing the text, only when the edge file still
has that size and CRC and the archive reads clean.

Robustness
----------
All writers are **atomic** (write to a ``.tmp`` sibling, then
``os.replace``) and retry transient ``OSError`` with backoff, so a
crash or flaky filesystem can never leave a half-written artifact under
the final name.  All readers take ``strict=``:

* ``strict=True`` (default) raises a typed
  :class:`~repro.errors.GraphFormatError` naming the file and line for
  any malformed content;
* ``strict=False`` (lenient) skips malformed lines, out-of-range node
  ids and duplicate edges, then emits a single
  :class:`~repro.errors.GraphIOWarning` carrying per-category skip
  counts.

A truncated or corrupt gzip stream raises
:class:`~repro.errors.TruncatedFileError` in *both* modes — there is no
principled way to skip past a broken compression stream.
"""

from __future__ import annotations

import gzip
import os
import zipfile
import zlib
from collections import Counter
import json
import warnings
from pathlib import Path
from typing import Callable, Dict, IO, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GraphFormatError, GraphIOWarning, TruncatedFileError
from ..obs import get_telemetry
from ..runtime.retry import with_retries
from .webgraph import WebGraph, sorted_unique

__all__ = [
    "write_npz",
    "read_npz",
    "write_anchor",
    "read_anchor",
    "write_edge_list",
    "read_edge_list",
    "write_host_list",
    "read_host_list",
    "write_labels",
    "read_labels",
    "write_scores",
    "read_scores",
    "write_graph_bundle",
    "read_graph_bundle",
]

PathLike = Union[str, Path]

#: The anchor :func:`write_graph_bundle` writes beside the edge list.
BUNDLE_ANCHOR = "graph.anchor.npz"

#: Read size of :func:`_file_crc`.
_CRC_CHUNK = 1 << 20


#: gzip/zlib raise these when a stream was cut mid-member (interrupted
#: transfer, partial copy).  ``EOFError`` is what ``gzip`` raises on
#: truncation; ``zlib.error`` on corrupt deflate data;
#: ``zipfile.BadZipFile`` when an ``.npz`` archive lost its central
#: directory (it lives at the end, so truncation always destroys it).
_TRUNCATION_ERRORS = (EOFError, zlib.error, gzip.BadGzipFile, zipfile.BadZipFile)


def _open_text(path: PathLike, mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _write_atomic(
    path: PathLike,
    body: Callable[[IO[str]], None],
    *,
    binary: bool = False,
    fsync: bool = False,
    retries: int = 2,
    backoff: float = 0.05,
) -> None:
    """Write a file atomically with retry-with-backoff.

    The payload goes to a ``.tmp`` sibling which is ``os.replace``-d
    over the final name, so readers never observe a torn file; each
    retry restarts the write from scratch (the body re-runs against a
    fresh handle).  gzip-ness is decided by the *final* suffix, not the
    temporary one.  ``fsync`` (binary writes) makes the payload durable
    before the rename, and the rename before returning.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")

    def _attempt() -> None:
        try:
            if binary:
                fh: IO = open(tmp, "wb")
            elif path.suffix == ".gz":
                fh = gzip.open(tmp, "wt", encoding="utf-8")
            else:
                fh = open(tmp, "w", encoding="utf-8")
            with fh:
                body(fh)
                if fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
            if fsync:
                fsync_directory(path.parent)
        finally:
            tmp.unlink(missing_ok=True)

    with_retries(_attempt, retries=retries, backoff=backoff)


def fsync_directory(directory: PathLike) -> None:
    """Make the renames and deletions in ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _warn_skips(path: PathLike, counts: Counter) -> None:
    summary = ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items()))
    warnings.warn(
        GraphIOWarning(
            f"{path}: lenient read (skipped: {summary})", counts
        ),
        stacklevel=3,
    )


# ----------------------------------------------------------------------
# binary (npz) graphs
# ----------------------------------------------------------------------


def _write_archive(path: PathLike, arrays: Dict[str, np.ndarray]) -> None:
    """Atomically write ``arrays`` as an archive of stored members,
    fsynced before the rename."""
    _write_atomic(
        Path(path),
        lambda fh: np.savez(fh, **arrays),
        binary=True,
        fsync=True,
    )


def write_npz(graph: WebGraph, path: PathLike) -> None:
    """Write a graph as an ``.npz`` archive (CSR arrays + names).

    Members are stored, not deflated, as solution snapshots are: at 1M
    hosts (6M edges) the deflated write took 5.2–5.5 s and its read
    0.26–0.34 s, the stored ones 0.09–0.15 s and 0.04–0.10 s.  Stored
    members keep the CRC-32 the reader checks.  The write is atomic and
    fsynced.  The text formats remain the interchange/diff-friendly
    option.
    """
    arrays = {
        "indptr": graph.indptr,
        "indices": graph.indices,
    }
    if graph.names is not None:
        arrays["names"] = np.asarray(graph.names, dtype=np.str_)
    _write_archive(path, arrays)


def read_npz(path: PathLike) -> WebGraph:
    """Read a graph written by :func:`write_npz` (or an anchor).

    Deflated archives written by older versions read alike.  A
    truncated archive (interrupted copy) raises
    :class:`~repro.errors.TruncatedFileError`.
    """
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            indptr = data["indptr"]
            indices = data["indices"]
            names = (
                [str(name) for name in data["names"]]
                if "names" in data
                else None
            )
    except _TRUNCATION_ERRORS as exc:
        raise TruncatedFileError(
            f"{path}: truncated or corrupt npz archive ({exc})"
        ) from exc
    return WebGraph(indptr, indices, names, validate=True)


def write_anchor(graph: WebGraph, path: PathLike, **meta) -> Path:
    """Write ``graph``'s CSR as an anchor: a :func:`write_npz` archive
    without names whose ``meta`` member holds the graph's structural
    fingerprint and ``meta``'s keys (JSON values).  Atomic and fsynced;
    returns the path.

    :func:`read_anchor` reads the graph back without recomputing the
    fingerprint, which is what makes an anchor faster to start from
    than the text edge list and its fingerprint pass.
    """
    meta = {"fingerprint": graph.structural_fingerprint(), **meta}
    _write_archive(path, {
        "indptr": graph.indptr,
        "indices": graph.indices,
        "meta": np.asarray(json.dumps(meta, sort_keys=True)),
    })
    return Path(path)


#: What reading an archive that is damaged, or not an anchor, raises.
_ANCHOR_ERRORS = _TRUNCATION_ERRORS + (
    OSError, ValueError, KeyError, TypeError, MemoryError,
)


def read_anchor(
    path: PathLike,
    *,
    check: Optional[Callable[[dict], bool]] = None,
) -> Tuple[WebGraph, dict]:
    """Read an anchor written by :func:`write_anchor`: ``(graph, meta)``.

    The graph is validated, unnamed, and carries the stored
    fingerprint (its node and edge counts are checked against the
    arrays).  ``check`` sees the meta before the arrays are read; a
    false answer rejects the anchor.  An anchor that is
    missing, damaged in any member (stored members carry a CRC-32),
    rejected or not a valid graph raises
    :class:`~repro.errors.GraphFormatError`; callers fall back to the
    source the anchor stands for.
    """
    path = Path(path)
    try:
        # own the handle: np.load leaks it when a file that looks like
        # an archive is not one
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if not isinstance(meta, dict):
                raise ValueError("meta is not a JSON object")
            if check is not None and not check(meta):
                raise GraphFormatError(f"{path}: anchor does not apply here")
            indptr = data["indptr"]
            indices = data["indices"]
        if indices.ndim != 1 or {indptr.dtype, indices.dtype} != {
            np.dtype(np.int64)
        }:
            raise ValueError("CSR arrays are not 1-D int64")
        fingerprint = str(meta["fingerprint"])
        counts = f"g:n={len(indptr) - 1};e={len(indices)};h="
        if not fingerprint.startswith(counts):
            raise ValueError(
                f"fingerprint {fingerprint!r} does not count these arrays"
            )
        graph = WebGraph(indptr, indices, validate=True)
    except GraphFormatError:
        raise
    except _ANCHOR_ERRORS as exc:
        raise GraphFormatError(f"{path}: unusable anchor ({exc})") from exc
    graph._stamp_fingerprint(fingerprint)
    return graph, meta


def _file_crc(path: PathLike) -> Tuple[int, int]:
    """``(byte size, CRC-32)`` of a file, read in 1 MiB chunks."""
    size, crc = 0, 0
    buffer = bytearray(_CRC_CHUNK)
    view = memoryview(buffer)
    with open(path, "rb") as fh:
        while True:
            got = fh.readinto(buffer)
            if not got:
                return size, crc
            size += got
            crc = zlib.crc32(view[:got], crc)


# ----------------------------------------------------------------------
# edge lists
# ----------------------------------------------------------------------


def write_edge_list(graph: WebGraph, path: PathLike) -> None:
    """Write ``graph`` as a plain-text edge list (optionally gzipped).

    Atomic: the file appears under its final name only once complete.
    """

    def _body(fh: IO[str]) -> None:
        fh.write("# repro edge list v1\n")
        fh.write(f"{graph.num_nodes}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")

    _write_atomic(path, _body)


def read_edge_list(path: PathLike, *, strict: bool = True) -> WebGraph:
    """Read a graph previously written by :func:`write_edge_list`.

    ``strict=False`` skips malformed lines and out-of-range node ids
    (counting them into one :class:`~repro.errors.GraphIOWarning`)
    instead of raising; the node-count header is structural and its
    absence raises in both modes, as does gzip truncation.

    A clean file is parsed by numpy in one call; anything that parse
    does not take as it is (a ``#`` line in the body, a bad token, a
    wrong column count, an out-of-range id) is read again line by
    line, which is what names the offending ``file:line`` and counts
    the lines lenient mode skips.
    """
    counts: Counter = Counter()
    try:
        parsed = _parse_edge_array(path)
        if parsed is None:
            num_nodes, edges = _parse_edge_lines(path, strict, counts)
        else:
            num_nodes, edges = parsed
    except _TRUNCATION_ERRORS as exc:
        raise TruncatedFileError(
            f"{path}: truncated or corrupt gzip stream ({exc}) — "
            "the file was likely cut mid-transfer"
        ) from exc
    if not strict and len(edges):
        # count duplicates (and self-links) the graph constructor will
        # collapse/drop, so the warning reflects everything ignored
        looped = edges[:, 0] == edges[:, 1]
        keyed = edges[~looped]
        dupes = len(keyed) - len(
            sorted_unique(keyed[:, 0] * num_nodes + keyed[:, 1])
        )
        loops = int(looped.sum())
        if dupes:
            counts["duplicate"] += dupes
        if loops:
            counts["self-link"] += loops
    if counts:
        _warn_skips(path, counts)
    return WebGraph.from_edges(num_nodes, edges)


def _parse_edge_array(path: PathLike) -> Optional[Tuple[int, np.ndarray]]:
    """``(num_nodes, (m, 2) edges)`` of a clean edge list, else ``None``.

    Clean means: ``#`` lines only before the header, then blank or
    ``<src> <dst>`` lines of in-range ids, which ``np.loadtxt`` parses
    without an error or a warning.  ``comments=None`` keeps ``#``
    inside the body a parse error (the default would accept
    ``1 2 # x``), and warnings are errors because some numpy releases
    parse ``1.5`` into an integer column with only a warning.  Every
    token numpy accepts here is one ``int()`` accepts with the same
    value; the converse does not hold (``1_0``, non-ASCII digits),
    which is why ``None`` sends the caller to the line loop.
    """
    with _open_text(path, "r") as fh:
        for line in iter(fh.readline, ""):
            line = line.strip()
            if line and not line.startswith("#"):
                break
        else:
            return None
        try:
            num_nodes = int(line)
        except ValueError:
            return None
        if num_nodes < 0:
            return None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                edges = np.loadtxt(
                    fh, dtype=np.int64, comments=None, ndmin=2
                )
        except (ValueError, OverflowError, Warning):
            return None
    if edges.shape[1] != 2 or (
        len(edges) and (edges.min() < 0 or edges.max() >= num_nodes)
    ):
        return None
    return num_nodes, edges


def _parse_edge_lines(
    path: PathLike, strict: bool, counts: Counter
) -> Tuple[int, np.ndarray]:
    """The line-by-line reader: exact ``file:line`` errors in strict
    mode, skipped lines counted into ``counts`` in lenient mode."""
    num_nodes: Optional[int] = None
    edges: List[Tuple[int, int]] = []
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if num_nodes is None:
                try:
                    num_nodes = int(line)
                except ValueError:
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected node count, "
                        f"got {line!r}"
                    ) from None
                if num_nodes < 0:
                    raise GraphFormatError(
                        f"{path}:{lineno}: negative node count "
                        f"{num_nodes}"
                    )
                continue
            parts = line.split()
            if len(parts) != 2:
                if strict:
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected '<src> <dst>', "
                        f"got {line!r}"
                    )
                counts["malformed"] += 1
                continue
            try:
                src, dst = int(parts[0]), int(parts[1])
            except ValueError:
                if strict:
                    raise GraphFormatError(
                        f"{path}:{lineno}: non-integer node id in "
                        f"{line!r}"
                    ) from None
                counts["malformed"] += 1
                continue
            if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
                if strict:
                    raise GraphFormatError(
                        f"{path}:{lineno}: node id out of range "
                        f"[0, {num_nodes}) in {line!r}"
                    )
                counts["out-of-range"] += 1
                continue
            edges.append((src, dst))
    if num_nodes is None:
        raise GraphFormatError(f"{path}: missing node-count header")
    return num_nodes, np.asarray(edges, dtype=np.int64).reshape(-1, 2)


# ----------------------------------------------------------------------
# host lists
# ----------------------------------------------------------------------


def write_host_list(names: Sequence[str], path: PathLike) -> None:
    """Write host names, one per line, id = line index (atomic)."""
    for name in names:
        if "\n" in name or "\r" in name:
            raise ValueError(f"host name {name!r} contains a newline")

    def _body(fh: IO[str]) -> None:
        for name in names:
            fh.write(name + "\n")

    _write_atomic(path, _body)


def read_host_list(path: PathLike) -> List[str]:
    """Read a host list written by :func:`write_host_list`."""
    with _open_text(path, "r") as fh:
        return [line.rstrip("\n") for line in fh if line.rstrip("\n")]


# ----------------------------------------------------------------------
# labels
# ----------------------------------------------------------------------


def write_labels(labels: Dict[int, str], path: PathLike) -> None:
    """Write a node → label mapping (atomic)."""
    for label in labels.values():
        if any(c.isspace() for c in label):
            raise ValueError(f"label {label!r} contains whitespace")

    def _body(fh: IO[str]) -> None:
        for node in sorted(labels):
            fh.write(f"{node} {labels[node]}\n")

    _write_atomic(path, _body)


def read_labels(path: PathLike, *, strict: bool = True) -> Dict[int, str]:
    """Read a label file written by :func:`write_labels`.

    Lenient mode skips (and counts) malformed lines.
    """
    labels: Dict[int, str] = {}
    counts: Counter = Counter()
    try:
        with _open_text(path, "r") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                try:
                    if len(parts) != 2:
                        raise ValueError(line)
                    node = int(parts[0])
                    if node < 0:
                        raise ValueError(line)
                except ValueError:
                    if strict:
                        raise GraphFormatError(
                            f"{path}:{lineno}: expected '<node> <label>', "
                            f"got {line!r}"
                        ) from None
                    counts["malformed"] += 1
                    continue
                labels[node] = parts[1]
    except _TRUNCATION_ERRORS as exc:
        raise TruncatedFileError(
            f"{path}: truncated or corrupt gzip stream ({exc})"
        ) from exc
    if counts:
        _warn_skips(path, counts)
    return labels


# ----------------------------------------------------------------------
# score vectors
# ----------------------------------------------------------------------


def write_scores(scores: np.ndarray, path: PathLike) -> None:
    """Write a dense score vector (PageRank, mass estimates, ...);
    atomic, like every writer in this module."""
    scores = np.asarray(scores, dtype=np.float64)

    def _body(fh: IO[str]) -> None:
        fh.write(f"# {len(scores)} scores\n")
        for node, value in enumerate(scores):
            # repr of a Python float round-trips the double exactly
            fh.write(f"{node} {float(value)!r}\n")

    _write_atomic(path, _body)


def read_scores(path: PathLike, *, strict: bool = True) -> np.ndarray:
    """Read a score vector written by :func:`write_scores`.

    Lenient mode skips (and counts) malformed lines and negative node
    ids; missing nodes read as 0.
    """
    pairs: List[Tuple[int, float]] = []
    counts: Counter = Counter()
    try:
        with _open_text(path, "r") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    node_str, value_str = line.split()
                    node, value = int(node_str), float(value_str)
                    if node < 0:
                        raise ValueError(line)
                except ValueError:
                    if strict:
                        raise GraphFormatError(
                            f"{path}:{lineno}: expected '<node> <value>', "
                            f"got {line!r}"
                        ) from None
                    counts["malformed"] += 1
                    continue
                pairs.append((node, value))
    except _TRUNCATION_ERRORS as exc:
        raise TruncatedFileError(
            f"{path}: truncated or corrupt gzip stream ({exc})"
        ) from exc
    if counts:
        _warn_skips(path, counts)
    if not pairs:
        return np.empty(0, dtype=np.float64)
    n = max(node for node, _ in pairs) + 1
    out = np.zeros(n, dtype=np.float64)
    for node, value in pairs:
        out[node] = value
    return out


# ----------------------------------------------------------------------
# bundles
# ----------------------------------------------------------------------


def write_graph_bundle(
    graph: WebGraph,
    directory: PathLike,
    *,
    labels: Optional[Dict[int, str]] = None,
    metadata: Optional[dict] = None,
    compress: bool = False,
) -> Path:
    """Write a graph plus its sidecar files into ``directory``.

    Produces ``graph.edges[.gz]``, its anchor ``graph.anchor.npz``,
    optionally ``graph.hosts``, ``graph.labels`` and ``metadata.json``.
    Returns the directory path.

    The anchor holds the graph's CSR and fingerprint and the edge
    file's name, byte size and CRC-32, so :func:`read_graph_bundle`
    can skip the text parse while the edge file is the one written
    here.  A previous anchor is removed before the edge file is
    replaced.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    anchor = directory / BUNDLE_ANCHOR
    anchor.unlink(missing_ok=True)
    edge_path = directory / ("graph.edges.gz" if compress else "graph.edges")
    write_edge_list(graph, edge_path)
    size, crc = _file_crc(edge_path)
    write_anchor(
        graph, anchor, edges=edge_path.name, edges_size=size, edges_crc=crc
    )
    if graph.names is not None:
        write_host_list(list(graph.names), directory / "graph.hosts")
    if labels is not None:
        write_labels(labels, directory / "graph.labels")
    if metadata is not None:
        _write_atomic(
            directory / "metadata.json",
            lambda fh: json.dump(metadata, fh, indent=2, sort_keys=True),
        )
    return directory


def read_graph_bundle(
    directory: PathLike,
    *,
    strict: bool = True,
) -> Tuple[WebGraph, Optional[Dict[int, str]], Optional[dict]]:
    """Read a bundle written by :func:`write_graph_bundle`.

    Returns ``(graph, labels_or_None, metadata_or_None)``.  ``strict``
    is threaded to the edge-list and label readers; a corrupt
    ``metadata.json`` raises :class:`~repro.errors.GraphFormatError` in
    strict mode and is dropped (with a warning) in lenient mode.

    The graph comes from the bundle's anchor when the edge file still
    has the byte size and CRC-32 the anchor recorded and the anchor
    reads clean: a validated graph carrying the stored fingerprint,
    with no text parse and no fingerprint pass.  Otherwise — no
    anchor (bundles written by older versions), an edge file edited
    since, a damaged anchor — the text is parsed as before, in either
    mode.
    """
    directory = Path(directory)
    edge_path = directory / "graph.edges"
    if not edge_path.exists():
        edge_path = directory / "graph.edges.gz"
    if not edge_path.exists():
        raise FileNotFoundError(f"no graph.edges[.gz] in {directory}")
    graph = _read_bundle_anchor(directory / BUNDLE_ANCHOR, edge_path)
    if graph is None:
        graph = read_edge_list(edge_path, strict=strict)
    hosts_path = directory / "graph.hosts"
    if hosts_path.exists():
        graph = graph.with_names(read_host_list(hosts_path))
    labels = None
    labels_path = directory / "graph.labels"
    if labels_path.exists():
        labels = read_labels(labels_path, strict=strict)
    metadata = None
    meta_path = directory / "metadata.json"
    if meta_path.exists():
        try:
            with open(meta_path, encoding="utf-8") as fh:
                metadata = json.load(fh)
        except json.JSONDecodeError as exc:
            if strict:
                raise GraphFormatError(
                    f"{meta_path}: invalid JSON ({exc})"
                ) from exc
            _warn_skips(meta_path, Counter({"invalid-metadata": 1}))
    return graph, labels, metadata


def _read_bundle_anchor(path: Path, edge_path: Path) -> Optional[WebGraph]:
    """The graph of the bundle anchor at ``path`` if it stands for
    ``edge_path`` as the file is now, else ``None``.

    The byte size is compared first, so an edge file of another size
    costs no CRC pass.
    """
    if not path.exists():
        return None

    def _matches(meta: dict) -> bool:
        if meta.get("edges") != edge_path.name:
            return False
        size = meta.get("edges_size")
        if size != edge_path.stat().st_size:
            return False
        return _file_crc(edge_path) == (size, meta.get("edges_crc"))

    try:
        graph, _meta = read_anchor(path, check=_matches)
    except GraphFormatError as exc:
        tele = get_telemetry()
        if tele.enabled:
            tele.event("graph.anchor_skipped", path=str(path), reason=str(exc))
        return None
    return graph
