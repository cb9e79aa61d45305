"""Block-partitioned out-of-core graph backend.

The paper's host graph (73.3M hosts, 979M edges — Section 4.1) does not
fit the in-memory CSR model this library grew up on.  This module
stores a graph as ``K`` contiguous node-range *shards* on disk and
loads them lazily through a bounded LRU, so million-host worlds are
built and read in bounded memory (the solve holds the operator gathered
from the shards in memory, as the in-memory path does):

* shard ``k`` owns the node range ``[boundaries[k], boundaries[k+1])``
  and persists, in one ``.npz`` file, the local out-CSR of its sources
  (``indptr`` / ``indices``, destinations global) **and** the local
  transpose CSR of its destinations (``t_indptr`` / ``t_indices``,
  sources global, sorted ascending within each row) — the transpose
  blocks are exactly the row blocks of the PageRank operator ``Tᵀ``,
  which is what makes the operator gathered from them
  (:mod:`repro.perf.sharded`) *bitwise identical* to the in-memory
  one;
* a JSON manifest records the partition, per-shard edge counts and
  per-shard edge digests.  The digest is the commutative splitmix64 sum
  of :func:`~repro.graph.webgraph.edge_digest`, so the shard digests
  **compose**: their sum (mod 2^64) is the whole-graph digest, and the
  manifest fingerprint is the same
  :func:`~repro.graph.webgraph.compose_fingerprint` string the
  in-memory graph computes — one string proves the store and the
  in-memory CSR carry the same edge set;
* shard files are written uncompressed (``np.savez``), so loading
  memory-maps the arrays straight out of the zip members instead of
  copying them through the heap; a bounded LRU
  (:class:`ShardedWebGraph` ``cache_shards=``) bounds how many shards
  are resident at once;
* :func:`sharded_from_edges` builds a store *out of core* from a
  stream of edge chunks via a three-pass external bucket sort (bucket
  by source shard → per-shard dedup/sort + transpose bucketing → per
  destination shard sort), never holding more than one shard's edges
  in memory plus one ``O(n)`` degree vector.

Failure semantics: every loader error is a typed
:class:`~repro.errors.GraphIOError` subclass —
:class:`~repro.errors.ShardMissingError`,
:class:`~repro.errors.ShardTruncatedError`,
:class:`~repro.errors.ShardDigestMismatchError`,
:class:`~repro.errors.ManifestVersionError` — raised *before* any graph
object is handed out.  A sharded store never yields a partial graph.

See ``docs/scale.md`` for the file layout, manifest schema and the
``repro-spam shard verify`` runbook.
"""

from __future__ import annotations

import json
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import (
    EmptyGraphError,
    GraphIOError,
    ManifestVersionError,
    ShardDigestMismatchError,
    ShardIntegrityError,
    ShardMissingError,
    ShardTruncatedError,
)
from .backend import GraphBackend
from .io import _write_atomic
from .webgraph import (
    WebGraph,
    compose_fingerprint,
    edge_digest,
    sorted_unique,
)

__all__ = [
    "ShardedWebGraph",
    "ShardMeta",
    "sharded_from_edges",
    "partition_graph",
    "iter_edge_chunks",
    "default_boundaries",
    "verify_store",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro-shard-store"
MANIFEST_VERSION = 1

#: Default bound of the resident-shard LRU.  Eight shards of a 1M-host
#: world at ~5 edges/host are ~50 MB resident — small enough for a
#: laptop, large enough that a full block-Jacobi sweep over an 8-way
#: store never evicts mid-iteration.
DEFAULT_CACHE_SHARDS = 8

_MASK64 = 0xFFFFFFFFFFFFFFFF
_ARRAY_NAMES = ("indptr", "indices", "t_indptr", "t_indices")

PathLike = Union[str, Path]


def _shard_filename(k: int) -> str:
    return f"shard_{k:05d}.npz"


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------


class ShardMeta:
    """Manifest record of one shard.

    ``digest`` is the commutative edge digest of the shard's *out*
    edges (sources in ``[start, stop)``); the per-shard digests sum
    (mod 2^64) to the whole-graph digest.
    """

    __slots__ = ("file", "start", "stop", "num_edges", "num_in_edges", "digest")

    def __init__(
        self,
        file: str,
        start: int,
        stop: int,
        num_edges: int,
        num_in_edges: int,
        digest: int,
    ) -> None:
        self.file = file
        self.start = start
        self.stop = stop
        self.num_edges = num_edges
        self.num_in_edges = num_in_edges
        self.digest = digest & _MASK64

    @property
    def width(self) -> int:
        return self.stop - self.start

    def as_dict(self) -> dict:
        return {
            "file": self.file,
            "start": self.start,
            "stop": self.stop,
            "edges": self.num_edges,
            "in_edges": self.num_in_edges,
            "digest": f"{self.digest:016x}",
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ShardMeta":
        return cls(
            str(record["file"]),
            int(record["start"]),
            int(record["stop"]),
            int(record["edges"]),
            int(record["in_edges"]),
            int(str(record["digest"]), 16),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardMeta([{self.start}, {self.stop}), edges={self.num_edges})"
        )


def _write_manifest(
    directory: Path,
    num_nodes: int,
    num_edges: int,
    boundaries: np.ndarray,
    metas: Sequence[ShardMeta],
) -> str:
    digest = sum(meta.digest for meta in metas) & _MASK64
    fingerprint = compose_fingerprint(num_nodes, num_edges, digest)
    payload = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "num_nodes": num_nodes,
        "num_edges": num_edges,
        "num_shards": len(metas),
        "boundaries": [int(b) for b in boundaries],
        "digest": f"{digest:016x}",
        "fingerprint": fingerprint,
        "shards": [meta.as_dict() for meta in metas],
    }
    _write_atomic(
        directory / MANIFEST_NAME,
        lambda fh: fh.write(json.dumps(payload, indent=1) + "\n"),
    )
    return fingerprint


def _read_manifest(directory: Path) -> dict:
    """Read and structurally validate a manifest; typed errors only."""
    path = directory / MANIFEST_NAME
    if not path.exists():
        raise ShardMissingError(
            f"{directory}: no {MANIFEST_NAME} — not a shard store"
        )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ShardIntegrityError(
            f"{path}: manifest is not valid JSON ({exc})"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise ShardIntegrityError(
            f"{path}: not a {MANIFEST_FORMAT} manifest"
        )
    version = payload.get("version")
    if version != MANIFEST_VERSION:
        raise ManifestVersionError(
            f"{path}: manifest version {version!r} is not supported "
            f"(this build reads version {MANIFEST_VERSION}); the store "
            "was written by an incompatible release",
            found=version,
            supported=MANIFEST_VERSION,
        )
    try:
        num_nodes = int(payload["num_nodes"])
        num_edges = int(payload["num_edges"])
        boundaries = np.asarray(payload["boundaries"], dtype=np.int64)
        metas = [ShardMeta.from_dict(rec) for rec in payload["shards"]]
        digest = int(str(payload["digest"]), 16)
        fingerprint = str(payload["fingerprint"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ShardIntegrityError(
            f"{path}: malformed manifest field ({exc})"
        ) from exc
    if num_nodes <= 0:
        raise EmptyGraphError(
            f"{path}: manifest declares {num_nodes} nodes"
        )
    if (
        len(boundaries) != len(metas) + 1
        or boundaries[0] != 0
        or boundaries[-1] != num_nodes
        or np.any(np.diff(boundaries) < 0)
    ):
        raise ShardIntegrityError(
            f"{path}: shard boundaries do not partition [0, {num_nodes})"
        )
    for k, meta in enumerate(metas):
        if (meta.start, meta.stop) != (
            int(boundaries[k]),
            int(boundaries[k + 1]),
        ):
            raise ShardIntegrityError(
                f"{path}: shard {k} range disagrees with boundaries"
            )
    if sum(meta.num_edges for meta in metas) != num_edges:
        raise ShardIntegrityError(
            f"{path}: per-shard edge counts do not sum to {num_edges}"
        )
    composed = sum(meta.digest for meta in metas) & _MASK64
    if composed != digest or compose_fingerprint(
        num_nodes, num_edges, composed
    ) != fingerprint:
        raise ShardDigestMismatchError(
            f"{path}: shard digests do not compose to the manifest "
            "fingerprint — the manifest is internally inconsistent",
            expected=fingerprint,
            actual=compose_fingerprint(num_nodes, num_edges, composed),
        )
    return {
        "num_nodes": num_nodes,
        "num_edges": num_edges,
        "boundaries": boundaries,
        "metas": metas,
        "digest": digest,
        "fingerprint": fingerprint,
    }


# ----------------------------------------------------------------------
# shard files: memory-mapped npz loading
# ----------------------------------------------------------------------


class _LoadedShard:
    """The four CSR arrays of one resident shard (possibly memmaps)."""

    __slots__ = ("indptr", "indices", "t_indptr", "t_indices")

    def __init__(self, indptr, indices, t_indptr, t_indices) -> None:
        self.indptr = indptr
        self.indices = indices
        self.t_indptr = t_indptr
        self.t_indices = t_indices

    def nbytes(self) -> int:
        return sum(
            getattr(self, name).nbytes for name in _ARRAY_NAMES
        )


def _read_npy_header(fh) -> Tuple[tuple, np.dtype]:
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
    else:  # pragma: no cover - future numpy format
        raise ValueError(f"unsupported npy format version {version}")
    if fortran:  # pragma: no cover - 1-D arrays are never Fortran-ordered
        raise ValueError("Fortran-ordered shard array")
    return shape, dtype


def _mmap_npz_member(path: Path, info: zipfile.ZipInfo) -> np.ndarray:
    """Memory-map one *stored* (uncompressed) member of an npz archive.

    ``np.load(..., mmap_mode=...)`` cannot map inside a zip, so this
    resolves the member's data offset from its local file header and
    maps the raw bytes directly.  Only valid for ``ZIP_STORED`` members
    (which is how :func:`np.savez` writes them).
    """
    with open(path, "rb") as raw:
        raw.seek(info.header_offset)
        local = raw.read(30)
        if len(local) < 30 or local[:4] != b"PK\x03\x04":
            raise ShardTruncatedError(
                f"{path}: local header of {info.filename!r} is truncated"
            )
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        raw.seek(info.header_offset + 30 + name_len + extra_len)
        shape, dtype = _read_npy_header(raw)
        offset = raw.tell()
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if count == 0:
        return np.empty(shape, dtype=dtype)
    try:
        array = np.memmap(path, dtype=dtype, mode="r", offset=offset,
                          shape=shape)
    except ValueError as exc:  # mapping extends past end-of-file
        raise ShardTruncatedError(
            f"{path}: {info.filename!r} data is truncated ({exc})"
        ) from exc
    return array


def _load_shard_file(path: Path) -> _LoadedShard:
    """Load (memory-mapping where possible) the four arrays of a shard.

    Raises :class:`ShardMissingError` when the file is absent,
    :class:`ShardTruncatedError` when the archive or a member ends
    mid-stream, and :class:`ShardIntegrityError` for structural rot
    (missing arrays, wrong dtypes).
    """
    if not path.exists():
        raise ShardMissingError(f"{path}: shard file is missing")
    try:
        with zipfile.ZipFile(path) as zf:
            arrays: Dict[str, np.ndarray] = {}
            for name in _ARRAY_NAMES:
                member = name + ".npy"
                try:
                    info = zf.getinfo(member)
                except KeyError as exc:
                    raise ShardIntegrityError(
                        f"{path}: archive has no {member!r} array"
                    ) from exc
                if info.compress_type == zipfile.ZIP_STORED:
                    arrays[name] = _mmap_npz_member(path, info)
                else:  # tolerate compressed stores (full read)
                    with zf.open(info) as fh:
                        arrays[name] = np.lib.format.read_array(
                            fh, allow_pickle=False
                        )
    except (zipfile.BadZipFile, EOFError, OSError) as exc:
        if isinstance(exc, GraphIOError):  # our own typed raises
            raise
        raise ShardTruncatedError(
            f"{path}: truncated or corrupt shard archive ({exc})"
        ) from exc
    except ValueError as exc:
        raise ShardIntegrityError(
            f"{path}: malformed shard array ({exc})"
        ) from exc
    for name, array in arrays.items():
        if array.ndim != 1 or array.dtype != np.int64:
            raise ShardIntegrityError(
                f"{path}: array {name!r} must be 1-D int64, "
                f"got {array.ndim}-D {array.dtype}"
            )
    return _LoadedShard(**arrays)


def _check_shard(
    path: Path,
    shard: _LoadedShard,
    meta: ShardMeta,
    num_nodes: int,
    *,
    verify_digest: bool,
) -> None:
    """Structural + digest validation of a freshly loaded shard."""
    width = meta.width
    for label, indptr, indices in (
        ("out", shard.indptr, shard.indices),
        ("transpose", shard.t_indptr, shard.t_indices),
    ):
        if len(indptr) != width + 1 or (width >= 0 and (
            len(indptr) == 0 or indptr[0] != 0
        )):
            raise ShardIntegrityError(
                f"{path}: {label} indptr does not cover node range "
                f"[{meta.start}, {meta.stop})"
            )
        if indptr[-1] != len(indices) or np.any(np.diff(indptr) < 0):
            raise ShardIntegrityError(
                f"{path}: {label} indptr is inconsistent with its indices"
            )
        if len(indices) and (
            int(indices.min()) < 0 or int(indices.max()) >= num_nodes
        ):
            raise ShardIntegrityError(
                f"{path}: {label} endpoint out of range for n={num_nodes}"
            )
    if len(shard.indices) != meta.num_edges:
        raise ShardIntegrityError(
            f"{path}: shard holds {len(shard.indices)} edges, manifest "
            f"says {meta.num_edges}"
        )
    if len(shard.t_indices) != meta.num_in_edges:
        raise ShardIntegrityError(
            f"{path}: shard holds {len(shard.t_indices)} in-edges, "
            f"manifest says {meta.num_in_edges}"
        )
    if verify_digest:
        sources = meta.start + np.repeat(
            np.arange(width, dtype=np.int64), np.diff(shard.indptr)
        )
        actual = edge_digest(num_nodes, sources, np.asarray(shard.indices))
        if actual != meta.digest:
            raise ShardDigestMismatchError(
                f"{path}: shard digest {actual:016x} does not match the "
                f"manifest ({meta.digest:016x}) — the file was modified "
                "or corrupted after the manifest was written",
                expected=f"{meta.digest:016x}",
                actual=f"{actual:016x}",
            )


class _ShardLRU:
    """Bounded LRU of a store's resident shards."""

    __slots__ = ("maxsize", "_entries", "loads", "hits", "evictions")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("cache_shards must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[int, _LoadedShard]" = OrderedDict()
        self.loads = 0
        self.hits = 0
        self.evictions = 0

    def get(self, key: int, loader) -> _LoadedShard:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        entry = loader()
        self.loads += 1
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# the sharded graph
# ----------------------------------------------------------------------


class ShardedWebGraph(GraphBackend):
    """A graph backed by per-shard CSR files with lazy, bounded loading.

    Construct through :meth:`open` (an existing store),
    :func:`sharded_from_edges` (out-of-core build) or
    :func:`partition_graph` (shard an in-memory graph).  Instances are
    immutable like :class:`~repro.graph.webgraph.WebGraph`.  Edge
    deltas apply to the in-memory CSR only: splice
    :meth:`to_webgraph`'s graph with
    :meth:`~repro.graph.delta.GraphDelta.apply`.
    """

    backend_name = "sharded"

    __slots__ = (
        "_directory",
        "_num_nodes",
        "_num_edges",
        "_boundaries",
        "_metas",
        "_fingerprint",
        "_lru",
        "_verify",
        "_out_degree",
        "_in_degree",
    )

    def __init__(
        self,
        directory: Path,
        num_nodes: int,
        num_edges: int,
        boundaries: np.ndarray,
        metas: Sequence[ShardMeta],
        fingerprint: str,
        lru: _ShardLRU,
        *,
        verify: bool = True,
    ) -> None:
        self._directory = Path(directory)
        self._num_nodes = num_nodes
        self._num_edges = num_edges
        self._boundaries = np.asarray(boundaries, dtype=np.int64)
        self._metas = list(metas)
        self._fingerprint = fingerprint
        self._lru = lru
        self._verify = verify
        self._out_degree: Optional[np.ndarray] = None
        self._in_degree: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: PathLike,
        *,
        cache_shards: int = DEFAULT_CACHE_SHARDS,
        verify: bool = True,
    ) -> "ShardedWebGraph":
        """Open an existing store, validating the manifest eagerly.

        Every shard file named by the manifest must exist (missing
        files raise :class:`~repro.errors.ShardMissingError` here, not
        at first touch); shard *contents* are verified lazily on first
        load, digests included unless ``verify=False``.
        """
        directory = Path(directory)
        manifest = _read_manifest(directory)
        for meta in manifest["metas"]:
            if not (directory / meta.file).exists():
                raise ShardMissingError(
                    f"{directory / meta.file}: shard file named by the "
                    "manifest is missing"
                )
        return cls(
            directory,
            manifest["num_nodes"],
            manifest["num_edges"],
            manifest["boundaries"],
            manifest["metas"],
            manifest["fingerprint"],
            _ShardLRU(cache_shards),
            verify=verify,
        )

    # ------------------------------------------------------------------
    # backend surface
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def directory(self) -> Path:
        """The on-disk store this graph reads its base shards from."""
        return self._directory

    @property
    def num_shards(self) -> int:
        return len(self._metas)

    @property
    def boundaries(self) -> np.ndarray:
        """Shard boundaries (length ``num_shards + 1``, read-only)."""
        return self._boundaries

    @property
    def names(self) -> None:
        """Sharded stores carry structure only; no host names."""
        return None

    def name_of(self, node: int) -> str:
        return f"node{node}"

    def shard_meta(self, k: int) -> ShardMeta:
        """Manifest record of shard ``k``."""
        return self._metas[k]

    def shard_range(self, k: int) -> Tuple[int, int]:
        """Global node range ``[start, stop)`` owned by shard ``k``."""
        return int(self._boundaries[k]), int(self._boundaries[k + 1])

    def shard(self, k: int) -> _LoadedShard:
        """The four CSR arrays of shard ``k`` (loaded through the LRU)."""
        return self._lru.get(k, lambda: self._load_shard(k))

    def _load_shard(self, k: int) -> _LoadedShard:
        meta = self._metas[k]
        path = self._directory / meta.file
        shard = _load_shard_file(path)
        _check_shard(
            path, shard, meta, self._num_nodes, verify_digest=self._verify
        )
        return shard

    def out_degree(self, node: Optional[int] = None):
        """Out-degree of ``node``, or the full vector (built on first
        use, with the in-degrees, by streaming every shard once through
        the LRU)."""
        degrees = self._degrees()[0]
        return degrees if node is None else int(degrees[node])

    def in_degree(self, node: Optional[int] = None):
        """In-degree of ``node``, or the full vector (built in the same
        pass as :meth:`out_degree`'s)."""
        degrees = self._degrees()[1]
        return degrees if node is None else int(degrees[node])

    def _degrees(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._out_degree is None:
            out_deg = np.empty(self._num_nodes, dtype=np.int64)
            in_deg = np.empty(self._num_nodes, dtype=np.int64)
            for k in range(self.num_shards):
                a, b = self.shard_range(k)
                if b > a:
                    shard = self.shard(k)
                    out_deg[a:b] = np.diff(shard.indptr)
                    in_deg[a:b] = np.diff(shard.t_indptr)
            out_deg.setflags(write=False)
            in_deg.setflags(write=False)
            self._out_degree, self._in_degree = out_deg, in_deg
        return self._out_degree, self._in_degree

    def dangling_mask(self) -> np.ndarray:
        return self.out_degree() == 0

    def structural_fingerprint(self) -> str:
        return self._fingerprint

    def cache_info(self) -> Dict[str, int]:
        """Counters of the resident-shard LRU."""
        return {
            "loads": self._lru.loads,
            "hits": self._lru.hits,
            "evictions": self._lru.evictions,
            "resident": len(self._lru),
            "maxsize": self._lru.maxsize,
        }

    # ------------------------------------------------------------------
    # materialization (tests, small graphs)
    # ------------------------------------------------------------------

    def to_webgraph(self) -> WebGraph:
        """Assemble the full in-memory CSR (for verification; do not
        call on stores that motivated sharding in the first place).

        The fingerprint is *not* stamped — the returned graph recomputes
        it from scratch, which is what makes the round-trip equality
        ``assembled.structural_fingerprint() == store fingerprint`` a
        real check instead of a tautology.
        """
        n = self._num_nodes
        indptr = np.zeros(n + 1, dtype=np.int64)
        chunks: List[np.ndarray] = []
        for k in range(self.num_shards):
            a, b = self.shard_range(k)
            if b <= a:
                continue
            shard = self.shard(k)
            indptr[a + 1 : b + 1] = indptr[a] + shard.indptr[1:]
            chunks.append(np.asarray(shard.indices))
        indices = (
            np.concatenate(chunks) if chunks
            else np.empty(0, dtype=np.int64)
        )
        return WebGraph(indptr, indices, validate=False)

    def iter_shard_edges(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Global ``(sources, destinations)`` of shard ``k``'s out-edges."""
        a, b = self.shard_range(k)
        shard = self.shard(k)
        sources = a + np.repeat(
            np.arange(b - a, dtype=np.int64), np.diff(shard.indptr)
        )
        return sources, np.asarray(shard.indices)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedWebGraph(nodes={self._num_nodes}, "
            f"edges={self._num_edges}, shards={self.num_shards}, "
            f"dir={str(self._directory)!r})"
        )


# ----------------------------------------------------------------------
# construction: out-of-core external bucket sort
# ----------------------------------------------------------------------


def default_boundaries(num_nodes: int, num_shards: int) -> np.ndarray:
    """Evenly split ``[0, num_nodes)`` into ``num_shards`` ranges."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return np.array(
        [(i * num_nodes) // num_shards for i in range(num_shards + 1)],
        dtype=np.int64,
    )


def _normalize_boundaries(
    num_nodes: int,
    num_shards: Optional[int],
    boundaries: Optional[Sequence[int]],
) -> np.ndarray:
    if boundaries is not None:
        if num_shards is not None and num_shards != len(boundaries) - 1:
            raise ValueError(
                f"num_shards={num_shards} disagrees with "
                f"{len(boundaries) - 1} boundary ranges"
            )
        array = np.asarray(boundaries, dtype=np.int64)
        if (
            len(array) < 2
            or array[0] != 0
            or array[-1] != num_nodes
            or np.any(np.diff(array) < 0)
        ):
            raise ValueError(
                "boundaries must be a non-decreasing partition "
                f"[0, ..., {num_nodes}]"
            )
        return array
    return default_boundaries(num_nodes, num_shards or 1)


def iter_edge_chunks(
    graph: WebGraph, chunk_edges: int = 1 << 20
) -> Iterator[np.ndarray]:
    """Stream a graph's edges as ``(m, 2)`` arrays of bounded size."""
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    indptr = graph.indptr
    indices = graph.indices
    total = graph.num_edges
    for start in range(0, total, chunk_edges):
        stop = min(start + chunk_edges, total)
        positions = np.arange(start, stop, dtype=np.int64)
        sources = np.searchsorted(indptr, positions, side="right") - 1
        yield np.column_stack((sources, indices[start:stop]))


def sharded_from_edges(
    num_nodes: int,
    edge_chunks: Iterable[np.ndarray],
    directory: PathLike,
    *,
    num_shards: Optional[int] = None,
    boundaries: Optional[Sequence[int]] = None,
    cache_shards: int = DEFAULT_CACHE_SHARDS,
) -> ShardedWebGraph:
    """Build a shard store out of core from a stream of edge chunks.

    ``edge_chunks`` yields ``(m, 2)`` integer arrays of ``(source,
    destination)`` pairs, in any order, duplicates and self-links
    allowed (collapsed/dropped exactly like
    :meth:`WebGraph.from_edges`).  Peak memory is one shard's edges
    plus one ``O(n)`` degree vector — the dense edge list is never
    materialized.

    Three passes:

    1. append each edge, as raw int64 pairs, to the bucket file of its
       *source* shard;
    2. per source shard: dedup + sort by ``(src, dst)`` with one sort
       of the composite keys, emit the local out-CSR and the shard
       digest, and re-bucket the surviving edges by *destination*
       shard;
    3. per destination shard: sort the (already distinct) ``(dst,
       src)`` keys into the local transpose CSR and write the final
       ``.npz``; the manifest goes last (atomically), so a crashed
       build never looks like a store.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be non-negative")
    if num_nodes == 0:
        raise EmptyGraphError(
            "cannot build a graph with zero nodes: the uniform jump "
            "vector 1/n is undefined for n=0"
        )
    bounds = _normalize_boundaries(num_nodes, num_shards, boundaries)
    num_shards = len(bounds) - 1
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tmp_dir = directory / "tmp-build"
    tmp_dir.mkdir(exist_ok=True)
    n = num_nodes

    def _bucket_path(prefix: str, k: int) -> Path:
        return tmp_dir / f"{prefix}_{k:05d}.bin"

    def _append(prefix: str, k: int, pairs: np.ndarray) -> None:
        with open(_bucket_path(prefix, k), "ab") as fh:
            fh.write(np.ascontiguousarray(pairs, dtype=np.int64).tobytes())

    def _read_bucket(prefix: str, k: int) -> np.ndarray:
        path = _bucket_path(prefix, k)
        if not path.exists():
            return np.empty((0, 2), dtype=np.int64)
        flat = np.fromfile(path, dtype=np.int64)
        return flat.reshape(-1, 2)

    try:
        # --- pass 1: bucket by source shard -------------------------
        for chunk in edge_chunks:
            arr = np.asarray(chunk, dtype=np.int64)
            if arr.size == 0:
                continue
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(
                    "edge chunks must be (source, destination) pairs"
                )
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError(f"edge endpoint out of range for n={n}")
            arr = arr[arr[:, 0] != arr[:, 1]]
            if not len(arr):
                continue
            shard_of = np.searchsorted(bounds, arr[:, 0], side="right") - 1
            for k in sorted_unique(shard_of):
                _append("src", int(k), arr[shard_of == k])

        # --- pass 2: per source shard, dedup + out-CSR + re-bucket --
        out_degree = np.zeros(n, dtype=np.int64)
        digests: List[int] = []
        edge_counts: List[int] = []
        for k in range(num_shards):
            a, b = int(bounds[k]), int(bounds[k + 1])
            pairs = _read_bucket("src", k)
            keys = sorted_unique(pairs[:, 0] * n + pairs[:, 1])
            srcs = keys // n
            dsts = keys % n
            indptr = np.zeros(b - a + 1, dtype=np.int64)
            if b > a:
                indptr[1:] = np.cumsum(
                    np.bincount(srcs - a, minlength=b - a)
                )
                out_degree[a:b] = np.diff(indptr)
            digests.append(edge_digest(n, srcs, dsts))
            edge_counts.append(len(dsts))
            np.savez(_bucket_path("out", k).with_suffix(".npz"),
                     indptr=indptr, indices=dsts)
            if len(srcs):
                dst_shard = np.searchsorted(bounds, dsts, side="right") - 1
                for j in sorted_unique(dst_shard):
                    sel = dst_shard == j
                    _append(
                        "dst", int(j), np.column_stack((srcs[sel], dsts[sel]))
                    )
            _bucket_path("src", k).unlink(missing_ok=True)

        # --- pass 3: per destination shard, transpose CSR + final npz
        metas: List[ShardMeta] = []
        for k in range(num_shards):
            a, b = int(bounds[k]), int(bounds[k + 1])
            pairs = _read_bucket("dst", k)
            # (dst, src) keys give destination-major, source-minor
            # order — the within-row ascending-source order the
            # in-memory transpose produces.  Equal keys are equal
            # pairs, so splitting the sorted keys gives exactly the
            # pairs a stable argsort would gather
            tkeys = np.sort(pairs[:, 1] * n + pairs[:, 0])
            t_srcs = tkeys % n
            t_dsts = tkeys // n
            t_indptr = np.zeros(b - a + 1, dtype=np.int64)
            if b > a:
                t_indptr[1:] = np.cumsum(
                    np.bincount(t_dsts - a, minlength=b - a)
                )
            with np.load(
                _bucket_path("out", k).with_suffix(".npz")
            ) as stored:
                out_indptr = stored["indptr"]
                out_indices = stored["indices"]
            arrays = {
                "indptr": out_indptr,
                "indices": out_indices,
                "t_indptr": t_indptr,
                "t_indices": t_srcs,
            }
            _write_atomic(
                directory / _shard_filename(k),
                lambda fh, arrays=arrays: np.savez(fh, **arrays),
                binary=True,
            )
            metas.append(
                ShardMeta(
                    _shard_filename(k), a, b,
                    edge_counts[k], len(t_srcs), digests[k],
                )
            )
            _bucket_path("dst", k).unlink(missing_ok=True)
            _bucket_path("out", k).with_suffix(".npz").unlink(missing_ok=True)

        total_edges = int(sum(edge_counts))
        _write_manifest(directory, n, total_edges, bounds, metas)
    finally:
        for leftover in tmp_dir.glob("*"):
            leftover.unlink(missing_ok=True)
        try:
            tmp_dir.rmdir()
        except OSError:  # pragma: no cover - leftover foreign files
            pass

    return ShardedWebGraph.open(directory, cache_shards=cache_shards)


def partition_graph(
    graph: WebGraph,
    directory: PathLike,
    *,
    num_shards: Optional[int] = None,
    boundaries: Optional[Sequence[int]] = None,
    chunk_edges: int = 1 << 20,
    cache_shards: int = DEFAULT_CACHE_SHARDS,
) -> ShardedWebGraph:
    """Shard an in-memory graph into ``directory``.

    Streams the CSR through :func:`sharded_from_edges`, so the write
    path is the same code the out-of-core builder uses; the resulting
    store's fingerprint equals ``graph.structural_fingerprint()``.
    """
    return sharded_from_edges(
        graph.num_nodes,
        iter_edge_chunks(graph, chunk_edges),
        directory,
        num_shards=num_shards,
        boundaries=boundaries,
        cache_shards=cache_shards,
    )


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------


def verify_store(directory: PathLike, *, deep: bool = False) -> dict:
    """Check a shard store end to end; collect problems, do not raise.

    Shallow mode re-reads every shard, re-checks its structure and
    digest, and re-composes the manifest fingerprint.  ``deep=True``
    additionally cross-checks the transpose arrays against the out
    arrays: the transpose edge multiset must re-compose to the same
    digest, and per-node in-degrees implied by the out-CSRs must equal
    the transpose row widths.

    Returns a report dict: ``{"ok": bool, "problems": [str, ...],
    "fingerprint": str | None, "shards": [per-shard dicts]}``.
    """
    directory = Path(directory)
    report: dict = {
        "directory": str(directory),
        "ok": True,
        "problems": [],
        "fingerprint": None,
        "num_nodes": None,
        "num_edges": None,
        "shards": [],
        "deep": deep,
    }
    try:
        manifest = _read_manifest(directory)
    except Exception as exc:  # typed GraphIOError family
        report["ok"] = False
        report["problems"].append(str(exc))
        return report
    n = manifest["num_nodes"]
    report["num_nodes"] = n
    report["num_edges"] = manifest["num_edges"]
    report["fingerprint"] = manifest["fingerprint"]
    total_digest = 0
    total_edges = 0
    t_digest = 0
    in_counts = np.zeros(n, dtype=np.int64) if deep else None
    loaded: List[Optional[_LoadedShard]] = []
    for k, meta in enumerate(manifest["metas"]):
        path = directory / meta.file
        entry = {
            "shard": k,
            "file": meta.file,
            "range": [meta.start, meta.stop],
            "edges": meta.num_edges,
            "ok": True,
            "error": None,
        }
        try:
            shard = _load_shard_file(path)
            _check_shard(path, shard, meta, n, verify_digest=True)
        except Exception as exc:  # typed GraphIOError family
            entry["ok"] = False
            entry["error"] = str(exc)
            report["ok"] = False
            report["problems"].append(f"shard {k}: {exc}")
            loaded.append(None)
            report["shards"].append(entry)
            continue
        total_digest = (total_digest + meta.digest) & _MASK64
        total_edges += meta.num_edges
        if deep:
            in_counts += np.bincount(
                np.asarray(shard.indices), minlength=n
            )
            t_dsts = meta.start + np.repeat(
                np.arange(meta.width, dtype=np.int64),
                np.diff(shard.t_indptr),
            )
            t_digest = (
                t_digest
                + edge_digest(n, np.asarray(shard.t_indices), t_dsts)
            ) & _MASK64
        loaded.append(shard)
        report["shards"].append(entry)
    if report["ok"]:
        composed = compose_fingerprint(n, total_edges, total_digest)
        if composed != manifest["fingerprint"]:
            report["ok"] = False
            report["problems"].append(
                f"recomposed fingerprint {composed} != manifest "
                f"{manifest['fingerprint']}"
            )
    if deep and report["ok"]:
        if t_digest != total_digest:
            report["ok"] = False
            report["problems"].append(
                "transpose edge multiset does not match the out-edge "
                f"multiset (digest {t_digest:016x} != {total_digest:016x})"
            )
        for k, (meta, shard) in enumerate(zip(manifest["metas"], loaded)):
            if shard is None or meta.width == 0:
                continue
            widths = np.diff(shard.t_indptr)
            expected = in_counts[meta.start : meta.stop]
            if not np.array_equal(widths, expected):
                report["ok"] = False
                report["problems"].append(
                    f"shard {k}: transpose row widths disagree with "
                    "in-degrees implied by the out-CSRs"
                )
    return report
