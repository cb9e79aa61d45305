"""Web-graph substrate: model, construction, I/O and structural ops.

This package implements the web-graph model of Section 2.1 of the paper
(directed, unweighted, no self-links, any granularity — we work at host
level, like the paper's experiments) plus the supporting machinery the
rest of the library builds on.
"""

from ..errors import (
    DeltaError,
    EmptyGraphError,
    GraphFormatError,
    GraphIOError,
    GraphIOWarning,
    ManifestVersionError,
    ShardDigestMismatchError,
    ShardIntegrityError,
    ShardMissingError,
    ShardTruncatedError,
    TruncatedFileError,
)
from .backend import GraphBackend, backend_name_of
from .builder import GraphBuilder
from .delta import (
    DeltaApplication,
    GraphDelta,
    compose_applications,
    compose_deltas,
    read_delta,
    write_delta,
)
from .collapse import CollapseResult, collapse_by_key, collapse_page_graph
from .components import (
    component_sizes,
    largest_component,
    strongly_connected_components,
    weakly_connected_components,
)
from .hosts import HostName, HostRegistry, clean_url, parse_host
from .io import (
    read_edge_list,
    read_anchor,
    read_npz,
    read_graph_bundle,
    read_host_list,
    read_labels,
    read_scores,
    write_edge_list,
    write_graph_bundle,
    write_anchor,
    write_npz,
    write_host_list,
    write_labels,
    write_scores,
)
from .ops import (
    adjacency_matrix,
    degree_histogram,
    merge_graphs,
    reachable_from,
    reaches,
    remove_nodes,
    subgraph,
    from_networkx,
    to_networkx,
    transition_matrix,
)
from .sharded import (
    ShardedWebGraph,
    ShardMeta,
    default_boundaries,
    iter_edge_chunks,
    partition_graph,
    sharded_from_edges,
    verify_store,
)
from .webgraph import GraphStats, WebGraph

__all__ = [
    "WebGraph",
    "GraphStats",
    "GraphBackend",
    "backend_name_of",
    "ShardedWebGraph",
    "ShardMeta",
    "sharded_from_edges",
    "partition_graph",
    "iter_edge_chunks",
    "default_boundaries",
    "verify_store",
    "EmptyGraphError",
    "GraphIOError",
    "ShardMissingError",
    "ShardIntegrityError",
    "ShardTruncatedError",
    "ShardDigestMismatchError",
    "ManifestVersionError",
    "GraphDelta",
    "DeltaApplication",
    "compose_deltas",
    "compose_applications",
    "read_delta",
    "write_delta",
    "DeltaError",
    "GraphFormatError",
    "TruncatedFileError",
    "GraphIOWarning",
    "GraphBuilder",
    "HostName",
    "HostRegistry",
    "parse_host",
    "clean_url",
    "transition_matrix",
    "adjacency_matrix",
    "subgraph",
    "remove_nodes",
    "reachable_from",
    "reaches",
    "degree_histogram",
    "merge_graphs",
    "to_networkx",
    "from_networkx",
    "CollapseResult",
    "collapse_by_key",
    "collapse_page_graph",
    "weakly_connected_components",
    "strongly_connected_components",
    "component_sizes",
    "largest_component",
    "read_edge_list",
    "write_edge_list",
    "read_npz",
    "write_npz",
    "read_anchor",
    "write_anchor",
    "read_host_list",
    "write_host_list",
    "read_labels",
    "write_labels",
    "read_scores",
    "write_scores",
    "read_graph_bundle",
    "write_graph_bundle",
]
