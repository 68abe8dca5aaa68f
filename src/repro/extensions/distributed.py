"""Partitioning helpers for per-domain embedding (§VIII "decentralized
implementation").

The scale-out tier itself is :mod:`repro.cluster` — sharded replicas, a
contracted quotient graph for coarse placement, journal-delta replication
and cross-partition split-and-stitch search.  What lives here are the two
ways of carving a hosting network into the ``{domain: nodes}`` mapping a
:class:`repro.cluster.ClusterCoordinator` accepts as its ``partition_map``.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.cluster.partition import UNASSIGNED, PartitionMap
from repro.graphs.hosting import HostingNetwork
from repro.graphs.network import NodeId

__all__ = [
    "UNASSIGNED",
    "partition_by_attribute",
    "partition_balanced",
]


def partition_by_attribute(hosting: HostingNetwork, attribute: str = "region"
                           ) -> Dict[Hashable, List[NodeId]]:
    """Group hosting nodes by a categorical node attribute.

    Nodes *lacking* the attribute are grouped under the
    :data:`repro.cluster.UNASSIGNED` sentinel, never under the string
    ``"unassigned"`` — a node whose attribute value really is the string
    ``"unassigned"`` (or ``None``) keeps its own group.  (The old behaviour
    conflated the two, silently merging real values with missing ones.)
    """
    domains: Dict[Hashable, List[NodeId]] = {}
    for node in hosting.nodes():
        attrs = hosting.node_attrs(node)
        key: Hashable = str(attrs[attribute]) if attribute in attrs else UNASSIGNED
        domains.setdefault(key, []).append(node)
    return domains


def partition_balanced(hosting: HostingNetwork, num_domains: int
                       ) -> Dict[str, List[NodeId]]:
    """Split the hosting network into *num_domains* roughly equal connected chunks.

    Delegates to :meth:`repro.cluster.PartitionMap.balanced` (BFS-contiguous
    chunks), naming the chunks ``domain<i>``.
    """
    pmap = PartitionMap.balanced(hosting, num_domains, prefix="domain")
    return {name: list(nodes) for name, nodes in pmap.partitions.items()}
