"""The partitioned engine behind the one service shell.

:class:`ClusterService` *is* an :class:`~repro.service.base.EmbeddingService`
— registry, monitors, WAL and the ``submit`` / ``repair`` lifecycle are
inherited — and supplies only what the partitioned tier does differently:
every registered network gets a
:class:`~repro.cluster.coordinator.ClusterCoordinator`, a request is answered
by its two-level search, and a broken reservation is re-placed by
:func:`~repro.cluster.repair.repair_placement`.  ``repro serve --partitions
N`` fronts exactly this object, so the async server, admission control
(``spec.cache`` quotas included) and fault plans compose with it unchanged.

Monitors keep mutating the registered *primary* networks as before; the
service refreshes the affected coordinator (journal-delta replication) at
the top of every answer, which is the moment replicas, summaries and the
quotient graph catch up.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.api.registry import AlgorithmRegistry
from repro.api.request import SearchRequest
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.partition import PartitionMap
from repro.cluster.repair import ClusterRepairResult, repair_placement
from repro.core.result import EmbeddingResult
from repro.graphs.hosting import HostingNetwork
from repro.service.base import EmbeddingService
from repro.service.spec import QuerySpec
from repro.utils.rng import RandomSource


class ClusterService(EmbeddingService):
    """An in-process NETEMBED service over partitioned hosting networks.

    *default_timeout*, *rng*, *algorithms*, *plan_cache_size* (the one cache
    every partition worker of every coordinator shares) and *max_workers*
    are the shell's — see :class:`~repro.service.base.EmbeddingService`.

    Parameters
    ----------
    num_partitions:
        Default balanced-partition count for networks registered without an
        explicit map or attribute.
    attribute:
        Default attribute-domain partitioning for registered networks
        (overrides *num_partitions* when set).
    auto_refresh:
        Replicate pending journal deltas to the target coordinator at the
        top of every submit (default).  ``False`` hands refresh timing to
        the caller (benchmarks measure the two costs separately).
    """

    def __init__(self, default_timeout: float = 30.0, rng: RandomSource = None,
                 num_partitions: int = 8, attribute: Optional[str] = None,
                 algorithms: Optional[AlgorithmRegistry] = None,
                 plan_cache_size: int = 128,
                 max_workers: Optional[int] = None,
                 auto_refresh: bool = True) -> None:
        super().__init__(default_timeout, rng, algorithms, plan_cache_size,
                         max_workers)
        self._num_partitions = num_partitions
        self._attribute = attribute
        self._auto_refresh = auto_refresh
        self._coordinators: Dict[str, ClusterCoordinator] = {}

    def register_network(self, network: HostingNetwork,
                         name: Optional[str] = None, description: str = "",
                         default: bool = False,
                         partition_map: Optional[Union[PartitionMap, Dict]] = None,
                         num_partitions: Optional[int] = None,
                         attribute: Optional[str] = None) -> str:
        """Register a hosting network and build its partition coordinator."""
        stored = super().register_network(network, name=name,
                                          description=description,
                                          default=default)
        attr = attribute if attribute is not None else (
            self._attribute if partition_map is None and num_partitions is None
            else None)
        self._coordinators[stored] = ClusterCoordinator(
            network, partition_map=partition_map, attribute=attr,
            num_partitions=(num_partitions if num_partitions is not None
                            else self._num_partitions),
            plans=self.plans)
        return stored

    def coordinator(self, network_name: Optional[str] = None
                    ) -> ClusterCoordinator:
        """The partition coordinator serving a registered network."""
        key = network_name or self.registry.default_name
        if key is None or key not in self._coordinators:
            raise ValueError(
                f"no coordinator for network {network_name!r}; registered: "
                f"{sorted(self._coordinators)}")
        return self._coordinators[key]

    def _refreshed_coordinator(self, network_name: str) -> ClusterCoordinator:
        """*network_name*'s coordinator, caught up with the primary."""
        coordinator = self._coordinators[network_name]
        if self._auto_refresh:
            coordinator.refresh()
        return coordinator

    def _answer(self, spec: QuerySpec, request: SearchRequest,
                network_name: str, version: int
                ) -> Tuple[EmbeddingResult, str]:
        """One two-level search over the constraints *request* coerced."""
        coordinator = self._refreshed_coordinator(network_name)
        # "auto" is the coordinator's own default engine; a name resolves
        # through this service's registry, never the process-wide one.
        algorithm = (coordinator.algorithm if spec.algorithm.lower() == "auto"
                     else self.algorithms.get(spec.algorithm).create())
        cluster = coordinator.embed(
            spec.query, constraint=request.constraint,
            node_constraint=request.node_constraint,
            timeout=request.budget.timeout,
            max_results=request.budget.max_results,
            algorithm=algorithm, seed=spec.seed, cache=spec.cache)
        algorithm_used = f"cluster+{algorithm.name}"
        return (cluster.to_embedding_result(algorithm=algorithm_used),
                algorithm_used)

    def _search_repair(self, reservation, network: HostingNetwork,
                       timeout: float, candidate_ok) -> ClusterRepairResult:
        """Re-place query nodes stranded by churn *or* a lost partition into
        a healthy partition, every surviving placement pinned."""
        return repair_placement(
            self._refreshed_coordinator(reservation.network_name),
            reservation.query, reservation.mapping,
            constraint=reservation.constraint,
            node_constraint=reservation.node_constraint,
            timeout=timeout, candidate_ok=candidate_ok)

    def stats(self) -> Dict[str, object]:
        """The service snapshot plus one ``"cluster"`` entry per coordinator."""
        stats = super().stats()
        stats["cluster"] = {name: coordinator.stats()
                            for name, coordinator in self._coordinators.items()}
        return stats
