"""Extensions sketched in the paper's §VIII (current and future work).

* :mod:`~repro.extensions.optimizer` — pick the best feasible embedding under
  a cost metric (the optimisation stage NETEMBED deliberately leaves to the
  application);
* :mod:`~repro.extensions.pathmapping` — map query links onto bounded-length
  hosting paths (many-to-one mapping);
* :mod:`~repro.extensions.scheduler` — integrate embedding with time-slotted
  scheduling (the snBench scenario);
* :mod:`~repro.extensions.distributed` — carve a hosting network into the
  per-domain partitions :mod:`repro.cluster` embeds over (the decentralised
  deployment sketch).
"""

from repro.extensions.distributed import (
    partition_balanced,
    partition_by_attribute,
)
from repro.extensions.optimizer import (
    RankedMapping,
    attribute_sum_cost,
    best_mapping,
    load_balance_cost,
    rank_mappings,
    stress_cost,
    total_delay_cost,
)
from repro.extensions.pathmapping import (
    PathEmbedder,
    PathEmbeddingResult,
    PathMapping,
    build_closure_network,
)
from repro.extensions.scheduler import (
    EmbeddingCalendar,
    EmbeddingScheduler,
    ScheduleResult,
    ScheduledEmbedding,
)

__all__ = [
    "RankedMapping",
    "rank_mappings",
    "best_mapping",
    "total_delay_cost",
    "load_balance_cost",
    "attribute_sum_cost",
    "stress_cost",
    "PathEmbedder",
    "PathEmbeddingResult",
    "PathMapping",
    "build_closure_network",
    "EmbeddingScheduler",
    "EmbeddingCalendar",
    "ScheduleResult",
    "ScheduledEmbedding",
    "partition_by_attribute",
    "partition_balanced",
]
