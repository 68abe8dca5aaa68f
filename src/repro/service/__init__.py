"""The NETEMBED service layer (paper §III).

Components:

* :class:`EmbeddingService` — the service shell (registry, monitors, ledger,
  request lifecycle) every mapping engine sits behind;
* :class:`NetEmbedService` — the facade applications talk to (that shell
  over the monolithic engine);
* :class:`NetworkModelRegistry` — named hosting-network models;
* :class:`SimulatedMonitor` — a stand-in for the monitoring infrastructure;
* :class:`ReservationManager` — optional capacity reservations over accepted
  embeddings;
* :class:`NegotiationSession` — interactive constraint relaxation;
* :class:`QuerySpec` / :class:`EmbeddingResponse` — the request/response types.
"""

from repro.api.selection import FixedSelectionPolicy, PaperSelectionPolicy, SelectionPolicy
from repro.service.base import EmbeddingService
from repro.service.model import ModelEntry, NetworkModelRegistry, UnknownNetworkError
from repro.service.monitor import UP_ATTR, MonitorConfig, SimulatedMonitor
from repro.service.netembed import NetEmbedService
from repro.service.reservation import (
    CAPACITY_NODE_CONSTRAINT,
    Reservation,
    ReservationError,
    ReservationManager,
    with_default_demand,
)
from repro.service.session import NegotiationOutcome, NegotiationRound, NegotiationSession
from repro.service.spec import EmbeddingResponse, QuerySpec, RepairResponse

__all__ = [
    "EmbeddingService",
    "NetEmbedService",
    "SelectionPolicy",
    "PaperSelectionPolicy",
    "FixedSelectionPolicy",
    "NetworkModelRegistry",
    "ModelEntry",
    "UnknownNetworkError",
    "SimulatedMonitor",
    "MonitorConfig",
    "UP_ATTR",
    "ReservationManager",
    "Reservation",
    "ReservationError",
    "CAPACITY_NODE_CONSTRAINT",
    "with_default_demand",
    "NegotiationSession",
    "NegotiationOutcome",
    "NegotiationRound",
    "QuerySpec",
    "EmbeddingResponse",
    "RepairResponse",
]
