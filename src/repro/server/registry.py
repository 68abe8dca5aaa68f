"""The serving tier's composition root.

Everything the server needs — the
:class:`~repro.service.base.EmbeddingService` it fronts (either engine; it
owns the model registry, plan cache and reservation ledger), the
admission controller, the shared cost model and the clock — is wired here
*explicitly*, in one place, with every collaborator injectable.  There are
no module-level singletons: tests build a :class:`ServiceRegistry` around a
stub service or a fake clock, production builds one from a
:class:`ServerConfig`, and either way the object graph is visible at a
glance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.server.admission import AdmissionConfig, AdmissionController, CostModel
from repro.service.base import EmbeddingService
from repro.service.netembed import NetEmbedService


@dataclass(frozen=True)
class ServerConfig:
    """Declarative configuration the composition root builds from.

    Attributes
    ----------
    default_timeout:
        Per-request search budget when a request names none (seconds).
    plan_cache_size:
        Capacity of the service's version-aware plan cache.
    engine_workers:
        Concurrent engine executions (the thread pool the asyncio loop
        offloads the synchronous search onto).  Queueing beyond this is the
        admission controller's job, so the pool itself never backs up.
    admission:
        Queue bound, tenant QoS policies and shedding knobs.
    """

    default_timeout: float = 30.0
    plan_cache_size: int = 128
    engine_workers: int = 2
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)

    def __post_init__(self) -> None:
        if self.engine_workers < 1:
            raise ValueError(
                f"engine_workers must be >= 1, got {self.engine_workers}")


class ServiceRegistry:
    """Explicit wiring of the serving tier's collaborators.

    Parameters
    ----------
    config:
        Knobs used for every component built here (``None`` = defaults).
    service:
        An existing :class:`~repro.service.base.EmbeddingService` to serve
        (``None`` = build a fresh :class:`NetEmbedService` from *config*).
        Injecting one lets tests pre-register networks, monitors and
        reservations before a server ever starts.
    cost_model:
        The execution-cost estimator shared between the admission
        controller (deadline shedding) and anything else that wants it;
        injectable so tests can prime expectations.
    admission:
        The admission controller (``None`` = build one from *config*,
        *cost_model* and *clock*).
    clock:
        Monotonic clock used by admission control; injectable for tests.
    """

    def __init__(self, config: Optional[ServerConfig] = None,
                 service: Optional[EmbeddingService] = None,
                 cost_model: Optional[CostModel] = None,
                 admission: Optional[AdmissionController] = None,
                 clock=time.monotonic) -> None:
        self.config = config if config is not None else ServerConfig()
        self.clock = clock
        self.service: EmbeddingService = (
            service if service is not None else NetEmbedService(
                default_timeout=self.config.default_timeout,
                plan_cache_size=self.config.plan_cache_size))
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.admission = admission if admission is not None else (
            AdmissionController(self.config.admission,
                                cost_model=self.cost_model,
                                workers=self.config.engine_workers,
                                clock=clock))

    # Convenience views into the service's own components, so server code
    # names what it touches instead of reaching through the facade.

    @property
    def models(self):
        """The named hosting-network model registry."""
        return self.service.registry

    @property
    def plans(self):
        """The version-aware plan cache."""
        return self.service.plans

    @property
    def reservations(self):
        """The reservation ledger."""
        return self.service.reservations

    def stats(self) -> Dict[str, object]:
        """The combined service + admission counter snapshot."""
        return {
            "service": self.service.stats(),
            "admission": self.admission.stats(),
        }
