"""The request/response object model of the embedding API.

Every algorithm and baseline takes one argument shape.
:class:`SearchRequest` is an immutable value object holding the query, the
hosting network, the (coerced) constraint expressions and a :class:`Budget`,
validated exactly once at construction time; algorithms consume it through
:meth:`EmbeddingAlgorithm.request`, and :meth:`SearchRequest.build` makes one
from flat keywords.

Being frozen dataclasses, requests are hashable-by-identity, safe to share
across threads (the batch service submits the same request objects to a
thread pool) and cheap to derive from one another via :meth:`SearchRequest.replace`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Optional, Union

from repro.constraints import ConstraintExpression
from repro.graphs.network import Network
from repro.graphs.query import QueryNetwork

#: What callers may pass wherever a constraint is expected.
ConstraintLike = Union[None, str, ConstraintExpression]


@dataclass(frozen=True)
class Budget:
    """Resource limits for one embedding search.

    Attributes
    ----------
    timeout:
        Wall-clock budget in seconds (``None`` = unlimited).
    max_results:
        Stop after this many embeddings (``None`` = all the algorithm is
        designed to find).
    """

    timeout: Optional[float] = None
    max_results: Optional[int] = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")
        if self.max_results is not None and self.max_results < 1:
            raise ValueError(
                f"max_results must be >= 1 or None, got {self.max_results}")

    @classmethod
    def first_match(cls, timeout: Optional[float] = None) -> "Budget":
        """A budget that stops at the first feasible embedding."""
        return cls(timeout=timeout, max_results=1)

    def with_default_timeout(self, default: Optional[float]) -> "Budget":
        """This budget with *default* filled in when no timeout is set."""
        if self.timeout is not None or default is None:
            return self
        return Budget(timeout=default, max_results=self.max_results)

    def clamped(self, limit: Optional[float]) -> "Budget":
        """This budget with its timeout capped at *limit* seconds.

        Deadline-aware dispatch: a request that waited in a queue must run
        under its *remaining* deadline, not its originally requested
        timeout.  ``None`` or infinite limits leave the budget unchanged;
        a non-positive limit is invalid (an already-expired request should
        be shed, not executed).
        """
        if limit is None or limit == float("inf"):
            return self
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        if self.timeout is not None and self.timeout <= limit:
            return self
        return Budget(timeout=limit, max_results=self.max_results)

    @property
    def wants_single(self) -> bool:
        """Whether the caller asked for exactly one embedding."""
        return self.max_results == 1


#: The do-nothing budget: unlimited time, all results.
UNLIMITED = Budget()


def validate_parallelism(value: Optional[int]) -> Optional[int]:
    """Validate a parallelism knob (``None`` or an int >= 1); returns it.

    Shared by :class:`SearchRequest` and the service's ``QuerySpec`` so the
    two surfaces cannot drift in what they accept.
    """
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(
            f"parallelism must be an int or None, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"parallelism must be >= 1 or None, got {value}")
    return value


def coerce_constraint(value: ConstraintLike, *,
                      default_true: bool) -> Optional[ConstraintExpression]:
    """Accept ``None``, a source string or a ConstraintExpression uniformly."""
    if value is None:
        return ConstraintExpression.always_true() if default_true else None
    if isinstance(value, ConstraintExpression):
        return value
    if isinstance(value, str):
        return ConstraintExpression(value)
    raise TypeError(
        f"constraint must be a ConstraintExpression, a source string or None, "
        f"got {type(value).__name__}")


#: Attribute caching a query network's structure digest, keyed by its
#: mutation epoch, so a hot request path hashes each query once rather than
#: once per arrival.
_QUERY_DIGEST_ATTR = "_structure_digest"


def _query_digest(query: QueryNetwork) -> str:
    """Digest of a query's directedness, nodes, edges and attributes.

    Memoised on the query object against its
    :attr:`~repro.graphs.network.Network.mutation_count`, so repeated
    fingerprints of unchanged queries — the plan-cache hot path — skip the
    full structural walk.
    """
    epoch = query.mutation_count
    cached = getattr(query, _QUERY_DIGEST_ATTR, None)
    if cached is not None and cached[0] == epoch:
        return cached[1]
    digest = hashlib.sha256()
    digest.update(f"directed={query.directed};".encode())
    for node in sorted(query.nodes(), key=str):
        attrs = sorted((k, repr(v)) for k, v in query.node_attrs(node).items())
        digest.update(f"n:{node!r}:{attrs!r};".encode())
    for u, v in sorted(query.edges(), key=lambda e: (str(e[0]), str(e[1]))):
        attrs = sorted((k, repr(v)) for k, v in query.edge_attrs(u, v).items())
        digest.update(f"e:{u!r}->{v!r}:{attrs!r};".encode())
    value = digest.hexdigest()
    try:
        setattr(query, _QUERY_DIGEST_ATTR, (epoch, value))
    except AttributeError:  # slotted subclass: recompute next time
        pass
    return value


@dataclass(frozen=True)
class SearchRequest:
    """A fully validated embedding request.

    Attributes
    ----------
    query:
        The virtual network to embed.
    hosting:
        The real infrastructure to embed into.
    constraint:
        Edge constraint expression; strings are parsed at construction and
        ``None`` becomes the always-true expression, so consumers always see
        a :class:`ConstraintExpression`.
    node_constraint:
        Optional node-level constraint over ``vNode``/``rNode`` (``None`` is
        preserved: "no node constraint" is cheaper than an always-true one).
    budget:
        Timeout and result-cap limits (:data:`UNLIMITED` by default).
    parallelism:
        Shard the search stage across this many process-pool workers
        (``None``/``1`` = serial).  An execution concern like the budget:
        the mapping stream is identical either way, so it is excluded from
        :meth:`fingerprint` and plans compiled from this request serve any
        parallelism.
    """

    query: QueryNetwork
    hosting: Network
    constraint: ConstraintExpression = field(
        default_factory=ConstraintExpression.always_true)
    node_constraint: Optional[ConstraintExpression] = None
    budget: Budget = UNLIMITED
    parallelism: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.query, QueryNetwork):
            raise TypeError(
                f"query must be a QueryNetwork, got {type(self.query).__name__}")
        if not isinstance(self.hosting, Network):
            raise TypeError(
                f"hosting must be a Network, got {type(self.hosting).__name__}")
        if self.query.directed != self.hosting.directed:
            raise ValueError(
                "query and hosting networks must agree on directedness "
                f"(query directed={self.query.directed}, "
                f"hosting directed={self.hosting.directed})")
        if not isinstance(self.budget, Budget):
            raise TypeError(
                f"budget must be a Budget, got {type(self.budget).__name__}")
        validate_parallelism(self.parallelism)
        # Coerce the constraints in place (frozen dataclass => object.__setattr__).
        object.__setattr__(self, "constraint",
                           coerce_constraint(self.constraint, default_true=True))
        object.__setattr__(self, "node_constraint",
                           coerce_constraint(self.node_constraint,
                                             default_true=False))

    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, query: QueryNetwork, hosting: Network,
              constraint: ConstraintLike = None,
              node_constraint: ConstraintLike = None,
              timeout: Optional[float] = None,
              max_results: Optional[int] = None,
              budget: Optional[Budget] = None,
              parallelism: Optional[int] = None) -> "SearchRequest":
        """Construct a request from flat keywords.

        ``budget`` and the flat ``timeout``/``max_results`` pair are mutually
        exclusive ways of expressing the same limits.
        """
        if budget is not None:
            if timeout is not None or max_results is not None:
                raise ValueError(
                    "pass either budget or timeout/max_results, not both")
        else:
            budget = Budget(timeout=timeout, max_results=max_results)
        return cls(query=query, hosting=hosting, constraint=constraint,
                   node_constraint=node_constraint, budget=budget,
                   parallelism=parallelism)

    def replace(self, **changes) -> "SearchRequest":
        """A copy of this request with *changes* applied (re-validated)."""
        return _dc_replace(self, **changes)

    def fingerprint(self) -> str:
        """A stable digest of the query topology/attributes and constraints.

        Two requests with equal fingerprints against the same hosting model
        version compile interchangeable :class:`~repro.core.plan.EmbeddingPlan`
        artifacts, which is how the service's plan cache recognises repeated
        traffic.  The budget is deliberately excluded — timeouts and result
        caps are per-execution concerns, applied when a plan runs — and so is
        the hosting network, which the cache keys by (name, model version)
        instead of by content.
        """
        digest = hashlib.sha256()
        digest.update(_query_digest(self.query).encode())
        digest.update(f"c:{self.constraint.source}"
                      f"|{getattr(self.constraint, 'strict', False)};".encode())
        node_constraint = self.node_constraint
        digest.update(
            f"nc:{None if node_constraint is None else node_constraint.source}"
            f"|{getattr(node_constraint, 'strict', False)};".encode())
        return digest.hexdigest()[:16]

    @property
    def timeout(self) -> Optional[float]:
        """Shortcut for ``budget.timeout``."""
        return self.budget.timeout

    @property
    def max_results(self) -> Optional[int]:
        """Shortcut for ``budget.max_results``."""
        return self.budget.max_results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SearchRequest {self.query.name!r} -> {self.hosting.name!r} "
                f"timeout={self.budget.timeout} max_results={self.budget.max_results}>")
