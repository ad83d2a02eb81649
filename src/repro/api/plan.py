"""Declarative evaluation plans for parsimonious temporal aggregation.

This module is the *one place evaluation decisions live*: every typed knob
of the PTA pipeline — what to aggregate, under which budget to reduce, with
which method, backend and parallelism — is a dataclass or enum here, and
every combination is validated when the plan is *built*, not when it runs.
The legacy entry points :func:`repro.pta`, :func:`repro.compress` and
:func:`repro.parallel.reduce_segments_parallel` are thin shims that build a
:class:`Plan` and hand it to :func:`repro.api.execute`, so all three doors
raise the same :class:`PlanError` with the same message for the same
mistake.

Typical usage::

    from repro.api import Plan, SizeBudget, ExecutionPolicy

    result = (
        Plan(relation)
        .group_by("proj")
        .aggregate(avg_sal=("avg", "sal"))
        .reduce(SizeBudget(4))
        .run()
    )
    result.to_csv("summary.csv")

    # Same plan, executed on the sharded engine:
    result = plan.run(ExecutionPolicy(workers=4))
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Iterable, Optional, Tuple, Union

from ..aggregation.functions import (
    AggregatesLike,
    AggregateSpec,
    normalize_aggregates,
)
from ..core.errors import Weights
from ..core.merge import AggregateSegment
from ..temporal import TemporalRelation
from .result import Result

#: Default number of segments pulled from a source per pipeline step.
#: Deliberately modest: the chunk buffer adds to the ``c + β`` heap bound,
#: so it should not dwarf typical output sizes.
DEFAULT_CHUNK_SIZE = 256

#: What a plan can evaluate: a temporal relation (aggregated with ITA before
#: reduction), any iterable of already aggregated segments, or the flat
#: column encoding used by the sharded engine.
PlanSource = Union[TemporalRelation, Iterable[AggregateSegment]]


class PlanError(ValueError):
    """An invalid plan, budget, or execution policy.

    Subclasses :class:`ValueError` so existing ``except ValueError`` /
    ``pytest.raises(ValueError)`` call sites keep working; the dedicated
    type lets new code distinguish build-time plan mistakes from runtime
    failures.
    """


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SizeBudget:
    """Output size bound ``c`` (Definition 6 — reduce to ≤ ``c`` tuples)."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise PlanError(
                f"size bound must be at least 1, got {self.size}"
            )


@dataclass(frozen=True)
class ErrorBudget:
    """Relative error bound ``ε ∈ [0, 1]`` (Definition 7).

    The reduction may introduce at most ``ε · SSE_max`` total error, where
    ``SSE_max`` is the error of collapsing every maximal run to one tuple.
    """

    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise PlanError(
                f"epsilon must be within [0, 1], got {self.epsilon}"
            )


Budget = Union[SizeBudget, ErrorBudget]


def resolve_budget(
    budget: Budget | None = None,
    size: int | None = None,
    max_error: float | None = None,
) -> Budget:
    """Normalise the three ways of stating a budget into one typed object.

    Accepts either an explicit :class:`SizeBudget` / :class:`ErrorBudget`
    or exactly one of the ``size`` / ``max_error`` keywords; anything else
    (none of them, or more than one) raises :class:`PlanError`.
    """
    if budget is not None:
        if size is not None or max_error is not None:
            raise PlanError("provide exactly one of 'size' and 'max_error'")
        if isinstance(budget, (SizeBudget, ErrorBudget)):
            return budget
        raise PlanError(
            f"budget must be a SizeBudget or ErrorBudget, got {budget!r}"
        )
    if (size is None) == (max_error is None):
        raise PlanError("provide exactly one of 'size' and 'max_error'")
    if size is not None:
        return SizeBudget(size)
    assert max_error is not None
    return ErrorBudget(max_error)


def resolve_error_alias(
    error: float | None, max_error: float | None
) -> float | None:
    """Collapse the legacy ``error=`` spelling into canonical ``max_error``.

    ``pta`` historically called the bound ``error`` while ``compress``
    called it ``max_error``; both shims now accept both spellings and route
    them here.  Passing both at once is rejected rather than silently
    preferring one, and the legacy spelling emits a
    :class:`DeprecationWarning` (the canonical ``max_error=`` stays
    silent).
    """
    if error is not None and max_error is not None:
        raise PlanError(
            "'error' is a legacy alias of 'max_error'; provide only one "
            "of the two spellings"
        )
    if error is not None:
        # stacklevel 3: resolve_error_alias <- pta/compress shim <- caller.
        warnings.warn(
            "the 'error' keyword is a deprecated legacy alias; pass "
            "max_error= instead",
            DeprecationWarning,
            stacklevel=3,
        )
        return error
    return max_error


# ----------------------------------------------------------------------
# Method / backend enums
# ----------------------------------------------------------------------
class Method(str, Enum):
    """Evaluation strategy: exact DP (Section 5) or online greedy (Section 6)."""

    DP = "dp"
    GREEDY = "greedy"

    @classmethod
    def coerce(cls, value: Union["Method", str]) -> "Method":
        if isinstance(value, Method):
            return value
        try:
            return cls(value)
        except ValueError:
            raise PlanError(
                f"method must be 'dp' or 'greedy', got {value!r}"
            ) from None


class Backend(str, Enum):
    """Kernel backend: pure-Python reference or vectorized NumPy arrays."""

    PYTHON = "python"
    NUMPY = "numpy"

    @classmethod
    def coerce(cls, value: Union["Backend", str]) -> "Backend":
        if isinstance(value, Backend):
            return value
        try:
            return cls(value)
        except ValueError:
            raise PlanError(
                f"backend must be 'python' or 'numpy', got {value!r}"
            ) from None


# ----------------------------------------------------------------------
# Shared validators (the single home of the former ad-hoc checks)
# ----------------------------------------------------------------------
def validate_chunk_size(chunk_size: int) -> None:
    """Producer-chunking knob: at least one segment per pipeline step."""
    if chunk_size < 1:
        raise PlanError(
            f"chunk_size must be at least 1, got {chunk_size}"
        )


def validate_delta(delta: float) -> None:
    """Greedy read-ahead ``δ``: a non-negative integer or ``∞``."""
    if delta != math.inf and (delta < 0 or int(delta) != delta):
        raise PlanError(
            f"delta must be a non-negative integer or DELTA_INFINITY, "
            f"got {delta!r}"
        )


def validate_workers_method(
    workers: int | None,
    method: Method,
    cluster: "Tuple[str, ...] | None" = None,
) -> None:
    """The sharded engine computes plain GMS; exact DP cannot be sharded."""
    if workers is not None and method is not Method.GREEDY:
        raise PlanError(
            "workers is only supported for method='greedy'; the exact DP "
            "optimum couples the shards through the global output budget"
        )
    if cluster is not None and method is not Method.GREEDY:
        raise PlanError(
            "cluster is only supported for method='greedy'; the exact DP "
            "optimum couples the shards through the global output budget"
        )


_STREAMS_ARE_AGGREGATED = (
    "group_by/aggregates only apply when compressing a "
    "TemporalRelation; segment streams are already aggregated"
)


# ----------------------------------------------------------------------
# Execution policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionPolicy:
    """*How* a plan runs — knobs that never change *what* is computed.

    Attributes
    ----------
    backend:
        Kernel backend for the single-process engines.  Greedy
        reductions and ``Compressor`` snapshots are bit-identical on
        both backends (``tests/test_backend_identity.py``).
    workers:
        ``None`` keeps the single-process online evaluation.  Any integer
        switches to the sharded engine of :mod:`repro.parallel`: the
        width of its thread pool (``0`` uses every core, ``1`` runs the
        shards on the calling thread).  The compiled merge schedule
        releases the GIL, so threads use several cores.  Requires the
        greedy method, computes plain GMS (``δ = ∞`` semantics) and is
        bit-identical for every worker count.
    cluster:
        ``"host:port"`` addresses of remote reducer workers
        (:mod:`repro.cluster`).  Switches to the distributed engine:
        same shard plan, dispatch and reconciliation as ``workers``,
        with shards shipped over the wire instead of reduced on local
        threads — and the same guarantee: bit-identical to every
        ``workers`` value regardless of placement, cluster size or
        mid-job worker death.  Mutually exclusive with ``workers``;
        requires the greedy method.
    shard_size:
        Segments per shard for the sharded engine (default
        :data:`repro.parallel.DEFAULT_SHARD_SIZE`); a work-distribution
        knob only.
    chunk_size:
        Segments pulled from the source per pipeline step; a producer-side
        buffering knob only.
    delta:
        Greedy read-ahead ``δ`` (Propositions 3 and 4); bounds the online
        heap, ignored by DP and by the sharded engine.
    weights:
        Per-dimension error weights (uniform when ``None``).
    input_size_estimate / max_error_estimate:
        Estimates ``n̂`` / ``Êmax`` enabling early merging in gPTAε
        (Section 6.3); derived automatically for relations and materialised
        sequences when left ``None``.
    """

    backend: Backend = Backend.PYTHON
    workers: Optional[int] = None
    cluster: Optional[Tuple[str, ...]] = None
    shard_size: Optional[int] = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    delta: float = 1
    weights: Optional[Weights] = None
    input_size_estimate: Optional[int] = None
    max_error_estimate: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", Backend.coerce(self.backend))
        validate_chunk_size(self.chunk_size)
        validate_delta(self.delta)
        if self.workers is not None and self.workers < 0:
            raise PlanError(
                f"workers must be non-negative, got {self.workers}"
            )
        if self.cluster is not None:
            if isinstance(self.cluster, str):
                raise PlanError(
                    "cluster must be a sequence of 'host:port' addresses, "
                    "not a single string"
                )
            object.__setattr__(self, "cluster", tuple(self.cluster))
            assert self.cluster is not None
            if not self.cluster:
                raise PlanError("cluster must name at least one address")
            if not all(
                isinstance(address, str) for address in self.cluster
            ):
                raise PlanError(
                    f"cluster addresses must be strings, got "
                    f"{list(self.cluster)!r}"
                )
            if self.workers is not None:
                raise PlanError(
                    "workers and cluster are mutually exclusive: the "
                    "reduction runs either on local threads or "
                    "on remote reducer workers"
                )
        if self.shard_size is not None and self.shard_size < 1:
            raise PlanError(
                f"shard_size must be at least 1, got {self.shard_size}"
            )


# ----------------------------------------------------------------------
# The plan itself
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Plan:
    """An immutable, fully validated description of one PTA evaluation.

    Built fluently — every builder method returns a new plan, so partial
    plans can be shared and specialised::

        base = Plan(relation).group_by("dept").aggregate(avg=("avg", "sal"))
        small = base.reduce(SizeBudget(50))
        tight = base.reduce(ErrorBudget(0.01), method=Method.DP)

    Invalid combinations raise :class:`PlanError` at build time: grouping a
    segment stream, zero or two budgets, unknown methods, malformed
    policies.  Cross-cutting checks that need both the plan and the policy
    (``workers`` × ``method``) run in :func:`repro.api.execute` before any
    work starts.
    """

    source: PlanSource
    group_columns: Tuple[str, ...] = ()
    aggregates: Tuple[AggregateSpec, ...] = ()
    budget: Optional[Budget] = None
    method: Method = Method.GREEDY
    policy: Optional[ExecutionPolicy] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    # Builder steps
    # ------------------------------------------------------------------
    def group_by(self, *columns: str) -> "Plan":
        """Group the aggregation by ``columns`` (relation sources only)."""
        if not columns:
            return self
        self._require_relation_source()
        combined = self.group_columns + columns
        if len(set(combined)) != len(combined):
            raise PlanError(
                f"duplicate group_by columns in {list(combined)}"
            )
        return replace(self, group_columns=combined)

    def aggregate(
        self,
        aggregates: Optional[AggregatesLike] = None,
        **named: Tuple[str, Optional[str]],
    ) -> "Plan":
        """Add aggregate functions, as a mapping/specs or as keywords.

        ``aggregate(avg_sal=("avg", "sal"))`` and
        ``aggregate({"avg_sal": ("avg", "sal")})`` are equivalent.
        Output names must stay unique across every form and every chained
        ``aggregate`` call; clashes fail here, at build time.
        """
        if aggregates is None and not named:
            return self
        self._require_relation_source()
        specs: Tuple[AggregateSpec, ...] = ()
        try:
            if aggregates is not None:
                specs += normalize_aggregates(aggregates)
            if named:
                specs += normalize_aggregates(named)
            combined = self.aggregates + specs
            # Re-validate the merged tuple: each call/form is valid alone,
            # but outputs must be unique across the whole plan.
            normalize_aggregates(combined)
        except ValueError as error:
            raise PlanError(str(error)) from error
        return replace(self, aggregates=combined)

    def reduce(
        self,
        budget: Budget | None = None,
        *,
        size: int | None = None,
        max_error: float | None = None,
        method: Union[Method, str, None] = None,
    ) -> "Plan":
        """Set the reduction budget (exactly one) and optionally the method."""
        resolved = resolve_budget(budget, size=size, max_error=max_error)
        new_method = (
            Method.coerce(method) if method is not None else self.method
        )
        return replace(self, budget=resolved, method=new_method)

    def with_method(self, method: Union[Method, str]) -> "Plan":
        """Select the evaluation strategy (DP or greedy)."""
        return replace(self, method=Method.coerce(method))

    def with_policy(
        self, policy: ExecutionPolicy | None = None, **overrides: Any
    ) -> "Plan":
        """Attach a default execution policy (overridable at :meth:`run`)."""
        if policy is None:
            base = self.policy or ExecutionPolicy()
            policy = replace(base, **overrides)
        elif overrides:
            policy = replace(policy, **overrides)
        return replace(self, policy=policy)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, policy: ExecutionPolicy | None = None) -> Result:
        """Execute the plan; sugar for :func:`repro.api.execute`."""
        from .executor import execute

        return execute(self, policy)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_relation_source(self) -> None:
        if not isinstance(self.source, TemporalRelation):
            raise PlanError(_STREAMS_ARE_AGGREGATED)

    @property
    def value_columns(self) -> Tuple[str, ...]:
        """Output attribute names of the aggregate functions."""
        return tuple(spec.output for spec in self.aggregates)


__all__ = [
    "Backend",
    "Budget",
    "DEFAULT_CHUNK_SIZE",
    "ErrorBudget",
    "ExecutionPolicy",
    "Method",
    "Plan",
    "PlanError",
    "PlanSource",
    "SizeBudget",
    "resolve_budget",
    "resolve_error_alias",
    "validate_chunk_size",
    "validate_delta",
    "validate_workers_method",
]
