"""Match results and execution statistics returned by the executor."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any

__all__ = ["MatchResult", "ExecutionStats", "SchedulerStats"]


@dataclass(frozen=True)
class MatchResult:
    """One string matched by a query.

    ``tokens`` is the token path through the LLM automaton (excluding EOS);
    ``text`` its decoded string; ``logprob`` the model log-probability of
    the *non-prefix* tokens (prefix tokens are conditioned on, not scored,
    §2.4); ``total_logprob`` scores prefix tokens too (the shortest-path
    priority, §3.3); ``canonical`` records whether the token path is the
    canonical encoding of ``text``.
    """

    tokens: tuple[int, ...]
    text: str
    logprob: float
    total_logprob: float
    canonical: bool
    prefix_text: str = ""

    @property
    def suffix_text(self) -> str:
        """The part of the match after the sampled/expanded prefix."""
        return self.text[len(self.prefix_text) :]


@dataclass
class ExecutionStats:
    """Counters the executor maintains while running a query.

    These power the throughput/efficiency measurements of §4.1: ``lm_calls``
    is the analogue of GPU batch submissions, ``tokens_scored`` of decoded
    tokens, ``pruned_edges`` of test vectors eliminated by decision rules.

    Only what the query's own traversal (or the driver servicing it)
    increments lives here.  Everything else is read from the object that
    owns it: compile shape, cost and cache provenance from
    ``compiled.metrics`` (:class:`~repro.core.compiler.CompileMetrics`),
    prefix-state (KV) cache traffic from ``model.prefix_cache.stats()``.
    Those owners are shared between queries; a window over one is two
    snapshots subtracted.
    """

    lm_calls: int = 0
    lm_batches: int = 0
    tokens_scored: int = 0
    nodes_expanded: int = 0
    pruned_edges: int = 0
    matches_yielded: int = 0
    failed_attempts: int = 0
    duplicates_suppressed: int = 0
    #: This query's own logits-cache lookups (per-occurrence attribution,
    #: see :meth:`~repro.lm.base.LogitsCache.logprobs_round`), exact even
    #: when the cache is shared: ``logits_hits + logits_misses == lm_calls``.
    logits_hits: int = 0
    logits_misses: int = 0
    #: Contexts this query added to model rounds ahead of need (shortest
    #: path lookahead, see :class:`~repro.core.executor.LmRequest`): scored
    #: and cached with a request that missed, counted in ``lm_calls`` only
    #: when — and if — their node is popped.
    lookahead_contexts: int = 0
    #: Coalesced scheduler rounds this query took part in: one per request
    #: that missed the logits cache (0 when a warm cache answered every
    #: request inline).  Round wall-clock is the scheduler's
    #: (``SchedulerStats.lm_wall_ms``).
    scheduler_rounds: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average contexts per batched request, the lookahead contexts
        that rode along included (1.0 unbatched)."""
        if self.lm_batches == 0:
            return 1.0
        return (self.lm_calls + self.lookahead_contexts) / self.lm_batches

    @property
    def logits_hit_rate(self) -> float:
        """Fraction of logits lookups served from cache (0 when unused)."""
        total = self.logits_hits + self.logits_misses
        return self.logits_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for logging/reporting: exactly the fields."""
        return asdict(self)


#: ``SchedulerStats`` fields that grow with every round; recorded only under
#: ``record_history=True`` and left out of :meth:`SchedulerStats.as_dict`.
_HISTORY_FIELDS = ("round_sizes", "round_members", "round_wall_ms")


@dataclass
class SchedulerStats:
    """Counters a :class:`~repro.core.scheduler.QueryScheduler` maintains.

    One *round* is one coalesced LM dispatch: the contexts requested by
    every query serviced that round, deduped through the shared logits
    cache, sent to the model as (at most) one ``logprobs_batch`` call.
    A round exists only for a miss: a request whose contexts are all
    cached is answered inline and appears in no round counter here
    (``rounds``, ``contexts_serviced``, the sizes and the per-round logs
    describe coalesced rounds only, so :attr:`mean_round_size` keeps
    meaning "how well a round amortised the forward") — it shows as the
    query's own ``logits_hits`` and ``lm_calls``, and a fully warm
    portfolio reads ``rounds == 0``.  ``contexts_serviced`` and the round
    sizes include the lookahead contexts that rode in a round (each
    query's share is its ``ExecutionStats.lookahead_contexts``): they are
    part of what the forward amortised.
    ``max_round_size`` and :attr:`mean_round_size` are running aggregates,
    always maintained; the full per-round logs — ``round_sizes`` (the
    coalesced batch size of every round, the scheduler's throughput lever)
    and ``round_members`` (which queries shared each round, what the
    round-robin rotation decides when ``concurrency`` caps a round) —
    grow with every round, so the scheduler only fills them when
    constructed with ``record_history=True``.

    Prefix-state-cache and compilation-cache counters are not
    mirrored here: read ``model.prefix_cache.stats()``,
    ``compiler.cache.stats()`` / ``compiler.disk_cache.stats()`` and each
    handle's ``compiled.metrics``.  Nor are per-query facts: a handle
    carries its own ``latency`` and ``report.verdict``.
    """

    rounds: int = 0
    contexts_serviced: int = 0
    queries_submitted: int = 0
    queries_completed: int = 0
    queries_truncated: int = 0
    queries_cancelled: int = 0
    #: Queries admission control refused at submit time — error-level
    #: analyzer findings or a cost estimate beyond the admission cap —
    #: plus queries whose compile failed.  Neither ever issues an LM call.
    queries_rejected: int = 0
    max_round_size: int = 0
    round_sizes: list[int] = field(default_factory=list)
    round_members: list[tuple[str, ...]] = field(default_factory=list)
    #: Per-round LM-service wall-clock (milliseconds), recorded only under
    #: ``record_history=True`` like the other per-round logs.
    round_wall_ms: list[float] = field(default_factory=list)
    #: Total LM-service wall-clock across all rounds.
    lm_wall_ms: float = 0.0
    #: Checkpoint/resume activity (see :mod:`repro.core.checkpoint`):
    #: snapshots written this run, and queries restored from a snapshot at
    #: resume instead of being re-run.
    checkpoints_written: int = 0
    queries_resumed: int = 0
    #: Compile wall-clock summed over every query this scheduler compiled.
    compile_ms: float = 0.0

    @property
    def mean_round_size(self) -> float:
        """Average coalesced contexts per round (0 when no rounds ran)."""
        return self.contexts_serviced / self.rounds if self.rounds else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for logging/reporting: every field except the
        per-round history lists, plus the derived ``mean_round_size``."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in _HISTORY_FIELDS
        }
        out["mean_round_size"] = self.mean_round_size
        return out
