"""The sharded resolution facade: ``ShardedResolver``.

Drop-in for :class:`~repro.core.resolver.PowerResolver` — same
``resolve(table, session=..., worker_band=...)`` signature, same
:class:`~repro.core.resolver.ResolutionResult` — that spreads the work
across CPU cores through :class:`~repro.shard.executor.ShardExecutor`.
Two execution modes:

* ``mode="exact"`` (default) — **the serial pipeline with a
  range-tiled parallel join**.  Vectorize, construct, select, settle and
  cluster are the very code :meth:`PowerResolver.resolve` runs (one
  shared body, one selection loop); only the candidate join — the stage
  that dominates large-table wall time — is tiled by probe-record ranges
  across the workers, and its sorted concatenation is the serial join's
  output pair for pair.  The result is **bit-identical** to
  ``PowerResolver.resolve`` — same matches, same question transcript,
  same iteration count, same bill — for *any* shard count and *any*
  worker count, including after worker crashes, timeouts, and in-process
  fallbacks.  This is the mode the ``check_shard_equivalence``
  differential certifies.
* ``mode="independent"`` — **CrowdER-style component sharding**.  The
  candidate graph is partitioned into connected components, giant
  components are split on their weakest edges under the
  ``shard_max_pairs`` cap, blocks are LPT-packed into balanced shards,
  and each shard runs its own full selection/crowd loop with a seed
  derived from the global seed and the shard id.  Shards never exchange
  inference, so question counts can exceed the serial run's (weak-edge
  cuts forfeit exactly the cross-cut inference) — the trade the paper's
  related work (CrowdER; Mazumdar & Saha's independently-resolvable
  clusters) accepts for horizontal scale.  Results are deterministic and
  schedule-independent, and a global question/money budget is split
  across shards with the same :class:`~repro.engine.budget.BudgetGuard`
  arithmetic the engine uses.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from ..core.config import PowerConfig
from ..core.resolver import PowerResolver, ResolutionResult
from ..crowd.platform import CrowdSession
from ..data.ground_truth import true_match_pairs
from ..data.table import Table
from ..exceptions import ConfigurationError, DataError
from ..obs import instrument as obs_instrument
from ..similarity.join import resolve_join_method
from .executor import ShardExecutor, questions_for_cents, split_question_budget
from .merge import merge_independent_outcomes, merged_clusters
from .partition import plan_pair_shards
from .worker import (
    IndependentShardTask,
    JoinTask,
    compute_join_pairs,
    derive_shard_seed,
    resolve_shard,
)

#: Execution modes of :class:`ShardedResolver`.
SHARD_MODES = ("exact", "independent")


class ShardedResolver(PowerResolver):
    """Multi-process Power/Power+ with a deterministic merge.

    Args:
        config: the pipeline configuration; ``config.shards`` sets the
            number of shard work units (``None`` → one per worker),
            ``config.shard_max_pairs`` the independent-mode component size
            cap, ``config.shard_retries`` the per-task retry budget.
        workers: worker-process count; ``0`` runs every task inline (no
            processes — deterministic and dependency-free, the mode the
            verification battery uses); ``None`` → ``min(shards,
            cpu_count)``.
        mode: ``"exact"`` (bit-identical, parallel join; default) or
            ``"independent"`` (per-shard full loops, CrowdER-style).
        timeout: per-task seconds before a worker is declared hung;
            ``None`` disables.
        mp_context: multiprocessing start method (``None`` = platform
            default).
    """

    def __init__(
        self,
        config: PowerConfig | None = None,
        workers: int | None = None,
        mode: str = "exact",
        timeout: float | None = None,
        mp_context: str | None = None,
    ) -> None:
        super().__init__(config)
        if mode not in SHARD_MODES:
            raise ConfigurationError(
                f"mode must be one of {SHARD_MODES}, got {mode!r}"
            )
        if workers is not None and workers < 0:
            raise ConfigurationError(f"workers must be >= 0 or None, got {workers}")
        self.mode = mode
        self.timeout = timeout
        self.mp_context = mp_context
        if workers is None:
            limit = os.cpu_count() or 1
            workers = min(self.config.shards or limit, limit)
        self.workers = workers

    @property
    def num_shards(self) -> int:
        """Shard work units: ``config.shards``, else one per worker."""
        return self.config.shards or max(1, self.workers)

    def _executor(self) -> ShardExecutor:
        return ShardExecutor(
            workers=self.workers,
            retries=self.config.shard_retries,
            timeout=self.timeout,
            mp_context=self.mp_context,
        )

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def resolve(
        self,
        table: Table,
        session: CrowdSession | None = None,
        worker_band: str | tuple[float, float] = "90",
        engine=None,
        budget: int | None = None,
        max_cents: float | None = None,
    ) -> ResolutionResult:
        """Run the sharded pipeline on *table*.

        Args:
            table / session / worker_band: as
                :meth:`PowerResolver.resolve`.
            engine: not supported on the sharded path (the engine's event
                loop is a different concurrency story); pass the engine to
                the serial resolver instead.
            budget: optional global cap on distinct crowd questions.
            max_cents: optional global money cap, converted to a question
                budget through the
                :class:`~repro.engine.budget.BudgetGuard` billing
                inversion and combined with *budget* (the tighter wins).
        """
        if engine is not None:
            raise ConfigurationError(
                "ShardedResolver does not drive the event engine; use "
                "PowerResolver(engine=...) for fault-simulation runs"
            )
        planned, plan = self._planned_clone(table)
        if plan is not None:
            result = planned.resolve(
                table, session, worker_band, engine, budget, max_cents
            )
            self.last_plan = plan
            result.selection.extras["plan"] = plan.to_payload()
            return result
        if max_cents is not None:
            affordable = questions_for_cents(
                max_cents, assignments=self.config.assignments
            )
            budget = affordable if budget is None else min(budget, affordable)
        if self.mode == "independent":
            return self._resolve_independent(table, session, worker_band, budget)
        return self._resolve_exact(table, session, worker_band, budget)

    # ------------------------------------------------------------------ #
    # Exact mode
    # ------------------------------------------------------------------ #

    def _resolve_exact(
        self,
        table: Table,
        session: CrowdSession | None,
        worker_band: str | tuple[float, float],
        budget: int | None,
    ) -> ResolutionResult:
        """The serial pipeline body with the candidate join range-tiled."""
        obs = obs_instrument.current()
        with self._executor() as executor, obs.tracer.span(
            "shard.resolve",
            dataset=table.name,
            mode="exact",
            shards=self.num_shards,
            workers=self.workers,
        ):
            result, seconds = self._run_pipeline(
                table,
                session,
                worker_band,
                budget=budget,
                join=lambda table: self._parallel_candidate_pairs(table, executor),
            )
            stats = executor.stats.as_dict()
            obs_instrument.record_executor_stats(obs, stats)
        result.selection.extras["shard"] = {
            "mode": "exact",
            "shards": self.num_shards,
            "workers": self.workers,
            "timings": {
                "join": seconds["join"],
                "vectors": seconds["vectorize"],
                "graph": seconds["construct"],
                "selection": seconds["select"],
            },
            "executor": stats,
        }
        return result

    def _parallel_candidate_pairs(
        self, table: Table, executor: ShardExecutor
    ) -> list:
        """The pruning join of §7.1, tiled by probe-record ranges.

        Every pair ``(a, b)`` with ``a < b`` is owned by its higher record
        id; a range task emits exactly the pairs owned by its records
        (:func:`repro.similarity.join.similar_pairs_range`), so the sorted
        concatenation over a disjoint covering tiling *is* the serial
        ``candidate_pairs`` output, pair for pair.  Ranges are cut on a
        square-root grid (record ``b`` probes ``O(b)`` earlier records, so
        equal-work tiles have equal ``hi² - lo²``), and dispatch weights
        carry the same quadratic estimate for the LPT scheduler.

        ``"auto"`` is resolved once, here, through the same rule as the
        serial join (:func:`repro.similarity.join.resolve_join_method`), so
        every tile runs the join the serial path would.  Falls back to the
        serial join when the table is trivial or the plan has a single
        shard.  With ``workers=0`` the tiles still run (inline), so the
        equivalence differential attacks the tiling decomposition itself.
        """
        if self.num_shards <= 1 or len(table) < 2:
            return self.candidate_pairs(table)
        method = resolve_join_method(
            table, self.config.join_tokens, self.config.join_method
        )
        boundaries = sorted(
            {
                round(len(table) * math.sqrt(step / self.num_shards))
                for step in range(self.num_shards + 1)
            }
            | {0, len(table)}
        )
        ranges = [
            (lo, hi)
            for lo, hi in zip(boundaries, boundaries[1:])
            if lo < hi
        ]
        tasks = [
            JoinTask(
                table=table,
                threshold=self.config.pruning_threshold,
                lo=lo,
                hi=hi,
                tokens=self.config.join_tokens,
                method=method,
            )
            for lo, hi in ranges
        ]
        chunks = executor.run(
            compute_join_pairs,
            tasks,
            weights=[float(hi * hi - lo * lo) for lo, hi in ranges],
        )
        merged: list = []
        for chunk in chunks:
            merged.extend(chunk)
        merged.sort()
        return merged

    # ------------------------------------------------------------------ #
    # Independent mode
    # ------------------------------------------------------------------ #

    def _pair_weights(self, table: Table, pairs: list) -> np.ndarray:
        """Record-level Jaccard per candidate pair (weak-edge weights)."""
        from ..similarity.batch import TokenIndex
        from ..similarity.tokenize import qgram_tokens, word_tokens

        texts = [table.record_text(record) for record in range(len(table))]
        tokenizer = qgram_tokens if self.config.join_tokens == "qgram" else word_tokens
        index = TokenIndex(texts, tokenizer)
        left = np.fromiter((pair[0] for pair in pairs), dtype=np.int64, count=len(pairs))
        right = np.fromiter((pair[1] for pair in pairs), dtype=np.int64, count=len(pairs))
        return index.jaccard_pairs(left, right)

    def _resolve_independent(
        self,
        table: Table,
        session: CrowdSession | None,
        worker_band: str | tuple[float, float],
        budget: int | None,
    ) -> ResolutionResult:
        if session is not None:
            raise ConfigurationError(
                "independent mode builds one simulated crowd per shard from "
                "ground truth; an external session cannot be split — use "
                "mode='exact' (which shares your session) instead"
            )
        if not table.has_ground_truth():
            raise DataError(
                f"table {table.name!r} has no ground truth; independent-mode "
                "shards need it to simulate their crowds"
            )
        timings: dict[str, float] = {}
        started = time.perf_counter()
        pairs = self.candidate_pairs(table)
        if not pairs:
            raise DataError(
                f"no candidate pairs survive pruning at threshold "
                f"{self.config.pruning_threshold} on table {table.name!r}"
            )
        weights = self._pair_weights(table, pairs)
        max_pairs = self.config.shard_max_pairs
        if max_pairs is None:
            max_pairs = max(1, math.ceil(len(pairs) / self.num_shards))
        plan = plan_pair_shards(
            pairs, self.num_shards, weights=weights, max_pairs=max_pairs
        )
        timings["partition"] = time.perf_counter() - started

        budgets: list[int | None] = [None] * len(plan)
        if budget is not None:
            budgets = list(split_question_budget(budget, plan.pair_counts))
        tasks = [
            IndependentShardTask(
                shard_id=shard.shard_id,
                table=table,
                pairs=shard.pairs,
                config=self.config,
                worker_band=worker_band,
                seed=derive_shard_seed(self.config.seed, shard.shard_id),
                budget=budgets[index],
            )
            for index, shard in enumerate(plan.shards)
        ]
        obs = obs_instrument.current()
        started = time.perf_counter()
        with self._executor() as executor, obs.tracer.span(
            "shard.resolve",
            dataset=table.name,
            mode="independent",
            shards=len(plan),
            workers=self.workers,
        ):
            outcomes = executor.run(
                resolve_shard, tasks, weights=[len(task.pairs) for task in tasks]
            )
            stats = executor.stats.as_dict()
            obs_instrument.record_executor_stats(obs, stats)
        timings["shards"] = time.perf_counter() - started
        selection = merge_independent_outcomes(
            outcomes,
            selector_name=self.config.selector,
            assignments=self.config.assignments,
        )
        selection.extras["shard"] = {
            "mode": "independent",
            "shards": len(plan),
            "workers": self.workers,
            "components": plan.num_components,
            "split_components": plan.split_components,
            "pair_counts": plan.pair_counts,
            "budgets": budgets,
            "timings": timings,
            "executor": stats,
        }
        matches = selection.matches
        clusters = merged_clusters(len(table), outcomes)
        from ..core.metrics import pairwise_quality

        quality = pairwise_quality(matches, true_match_pairs(table))
        return ResolutionResult(
            table_name=table.name,
            candidate_pairs=pairs,
            selection=selection,
            matches=matches,
            clusters=clusters,
            quality=quality,
        )


__all__ = ["SHARD_MODES", "ShardedResolver"]
