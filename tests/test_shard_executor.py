"""Fault-path tests for :class:`repro.shard.ShardExecutor`.

The executor's contract: every task is a pure function of its spec, so a
task that raises, crashes its worker process, or hangs past the timeout is
retried — and, with the retry budget exhausted, re-run inline in the
coordinator — without changing a single output byte.  These tests inject
deterministic faults (file-backed attempt counters from
:class:`repro.shard.worker.FaultSpec`) and assert byte-identical results
plus honest telemetry.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import PowerConfig, PowerResolver
from repro.data import restaurant
from repro.exceptions import ConfigurationError
from repro.shard import (
    FaultSpec,
    ShardExecutor,
    ShardedResolver,
    VectorTask,
    compute_vectors,
    merge_vector_chunks,
    questions_for_cents,
    split_question_budget,
    vertex_slices,
)
from repro.shard.worker import maybe_fault


def _square(task):
    """Module-level pure task (picklable): ``(value, fault) -> value**2``."""
    value, fault = task
    maybe_fault(fault)
    return value * value


def _fault(tmp_path, name, **kwargs) -> FaultSpec:
    return FaultSpec(path=str(tmp_path / name), **kwargs)


class TestInlineExecution:
    def test_workers_zero_runs_inline(self):
        with ShardExecutor(workers=0) as executor:
            assert executor.run(_square, [(2, None), (3, None)]) == [4, 9]
        assert executor.stats.tasks == 2
        assert executor.stats.retries == 0

    def test_inline_retry_then_success(self, tmp_path):
        fault = _fault(tmp_path, "inline", limit=2)
        with ShardExecutor(workers=0, retries=2) as executor:
            assert executor.run(_square, [(5, fault)]) == [25]
        assert executor.stats.retries == 2

    def test_inline_retries_exhausted_raises(self, tmp_path):
        fault = _fault(tmp_path, "forever", limit=99)
        with ShardExecutor(workers=0, retries=1) as executor:
            with pytest.raises(RuntimeError, match="injected fault"):
                executor.run(_square, [(5, fault)])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardExecutor(workers=-1)
        with pytest.raises(ConfigurationError):
            ShardExecutor(retries=-1)
        with pytest.raises(ConfigurationError):
            ShardExecutor(timeout=0)
        with ShardExecutor() as executor:
            with pytest.raises(ConfigurationError):
                executor.run(_square, [(1, None)], weights=[1.0, 2.0])


class TestPoolFaultPaths:
    def test_exception_is_retried(self, tmp_path):
        fault = _fault(tmp_path, "raise", limit=1, kind="raise")
        with ShardExecutor(workers=1, retries=2) as executor:
            result = executor.run(_square, [(7, fault), (8, None)])
        assert result == [49, 64]
        assert executor.stats.retries >= 1
        assert executor.stats.fallbacks == 0

    def test_worker_crash_is_retried_on_fresh_pool(self, tmp_path):
        """``os._exit`` in the worker → BrokenProcessPool → fresh pool."""
        fault = _fault(tmp_path, "crash", limit=1, kind="exit")
        with ShardExecutor(workers=1, retries=3) as executor:
            result = executor.run(_square, [(6, fault)])
        assert result == [36]
        assert executor.stats.broken_pools >= 1
        assert executor.stats.retries >= 1

    def test_exhausted_retries_fall_back_inline(self, tmp_path):
        """Crash past the retry budget → the coordinator runs the task.

        limit=2 with retries=1: pool attempts 1 and 2 die, the attempt
        budget is spent, and the inline fallback (attempt 3 > limit)
        succeeds — same bytes the healthy path would have produced.
        """
        fault = _fault(tmp_path, "fallback", limit=2, kind="exit")
        with ShardExecutor(workers=1, retries=1) as executor:
            result = executor.run(_square, [(9, fault)])
        assert result == [81]
        assert executor.stats.fallbacks == 1
        # Two pool attempts + one inline attempt were recorded in the file.
        assert os.path.getsize(str(tmp_path / "fallback")) == 3

    def test_hung_worker_is_timed_out_and_retried(self, tmp_path):
        fault = _fault(tmp_path, "hang", limit=1, kind="hang", hang_seconds=30.0)
        with ShardExecutor(workers=1, retries=2, timeout=0.5) as executor:
            result = executor.run(_square, [(4, fault)])
        assert result == [16]
        assert executor.stats.timeouts >= 1

    def test_largest_first_dispatch_keeps_task_order(self):
        with ShardExecutor(workers=1) as executor:
            tasks = [(value, None) for value in range(6)]
            weights = [1.0, 5.0, 3.0, 2.0, 4.0, 0.5]
            assert executor.run(_square, tasks, weights=weights) == [
                value * value for value in range(6)
            ]


class TestBitIdenticalUnderFaults:
    def test_vector_chunks_survive_crashes_byte_identical(
        self, small_table, tmp_path
    ):
        """Crashing vector workers must not change one byte of the matrix."""
        resolver = PowerResolver(PowerConfig(seed=0))
        pairs = resolver.candidate_pairs(small_table)
        reference = resolver.similarity_vectors(small_table, pairs)
        config = resolver.similarity_config(small_table)
        tasks = []
        for index, (lo, hi) in enumerate(vertex_slices(len(pairs), 4)):
            fault = (
                _fault(tmp_path, f"chunk{index}", limit=1, kind="exit")
                if index % 2 == 0
                else None
            )
            tasks.append(
                VectorTask(
                    start=lo,
                    pairs=tuple(pairs[lo:hi]),
                    table=small_table,
                    config=config,
                    fault=fault,
                )
            )
        with ShardExecutor(workers=2, retries=2) as executor:
            chunks = executor.run(compute_vectors, tasks)
        merged = merge_vector_chunks(chunks)
        np.testing.assert_array_equal(merged, reference)
        assert executor.stats.broken_pools >= 1

    def test_resolver_with_processes_matches_serial(self, small_table):
        """End-to-end: 2 worker processes, exact mode, bit-identical."""
        serial = PowerResolver(PowerConfig(seed=0)).resolve(small_table)
        sharded = ShardedResolver(
            PowerConfig(seed=0, shards=2), workers=2
        ).resolve(small_table)
        assert sharded.questions == serial.questions
        assert sharded.iterations == serial.iterations
        assert sharded.cost_cents == serial.cost_cents
        assert sharded.selection.labels == serial.selection.labels
        assert sharded.matches == serial.matches
        assert sharded.clusters == serial.clusters
        assert sharded.selection.state.asked_order == serial.selection.state.asked_order


class TestExactModeBudget:
    """Exact-mode budgets reach the serial selection loop unchanged."""

    @pytest.fixture(scope="class")
    def table(self):
        return restaurant()

    def serial_run(self, table, budget):
        resolver = PowerResolver(PowerConfig(seed=0))
        pairs = resolver.candidate_pairs(table)
        graph = resolver.build_graph(table, pairs)
        session = resolver.simulated_crowd(table, pairs).session()
        return resolver.make_selector().run(graph, session, budget=budget)

    def sharded_run(self, table, **caps):
        return ShardedResolver(PowerConfig(seed=0, shards=2), workers=0).resolve(
            table, **caps
        )

    def assert_same(self, sharded, serial):
        assert not serial.state.is_complete()  # the budget stopped the loop
        assert sharded.selection.labels == serial.labels
        assert sharded.questions == serial.questions
        assert sharded.selection.state.asked_order == serial.state.asked_order
        assert sharded.cost_cents == serial.cost_cents

    def test_question_budget_matches_serial(self, table):
        serial = self.serial_run(table, budget=40)
        assert serial.questions == 40
        self.assert_same(self.sharded_run(table, budget=40), serial)

    def test_money_budget_matches_serial(self, table):
        serial = self.serial_run(table, budget=questions_for_cents(200))
        sharded = self.sharded_run(table, max_cents=200)
        self.assert_same(sharded, serial)
        assert sharded.cost_cents <= 200


class TestBudgetSplit:
    def test_split_sums_to_total_and_is_proportional(self):
        split = split_question_budget(10, [30, 60, 10])
        assert sum(split) == 10
        assert split == [3, 6, 1]

    def test_largest_remainder_tiebreak(self):
        assert split_question_budget(1, [1, 1]) == [1, 0]
        assert split_question_budget(0, [5, 5]) == [0, 0]
        assert split_question_budget(7, []) == []
        assert split_question_budget(4, [0, 0]) == [0, 0]

    def test_split_rejects_negatives(self):
        with pytest.raises(ConfigurationError):
            split_question_budget(-1, [1])
        with pytest.raises(ConfigurationError):
            split_question_budget(1, [-1])

    def test_questions_for_cents_inverts_billing(self):
        from repro.engine.budget import BudgetGuard

        for cents in (0, 10, 49, 50, 100, 1234):
            questions = questions_for_cents(cents)
            guard = BudgetGuard(max_cents=cents)
            assert guard.affordable_questions(
                asked=0,
                requested=questions + 1,
                pairs_per_hit=10,
                cents_per_hit=10,
                assignments=5,
            ) == questions
