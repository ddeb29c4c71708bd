"""Planner decisions, the apply_plan write barrier, and the auto-join hook.

Covers the three layers between a profile and a run:

* decision logic — synthetic profiles with extreme coefficients force
  each knob's choice, so every test is a theorem about the cost model
  rather than a bet on this host's speed;
* ``apply_plan`` — rewrites plannable knobs only, disables re-planning
  on the clone, respects an explicit user shard count, and refuses
  semantic knobs (the transparency write barrier);
* the calibrated ``method="auto"`` join hook — planned and static auto
  must pick equivalent joins on the seed datasets (same pair universe),
  and the admission EWMA accepts a planner seed.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core import PowerConfig, PowerResolver
from repro.data.generators import load_dataset
from repro.exceptions import ConfigurationError
from repro.plan.calibrate import (
    CalibrationProfile,
    default_profile,
    host_fingerprint,
)
from repro.plan.planner import (
    MAX_STREAM_BATCH,
    MIN_STREAM_BATCH,
    PLANNABLE_KNOBS,
    Plan,
    PlanDecision,
    TableStats,
    apply_plan,
    choose_join_method,
    choose_selection,
    choose_shards,
    choose_stream_batch,
    choose_vectorize,
    plan_for_stats,
)
from repro.verify.battery import subsample_table

STATS = TableStats(rows=500, attrs=4, avg_tokens=8.0, est_pairs=400)


def profile_with(calibrated: bool = True, **overrides) -> CalibrationProfile:
    """A synthetic profile: default coefficients with stage overrides."""
    coefficients = {
        stage: dict(coeffs)
        for stage, coeffs in default_profile().coefficients.items()
    }
    for stage, coeffs in overrides.items():
        coefficients[stage] = coeffs
    return CalibrationProfile(
        coefficients=coefficients,
        host=None,
        calibrated=calibrated,
        meta={"source": "test"},
    )


def calibrated_profile_file(path):
    """Write a calibrated-flagged profile for the hook tests."""
    profile = CalibrationProfile(
        coefficients=default_profile().coefficients,
        host=host_fingerprint(),
        calibrated=True,
        meta={"source": "test"},
    )
    profile.save(path)
    return path


@pytest.fixture
def hook_env(tmp_path, monkeypatch):
    """Point the hooks at a tmp profile path and reset their cache."""
    from repro.plan import hooks

    path = tmp_path / "profile.json"
    monkeypatch.setenv("REPRO_PLAN_PROFILE", str(path))
    hooks.clear_cache()
    yield path
    hooks.clear_cache()


class TestDecisions:
    def test_penalized_naive_join_loses(self):
        profile = profile_with(join_naive={"c0": 10.0, "c1": 1.0})
        decision = choose_join_method(STATS, profile)
        assert decision.chosen in ("prefix", "sparse")
        assert ("naive", pytest.approx(10.0 + STATS.rows * (STATS.rows - 1) / 2 * 8.0)) in [
            (value, seconds) for value, seconds in decision.alternatives
        ]

    def test_penalized_index_joins_lose(self):
        profile = profile_with(
            join_prefix={"c0": 10.0, "c1": 1.0},
            join_sparse={"c0": 10.0, "c1": 1.0},
        )
        assert choose_join_method(STATS, profile).chosen == "naive"

    def test_vectorize_follows_coefficients(self):
        slow_scalar = profile_with(vectorize_scalar={"c0": 10.0, "c1": 1.0})
        assert choose_vectorize(STATS, slow_scalar).chosen is True
        slow_batch = profile_with(vectorize_batch={"c0": 10.0, "c1": 1.0})
        assert choose_vectorize(STATS, slow_batch).chosen is False

    def test_reachability_index_tracks_engine(self):
        slow_scratch = profile_with(selection_scratch={"c0": 10.0, "c1": 1.0})
        engine, reachability = choose_selection(STATS, slow_scratch)
        assert engine.chosen is True
        assert reachability.chosen == "auto"
        slow_incremental = profile_with(
            selection_incremental={"c0": 10.0, "c1": 1.0}
        )
        engine, reachability = choose_selection(STATS, slow_incremental)
        assert engine.chosen is False
        assert reachability.chosen == "off"

    def test_shards_track_lanes_and_price_the_rest(self):
        # Speedup saturates at the lane count, so extra shards are pure
        # dispatch overhead: one shard per lane wins (ties break to
        # fewest), and the finer-grained candidates are priced rejects.
        decision = choose_shards(STATS, default_profile(), workers=4)
        assert decision.chosen == 4
        assert {value for value, _ in decision.alternatives} == {8, 16, 32}
        assert choose_shards(STATS, default_profile(), workers=None).chosen == 1
        # Ruinous dispatch never flips the choice below the lane count.
        ruinous = profile_with(shard_dispatch={"c0": 0.0, "c1": 100.0})
        assert choose_shards(STATS, ruinous, workers=4).chosen == 4

    def test_stream_batch_clamped_to_bounds(self):
        fast = profile_with(stream_extend={"c0": 0.0, "c1": 1e-12})
        assert choose_stream_batch(STATS, fast).chosen == MAX_STREAM_BATCH
        slow = profile_with(stream_extend={"c0": 0.0, "c1": 10.0})
        assert choose_stream_batch(STATS, slow).chosen == MIN_STREAM_BATCH

    def test_plan_covers_every_plannable_knob(self):
        plan = plan_for_stats(STATS, default_profile(), workers=2)
        assert sorted(plan.knobs()) == sorted(PLANNABLE_KNOBS)
        assert plan.predicted_total_seconds() >= 0.0
        payload = plan.to_payload()
        import json

        json.dumps(payload)  # must be JSON-serializable for extras/snapshots

    def test_plan_rejects_semantic_knob_at_construction(self):
        rogue = PlanDecision(knob="epsilon", chosen=None, prediction=None)
        with pytest.raises(ConfigurationError, match="epsilon"):
            Plan(stats=STATS, calibrated=False, decisions=(rogue,))


class TestApplyPlan:
    def test_rewrites_knobs_and_disables_replanning(self):
        profile = profile_with(
            join_prefix={"c0": 10.0, "c1": 1.0},
            join_sparse={"c0": 10.0, "c1": 1.0},
        )
        plan = plan_for_stats(STATS, profile)
        config = PowerConfig(plan="auto")
        planned = apply_plan(config, plan)
        assert planned.join_method == "naive"
        assert planned.plan == "off"
        assert not hasattr(planned, "stream_batch_size")
        # The original is untouched (PowerConfig is frozen, but pin it).
        assert config.plan == "auto"

    def test_explicit_user_shards_outrank_the_planner(self):
        plan = plan_for_stats(STATS, default_profile(), workers=4)
        planned = apply_plan(PowerConfig(shards=7), plan)
        assert planned.shards == 7

    def test_refuses_semantic_knobs(self):
        rogue = SimpleNamespace(
            decisions=(
                PlanDecision(knob="join_method", chosen="naive", prediction=None),
                SimpleNamespace(knob="epsilon", chosen=None),
            )
        )
        with pytest.raises(ConfigurationError, match="epsilon"):
            apply_plan(PowerConfig(), rogue)


class TestAutoJoinHook:
    """Satellite regression: calibrated and static auto pick equivalent joins."""

    @pytest.mark.parametrize("dataset,scale", [("restaurant", 0.1), ("cora", 0.1)])
    def test_auto_join_parity_on_seed_datasets(self, dataset, scale, hook_env):
        from repro.similarity import similar_pairs

        table = subsample_table(load_dataset(dataset), scale)
        static_auto = similar_pairs(table, 0.2, method="auto")
        calibrated_profile_file(hook_env)
        from repro.plan import hooks

        hooks.clear_cache()
        planned_auto = similar_pairs(table, 0.2, method="auto")
        explicit = similar_pairs(table, 0.2, method="naive")
        assert static_auto == planned_auto == explicit

    @pytest.mark.parametrize(
        "rows,penalized",
        # Each profile makes the planner contradict the static crossover:
        # the sharded path must follow the planner exactly as the serial
        # join does, never its own size rule.
        [(150, "join_sparse"), (60, "join_naive")],
    )
    def test_sharded_join_dispatches_the_serial_auto_method(
        self, rows, penalized, hook_env, monkeypatch
    ):
        from repro.plan import hooks
        from repro.shard import ShardedResolver
        from repro.shard import resolver as shard_resolver
        from repro.similarity import join

        profile_with(**{penalized: {"c0": 10.0, "c1": 1.0}}).save(hook_env)
        hooks.clear_cache()
        full = load_dataset("restaurant")
        table = subsample_table(full, rows / len(full))
        assert len(table) == rows
        serial_methods: list[str] = []
        task_methods: list[str] = []
        run_join = join._run_join
        compute = shard_resolver.compute_join_pairs

        def spy_join(token_sets, threshold, method, lo=0, hi=None):
            serial_methods.append(method)
            return run_join(token_sets, threshold, method, lo=lo, hi=hi)

        def spy_compute(task):
            task_methods.append(task.method)
            return compute(task)

        monkeypatch.setattr(join, "_run_join", spy_join)
        monkeypatch.setattr(shard_resolver, "compute_join_pairs", spy_compute)
        serial = join.similar_pairs(table, 0.2)
        sharded = ShardedResolver(PowerConfig(shards=3), workers=0)
        pairs = sharded._parallel_candidate_pairs(table, sharded._executor())
        assert pairs == serial
        expected = "sparse" if penalized == "join_naive" else "naive"
        assert serial_methods[0] == expected
        assert len(task_methods) >= 2
        assert set(task_methods) == {expected}

    def test_hooks_silent_without_profile(self, hook_env):
        from repro.plan import hooks

        assert hooks.calibrated_profile() is None
        assert hooks.planned_join_method(100, 8.0) is None
        assert hooks.predicted_batch_seconds(100) is None
        # The stream-batch hook always answers (defaults as fallback).
        batch = hooks.planned_stream_batch(8.0)
        assert MIN_STREAM_BATCH <= batch <= MAX_STREAM_BATCH

    def test_hooks_answer_with_calibrated_profile(self, hook_env):
        calibrated_profile_file(hook_env)
        from repro.plan import hooks

        hooks.clear_cache()
        assert hooks.calibrated_profile() is not None
        assert hooks.planned_join_method(100, 8.0) in ("naive", "sparse")
        assert hooks.predicted_batch_seconds(100) > 0.0


class TestPlannedResolveTransparency:
    def test_planned_resolve_is_bit_identical(self, hook_env):
        table = subsample_table(load_dataset("restaurant"), 0.05)
        static = PowerResolver(PowerConfig(seed=0)).resolve(table, worker_band="90")
        planned = PowerResolver(PowerConfig(seed=0, plan="auto")).resolve(
            table, worker_band="90"
        )
        assert planned.matches == static.matches
        assert planned.clusters == static.clusters
        assert planned.questions == static.questions
        assert planned.cost_cents == static.cost_cents
        assert "plan" in planned.selection.extras

    def test_plan_off_records_nothing(self, hook_env):
        table = subsample_table(load_dataset("restaurant"), 0.05)
        result = PowerResolver(PowerConfig(seed=0)).resolve(table, worker_band="90")
        assert "plan" not in result.selection.extras

    def test_invalid_plan_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerConfig(plan="")


class TestAdmissionSeed:
    def test_seed_replaces_static_default(self):
        from repro.serve.admission import (
            DEFAULT_BATCH_SECONDS,
            AdmissionController,
        )

        assert (
            AdmissionController().batch_seconds_estimate == DEFAULT_BATCH_SECONDS
        )
        seeded = AdmissionController(initial_batch_seconds=0.25)
        assert seeded.batch_seconds_estimate == 0.25

    def test_non_positive_seed_rejected(self):
        from repro.serve.admission import AdmissionController

        with pytest.raises(ConfigurationError):
            AdmissionController(initial_batch_seconds=0.0)


def test_dataclass_replace_revalidates_plan_field():
    config = PowerConfig()
    with pytest.raises(ConfigurationError):
        dataclasses.replace(config, plan=42)
