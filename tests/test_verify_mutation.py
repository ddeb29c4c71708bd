"""The mutation self-test: every seeded bug must be detected."""

from __future__ import annotations

import pytest

from repro.verify import MUTANTS, run_detection_battery, run_mutation_selftest
from repro.verify.mutation import detected_mutants


class TestMutationSelfTest:
    def test_catalog_has_at_least_six_mutants(self):
        assert len(MUTANTS) >= 6
        assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)

    def test_pristine_battery_passes(self):
        run_detection_battery(seed=0)

    def test_every_mutant_is_detected(self):
        report = run_mutation_selftest(seed=0)
        assert report.passed, report.summary()
        assert set(detected_mutants(report)) == {mutant.name for mutant in MUTANTS}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_detection_is_seed_robust(self, seed):
        report = run_mutation_selftest(seed=seed)
        assert report.passed, report.summary()

    def test_patches_are_fully_restored(self):
        import repro.crowd.platform as platform
        import repro.graph.construction as construction
        import repro.graph.matching as matching
        import repro.graph.topo as topo
        from repro.crowd.platform import CrowdSession
        from repro.graph.coloring import ColoringState
        from repro.graph.dag import PairGraph
        from repro.serve.sessions import SessionRegistry
        from repro.similarity.batch import TokenIndex

        before = (
            construction.blocked_dominance_lists,
            topo.topological_layers,
            matching.minimum_path_cover,
            platform.weighted_majority_vote,
            ColoringState.apply_answer,
            PairGraph.descendant_mask,
            CrowdSession.hits,
            TokenIndex.extend,
            SessionRegistry._restore_resolver,
        )
        run_mutation_selftest(seed=0)
        after = (
            construction.blocked_dominance_lists,
            topo.topological_layers,
            matching.minimum_path_cover,
            platform.weighted_majority_vote,
            ColoringState.apply_answer,
            PairGraph.descendant_mask,
            CrowdSession.hits,
            TokenIndex.extend,
            SessionRegistry._restore_resolver,
        )
        assert before == after

    def test_stale_index_is_caught_only_by_the_stream_step(self):
        """The stream-equivalence step has exclusive teeth for this mutant.

        Under ``stream-stale-index`` the full battery must scream *and* the
        failure must come from the stream check: the same battery with the
        stream step disabled sails through, because no other check ever
        exercises ``TokenIndex.extend``.
        """
        from repro.exceptions import VerificationError

        mutant = next(m for m in MUTANTS if m.name == "stream-stale-index")
        with mutant.activate():
            with pytest.raises(VerificationError, match="stream-equivalence"):
                run_detection_battery(seed=0)
        # The serve step is off too: it hosts the same resolver, so the
        # stale-index corruption hits server and reference runs alike and
        # only the stream step can see it.
        with mutant.activate():
            run_detection_battery(
                seed=0, include_stream=False, include_serve=False
            )

    def test_serve_leak_is_caught_only_by_the_serve_step(self):
        """Cross-session state leaks are invisible below the registry.

        ``serve-cross-session-leak`` makes the registry hand a restored
        session another live tenant's resolver — every single-session
        check still passes, so only the serve-equivalence step (which
        interleaves tenants through evict/restore cycles) can catch it.
        """
        from repro.exceptions import VerificationError

        mutant = next(
            m for m in MUTANTS if m.name == "serve-cross-session-leak"
        )
        with mutant.activate():
            with pytest.raises(VerificationError, match="serve-equivalence"):
                run_detection_battery(seed=0)
        with mutant.activate():
            run_detection_battery(seed=0, include_serve=False)

    def test_plan_mutant_is_caught_only_by_the_plan_step(self):
        """Transparency violations are invisible to every other check.

        ``plan-changes-results`` makes ``apply_plan`` flip a semantic knob
        (epsilon) alongside the performance knobs.  Every other battery
        step runs with ``plan="off"`` and never routes through
        ``apply_plan``, so only the plan-transparency step — which
        compares planned runs (including adversarial plans) against the
        static baseline bit-for-bit — can catch it.
        """
        from repro.exceptions import VerificationError

        mutant = next(m for m in MUTANTS if m.name == "plan-changes-results")
        with mutant.activate():
            with pytest.raises(VerificationError, match="plan-transparency"):
                run_detection_battery(seed=0)
        with mutant.activate():
            run_detection_battery(seed=0, include_plan=False)

    def test_sparse_replay_skip_is_caught_only_by_the_join_step(self, monkeypatch):
        """Only the lopsided join tiling runs a sparse range tile with lo > 0.

        Whole-table sparse joins start at ``lo == 0`` and the battery's
        sharded runs stay below the ``auto`` crossover, so with the
        join-methods step stubbed out the battery must pass under the
        mutant.
        """
        from repro.exceptions import VerificationError
        from repro.verify import oracles

        mutant = next(
            m for m in MUTANTS if m.name == "sparse-range-replay-skip"
        )
        with mutant.activate():
            with pytest.raises(VerificationError, match="join-methods: sparse"):
                run_detection_battery(seed=0)
        monkeypatch.setattr(oracles, "check_join_methods", lambda *args: None)
        with mutant.activate():
            run_detection_battery(seed=0)

    def test_each_mutant_actually_changes_behavior(self):
        """Activating a mutant must make the pristine battery fail loudly."""
        for mutant in MUTANTS:
            with mutant.activate():
                with pytest.raises(Exception):  # noqa: B017 - any loud failure counts
                    run_detection_battery(seed=0)
