"""Tests for the candidate-pair similarity join (the §7.1 pruning step)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Table
from repro.exceptions import ConfigurationError
from repro.similarity import (
    AUTO_PREFIX_CROSSOVER,
    similar_pairs,
    similar_pairs_edit,
    similar_pairs_range,
    top_k_pairs,
)
from repro.similarity.join import resolve_join_method

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
ROW = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)
#: Rows that may tokenize to the empty set (jaccard(∅, ∅) == 1).
ROW_OR_EMPTY = st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join)


def make_table(rows):
    return Table.from_rows("t", ("text",), [(row,) for row in rows])


class TestSimilarPairs:
    def test_identical_records_always_join(self):
        table = make_table(["alpha beta", "alpha beta", "gamma"])
        assert (0, 1) in similar_pairs(table, 0.9)

    def test_threshold_excludes_dissimilar(self):
        table = make_table(["alpha beta", "gamma delta"])
        assert similar_pairs(table, 0.5) == []

    def test_pairs_are_canonical_and_sorted(self, small_table):
        pairs = similar_pairs(small_table, 0.3)
        assert pairs == sorted(pairs)
        assert all(i < j for i, j in pairs)

    def test_invalid_threshold(self, small_table):
        with pytest.raises(ConfigurationError):
            similar_pairs(small_table, 0.0)
        with pytest.raises(ConfigurationError):
            similar_pairs(small_table, 1.5)

    def test_invalid_method(self, small_table):
        with pytest.raises(ConfigurationError):
            similar_pairs(small_table, 0.5, method="magic")

    def test_qgram_tokens_mode(self, small_table):
        pairs = similar_pairs(small_table, 0.4, tokens="qgram")
        assert all(i < j for i, j in pairs)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(ROW, min_size=2, max_size=25), st.floats(min_value=0.1, max_value=0.9))
    def test_prefix_join_equals_naive(self, rows, threshold):
        """The prefix-filter join must report exactly the naive join's pairs."""
        table = make_table(rows)
        naive = similar_pairs(table, threshold, method="naive")
        prefix = similar_pairs(table, threshold, method="prefix")
        assert naive == prefix

    def test_prefix_join_on_small_table(self, small_table):
        for threshold in (0.2, 0.4, 0.6):
            assert similar_pairs(small_table, threshold, method="naive") == similar_pairs(
                small_table, threshold, method="prefix"
            )


class TestSimilarPairsRange:
    """The range-restricted join that powers the sharded parallel join.

    Contract: pair ``(a, b)`` is owned by its higher record id ``b``, so
    the union of ``similar_pairs_range`` over any disjoint covering tiling
    of ``[0, n)`` equals ``similar_pairs`` pair for pair.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(ROW_OR_EMPTY, min_size=2, max_size=25),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=1, max_value=5),
        st.sampled_from(["naive", "prefix", "sparse"]),
    )
    def test_tiling_reproduces_full_join(self, rows, threshold, slices, method):
        from repro.shard import vertex_slices

        table = make_table(rows)
        reference = similar_pairs(table, threshold, method="naive")
        union = []
        for lo, hi in vertex_slices(len(table), slices):
            union.extend(
                similar_pairs_range(table, threshold, lo, hi, method=method)
            )
        assert sorted(union) == reference
        assert len(union) == len(set(union)), "tiles must be disjoint"

    def test_uneven_tiling_and_qgram_tokens(self, small_table):
        n = len(small_table)
        cuts = [0, 1, n // 3, n // 2, n]  # deliberately lopsided tiling
        for tokens in ("word", "qgram"):
            reference = similar_pairs(
                small_table, 0.3, tokens=tokens, method="prefix"
            )
            union = []
            for lo, hi in zip(cuts, cuts[1:]):
                union.extend(
                    similar_pairs_range(
                        small_table, 0.3, lo, hi, tokens=tokens, method="prefix"
                    )
                )
            assert sorted(union) == reference

    @pytest.mark.parametrize("method", ["naive", "prefix", "sparse"])
    def test_empty_token_sets_pair_across_a_tile_boundary(self, method):
        # Records 1 and 3 tokenize to the empty set; jaccard(∅, ∅) == 1,
        # so (1, 3) survives any threshold — and the tile starting at 2
        # only finds it if the replay of records before lo remembers 1.
        table = make_table(["alpha beta", "", "alpha beta gamma", "", "beta"])
        reference = similar_pairs(table, 0.5, method="naive")
        assert (1, 3) in reference
        union = []
        for lo, hi in ((0, 2), (2, 4), (4, 5)):
            union.extend(similar_pairs_range(table, 0.5, lo, hi, method=method))
        assert sorted(union) == reference

    def test_range_owns_pairs_by_higher_id(self, small_table):
        lo, hi = 10, 20
        pairs = similar_pairs_range(small_table, 0.3, lo, hi, method="naive")
        assert all(lo <= j < hi and i < j for i, j in pairs)

    def test_empty_range_and_validation(self, small_table):
        assert similar_pairs_range(small_table, 0.3, 5, 5) == []
        with pytest.raises(ConfigurationError):
            similar_pairs_range(small_table, 0.3, 3, 2)
        with pytest.raises(ConfigurationError):
            similar_pairs_range(small_table, 0.3, 0, len(small_table) + 1)
        with pytest.raises(ConfigurationError):
            similar_pairs_range(small_table, 0.0, 0, 1)
        with pytest.raises(ConfigurationError):
            similar_pairs_range(small_table, 0.3, 0, 1, method="magic")
        with pytest.raises(ConfigurationError):
            similar_pairs_range(small_table, 0.3, 0, 1, tokens="byte")

    def test_auto_resolves_by_table_size(self, small_table, tmp_path, monkeypatch):
        from repro.plan import hooks

        # No calibrated profile: the static crossover decides.
        monkeypatch.setenv("REPRO_PLAN_PROFILE", str(tmp_path / "absent.json"))
        hooks.clear_cache()
        # small_table (60 rows) is below the crossover: auto must be naive.
        assert len(small_table) <= AUTO_PREFIX_CROSSOVER
        assert resolve_join_method(small_table, "word", "auto") == "naive"
        assert similar_pairs_range(
            small_table, 0.3, 0, len(small_table), method="auto"
        ) == similar_pairs_range(
            small_table, 0.3, 0, len(small_table), method="naive"
        )
        # Above the crossover auto leaves the naive scan for the sparse join.
        big = make_table(
            [f"{WORDS[i % 7]} {WORDS[(i * 3) % 7]} r{i % 40}" for i in range(150)]
        )
        assert len(big) > AUTO_PREFIX_CROSSOVER
        assert resolve_join_method(big, "word", "auto") == "sparse"
        assert resolve_join_method(big, "word", "prefix") == "prefix"
        assert similar_pairs_range(
            big, 0.3, 40, 150, method="auto"
        ) == similar_pairs_range(big, 0.3, 40, 150, method="sparse")


class TestTopKPairs:
    def test_returns_k_most_similar(self):
        table = make_table(["alpha beta", "alpha beta", "alpha", "zeta"])
        top = top_k_pairs(table, 2)
        assert len(top) == 2
        assert top[0][0] >= top[1][0]
        assert top[0][1] == (0, 1)

    def test_k_larger_than_pairs(self):
        table = make_table(["alpha", "beta"])
        assert len(top_k_pairs(table, 10)) == 1

    def test_invalid_k(self, small_table):
        with pytest.raises(ConfigurationError):
            top_k_pairs(small_table, 0)


class TestSimilarPairsEdit:
    def test_identical_records_join(self):
        table = make_table(["alpha beta", "alpha beta"])
        assert similar_pairs_edit(table, 0.9) == [(0, 1)]

    def test_threshold_excludes(self):
        table = make_table(["alpha beta", "zeta"])
        assert similar_pairs_edit(table, 0.8) == []

    def test_matches_naive_edit_similarity(self, small_table):
        from repro.similarity import edit_similarity

        threshold = 0.6
        got = similar_pairs_edit(small_table, threshold, prefilter_overlap=0.0)
        texts = [small_table.record_text(r.record_id) for r in small_table]
        expected = [
            (i, j)
            for i in range(len(texts))
            for j in range(i + 1, len(texts))
            if edit_similarity(texts[i], texts[j]) >= threshold
        ]
        assert got == expected

    def test_prefilter_preserves_high_threshold_pairs(self, small_table):
        strict = similar_pairs_edit(small_table, 0.7, prefilter_overlap=0.0)
        filtered = similar_pairs_edit(small_table, 0.7, prefilter_overlap=0.05)
        # The loose token prefilter may only drop token-disjoint pairs.
        assert set(filtered) <= set(strict)
        assert len(filtered) >= len(strict) * 0.9

    def test_invalid_threshold(self, small_table):
        with pytest.raises(ConfigurationError):
            similar_pairs_edit(small_table, 0.0)
