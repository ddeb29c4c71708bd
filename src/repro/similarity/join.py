"""Candidate-pair generation: the pruning step of §7.1.

"We compute a similarity score for each pair of records by Jaccard and prune
pairs whose similarity scores are below [tau]."  For small tables the naive
quadratic scan is fine; above a measured crossover we use the numpy
inverted-list join (:func:`repro.similarity.batch.sparse_jaccard_join`) —
the similarity-join family behind the pruning step in the cited prior work
(CrowdER et al.).  A prefix-filtered join stays available as an explicit
choice.  Every method has a ``[lo, hi)`` range form
(:func:`similar_pairs_range`), so the sharded resolver tiles the same
kernel the serial path runs.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from collections.abc import Callable, Sequence

from ..data.ground_truth import Pair
from ..data.table import Table
from ..exceptions import ConfigurationError
from ..obs import instrument as obs_instrument
from .edit import edit_distance_within
from .jaccard import jaccard
from .tokenize import qgram_tokens, word_tokens

#: Row count above which ``method="auto"`` leaves the quadratic naive scan
#: for the sparse inverted-list join — the documented **uncalibrated
#: fallback**.  (The name is historical; it stays because external tools
#: import it.)
#:
#: Set from a sweep of the naive vs the sparse join on restaurant
#: prefixes at the default pruning threshold (0.2): join time only (token
#: sets prebuilt), methods interleaved, median of 21 runs per point (41
#: near the crossover, 5 at 858 rows), one core of a 2-CPU x86-64 host,
#: Python 3.11, numpy 2.4.  Naive/sparse time ratio (above 1: sparse wins):
#:
#: ======  ====  ====  ====  ====  ====  ====  ====  ====  ====  ====
#: rows      25    50    75    85    90   100   150   200   300   858
#: word    0.32  0.62  0.94  0.92  1.00  1.24  1.52  1.99  3.42  6.80
#: ======  ====  ====  ====  ====  ====  ====  ====  ====  ====  ====
#:
#: Word tokens (the default) break even at ~90 rows (a rerun with 41 runs
#: per point read 0.88 at 85, 0.93 at 90, 1.05 at 95), which sets this
#: constant.  q-gram tokens carry more tokens per record and break even
#: earlier, at ~30 rows (0.86 at 25, 1.16 at 35, 3.11 at 100, 12.6 at
#: 858); the static rule keeps the word-token point.  The prefix join is
#: not a candidate: on word tokens it leads only between ~75 and ~110
#: rows (by <= 0.3 ms), sparse beats it from 150 rows on (3.4x at 858),
#: and on q-grams it is the slowest of the three at every size.
#:
#: When a calibrated host profile exists (``repro plan --calibrate``),
#: ``"auto"`` asks the planner instead
#: (:func:`repro.plan.hooks.planned_join_method`) and this constant is
#: never consulted.  Callers can always force a method explicitly
#: (``PowerConfig.join_method``).
AUTO_PREFIX_CROSSOVER = 90

#: The join strategies accepted by :func:`similar_pairs`.
JOIN_METHODS = ("auto", "naive", "prefix", "sparse")


def _record_tokens(table: Table, use_qgrams: bool) -> list[frozenset[str]]:
    if use_qgrams:
        return [qgram_tokens(table.record_text(r.record_id)) for r in table]
    return [word_tokens(table.record_text(r.record_id)) for r in table]


def _resolve_auto(
    rows: int, token_sets: Callable[[], Sequence[frozenset[str]]]
) -> str:
    """The concrete method behind ``"auto"``: calibrated when possible.

    With a calibrated host profile on disk the planner prices the naive
    scan against the sparse join for this row/token shape; otherwise the
    static :data:`AUTO_PREFIX_CROSSOVER` row count decides.  The serial
    join, :func:`similar_pairs_range` and the sharded resolver all resolve
    ``"auto"`` here, so the serial and sharded paths always agree.
    *token_sets* is called only when the planner needs the average set
    size, so the static rule tokenizes nothing.
    """
    from ..plan import hooks as plan_hooks

    if plan_hooks.calibrated_profile() is not None:
        avg_tokens = sum(map(len, token_sets())) / max(1, rows)
        planned = plan_hooks.planned_join_method(rows, avg_tokens)
        if planned is not None:
            return planned
    return "sparse" if rows > AUTO_PREFIX_CROSSOVER else "naive"


def resolve_join_method(table: Table, tokens: str, method: str) -> str:
    """The concrete join *method* names for *table* (``"auto"`` resolved)."""
    if method != "auto":
        return method
    return _resolve_auto(
        len(table), lambda: _record_tokens(table, use_qgrams=(tokens == "qgram"))
    )


def _run_join(
    token_sets: Sequence[frozenset[str]],
    threshold: float,
    method: str,
    lo: int = 0,
    hi: int | None = None,
) -> set[Pair]:
    if method == "naive":
        return _naive_join(token_sets, threshold, lo=lo, hi=hi)
    if method == "prefix":
        return _prefix_join(token_sets, threshold, lo=lo, hi=hi)
    if method == "sparse":
        from .batch import sparse_jaccard_join

        return sparse_jaccard_join(token_sets, threshold, lo=lo, hi=hi)
    raise ConfigurationError(f"unknown join method {method!r}")


def similar_pairs(
    table: Table,
    threshold: float,
    tokens: str = "word",
    method: str = "auto",
) -> list[Pair]:
    """All record pairs whose record-level Jaccard is ``>= threshold``.

    Args:
        table: the input table.
        threshold: record-level Jaccard pruning bound ``tau`` (paper uses 0.3
            on ACMPub and 0.2 elsewhere).
        tokens: ``"word"`` (default) or ``"qgram"`` token sets.
        method: ``"naive"`` forces the quadratic scan, ``"prefix"`` forces the
            prefix-filter join, ``"sparse"`` forces the inverted-list numpy
            join (:func:`repro.similarity.batch.sparse_jaccard_join`), and
            ``"auto"`` picks naive or sparse (calibrated profile, else by
            table size against :data:`AUTO_PREFIX_CROSSOVER`).

    Returns:
        Canonically ordered pairs, sorted for determinism.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
    if tokens not in ("word", "qgram"):
        raise ConfigurationError(f"tokens must be 'word' or 'qgram', got {tokens!r}")
    if method not in JOIN_METHODS:
        raise ConfigurationError(f"unknown join method {method!r}")
    if len(table) < 2:  # explicit empty/singleton fast path: no allocation
        return []
    obs = obs_instrument.current()
    with obs.tracer.span(
        "join.similar_pairs", method=method, records=len(table)
    ) as span:
        token_sets = _record_tokens(table, use_qgrams=(tokens == "qgram"))
        if method == "auto":
            method = _resolve_auto(len(token_sets), lambda: token_sets)
            span.set_attribute("method", method)
        pairs = _run_join(token_sets, threshold, method)
        span.set_attribute("pairs", len(pairs))
    if obs.metrics:
        obs.registry.counter(
            "repro_join_candidate_pairs_total",
            "candidate pairs emitted by the pruning join",
            method=method,
        ).inc(len(pairs))
    return sorted(pairs)


def similar_pairs_range(
    table: Table,
    threshold: float,
    lo: int,
    hi: int,
    tokens: str = "word",
    method: str = "auto",
) -> list[Pair]:
    """The slice of :func:`similar_pairs` owned by probe records ``[lo, hi)``.

    Every candidate pair ``(a, b)`` with ``a < b`` is *owned* by its higher
    record id ``b``; this returns exactly the pairs whose owner falls in
    ``[lo, hi)``.  Tiling the record range therefore tiles the full join
    output — the union over disjoint covering ranges equals
    ``similar_pairs(table, threshold, ...)`` pair for pair, because every
    surviving pair is verified with the same exact Jaccard comparison and
    the prefix filter admits no false negatives for any probe schedule.

    This is the work unit of the sharded resolver's parallel candidate
    join.  A range task of the ``"prefix"`` or ``"sparse"`` join replays
    the (cheap) index insertions for records before *lo* and probes only
    its own records, so per-task overhead is the tokenization plus
    posting-list appends — small next to the candidate verification it
    parallelizes.  ``"auto"`` resolves exactly as in :func:`similar_pairs`.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
    if tokens not in ("word", "qgram"):
        raise ConfigurationError(f"tokens must be 'word' or 'qgram', got {tokens!r}")
    if not 0 <= lo <= hi <= len(table):
        raise ConfigurationError(
            f"range [{lo}, {hi}) escapes the {len(table)}-record table"
        )
    if method not in JOIN_METHODS:
        raise ConfigurationError(f"unknown join method {method!r}")
    if len(table) < 2 or lo == hi:
        return []
    token_sets = _record_tokens(table, use_qgrams=(tokens == "qgram"))
    if method == "auto":
        method = _resolve_auto(len(token_sets), lambda: token_sets)
    return sorted(_run_join(token_sets, threshold, method, lo=lo, hi=hi))


def _naive_join(
    token_sets: Sequence[frozenset[str]],
    threshold: float,
    lo: int = 0,
    hi: int | None = None,
) -> set[Pair]:
    pairs: set[Pair] = set()
    n = len(token_sets)
    hi = n if hi is None else hi
    for j in range(lo, hi):
        tokens_j = token_sets[j]
        for i in range(j):
            if jaccard(token_sets[i], tokens_j) >= threshold:
                pairs.add((i, j))
    return pairs


def _prefix_join(
    token_sets: Sequence[frozenset[str]],
    threshold: float,
    lo: int = 0,
    hi: int | None = None,
) -> set[Pair]:
    """Prefix-filtered self-join for Jaccard.

    For Jaccard(a, b) >= t, the sets must share a token within the first
    ``|a| - ceil(t * |a|) + 1`` tokens when both sets are ordered by a global
    token order (rarest first).  We index those prefixes and verify only the
    colliding pairs.

    With a ``[lo, hi)`` probe range, records before *lo* are only
    *inserted* (their prefix tokens are appended to the index, rebuilding
    the exact index state the serial loop would have at record *lo*) and
    records in the range are probed and inserted as usual — so the range's
    output is exactly the serial join's pairs owned by those records.
    """
    hi = len(token_sets) if hi is None else hi
    frequency: Counter[str] = Counter()
    for tokens in token_sets:
        frequency.update(tokens)
    # Rarest-first global order; ties broken lexically for determinism.
    order = {
        token: rank
        for rank, (token, _) in enumerate(
            sorted(frequency.items(), key=lambda item: (item[1], item[0]))
        )
    }
    sorted_tokens = [sorted(tokens, key=order.__getitem__) for tokens in token_sets]

    index: dict[str, list[int]] = defaultdict(list)
    pairs: set[Pair] = set()
    empties: list[int] = []
    for record_id, tokens in enumerate(sorted_tokens[:hi]):
        size = len(tokens)
        if size == 0:
            # jaccard(∅, ∅) == 1.0: empty records pair among themselves.
            if record_id >= lo:
                pairs.update((other, record_id) for other in empties)
            empties.append(record_id)
            continue
        prefix_len = size - math.ceil(threshold * size) + 1
        if record_id < lo:
            # Replay: index state only, no probing (cheap appends).
            for token in tokens[:prefix_len]:
                index[token].append(record_id)
            continue
        candidates: set[int] = set()
        for token in tokens[:prefix_len]:
            candidates.update(index[token])
            index[token].append(record_id)
        my_set = token_sets[record_id]
        for other in candidates:
            other_set = token_sets[other]
            # Length filter: |b| >= t * |a| is necessary for Jaccard >= t.
            if len(other_set) < threshold * size or size < threshold * len(other_set):
                continue
            if jaccard(my_set, other_set) >= threshold:
                pairs.add((other, record_id))
    return pairs


def similar_pairs_edit(
    table: Table,
    threshold: float,
    prefilter_overlap: float = 0.05,
) -> list[Pair]:
    """Record pairs whose record-level *edit similarity* is ``>= threshold``.

    Section 3.1 allows either Jaccard or edit similarity as the pruning
    score.  Edit similarity on whole records is expensive, so candidates
    are prefiltered: ``EDS(a, b) >= t`` bounds the length gap by
    ``(1 - t) * max(|a|, |b|)``, and any surviving pair still shares tokens
    unless the strings are short — the token prefilter (*prefilter_overlap*
    record-level Jaccard) is intentionally loose and only exists to skip
    hopeless pairs before the banded edit-distance verification.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
    texts = [table.record_text(record.record_id) for record in table]
    lengths = [len(text) for text in texts]
    candidates = (
        _prefix_join(_record_tokens(table, use_qgrams=False), prefilter_overlap)
        if prefilter_overlap > 0
        else {(i, j) for i in range(len(table)) for j in range(i + 1, len(table))}
    )
    pairs: list[Pair] = []
    for i, j in sorted(candidates):
        longest = max(lengths[i], lengths[j])
        if longest == 0:
            pairs.append((i, j))
            continue
        max_distance = int((1.0 - threshold) * longest)
        if abs(lengths[i] - lengths[j]) > max_distance:
            continue
        if edit_distance_within(texts[i], texts[j], max_distance) is not None:
            pairs.append((i, j))
    return pairs


def top_k_pairs(table: Table, k: int, tokens: str = "word") -> list[tuple[float, Pair]]:
    """The *k* most similar record pairs by record-level Jaccard.

    A convenience for exploratory use and for tests that need a small, dense
    pair set regardless of threshold tuning.
    """
    if k <= 0:
        raise ConfigurationError(f"k must be positive, got {k}")
    token_sets = _record_tokens(table, use_qgrams=(tokens == "qgram"))
    heap: list[tuple[float, Pair]] = []
    n = len(token_sets)
    for i in range(n):
        for j in range(i + 1, n):
            score = jaccard(token_sets[i], token_sets[j])
            if len(heap) < k:
                heapq.heappush(heap, (score, (i, j)))
            elif score > heap[0][0]:
                heapq.heapreplace(heap, (score, (i, j)))
    return sorted(heap, reverse=True)
