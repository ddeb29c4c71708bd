"""Host calibration: seeded micro-benchmarks -> a versioned cost profile.

A cost model is only as good as its coefficients, and coefficients are a
property of the *host* (interpreter, numpy build, cache sizes, core
count).  :func:`calibrate` measures each stage of
:data:`repro.plan.model.STAGES` on small seeded synthetic workloads at
two sizes, fits the affine model with
:func:`repro.plan.model.fit_affine`, and returns a
:class:`CalibrationProfile` — which :meth:`CalibrationProfile.save`
writes as canonical (sorted-key) JSON with an explicit schema
``version: 1``.  Unknown versions and structurally corrupt files are
rejected with :class:`~repro.exceptions.DataError`, mirroring the
snapshot discipline of :mod:`repro.stream.snapshot`.

When no calibrated profile exists the planner falls back to
:func:`default_profile` — documented order-of-magnitude CPython/numpy
coefficients that keep every decision sane (batch vectorization wins,
the naive/sparse join crossover exists) without claiming host fidelity;
``profile.calibrated`` records which kind a plan was built from.

The default on-disk location is ``~/.cache/repro/plan_profile.json``,
overridable with the ``REPRO_PLAN_PROFILE`` environment variable (read
at call time, so tests can point it at a temporary file).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..exceptions import ConfigurationError, DataError
from .model import STAGES, CostModel, fit_affine

#: Schema version of the profile file; bump on incompatible change.
PROFILE_VERSION = 1

#: Environment variable overriding the default profile path.
PROFILE_ENV = "REPRO_PLAN_PROFILE"

#: Documented uncalibrated fallback coefficients (seconds).  Order of
#: magnitude for CPython 3.10+ with numpy on one commodity core; they are
#: deliberately conservative and only need to rank alternatives sanely —
#: run ``repro plan --calibrate`` for host-faithful numbers.
DEFAULT_COEFFICIENTS: dict[str, dict[str, float]] = {
    "join_naive": {"c0": 0.0, "c1": 1.0e-7},
    "join_prefix": {"c0": 5.0e-4, "c1": 4.0e-7},
    "join_sparse": {"c0": 2.0e-3, "c1": 3.0e-7},
    "vectorize_batch": {"c0": 1.0e-3, "c1": 3.0e-8},
    "vectorize_scalar": {"c0": 0.0, "c1": 4.0e-6},
    "construct": {"c0": 1.0e-4, "c1": 2.0e-9},
    "selection_scratch": {"c0": 0.0, "c1": 2.0e-7},
    "selection_incremental": {"c0": 0.0, "c1": 1.0e-6},
    "shard_dispatch": {"c0": 5.0e-4, "c1": 2.0e-4},
    "stream_extend": {"c0": 1.0e-4, "c1": 3.0e-7},
}


def default_profile_path() -> Path:
    """Where the calibrated profile lives (env override wins)."""
    override = os.environ.get(PROFILE_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro" / "plan_profile.json"


def host_fingerprint() -> dict[str, Any]:
    """Enough host identity to notice a profile moved machines."""
    import platform

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


@dataclass(frozen=True)
class CalibrationProfile:
    """A versioned set of per-stage cost coefficients for one host.

    Attributes:
        coefficients: ``stage -> {"c0": float, "c1": float}`` for every
            stage in :data:`~repro.plan.model.STAGES`.
        host: the fingerprint of the machine that produced the numbers
            (``None`` for the uncalibrated defaults).
        calibrated: whether the coefficients were measured (vs defaults).
        meta: free-form provenance (seed, repeats, feedback fold count).
    """

    coefficients: dict[str, dict[str, float]]
    host: dict[str, Any] | None = None
    calibrated: bool = False
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [stage for stage in STAGES if stage not in self.coefficients]
        if missing:
            raise DataError(f"profile is missing stages: {missing}")
        for stage, coeffs in self.coefficients.items():
            if stage not in STAGES:
                raise DataError(f"profile names unknown stage {stage!r}")
            if not isinstance(coeffs, dict) or not {"c0", "c1"} <= set(coeffs):
                raise DataError(
                    f"stage {stage!r} coefficients must be a dict with "
                    f"'c0' and 'c1', got {coeffs!r}"
                )

    def model(self, stage: str) -> CostModel:
        coeffs = self.coefficients[stage]
        return CostModel(stage, coeffs["c0"], coeffs["c1"])

    def predict(self, stage: str, units: float) -> float:
        """Predicted seconds for *units* work units of *stage*."""
        return self.model(stage).predict(units)

    # -------------------------------------------------------------- #
    # Codec
    # -------------------------------------------------------------- #

    def to_payload(self) -> dict[str, Any]:
        return {
            "version": PROFILE_VERSION,
            "calibrated": bool(self.calibrated),
            "host": self.host,
            "coefficients": {
                stage: {
                    "c0": float(coeffs["c0"]),
                    "c1": float(coeffs["c1"]),
                }
                for stage, coeffs in sorted(self.coefficients.items())
            },
            "meta": dict(self.meta),
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "CalibrationProfile":
        if not isinstance(payload, dict):
            raise DataError(
                f"profile payload must be an object, got {type(payload).__name__}"
            )
        version = payload.get("version")
        if version != PROFILE_VERSION:
            raise DataError(
                f"unknown plan-profile version {version!r} "
                f"(this build reads version {PROFILE_VERSION})"
            )
        coefficients = payload.get("coefficients")
        if not isinstance(coefficients, dict):
            raise DataError("profile 'coefficients' must be an object")
        return cls(
            coefficients=coefficients,
            host=payload.get("host"),
            calibrated=bool(payload.get("calibrated", False)),
            meta=dict(payload.get("meta", {})),
        )

    def save(self, path: str | Path) -> Path:
        """Write the profile as canonical (sorted-key) JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        return path


def load_profile(path: str | Path) -> CalibrationProfile:
    """Read a profile file; corrupt JSON or bad schema raise DataError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise DataError(f"cannot read plan profile {path}: {error}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise DataError(
            f"plan profile {path} is not valid JSON: {error}"
        ) from None
    return CalibrationProfile.from_payload(payload)


def default_profile() -> CalibrationProfile:
    """The documented uncalibrated fallback profile."""
    return CalibrationProfile(
        coefficients={
            stage: dict(coeffs) for stage, coeffs in DEFAULT_COEFFICIENTS.items()
        },
        host=None,
        calibrated=False,
        meta={"source": "defaults"},
    )


def resolve_profile(spec: str) -> CalibrationProfile:
    """The profile for a ``PowerConfig.plan`` spec.

    ``"auto"`` loads the default-path profile when one exists and falls
    back to :func:`default_profile`; any other string is a path and must
    load (so a typo'd path fails loudly instead of silently planning from
    defaults).
    """
    if spec == "off":
        raise ConfigurationError("plan='off' has no profile to resolve")
    if spec == "auto":
        path = default_profile_path()
        if path.is_file():
            return load_profile(path)
        return default_profile()
    return load_profile(spec)


# --------------------------------------------------------------------------- #
# Micro-benchmarks
# --------------------------------------------------------------------------- #


def _synthetic_texts(rng, rows: int, low: int = 4, high: int = 12) -> list[str]:
    """Deterministic record texts over a 400-word synthetic vocabulary."""
    vocabulary = [f"tok{index:03d}" for index in range(400)]
    texts = []
    for _ in range(rows):
        count = int(rng.integers(low, high + 1))
        words = rng.choice(len(vocabulary), size=count, replace=False)
        texts.append(" ".join(vocabulary[w] for w in sorted(words)))
    return texts


def _time_best(fn, repeats: int) -> float:
    fn()  # untimed warmup: first-call numpy/import costs are not marginal costs
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _noop_units(task: int) -> int:
    """Module-level no-op task fn (picklable for the shard executor)."""
    return task


def calibrate(
    seed: int = 0, repeats: int = 3, fast: bool = False
) -> CalibrationProfile:
    """Measure every stage on this host and fit the affine models.

    Args:
        seed: drives every synthetic workload (results are deterministic
            up to timer noise).
        repeats: best-of-N timing per (stage, size) point.
        fast: shrink workloads for a <10s smoke calibration; the fitted
            coefficients are noisier but structurally valid.
    """
    import numpy as np

    from ..crowd.platform import PerfectCrowd
    from ..data.table import Table
    from ..graph.construction import blocked_dominance_lists
    from ..graph.dag import PairGraph
    from ..selection import SELECTORS
    from ..shard.executor import ShardExecutor
    from ..similarity.batch import (
        TokenIndex,
        batch_similarity_matrix,
        sparse_jaccard_join,
    )
    from ..similarity.join import _naive_join, _prefix_join
    from ..similarity.tokenize import word_tokens
    from ..similarity.vectors import SimilarityConfig, similarity_matrix
    from ..verify.oracles import monotone_truth
    from .model import UNIT_FORMULAS

    rng = np.random.default_rng(seed)
    samples: dict[str, list[tuple[float, float]]] = {stage: [] for stage in STAGES}

    def add(stage: str, units: float, fn) -> None:
        samples[stage].append((units, _time_best(fn, repeats)))

    # Candidate joins: token sets at two sizes.
    join_sizes = (80, 160) if fast else (150, 400)
    threshold = 0.2
    for rows in join_sizes:
        texts = _synthetic_texts(rng, rows)
        token_sets = [word_tokens(text) for text in texts]
        avg_tokens = sum(len(t) for t in token_sets) / max(1, len(token_sets))
        add(
            "join_naive",
            UNIT_FORMULAS["join_naive"](rows, avg_tokens),
            lambda ts=token_sets: _naive_join(ts, threshold),
        )
        add(
            "join_prefix",
            UNIT_FORMULAS["join_prefix"](rows, avg_tokens),
            lambda ts=token_sets: _prefix_join(ts, threshold),
        )
        add(
            "join_sparse",
            UNIT_FORMULAS["join_sparse"](rows, avg_tokens),
            lambda ts=token_sets: sparse_jaccard_join(ts, threshold),
        )
        # Token-index extension over the same texts: extend the second
        # half onto an index of the first half.
        half = rows // 2
        add(
            "stream_extend",
            UNIT_FORMULAS["stream_extend"](rows - half, avg_tokens),
            lambda t=texts, h=half: TokenIndex(t[:h], word_tokens).extend(t[h:]),
        )

    # Similarity vectors: batch substrate vs scalar reference.
    vector_sizes = (120, 300) if fast else (250, 700)
    attributes = ("a", "b", "c", "d")
    config = SimilarityConfig.uniform(len(attributes), function="bigram")
    for pair_count in vector_sizes:
        rows = pair_count + 1
        texts = _synthetic_texts(rng, rows, low=2, high=4)
        table = Table.from_rows(
            name="calibrate",
            attributes=attributes,
            rows=[
                tuple(f"{text} {column}" for column in attributes)
                for text in texts
            ],
        )
        pairs = [(index, index + 1) for index in range(pair_count)]
        units = UNIT_FORMULAS["vectorize_batch"](len(pairs), len(attributes))
        add(
            "vectorize_batch",
            units,
            lambda t=table, p=pairs: batch_similarity_matrix(t, p, config),
        )
        add(
            "vectorize_scalar",
            units,
            lambda t=table, p=pairs: similarity_matrix(t, p, config),
        )

    # Dominance construction over quantized random vectors.
    construct_sizes = (150, 400) if fast else (300, 900)
    for vertices in construct_sizes:
        vectors = rng.random((vertices, 4)).round(1)
        add(
            "construct",
            UNIT_FORMULAS["construct"](vertices),
            lambda v=vectors: blocked_dominance_lists(v, v),
        )

    # Selection loop: the power selector through both engines on a
    # monotone-truth perfect crowd (deterministic transcripts).
    selection_sizes = (24, 48) if fast else (40, 90)
    for vertices in selection_sizes:
        vectors = rng.random((vertices, 4)).round(1)
        pairs = [(2 * k, 2 * k + 1) for k in range(vertices)]
        vertex_truth = monotone_truth(vectors)
        truth = {pair: vertex_truth[v] for v, pair in enumerate(pairs)}

        def run_selection(incremental: bool, v=vectors, p=pairs, t=truth):
            graph = PairGraph(p, v)
            session = PerfectCrowd(t).session()
            SELECTORS["power"](seed=seed, incremental=incremental).run(
                graph, session
            )

        add(
            "selection_incremental",
            UNIT_FORMULAS["selection_incremental"](vertices),
            lambda v=vertices: run_selection(True),
        )
        add(
            "selection_scratch",
            UNIT_FORMULAS["selection_scratch"](vertices),
            lambda v=vertices: run_selection(False),
        )

    # Shard executor dispatch overhead (inline mode: pure bookkeeping).
    for tasks in (8, 32):
        add(
            "shard_dispatch",
            UNIT_FORMULAS["shard_dispatch"](tasks),
            lambda n=tasks: ShardExecutor(workers=0).run(
                _noop_units, list(range(n))
            ),
        )

    coefficients = {}
    for stage, points in samples.items():
        c0, c1 = fit_affine(points)
        coefficients[stage] = {"c0": c0, "c1": c1}
    return CalibrationProfile(
        coefficients=coefficients,
        host=host_fingerprint(),
        calibrated=True,
        meta={"seed": seed, "repeats": repeats, "fast": bool(fast)},
    )


__all__ = [
    "DEFAULT_COEFFICIENTS",
    "PROFILE_ENV",
    "PROFILE_VERSION",
    "CalibrationProfile",
    "calibrate",
    "default_profile",
    "default_profile_path",
    "host_fingerprint",
    "load_profile",
    "resolve_profile",
]
