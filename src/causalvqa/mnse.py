"""Memory bank of scene vectors with exact nearest-neighbor extraction.

The bank stores clip-level scene vectors with provenance and answers
top-k nearest-scene queries by exact full scan, in the manner of a flat
index: a column view (float64 matrix, cached row norms, parent-id and
tie-rank columns) is built once per change, and all replaced rows of a
video are scored in one matrix product. Three refresh regimes:
F1 fills once and freezes; F2 refreshes per batch over a sliding window
of recent batches; F3 is F2 plus the batch's mixup scene rows. Neighbor
sourcing drives the substitution interventions (mnse_do) and their
random baseline (random_do).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .features import VideoQAInstance
from .nn_core import as_f64

Array = np.ndarray


class Metric(str, Enum):
    COSINE = "cosine"
    L2 = "l2"


class Regime(str, Enum):
    F1_STATIC = "f1"
    F2_DYNAMIC = "f2"
    F3_DYNAMIC_MIXUP = "f3"


class Target(str, Enum):
    CAUSAL = "causal"
    COMPLEMENT = "complement"


class RegimeError(RuntimeError):
    """Operation not allowed under the bank's refresh regime."""


class BankEntry(NamedTuple):
    vector: Array  # [bank_dim] float64
    video_id: str
    clip_index: int


class ScoredNeighbor(NamedTuple):
    entry: BankEntry
    score: float  # cosine similarity (higher is closer) or L2 distance (lower is closer)


@dataclass(frozen=True)
class NeighborQuery:
    vector: Array
    k: int = 1
    exclude_video_id: str | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


class _Block(NamedTuple):
    """Scenes added by one populate or push_batch call: a private read-only
    float64 matrix and entries whose vectors are its rows."""

    matrix: Array  # [n, bank_dim]
    rows: list[BankEntry]


class _Columns(NamedTuple):
    """Column view of the bank's entries, rebuilt once after each change."""

    rows: list[BankEntry]  # the read view, in entries() order
    matrix: Array  # [n, bank_dim] float64; the block itself when there is one
    norms: Array  # [n] row L2 norms
    parents: Array  # [n, p] part ids of each "+"-joined video_id, -1 when absent
    part_ids: dict[str, int]
    rank: Array  # [n] position in (video_id, clip_index) order: the tie rule
    pools: dict  # the last eligible() answer, {exclude_video_id: read-only indices}


def _build_columns(rows: list[BankEntry], blocks: list[Array], bank_dim: int) -> _Columns:
    """Columns over rows, the entries of the row-stacked blocks."""
    n = len(rows)
    if len(blocks) == 1:
        matrix = blocks[0]  # a single populate keeps one copy of each scene
    else:
        matrix = np.concatenate([np.empty((0, bank_dim))] + blocks)
    names = sorted({e.video_id for e in rows})
    name_index = {v: i for i, v in enumerate(names)}
    by_name = np.array([name_index[e.video_id] for e in rows], dtype=np.int64)
    parts = [v.split("+") for v in names]
    width = max(map(len, parts), default=1)
    part_ids: dict[str, int] = {}
    name_parents = np.array(
        [[part_ids.setdefault(p, len(part_ids)) for p in ps] + [-1] * (width - len(ps))
         for ps in parts],
        dtype=np.int64,
    ).reshape(len(names), width)
    order = np.lexsort((np.array([e.clip_index for e in rows], dtype=np.int64), by_name))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return _Columns(
        rows, matrix, np.linalg.norm(matrix, axis=1), name_parents[by_name], part_ids, rank, {}
    )


class MemoryBank:
    """Scene store with exact top-k queries and regime-gated refresh."""

    def __init__(
        self,
        bank_dim: int,
        metric: Metric = Metric.COSINE,
        regime: Regime = Regime.F1_STATIC,
        window: int = 8,
    ):
        if bank_dim <= 0:
            raise ValueError("bank_dim must be positive")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.bank_dim = bank_dim
        self.metric = Metric(metric)
        self.regime = Regime(regime)
        self.window = window
        self._base: list[_Block] = []
        self._batches: deque[list[_Block]] = deque(maxlen=window)
        self._frozen = False
        self._cols: _Columns | None = None

    def __len__(self) -> int:
        return sum(len(b.rows) for b in self._blocks())

    def _blocks(self) -> list[_Block]:
        return self._base + [b for batch in self._batches for b in batch]

    def entries(self) -> list[BankEntry]:
        return [e for b in self._blocks() for e in b.rows]

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _coerce(self, scenes: Iterable[tuple[Array, str, int]]) -> _Block:
        """Validated entries whose vectors are rows of one private read-only
        float64 copy, so a caller may reuse or change its arrays afterwards."""
        scenes = list(scenes)
        for vector, _, _ in scenes:
            if np.shape(vector) != (self.bank_dim,):
                raise ValueError(
                    f"scene vector shape {np.shape(vector)}, expected ({self.bank_dim},)"
                )
        matrix = np.array([v for v, _, _ in scenes], dtype=np.float64).reshape(-1, self.bank_dim)
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            _, video_id, clip_index = scenes[int(np.argmin(finite))]
            raise ValueError(f"scene vector for {video_id}:{clip_index} is non-finite")
        matrix.flags.writeable = False
        rows = [BankEntry(row, str(v), int(c)) for row, (_, v, c) in zip(matrix, scenes)]
        return _Block(matrix, rows)

    def populate(self, scenes: Iterable[tuple[Array, str, int]]) -> "MemoryBank":
        if self._frozen:
            raise RegimeError("bank is frozen; no further population allowed")
        self._base.append(self._coerce(scenes))
        self._cols = None
        return self

    def freeze(self) -> "MemoryBank":
        if self.regime is not Regime.F1_STATIC:
            raise RegimeError(f"freeze applies to the static regime, not {self.regime.value}")
        self._frozen = True
        return self

    def push_batch(
        self,
        scenes: Iterable[tuple[Array, str, int]],
        mixup_scenes: Iterable[tuple[Array, str, int]] | None = None,
    ) -> "MemoryBank":
        """Refresh with one batch; evicts batches older than the window."""
        if self.regime is Regime.F1_STATIC:
            raise RegimeError("per-batch refresh requires a dynamic regime")
        batch = [self._coerce(scenes)]
        if mixup_scenes is not None:
            if self.regime is not Regime.F3_DYNAMIC_MIXUP:
                raise RegimeError("mixup rows are stored only under the dynamic-mixup regime")
            batch.append(self._coerce(mixup_scenes))
        self._batches.append(batch)
        self._cols = None
        return self

    # -- queries -----------------------------------------------------------

    def _columns(self) -> _Columns:
        if self._cols is None:
            blocks = [b.matrix for b in self._blocks()]
            self._cols = _build_columns(self.entries(), blocks, self.bank_dim)
        return self._cols

    def eligible(self, exclude_video_id: str | None) -> Array:
        """Read-only indices of the entries a query excluding this video may
        return.

        Mixup rows carry compound provenance "a+b"; excluding either parent
        excludes the blend. The column view keeps the last answer, so the
        draws of one sample compute its pool once; a frozen bank thus holds
        one pool, not one per video.
        """
        cols = self._columns()
        if exclude_video_id not in cols.pools:
            code = None if exclude_video_id is None else cols.part_ids.get(exclude_video_id)
            if code is None:
                pool = np.arange(len(cols.rows))
            else:
                pool = np.flatnonzero((cols.parents != code).all(axis=1))
            pool.flags.writeable = False
            cols.pools.clear()
            cols.pools[exclude_video_id] = pool
        return cols.pools[exclude_video_id]

    def _pool(self, exclude_video_id: str | None) -> Array:
        """The eligible pool of a draw, which must not be empty."""
        pool = self.eligible(exclude_video_id)
        if not len(pool):
            raise ValueError(
                "memory bank is empty" if not len(self) else
                f"no eligible bank entries: all {len(self)} belong to {exclude_video_id!r}"
            )
        return pool

    def _ranked(self, queries: Array, k: int, pool: Array) -> tuple[Array, Array]:
        """Exact top-k of the pool for every query row, best first, ties
        broken by (video_id, clip_index). Returns bank indices and scores,
        both [n_queries, k].

        One scan scores all rows; each row then keeps the candidates at or
        inside its k-th key and orders only those.
        """
        cols = self._columns()
        if self.metric is Metric.COSINE:
            raw = queries @ cols.matrix.T
            denom = np.linalg.norm(queries, axis=1)[:, None] * cols.norms
            scores = np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0)[:, pool]
            keys = -scores
        else:
            members = cols.matrix[pool]
            scores = np.stack([np.linalg.norm(members - q, axis=1) for q in queries])
            keys = scores
        kth = np.partition(keys, k - 1, axis=1)[:, k - 1]
        rank = cols.rank[pool]
        top = np.empty((len(queries), k), dtype=np.int64)
        for i, row in enumerate(keys):
            cand = np.flatnonzero(row <= kth[i])
            top[i] = cand[np.lexsort((rank[cand], row[cand]))[:k]]
        return pool[top], np.take_along_axis(scores, top, axis=1)

    def topk(self, queries: Array, k: int, exclude_video_id: str | None = None) -> Array:
        """Bank indices of each query row's k nearest eligible scenes, best
        first, k clamped to the eligible count: [n_queries, k]."""
        if k < 1:
            raise ValueError("k must be >= 1")
        pool = self._pool(exclude_video_id)
        top, _ = self._ranked(as_f64(queries), min(k, len(pool)), pool)
        return top

    def pick(self, candidates: Array, rngs: Sequence[np.random.Generator]) -> Array:
        """One scene vector per generator, uniform among that row's
        candidates: candidates is [len(rngs), m] bank indices, or one [m]
        list every row shares. Returns [len(rngs), bank_dim]."""
        picks = [int(r.integers(0, candidates.shape[-1])) for r in rngs]
        if candidates.ndim == 1:
            return self._columns().matrix[candidates[picks]]
        return self._columns().matrix[candidates[np.arange(len(picks)), picks]]

    def draw(
        self,
        queries: Array,
        rngs: Sequence[np.random.Generator],
        exclude_video_id: str | None = None,
        k: int | None = None,
    ) -> Array:
        """One substitute scene per query row, chosen by that row's generator.

        With k, uniform among the row's k nearest eligible scenes (topk);
        without k, uniform among all eligible scenes.
        Returns the scene vectors, [n_queries, bank_dim].
        """
        if k is None:
            return self.pick(self._pool(exclude_video_id), rngs)
        return self.pick(self.topk(queries, k, exclude_video_id), rngs)

    def query_knn(self, q: NeighborQuery) -> list[ScoredNeighbor]:
        """Exact top-k by metric; ties broken by (video_id, clip_index)."""
        qv = as_f64(q.vector)
        if qv.shape != (self.bank_dim,):
            raise ValueError(f"query vector shape {qv.shape}, expected ({self.bank_dim},)")
        pool = self.eligible(q.exclude_video_id)
        if q.k > len(pool):
            raise ValueError(
                f"k={q.k} exceeds {len(pool)} eligible entries "
                f"(bank size {len(self)}, excluded video {q.exclude_video_id!r})"
            )
        top, scores = self._ranked(qv[None, :], q.k, pool)
        rows = self._columns().rows
        return [ScoredNeighbor(rows[i], float(s)) for i, s in zip(top[0], scores[0])]


def instance_scenes(
    instances: Sequence[VideoQAInstance],
) -> list[tuple[Array, str, int]]:
    """Flatten instances into (clip row, video_id, clip_index) scene tuples."""
    out = []
    for inst in instances:
        for c in range(inst.n_clips):
            out.append((inst.video[c], inst.video_id, c))
    return out


def _target_rows(
    video: Array, causal_mask: Array, bank: MemoryBank, target: Target
) -> tuple[Array, Array]:
    """A float64 copy of the video and the indices of its target rows."""
    video = as_f64(video).copy()
    if video.shape[1] != bank.bank_dim:
        raise ValueError(f"video rows have dim {video.shape[1]}, bank dim {bank.bank_dim}")
    mask = np.asarray(causal_mask, dtype=bool)
    return video, np.flatnonzero(mask if target is Target.CAUSAL else ~mask)


def mnse_do(
    video: Array,
    causal_mask: Array,
    bank: MemoryBank,
    target: Target,
    k: int = 1,
    seed: int = 0,
    exclude_video_id: str | None = None,
) -> Array:
    """Replace target-partition rows with sampled nearest-neighbor scenes.

    Each replaced row queries with itself and draws among its own k nearest
    scenes (k clamped to the eligible count) with its own seed; non-target
    rows are returned bit-identical.
    """
    video, rows = _target_rows(video, causal_mask, bank, target)
    if len(rows):
        rngs = [np.random.default_rng(seed * 100003 + int(idx)) for idx in rows]
        video[rows] = bank.draw(video[rows], rngs, exclude_video_id, k)
    return video


def random_do(
    video: Array,
    causal_mask: Array,
    bank: MemoryBank,
    target: Target,
    seed: int = 0,
    exclude_video_id: str | None = None,
) -> Array:
    """Baseline intervention: target rows replaced by uniform bank draws."""
    video, rows = _target_rows(video, causal_mask, bank, target)
    if len(rows):
        rng = np.random.default_rng(seed)
        video[rows] = bank.draw(video[rows], [rng] * len(rows), exclude_video_id)
    return video
