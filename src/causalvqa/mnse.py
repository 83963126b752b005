"""Memory bank of scene vectors with exact nearest-neighbor extraction.

The bank takes clip-level scene vectors with provenance as Scenes blocks
(matrix, video ids, id codes, clip indices) and keeps its live rows as
one set of columns in bank order: a read-only float64 matrix, clip
indices, and each row's code into a table of only the ids the rows use.
A push is one concatenation that drops the evicted batch's rows. Row
norms, parent part ids and tie ranks are derived on first use and kept
until the next change, with Python work per id, never per row. Top-k
nearest-scene queries are answered by exact full scan, in the manner of
a flat index: any number of query rows, each with its own excluded
video, is ranked in one pass of fixed-size row chunks, one matrix
product and one top-k selection per chunk, no loop over rows. Three
refresh regimes: F1 fills once and freezes; F2 refreshes per batch over
a sliding window of recent batches; F3 is F2 plus the batch's mixup
scene rows. Neighbor sourcing drives the substitution interventions
(mnse_do) and their random baseline (random_do). candidates builds the
rows a set of draws picks among: each query row's exact k-nearest set
in tie-rank order (topk), or each excluded video's pool of every scene
it may draw. Every draw, nearest or uniform, in a training step or in
the protocol, is one pick over such rows, each draw naming its row: all
its rows from one generator in one integers call. Only query_knn orders
its answers by key.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .features import VideoQAInstance
from .nn_core import as_f64

Array = np.ndarray

# Ranking keys per chunk of query rows (rows x bank size, times bank_dim for
# L2; at least one row): each float64 temporary of a ranking pass stays near
# 256 KB, so ranking many rows at once adds little to peak memory.
RANK_CHUNK = 1 << 15
_LARGEST = np.finfo(np.float64).max


class Metric(str, Enum):
    COSINE = "cosine"
    L2 = "l2"


class Regime(str, Enum):
    F1_STATIC = "f1"
    F2_DYNAMIC = "f2"
    F3_DYNAMIC_MIXUP = "f3"


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


class Scenes(NamedTuple):
    """Scene rows as columns: row i is clip clips[i] of video
    video_ids[codes[i]]. A bank takes each populate or push_batch call's
    scenes as one such block."""

    matrix: Array  # [n, bank_dim]
    video_ids: Sequence[str]
    codes: Array  # [n] int64 indices into video_ids
    clips: Array  # [n] int64 clip indices


def stacked_scenes(videos: Sequence[Array], video_ids: Sequence[str]) -> Scenes:
    """Every clip row of each [n_clips, dim] video as a scene of its id."""
    counts = [len(v) for v in videos]
    codes = np.repeat(np.arange(len(videos)), counts)
    starts = np.cumsum([0] + counts[:-1])
    matrix = np.concatenate(videos, dtype=np.float64) if len(videos) else np.empty((0, 0))
    return Scenes(
        _read_only(matrix), list(video_ids), codes, np.arange(len(codes)) - starts[codes]
    )


def _read_only(matrix: Array) -> Array:
    matrix.flags.writeable = False
    return matrix


class _TieRanks(NamedTuple):
    rank: Array  # [n] position in (video_id, clip_index) order: the tie rule
    order: Array  # [n] the rows in that order, the inverse of rank


def _first_k(keys: Array, k: Array, ties: _TieRanks) -> tuple[Array, Array]:
    """Bank indices and keys of each row's k[row] smallest keys, ties at the
    k-th key broken by tie rank, listed in tie-rank order and padded with -1
    and NaN to the largest k.

    A window of each row's smallest keys, one more than the largest k, gives
    the k-th key by a sort of its values. A row whose k-th key equals its
    window's last may tie with keys outside; the window then widens once,
    past every key at or below any row's k-th, which holds every tie.
    """
    n = keys.shape[1]
    rows = np.arange(len(keys))[:, None]
    width = int(k.max()) + 1
    for _ in range(2):
        if width < n:
            idx = np.argpartition(keys, width - 1, axis=1)[:, :width]
        else:
            idx = np.broadcast_to(np.arange(n), keys.shape)
        window = np.sort(keys[rows, idx], axis=1)
        kth = window[rows, k[:, None] - 1]
        if width >= n or (kth[:, 0] < window[:, -1]).all():
            break
        width = int(np.count_nonzero(keys <= kth, axis=1).max()) + 1
    idx = ties.order[np.sort(ties.rank[idx], axis=1)]
    window = keys[rows, idx]
    below, ties = window < kth, window == kth
    taken = below | ties & (np.cumsum(ties, axis=1) <= (k - below.sum(axis=1))[:, None])
    keep = np.arange(int(k.max())) < k[:, None]
    top = np.full(keep.shape, -1, dtype=np.int64)
    top[keep] = idx[taken]
    at = np.full(keep.shape, np.nan)
    at[keep] = window[taken]
    return top, at


class MemoryBank:
    """Scene store with exact top-k queries and regime-gated refresh.

    The live rows are one set of columns in bank order: the populated
    rows, then each live batch's scenes and mixup scenes. Row norms,
    parent part ids and tie ranks are derived from them on first use
    and kept until the next change."""

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
        self._matrix = _read_only(np.empty((0, bank_dim)))  # [n, bank_dim] float64
        self._codes = np.empty(0, dtype=np.int64)  # [n] each row's index into _ids
        self._clips = np.empty(0, dtype=np.int64)  # [n] clip indices
        self._ids: list[str] = []  # only the video ids the rows use
        self._part_ids: dict[str, int] = {}  # every id part the bank has seen
        self._id_parents = np.empty((0, 1), dtype=np.int64)  # [m, p] parts of _ids[:m]
        self._populated = 0  # rows ahead of the first batch's
        self._batch_rows: deque[int] = deque(maxlen=window)  # each live batch's row count
        self._frozen = False

    def __len__(self) -> int:
        return len(self._codes)

    def entries(self) -> list[BankEntry]:
        """Every scene in bank order; vectors are read-only rows of the
        bank's matrix."""
        ids = self._ids
        return [
            BankEntry(row, ids[c], clip)
            for row, c, clip in zip(self._matrix, self._codes.tolist(), self._clips.tolist())
        ]

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _validated(self, scenes: Scenes) -> Scenes:
        """The scenes as one validated block whose matrix is read-only
        float64: a writeable or non-float64 matrix is copied into one, so a
        caller may reuse or change its arrays afterwards."""
        matrix, video_ids, codes, clips = scenes
        codes, clips = np.asarray(codes, dtype=np.int64), np.asarray(clips, dtype=np.int64)
        if not len(codes):
            matrix = np.empty((0, self.bank_dim))
        if np.shape(matrix) != (len(codes), self.bank_dim) or clips.shape != codes.shape:
            raise ValueError(
                f"scene matrix shape {np.shape(matrix)} with {len(codes)} ids and "
                f"{len(clips)} clip indices, expected ({len(codes)}, {self.bank_dim})"
            )
        if len(codes) and not 0 <= codes.min() <= codes.max() < len(video_ids):
            raise ValueError(f"scene id codes outside the {len(video_ids)} video ids")
        matrix = np.asarray(matrix)
        if matrix.dtype != np.float64 or matrix.flags.writeable:
            matrix = matrix.astype(np.float64)
            matrix.flags.writeable = False
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"scene vector for {video_ids[codes[i]]}:{clips[i]} is non-finite")
        return Scenes(matrix, [str(v) for v in video_ids], codes, clips)

    def _store(self, *parts: slice | Scenes) -> None:
        """Make the rows the concatenation of parts, each a slice of the
        current rows or a validated block, keep in the id table only the
        ids those rows use, and drop what was derived from the old rows.
        A lone part with rows is kept as it is, so a single populate holds
        one copy of its matrix."""
        ids, pieces = list(self._ids), []
        for part in parts:
            if isinstance(part, slice):
                pieces.append((self._matrix[part], self._codes[part], self._clips[part]))
            else:
                pieces.append((part.matrix, part.codes + len(ids), part.clips))
                ids += part.video_ids
        matrices, codes, clips = zip(*pieces)
        matrices = [m for m in matrices if len(m)]
        if len(matrices) != 1:
            matrices = [_read_only(np.concatenate([np.empty((0, self.bank_dim))] + matrices))]
        self._matrix, self._clips = matrices[0], np.concatenate(clips)
        self._codes, self._ids = np.concatenate(codes), ids
        used = np.bincount(self._codes, minlength=len(ids)) > 0
        if not used.all():
            self._codes = (np.cumsum(used) - 1)[self._codes]
            self._ids = list(compress(ids, used.tolist()))
            self._id_parents = self._id_parents[used[: len(self._id_parents)]]
        for derived in ("_norms", "_parents", "_ties"):
            self.__dict__.pop(derived, None)

    def populate(self, scenes: Scenes) -> "MemoryBank":
        """Add the scenes after the populated rows, ahead of any batch's."""
        if self._frozen:
            raise RegimeError("bank is frozen; no further population allowed")
        block, end = self._validated(scenes), self._populated
        self._store(slice(0, end), block, slice(end, None))
        self._populated += len(block.codes)
        return self

    def freeze(self) -> "MemoryBank":
        if self.regime is not Regime.F1_STATIC:
            raise RegimeError(f"freeze applies to the static regime, not {self.regime.value}")
        self._frozen = True
        return self

    def push_batch(self, scenes: Scenes, mixup_scenes: Scenes | None = None) -> "MemoryBank":
        """Refresh with one batch; evicts batches older than the window."""
        if self.regime is Regime.F1_STATIC:
            raise RegimeError("per-batch refresh requires a dynamic regime")
        batch = [self._validated(scenes)]
        if mixup_scenes is not None:
            if self.regime is not Regime.F3_DYNAMIC_MIXUP:
                raise RegimeError("mixup rows are stored only under the dynamic-mixup regime")
            batch.append(self._validated(mixup_scenes))
        start = self._populated
        evicted = self._batch_rows[0] if len(self._batch_rows) == self.window else 0
        self._store(slice(0, start), slice(start + evicted, None), *batch)
        self._batch_rows.append(sum(len(b.codes) for b in batch))
        return self

    # -- queries -----------------------------------------------------------

    @cached_property
    def _norms(self) -> Array:
        """[n] row L2 norms."""
        return np.linalg.norm(self._matrix, axis=1)

    @cached_property
    def _parents(self) -> Array:
        """[n, p] each row's "+"-joined video id's part ids, -1 past its
        last part. The Python work is per id the table gained since the
        last call, so a push costs only its own ids."""
        known, new = self._id_parents, self._ids[len(self._id_parents) :]
        table = self._part_ids
        parts = [table.setdefault(p, len(table)) for v in new for p in v.split("+")]
        lengths = np.array([v.count("+") + 1 for v in new], dtype=np.int64)
        width = max(known.shape[1], int(lengths.max(initial=1)))
        parents = np.full((len(self._ids), width), -1, dtype=np.int64)
        parents[: len(known), : known.shape[1]] = known
        parents[len(known) :][np.arange(width) < lengths[:, None]] = parts
        self._id_parents = parents
        return parents[self._codes]

    @cached_property
    def _ties(self) -> _TieRanks:
        """The rows' tie ranks; the Python work is per id in the id table."""
        names = {v: i for i, v in enumerate(sorted(set(self._ids)))}
        by_name = np.array([names[v] for v in self._ids], dtype=np.int64)[self._codes]
        order = np.lexsort((self._clips, by_name))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return _TieRanks(rank, order)

    def _excluded(self, exclude_video_ids: Sequence[str | None]) -> Array:
        """[len(exclude_video_ids), n] mask of the entries a query excluding
        each video may not return. Mixup rows carry compound provenance
        "a+b"; excluding either parent excludes the blend."""
        parents = self._parents
        codes = np.array([self._part_ids.get(v, -2) for v in exclude_video_ids], dtype=np.int64)
        excluded = parents[:, 0] == codes[:, None]
        for part in parents.T[1:]:
            excluded |= part == codes[:, None]
        return excluded

    def _none_eligible(self, exclude_video_id: str | None) -> ValueError:
        return ValueError(
            "memory bank is empty" if not len(self) else
            f"no eligible bank entries: all {len(self)} belong to {exclude_video_id!r}"
        )

    def _ranked(
        self, queries: Array, k: int, exclude_video_ids: Sequence[str | None]
    ) -> tuple[Array, Array]:
        """Exact top-k set of each query row among the scenes its exclude id
        leaves eligible, ties at the k-th key broken by (video_id,
        clip_index), listed in that tie-rank order, k clamped to the row's
        eligible count. Returns bank indices and scores, both
        [n_queries, k], padded with -1 and NaN past a row's clamped k.

        Rows are keyed RANK_CHUNK keys at a time (lower is closer). A key
        that overflows or is NaN ranks as the largest finite float, so only
        an excluded scene's key is +inf.
        """
        if not np.isfinite(queries).all():
            raise ValueError("query vectors must be finite")
        n = len(self)
        top = np.full((len(queries), min(k, n)), -1, dtype=np.int64)
        keys_at = np.full(top.shape, np.nan)
        step = max(1, RANK_CHUNK // max(1, n * (self.bank_dim if self.metric is Metric.L2 else 1)))
        neg_norms = -np.linalg.norm(queries, axis=1)
        # a denominator below is zero only where a norm is zero or a product
        # of norms underflows; without such, no division needs a mask
        masked = neg_norms.max(initial=-1.0) * self._norms.min(initial=1.0) == 0
        for start in range(0, len(queries), step):
            q, rows = queries[start : start + step], slice(start, start + step)
            if self.metric is Metric.COSINE:
                # the negated cosine, bit-exact as a / -b == -(a / b); a zero
                # denominator is -0.0, which stays as the key
                keys = np.multiply.outer(neg_norms[rows], self._norms)
                np.divide(q @ self._matrix.T, keys, out=keys, where=keys < 0 if masked else True)
            else:
                keys = np.linalg.norm(self._matrix[None] - q[:, None], axis=2)
            np.fmin(keys, _LARGEST, out=keys)
            excluded = self._excluded(exclude_video_ids[rows])
            keys[excluded] = np.inf
            counts = n - excluded.sum(axis=1)
            if not counts.all():
                raise self._none_eligible(exclude_video_ids[start + int(np.argmin(counts))])
            chunk_top, chunk_keys = _first_k(keys, np.minimum(k, counts), self._ties)
            top[rows, : chunk_top.shape[1]] = chunk_top
            keys_at[rows, : chunk_top.shape[1]] = chunk_keys
        used = int((top >= 0).sum(axis=1).max(initial=0))
        scores = -keys_at if self.metric is Metric.COSINE else keys_at
        return top[:, :used], scores[:, :used]

    def topk(
        self, queries: Array, k: int, exclude_video_id: str | None | Sequence[str | None] = None
    ) -> Array:
        """Bank indices of each query row's k nearest eligible scenes, in
        (video_id, clip_index) order: [n_queries, k]. exclude_video_id is
        one id for every row or one per row; k is clamped to each row's
        eligible count, and a row with fewer eligible scenes than the widest
        is padded with -1."""
        if k < 1:
            raise ValueError("k must be >= 1")
        queries = as_f64(queries)
        if exclude_video_id is None or isinstance(exclude_video_id, str):
            exclude_video_id = [exclude_video_id] * len(queries)
        top, _ = self._ranked(queries, k, exclude_video_id)
        return top

    def candidates(
        self, exclude_video_ids: Sequence[str | None], queries: Array | None = None, k: int = 1
    ) -> Array:
        """Bank indices [m, width] of the scenes each of m rows may draw, a
        row's padding -1 at its end. With queries [m, bank_dim], row i is
        query i's topk excluding exclude_video_ids[i] (which raises for a
        row with no eligible scene); without, it is the eligible pool of
        exclude_video_ids[i] in bank order, all padding when it is empty."""
        if queries is not None:
            return self.topk(queries, k, exclude_video_ids)
        eligible = ~self._excluded(exclude_video_ids)
        counts = np.count_nonzero(eligible, axis=1)
        pools = np.full((len(counts), counts.max(initial=0)), -1)
        # each row's eligible indices in order, read off broadcast columns:
        # about 2.5 times as fast as np.nonzero of the 2-D mask
        columns = np.broadcast_to(np.arange(len(self)), eligible.shape)
        pools[np.arange(pools.shape[1]) < counts[:, None]] = columns[eligible]
        return pools

    def pick(self, candidates: Array, rng: np.random.Generator, rows: Array | None = None) -> Array:
        """Scene vectors [n, bank_dim], each uniform among the candidates of
        its row, all drawn with rng in one integers call. candidates is
        [m, width] bank indices, a row's padding -1 at its end, and rows
        names each draw's row, by default one draw per row."""
        if rows is None:
            rows = np.arange(len(candidates))
        chosen = candidates[rows, rng.integers(0, (candidates >= 0).sum(axis=1)[rows])]
        return self._matrix[chosen]

    def query_knn(self, q: NeighborQuery) -> list[ScoredNeighbor]:
        """Exact top-k by metric, best first; ties broken by (video_id,
        clip_index)."""
        qv = as_f64(q.vector)
        if qv.shape != (self.bank_dim,):
            raise ValueError(f"query vector shape {qv.shape}, expected ({self.bank_dim},)")
        top, scores = self._ranked(qv[None, :], q.k, [q.exclude_video_id])
        if top.shape[1] < q.k:
            raise ValueError(
                f"k={q.k} exceeds {top.shape[1]} eligible entries "
                f"(bank size {len(self)}, excluded video {q.exclude_video_id!r})"
            )
        # a stable sort by key of the tie-rank-ordered row: (key, tie rank)
        best = np.argsort(-scores[0] if self.metric is Metric.COSINE else scores[0], kind="stable")
        return [
            ScoredNeighbor(
                BankEntry(self._matrix[i], self._ids[self._codes[i]], int(self._clips[i])),
                float(s),
            )
            for i, s in zip(top[0, best], scores[0, best])
        ]


def instance_scenes(instances: Sequence[VideoQAInstance]) -> Scenes:
    """Every clip row of the instances as a scene of its video."""
    return stacked_scenes([i.video for i in instances], [i.video_id for i in instances])


def mnse_do(
    videos: Array,
    rows: Array,
    bank: MemoryBank,
    k: int,
    rng: np.random.Generator,
    exclude_video_ids: Sequence[str | None],
) -> Array:
    """A float64 copy of videos [B, n_clips, dim] with the rows the mask
    rows [B, n_clips] marks replaced by sampled nearest-neighbor scenes:
    every marked row, video i's excluding exclude_video_ids[i], is ranked
    in one topk call and draws among its own k nearest scenes (k clamped
    to the eligible count), all rows in row-major order in one pick with
    rng. Unmarked rows are returned bit-identical.
    """
    out = as_f64(videos).copy()
    which, clips = np.nonzero(rows)
    ids = [exclude_video_ids[i] for i in which]
    out[which, clips] = bank.pick(bank.candidates(ids, out[which, clips], k), rng)
    return out


def random_do(
    videos: Array,
    rows: Array,
    bank: MemoryBank,
    rng: np.random.Generator,
    exclude_video_ids: Sequence[str | None],
) -> Array:
    """Baseline intervention: mnse_do with each marked row drawn uniformly
    among its video's eligible scenes."""
    out = as_f64(videos).copy()
    which, clips = np.nonzero(rows)
    pools = bank.candidates(exclude_video_ids)
    empty = rows.any(axis=1) & (pools < 0).all(axis=1)
    if empty.any():
        raise bank._none_eligible(exclude_video_ids[int(np.argmax(empty))])
    out[which, clips] = bank.pick(pools, rng, which)
    return out
