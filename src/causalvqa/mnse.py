"""Memory bank of scene vectors with exact nearest-neighbor extraction.

The bank takes clip-level scene vectors with provenance as Scenes blocks
(matrix, video ids, id codes, clip indices) and keeps its live scenes in
bank order, feature-major: one read-only, C-contiguous float64
[bank_dim, n] matrix whose column j is scene j, the clip indices, and
each scene's code into a table of only the ids the scenes use. A push is
one concatenation that drops the evicted batch's columns. Row norms, the
exclusion index and tie ranks are derived on first use and kept until
the next change, with Python work per id, never per scene. The
exclusion index lists each video id part's bank rows (a blend "a+b" is
a row of both parts); the rows a query excluding a video may not return
are its part's rows, so exclusion is read off one sparse index, never a
[rows x bank] mask. Top-k nearest-scene queries are answered by exact
full scan, in the manner of a flat index: any number of query rows, each
with its own excluded video, is ranked in one pass of fixed-size row
chunks, one matrix product with the contiguous feature-major matrix and
one top-k selection per chunk, no loop over rows. A lone row is ranked
as a two-row product, never by the matrix-vector kernel, and row norms
and L2 keys are reduced over C-ordered rows, bit-identical to those of
a row-major copy of the scenes. Three refresh regimes: F1 fills once and freezes; F2 refreshes
per batch over a sliding window of recent batches; F3 is F2 plus the
batch's mixup scene rows. Neighbor sourcing drives the substitution
interventions (mnse_do) and their random baseline (random_do).
candidates builds the rows a set of draws picks among: each query row's
exact k-nearest set in tie-rank order (topk), or each excluded video's
pool of every scene it may draw. Every draw, nearest or uniform, in a
training step or in the protocol, is one pick over such rows, each draw
naming its row: all its rows from one generator in one integers call.
Only query_knn orders its answers by key.
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
# L2; at least one row). Each float64 temporary of a chunk (its keys, the
# matrix product, argpartition's indices) stays near 512 KB, so a ranking
# peaks below the uniform pools of the protocol's random_do (a test pins
# this on a 4,800-scene bank). A chunk's lone row is ranked as a two-row
# product: a matrix-vector product's sums can differ in the last bit from
# the matrix-matrix kernel's, which give a row the same bits whatever rows
# share its chunk on banks of whole 8-clip videos (tested).
RANK_CHUNK = 1 << 16
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
    scenes as one such block; a read-only float64 matrix that is the
    transpose of a C-contiguous [bank_dim, n] block, as stacked_scenes
    makes, is kept without a copy."""

    matrix: Array  # [n, bank_dim]
    video_ids: Sequence[str]
    codes: Array  # [n] int64 indices into video_ids
    clips: Array  # [n] int64 clip indices


def stacked_scenes(videos: Sequence[Array], video_ids: Sequence[str]) -> Scenes:
    """Every clip row of each [n_clips, dim] video as a scene of its id, the
    matrix laid out feature-major, as a bank keeps it."""
    counts = [len(v) for v in videos]
    codes = np.repeat(np.arange(len(videos)), counts)
    starts = np.cumsum([0] + counts[:-1])
    columns = np.empty((np.shape(videos[0])[1] if len(videos) else 0, len(codes)))
    if len(videos):
        np.concatenate(videos, out=columns.T)
    return Scenes(
        _read_only(columns).T, list(video_ids), codes, np.arange(len(codes)) - starts[codes]
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

    The live scenes are one feature-major matrix and per-scene columns in
    bank order: the populated rows, then each live batch's scenes and
    mixup scenes. Row norms, the exclusion index and tie ranks are
    derived from them on first use and kept until the next change."""

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
        self._columns = _read_only(np.empty((bank_dim, 0)))  # [bank_dim, n] float64
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
        """Every scene in bank order; vectors are read-only columns of the
        bank's matrix."""
        ids = self._ids
        return [
            BankEntry(row, ids[c], clip)
            for row, c, clip in zip(self._columns.T, self._codes.tolist(), self._clips.tolist())
        ]

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _validated(self, scenes: Scenes) -> Scenes:
        """The scenes as one validated block whose matrix is the transpose of
        a read-only, C-contiguous float64 [bank_dim, n] block: any other
        matrix is copied into one, so a caller may reuse or change its
        arrays afterwards."""
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
        columns = np.asarray(matrix).T
        if columns.dtype != np.float64 or columns.flags.writeable or not columns.flags.c_contiguous:
            columns = _read_only(np.array(columns, dtype=np.float64, order="C"))
        finite = np.isfinite(columns).all(axis=0)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"scene vector for {video_ids[codes[i]]}:{clips[i]} is non-finite")
        return Scenes(columns.T, [str(v) for v in video_ids], codes, clips)

    def _store(self, *parts: slice | Scenes) -> None:
        """Make the rows the concatenation of parts, each a slice of the
        current rows or a validated block, keep in the id table only the
        ids those rows use, and drop what was derived from the old rows.
        A lone C-contiguous part with rows is kept as it is, so a single
        populate of stacked_scenes holds one copy of its matrix."""
        ids, pieces = list(self._ids), []
        for part in parts:
            if isinstance(part, slice):
                pieces.append((self._columns[:, part], self._codes[part], self._clips[part]))
            else:
                pieces.append((part.matrix.T, part.codes + len(ids), part.clips))
                ids += part.video_ids
        blocks, codes, clips = zip(*pieces)
        blocks = [b for b in blocks if b.shape[1]]
        if len(blocks) != 1 or not blocks[0].flags.c_contiguous:
            blocks = [_read_only(np.concatenate([np.empty((self.bank_dim, 0))] + blocks, axis=1))]
        self._columns, self._clips = blocks[0], np.concatenate(clips)
        self._codes, self._ids = np.concatenate(codes), ids
        used = np.bincount(self._codes, minlength=len(ids)) > 0
        if not used.all():
            self._codes = (np.cumsum(used) - 1)[self._codes]
            self._ids = list(compress(ids, used.tolist()))
            self._id_parents = self._id_parents[used[: len(self._id_parents)]]
        for derived in ("_norms", "_part_rows", "_ties"):
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
        """[n] row L2 norms, each reduced over a C-ordered copy of its row
        (a chunk of rows at a time), as from a row-major matrix."""
        rows, step = self._columns.T, max(1, RANK_CHUNK // self.bank_dim)
        chunks = [np.linalg.norm(rows[i : i + step].copy(), axis=1)
                  for i in range(0, len(rows), step)]
        return np.concatenate([np.empty(0)] + chunks)

    @cached_property
    def _part_rows(self) -> tuple[Array, Array]:
        """The exclusion index: each id part's bank rows in bank order, part
        p's rows[starts[p]:starts[p + 1]], a row listed once under each
        distinct part of its "+"-joined video id; the part one past the
        table has no rows. The Python work is per id the table gained since
        the last call, so a push costs only its own ids."""
        known, new = self._id_parents, self._ids[len(self._id_parents) :]
        table = self._part_ids
        distinct = [dict.fromkeys(v.split("+")) for v in new]
        parts = [table.setdefault(p, len(table)) for d in distinct for p in d]
        lengths = np.array([len(d) for d in distinct], dtype=np.int64)
        width = max(known.shape[1], int(lengths.max(initial=1)))
        parents = np.full((len(self._ids), width), -1, dtype=np.int64)
        parents[: len(known), : known.shape[1]] = known
        parents[len(known) :][np.arange(width) < lengths[:, None]] = parts
        self._id_parents = parents
        row_parts = np.take(parents, self._codes, axis=0)
        # each row's parts in row-major order, stably sorted by part
        listed = np.flatnonzero(row_parts >= 0)
        order = listed[np.argsort(row_parts.ravel()[listed], kind="stable")]
        starts = np.searchsorted(row_parts.ravel()[order], np.arange(len(table) + 2))
        return order // row_parts.shape[1], starts

    @cached_property
    def _ties(self) -> _TieRanks:
        """The rows' tie ranks; the Python work is per id in the id table."""
        names = {v: i for i, v in enumerate(sorted(set(self._ids)))}
        by_name = np.array([names[v] for v in self._ids], dtype=np.int64)[self._codes]
        order = np.lexsort((self._clips, by_name))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return _TieRanks(rank, order)

    def _spans(self, exclude_video_ids: Sequence[str | None]) -> tuple[Array, Array]:
        """Where the rows each video excludes start in the exclusion index,
        and how many there are. Mixup rows carry compound provenance "a+b";
        excluding either parent excludes the blend."""
        starts = self._part_rows[1]
        unseen = len(starts) - 2
        parts = np.array([self._part_ids.get(v, unseen) for v in exclude_video_ids], dtype=np.int64)
        return starts[parts], starts[parts + 1] - starts[parts]

    def _excluded(self, exclude_video_ids: Sequence[str | None]) -> tuple[Array, Array, Array]:
        """The entries queries excluding each video may not return: (query,
        bank index) pairs ordered by query, then bank index, and each
        query's count."""
        begin, counts = self._spans(exclude_video_ids)
        ends = np.cumsum(counts)
        at = np.repeat(begin - ends + counts, counts) + np.arange(counts.sum())
        return np.repeat(np.arange(len(counts)), counts), self._part_rows[0][at], counts

    def eligible_counts(self, exclude_video_ids: Sequence[str | None]) -> Array:
        """[m] how many scenes a draw excluding each video may take."""
        return len(self) - self._spans(exclude_video_ids)[1]

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
        if isinstance(exclude_video_ids, str) or len(exclude_video_ids) != len(queries):
            raise ValueError("ranking takes one exclude video id (or None) per query row")
        if not np.isfinite(queries).all():
            raise ValueError("query vectors must be finite")
        n = len(self)
        query_of, excluded_rows, excluded = self._excluded(exclude_video_ids)
        counts = n - excluded
        if not counts.all():
            raise self._none_eligible(exclude_video_ids[int(np.argmin(counts))])
        top = np.full((len(queries), min(k, n)), -1, dtype=np.int64)
        keys_at = np.full(top.shape, np.nan)
        cosine = self.metric is Metric.COSINE
        step = max(1, RANK_CHUNK // max(1, n * (1 if cosine else self.bank_dim)))
        neg_norms = -np.linalg.norm(queries, axis=1)
        # a denominator below is zero only where a norm is zero or a product
        # of norms underflows; without such, no division needs a mask
        masked = neg_norms.max(initial=-1.0) * self._norms.min(initial=1.0) == 0
        keyed = np.empty((min(step, len(queries)), n)) if cosine else None  # every chunk's keys
        for start in range(0, len(queries), step):
            q, rows = queries[start : start + step], slice(start, start + step)
            if cosine:
                # the negated cosine, bit-exact as a / -b == -(a / b); a zero
                # denominator is -0.0, which stays as the key
                keys = np.multiply.outer(neg_norms[rows], self._norms, out=keyed[: len(q)])
                # a one-row product runs a matrix-vector kernel, whose sums
                # can differ in the last bit: a lone row is ranked as two
                pair = np.repeat(q, 2, axis=0) if len(q) == 1 else q
                dots = (pair @ self._columns)[: len(q)]
                np.divide(dots, keys, out=keys, where=keys < 0 if masked else True)
                del dots  # freed before _first_k allocates its indices
            else:
                # differences laid out as C-ordered rows, so each norm
                # reduces as over a row-major matrix
                keys = np.linalg.norm(
                    np.subtract(self._columns.T[None], q[:, None], order="C"), axis=2
                )
            np.fmin(keys, _LARGEST, out=keys)
            lo, hi = np.searchsorted(query_of, (start, start + step))
            keys[query_of[lo:hi] - start, excluded_rows[lo:hi]] = np.inf
            chunk_top, chunk_keys = _first_k(keys, np.minimum(k, counts[rows]), self._ties)
            top[rows, : chunk_top.shape[1]] = chunk_top
            keys_at[rows, : chunk_top.shape[1]] = chunk_keys
        used = int((top >= 0).sum(axis=1).max(initial=0))
        scores = -keys_at if cosine else keys_at
        return top[:, :used], scores[:, :used]

    def topk(self, queries: Array, k: int, exclude_video_ids: Sequence[str | None]) -> Array:
        """Bank indices of each query row's k nearest eligible scenes, in
        (video_id, clip_index) order: [n_queries, k]. exclude_video_ids
        names each row's excluded video (None excludes none); k is clamped
        to each row's eligible count, and a row with fewer eligible scenes
        than the widest is padded with -1."""
        if k < 1:
            raise ValueError("k must be >= 1")
        top, _ = self._ranked(as_f64(queries), k, exclude_video_ids)
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
        query_of, excluded_rows, excluded = self._excluded(exclude_video_ids)
        eligible = np.ones((len(excluded), len(self)), dtype=bool)
        eligible[query_of, excluded_rows] = False
        counts = len(self) - excluded
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
        return self._columns[:, chosen].T

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
        vectors = self._columns.T
        return [
            ScoredNeighbor(
                BankEntry(vectors[i], self._ids[self._codes[i]], int(self._clips[i])), float(s)
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
