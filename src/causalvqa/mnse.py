"""Memory bank of scene vectors with exact nearest-neighbor extraction.

The bank takes clip-level scene vectors with provenance as Scenes blocks
(matrix, video ids, parent codes, clip indices), all naming one tuple of
video ids, and keeps its live scenes in bank order, feature-major: one
read-only, C-contiguous float64 [bank_dim, n] matrix whose column j is
scene j, the clip indices, and each scene's two parent codes, kept as
given (-1 for a plain scene's second; a blend of videos a and b is named
"a+b"). A push is one concatenation that drops the evicted batch's
columns. Row norms, the exclusion index, names and tie ranks are derived
on first use and kept until the next change, with Python work per parent
pair, never per scene. The exclusion index lists each video's rows (a
blend's under both parents): a video is excluded by its code, its index
in the tuple, in two gathers, never by a [rows x bank] mask; ids cross
only at codes(), entries() and query_knn. Top-k nearest-scene queries
are answered by exact full scan, in the manner of a flat index: any number of query rows, each
with its own excluded video, is ranked in one pass of fixed-size row
chunks, one matrix product with the contiguous feature-major matrix and
one partition per chunk, no loop over rows; a row whose k-th key ties no
key past the partition takes its first k, and only a row with such a tie
or a clamped k selects its ties by tie rank. A lone row is ranked
as a two-row product, never by the matrix-vector kernel, and row norms
and L2 keys are reduced over C-ordered rows, bit-identical to those of
a row-major copy of the scenes. Three refresh regimes: F1 fills once and
freezes; F2 refreshes per batch over a sliding window of recent batches;
F3 is F2 plus the batch's mixup scene rows. Neighbor sourcing drives the
substitution interventions (mnse_do) and their random baseline
(random_do). candidates builds the rows a set of draws picks among: each
query row's exact k-nearest set in tie-rank order (topk), or each
excluded video's eligible scenes as read off the exclusion index
(Eligible), never gathered into a pool. Every draw, nearest or uniform,
in a training step or in the protocol, is one pick over such rows, each
draw naming its row: all its rows from one generator in one integers
call; a uniform draw u is the row's u-th eligible scene in bank order,
found by one searchsorted over its excluded rows.
The ranking gathers no keys at the chosen scenes: only query_knn reads
scores, off its one row's keys, and orders its answers by them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .features import Dataset, _read_only
from .nn_core import as_f64

Array = np.ndarray

# Ranking keys per chunk of query rows (rows x bank size, times bank_dim for
# L2; at least one row). Each float64 temporary of a chunk (its keys, the
# matrix product, argpartition's indices) stays near 512 KB, so a ranking
# of the protocol's rows on a 4,800-scene bank peaks below 1.8 MB (a test
# pins this). A chunk's lone row is ranked as a two-row
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
    video_ids[codes[i]], or with [n, 2] codes of the blend of the two
    videos codes[i] names (a plain scene where the second is -1). A bank
    takes each populate or push_batch call's scenes as one such block, all
    of a bank's blocks with rows naming one video_ids tuple; a read-only
    float64 matrix that is the transpose of a C-contiguous [bank_dim, n]
    block, as stacked_scenes makes, is kept without a copy."""

    matrix: Array  # [n, bank_dim]
    video_ids: Sequence[str]  # distinct, without '+', which names blends
    codes: Array  # [n] or [n, 2] int64 indices into video_ids
    clips: Array  # [n] int64 clip indices


def stacked_scenes(videos: Array, video_ids: Sequence[str], parents: Array | None = None) -> Scenes:
    """Every clip row of videos [n, n_clips, dim] as a scene of video i, or
    of parents[i], [n] or [n, 2] codes into video_ids (kept as given); the
    matrix laid out feature-major, as a bank keeps it."""
    n, n_clips, dim = videos.shape
    columns = np.array(videos.reshape(n * n_clips, dim).T, dtype=np.float64, order="C")
    codes = np.arange(n) if parents is None else np.asarray(parents, dtype=np.int64)
    return Scenes(
        _read_only(columns).T, video_ids, np.repeat(codes, n_clips, axis=0),
        np.tile(np.arange(n_clips), n),
    )


def _joined(ids: Sequence[str], first: int, second: int) -> str:
    """A scene's name: its video id, or a blend's "a+b"."""
    return ids[first] if second < 0 else f"{ids[first]}+{ids[second]}"


class Eligible(NamedTuple):
    """The scenes each of m rows may draw uniformly: every scene but those
    the exclusion index lists under its excluded video's code, read off
    that index with no [m, bank] mask or pool. Each excluded row is listed
    as the number of eligible scenes before it, plus the row's offset."""

    codes: Array  # [m] each row's excluded video's code
    counts: Array  # [m] how many scenes each row may draw
    starts: Array  # [m] where each row's excluded rows start in gaps
    gaps: Array  # the listed excluded rows, sorted: row r's offset is r * stride
    stride: int  # bank size + 1

    def nth(self, rows: Array, u: Array) -> Array:
        """Bank index of eligible scene u[i], counted in bank order, of row
        rows[i]: u[i] plus the number of the row's excluded rows at or
        below that index."""
        at = np.searchsorted(self.gaps, rows * self.stride + u, side="right")
        return u + at - self.starts[rows]


class _TieRanks(NamedTuple):
    names: list[str]  # the rows' distinct names, sorted: video ids and blends' "a+b"
    by_name: Array  # [n] each row's index into names
    rank: Array  # [n] position in (name, clip_index) order: the tie rule
    order: Array  # [n] the rows in that order, the inverse of rank


def _first_k(keys: Array, k: Array, ties: _TieRanks) -> Array:
    """Bank indices of each row's k[row] smallest keys, ties at the k-th key
    broken by tie rank, listed in tie-rank order and padded with -1 to the
    largest k, K. Only an excluded scene's key is +inf, and a k[row] below
    K is the row's count of finite keys (a clamped k).

    One partition at K puts each row's K smallest keys first, so its k-th
    key is the largest finite one among them. Where the largest of them is
    below the key at position K, no tie crosses the boundary: the set is
    the first K. Every other row (a tie at its k-th key, or a clamped k,
    whose first K hold an excluded +inf key) takes its keys below the k-th
    and then its ties in tie-rank order.
    """
    n, width = keys.shape[1], int(k.max())
    rows = np.arange(len(keys))[:, None]
    if width < n:
        idx = np.argpartition(keys, width, axis=1)
        after = keys[rows[:, 0], idx[:, width]]
        idx = idx[:, :width].copy()  # frees the [rows, n] partition
    else:
        idx, after = np.broadcast_to(np.arange(n), keys.shape), np.full(len(keys), np.inf)
    first = keys[rows, idx]
    cut = first.max(axis=1) < after
    top = np.full((len(keys), width), -1, dtype=np.int64)
    top[cut] = ties.order[np.sort(ties.rank[idx[cut]], axis=1)]
    rest = np.flatnonzero(~cut)
    if len(rest):
        head, k_r = first[rest], k[rest, None]
        kth = np.max(head, axis=1, where=head < np.inf, initial=-np.inf)[:, None]
        ordered = keys[rest][:, ties.order]
        below, tied = ordered < kth, ordered == kth
        taken = below | tied & (np.cumsum(tied, axis=1) <= k_r - below.sum(axis=1, keepdims=True))
        chosen = np.full((len(rest), width), -1, dtype=np.int64)
        chosen[np.arange(width) < k_r] = ties.order[np.nonzero(taken)[1]]
        top[rest] = chosen
    return top


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
        self._parents = np.empty((0, 2), dtype=np.int64)  # [n, 2] codes into _ids, -1 for none
        self._clips = np.empty(0, dtype=np.int64)  # [n] clip indices
        self._ids: Sequence[str] = ()  # the video ids every block names, set by the first with rows
        self._index: dict[str, int] = {}  # video id -> code
        self._populated = 0  # rows ahead of the first batch's
        self._batch_rows: deque[int] = deque(maxlen=window)  # each live batch's row count
        self._frozen = False

    def __len__(self) -> int:
        return len(self._clips)

    def entries(self) -> list[BankEntry]:
        """Every scene in bank order; vectors are read-only columns of the
        bank's matrix."""
        ties = self._ties
        return [
            BankEntry(row, ties.names[c], clip)
            for row, c, clip in zip(self._columns.T, ties.by_name.tolist(), self._clips.tolist())
        ]

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _validated(self, scenes: Scenes) -> Scenes:
        """The scenes as one validated block whose matrix is the transpose of
        a read-only, C-contiguous float64 [bank_dim, n] block: any other
        matrix is copied into one, so a caller may reuse or change its
        arrays afterwards."""
        matrix, ids, codes, clips = scenes
        codes, clips = np.asarray(codes, dtype=np.int64), np.asarray(clips, dtype=np.int64)
        codes = np.column_stack((codes, np.full_like(codes, -1))) if codes.ndim == 1 else codes
        n, ids = len(codes), tuple(ids)
        if not n:
            matrix = np.empty((0, self.bank_dim))
        if np.shape(matrix) != (n, self.bank_dim) or codes.shape != (n, 2) or clips.shape != (n,):
            raise ValueError(
                f"scene matrix shape {np.shape(matrix)} with parent codes {codes.shape} and "
                f"{clips.shape} clip indices, expected ({n}, {self.bank_dim})"
            )
        if n and (codes[:, 0].min() < 0 or codes.min() < -1 or codes.max() >= len(ids)):
            raise ValueError(f"scene parent codes outside the {len(ids)} video ids")
        columns = np.asarray(matrix).T
        if columns.dtype != np.float64 or columns.flags.writeable or not columns.flags.c_contiguous:
            columns = _read_only(np.array(columns, dtype=np.float64, order="C"))
        finite = np.isfinite(columns).all(axis=0)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"scene vector for {_joined(ids, *codes[i])}:{clips[i]} is non-finite")
        return Scenes(columns.T, ids, codes, clips)

    def _store(self, *parts: slice | Scenes) -> None:
        """Make the rows the concatenation of parts, each a slice of the
        current rows or a validated block, its codes kept as given (the
        first block with rows sets the bank's video ids), and drop what was
        derived from the old rows. A lone C-contiguous part with rows is
        kept as it is, so a single populate of stacked_scenes holds one copy
        of its matrix."""
        named = [p for p in parts if isinstance(p, Scenes) and len(p.clips)]
        ids = self._ids or (named[0].video_ids if named else ())
        if any(p.video_ids is not ids and p.video_ids != ids for p in named):
            raise ValueError("a block names other video ids than the bank's")
        if ids is not self._ids:
            index = dict(zip(ids, range(len(ids))))
            if len(index) != len(ids):
                raise ValueError("a block's video ids repeat")
            self._ids, self._index = ids, index
        blocks, parents, clips = zip(*(
            (self._columns[:, p], self._parents[p], self._clips[p]) if isinstance(p, slice)
            else (p.matrix.T, p.codes, p.clips) for p in parts
        ))
        blocks = [b for b in blocks if b.shape[1]]
        if len(blocks) != 1 or not blocks[0].flags.c_contiguous:
            blocks = [_read_only(np.concatenate([np.empty((self.bank_dim, 0))] + blocks, axis=1))]
        self._columns, self._parents = blocks[0], np.concatenate(parents)
        self._clips = np.concatenate(clips)
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
        """The exclusion index: each video's bank rows in bank order, code
        c's rows[starts[c]:starts[c + 1]], a blend's row listed under each
        of its parents (once for a blend of a video with itself); the code
        one past the ids has no rows."""
        parents = self._parents.copy()
        parents[parents[:, 1] == parents[:, 0], 1] = -1
        # each row's parents in row-major order, stably sorted by parent
        flat = parents.ravel()
        listed = np.flatnonzero(flat >= 0)
        order = listed[np.argsort(flat[listed], kind="stable")]
        starts = np.searchsorted(flat[order], np.arange(len(self._ids) + 2))
        return order // 2, starts

    @cached_property
    def _ties(self) -> _TieRanks:
        """The rows' names and tie ranks; the Python work is per distinct
        parent pair."""
        width, ids = len(self._ids) + 1, self._ids
        # a pair's key is first * width + second + 1, a plain scene's second -1
        pairs, row_pair = np.unique(self._parents @ [width, 1] + 1, return_inverse=True)
        names = [_joined(ids, p // width, p % width - 1) for p in pairs.tolist()]
        sort = sorted(range(len(names)), key=names.__getitem__)
        by_name = np.argsort(sort)[row_pair]
        order = np.lexsort((self._clips, by_name))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return _TieRanks([names[i] for i in sort], by_name, rank, order)

    def codes(self, video_ids: Sequence[str | None]) -> Array:
        """[m] each video id's code, the index of the id in the bank's video
        ids: the one place ids become codes. None, or an id the bank does
        not hold, is the code one past them, which excludes nothing."""
        if isinstance(video_ids, str):
            raise ValueError("codes takes one video id (or None) per row, not a string")
        get, none = self._index.get, len(self._ids)
        return np.fromiter((get(v, none) for v in video_ids), np.int64, len(video_ids))

    def _spans(self, codes: Array) -> tuple[Array, Array]:
        """Where the rows each code excludes start in the exclusion index,
        and how many there are: a blend's rows are excluded by each parent."""
        codes, starts = np.asarray(codes, dtype=np.int64), self._part_rows[1]
        if codes.ndim != 1 or len(codes) and not 0 <= codes.min() <= codes.max() <= len(self._ids):
            raise ValueError(f"exclusion takes [m] codes in [0, {len(self._ids)}]")
        begin = starts[codes]
        return begin, starts[codes + 1] - begin

    def _excluded(self, codes: Array) -> tuple[Array, Array, Array]:
        """The entries queries excluding each code's video may not return:
        (query, bank index) pairs ordered by query, then bank index, and
        each query's count."""
        begin, counts = self._spans(codes)
        ends = np.cumsum(counts)
        at = np.repeat(begin - ends + counts, counts) + np.arange(counts.sum())
        return np.repeat(np.arange(len(counts)), counts), self._part_rows[0][at], counts

    def eligible_counts(self, codes: Array) -> Array:
        """[m] how many scenes a draw excluding each code's video may take."""
        return len(self) - self._spans(codes)[1]

    def _none_eligible(self, code: int) -> ValueError:
        return ValueError(
            "memory bank is empty" if not len(self) else
            f"no eligible bank entries: all {len(self)} belong to {self._ids[code]!r}"
        )

    def _ranked(self, queries: Array, k: int, exclude: Array) -> tuple[Array, Array]:
        """Exact top-k set of each query row among the scenes its exclude code
        leaves eligible, ties at the k-th key broken by (video_id,
        clip_index), listed in that tie-rank order, k clamped to the row's
        eligible count. Returns bank indices [n_queries, k], padded with -1
        past a row's clamped k, and the last chunk's keys: a lone query's
        key of every scene.

        Rows are keyed RANK_CHUNK keys at a time (lower is closer). A key
        that overflows or is NaN ranks as the largest finite float, so only
        an excluded scene's key is +inf.
        """
        if np.ndim(exclude) != 1 or len(exclude) != len(queries):
            raise ValueError("ranking takes one exclude code per query row")
        if not np.isfinite(queries).all():
            raise ValueError("query vectors must be finite")
        n = len(self)
        query_of, excluded_rows, excluded = self._excluded(exclude)
        counts = n - excluded
        if not counts.all():
            raise self._none_eligible(exclude[int(np.argmin(counts))])
        top = np.full((len(queries), min(k, n)), -1, dtype=np.int64)
        cosine = self.metric is Metric.COSINE
        step = max(1, RANK_CHUNK // max(1, n * (1 if cosine else self.bank_dim)))
        neg_norms = -np.linalg.norm(queries, axis=1)
        # a denominator below is zero only where a norm is zero or a product
        # of norms underflows; without such, no division needs a mask
        masked = neg_norms.max(initial=-1.0) * self._norms.min(initial=1.0) == 0
        # every cosine chunk's keys
        keys = keyed = np.empty((min(step, len(queries)), n)) if cosine else None
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
                if masked:
                    np.divide(dots, keys, out=keys, where=keys < 0)
                else:  # where=True would run the masked loop
                    np.divide(dots, keys, out=keys)
                del dots  # freed before _first_k allocates its indices
            else:
                # differences laid out as C-ordered rows, so each norm
                # reduces as over a row-major matrix
                keys = np.linalg.norm(
                    np.subtract(self._columns.T[None], q[:, None], order="C"), axis=2
                )
            if not np.isfinite(keys).all():
                np.fmin(keys, _LARGEST, out=keys)
            lo, hi = np.searchsorted(query_of, (start, start + step))
            keys[query_of[lo:hi] - start, excluded_rows[lo:hi]] = np.inf
            chunk_top = _first_k(keys, np.minimum(k, counts[rows]), self._ties)
            top[rows, : chunk_top.shape[1]] = chunk_top
        used = int((top >= 0).sum(axis=1).max(initial=0))
        return top[:, :used], keys

    def topk(self, queries: Array, k: int, exclude: Array) -> Array:
        """Bank indices of each query row's k nearest eligible scenes, in
        (video_id, clip_index) order: [n_queries, k]. exclude holds each
        row's excluded video's code (see codes); k is clamped to each row's
        eligible count, and a row with fewer eligible scenes than the widest
        is padded with -1."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._ranked(as_f64(queries), k, exclude)[0]

    def candidates(self, exclude: Array, queries: Array | None = None,
                   k: int = 1) -> Array | Eligible:
        """The scenes each of m rows may draw, row i excluding the video of
        code exclude[i]. With queries [m, bank_dim], bank indices [m,
        width]: row i is query i's topk (which raises for a row with no
        eligible scene), a row's padding -1 at its end. Without, every scene
        each row's excluded video leaves eligible, as an Eligible read off
        the exclusion index."""
        if queries is not None:
            return self.topk(queries, k, exclude)
        query_of, excluded_rows, excluded = self._excluded(exclude)
        starts = np.cumsum(excluded) - excluded
        # eligible scenes before each excluded row: nondecreasing per row
        before = excluded_rows - np.arange(len(excluded_rows)) + starts[query_of]
        stride = len(self) + 1
        return Eligible(
            exclude, len(self) - excluded, starts, before + query_of * stride, stride
        )

    def pick(
        self, candidates: Array | Eligible, rng: np.random.Generator, rows: Array | None = None
    ) -> Array:
        """Scene vectors [n, bank_dim], each uniform among the candidates of
        its row, all drawn with rng in one integers call: draw u of a row is
        its u-th candidate. candidates is topk's [m, width] bank indices, a
        row's padding -1 at its end, or an Eligible, whose u-th scene is its
        u-th eligible scene in bank order; rows names each draw's row, by
        default one draw per row. A draw from a row with no eligible scene
        raises."""
        uniform = isinstance(candidates, Eligible)
        counts = candidates.counts if uniform else (candidates >= 0).sum(axis=1)
        if rows is None:
            rows = np.arange(len(counts))
        counts = counts[rows]
        if uniform and not counts.all():
            raise self._none_eligible(candidates.codes[int(rows[np.argmin(counts)])])
        u = rng.integers(0, counts)
        chosen = candidates.nth(rows, u) if uniform else candidates[rows, u]
        return self._columns[:, chosen].T

    def query_knn(self, q: NeighborQuery) -> list[ScoredNeighbor]:
        """Exact top-k by metric, best first; ties broken by (video_id,
        clip_index)."""
        qv = as_f64(q.vector)
        if qv.shape != (self.bank_dim,):
            raise ValueError(f"query vector shape {qv.shape}, expected ({self.bank_dim},)")
        top, keys = self._ranked(qv[None, :], q.k, self.codes([q.exclude_video_id]))
        if top.shape[1] < q.k:
            raise ValueError(
                f"k={q.k} exceeds {top.shape[1]} eligible entries "
                f"(bank size {len(self)}, excluded video {q.exclude_video_id!r})"
            )
        # a stable sort by key of the tie-rank-ordered row: (key, tie rank)
        keys = keys[0, top[0]]
        best = np.argsort(keys, kind="stable")
        scores = -keys if self.metric is Metric.COSINE else keys
        vectors, ties = self._columns.T, self._ties
        return [
            ScoredNeighbor(BankEntry(vectors[i], ties.names[ties.by_name[i]], int(self._clips[i])),
                           float(s))
            for i, s in zip(top[0, best], scores[best])
        ]


def instance_scenes(data: Dataset) -> Scenes:
    """Every clip row of the dataset as a scene of its video."""
    return stacked_scenes(data.video, data.ids)


def mnse_do(
    videos: Array, rows: Array, bank: MemoryBank, k: int, rng: np.random.Generator, exclude: Array
) -> Array:
    """A float64 copy of videos [B, n_clips, dim] with the rows the mask
    rows [B, n_clips] marks replaced by sampled nearest-neighbor scenes:
    every marked row, video i's excluding the video of code exclude[i], is
    ranked in one topk call and draws among its own k nearest scenes (k
    clamped to the eligible count), all rows in row-major order in one
    pick with rng. Unmarked rows are returned bit-identical.
    """
    out = as_f64(videos).copy()
    which, clips = np.nonzero(rows)
    exclude = np.asarray(exclude)[which]
    out[which, clips] = bank.pick(bank.candidates(exclude, out[which, clips], k), rng)
    return out


def random_do(
    videos: Array, rows: Array, bank: MemoryBank, rng: np.random.Generator, exclude: Array
) -> Array:
    """Baseline intervention: mnse_do with each marked row drawn uniformly
    among its video's eligible scenes."""
    out = as_f64(videos).copy()
    which, clips = np.nonzero(rows)
    out[which, clips] = bank.pick(bank.candidates(exclude), rng, which)
    return out
