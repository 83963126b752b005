"""Feature data model, file I/O, and synthetic data generation.

Upstream video/text encoders are out of scope; their outputs arrive here as
files. A dataset on disk is a JSON manifest plus raw little-endian float32
payloads (row-major), with gold labels and question types as u8 arrays and
saliency annotations as flat int64 and float64 arrays.
The synthetic generator plants a known causal structure so downstream
mechanisms can be tested against ground truth.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

FORMAT_VERSION = 2
N_ANSWERS = 5


class FormatError(ValueError):
    """A saved dataset or checkpoint file violates its format."""


class Qtype(IntEnum):
    CAUSAL = 0
    TEMPORAL = 1
    DESCRIPTIVE = 2


class MomentWindow(NamedTuple):
    start_frame: int
    end_frame: int  # exclusive
    score: float


@dataclass(frozen=True)
class SaliencyAnnotation:
    """Per-frame saliency scores with scored candidate moment windows."""

    scores: np.ndarray  # [n_frames] float
    windows: tuple[MomentWindow, ...]
    n_frames: int

    def __post_init__(self) -> None:
        if self.scores.shape != (self.n_frames,):
            raise FormatError(
                f"saliency scores shape {self.scores.shape} vs n_frames {self.n_frames}"
            )
        if not np.all(np.isfinite(self.scores)):
            raise FormatError("saliency scores contain non-finite values")
        for w in self.windows:
            if not 0 <= w.start_frame < w.end_frame <= self.n_frames:
                raise FormatError(f"moment window {w} out of bounds for {self.n_frames} frames")


@dataclass(frozen=True)
class VideoQAInstance:
    """One multiple-choice example over precomputed embeddings.

    Features arrive as float32 (the at-rest precision) or float64 and are
    stored as read-only float64 arrays, so consumers use them as they are
    and any write into them raises ValueError. Float32 input and writeable
    float64 input are copied; read-only float64 input is kept as given.
    """

    video_id: str
    video: np.ndarray  # [n_clips, video_dim]
    question: np.ndarray  # [text_dim]
    answers: np.ndarray  # [N_ANSWERS, text_dim]
    gold: int
    qtype: Qtype

    def __post_init__(self) -> None:
        if self.video.ndim != 2:
            raise FormatError(f"video must be [n_clips, video_dim], got {self.video.shape}")
        if self.question.ndim != 1:
            raise FormatError(f"question must be a vector, got {self.question.shape}")
        if self.answers.shape != (N_ANSWERS, self.question.shape[0]):
            raise FormatError(
                f"answers must be [{N_ANSWERS}, text_dim], got {self.answers.shape}"
            )
        for name in ("video", "question", "answers"):
            arr = getattr(self, name)
            if arr.dtype not in (np.float32, np.float64):
                raise FormatError(f"{name} must be float32 or float64, got {arr.dtype}")
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"{name} contains non-finite values ({self.video_id})")
            if arr.dtype != np.float64 or arr.flags.writeable:
                arr = arr.astype(np.float64)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        if not 0 <= self.gold < N_ANSWERS:
            raise FormatError(f"gold index {self.gold} out of range ({self.video_id})")

    @property
    def n_clips(self) -> int:
        return self.video.shape[0]

    @property
    def video_dim(self) -> int:
        return self.video.shape[1]

    @property
    def text_dim(self) -> int:
        return self.question.shape[0]


@dataclass(frozen=True)
class FeatureManifest:
    version: int
    count: int
    n_clips: int
    video_dim: int
    text_dim: int
    files: dict[str, str]
    n_answers: int = N_ANSWERS

    def __post_init__(self) -> None:
        if self.version != FORMAT_VERSION:
            raise FormatError(
                f"unsupported manifest version {self.version} (this release reads "
                f"version {FORMAT_VERSION}); regenerate the dataset with gen-data"
            )
        if self.count < 0:
            raise FormatError("count must be nonnegative")
        if min(self.n_clips, self.video_dim, self.text_dim) <= 0:
            raise FormatError("n_clips, video_dim and text_dim must be positive")
        if self.n_answers != N_ANSWERS:
            raise FormatError(f"n_answers must be {N_ANSWERS}")
        missing = {"video", "question", "answers", "gold", "qtype"} - set(self.files)
        if missing:
            raise FormatError(f"manifest missing payload entries: {sorted(missing)}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic dataset with a planted causal structure.

    A contiguous block of ceil(causal_fraction * n_clips) clips carries a
    direction derived from the gold answer through a fixed random linear
    map; the rest is noise. leak_strength > 0 additionally adds the raw
    gold-answer vector to every clip row, creating an answer-to-video
    shortcut that bypasses the question (requires video_dim == text_dim).
    """

    n_instances: int
    seed: int = 0
    n_clips: int = 16
    video_dim: int = 64
    text_dim: int = 64
    causal_fraction: float = 0.5
    noise_std: float = 0.05
    leak_strength: float = 0.0
    frames_per_clip: int = 4

    def __post_init__(self) -> None:
        if self.n_instances < 0:
            raise ValueError("n_instances must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.causal_fraction <= 1.0:
            raise ValueError("causal_fraction must be in (0, 1]")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be nonnegative")
        if self.leak_strength < 0.0:
            raise ValueError("leak_strength must be nonnegative")
        if min(self.n_clips, self.video_dim, self.text_dim, self.frames_per_clip) <= 0:
            raise ValueError("dims, n_clips and frames_per_clip must be positive")
        if self.leak_strength > 0.0 and self.video_dim != self.text_dim:
            raise ValueError("leak injection requires video_dim == text_dim")

    @property
    def n_causal(self) -> int:
        return math.ceil(self.causal_fraction * self.n_clips)


# -- payload helpers ---------------------------------------------------------


def write_atomic(path: str | Path, data: str | bytes) -> Path:
    """Write a file through a temp file in its directory and os.replace,
    so the path holds the previous contents or the new ones, never a part.
    Strings are written as UTF-8."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_indexed(index: Path, payloads: dict[Path, str | bytes], body: str) -> None:
    """Write each payload, then the index file naming them. The old index
    goes before any payload is replaced and the new one is written last, so
    a save that fails part-way leaves no index rather than one naming a mix
    of old and new payloads. A failure before the first replace has changed
    nothing, so the old index is put back."""
    previous = index.read_bytes() if index.is_file() else None
    index.unlink(missing_ok=True)
    for done, (path, payload) in enumerate(payloads.items()):
        try:
            write_atomic(path, payload)
        except BaseException:
            if done == 0 and previous is not None:
                index.write_bytes(previous)
            raise
    write_atomic(index, body)


def read_json(path: Path, expected: type = dict):
    """The JSON value in a saved file; FormatError names the file when it
    is missing, is not valid JSON, or holds a value other than a JSON object
    (expected=dict) or list (expected=list)."""
    if not path.is_file():
        raise FormatError(f"{path}: file not found")
    try:
        body = json.loads(path.read_text())
    except ValueError as exc:  # a JSON or UTF-8 decoding error
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(body, expected):
        raise FormatError(f"{path}: expected a JSON {'object' if expected is dict else 'list'}")
    return body


def _read_payload(path: Path, dtype: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The read-only array in a payload file of the given shape, or of any
    whole number of items (flat) when shape is None."""
    if not path.is_file():
        raise FormatError(f"payload file missing: {path}")
    raw = path.read_bytes()
    itemsize = np.dtype(dtype).itemsize
    if shape is None:
        if len(raw) % itemsize:
            raise FormatError(f"{path}: byte length {len(raw)} is not a multiple of {itemsize}")
        return np.frombuffer(raw, dtype=dtype)
    expected = math.prod(shape) * itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{path.name}: byte length mismatch, expected {expected} bytes "
            f"for shape {shape}, found {len(raw)}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _require_finite_payload(name: str, arr: np.ndarray) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        offset = int(np.argmin(finite.reshape(-1)))
        raise FormatError(f"{name}: non-finite value at flat offset {offset}")


# -- dataset I/O -------------------------------------------------------------


def save_dataset(
    instances: Sequence[VideoQAInstance],
    manifest_path: str | Path,
    saliencies: Sequence[SaliencyAnnotation] | None = None,
    causal_masks: np.ndarray | None = None,
) -> FeatureManifest:
    """Write instances (and optional sidecars) next to a JSON manifest.

    The round trip through load_dataset is bit-exact: feature values that
    float32 cannot hold exactly raise FormatError before anything is written.
    """
    manifest_path = Path(manifest_path)
    stem = manifest_path.stem
    if instances:
        first = instances[0]
        n_clips, video_dim, text_dim = first.n_clips, first.video_dim, first.text_dim
        for inst in instances:
            if (inst.n_clips, inst.video_dim, inst.text_dim) != (n_clips, video_dim, text_dim):
                raise FormatError(
                    f"heterogeneous dims: {inst.video_id} has "
                    f"({inst.n_clips}, {inst.video_dim}, {inst.text_dim}), "
                    f"expected ({n_clips}, {video_dim}, {text_dim})"
                )
    else:
        n_clips, video_dim, text_dim = 1, 1, 1

    files = {
        "video": f"{stem}.video.f32",
        "question": f"{stem}.question.f32",
        "answers": f"{stem}.answers.f32",
        "gold": f"{stem}.gold.u8",
        "qtype": f"{stem}.qtype.u8",
        "ids": f"{stem}.ids.json",
    }
    if saliencies is not None:
        if len(saliencies) != len(instances):
            raise FormatError("saliency count does not match instance count")
        files["saliency"] = f"{stem}.saliency.i8"
        files["saliency_scores"] = f"{stem}.saliency.f8"
    if causal_masks is not None:
        if causal_masks.shape != (len(instances), n_clips) and len(instances) > 0:
            raise FormatError(
                f"causal mask shape {causal_masks.shape} vs ({len(instances)}, {n_clips})"
            )
        files["masks"] = f"{stem}.masks.u8"

    manifest = FeatureManifest(
        version=FORMAT_VERSION,
        count=len(instances),
        n_clips=n_clips,
        video_dim=video_dim,
        text_dim=text_dim,
        files=files,
    )
    payloads = {}
    for name in ("video", "question", "answers"):
        values = np.stack([getattr(i, name) for i in instances]) if instances else np.empty(0)
        at_rest = values.astype("<f4")
        if not np.array_equal(at_rest, values):
            raise FormatError(f"{name}: values are not exactly representable as float32")
        payloads[name] = at_rest.tobytes()
    payloads["gold"] = bytes(i.gold for i in instances)
    payloads["qtype"] = bytes(int(i.qtype) for i in instances)
    payloads["ids"] = json.dumps([i.video_id for i in instances])
    if saliencies is not None:
        windows = [w for s in saliencies for w in s.windows]
        counts = [(s.n_frames, len(s.windows)) for s in saliencies]
        bounds = [(w.start_frame, w.end_frame) for w in windows]
        payloads["saliency"] = np.array(counts + bounds, dtype="<i8").tobytes()
        scores = [np.asarray(s.scores, "<f8") for s in saliencies]
        scores.append(np.array([w.score for w in windows], "<f8"))
        payloads["saliency_scores"] = np.concatenate(scores).tobytes()
    if causal_masks is not None:
        payloads["masks"] = np.asarray(causal_masks, dtype=np.uint8).tobytes()
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    body = {
        "version": manifest.version,
        "count": manifest.count,
        "n_clips": manifest.n_clips,
        "video_dim": manifest.video_dim,
        "text_dim": manifest.text_dim,
        "n_answers": manifest.n_answers,
        "files": files,
    }
    write_indexed(
        manifest_path,
        {manifest_path.parent / files[name]: payload for name, payload in payloads.items()},
        json.dumps(body, indent=2) + "\n",
    )
    return manifest


_MANIFEST_INTS = ("version", "count", "n_clips", "video_dim", "text_dim", "n_answers")


def read_manifest(manifest_path: str | Path) -> FeatureManifest:
    """The manifest at manifest_path; FormatError names the file when it
    is missing, lacks a field, holds a field of the wrong JSON type or a
    value FeatureManifest rejects."""
    manifest_path = Path(manifest_path)
    body = {"n_answers": N_ANSWERS, **read_json(manifest_path)}
    for key in (*_MANIFEST_INTS, "files"):
        if key not in body:
            raise FormatError(f"{manifest_path}: manifest missing field {key!r}")
    for key in _MANIFEST_INTS:
        if type(body[key]) is not int:
            raise FormatError(
                f"{manifest_path}: {key}: expected an integer, got {json.dumps(body[key])}"
            )
    files = body["files"]
    if not (isinstance(files, dict) and all(isinstance(f, str) for f in files.values())):
        raise FormatError(f"{manifest_path}: files: expected an object of file names")
    try:
        return FeatureManifest(files=files, **{key: body[key] for key in _MANIFEST_INTS})
    except FormatError as exc:
        raise FormatError(f"{manifest_path}: {exc}") from None


_FIELDS = {cls: [f.name for f in fields(cls)] for cls in (VideoQAInstance, SaliencyAnnotation)}


def _loaded(cls, *values):
    """A VideoQAInstance or SaliencyAnnotation over values its loader has
    checked whole (as read-only arrays), built without __post_init__'s
    per-object checks of the same values. Fields are set one by one, as the
    dataclass __init__ sets them: writing __dict__ directly would give the
    object a slower attribute layout."""
    obj = object.__new__(cls)
    for name, value in zip(_FIELDS[cls], values):
        object.__setattr__(obj, name, value)
    return obj


def load_dataset(
    manifest_path: str | Path, manifest: FeatureManifest | None = None
) -> list[VideoQAInstance]:
    """Load instances described by a manifest (read from manifest_path
    unless already parsed); validates shapes and values. A declared ids
    sidecar must exist."""
    manifest_path = Path(manifest_path)
    m = read_manifest(manifest_path) if manifest is None else manifest
    root = manifest_path.parent
    video = _read_payload(
        root / m.files["video"], "<f4", (m.count, m.n_clips, m.video_dim)
    )
    question = _read_payload(root / m.files["question"], "<f4", (m.count, m.text_dim))
    answers = _read_payload(
        root / m.files["answers"], "<f4", (m.count, N_ANSWERS, m.text_dim)
    )
    gold = _read_payload(root / m.files["gold"], "u1", (m.count,))
    qtype = _read_payload(root / m.files["qtype"], "u1", (m.count,))
    for name, arr in (("video", video), ("question", question), ("answers", answers)):
        _require_finite_payload(m.files[name], arr)
    # the one float32 -> float64 upcast per payload; instances share its rows
    video, question, answers = (a.astype(np.float64) for a in (video, question, answers))
    for arr in (video, question, answers):
        arr.flags.writeable = False

    if "ids" in m.files:
        ids_path = root / m.files["ids"]
        ids = read_json(ids_path, list)
        if len(ids) != m.count:
            raise FormatError(f"{ids_path}: lists {len(ids)} entries, manifest count {m.count}")
    else:
        ids = [f"v{i:05d}" for i in range(m.count)]

    bad = (gold >= N_ANSWERS) | (qtype >= len(Qtype))
    if bad.any():
        i = int(np.argmax(bad))
        if gold[i] >= N_ANSWERS:
            raise FormatError(f"gold index {gold[i]} out of range at instance {i}")
        raise FormatError(f"qtype {qtype[i]} out of range at instance {i}")
    qtypes = list(Qtype)
    return [
        _loaded(VideoQAInstance, str(v), vid, q, a, g, qtypes[t])
        for v, vid, q, a, g, t in zip(ids, video, question, answers, gold.tolist(), qtype.tolist())
    ]


def load_saliency(
    manifest_path: str | Path, manifest: FeatureManifest | None = None
) -> list[SaliencyAnnotation] | None:
    """Load the saliency sidecar if the manifest (read from manifest_path
    unless already parsed) declares one.

    The int64 payload holds each entry's (n_frames, window count), then each
    window's (start, end); the float64 payload holds every frame score, then
    every window score. Both are checked whole, and FormatError names the
    file and, where there is one, the entry.
    """
    manifest_path = Path(manifest_path)
    m = read_manifest(manifest_path) if manifest is None else manifest
    if "saliency" not in m.files:
        return None
    if "saliency_scores" not in m.files:
        raise FormatError(f"{manifest_path}: manifest missing payload entry 'saliency_scores'")
    ints_path = manifest_path.parent / m.files["saliency"]
    scores_path = manifest_path.parent / m.files["saliency_scores"]
    ints = _read_payload(ints_path, "<i8")
    scores = _read_payload(scores_path, "<f8")
    if len(ints) < 2 * m.count:
        raise FormatError(
            f"{ints_path}: byte length mismatch, {m.count} entries need at least "
            f"{16 * m.count} bytes, found {8 * len(ints)}"
        )
    counts = ints[: 2 * m.count].reshape(m.count, 2)
    # no count exceeds the number of stored scores, so their sums cannot overflow
    bad = ((counts < 0) | (counts > len(scores))).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise FormatError(
            f"{ints_path}: entry {i}: n_frames {counts[i, 0]} and window count "
            f"{counts[i, 1]} must lie in [0, {len(scores)}], the stored score count"
        )
    n_frames, n_windows = counts[:, 0], counts[:, 1]
    n_scores, n_win = int(n_frames.sum()), int(n_windows.sum())
    if len(ints) != 2 * (m.count + n_win):
        raise FormatError(
            f"{ints_path}: byte length mismatch, expected {16 * (m.count + n_win)} bytes "
            f"for {m.count} entries and {n_win} windows, found {8 * len(ints)}"
        )
    if len(scores) != n_scores + n_win:
        raise FormatError(
            f"{scores_path}: byte length mismatch, expected {8 * (n_scores + n_win)} bytes "
            f"for {n_scores} frame and {n_win} window scores, found {8 * len(scores)}"
        )
    frame_offsets = np.concatenate(([0], np.cumsum(n_frames)))
    window_entry = np.repeat(np.arange(m.count), n_windows)
    finite = np.isfinite(scores)
    if not finite.all():
        k = int(np.argmin(finite))
        i = (
            np.searchsorted(frame_offsets, k, side="right") - 1
            if k < n_scores else window_entry[k - n_scores]
        )
        raise FormatError(f"{scores_path}: entry {i}: non-finite score at flat offset {k}")
    start, end = ints[2 * m.count :].reshape(n_win, 2).T
    inside = (0 <= start) & (start < end) & (end <= n_frames[window_entry])
    if not inside.all():
        j = int(np.argmin(inside))
        i = int(window_entry[j])
        raise FormatError(
            f"{ints_path}: entry {i}: moment window [{start[j]}, {end[j]}) out of bounds "
            f"for {n_frames[i]} frames"
        )

    frame_offsets = frame_offsets.tolist()
    window_offsets = np.concatenate(([0], np.cumsum(n_windows))).tolist()
    windows = list(map(MomentWindow, start.tolist(), end.tolist(), scores[n_scores:].tolist()))
    return [
        _loaded(SaliencyAnnotation, scores[f0:f1], tuple(windows[w0:w1]), f1 - f0)
        for f0, f1, w0, w1 in zip(
            frame_offsets, frame_offsets[1:], window_offsets, window_offsets[1:]
        )
    ]


def load_causal_masks(
    manifest_path: str | Path, manifest: FeatureManifest | None = None
) -> np.ndarray | None:
    """Load ground-truth causal masks if the manifest (read from
    manifest_path unless already parsed) declares them: bool [count, n_clips]."""
    manifest_path = Path(manifest_path)
    m = read_manifest(manifest_path) if manifest is None else manifest
    if "masks" not in m.files:
        return None
    raw = _read_payload(manifest_path.parent / m.files["masks"], "u1", (m.count, m.n_clips))
    return raw.astype(bool)


# -- synthetic generation ----------------------------------------------------


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[list[VideoQAInstance], list[SaliencyAnnotation], np.ndarray]:
    """Generate instances with a planted causal block; pure function of spec.

    Returns (instances, saliency annotations, ground-truth causal masks).
    The causal block is a contiguous run of clips whose rows point along a
    fixed random linear image of the gold answer vector; a linear readout
    can therefore recover the gold index from the causal clips alone.
    Saliency is high exactly on frames of causal clips.
    """
    rng = np.random.default_rng(spec.seed)
    answer_protos = np.stack(
        [_unit(rng.normal(size=spec.text_dim)) for _ in range(N_ANSWERS)]
    )
    qtype_protos = np.stack([_unit(rng.normal(size=spec.text_dim)) for _ in range(3)])
    # Fixed map from answer space into video space; scaled so unit vectors
    # keep roughly unit norm under the map.
    video_map = rng.normal(scale=1.0 / math.sqrt(spec.text_dim), size=(spec.video_dim, spec.text_dim))
    # When the two spaces share a dimension, the planted direction could
    # retain a fixed overlap with the raw answer vectors, leaking answer
    # identity into the video even at leak_strength 0. Removing the span of
    # the answer prototypes keeps that channel closed unless explicitly
    # opened via leak_strength.
    proto_basis = None
    if spec.video_dim == spec.text_dim:
        proto_basis, _ = np.linalg.qr(answer_protos.T)

    instances: list[VideoQAInstance] = []
    saliencies: list[SaliencyAnnotation] = []
    masks = np.zeros((spec.n_instances, spec.n_clips), dtype=bool)
    n_frames = spec.n_clips * spec.frames_per_clip

    for i in range(spec.n_instances):
        gold = int(rng.integers(0, N_ANSWERS))
        qtype = Qtype(int(rng.integers(0, 3)))
        answers = np.stack(
            [_unit(answer_protos[k] + 0.1 * rng.normal(size=spec.text_dim)) for k in range(N_ANSWERS)]
        )
        question = _unit(qtype_protos[int(qtype)] + 0.5 * rng.normal(size=spec.text_dim))

        start = int(rng.integers(0, spec.n_clips - spec.n_causal + 1))
        causal = np.zeros(spec.n_clips, dtype=bool)
        causal[start : start + spec.n_causal] = True
        masks[i] = causal

        signal = video_map @ answers[gold]
        if proto_basis is not None:
            signal = signal - proto_basis @ (proto_basis.T @ signal)
        signal = _unit(signal)
        video = np.empty((spec.n_clips, spec.video_dim))
        for c in range(spec.n_clips):
            base = signal if causal[c] else _unit(video_map @ _unit(rng.normal(size=spec.text_dim)))
            video[c] = base + spec.noise_std * rng.normal(size=spec.video_dim)
        if spec.leak_strength > 0.0:
            video += spec.leak_strength * answers[gold]

        scores = rng.uniform(0.0, 0.3, size=n_frames)
        frame_causal = np.repeat(causal, spec.frames_per_clip)
        scores[frame_causal] = rng.uniform(0.7, 1.0, size=int(frame_causal.sum()))
        windows = [
            MomentWindow(
                start * spec.frames_per_clip,
                (start + spec.n_causal) * spec.frames_per_clip,
                float(scores[frame_causal].mean()),
            )
        ]

        instances.append(
            VideoQAInstance(
                video_id=f"syn{i:05d}",
                video=video.astype(np.float32),
                question=question.astype(np.float32),
                answers=answers.astype(np.float32),
                gold=gold,
                qtype=qtype,
            )
        )
        saliencies.append(
            SaliencyAnnotation(scores=scores, windows=tuple(windows), n_frames=n_frames)
        )
    return instances, saliencies, masks
