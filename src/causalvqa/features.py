"""Feature data model, file I/O, and synthetic data generation.

Upstream video/text encoders are out of scope; their outputs arrive here as
files. A dataset on disk is a JSON manifest plus raw little-endian float32
payloads (row-major), with gold labels and question types as u8 arrays.
The synthetic generator plants a known causal structure so downstream
mechanisms can be tested against ground truth.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

FORMAT_VERSION = 1
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
            raise FormatError(f"unsupported manifest version {self.version}")
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


def _read_payload(path: Path, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    if not path.is_file():
        raise FormatError(f"payload file missing: {path}")
    raw = path.read_bytes()
    itemsize = np.dtype(dtype).itemsize
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
        files["saliency"] = f"{stem}.saliency.json"
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
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    root = manifest_path.parent

    for name, payload in payloads.items():
        write_atomic(root / files[name], payload)
    write_atomic(root / files["gold"], bytes(i.gold for i in instances))
    write_atomic(root / files["qtype"], bytes(int(i.qtype) for i in instances))
    write_atomic(root / files["ids"], json.dumps([i.video_id for i in instances]))
    if saliencies is not None:
        blob = [
            {
                "n_frames": s.n_frames,
                "scores": [float(x) for x in s.scores],
                "windows": [[w.start_frame, w.end_frame, w.score] for w in s.windows],
            }
            for s in saliencies
        ]
        write_atomic(root / files["saliency"], json.dumps(blob))
    if causal_masks is not None:
        write_atomic(root / files["masks"], np.asarray(causal_masks, dtype=np.uint8).tobytes())

    body = {
        "version": manifest.version,
        "count": manifest.count,
        "n_clips": manifest.n_clips,
        "video_dim": manifest.video_dim,
        "text_dim": manifest.text_dim,
        "n_answers": manifest.n_answers,
        "files": files,
    }
    write_atomic(manifest_path, json.dumps(body, indent=2) + "\n")
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


def load_dataset(manifest_path: str | Path) -> list[VideoQAInstance]:
    """Load instances described by a manifest; validates shapes and values."""
    manifest_path = Path(manifest_path)
    m = read_manifest(manifest_path)
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

    ids_path = root / m.files.get("ids", "")
    if "ids" in m.files and ids_path.is_file():
        ids = read_json(ids_path, list)
        if len(ids) != m.count:
            raise FormatError(f"{ids_path}: lists {len(ids)} entries, manifest count {m.count}")
    else:
        ids = [f"v{i:05d}" for i in range(m.count)]

    out = []
    for i in range(m.count):
        g = int(gold[i])
        if not 0 <= g < N_ANSWERS:
            raise FormatError(f"gold index {g} out of range at instance {i}")
        t = int(qtype[i])
        if t not in (0, 1, 2):
            raise FormatError(f"qtype {t} out of range at instance {i}")
        out.append(
            VideoQAInstance(
                video_id=str(ids[i]),
                video=video[i],
                question=question[i],
                answers=answers[i],
                gold=g,
                qtype=Qtype(t),
            )
        )
    return out


def load_saliency(manifest_path: str | Path) -> list[SaliencyAnnotation] | None:
    """Load the saliency sidecar if the manifest declares one."""
    manifest_path = Path(manifest_path)
    m = read_manifest(manifest_path)
    if "saliency" not in m.files:
        return None
    path = manifest_path.parent / m.files["saliency"]
    blob = read_json(path, list)
    if len(blob) != m.count:
        raise FormatError(f"{path}: lists {len(blob)} entries, manifest count {m.count}")
    out = []
    for i, e in enumerate(blob):
        try:
            out.append(SaliencyAnnotation(
                scores=np.array(e["scores"], dtype=np.float64),
                windows=tuple(MomentWindow(int(s), int(t), float(sc)) for s, t, sc in e["windows"]),
                n_frames=int(e["n_frames"]),
            ))
        except KeyError as exc:
            raise FormatError(f"{path}: entry {i} lacks {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # FormatError too
            raise FormatError(f"{path}: entry {i}: {exc}") from None
    return out


def load_causal_masks(manifest_path: str | Path) -> np.ndarray | None:
    """Load ground-truth causal masks if present: bool [count, n_clips]."""
    manifest_path = Path(manifest_path)
    m = read_manifest(manifest_path)
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
