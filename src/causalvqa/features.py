"""Feature data model, file I/O, the JSON section schema, and synthetic
data generation.

Upstream video/text encoders are out of scope; their outputs arrive here as
files. A dataset on disk is a JSON manifest plus raw little-endian float32
payloads (row-major), with gold labels and question types as u8 arrays and
saliency annotations as flat int64 and float64 arrays. Every JSON file
(a config, a manifest, model.json) is read by read_json and checked
against its dataclass by read_section.
The synthetic generator plants a known causal structure so downstream
mechanisms can be tested against ground truth.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from enum import Enum, IntEnum
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, get_args, get_type_hints

import numpy as np

FORMAT_VERSION = 2
N_ANSWERS = 5


class FormatError(ValueError):
    """A saved dataset or checkpoint file violates its format."""


class ConfigError(ValueError):
    """Carries one message per invalid field of a JSON section."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class FieldError(ValueError):
    """A section dataclass's rejection of one named field."""

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(message)


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


class VideoQAInstance(NamedTuple):
    """Sample i of a Dataset as views of its arrays' rows. The Dataset
    checked them, so a row has no checks of its own."""

    video_id: str
    video: np.ndarray  # [n_clips, video_dim]
    question: np.ndarray  # [text_dim]
    answers: np.ndarray  # [N_ANSWERS, text_dim]
    gold: int
    qtype: Qtype

    @property
    def n_clips(self) -> int:
        return self.video.shape[0]


class Dataset:
    """N multiple-choice samples as read-only arrays: video [N, n_clips,
    video_dim], question [N, text_dim], answers [N, N_ANSWERS, text_dim],
    gold and qtype [N] int64, and a tuple of N video ids. ds[i] is sample
    i's row view; ds[:n] or ds[index_array] the Dataset of those rows.

    The constructor is the one place the data rules are checked: the
    shapes agree, features are finite float32 or float64, gold and qtype
    are in range, and ids are distinct strings without '+', with which
    the bank names a blend of two videos ("a+b"). Features are kept as
    read-only float64: float32 and writeable float64 input are copied,
    read-only float64 input is kept as given. A FormatError names
    files[array], the file an array was read from, else the array.
    """

    __slots__ = ("ids", "video", "question", "answers", "gold", "qtype")

    def __init__(self, ids, video, question, answers, gold, qtype, files: dict | None = None):
        where = {name: name for name in self.__slots__} | (files or {})
        video, question, answers = np.asarray(video), np.asarray(question), np.asarray(answers)
        if video.ndim != 3 or 0 in video.shape[1:]:
            raise FormatError(f"video must be [N, n_clips, video_dim], got {video.shape}")
        n = len(video)
        if question.ndim != 2 or len(question) != n or question.shape[1] == 0:
            raise FormatError(f"question must be [{n}, text_dim], got {question.shape}")
        if answers.shape != (n, N_ANSWERS, question.shape[1]):
            raise FormatError(
                f"answers must be [{n}, {N_ANSWERS}, {question.shape[1]}], got {answers.shape}"
            )
        for name, arr in (("video", video), ("question", question), ("answers", answers)):
            if arr.dtype not in (np.float32, np.float64):
                raise FormatError(f"{name} must be float32 or float64, got {arr.dtype}")
            _require_finite_payload(str(where[name]), arr)
            if arr.dtype != np.float64 or arr.flags.writeable:
                arr = arr.astype(np.float64)
            setattr(self, name, _read_only(arr))
        for name, arr in (("gold", np.asarray(gold)), ("qtype", np.asarray(qtype))):
            if arr.shape != (n,) or (n and arr.dtype.kind not in "iu"):
                raise FormatError(f"{name} must be [{n}] integers, got {arr.dtype} {arr.shape}")
        labels = _read_only(np.array([gold, qtype], dtype=np.int64).reshape(2, n))
        limits = np.array([[N_ANSWERS], [len(Qtype)]])
        bad = (labels < 0) | (labels >= limits)
        if bad.any():
            i = int(np.argmax(bad.any(axis=0)))
            row = int(np.argmax(bad[:, i]))
            raise FormatError(f"{where[('gold', 'qtype')[row]]}: {labels[row, i]} out of range "
                              f"[0, {limits[row, 0]}) at instance {i}")
        self.gold, self.qtype = labels
        self.ids = _checked_ids(tuple(ids), n, where["ids"])

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        """The row view of sample key, or the Dataset of the rows key
        selects; iteration yields the row views."""
        if isinstance(key, (int, np.integer)):
            return VideoQAInstance(
                self.ids[key], self.video[key], self.question[key], self.answers[key],
                int(self.gold[key]), Qtype(int(self.qtype[key])),
            )
        rows = np.arange(len(self))[key]
        # the selected rows are copies nothing else holds: kept as they are
        features = (_read_only(a[rows]) for a in (self.video, self.question, self.answers))
        return Dataset([self.ids[i] for i in rows], *features, self.gold[rows], self.qtype[rows])

    @property
    def n_clips(self) -> int:
        return self.video.shape[1]

    @property
    def video_dim(self) -> int:
        return self.video.shape[2]

    @property
    def text_dim(self) -> int:
        return self.question.shape[1]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _checked_ids(ids: tuple, n: int, where) -> tuple:
    """ids, when they are n distinct strings without '+'; else FormatError
    naming where and the first entry at fault."""
    if len(ids) != n:
        raise FormatError(f"{where}: lists {len(ids)} entries for {n} samples")
    if all(isinstance(v, str) for v in ids) and "+" not in "".join(ids) and len(set(ids)) == n:
        return ids  # the common case, checked without a loop over entries
    first: dict[str, int] = {}
    for i, v in enumerate(ids):
        if not isinstance(v, str):
            raise FormatError(f"{where}: entry {i}: expected a string, got {v!r}")
        if "+" in v:
            raise FormatError(f"{where}: entry {i}: {v!r} contains '+', which names blends")
        if first.setdefault(v, i) != i:
            raise FormatError(f"{where}: entry {i}: {v!r} repeats entry {first[v]}")
    return ids


@dataclass(frozen=True, kw_only=True)
class FeatureManifest:
    """A dataset manifest, its fields in the order save_dataset writes them."""

    version: int
    count: int
    n_clips: int
    video_dim: int
    text_dim: int
    n_answers: int = N_ANSWERS
    files: dict  # payload name -> file name, relative to the manifest's directory

    def __post_init__(self) -> None:
        if self.version != FORMAT_VERSION:
            raise FieldError(
                "version",
                f"unsupported manifest version {self.version} (this release reads "
                f"version {FORMAT_VERSION}); regenerate the dataset with gen-data",
            )
        if self.count < 0:
            raise FieldError("count", "must be nonnegative")
        for name in ("n_clips", "video_dim", "text_dim"):
            if getattr(self, name) <= 0:
                raise FieldError(name, "must be positive")
        if self.n_answers != N_ANSWERS:
            raise FieldError("n_answers", f"must be {N_ANSWERS}")
        if not all(isinstance(f, str) for f in self.files.values()):
            raise FieldError("files", "expected an object of file names")
        missing = {"video", "question", "answers", "gold", "qtype"} - set(self.files)
        if missing:
            raise FieldError("files", f"missing payload entries: {sorted(missing)}")


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
    is missing or unreadable, is not valid JSON, or holds a value other
    than a JSON object (expected=dict) or list (expected=list)."""
    if not path.is_file():
        raise FormatError(f"{path}: file not found")
    try:
        body = json.loads(path.read_text())
    except OSError as exc:  # a directory's or an unreadable file's
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:  # a JSON or UTF-8 decoding error
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(body, expected):
        raise FormatError(f"{path}: expected a JSON {'object' if expected is dict else 'list'}")
    return body


# -- JSON sections (JSON objects -> dataclasses) ----------------------------------


_JSON_KINDS = {
    bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
    dict: "an object", type(None): "null",
}


class _Rule(NamedTuple):
    """How build_section reads one field, worked out once per class."""

    kinds: tuple  # the JSON kinds the field's hint accepts
    exact: frozenset  # value types taken as they are: every kind but float, which must be finite
    nullable: bool
    nested: type | None  # the dataclass a JSON object is read into
    enum: type[Enum] | None  # the Enum the value is converted through


def _rule(hint) -> _Rule:
    kinds = get_args(hint) or (hint,)
    nested = next((kind for kind in kinds if is_dataclass(kind)), None)
    enum = kinds[0] if isinstance(kinds[0], type) and issubclass(kinds[0], Enum) else None
    exact = frozenset(kinds) & {bool, int, str, dict}
    return _Rule(kinds, exact, type(None) in kinds, nested, enum)


@cache  # evaluating annotations takes ~0.1 ms a class, and reading runs per file
def _schema(factory: Callable) -> tuple[dict[str, _Rule], tuple[str, ...]]:
    """The reading rule of each of a dataclass's fields, and the names of
    the fields with no default."""
    hints = get_type_hints(factory)
    rules = {f.name: _rule(hints[f.name]) for f in fields(factory)}
    required = tuple(
        f.name for f in fields(factory) if f.default is MISSING and f.default_factory is MISSING
    )
    return rules, required


def _json_type_ok(value, kind) -> bool:
    """int takes no bool or float; float takes ints, but only finite values
    (no NaN, Infinity, or 1e400, which json parses as Infinity); bool only
    true/false."""
    if kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            return False
        return kind is int or abs(value) <= sys.float_info.max  # false for NaN
    return isinstance(value, kind)


def build_section(problems: list[str], section: str, factory: Callable, raw: dict):
    """factory(**raw) for one JSON section ("" for the top level), each
    field read by its type hint: a dataclass field is a nested section, an
    Enum field is converted from its value, null is taken only where the
    hint allows None. Keys that name no field go to the factory, which
    rejects them. Returns None with one message appended per missing
    required field or value that does not fit its field, else one for the
    factory's own rejection."""

    def where(key: str | None) -> str:
        return ".".join(part for part in (section, key) if part)

    rules, required = _schema(factory)
    reported = len(problems)
    problems.extend(f"{where(key)}: required" for key in required if key not in raw)
    kwargs = {}
    for key, value in raw.items():
        rule = rules.get(key)
        if rule is None or (value is None and rule.nullable):
            kwargs[key] = value
        elif rule.nested is not None and isinstance(value, dict):
            kwargs[key] = build_section(problems, where(key), rule.nested, value)
        elif rule.nested is not None:
            problems.append(f"{where(key)}: expected a JSON object")
        elif rule.enum is not None:
            try:
                kwargs[key] = rule.enum(value)
            except ValueError:
                problems.append(f"{where(key)}: unknown {value!r}")
        elif type(value) in rule.exact or any(_json_type_ok(value, k) for k in rule.kinds):
            kwargs[key] = value
        else:
            expected = " or ".join(_JSON_KINDS[kind] for kind in rule.kinds)
            problems.append(f"{where(key)}: expected {expected}, got {json.dumps(value)}")
    if len(problems) > reported:
        return None
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        problems.append(f"{where(exc.name if isinstance(exc, FieldError) else None)}: {exc}")
        return None


def read_section(raw: dict, factory: Callable):
    """factory built from the top-level keys of raw that name its fields;
    ConfigError lists every problem at once."""
    problems: list[str] = []
    names = _schema(factory)[0]
    built = build_section(problems, "", factory, {k: v for k, v in raw.items() if k in names})
    if problems:
        raise ConfigError(problems)
    return built


def file_section(path: Path, raw: dict, factory: Callable):
    """read_section of raw, the JSON object read from path; FormatError
    names the file, then lists every problem as `<field>: <problem>`."""
    try:
        return read_section(raw, factory)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None


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
    dataset: Dataset,
    manifest_path: str | Path,
    saliencies: Sequence[SaliencyAnnotation] | None = None,
    causal_masks: np.ndarray | None = None,
) -> FeatureManifest:
    """Write a dataset (and optional sidecars) next to a JSON manifest.

    The round trip through load_dataset is bit-exact: feature values that
    float32 cannot hold exactly raise FormatError before anything is written.
    """
    manifest_path = Path(manifest_path)
    stem = manifest_path.stem
    count, n_clips = len(dataset), dataset.n_clips
    files = {
        "video": f"{stem}.video.f32",
        "question": f"{stem}.question.f32",
        "answers": f"{stem}.answers.f32",
        "gold": f"{stem}.gold.u8",
        "qtype": f"{stem}.qtype.u8",
        "ids": f"{stem}.ids.json",
    }
    if saliencies is not None:
        if len(saliencies) != count:
            raise FormatError("saliency count does not match instance count")
        files["saliency"] = f"{stem}.saliency.i8"
        files["saliency_scores"] = f"{stem}.saliency.f8"
    if causal_masks is not None:
        if causal_masks.shape != (count, n_clips):
            raise FormatError(f"causal mask shape {causal_masks.shape} vs ({count}, {n_clips})")
        files["masks"] = f"{stem}.masks.u8"

    manifest = FeatureManifest(
        version=FORMAT_VERSION,
        count=count,
        n_clips=n_clips,
        video_dim=dataset.video_dim,
        text_dim=dataset.text_dim,
        files=files,
    )
    payloads = {}
    for name in ("video", "question", "answers"):
        values = getattr(dataset, name)
        at_rest = values.astype("<f4")
        if not np.array_equal(at_rest, values):
            raise FormatError(f"{name}: values are not exactly representable as float32")
        payloads[name] = at_rest.tobytes()
    payloads["gold"] = dataset.gold.astype("u1").tobytes()
    payloads["qtype"] = dataset.qtype.astype("u1").tobytes()
    payloads["ids"] = json.dumps(list(dataset.ids))
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
    write_indexed(
        manifest_path,
        {manifest_path.parent / files[name]: payload for name, payload in payloads.items()},
        json.dumps(asdict(manifest), indent=2) + "\n",
    )
    return manifest


def read_manifest(manifest_path: str | Path) -> FeatureManifest:
    """The manifest at manifest_path; FormatError names the file when it
    is missing, lacks a field, holds a field of the wrong JSON type or a
    value FeatureManifest rejects."""
    manifest_path = Path(manifest_path)
    return file_section(manifest_path, read_json(manifest_path), FeatureManifest)


_SALIENCY_FIELDS = [f.name for f in fields(SaliencyAnnotation)]


def _loaded_saliency(*values) -> SaliencyAnnotation:
    """A SaliencyAnnotation over values load_saliency has checked whole (as
    read-only arrays), built without __post_init__'s per-object checks of
    the same values. Fields are set one by one, as the dataclass __init__
    sets them: writing __dict__ directly would give the object a slower
    attribute layout."""
    obj = object.__new__(SaliencyAnnotation)
    for name, value in zip(_SALIENCY_FIELDS, values):
        object.__setattr__(obj, name, value)
    return obj


def load_dataset(manifest_path: str | Path, manifest: FeatureManifest | None = None) -> Dataset:
    """The dataset a manifest (read from manifest_path unless already
    parsed) describes. A declared ids sidecar must exist; the Dataset
    checks every value and names the file at fault."""
    manifest_path = Path(manifest_path)
    m = read_manifest(manifest_path) if manifest is None else manifest
    files = {name: manifest_path.parent / file for name, file in m.files.items()}
    video = _read_payload(files["video"], "<f4", (m.count, m.n_clips, m.video_dim))
    question = _read_payload(files["question"], "<f4", (m.count, m.text_dim))
    answers = _read_payload(files["answers"], "<f4", (m.count, N_ANSWERS, m.text_dim))
    gold = _read_payload(files["gold"], "u1", (m.count,))
    qtype = _read_payload(files["qtype"], "u1", (m.count,))
    if "ids" in files:
        ids = read_json(files["ids"], list)
    else:
        ids = [f"v{i:05d}" for i in range(m.count)]
    return Dataset(ids, video, question, answers, gold, qtype, files)


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
        _loaded_saliency(scores[f0:f1], tuple(windows[w0:w1]), f1 - f0)
        for f0, f1, w0, w1 in zip(
            frame_offsets, frame_offsets[1:], window_offsets, window_offsets[1:]
        )
    ]


def load_causal_masks(
    manifest_path: str | Path, manifest: FeatureManifest | None = None
) -> np.ndarray | None:
    """Load ground-truth causal masks if the manifest (read from
    manifest_path unless already parsed) declares them: bool [count, n_clips]
    from bytes that are each 0 or 1."""
    manifest_path = Path(manifest_path)
    m = read_manifest(manifest_path) if manifest is None else manifest
    if "masks" not in m.files:
        return None
    path = manifest_path.parent / m.files["masks"]
    raw = _read_payload(path, "u1", (m.count, m.n_clips))
    bad = raw.reshape(-1) > 1
    if bad.any():
        k = int(np.argmax(bad))
        raise FormatError(f"{path}: byte {raw.flat[k]} is not 0 or 1, at flat offset {k}")
    return raw.astype(bool)


# -- synthetic generation ----------------------------------------------------


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[Dataset, list[SaliencyAnnotation], np.ndarray]:
    """Generate a dataset with a planted causal block; pure function of spec.

    Returns (dataset, saliency annotations, ground-truth causal masks).
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

    n = spec.n_instances
    # features are made in float64 and kept at float32, their at-rest precision
    videos = np.empty((n, spec.n_clips, spec.video_dim), dtype=np.float32)
    questions = np.empty((n, spec.text_dim), dtype=np.float32)
    answer_sets = np.empty((n, N_ANSWERS, spec.text_dim), dtype=np.float32)
    golds, qtypes = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    saliencies: list[SaliencyAnnotation] = []
    masks = np.zeros((n, spec.n_clips), dtype=bool)
    n_frames = spec.n_clips * spec.frames_per_clip

    for i in range(n):
        golds[i] = gold = int(rng.integers(0, N_ANSWERS))
        qtypes[i] = qtype = int(rng.integers(0, 3))
        answers = np.stack(
            [_unit(answer_protos[k] + 0.1 * rng.normal(size=spec.text_dim)) for k in range(N_ANSWERS)]
        )
        question = _unit(qtype_protos[qtype] + 0.5 * rng.normal(size=spec.text_dim))

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

        videos[i], questions[i], answer_sets[i] = video, question, answers
        saliencies.append(
            SaliencyAnnotation(scores=scores, windows=tuple(windows), n_frames=n_frames)
        )
    ids = [f"syn{i:05d}" for i in range(n)]
    return Dataset(ids, videos, questions, answer_sets, golds, qtypes), saliencies, masks
