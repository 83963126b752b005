from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalvqa import features as ft


def make_dataset(n=3, n_clips=4, video_dim=6, text_dim=5, seed=0):
    """A Dataset of n samples with float32 features, drawn sample by sample."""
    g = np.random.default_rng(seed)
    video = np.empty((n, n_clips, video_dim), dtype=np.float32)
    question = np.empty((n, text_dim), dtype=np.float32)
    answers = np.empty((n, ft.N_ANSWERS, text_dim), dtype=np.float32)
    gold, qtype = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for i in range(n):
        video[i] = g.normal(size=(n_clips, video_dim))
        question[i] = g.normal(size=text_dim)
        answers[i] = g.normal(size=(ft.N_ANSWERS, text_dim))
        gold[i], qtype[i] = g.integers(0, 5), g.integers(0, 3)
    return ft.Dataset([f"vid{i}" for i in range(n)], video, question, answers, gold, qtype)


def rebuilt(ds, **changes):
    """The Dataset of ds's arrays, with the named ones replaced."""
    arrays = dict(ids=ds.ids, video=ds.video, question=ds.question, answers=ds.answers,
                  gold=ds.gold, qtype=ds.qtype)
    return ft.Dataset(**{**arrays, **changes})


class TestInstanceValidation:
    """The Dataset constructor's checks: every sample's rules, checked once."""

    def test_rejects_wrong_dtype(self):
        ds = make_dataset(1)
        for dtype in (np.float16, np.int64):
            with pytest.raises(ft.FormatError, match="float32 or float64"):
                rebuilt(ds, video=ds.video.astype(dtype))
        video32 = ds.video.astype(np.float32)
        made = rebuilt(ds, video=video32, question=ds.question.astype(np.float32))
        for arr in (made.video, made.question, made.answers):
            assert arr.dtype == np.float64
            assert not arr.flags.writeable
        np.testing.assert_array_equal(made.video, video32)
        assert video32.flags.writeable  # the caller's array is left as it was

    def test_writeable_float64_input_is_copied(self):
        ds = make_dataset(1)
        video = np.array(ds.video)
        made = rebuilt(ds, video=video)
        video[0, 0, 0] += 1.0
        np.testing.assert_array_equal(made.video, ds.video)
        with pytest.raises(ValueError, match="read-only"):
            made.video[0, 0, 0] = 0.0
        # read-only float64 input is kept as given
        assert made.question is ds.question and made.answers is ds.answers

    def test_rejects_bad_gold(self):
        ds = make_dataset(2)
        with pytest.raises(ft.FormatError, match=r"^gold: 5 out of range \[0, 5\) at instance 1$"):
            rebuilt(ds, gold=[0, 5])
        with pytest.raises(ft.FormatError, match=r"^gold: -1 out of range"):
            rebuilt(ds, gold=[-1, 0])
        with pytest.raises(ft.FormatError, match=r"^qtype: 3 out of range \[0, 3\) at instance 0$"):
            rebuilt(ds, qtype=[3, 0])
        with pytest.raises(ft.FormatError, match="gold must be \\[2\\] integers"):
            rebuilt(ds, gold=[0.0, 1.0])

    def test_rejects_nan(self):
        ds = make_dataset(2)
        bad = ds.video.copy()
        bad[1, 0, 0] = np.nan
        with pytest.raises(ft.FormatError, match="^video: non-finite value at flat offset 24$"):
            rebuilt(ds, video=bad)

    def test_rejects_answer_count_mismatch(self):
        ds = make_dataset(1)
        with pytest.raises(ft.FormatError, match="answers"):
            rebuilt(ds, answers=ds.answers[:, :4])

    @pytest.mark.parametrize("changes, message", [
        (lambda ds: {"question": ds.question[:2]}, r"question must be \[3, text_dim\]"),
        (lambda ds: {"answers": ds.answers[..., :3]}, r"answers must be \[3, 5, 5\]"),
        (lambda ds: {"video": ds.video[0]}, r"video must be \[N, n_clips, video_dim\]"),
        (lambda ds: {"video": ds.video[:, :0]}, r"video must be \[N, n_clips, video_dim\]"),
        (lambda ds: {"qtype": ds.qtype[:2]}, r"qtype must be \[3\] integers"),
        (lambda ds: {"ids": ds.ids[:2]}, r"ids: lists 2 entries for 3 samples"),
    ], ids=["question-rows", "answers-dim", "video-2d", "no-clips", "qtype-rows", "ids-count"])
    def test_rejects_shapes_that_disagree(self, changes, message):
        ds = make_dataset(3)
        with pytest.raises(ft.FormatError, match=message):
            rebuilt(ds, **changes(ds))

    @pytest.mark.parametrize("ids, message", [
        (["a", "b", "a"], "ids: entry 2: 'a' repeats entry 0"),
        (["a", 7, "b"], "ids: entry 1: expected a string, got 7"),
        (["a", "b+c", "d"], "ids: entry 1: 'b\\+c' contains '\\+'"),
    ], ids=["duplicate", "not-a-string", "plus"])
    def test_rejects_ids_the_bank_cannot_tell_apart(self, ids, message):
        with pytest.raises(ft.FormatError, match=f"^{message}"):
            rebuilt(make_dataset(3), ids=ids)


class TestRowsAndSelections:
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_and_selections_are_the_arrays(self, n, data):
        ds = make_dataset(n, seed=n)
        i = data.draw(st.integers(-n, n - 1))
        row = ds[i]
        assert type(row) is ft.VideoQAInstance and row.video_id == ds.ids[i]
        for name in ("video", "question", "answers"):
            assert getattr(row, name).tobytes() == getattr(ds, name)[i].tobytes()
        assert type(row.gold) is int and row.gold == ds.gold[i]
        assert type(row.qtype) is ft.Qtype and row.qtype == ds.qtype[i]
        assert row.n_clips == ds.n_clips
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)),
                       dtype=np.int64)
        for key in (idx, slice(1, None, 2)):
            got = ds[key]
            rows = np.arange(n)[key]
            want = ft.Dataset([ds.ids[j] for j in rows], ds.video[rows], ds.question[rows],
                              ds.answers[rows], ds.gold[rows], ds.qtype[rows])
            assert type(got) is ft.Dataset and got.ids == want.ids
            for name in ("video", "question", "answers", "gold", "qtype"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
        assert [r.video_id for r in ds] == list(ds.ids) and len(ds) == n

    def test_a_selection_with_a_repeated_row_is_refused(self):
        with pytest.raises(ft.FormatError, match="repeats entry 0"):
            make_dataset(3)[[1, 1]]


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        ds = make_dataset(3)
        ft.save_dataset(ds, tmp_path / "d.json")
        loaded = ft.load_dataset(tmp_path / "d.json")
        assert len(loaded) == 3 and loaded.ids == ds.ids
        for name in ("video", "question", "answers", "gold", "qtype"):
            assert getattr(ds, name).tobytes() == getattr(loaded, name).tobytes()

    def test_empty_list(self, tmp_path):
        # an empty dataset keeps its dims through the round trip
        empty = make_dataset(0, n_clips=4, video_dim=6, text_dim=5)
        m = ft.save_dataset(empty, tmp_path / "d.json")
        assert (m.count, m.n_clips, m.video_dim, m.text_dim) == (0, 4, 6, 5)
        loaded = ft.load_dataset(tmp_path / "d.json")
        assert len(loaded) == 0 and loaded.ids == ()
        assert loaded.video.shape == (0, 4, 6) and loaded.answers.shape == (0, 5, 5)

    def test_loaded_features_are_read_only_float64(self, tmp_path):
        ft.save_dataset(make_dataset(2), tmp_path / "d.json")
        loaded = ft.load_dataset(tmp_path / "d.json")
        for arr in (loaded.video, loaded.question, loaded.answers, loaded.gold, loaded.qtype):
            assert arr.dtype == (np.int64 if arr.ndim == 1 else np.float64)
            assert not arr.flags.writeable
        for inst in loaded:
            with pytest.raises(ValueError):
                inst.video[0, 0] = 0.0

    def test_loaded_instances_equal_validated_ones(self, tmp_path):
        # load_dataset's Dataset is the one the constructor builds from the
        # payloads
        ft.save_dataset(make_dataset(4, n_clips=3), tmp_path / "d.json")
        payload = {
            name: np.fromfile(tmp_path / f"d.{name}.f32", dtype="<f4").reshape(4, *shape)
            for name, shape in (("video", (3, 6)), ("question", (5,)),
                                ("answers", (ft.N_ANSWERS, 5)))
        }
        gold = np.fromfile(tmp_path / "d.gold.u8", dtype="u1")
        qtype = np.fromfile(tmp_path / "d.qtype.u8", dtype="u1")
        loaded = ft.load_dataset(tmp_path / "d.json")
        want = ft.Dataset([f"vid{i}" for i in range(4)], **payload, gold=gold, qtype=qtype)
        assert type(loaded) is ft.Dataset
        assert all(type(v) is str for v in loaded.ids) and loaded.ids == want.ids
        for name in ("video", "question", "answers", "gold", "qtype"):
            a, b = getattr(loaded, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable and not b.flags.writeable
        assert (loaded.n_clips, loaded.video_dim, loaded.text_dim) == (3, 6, 5)

    def test_save_rejects_values_float32_cannot_hold(self, tmp_path):
        ds = make_dataset(2)
        video = ds.video.copy()
        video[1, 1, 2] += 1e-12
        with pytest.raises(ft.FormatError, match="video: values are not exactly"):
            ft.save_dataset(rebuilt(ds, video=video), tmp_path / "d.json")
        assert not list(tmp_path.iterdir())

    def test_failed_save_keeps_the_previous_files(self, tmp_path, monkeypatch):
        ft.save_dataset(make_dataset(3, seed=0), tmp_path / "d.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_replace(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="d.video.f32"):
            ft.save_dataset(make_dataset(3, seed=1), tmp_path / "d.json")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_resave_leaves_no_loadable_dataset(self, tmp_path, monkeypatch):
        # the second replace fails after the new video payload is in place;
        # the old manifest must not pair it with the old question payload
        ft.save_dataset(make_dataset(3, seed=0), tmp_path / "d.json")
        real_replace, calls = os.replace, []

        def replace_failing_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(f"cannot replace {dst}")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_second)
        with pytest.raises(OSError, match="d.question.f32"):
            ft.save_dataset(make_dataset(3, seed=1), tmp_path / "d.json")
        monkeypatch.undo()
        with pytest.raises(ft.FormatError, match="d.json: file not found"):
            ft.load_dataset(tmp_path / "d.json")

    def test_save_rejects_mixed_dims(self):
        # every sample of a Dataset has the same dims: arrays whose dims
        # disagree are refused before there is anything to save
        ds = make_dataset(2, text_dim=5)
        with pytest.raises(ft.FormatError, match=r"answers must be \[2, 5, 5\], got \(2, 5, 7\)"):
            rebuilt(ds, answers=make_dataset(2, text_dim=7).answers)

    def test_saliency_and_masks_round_trip(self, tmp_path):
        spec = ft.SyntheticSpec(n_instances=4, seed=1, n_clips=8, video_dim=16, text_dim=16)
        insts, sals, masks = ft.generate_synthetic(spec)
        ft.save_dataset(insts, tmp_path / "d.json", saliencies=sals, causal_masks=masks)
        sals2 = ft.load_saliency(tmp_path / "d.json")
        masks2 = ft.load_causal_masks(tmp_path / "d.json")
        np.testing.assert_array_equal(masks2, masks)
        for a, b in zip(sals, sals2):
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.windows == b.windows
            assert a.n_frames == b.n_frames

    def test_manifest_text_is_pinned(self, tmp_path):
        # the manifest is written from FeatureManifest's fields: their names
        # and order are the saved format
        spec = ft.SyntheticSpec(n_instances=2, n_clips=4, video_dim=6, text_dim=6)
        insts, sals, masks = ft.generate_synthetic(spec)
        ft.save_dataset(insts, tmp_path / "d.json", saliencies=sals, causal_masks=masks)
        assert (tmp_path / "d.json").read_text() == (
            '{\n  "version": 2,\n  "count": 2,\n  "n_clips": 4,\n  "video_dim": 6,\n'
            '  "text_dim": 6,\n  "n_answers": 5,\n  "files": {\n'
            '    "video": "d.video.f32",\n    "question": "d.question.f32",\n'
            '    "answers": "d.answers.f32",\n    "gold": "d.gold.u8",\n'
            '    "qtype": "d.qtype.u8",\n    "ids": "d.ids.json",\n'
            '    "saliency": "d.saliency.i8",\n    "saliency_scores": "d.saliency.f8",\n'
            '    "masks": "d.masks.u8"\n  }\n}\n'
        )

    def test_sidecars_absent_give_none(self, tmp_path):
        ft.save_dataset(make_dataset(2), tmp_path / "d.json")
        assert ft.load_saliency(tmp_path / "d.json") is None
        assert ft.load_causal_masks(tmp_path / "d.json") is None

    @given(st.integers(0, 5), st.integers(1, 4), st.integers(1, 7))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, n, n_clips, dim):
        ds = make_dataset(n, n_clips=n_clips, video_dim=dim, text_dim=dim, seed=n_clips)
        with tempfile.TemporaryDirectory() as tmp:
            ft.save_dataset(ds, Path(tmp) / "d.json")
            loaded = ft.load_dataset(Path(tmp) / "d.json")
        assert loaded.video.shape == (n, n_clips, dim) and loaded.ids == ds.ids
        for a, b in zip(ds, loaded):
            assert a.video.tobytes() == b.video.tobytes()
            assert a.gold == b.gold


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def saliency_lists(draw):
    """Annotations with any n_frames (0 included), entries with no windows
    and, through an empty list, an empty dataset."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        n_frames = draw(st.integers(0, 6))
        spans = st.tuples(st.integers(0, n_frames), st.integers(0, n_frames))
        windows = tuple(
            ft.MomentWindow(min(a, b), max(a, b), draw(finite))
            for a, b in draw(st.lists(spans.filter(lambda ab: ab[0] != ab[1]), max_size=3))
            if n_frames > 0
        )
        scores = np.array(draw(st.lists(finite, min_size=n_frames, max_size=n_frames)))
        out.append(ft.SaliencyAnnotation(
            scores=scores.reshape(n_frames), windows=windows, n_frames=n_frames,
        ))
    return out


class TestSaliencyPayloads:
    @given(saliency_lists())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_bit_exact(self, saliencies):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.json"
            ft.save_dataset(make_dataset(len(saliencies)), path, saliencies=saliencies)
            loaded = ft.load_saliency(path)
        assert len(loaded) == len(saliencies)
        for a, b in zip(saliencies, loaded):
            assert type(b) is ft.SaliencyAnnotation and not b.scores.flags.writeable
            assert type(b.n_frames) is int and b.n_frames == a.n_frames
            assert b.scores.dtype == np.float64 and b.scores.tobytes() == a.scores.tobytes()
            assert [tuple(map(type, w)) for w in b.windows] == [(int, int, float)] * len(a.windows)
            assert [w[:2] for w in b.windows] == [w[:2] for w in a.windows]
            assert (np.array([w.score for w in b.windows]).tobytes()
                    == np.array([w.score for w in a.windows]).tobytes())

    @pytest.mark.parametrize("payload, index, value, message", [
        ("i8", 1, -1, r"d.saliency.i8: entry 0: n_frames 16 and window count -1 must lie"),
        ("i8", 2, 10**6, r"d.saliency.i8: entry 1: n_frames 1000000 .* must lie"),
        ("i8", -1, 17, r"d.saliency.i8: entry 2: moment window \[\d+, 17\) out of bounds for 16"),
        ("i8", -2, -1, r"d.saliency.i8: entry 2: moment window \[-1, \d+\) out of bounds"),
        ("i8", 6, 16, r"d.saliency.i8: entry 0: moment window \[16, \d+\) out of bounds"),
        ("f8", 17, np.nan, r"d.saliency.f8: entry 1: non-finite score at flat offset 17"),
        ("f8", -1, np.inf, r"d.saliency.f8: entry 2: non-finite score at flat offset 50"),
    ])
    def test_bad_value_names_file_and_entry(self, tmp_path, payload, index, value, message):
        insts, sals, _ = ft.generate_synthetic(
            ft.SyntheticSpec(n_instances=3, n_clips=4, video_dim=6, text_dim=6)
        )
        ft.save_dataset(insts, tmp_path / "d.json", saliencies=sals)
        path = tmp_path / f"d.saliency.{payload}"
        arr = np.fromfile(path, dtype=f"<{payload}")
        arr[index] = value
        arr.tofile(path)
        with pytest.raises(ft.FormatError, match=message):
            ft.load_saliency(tmp_path / "d.json")

    @pytest.mark.parametrize("payload, cut, message", [
        ("i8", 4, r"d.saliency.i8: byte length 92 is not a multiple of 8"),
        ("i8", 8, r"d.saliency.i8: byte length mismatch, expected 96 bytes .* found 88"),
        ("f8", 8, r"d.saliency.f8: byte length mismatch, expected 408 bytes .* found 400"),
    ])
    def test_truncated_payload_names_it(self, tmp_path, payload, cut, message):
        insts, sals, _ = ft.generate_synthetic(
            ft.SyntheticSpec(n_instances=3, n_clips=4, video_dim=6, text_dim=6)
        )
        ft.save_dataset(insts, tmp_path / "d.json", saliencies=sals)
        path = tmp_path / f"d.saliency.{payload}"
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ft.FormatError, match=message):
            ft.load_saliency(tmp_path / "d.json")


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory) -> dict[str, bytes]:
    spec = ft.SyntheticSpec(n_instances=4, seed=1, n_clips=4, video_dim=6, text_dim=6)
    insts, sals, masks = ft.generate_synthetic(spec)
    root = tmp_path_factory.mktemp("saved")
    ft.save_dataset(insts, root / "d.json", saliencies=sals, causal_masks=masks)
    return {p.name: p.read_bytes() for p in root.iterdir()}


# a manifest edit: (key, value), where the key is a manifest field, an entry
# of its files map, an unknown field or "" for the whole manifest, and a
# value of None deletes the key
MANIFEST_EDITS = st.tuples(
    st.sampled_from([
        "version", "count", "n_clips", "video_dim", "text_dim", "n_answers", "files", "extra",
        "files.video", "files.gold", "files.ids", "files.saliency", "files.saliency_scores",
        "files.masks", "",
    ]),
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from([
        "d.json", "d.video.f32", "d.ids.json", "d.saliency.i8", "d.saliency.f8", "d.gold.u8",
    ])
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
)


class TestLoadErrors:
    @settings(max_examples=200, deadline=None)
    @given(edits=st.lists(MANIFEST_EDITS, min_size=1, max_size=3))
    def test_mutated_manifest_loads_or_raises_format_error(self, saved_dataset, edits):
        body = json.loads(saved_dataset["d.json"])
        for key, value in edits:
            if not key:
                body = value
                continue
            section, _, name = key.rpartition(".")
            target = body.get(section) if section and isinstance(body, dict) else body
            if not isinstance(target, dict):
                continue
            if value is None:
                target.pop(name, None)
            else:
                target[name] = value
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, raw in saved_dataset.items():
                (root / name).write_bytes(raw)
            (root / "d.json").write_text(json.dumps(body))
            for load in (ft.load_dataset, ft.load_saliency, ft.load_causal_masks):
                try:
                    load(root / "d.json")
                except ft.FormatError:
                    pass

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["d.saliency.i8", "d.saliency.f8"]),
        edit=st.one_of(
            st.tuples(st.just("truncate"), st.integers(1, 64)),
            st.tuples(st.just("extend"), st.binary(min_size=1, max_size=24)),
            st.tuples(
                st.just("overwrite"),
                st.integers(0, 200),
                st.sampled_from([
                    np.float64(np.nan), np.float64(np.inf), np.float64(-1.5),
                    np.int64(-1), np.int64(0), np.int64(1), np.int64(15), np.int64(16),
                    np.int64(17), np.int64(2**62), np.int64(-(2**63)),
                ]).map(lambda v: v.tobytes()) | st.binary(min_size=8, max_size=8),
            ),
        ),
    )
    def test_mutated_saliency_loads_or_raises_format_error(self, saved_dataset, name, edit):
        raw = saved_dataset[name]
        if edit[0] == "truncate":
            raw = raw[: max(0, len(raw) - edit[1])]
        elif edit[0] == "extend":
            raw = raw + edit[1]
        else:
            at = 8 * (edit[1] % (len(raw) // 8))
            raw = raw[:at] + edit[2] + raw[at + 8 :]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for file, data in saved_dataset.items():
                (root / file).write_bytes(data)
            (root / name).write_bytes(raw)
            try:
                ft.load_saliency(root / "d.json")
            except ft.FormatError:
                pass

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda body: body.pop("count"), "count: required"),
            (lambda body: body.update(count=True), "count: expected an integer, got true"),
            (lambda body: body.update(files=[]), "files: expected an object, got []"),
            (lambda body: body["files"].update(video=5),
             "files: expected an object of file names"),
            (lambda body: body.update(version=1), "version: unsupported manifest version 1 "),
            (lambda body: body.update(n_clips=0), "n_clips: must be positive"),
            (lambda body: body["files"].pop("gold"),
             "files: missing payload entries: ['gold']"),
        ],
        ids=["no-count", "count-bool", "files-list", "file-number", "version-1",
             "n_clips-0", "no-gold-file"],
    )
    def test_manifest_rejection_names_the_file_and_field(self, tmp_path, saved_dataset,
                                                          edit, problem):
        body = json.loads(saved_dataset["d.json"])
        edit(body)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(body))
        with pytest.raises(ft.FormatError) as info:
            ft.read_manifest(path)
        assert str(info.value).startswith(f"{path}: {problem}")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ft.FormatError, match="not found"):
            ft.load_dataset(tmp_path / "nope.json")

    def test_truncated_payload_reports_lengths(self, tmp_path):
        ft.save_dataset(make_dataset(2), tmp_path / "d.json")
        video = tmp_path / "d.video.f32"
        video.write_bytes(video.read_bytes()[:-4])
        with pytest.raises(ft.FormatError, match="expected 192 bytes.*found 188"):
            ft.load_dataset(tmp_path / "d.json")

    def test_nonfinite_payload_reports_offset(self, tmp_path):
        ft.save_dataset(make_dataset(2), tmp_path / "d.json")
        video = tmp_path / "d.video.f32"
        arr = np.frombuffer(video.read_bytes(), dtype="<f4").copy()
        arr[5] = np.nan
        video.write_bytes(arr.tobytes())
        with pytest.raises(ft.FormatError, match=r"d.video.f32: non-finite value at flat offset 5$"):
            ft.load_dataset(tmp_path / "d.json")

    def test_gold_out_of_range(self, tmp_path):
        ft.save_dataset(make_dataset(2), tmp_path / "d.json")
        gold = tmp_path / "d.gold.u8"
        raw = bytearray(gold.read_bytes())
        raw[1] = 7
        gold.write_bytes(bytes(raw))
        with pytest.raises(ft.FormatError, match=r"d.gold.u8: 7 out of range \[0, 5\) at instance 1$"):
            ft.load_dataset(tmp_path / "d.json")

    def test_qtype_out_of_range(self, tmp_path):
        ft.save_dataset(make_dataset(3), tmp_path / "d.json")
        qtype = tmp_path / "d.qtype.u8"
        raw = bytearray(qtype.read_bytes())
        raw[2] = 3
        qtype.write_bytes(bytes(raw))
        with pytest.raises(ft.FormatError, match=r"d.qtype.u8: 3 out of range \[0, 3\) at instance 2$"):
            ft.load_dataset(tmp_path / "d.json")

    def test_first_bad_instance_is_named(self, tmp_path):
        # a bad qtype at instance 1 is reported before a bad gold at instance 2
        ft.save_dataset(make_dataset(3), tmp_path / "d.json")
        for name, i, value in (("gold", 2, 9), ("qtype", 1, 200)):
            path = tmp_path / f"d.{name}.u8"
            raw = bytearray(path.read_bytes())
            raw[i] = value
            path.write_bytes(bytes(raw))
        with pytest.raises(ft.FormatError, match=r"d.qtype.u8: 200 out of range .* at instance 1$"):
            ft.load_dataset(tmp_path / "d.json")

    def test_declared_ids_sidecar_missing_names_it(self, tmp_path):
        ft.save_dataset(make_dataset(3), tmp_path / "d.json")
        (tmp_path / "d.ids.json").unlink()
        with pytest.raises(ft.FormatError, match="d.ids.json: file not found"):
            ft.load_dataset(tmp_path / "d.json")

    def test_a_parsed_manifest_is_not_read_again(self, tmp_path, monkeypatch):
        instances, saliencies, masks = ft.generate_synthetic(
            ft.SyntheticSpec(n_instances=3, n_clips=4, video_dim=6, text_dim=6)
        )
        ft.save_dataset(instances, tmp_path / "d.json", saliencies=saliencies, causal_masks=masks)
        manifest = ft.read_manifest(tmp_path / "d.json")
        reads = []
        monkeypatch.setattr(ft, "read_manifest", lambda path: reads.append(path))
        loads = (ft.load_dataset, ft.load_saliency, ft.load_causal_masks)
        loaded = [load(tmp_path / "d.json", manifest) for load in loads]
        monkeypatch.undo()
        assert reads == []
        from_path = [load(tmp_path / "d.json") for load in loads]
        assert [i.video_id for i in loaded[0]] == [i.video_id for i in from_path[0]]
        assert [s.scores.tolist() for s in loaded[1]] == [s.scores.tolist() for s in from_path[1]]
        np.testing.assert_array_equal(loaded[2], from_path[2])

    def test_missing_payload_file(self, tmp_path):
        ft.save_dataset(make_dataset(2), tmp_path / "d.json")
        (tmp_path / "d.answers.f32").unlink()
        with pytest.raises(ft.FormatError, match="missing"):
            ft.load_dataset(tmp_path / "d.json")


class TestSyntheticSpec:
    def test_validates_fields(self):
        with pytest.raises(ValueError):
            ft.SyntheticSpec(n_instances=1, causal_fraction=0.0)
        with pytest.raises(ValueError):
            ft.SyntheticSpec(n_instances=1, causal_fraction=1.5)
        with pytest.raises(ValueError):
            ft.SyntheticSpec(n_instances=1, noise_std=-0.1)
        with pytest.raises(ValueError):
            ft.SyntheticSpec(n_instances=1, leak_strength=0.5, video_dim=32, text_dim=16)

    def test_n_causal_rounds_up(self):
        spec = ft.SyntheticSpec(n_instances=1, n_clips=16, causal_fraction=0.26)
        assert spec.n_causal == 5


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = ft.SyntheticSpec(n_instances=5, seed=7, n_clips=8, video_dim=16, text_dim=16)
        a_i, a_s, a_m = ft.generate_synthetic(spec)
        b_i, b_s, b_m = ft.generate_synthetic(spec)
        np.testing.assert_array_equal(a_m, b_m)
        for x, y in zip(a_i, b_i):
            assert x.video.tobytes() == y.video.tobytes()
            assert x.question.tobytes() == y.question.tobytes()
            assert x.answers.tobytes() == y.answers.tobytes()
            assert (x.gold, x.qtype) == (y.gold, y.qtype)
        for x, y in zip(a_s, b_s):
            np.testing.assert_array_equal(x.scores, y.scores)
            assert x.windows == y.windows

    def test_full_causal_fraction_gives_all_ones_mask(self):
        spec = ft.SyntheticSpec(
            n_instances=3, seed=0, n_clips=8, causal_fraction=1.0, video_dim=16, text_dim=16
        )
        _, _, masks = ft.generate_synthetic(spec)
        assert masks.all()

    def test_mask_is_contiguous_block_of_expected_size(self):
        spec = ft.SyntheticSpec(
            n_instances=20, seed=3, n_clips=16, causal_fraction=0.25, video_dim=16, text_dim=16
        )
        _, _, masks = ft.generate_synthetic(spec)
        for row in masks:
            idx = np.flatnonzero(row)
            assert len(idx) == spec.n_causal
            assert np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx)))

    def test_leak_raises_answer_video_cosine(self):
        base = dict(n_instances=100, seed=11, n_clips=8, video_dim=32, text_dim=32)
        no_leak, _, _ = ft.generate_synthetic(ft.SyntheticSpec(leak_strength=0.0, **base))
        leaked, _, _ = ft.generate_synthetic(ft.SyntheticSpec(leak_strength=0.9, **base))

        def mean_cos(insts):
            vals = []
            for inst in insts:
                m = inst.video.mean(axis=0)
                a = inst.answers[inst.gold]
                vals.append(m @ a / (np.linalg.norm(m) * np.linalg.norm(a)))
            return float(np.mean(vals))

        assert mean_cos(leaked) > mean_cos(no_leak)

    def test_saliency_high_on_causal_frames(self):
        spec = ft.SyntheticSpec(
            n_instances=10, seed=5, n_clips=8, causal_fraction=0.5, video_dim=16, text_dim=16
        )
        _, sals, masks = ft.generate_synthetic(spec)
        for s, mask in zip(sals, masks):
            frame_mask = np.repeat(mask, spec.frames_per_clip)
            assert s.scores[frame_mask].min() > s.scores[~frame_mask].max()
            assert len(s.windows) == 1
            w = s.windows[0]
            start = int(np.flatnonzero(mask)[0])
            assert w.start_frame == start * spec.frames_per_clip
            assert w.end_frame == (start + spec.n_causal) * spec.frames_per_clip

    def test_linear_probe_recovers_gold_from_causal_clips(self):
        spec = ft.SyntheticSpec(
            n_instances=500, seed=42, n_clips=16, causal_fraction=0.25,
            noise_std=0.1, video_dim=64, text_dim=64,
        )
        insts, _, masks = ft.generate_synthetic(spec)
        x = np.stack(
            [i.video[m].mean(axis=0) for i, m in zip(insts, masks)]
        )
        x = np.hstack([x, np.ones((len(insts), 1))])
        y = np.zeros((len(insts), ft.N_ANSWERS))
        for r, inst in enumerate(insts):
            y[r, inst.gold] = 1.0
        w, *_ = np.linalg.lstsq(x, y, rcond=None)
        pred = (x @ w).argmax(axis=1)
        gold = np.array([i.gold for i in insts])
        assert (pred == gold).mean() > 0.9

