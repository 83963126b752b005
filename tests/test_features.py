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


def make_instances(n=3, n_clips=4, video_dim=6, text_dim=5, seed=0):
    g = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(
            ft.VideoQAInstance(
                video_id=f"vid{i}",
                video=g.normal(size=(n_clips, video_dim)).astype(np.float32),
                question=g.normal(size=text_dim).astype(np.float32),
                answers=g.normal(size=(ft.N_ANSWERS, text_dim)).astype(np.float32),
                gold=int(g.integers(0, 5)),
                qtype=ft.Qtype(int(g.integers(0, 3))),
            )
        )
    return out


class TestInstanceValidation:
    def test_rejects_wrong_dtype(self):
        inst = make_instances(1)[0]
        for dtype in (np.float16, np.int64):
            with pytest.raises(ft.FormatError, match="float32 or float64"):
                ft.VideoQAInstance(
                    video_id="x",
                    video=inst.video.astype(dtype),
                    question=inst.question,
                    answers=inst.answers,
                    gold=0,
                    qtype=ft.Qtype.CAUSAL,
                )
        video32 = inst.video.astype(np.float32)
        made = ft.VideoQAInstance(
            video_id="x",
            video=video32,
            question=inst.question.astype(np.float32),
            answers=inst.answers,
            gold=0,
            qtype=ft.Qtype.CAUSAL,
        )
        for arr in (made.video, made.question, made.answers):
            assert arr.dtype == np.float64
            assert not arr.flags.writeable
        np.testing.assert_array_equal(made.video, video32)
        assert video32.flags.writeable  # the caller's array is left as it was

    def test_writeable_float64_input_is_copied(self):
        inst = make_instances(1)[0]
        video = np.array(inst.video)
        made = ft.VideoQAInstance(
            video_id="x", video=video, question=inst.question, answers=inst.answers,
            gold=0, qtype=ft.Qtype.CAUSAL,
        )
        video[0, 0] += 1.0
        np.testing.assert_array_equal(made.video, inst.video)
        with pytest.raises(ValueError, match="read-only"):
            made.video[0, 0] = 0.0

    def test_rejects_bad_gold(self):
        inst = make_instances(1)[0]
        with pytest.raises(ft.FormatError, match="gold"):
            ft.VideoQAInstance(
                video_id="x",
                video=inst.video,
                question=inst.question,
                answers=inst.answers,
                gold=5,
                qtype=ft.Qtype.CAUSAL,
            )

    def test_rejects_nan(self):
        inst = make_instances(1)[0]
        bad = inst.video.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ft.FormatError, match="non-finite"):
            ft.VideoQAInstance(
                video_id="x",
                video=bad,
                question=inst.question,
                answers=inst.answers,
                gold=0,
                qtype=ft.Qtype.CAUSAL,
            )

    def test_rejects_answer_count_mismatch(self):
        inst = make_instances(1)[0]
        with pytest.raises(ft.FormatError, match="answers"):
            ft.VideoQAInstance(
                video_id="x",
                video=inst.video,
                question=inst.question,
                answers=inst.answers[:4],
                gold=0,
                qtype=ft.Qtype.CAUSAL,
            )


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        insts = make_instances(3)
        ft.save_dataset(insts, tmp_path / "d.json")
        loaded = ft.load_dataset(tmp_path / "d.json")
        assert len(loaded) == 3
        for a, b in zip(insts, loaded):
            assert a.video_id == b.video_id
            assert a.video.tobytes() == b.video.tobytes()
            assert a.question.tobytes() == b.question.tobytes()
            assert a.answers.tobytes() == b.answers.tobytes()
            assert a.gold == b.gold
            assert a.qtype == b.qtype

    def test_empty_list(self, tmp_path):
        m = ft.save_dataset([], tmp_path / "d.json")
        assert m.count == 0
        assert ft.load_dataset(tmp_path / "d.json") == []

    def test_loaded_features_are_read_only_float64(self, tmp_path):
        ft.save_dataset(make_instances(2), tmp_path / "d.json")
        for inst in ft.load_dataset(tmp_path / "d.json"):
            for arr in (inst.video, inst.question, inst.answers):
                assert arr.dtype == np.float64
                assert not arr.flags.writeable
            with pytest.raises(ValueError):
                inst.video[0, 0] = 0.0

    def test_loaded_instances_equal_validated_ones(self, tmp_path):
        # load_dataset checks whole payloads, then builds each instance
        # without __post_init__; the result must be what it would build
        ft.save_dataset(make_instances(4, n_clips=3), tmp_path / "d.json")
        payload = {
            name: np.fromfile(tmp_path / f"d.{name}.f32", dtype="<f4").reshape(4, *shape)
            for name, shape in (("video", (3, 6)), ("question", (5,)),
                                ("answers", (ft.N_ANSWERS, 5)))
        }
        gold = np.fromfile(tmp_path / "d.gold.u8", dtype="u1")
        qtype = np.fromfile(tmp_path / "d.qtype.u8", dtype="u1")
        loaded = ft.load_dataset(tmp_path / "d.json")
        assert len(loaded) == 4
        for i, got in enumerate(loaded):
            want = ft.VideoQAInstance(
                video_id=f"vid{i}",
                **{name: rows[i] for name, rows in payload.items()},
                gold=int(gold[i]),
                qtype=ft.Qtype(int(qtype[i])),
            )
            assert type(got) is ft.VideoQAInstance
            assert type(got.video_id) is str and got.video_id == want.video_id
            for name in payload:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype == np.float64
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable and not b.flags.writeable
            assert type(got.gold) is int and got.gold == want.gold
            assert type(got.qtype) is ft.Qtype and got.qtype is want.qtype
            assert got.n_clips == 3 and got.video_dim == 6 and got.text_dim == 5

    def test_save_rejects_values_float32_cannot_hold(self, tmp_path):
        inst = make_instances(1)[0]
        video = inst.video.copy()
        video[1, 2] += 1e-12
        bad = ft.VideoQAInstance(
            video_id="x", video=video, question=inst.question, answers=inst.answers,
            gold=0, qtype=ft.Qtype.CAUSAL,
        )
        with pytest.raises(ft.FormatError, match="video: values are not exactly"):
            ft.save_dataset([inst, bad], tmp_path / "d.json")
        assert not list(tmp_path.iterdir())

    def test_failed_save_keeps_the_previous_files(self, tmp_path, monkeypatch):
        ft.save_dataset(make_instances(3, seed=0), tmp_path / "d.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_replace(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="d.video.f32"):
            ft.save_dataset(make_instances(3, seed=1), tmp_path / "d.json")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_resave_leaves_no_loadable_dataset(self, tmp_path, monkeypatch):
        # the second replace fails after the new video payload is in place;
        # the old manifest must not pair it with the old question payload
        ft.save_dataset(make_instances(3, seed=0), tmp_path / "d.json")
        real_replace, calls = os.replace, []

        def replace_failing_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(f"cannot replace {dst}")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_second)
        with pytest.raises(OSError, match="d.question.f32"):
            ft.save_dataset(make_instances(3, seed=1), tmp_path / "d.json")
        monkeypatch.undo()
        with pytest.raises(ft.FormatError, match="d.json: file not found"):
            ft.load_dataset(tmp_path / "d.json")

    def test_save_rejects_mixed_dims(self, tmp_path):
        insts = make_instances(2, video_dim=6) + make_instances(1, video_dim=8)
        with pytest.raises(ft.FormatError, match="heterogeneous"):
            ft.save_dataset(insts, tmp_path / "d.json")

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

    def test_sidecars_absent_give_none(self, tmp_path):
        ft.save_dataset(make_instances(2), tmp_path / "d.json")
        assert ft.load_saliency(tmp_path / "d.json") is None
        assert ft.load_causal_masks(tmp_path / "d.json") is None

    @given(st.integers(0, 5), st.integers(1, 4), st.integers(1, 7))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, n, n_clips, dim):
        insts = make_instances(n, n_clips=n_clips, video_dim=dim, text_dim=dim, seed=n_clips)
        with tempfile.TemporaryDirectory() as tmp:
            ft.save_dataset(insts, Path(tmp) / "d.json")
            loaded = ft.load_dataset(Path(tmp) / "d.json")
        for a, b in zip(insts, loaded):
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
            ft.save_dataset(make_instances(len(saliencies)), path, saliencies=saliencies)
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

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ft.FormatError, match="not found"):
            ft.load_dataset(tmp_path / "nope.json")

    def test_truncated_payload_reports_lengths(self, tmp_path):
        ft.save_dataset(make_instances(2), tmp_path / "d.json")
        video = tmp_path / "d.video.f32"
        video.write_bytes(video.read_bytes()[:-4])
        with pytest.raises(ft.FormatError, match="expected 192 bytes.*found 188"):
            ft.load_dataset(tmp_path / "d.json")

    def test_nonfinite_payload_reports_offset(self, tmp_path):
        ft.save_dataset(make_instances(2), tmp_path / "d.json")
        video = tmp_path / "d.video.f32"
        arr = np.frombuffer(video.read_bytes(), dtype="<f4").copy()
        arr[5] = np.nan
        video.write_bytes(arr.tobytes())
        with pytest.raises(ft.FormatError, match="flat offset 5"):
            ft.load_dataset(tmp_path / "d.json")

    def test_gold_out_of_range(self, tmp_path):
        ft.save_dataset(make_instances(2), tmp_path / "d.json")
        gold = tmp_path / "d.gold.u8"
        raw = bytearray(gold.read_bytes())
        raw[1] = 7
        gold.write_bytes(bytes(raw))
        with pytest.raises(ft.FormatError, match="gold index 7.*instance 1"):
            ft.load_dataset(tmp_path / "d.json")

    def test_qtype_out_of_range(self, tmp_path):
        ft.save_dataset(make_instances(3), tmp_path / "d.json")
        qtype = tmp_path / "d.qtype.u8"
        raw = bytearray(qtype.read_bytes())
        raw[2] = 3
        qtype.write_bytes(bytes(raw))
        with pytest.raises(ft.FormatError, match="qtype 3 out of range at instance 2"):
            ft.load_dataset(tmp_path / "d.json")

    def test_first_bad_instance_is_named(self, tmp_path):
        # a bad qtype at instance 1 is reported before a bad gold at instance 2
        ft.save_dataset(make_instances(3), tmp_path / "d.json")
        for name, i, value in (("gold", 2, 9), ("qtype", 1, 200)):
            path = tmp_path / f"d.{name}.u8"
            raw = bytearray(path.read_bytes())
            raw[i] = value
            path.write_bytes(bytes(raw))
        with pytest.raises(ft.FormatError, match="qtype 200 out of range at instance 1"):
            ft.load_dataset(tmp_path / "d.json")

    def test_declared_ids_sidecar_missing_names_it(self, tmp_path):
        ft.save_dataset(make_instances(3), tmp_path / "d.json")
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
        ft.save_dataset(make_instances(2), tmp_path / "d.json")
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

