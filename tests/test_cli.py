"""End-to-end CLI tests: every subcommand against temp configs, exit codes,
error reporting, and byte-identical reruns."""

import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalvqa
from causalvqa.cli import cli_main
from causalvqa.features import SyntheticSpec, generate_synthetic, save_dataset
from causalvqa.harness import shortcut_probe
from causalvqa.nn_core import CHECKPOINT_VERSION


def write_cfg(path, payload) -> str:
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


DATA = {"synthetic": {"n_instances": 12, "seed": 0, "n_clips": 8,
                      "video_dim": 16, "text_dim": 16, "noise_std": 0.1}}
MODEL = {"model_dim": 16, "n_heads": 2, "n_layers": 1, "seed": 3}
OPT = {"lr": 1e-3, "steps": 4, "batch_size": 4, "seed": 1}


@pytest.fixture()
def out_dir(tmp_path, monkeypatch):
    target = tmp_path / "out"
    monkeypatch.setenv("CAUSALVQA_OUTPUT_DIR", str(target))
    return target


def sha_tree(root) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestTrainCommand:
    def test_train_writes_artifacts_and_reruns_identically(
        self, tmp_path, out_dir, capsys
    ):
        cfg = write_cfg(tmp_path / "train.json",
                        {"data": DATA, "model": MODEL, "optimizer": OPT})
        assert cli_main(["train", "--config", cfg]) == 0
        printed = capsys.readouterr().out
        assert str(out_dir / "metrics.json") in printed

        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["version"] == 1
        assert 0.0 <= metrics["overall"] <= 1.0
        curves = (out_dir / "curves.csv").read_text().splitlines()
        assert curves[0] == "step,erm_loss,cl_loss,total_loss"
        assert len(curves) == 1 + OPT["steps"]
        assert (out_dir / "checkpoint" / "params.json").exists()
        assert (out_dir / "checkpoint" / "model.json").exists()

        first = sha_tree(out_dir)
        assert cli_main(["train", "--config", cfg]) == 0
        assert sha_tree(out_dir) == first

    def test_contrastive_train_runs(self, tmp_path, out_dir):
        cfg = write_cfg(
            tmp_path / "train.json",
            {
                "data": DATA,
                "model": MODEL,
                "optimizer": OPT,
                "intervention": {"beta_cl": 0.2, "topk_mode": True, "k": 3,
                                 "n_negatives": 2, "memory_source": "random"},
                "bank": {"regime": "f2"},
            },
        )
        assert cli_main(["train", "--config", cfg]) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["final"]["cl_loss"] > 0.0

    def test_skip_counts_reported(self, tmp_path, out_dir):
        # batch size 1 under f2: at step 0 only the sample's own scenes are
        # in the bank, so its do-pass and triplet are skipped
        cfg = write_cfg(
            tmp_path / "train.json",
            {
                "data": DATA,
                "model": MODEL,
                "optimizer": {**OPT, "batch_size": 1},
                "intervention": {"beta_cl": 0.2, "topk_mode": True, "k": 3,
                                 "n_negatives": 2, "memory_source": "mnse",
                                 "neighbor_k": 200},
                "bank": {"regime": "f2"},
            },
        )
        assert cli_main(["train", "--config", cfg]) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert (metrics["skipped_interventions"], metrics["skipped_mixups"]) == (1, 0)


class TestEvalCommand:
    def test_eval_matches_train_report(self, tmp_path, monkeypatch):
        # the env override would funnel both commands into one directory
        monkeypatch.delenv("CAUSALVQA_OUTPUT_DIR", raising=False)
        out_dir = tmp_path / "out"
        train_cfg = write_cfg(tmp_path / "train.json",
                              {"data": DATA, "model": MODEL, "optimizer": OPT,
                               "output_dir": str(out_dir)})
        assert cli_main(["train", "--config", train_cfg]) == 0
        train_metrics = json.loads((out_dir / "metrics.json").read_text())

        eval_cfg = write_cfg(
            tmp_path / "eval.json",
            {"data": DATA, "checkpoint": str(out_dir / "checkpoint"),
             "output_dir": str(out_dir / "eval")},
        )
        assert cli_main(["eval", "--config", eval_cfg]) == 0
        eval_metrics = json.loads((out_dir / "eval" / "metrics.json").read_text())
        assert eval_metrics["counts"] == train_metrics["counts"]
        assert eval_metrics["overall"] == pytest.approx(
            train_metrics["overall"]
        )


class TestGenDataCommand:
    def test_gen_data_then_train_on_manifest(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CAUSALVQA_OUTPUT_DIR", raising=False)
        out_dir = tmp_path / "out"
        gen_cfg = write_cfg(
            tmp_path / "gen.json",
            {"synthetic": DATA["synthetic"], "manifest": "data/train.json",
             "output_dir": str(out_dir)},
        )
        assert cli_main(["gen-data", "--config", gen_cfg]) == 0
        manifest = out_dir / "data" / "train.json"
        assert manifest.exists()

        train_cfg = write_cfg(
            tmp_path / "train.json",
            {"data": {"manifest": str(manifest)}, "model": MODEL,
             "optimizer": OPT, "output_dir": str(out_dir / "run")},
        )
        assert cli_main(["train", "--config", train_cfg]) == 0
        metrics = json.loads((out_dir / "run" / "metrics.json").read_text())
        assert metrics["counts"]

    def test_gen_data_round_trip_is_bit_exact(self, tmp_path, out_dir):
        gen_cfg = write_cfg(
            tmp_path / "gen.json",
            {"synthetic": DATA["synthetic"], "manifest": "data/train.json"},
        )
        assert cli_main(["gen-data", "--config", gen_cfg]) == 0
        from causalvqa.features import load_dataset

        loaded = load_dataset(out_dir / "data" / "train.json")
        direct, _, _ = generate_synthetic(SyntheticSpec(**DATA["synthetic"]))
        assert len(loaded) == len(direct)
        for a, b in zip(loaded, direct):
            assert a.video_id == b.video_id
            assert np.array_equal(a.video, b.video)
            assert np.array_equal(a.answers, b.answers)
            assert a.gold == b.gold and a.qtype == b.qtype


class TestProbeCommand:
    def test_probe_matches_library(self, tmp_path, out_dir):
        spec = {"n_instances": 80, "seed": 9, "n_clips": 8, "video_dim": 24,
                "text_dim": 24, "leak_strength": 0.9}
        cfg = write_cfg(tmp_path / "probe.json", {"data": {"synthetic": spec}})
        assert cli_main(["probe", "--config", cfg]) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        instances, _, _ = generate_synthetic(SyntheticSpec(**spec))
        assert metrics["overall"] == shortcut_probe(instances).overall


class TestSampleCommand:
    def test_sample_mar16_outputs_per_instance(self, tmp_path, out_dir):
        cfg = write_cfg(
            tmp_path / "sample.json",
            {"data": DATA, "sampler": {"kind": "mar16", "seed": 5}},
        )
        assert cli_main(["sample", "--config", cfg]) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        samples = metrics["selections"]
        assert len(samples) == DATA["synthetic"]["n_instances"]
        for row in samples:
            assert len(row["indices"]) == 16
            assert len(set(row["indices"])) == 16
            assert all(
                tag == "moment" or tag.startswith("segment_")
                for tag in row["provenance"]
            )


class TestIntervenEvalCommand:
    def test_two_checkpoint_protocol(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CAUSALVQA_OUTPUT_DIR", raising=False)
        out_dir = tmp_path / "out"
        ta = write_cfg(tmp_path / "ta.json",
                       {"data": DATA, "model": MODEL, "optimizer": OPT,
                        "output_dir": str(out_dir / "a")})
        mb = dict(MODEL, seed=4)
        tb = write_cfg(tmp_path / "tb.json",
                       {"data": DATA, "model": mb, "optimizer": OPT,
                        "output_dir": str(out_dir / "b")})
        assert cli_main(["train", "--config", ta]) == 0
        assert cli_main(["train", "--config", tb]) == 0
        cfg = write_cfg(
            tmp_path / "iev.json",
            {"data": DATA, "use_oracle_masks": True,
             "checkpoint_a": str(out_dir / "a" / "checkpoint"),
             "checkpoint_b": str(out_dir / "b" / "checkpoint"),
             "neighbor_k": 2, "seed": 3,
             "output_dir": str(out_dir / "iev")},
        )
        assert cli_main(["intervene-eval", "--config", cfg]) == 0
        metrics = json.loads((out_dir / "iev" / "metrics.json").read_text())
        for key in ("clean", "seen", "unseen"):
            assert set(metrics[key]) == {"a", "b"}
        assert set(metrics["deltas"]) == {
            "drop_a_seen", "drop_b_seen", "drop_a_unseen", "drop_b_unseen"
        }


class TestErrorPaths:
    def test_bad_config_lists_every_field(self, tmp_path, out_dir, capsys):
        cfg = write_cfg(
            tmp_path / "bad.json",
            {"data": {"synthetic": {"n_instances": 4, "video_dim": 0,
                                    "text_dim": 8}},
             "optimizer": {"lr": -2.0, "batch_size": 0},
             "bank": {"regime": "f7"}},
        )
        assert cli_main(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "lr" in err and "batch_size" in err and "bank.regime" in err
        assert err.count("config error:") >= 3

    @pytest.mark.parametrize("value", [5, [1, 2], "x"], ids=["int", "list", "string"])
    @pytest.mark.parametrize(
        "section",
        ["model", "optimizer", "intervention", "bank", "data", "data.synthetic"],
    )
    def test_section_that_is_not_an_object(self, tmp_path, out_dir, capsys, section, value):
        raw = {"data": json.loads(json.dumps(DATA)), "model": MODEL, "optimizer": OPT}
        if section == "data.synthetic":
            raw["data"]["synthetic"] = value
        else:
            raw[section] = value
        cfg = write_cfg(tmp_path / "bad.json", raw)
        assert cli_main(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {section}: expected a JSON object\n"

    @staticmethod
    def _train_with(tmp_path, section, key, value) -> str:
        """A valid train config with one field of one section replaced."""
        raw = {"data": json.loads(json.dumps(DATA)), "model": dict(MODEL),
               "optimizer": dict(OPT), "intervention": {"beta_cl": 0.2}, "bank": {}}
        target = raw
        for part in section.split("."):
            target = target[part]
        target[key] = value
        return write_cfg(tmp_path / "bad.json", raw)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("optimizer", "steps", 1.5),
            ("optimizer", "batch_size", 2.5),
            ("optimizer", "seed", "x"),
            ("data.synthetic", "n_clips", 2.5),
            ("data.synthetic", "seed", 1.5),
            ("intervention", "n_negatives", 2.5),
            ("intervention", "neighbor_k", 1.5),
            ("bank", "window", 2.5),
            ("model", "n_layers", "2"),
            ("model", "model_dim", "x"),
            ("model", "seed", "x"),
            ("model", "seed", 1.5),
            ("model", "n_heads", 2.0),
            ("intervention", "topk_mode", "yes"),
            ("intervention", "topk_mode", 1),
        ],
    )
    def test_field_of_the_wrong_type(self, tmp_path, out_dir, capsys, section, key, value):
        cfg = self._train_with(tmp_path, section, key, value)
        assert cli_main(["train", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: {section}.{key}: expected ")
        assert lines[0].endswith(f"got {json.dumps(value)}")

    @pytest.mark.parametrize("section", ["optimizer", "model", "data.synthetic", "intervention"])
    def test_negative_seed(self, tmp_path, out_dir, capsys, section):
        cfg = self._train_with(tmp_path, section, "seed", -1)
        assert cli_main(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"config error: {section}: seed must be >= 0\n"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"model_dim": 30, "n_heads": 4}, "model_dim 30 not divisible by n_heads 4"),
            ({"tau": 0}, "tau must be positive"),
            ({"n_layers": 0}, "dims, n_heads and n_layers must be positive"),
        ],
        ids=["heads", "tau", "layers"],
    )
    def test_model_rules_checked_at_parse(self, tmp_path, out_dir, capsys, fields, message):
        raw = {"data": DATA, "model": {**MODEL, **fields}, "optimizer": OPT}
        cfg = write_cfg(tmp_path / "bad.json", raw)
        assert cli_main(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"config error: model: {message}\n"

    def test_gen_data_field_of_the_wrong_type(self, tmp_path, out_dir, capsys):
        spec = {**DATA["synthetic"], "n_clips": 2.5}
        cfg = write_cfg(tmp_path / "gen.json", {"synthetic": spec})
        assert cli_main(["gen-data", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "config error: synthetic.n_clips: expected an integer, got 2.5\n"

    @pytest.mark.parametrize("name", ["model.json", "params.json"])
    def test_unknown_checkpoint_version(self, tmp_path, out_dir, capsys, name):
        train_cfg = write_cfg(tmp_path / "train.json",
                              {"data": DATA, "model": MODEL, "optimizer": OPT})
        assert cli_main(["train", "--config", train_cfg]) == 0
        path = out_dir / "checkpoint" / name
        body = json.loads(path.read_text())
        body["version"] += 1
        path.write_text(json.dumps(body))
        eval_cfg = write_cfg(tmp_path / "eval.json",
                             {"data": DATA, "checkpoint": str(out_dir / "checkpoint")})
        capsys.readouterr()
        assert cli_main(["eval", "--config", eval_cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        found, expected = CHECKPOINT_VERSION + 1, CHECKPOINT_VERSION
        assert name in lines[0] and f"version {found}" in lines[0]
        assert f"expected {expected}" in lines[0]

    @pytest.mark.parametrize(
        "params, line",
        [
            ({"subsample": -3}, "sampler.subsample: must be >= 1"),
            ({"subsample": 0}, "sampler.subsample: must be >= 1"),
            ({"subsample": 2.0}, "sampler.subsample: expected an integer or null, got 2.0"),
            ({"seed": True}, "sampler.seed: expected an integer, got true"),
            ({"seed": -1}, "sampler.seed: must be >= 0"),
        ],
        ids=["subsample-negative", "subsample-zero", "subsample-float", "seed-bool",
             "seed-negative"],
    )
    def test_sampler_field_rejected(self, tmp_path, out_dir, capsys, params, line):
        cfg = write_cfg(tmp_path / "sample.json",
                        {"data": DATA, "sampler": {"kind": "pcma80", "seed": 5, **params}})
        assert cli_main(["sample", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"config error: {line}\n"

    def test_subsample_is_a_pcma80_field(self, tmp_path, out_dir, capsys):
        cfg = write_cfg(tmp_path / "sample.json",
                        {"data": DATA, "sampler": {"kind": "mar16", "subsample": 4}})
        assert cli_main(["sample", "--config", cfg]) == 1
        assert capsys.readouterr().err == "config error: sampler.subsample: not a mar16 field\n"

    @pytest.mark.parametrize(
        "key, value, line",
        [
            ("neighbor_k", True, "neighbor_k: expected an integer, got true"),
            ("neighbor_k", 0, "neighbor_k: must be >= 1"),
            ("seed", True, "seed: expected an integer, got true"),
            ("seed", -1, "seed: must be >= 0"),
        ],
        ids=["k-bool", "k-zero", "seed-bool", "seed-negative"],
    )
    def test_intervene_eval_key_rejected(self, tmp_path, out_dir, capsys, key, value, line):
        # rejected at parse time, before either checkpoint is opened
        cfg = write_cfg(tmp_path / "iev.json",
                        {"data": DATA, "checkpoint_a": "a", "checkpoint_b": "b", key: value})
        assert cli_main(["intervene-eval", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"config error: {line}\n"

    @staticmethod
    def _trained_checkpoint(tmp_path, out_dir):
        train_cfg = write_cfg(tmp_path / "train.json",
                              {"data": DATA, "model": MODEL, "optimizer": OPT})
        assert cli_main(["train", "--config", train_cfg]) == 0
        eval_cfg = write_cfg(tmp_path / "eval.json",
                             {"data": DATA, "checkpoint": str(out_dir / "checkpoint")})
        return out_dir / "checkpoint", eval_cfg

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda pcma: pcma.pop("video_dim"), "missing 1 required"),
            (lambda pcma: pcma.update(depth=3), "unexpected keyword argument 'depth'"),
            (lambda pcma: pcma.update(n_heads=3), "not divisible by n_heads 3"),
            (lambda pcma: pcma.update(tau=float("nan")), "tau must be positive"),
            (lambda pcma: pcma.update(model_dim="16"), "pcma.model_dim: expected an integer"),
        ],
        ids=["missing", "unknown", "rejected", "nan-tau", "wrong-type"],
    )
    def test_bad_model_json_names_the_file(self, tmp_path, out_dir, capsys, edit, reason):
        ckpt, eval_cfg = self._trained_checkpoint(tmp_path, out_dir)
        body = json.loads((ckpt / "model.json").read_text())
        edit(body["pcma"])
        (ckpt / "model.json").write_text(json.dumps(body))
        capsys.readouterr()
        assert cli_main(["eval", "--config", eval_cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "model.json" in lines[0] and reason in lines[0]

    @pytest.mark.parametrize("name", ["model.json", "params.json"])
    def test_invalid_checkpoint_json_names_the_file(self, tmp_path, out_dir, capsys, name):
        ckpt, eval_cfg = self._trained_checkpoint(tmp_path, out_dir)
        (ckpt / name).write_text("{")
        capsys.readouterr()
        assert cli_main(["eval", "--config", eval_cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert name in lines[0] and "invalid JSON" in lines[0]

    def test_manifest_without_tensors_names_params_json(self, tmp_path, out_dir, capsys):
        ckpt, eval_cfg = self._trained_checkpoint(tmp_path, out_dir)
        body = json.loads((ckpt / "params.json").read_text())
        del body["tensors"]
        (ckpt / "params.json").write_text(json.dumps(body))
        capsys.readouterr()
        assert cli_main(["eval", "--config", eval_cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "params.json" in lines[0] and "tensors" in lines[0]

    def test_model_json_dims_checked_against_stored_shapes(self, tmp_path, out_dir, capsys):
        ckpt, eval_cfg = self._trained_checkpoint(tmp_path, out_dir)
        body = json.loads((ckpt / "model.json").read_text())
        body["pcma"]["video_dim"] += 1
        (ckpt / "model.json").write_text(json.dumps(body))
        capsys.readouterr()
        assert cli_main(["eval", "--config", eval_cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "params.json" in lines[0] and "tensor video_proj.w:" in lines[0]
        assert "(16, 16)" in lines[0] and "(17, 16)" in lines[0]

    def test_non_finite_params_name_the_tensor(self, tmp_path, out_dir, capsys):
        ckpt, eval_cfg = self._trained_checkpoint(tmp_path, out_dir)
        payload = np.fromfile(ckpt / "params.f32", dtype="<f4")
        payload[0] = np.nan  # the first tensor in sorted-name order
        payload.tofile(ckpt / "params.f32")
        first = json.loads((ckpt / "params.json").read_text())["tensors"][0]["name"]
        capsys.readouterr()
        assert cli_main(["eval", "--config", eval_cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "params.f32" in lines[0] and f"tensor {first} " in lines[0]
        assert "non-finite" in lines[0]

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("d.json", lambda body: {**body, "count": "6"}),
            ("d.json", lambda body: list(body)),
            ("d.ids.json", lambda body: 5),
            ("d.saliency.json", lambda body: [{}, *body[1:]]),
            ("d.json", lambda body: {**body, "files": {**body["files"], "video": 5}}),
        ],
        ids=["count-string", "manifest-list", "ids-number", "saliency-entry", "file-number"],
    )
    def test_unusable_dataset_file_names_it(self, tmp_path, out_dir, capsys, name, edit):
        instances, saliencies, masks = generate_synthetic(SyntheticSpec(**DATA["synthetic"]))
        manifest = tmp_path / "data" / "d.json"
        save_dataset(instances, manifest, saliencies=saliencies, causal_masks=masks)
        path = manifest.parent / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        cfg = write_cfg(tmp_path / "probe.json", {"data": {"manifest": str(manifest)}})
        assert cli_main(["probe", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(path) in lines[0]

    def test_outsized_model_dim_exits_with_one_line(self, tmp_path):
        # the parameters would take over 100 TiB; the child runs under a
        # 4 GiB address-space cap so the allocation fails without touching
        # the machine's memory
        model = {**MODEL, "model_dim": 2**40, "n_heads": 4}
        cfg = write_cfg(tmp_path / "huge.json", {
            "data": DATA, "model": model, "optimizer": OPT, "output_dir": str(tmp_path / "out"),
        })
        cap = 4 << 30
        env = {**os.environ, "PYTHONPATH": str(Path(causalvqa.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "causalvqa", "train", "--config", cfg],
            capture_output=True, text=True, env=env, timeout=300,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        lines = proc.stderr.splitlines()
        assert proc.returncode == 1, proc.stderr
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli_main(["train", "--config", str(missing)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert cli_main(["eval", "--config", str(broken)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_mar_without_saliency_fails(self, tmp_path, out_dir, capsys):
        from causalvqa.features import save_dataset

        instances, _, _ = generate_synthetic(SyntheticSpec(**DATA["synthetic"]))
        manifest = tmp_path / "bare" / "train.json"
        save_dataset(instances, manifest)
        cfg = write_cfg(
            tmp_path / "sample.json",
            {"data": {"manifest": str(manifest)},
             "sampler": {"kind": "mar16", "seed": 5},
             "output_dir": str(out_dir / "s")},
        )
        assert cli_main(["sample", "--config", cfg]) == 1
        assert "saliency" in capsys.readouterr().err

    def test_unknown_sampler_kind_fails(self, tmp_path, out_dir, capsys):
        cfg = write_cfg(
            tmp_path / "sample.json",
            {"data": DATA, "sampler": {"kind": "mar99", "seed": 5}},
        )
        assert cli_main(["sample", "--config", cfg]) == 1
        assert "kind" in capsys.readouterr().err

    def test_pcma80_pool_too_small_fails(self, tmp_path, out_dir, capsys):
        small = {"synthetic": dict(DATA["synthetic"], n_clips=2)}
        cfg = write_cfg(
            tmp_path / "sample.json",
            {"data": small, "sampler": {"kind": "pcma80", "seed": 5,
                                        "subsample": 16}},
        )
        assert cli_main(["sample", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_leftover_sampler_fields_rejected(self, tmp_path, out_dir, capsys):
        cfg = write_cfg(
            tmp_path / "sample.json",
            {"data": DATA, "sampler": {"kind": "mar16", "seed": 5,
                                       "bogus_knob": 1}},
        )
        assert cli_main(["sample", "--config", cfg]) == 1
        assert "bogus_knob" in capsys.readouterr().err
