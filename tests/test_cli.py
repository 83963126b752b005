"""End-to-end CLI tests: every subcommand against temp configs, exit codes,
error reporting, and byte-identical reruns."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import causalvqa
from causalvqa.cli import (
    EvalConfig, GenDataConfig, InputConfig, ProtocolConfig, SampleConfig, cli_main,
)
from causalvqa.features import SyntheticSpec, generate_synthetic, save_dataset
from causalvqa.harness import CHECKPOINT_VERSION, ExperimentConfig, read_section, shortcut_probe


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


# each sample config's subcommand, and the sections each subcommand reads
CONFIG_COMMANDS = {
    "gen_data": "gen-data", "train": "train", "train_contrastive": "train", "eval": "eval",
    "intervene_eval": "intervene-eval", "probe": "probe", "sample": "sample",
}
COMMAND_READERS = {
    "gen-data": [GenDataConfig],
    "train": [ExperimentConfig],
    "eval": [InputConfig, EvalConfig],
    "intervene-eval": [InputConfig, ProtocolConfig],
    "probe": [InputConfig],
    "sample": [InputConfig, SampleConfig],
}


def test_every_sample_config_reads_under_its_command():
    configs = Path(__file__).parents[1] / "configs"
    assert sorted(p.stem for p in configs.glob("*.json")) == sorted(CONFIG_COMMANDS)
    for stem, command in CONFIG_COMMANDS.items():
        raw = json.loads((configs / f"{stem}.json").read_text())
        read = {f.name for factory in COMMAND_READERS[command] for f in fields(factory)}
        assert set(raw) <= read, (stem, set(raw) - read)
        for factory in COMMAND_READERS[command]:
            read_section(raw, factory)


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
        assert sorted(p.name for p in (out_dir / "checkpoint").iterdir()) == [
            "model.json", "params.f32"
        ]

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
            {"data": DATA,
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


def _window_end_past_its_video(raw: bytes) -> bytes:
    # the int64 saliency payload holds (n_frames, window count) per video,
    # then (start, end) per window; each synthetic video has one window
    ints = np.frombuffer(raw, dtype="<i8").copy()
    ints[len(ints) // 2 + 1] = ints[0] + 1
    return ints.tobytes()


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
            ("data", "manifest", 5),
        ],
    )
    def test_field_of_the_wrong_type(self, tmp_path, out_dir, capsys, section, key, value):
        cfg = self._train_with(tmp_path, section, key, value)
        assert cli_main(["train", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: {section}.{key}: expected ")
        assert lines[0].endswith(f"got {json.dumps(value)}")

    @pytest.mark.parametrize(
        "section, key, token",
        [
            ("intervention", "beta_cl", "Infinity"),
            ("intervention", "beta_cl", "NaN"),
            ("intervention", "alpha", "NaN"),
            ("data.synthetic", "leak_strength", "NaN"),
            ("optimizer", "lr", "1e400"),
            ("model", "tau", "-Infinity"),
            ("optimizer", "eps", "-1"),
            ("optimizer", "eps", "0"),
        ],
    )
    def test_non_finite_or_out_of_range_float(self, tmp_path, out_dir, capsys, section, key, token):
        # json parses NaN, Infinity and 1e400 (as Infinity); the token is
        # written into the file as is
        path = Path(self._train_with(tmp_path, section, key, "TOKEN"))
        path.write_text(path.read_text().replace('"TOKEN"', token))
        assert cli_main(["train", "--config", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {section}"), lines
        assert key in lines[0]
        assert not (out_dir / "metrics.json").exists()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e400"])
    def test_gen_data_non_finite_float(self, tmp_path, out_dir, capsys, token):
        spec = {**DATA["synthetic"], "noise_std": "TOKEN"}
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"synthetic": spec}).replace('"TOKEN"', token))
        assert cli_main(["gen-data", "--config", str(cfg)]) == 1
        shown = "Infinity" if token == "1e400" else token
        assert capsys.readouterr().err == (
            f"config error: synthetic.noise_std: expected a finite number, got {shown}\n"
        )

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
            ({"tau": 1e-320}, "tau 1e-320 is too small: 1/tau overflows"),
        ],
        ids=["heads", "tau", "layers", "tiny-tau"],
    )
    def test_model_rules_checked_at_parse(self, tmp_path, out_dir, capsys, fields, message):
        raw = {"data": DATA, "model": {**MODEL, **fields}, "optimizer": OPT}
        cfg = write_cfg(tmp_path / "bad.json", raw)
        assert cli_main(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"config error: model: {message}\n"

    def test_top_k_beyond_the_clip_count_is_config_error(self, tmp_path, out_dir, capsys):
        # learned gates split each 8-clip video; oracle masks never read k
        raw = {"data": DATA, "model": MODEL, "optimizer": OPT,
               "intervention": {"beta_cl": 0.2, "topk_mode": True, "k": 100}}
        cfg = write_cfg(tmp_path / "gates.json", raw)
        assert cli_main(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "config error: intervention.k: 100 is more than the data's 8 clips\n"
        )
        assert not (out_dir / "metrics.json").exists()
        cfg = write_cfg(tmp_path / "oracle.json", {**raw, "use_oracle_masks": True})
        assert cli_main(["train", "--config", cfg]) == 0

    def test_overflowing_adam_moment_stops_at_step_0(self, tmp_path, out_dir, capsys):
        # beta_cl 1e300 scales the contrastive gradients until their squares
        # overflow float64; training must stop rather than freeze them
        cfg = self._train_with(tmp_path, "intervention", "beta_cl", 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["train", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: step 0: Adam second moment overflows: gradients too large"]
        assert not (out_dir / "metrics.json").exists()

    def test_gen_data_field_of_the_wrong_type(self, tmp_path, out_dir, capsys):
        spec = {**DATA["synthetic"], "n_clips": 2.5}
        cfg = write_cfg(tmp_path / "gen.json", {"synthetic": spec})
        assert cli_main(["gen-data", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "config error: synthetic.n_clips: expected an integer, got 2.5\n"

    # the next version, older ones, a string and none at all
    @pytest.mark.parametrize(
        "name", ["model.json", "version-2", "version-3", "version-string", "no-version"]
    )
    def test_unknown_checkpoint_version(self, tmp_path, out_dir, capsys, name):
        train_cfg = write_cfg(tmp_path / "train.json",
                              {"data": DATA, "model": MODEL, "optimizer": OPT})
        assert cli_main(["train", "--config", train_cfg]) == 0
        path = out_dir / "checkpoint" / "model.json"
        body = json.loads(path.read_text())
        found = {"model.json": CHECKPOINT_VERSION + 1, "version-2": 2, "version-3": 3,
                 "version-string": str(CHECKPOINT_VERSION), "no-version": None}[name]
        body["version"] = found
        if found is None:
            del body["version"]
        path.write_text(json.dumps(body))
        eval_cfg = write_cfg(tmp_path / "eval.json",
                             {"data": DATA, "checkpoint": str(out_dir / "checkpoint")})
        capsys.readouterr()
        assert cli_main(["eval", "--config", eval_cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "model.json" in lines[0] and f"version {found!r}" in lines[0]
        assert f"expected {CHECKPOINT_VERSION}" in lines[0] and "retrain" in lines[0]

    @pytest.mark.parametrize(
        "params, line",
        [
            ({"subsample": -3}, "sampler.subsample: must be >= 1"),
            ({"subsample": 0}, "sampler.subsample: must be >= 1"),
            ({"subsample": 2.0}, "sampler.subsample: expected an integer or null, got 2.0"),
            ({"seed": True}, "sampler.seed: expected an integer, got true"),
            ({"seed": -1}, "sampler.seed: must be >= 0"),
            ({"kind": 5}, "sampler.kind: expected a string, got 5"),
        ],
        ids=["subsample-negative", "subsample-zero", "subsample-float", "seed-bool",
             "seed-negative", "kind-int"],
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
            ("checkpoint_a", "", "checkpoint_a: must be a nonempty path"),
            ("checkpoint_b", 5, "checkpoint_b: expected a string, got 5"),
        ],
        ids=["k-bool", "k-zero", "seed-bool", "seed-negative", "path-empty", "path-int"],
    )
    def test_intervene_eval_key_rejected(self, tmp_path, out_dir, capsys, key, value, line):
        # rejected at parse time, before either checkpoint is opened
        cfg = write_cfg(tmp_path / "iev.json",
                        {"data": DATA, "checkpoint_a": "a", "checkpoint_b": "b", key: value})
        assert cli_main(["intervene-eval", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"config error: {line}\n"

    @pytest.mark.parametrize(
        "command, raw, line",
        [
            ("train", {}, "data: required"),
            ("train", {"data": {**DATA, "manifest": "d.json"}},
             "data: exactly one of synthetic | manifest must be set"),
            ("train", {"data": DATA, "use_oracle_masks": 1},
             "use_oracle_masks: expected true or false, got 1"),
            ("train", {"data": DATA, "output_dir": 5},
             "output_dir: expected a string or null, got 5"),
            ("eval", {"data": DATA}, "checkpoint: required"),
            ("eval", {"data": DATA, "checkpoint": ""}, "checkpoint: must be a nonempty path"),
            ("intervene-eval", {"data": DATA, "checkpoint_a": "a"}, "checkpoint_b: required"),
            ("sample", {"data": DATA}, "sampler: required"),
            ("sample", {"data": DATA, "sampler": {"seed": 5}}, "sampler.kind: required"),
            ("gen-data", {"manifest": "d.json"}, "synthetic: required"),
            ("gen-data", {**DATA, "manifest": ""}, "manifest: must be a nonempty path"),
            ("gen-data", {**DATA, "output_dir": ["a"]},
             'output_dir: expected a string or null, got ["a"]'),
        ],
        ids=["no-data", "data-both", "oracle-int", "output-dir-int", "no-checkpoint",
             "checkpoint-empty", "no-checkpoint-b", "no-sampler", "no-kind",
             "no-synthetic", "manifest-empty", "gen-output-dir-list"],
    )
    def test_top_level_key_rejected(self, tmp_path, out_dir, capsys, command, raw, line):
        cfg = write_cfg(tmp_path / "cfg.json", raw)
        assert cli_main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not out_dir.exists()

    def test_unknown_top_level_keys_all_reported(self, tmp_path, out_dir, capsys):
        # misspelt sections are refused rather than trained with defaults
        cfg = write_cfg(tmp_path / "cfg.json", {
            "data": DATA, "optimiser": {"steps": 3}, "use_oracle_mask": True,
            "bank": {"regime": "f7"},
        })
        assert cli_main(["train", "--config", cfg]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: optimiser: unknown key",
            "config error: use_oracle_mask: unknown key",
            "config error: bank.regime: unknown 'f7'",
        ]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("model", {"model_dim": 8}), ("optimizer", {"steps": 5}),
         ("intervention", {"beta_cl": 0.5}), ("bank", {"metric": "l2", "regime": "f3"}),
         ("use_oracle_masks", True)],
        ids=["model", "optimizer", "intervention", "bank", "use_oracle_masks"],
    )
    @pytest.mark.parametrize("command", ["eval", "intervene-eval", "probe", "sample"])
    def test_training_key_refused_where_nothing_trains(
        self, tmp_path, out_dir, capsys, command, key, value
    ):
        # these subcommands read only data and output_dir of the experiment
        # keys, so a training section would be accepted and do nothing
        own = {
            "eval": {"checkpoint": "ckpt"},
            "intervene-eval": {"checkpoint_a": "a", "checkpoint_b": "b"},
            "probe": {},
            "sample": {"sampler": {"kind": "mar16"}},
        }[command]
        cfg = write_cfg(tmp_path / "cfg.json", {"data": DATA, **own, key: value})
        assert cli_main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"config error: {key}: unknown key\n"
        assert not out_dir.exists()

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
            (lambda body: body["pcma"].pop("video_dim"), "model.json: pcma.video_dim: required"),
            (lambda body: body["pcma"].update(depth=3), "unexpected keyword argument 'depth'"),
            (lambda body: body["pcma"].update(n_heads=3), "not divisible by n_heads 3"),
            (lambda body: body["pcma"].update(tau=float("nan")),
             "pcma.tau: expected a finite number"),
            (lambda body: body["pcma"].update(model_dim="16"),
             "pcma.model_dim: expected an integer"),
            (lambda body: body["pcma"].update(tau=1e-320), "pcma: tau 1e-320 is too small"),
            (lambda body: body.pop("gated"), "model.json: gated: required"),
            (lambda body: body.update(gated=1), "gated: expected true or false, got 1"),
            (lambda body: body.update(pcma=[16]), "pcma: expected a JSON object"),
        ],
        ids=["missing", "unknown", "rejected", "nan-tau", "wrong-type", "tiny-tau",
             "no-gated", "gated-int", "pcma-list"],
    )
    def test_bad_model_json_names_the_file(self, tmp_path, out_dir, capsys, edit, reason):
        ckpt, eval_cfg = self._trained_checkpoint(tmp_path, out_dir)
        body = json.loads((ckpt / "model.json").read_text())
        edit(body)
        (ckpt / "model.json").write_text(json.dumps(body))
        capsys.readouterr()
        assert cli_main(["eval", "--config", eval_cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "model.json" in lines[0] and reason in lines[0]

    @pytest.mark.parametrize("name", ["model.json"])
    def test_invalid_checkpoint_json_names_the_file(self, tmp_path, out_dir, capsys, name):
        ckpt, eval_cfg = self._trained_checkpoint(tmp_path, out_dir)
        (ckpt / name).write_text("{")
        capsys.readouterr()
        assert cli_main(["eval", "--config", eval_cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert name in lines[0] and "invalid JSON" in lines[0]

    def test_model_json_dims_checked_against_stored_shapes(self, tmp_path, out_dir, capsys):
        ckpt, eval_cfg = self._trained_checkpoint(tmp_path, out_dir)
        body = json.loads((ckpt / "model.json").read_text())
        body["pcma"]["video_dim"] += 1
        (ckpt / "model.json").write_text(json.dumps(body))
        capsys.readouterr()
        assert cli_main(["eval", "--config", eval_cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        floats = (ckpt / "params.f32").stat().st_size // 4
        assert lines[0] == (
            f"error: {ckpt / 'params.f32'}: holds {floats} floats, fewer than model.json lays out"
        )

    def test_non_finite_params_name_the_offset(self, tmp_path, out_dir, capsys):
        ckpt, eval_cfg = self._trained_checkpoint(tmp_path, out_dir)
        payload = np.fromfile(ckpt / "params.f32", dtype="<f4")
        payload[5] = np.nan
        payload.tofile(ckpt / "params.f32")
        capsys.readouterr()
        assert cli_main(["eval", "--config", eval_cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {ckpt / 'params.f32'}: non-finite value at flat offset 5"]

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("d.json", lambda body: {**body, "count": "6"}),
            ("d.json", lambda body: list(body)),
            ("d.ids.json", lambda body: 5),
            ("d.saliency.i8", _window_end_past_its_video),
            ("d.json", lambda body: {**body, "files": {**body["files"], "video": 5}}),
            ("d.json", lambda body: {**body, "version": 1}),
        ],
        ids=[
            "count-string", "manifest-list", "ids-number", "saliency-entry", "file-number",
            "version-1",
        ],
    )
    def test_unusable_dataset_file_names_it(self, tmp_path, out_dir, capsys, name, edit):
        # a JSON file's edit maps its parsed value, a payload's its bytes
        instances, saliencies, masks = generate_synthetic(SyntheticSpec(**DATA["synthetic"]))
        manifest = tmp_path / "data" / "d.json"
        save_dataset(instances, manifest, saliencies=saliencies, causal_masks=masks)
        path = manifest.parent / name
        if path.suffix == ".json":
            path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        else:
            path.write_bytes(edit(path.read_bytes()))
        cfg = write_cfg(tmp_path / "probe.json", {"data": {"manifest": str(manifest)}})
        assert cli_main(["probe", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(path) in lines[0]

    def test_missing_ids_sidecar_names_it(self, tmp_path, out_dir, capsys):
        instances, _, _ = generate_synthetic(SyntheticSpec(**DATA["synthetic"]))
        manifest = tmp_path / "data" / "d.json"
        save_dataset(instances, manifest)
        (manifest.parent / "d.ids.json").unlink()
        cfg = write_cfg(tmp_path / "probe.json", {"data": {"manifest": str(manifest)}})
        assert cli_main(["probe", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(manifest.parent / "d.ids.json") in lines[0]

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

    @pytest.mark.parametrize(
        "section, key, value",
        [("optimizer", "lr", 1e300), ("model", "tau", 1e-308),
         ("data.synthetic", "leak_strength", 1e300)],
        ids=["lr", "tau", "leak_strength"],
    )
    def test_numeric_failure_prints_one_error_line(
        self, tmp_path, out_dir, capsys, section, key, value
    ):
        # the run dies on a non-finite value it checks; no NumPy warning
        # comes before its one line
        cfg = self._train_with(tmp_path, section, key, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["train", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command", ["train", "eval", "intervene-eval", "probe", "sample"])
    def test_empty_dataset_is_config_error(self, tmp_path, out_dir, capsys, command):
        train_cfg = write_cfg(tmp_path / "train.json",
                              {"data": DATA, "model": MODEL, "optimizer": OPT})
        assert cli_main(["train", "--config", train_cfg]) == 0
        ckpt = str(out_dir / "checkpoint")
        keys = {
            "train": {},
            "eval": {"checkpoint": ckpt},
            "intervene-eval": {"checkpoint_a": ckpt, "checkpoint_b": ckpt},
            "probe": {},
            "sample": {"sampler": {"kind": "mar16", "seed": 5}},
        }[command]
        empty = {"synthetic": {**DATA["synthetic"], "n_instances": 0}}
        cfg = write_cfg(tmp_path / "empty.json", {"data": empty, **keys})
        capsys.readouterr()
        assert cli_main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == "config error: data: empty dataset\n"

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
