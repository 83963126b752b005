"""Command line front end.

Each subcommand reads one JSON config file and writes metrics.json (train
additionally writes curves.csv and a checkpoint) into the resolved output
directory. All randomness comes from seeds in the config, so rerunning a
subcommand with an unchanged config reproduces the artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import samplers as sm
from .features import FormatError, SyntheticSpec, generate_synthetic, save_dataset
from .harness import (
    ConfigError,
    FieldError,
    build_section,
    evaluate,
    load_checkpoint,
    load_data,
    parse_experiment_config,
    resolve_output_dir,
    save_checkpoint,
    seen_unseen_protocol,
    shortcut_probe,
    train,
    write_curves,
    write_metrics,
)
from .mnse import MemoryBank, Metric, Regime, instance_scenes

SAMPLER_KINDS = ("mar16", "mar32", "pcma80")


@dataclass(frozen=True)
class SamplerConfig:
    """sample's sampler section."""

    kind: str
    seed: int = 0
    subsample: int | None = None  # pcma80 only; 16 when absent

    def __post_init__(self) -> None:
        if self.kind not in SAMPLER_KINDS:
            raise FieldError(
                "kind", f"unknown {self.kind!r} (choose from {', '.join(SAMPLER_KINDS)})"
            )
        if self.seed < 0:
            raise FieldError("seed", "must be >= 0")
        if self.subsample is not None:
            if self.kind != "pcma80":
                raise FieldError("subsample", f"not a {self.kind} field")
            if self.subsample < 1:
                raise FieldError("subsample", "must be >= 1")


@dataclass(frozen=True)
class ProtocolConfig:
    """intervene-eval's top-level protocol keys."""

    neighbor_k: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.neighbor_k < 1:
            raise FieldError("neighbor_k", "must be >= 1")
        if self.seed < 0:
            raise FieldError("seed", "must be >= 0")


def _read_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    return raw


def _require_str(raw: dict, key: str, problems: list[str]) -> str | None:
    value = raw.get(key)
    if not isinstance(value, str) or not value:
        problems.append(f"{key}: required string path")
        return None
    return value


def _cmd_gen_data(raw: dict) -> tuple[Path, dict]:
    problems: list[str] = []
    spec = None
    if not isinstance(raw.get("synthetic"), dict):
        problems.append("synthetic: required section")
    else:
        spec = build_section(problems, "synthetic", SyntheticSpec, raw["synthetic"])
    manifest_name = raw.get("manifest", "dataset.json")
    if not isinstance(manifest_name, str) or not manifest_name:
        problems.append("manifest: expected nonempty string path")
    if problems:
        raise ConfigError(problems)

    out_dir = resolve_output_dir(raw.get("output_dir"))
    manifest = Path(manifest_name)
    if not manifest.is_absolute():
        manifest = out_dir / manifest
    instances, saliencies, masks = generate_synthetic(spec)
    save_dataset(instances, manifest, saliencies=saliencies, causal_masks=masks)
    payload = {
        "command": "gen-data",
        "count": len(instances),
        "n_clips": spec.n_clips,
        "manifest": manifest_name,
    }
    return out_dir, payload


def _cmd_train(raw: dict) -> tuple[Path, dict]:
    cfg = parse_experiment_config(raw)
    out_dir = resolve_output_dir(cfg.output_dir)
    result = train(cfg)
    save_checkpoint(result.model, out_dir / "checkpoint")
    write_curves(result.report.curves, out_dir / "curves.csv")
    payload = {
        "command": "train",
        **result.report.to_dict(),
        "skipped_interventions": result.skipped_interventions,
        "skipped_mixups": result.skipped_mixups,
    }
    if result.report.curves:
        last = result.report.curves[-1]
        payload["final"] = {
            "erm_loss": last.erm_loss,
            "cl_loss": last.cl_loss,
            "total_loss": last.total_loss,
        }
    return out_dir, payload


def _cmd_eval(raw: dict) -> tuple[Path, dict]:
    cfg = parse_experiment_config(raw)
    problems: list[str] = []
    checkpoint = _require_str(raw, "checkpoint", problems)
    if problems:
        raise ConfigError(problems)
    out_dir = resolve_output_dir(cfg.output_dir)
    model = load_checkpoint(checkpoint)
    instances, _, _ = load_data(cfg.data)
    report = evaluate(model, instances)
    return out_dir, {"command": "eval", **report.to_dict()}


def _cmd_intervene_eval(raw: dict) -> tuple[Path, dict]:
    cfg = parse_experiment_config(raw)
    problems: list[str] = []
    checkpoint_a = _require_str(raw, "checkpoint_a", problems)
    checkpoint_b = _require_str(raw, "checkpoint_b", problems)
    protocol = build_section(
        problems, "", ProtocolConfig, {k: raw[k] for k in ("neighbor_k", "seed") if k in raw}
    )
    if problems:
        raise ConfigError(problems)

    out_dir = resolve_output_dir(cfg.output_dir)
    model_a = load_checkpoint(checkpoint_a)
    model_b = load_checkpoint(checkpoint_b)
    instances, _, masks = load_data(cfg.data)
    if not instances:
        raise ConfigError(["data: empty dataset"])
    if masks is None:
        raise ConfigError(["data: causal masks required for intervene-eval"])
    bank = MemoryBank(
        instances[0].video.shape[1], metric=Metric.COSINE, regime=Regime.F1_STATIC
    )
    bank.populate(instance_scenes(instances)).freeze()
    proto = seen_unseen_protocol(
        model_a,
        model_b,
        instances,
        np.asarray(masks, dtype=bool),
        bank,
        seed=protocol.seed,
        neighbor_k=protocol.neighbor_k,
    )
    payload = {
        "command": "intervene-eval",
        "clean": {"a": proto.clean[0].to_dict(), "b": proto.clean[1].to_dict()},
        "seen": {"a": proto.seen[0].to_dict(), "b": proto.seen[1].to_dict()},
        "unseen": {"a": proto.unseen[0].to_dict(), "b": proto.unseen[1].to_dict()},
        "deltas": dict(proto.deltas),
    }
    return out_dir, payload


def _cmd_probe(raw: dict) -> tuple[Path, dict]:
    cfg = parse_experiment_config(raw)
    out_dir = resolve_output_dir(cfg.output_dir)
    instances, _, _ = load_data(cfg.data)
    if not instances:
        raise ConfigError(["data: empty dataset"])
    report = shortcut_probe(instances)
    return out_dir, {"command": "probe", **report.to_dict()}


def _output_dict(video_id: str, out: sm.SamplerOutput) -> dict:
    return {
        "video_id": video_id,
        "indices": list(out.indices),
        "provenance": list(out.provenance),
        "replacement_fallback": out.replacement_fallback,
    }


def _run_sampler(sampler: SamplerConfig, instances, saliencies) -> list[dict]:
    selections = []
    if sampler.kind == "pcma80":
        for i, inst in enumerate(instances):
            _, out = sm.pcma80_resample(
                inst.video, sampler.seed + i, subsample=sampler.subsample or 16
            )
            selections.append(_output_dict(inst.video_id, out))
        return selections
    if saliencies is None:
        raise ConfigError(["data: saliency annotations required for mar sampling"])
    factory = sm.mar16 if sampler.kind == "mar16" else sm.mar32
    for i, (inst, annotation) in enumerate(zip(instances, saliencies)):
        out = sm.mar_sample(annotation, factory(seed=sampler.seed + i))
        selections.append(_output_dict(inst.video_id, out))
    return selections


def _cmd_sample(raw: dict) -> tuple[Path, dict]:
    cfg = parse_experiment_config(raw)
    sampler_raw = raw.get("sampler")
    if not isinstance(sampler_raw, dict) or "kind" not in sampler_raw:
        raise ConfigError(["sampler: required section with kind " + "|".join(SAMPLER_KINDS)])
    problems: list[str] = []
    sampler = build_section(problems, "sampler", SamplerConfig, sampler_raw)
    if problems:
        raise ConfigError(problems)
    out_dir = resolve_output_dir(cfg.output_dir)
    instances, saliencies, _ = load_data(cfg.data)
    if not instances:
        raise ConfigError(["data: empty dataset"])
    selections = _run_sampler(sampler, instances, saliencies)
    return out_dir, {"command": "sample", "sampler": sampler.kind, "selections": selections}


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "intervene-eval": _cmd_intervene_eval,
    "probe": _cmd_probe,
    "sample": _cmd_sample,
}

_HELP = {
    "gen-data": "generate a synthetic dataset and write its manifest",
    "train": "train a model and write checkpoint, curves, and metrics",
    "eval": "evaluate a checkpoint on a dataset",
    "intervene-eval": "run the seen/unseen intervention protocol on two checkpoints",
    "probe": "run the parameter-free answer-video shortcut probe",
    "sample": "run a frame sampler over a dataset",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalvqa",
        description="Deterministic experiment runner; every subcommand takes one JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in _HANDLERS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True, help="path to the JSON config file")
    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        raw = _read_config(args.config)
        out_dir, payload = _HANDLERS[args.command](raw)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except (FormatError, ValueError, OSError, ArithmeticError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = write_metrics(payload, out_dir / "metrics.json")
    print(path)
    return 0


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))
