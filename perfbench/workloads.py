"""The benchmark's workloads: seeded input generation, the timed set-up and
timed run through the package's public entry points, and output checks.

Every workload sees only files: a manifest written with save_dataset, a
JSON config and, for intervene-eval, two checkpoints. They are generated
from the workload seed before any timing starts.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from causalvqa import harness
from causalvqa.features import SyntheticSpec, generate_synthetic, save_dataset
from causalvqa.mnse import MemoryBank, Metric, NeighborQuery, Regime, instance_scenes

# Backbone and data shape of configs/train.json and configs/train_contrastive.json.
MODEL = {"model_dim": 32, "n_heads": 4, "n_layers": 1}
N_CLIPS, DIM = 8, 24
CONTRASTIVE = {
    "alpha": 2.0,
    "beta_cl": 1.0,
    "n_negatives": 3,
    "topk_mode": True,
    "k": 4,
    "neighbor_k": 200,
}
# Exact-kNN answers compared against a brute-force ranking per run.
KNN_CHECK_QUERIES = 6


class RunOutput(NamedTuple):
    seconds: float  # wall time of the timed call
    items: int  # training samples, or videos through the protocol
    result: Any
    checkpoint: Path | None


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n) % (2**31)]


def _write_dataset(path: Path, n_videos: int, noise_std: float, seed: int) -> Path:
    spec = SyntheticSpec(
        n_instances=n_videos, seed=seed, n_clips=N_CLIPS, video_dim=DIM, text_dim=DIM,
        noise_std=noise_std,
    )
    instances, saliencies, masks = generate_synthetic(spec)
    save_dataset(instances, path, saliencies=saliencies, causal_masks=masks)
    return path


def _write_config(path: Path, raw: dict) -> Path:
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    return path


def _read_config(path: Path) -> dict:
    return json.loads(Path(path).read_text())


# -- training workloads ----------------------------------------------------------


@dataclass(frozen=True)
class TrainWorkload:
    """One `train` call per repeat, followed by the CLI's artifact writes."""

    items_label = "training samples (batch_size x steps) per second of train"
    name: str
    noise_std: float
    steps: int
    batch_size: int
    extra: dict = field(default_factory=dict)  # intervention, bank, oracle masks
    knn_check: bool = False

    def generate(self, seed: int, workdir: Path) -> Path:
        data_seed, model_seed, opt_seed, int_seed = _seeds(seed, 4)
        manifest = _write_dataset(workdir / "data" / "train.json", 200, self.noise_std, data_seed)
        raw = {
            "data": {"manifest": str(manifest)},
            "model": {**MODEL, "seed": model_seed},
            "optimizer": {
                "lr": 0.001, "steps": self.steps, "batch_size": self.batch_size, "seed": opt_seed,
            },
            **copy.deepcopy(self.extra),
        }
        if "intervention" in raw:
            raw["intervention"]["seed"] = int_seed
        return _write_config(workdir / "config.json", raw)

    def setup(self, config: Path) -> dict:
        cfg = harness.parse_experiment_config(_read_config(config))
        return {"cfg": cfg, "dataset": harness.load_data(cfg.data)}

    def run(self, state: dict, out_dir: Path, clock: Callable[[], float]) -> RunOutput:
        cfg = state["cfg"]
        t0 = clock()
        result = harness.train(cfg, state["dataset"])
        seconds = clock() - t0
        ckpt = harness.save_checkpoint(result.model, out_dir / "checkpoint")
        harness.write_curves(result.report.curves, out_dir / "curves.csv")
        payload = {"command": "train", **result.report.to_dict()}
        last = result.report.curves[-1]
        payload["final"] = {
            "erm_loss": last.erm_loss, "cl_loss": last.cl_loss, "total_loss": last.total_loss,
        }
        harness.write_metrics(payload, out_dir / "metrics.json")
        items = cfg.optimizer.batch_size * cfg.optimizer.steps
        return RunOutput(seconds, items, result, ckpt)

    def check(self, state: dict, out: RunOutput, first: RunOutput | None) -> list[str]:
        problems = []
        report = out.result.report
        curves = report.curves
        steps = state["cfg"].optimizer.steps
        if len(curves) != steps:
            problems.append(f"curves has {len(curves)} rows for {steps} steps")
        for i, row in enumerate(curves):
            if row.step != i or not all(math.isfinite(v) for v in row[1:]):
                problems.append(f"curves row {i} is out of order or non-finite: {row}")
                break
        problems += _accuracy_problems("train", report)
        csv_rows = (out.checkpoint.parent / "curves.csv").read_text().splitlines()
        if len(csv_rows) != steps + 1:
            problems.append(f"curves.csv has {len(csv_rows)} lines for {steps} steps")
        problems += _checkpoint_problems(out.result.model, out.checkpoint)
        if first is not None and (
            first.result.report.curves != curves
            or first.result.report.corrects != report.corrects
        ):
            problems.append("rerun on the same inputs changed curves or accuracies")
        return problems

    def deep_check(self, state: dict, out: RunOutput) -> list[str]:
        if not self.knn_check:
            return []
        instances = state["dataset"][0]
        k = state["cfg"].intervention.neighbor_k
        return knn_problems(out.result.bank, instances, k, KNN_CHECK_QUERIES, seed=len(instances))

    def quality(self, out: RunOutput) -> dict[str, float]:
        return {
            "train_acc": out.result.report.overall,
            "final_total_loss": out.result.report.curves[-1].total_loss,
        }


# -- seen/unseen protocol workload ----------------------------------------------------


@dataclass(frozen=True)
class ProtocolWorkload:
    """intervene-eval: the seen/unseen protocol on two fixed checkpoints.

    The bank holds every scene of the dataset, as the CLI builds it; each
    repeat runs the protocol over the first `protocol_videos` videos so that
    one run holds several repeats.
    """

    items_label = "videos per second of seen_unseen_protocol"
    name: str
    n_videos: int
    protocol_videos: int
    checkpoint_steps: int
    neighbor_k: int = 200

    def generate(self, seed: int, workdir: Path) -> Path:
        data_seed, seed_a, seed_b, opt_seed, proto_seed = _seeds(seed, 5)
        manifest = _write_dataset(workdir / "data" / "eval.json", self.n_videos, 0.5, data_seed)
        checkpoints = {}
        # Both checkpoints are trained on the answer loss only: the protocol's
        # cost does not depend on the weights, only its accuracies do.
        for key, model_seed in (("checkpoint_a", seed_a), ("checkpoint_b", seed_b)):
            cfg = harness.parse_experiment_config({
                "data": {"manifest": str(manifest)},
                "model": {**MODEL, "seed": model_seed},
                "optimizer": {
                    "lr": 0.001, "steps": self.checkpoint_steps, "batch_size": 16,
                    "seed": opt_seed,
                },
            })
            model = harness.train(cfg).model
            checkpoints[key] = str(harness.save_checkpoint(model, workdir / key))
        raw = {
            "data": {"manifest": str(manifest)},
            **checkpoints,
            "neighbor_k": self.neighbor_k,
            "seed": proto_seed,
        }
        return _write_config(workdir / "config.json", raw)

    def setup(self, config: Path) -> dict:
        raw = _read_config(config)
        cfg = harness.parse_experiment_config(raw)
        model_a = harness.load_checkpoint(raw["checkpoint_a"])
        model_b = harness.load_checkpoint(raw["checkpoint_b"])
        instances, _, masks = harness.load_data(cfg.data)
        bank = MemoryBank(instances[0].video.shape[1], metric=Metric.COSINE,
                          regime=Regime.F1_STATIC)
        bank.populate(instance_scenes(instances)).freeze()
        return {
            "raw": raw, "models": (model_a, model_b), "instances": instances,
            "masks": np.asarray(masks, dtype=bool), "bank": bank,
        }

    def run(self, state: dict, out_dir: Path, clock: Callable[[], float]) -> RunOutput:
        raw, n = state["raw"], self.protocol_videos
        t0 = clock()
        proto = harness.seen_unseen_protocol(
            *state["models"], state["instances"][:n], state["masks"][:n], state["bank"],
            seed=raw["seed"], neighbor_k=raw["neighbor_k"],
        )
        seconds = clock() - t0
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "command": "intervene-eval",
            **{
                part: {"a": getattr(proto, part)[0].to_dict(), "b": getattr(proto, part)[1].to_dict()}
                for part in ("clean", "seen", "unseen")
            },
            "deltas": dict(proto.deltas),
        }
        harness.write_metrics(payload, out_dir / "metrics.json")
        return RunOutput(seconds, n, proto, None)

    def check(self, state: dict, out: RunOutput, first: RunOutput | None) -> list[str]:
        proto = out.result
        problems = []
        for part in ("clean", "seen", "unseen"):
            for side, report in zip("ab", getattr(proto, part)):
                label = f"{part}.{side}"
                if set(report.counts) != {"causal", "temporal", "descriptive"}:
                    problems.append(f"{label}: counts keys {sorted(report.counts)}")
                if report.n_total != self.protocol_videos:
                    problems.append(
                        f"{label}: counts sum to {report.n_total}, not {self.protocol_videos}"
                    )
                problems += _accuracy_problems(label, report)
        expected = {"drop_a_seen", "drop_b_seen", "drop_a_unseen", "drop_b_unseen"}
        if set(proto.deltas) != expected or not all(
            math.isfinite(v) for v in proto.deltas.values()
        ):
            problems.append(f"deltas incomplete or non-finite: {proto.deltas}")
        if first is not None and _protocol_corrects(first.result) != _protocol_corrects(proto):
            problems.append("rerun on the same inputs changed protocol accuracies")
        return problems

    def deep_check(self, state: dict, out: RunOutput) -> list[str]:
        instances = state["instances"]
        return knn_problems(state["bank"], instances, self.neighbor_k, KNN_CHECK_QUERIES,
                            seed=len(instances))

    def quality(self, out: RunOutput) -> dict[str, float]:
        return {
            "unseen_acc_a": out.result.unseen[0].overall,
            "unseen_acc_b": out.result.unseen[1].overall,
        }


def _protocol_corrects(proto) -> list:
    return [r.corrects for part in (proto.clean, proto.seen, proto.unseen) for r in part]


# -- shared checks ---------------------------------------------------------------------


def _accuracy_problems(label: str, report) -> list[str]:
    accs = [report.overall, report.acc_causal, report.acc_temporal, report.acc_descriptive]
    if all(a is None or 0.0 <= a <= 1.0 for a in accs):
        return []
    return [f"{label}: accuracy outside [0, 1]: {accs}"]


def _checkpoint_problems(model, ckpt: Path) -> list[str]:
    loaded = harness.load_checkpoint(ckpt)
    if loaded.cfg != model.cfg or loaded.store.names() != model.store.names():
        return ["checkpoint round trip changed the config or parameter names"]
    for name in model.store.names():
        # checkpoints store float32
        want = model.store[name].astype(np.float32).astype(np.float64)
        if not np.array_equal(loaded.store[name], want):
            return [f"checkpoint round trip changed parameter {name}"]
    return []


def knn_problems(bank: MemoryBank, instances, k: int, n_queries: int, seed: int) -> list[str]:
    """Compare query_knn against a brute-force cosine ranking of entries().

    The ranking uses the bank's tie rule: score, then video_id, then
    clip_index. Queries are clip rows of dataset videos, excluding the
    video they come from.
    """
    if bank.metric is not Metric.COSINE:
        return [f"knn check covers the cosine metric, bank uses {bank.metric.value}"]
    entries = bank.entries()
    matrix = np.stack([e.vector for e in entries])
    norms = np.sqrt((matrix * matrix).sum(axis=1))
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(n_queries):
        inst = instances[int(rng.integers(len(instances)))]
        q = inst.video[int(rng.integers(inst.n_clips))].astype(np.float64)
        got = bank.query_knn(NeighborQuery(vector=q, k=k, exclude_video_id=inst.video_id))
        scores = (matrix @ q) / (norms * math.sqrt(float(q @ q)))
        eligible = [
            i for i, e in enumerate(entries) if inst.video_id not in e.video_id.split("+")
        ]
        want = sorted(
            eligible, key=lambda i: (-scores[i], entries[i].video_id, entries[i].clip_index)
        )[:k]
        got_ids = [(n.entry.video_id, n.entry.clip_index) for n in got]
        want_ids = [(entries[i].video_id, entries[i].clip_index) for i in want]
        if got_ids != want_ids:
            problems.append(f"query_knn for {inst.video_id}: ranking differs from brute force")
        elif not np.allclose([n.score for n in got], scores[want], rtol=1e-9, atol=1e-12):
            problems.append(f"query_knn for {inst.video_id}: scores differ from brute force")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("erm-train", noise_std=0.1, steps=60, batch_size=16),
        TrainWorkload(
            "contrastive-knn", noise_std=0.5, steps=2, batch_size=8, knn_check=True,
            extra={
                "intervention": {**CONTRASTIVE, "memory_source": "mnse"},
                "bank": {"regime": "f1"},
                "use_oracle_masks": True,
            },
        ),
        TrainWorkload(
            "contrastive-dynamic", noise_std=0.5, steps=16, batch_size=8,
            extra={
                "intervention": {**CONTRASTIVE, "memory_source": "random"},
                "bank": {"regime": "f3", "window": 8},
                "use_oracle_masks": False,
            },
        ),
        ProtocolWorkload("intervene-eval", n_videos=600, protocol_videos=20, checkpoint_steps=100),
    )
}
