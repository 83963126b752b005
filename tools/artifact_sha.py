"""Print the sha256 of every artifact the CLI writes, to check that a change
leaves them byte-identical.

In a fresh temporary directory, with BLAS pinned to one thread, it runs:

- every flow in configs/, in dependency order;
- configs/train_contrastive.json at 60 steps for each memory source (mnse,
  random), bank regime (f1, f2, f3) and gate kind (oracle masks, learned
  gates), each followed by intervene-eval of its checkpoint against the
  train flow's;
- the f3 nearest-scene variant at batch_size 1, whose mixup blends are each
  video's blend with itself;
- the robustness experiment of criterion 6 in tests/test_acceptance.py (5
  seeds), its result saved as JSON.

It then prints one "sha256  path" line per file written, sorted by path.
Run it in two checkouts and diff the outputs:

    python tools/artifact_sha.py > artifacts.txt
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CAUSALVQA_OUTPUT_DIR", None)

import contextlib  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from causalvqa.cli import cli_main  # noqa: E402
from causalvqa.features import read_section  # noqa: E402
from causalvqa.harness import ExperimentConfig, robustness_experiment  # noqa: E402

FLOWS = [
    ("gen-data", "gen_data"),
    ("train", "train"),
    ("eval", "eval"),
    ("train", "train_contrastive"),
    ("intervene-eval", "intervene_eval"),
    ("probe", "probe"),
    ("sample", "sample"),
]


def _run(command: str, config: dict, path: Path) -> None:
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(sys.stderr):  # the metrics path each run prints
        code = cli_main([command, "--config", str(path)])
    if code:
        raise SystemExit(f"{command} --config {path} exited {code}")


def _variants(contrastive: dict, evaluation: dict, configs: Path) -> None:
    cases = [
        (source, regime, oracle, 8)
        for source in ("mnse", "random")
        for regime in ("f1", "f2", "f3")
        for oracle in (True, False)
    ] + [("mnse", "f3", True, 1)]
    for source, regime, oracle, batch_size in cases:
        name = f"{source}_{regime}_{'oracle' if oracle else 'learned'}_b{batch_size}"
        cfg = copy.deepcopy(contrastive)
        cfg["optimizer"].update(steps=60, batch_size=batch_size)
        cfg["intervention"]["memory_source"] = source
        cfg["bank"] = {"regime": regime}
        cfg["use_oracle_masks"] = oracle
        cfg["output_dir"] = f"runs/variants/{name}"
        _run("train", cfg, configs / f"{name}.json")
        ev = dict(evaluation, checkpoint_a=f"runs/variants/{name}/checkpoint",
                  output_dir=f"runs/variants/{name}_intervene_eval")
        _run("intervene-eval", ev, configs / f"{name}_intervene_eval.json")


def _criterion_6(contrastive: dict, out: Path) -> None:
    raw = copy.deepcopy(contrastive)
    raw["data"]["synthetic"]["n_instances"] = 100
    result = robustness_experiment(
        read_section(raw, ExperimentConfig), seeds=[0, 1, 2, 3, 4], neighbor_k_eval=200
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, sort_keys=True, indent=2) + "\n")


def main() -> None:
    configs = {name: json.loads((REPO / "configs" / f"{name}.json").read_text())
               for _, name in FLOWS}
    with tempfile.TemporaryDirectory(prefix="artifact_sha_") as tmp:
        root = Path(tmp)
        os.chdir(root)
        written = root / "configs"
        written.mkdir()
        for command, name in FLOWS:
            _run(command, configs[name], written / f"{name}.json")
        _variants(configs["train_contrastive"], configs["intervene_eval"], written)
        _criterion_6(configs["train_contrastive"], root / "runs" / "criterion_6.json")
        os.chdir(REPO)
        for path in sorted((root / "runs").rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(root)}")


if __name__ == "__main__":
    main()
