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

It then prints a header of "# " lines naming the environment (Python,
NumPy, the BLAS name, version and configuration, the CPU model), and one
"sha256  path" line per file written, sorted by path. tools/artifacts.txt
is that output, checked in; regenerate it with

    python tools/artifact_sha.py > tools/artifacts.txt

and check a change against it with

    python tools/artifact_sha.py --check

which exits 0 when every artifact matches, 1 naming each changed, missing
or new artifact, and 2 ("not comparable") when the environment header
differs, since gemm's last bits depend on the BLAS kernel.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CAUSALVQA_OUTPUT_DIR", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
LISTING = REPO / "tools" / "artifacts.txt"
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

from causalvqa.cli import cli_main  # noqa: E402
from causalvqa.features import read_section  # noqa: E402
from causalvqa.harness import ExperimentConfig, robustness_experiment  # noqa: E402
from run import env_record  # noqa: E402

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


def _header() -> list[str]:
    env = env_record()
    blas = env["blas"]
    return [
        f"# python {env['python']}",
        f"# numpy {env['numpy']}",
        f"# blas {blas['name']} {blas['version']}",
        f"# blas configuration {blas['openblas configuration']}",
        f"# cpu {env['cpu_model']}",
    ]


def _listing() -> list[str]:
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
        return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root)}"
                for path in sorted((root / "runs").rglob("*")) if path.is_file()]


def _check() -> int:
    lines = LISTING.read_text().splitlines()
    header = [line for line in lines if line.startswith("# ")]
    if header != _header():
        print(f"not comparable: this environment differs from {LISTING.name}'s header")
        for want, got in zip(header, _header()):
            if want != got:
                print(f"  listed: {want}\n  here:   {got}")
        return 2
    listed = dict(reversed(line.split("  ", 1)) for line in lines if not line.startswith("# "))
    found = dict(reversed(line.split("  ", 1)) for line in _listing())
    problems = [
        f"{'new' if path not in listed else 'missing' if path not in found else 'changed'}: {path}"
        for path in sorted(listed.keys() | found.keys()) if listed.get(path) != found.get(path)
    ]
    print("\n".join(problems) or f"all {len(listed)} artifacts match {LISTING.name}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare against {LISTING.relative_to(REPO)} instead of printing")
    if parser.parse_args().check:
        return _check()
    print("\n".join(_header() + _listing()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
