"""The malloc settings made when the package is imported: on glibc, freed
training arrays stay in the heap; elsewhere, or without mallopt, nothing is
done and nothing raises."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import causalvqa

ROOT = Path(causalvqa.__file__).parents[2]


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


# two train calls of the contrastive sample config cut to 20 steps; prints
# the minor page faults of the second
SECOND_TRAIN_FAULTS = """
import json, resource, sys
from causalvqa import harness
raw = json.load(open(sys.argv[1]))
raw["optimizer"]["steps"] = 20
raw["bank"]["regime"] = sys.argv[2]
cfg = harness.parse_experiment_config(raw)
harness.train(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
harness.train(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the setting applies to glibc only")
@pytest.mark.parametrize("regime", ["f1", "f3"])
def test_a_repeated_train_call_reuses_the_heap(regime):
    # with glibc's default trimming each step faults its arrays in afresh:
    # over 11,000 minor faults for these 20 steps, against a handful here
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SECOND_TRAIN_FAULTS,
         str(ROOT / "configs" / "train_contrastive.json"), regime],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert int(proc.stdout) < 500


def test_both_thresholds_set_mmap_first(monkeypatch):
    # any mallopt call turns glibc's dynamic mmap threshold off, so the
    # trim threshold alone would pin it at 128 KiB
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.99", raising=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    causalvqa._keep_freed_memory()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def test_no_mallopt_returns_quietly(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.99", raising=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert causalvqa._keep_freed_memory() is None


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [lambda name: "musl", lambda name: None, _unknown_name],
                         ids=["other-libc", "unset", "unknown-name"])
def test_other_c_libraries_are_left_alone(monkeypatch, confstr):
    def no_cdll(name):
        raise AssertionError("the C library was opened")

    monkeypatch.setattr(os, "confstr", confstr, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    assert causalvqa._keep_freed_memory() is None
