"""Tests for the benchmark's own machinery.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from spans import SpanRecorder, Target, self_times, summarize, tail_percentile  # noqa: E402


class TickClock:
    """Advances one unit per reading, so span times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder(TickClock())
    leaf = rec.wrap("leaf", lambda: None)
    mid = rec.wrap("mid", lambda: (leaf(), leaf()))
    top = rec.wrap("top", lambda: (mid(), leaf()))
    top()
    # clock readings: top 1..10, mid 2..7 holding leaves 3..4 and 5..6,
    # then a leaf 8..9 directly under top
    names = [s[0] for s in rec.spans]
    assert names == ["top", "mid", "leaf", "leaf", "leaf"]
    durations = [s[2] - s[1] for s in rec.spans]
    assert durations == [9.0, 5.0, 1.0, 1.0, 1.0]
    assert self_times(rec.spans) == [9.0 - 5.0 - 1.0, 5.0 - 2.0, 1.0, 1.0, 1.0]
    stats = summarize(rec.spans)
    assert stats["leaf"].calls == 3 and stats["leaf"].self_s == 3.0
    assert stats["top"].self_s + stats["mid"].self_s + stats["leaf"].self_s == durations[0]


def test_raising_call_is_recorded_and_unwinds_the_parent_stack():
    rec = SpanRecorder(TickClock())

    def fail():
        raise KeyError("x")

    bad = rec.wrap("bad", fail)
    after = rec.wrap("after", lambda: None)
    with pytest.raises(KeyError):
        bad()
    after()
    assert rec.spans[0][4] == "KeyError"
    assert rec.spans[1][3] == -1  # top level again, not a child of the failed call
    assert summarize(rec.spans)["bad"].raised == 1


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def _owners_now(targets: list[Target]) -> list:
    return [vars(t.owner)[t.attr] for t in targets]


def _tiny_contrastive_train():
    from causalvqa import harness

    cfg = harness.parse_experiment_config({
        "data": {"synthetic": {"n_instances": 6, "n_clips": 4, "video_dim": 8, "text_dim": 8}},
        "model": {"model_dim": 8, "n_heads": 2, "n_layers": 1},
        "optimizer": {"steps": 2, "batch_size": 3},
        "intervention": {"beta_cl": 1.0, "memory_source": "random", "topk_mode": True, "k": 2},
        "bank": {"regime": "f3", "window": 2},
    })
    return harness.train(cfg)


def test_wrapped_names_are_restored_after_a_traced_run():
    targets = layers.targets()
    before = _owners_now(targets)
    rec = SpanRecorder()
    with rec.patched(targets):
        assert all(a is not b for a, b in zip(_owners_now(targets), before))
        _tiny_contrastive_train()
    assert all(a is b for a, b in zip(_owners_now(targets), before))
    called = summarize(rec.spans)
    for name in ("harness.train", "harness.adam_step", "mnse.push_batch",
                 "intervention.gate_forward", "pcma.loss_and_grads", "nn_core.mha_forward"):
        assert called[name].calls > 0, name


def test_wrapped_names_are_restored_when_the_traced_body_raises():
    targets = layers.targets()
    before = _owners_now(targets)
    with pytest.raises(RuntimeError):
        with SpanRecorder().patched(targets):
            raise RuntimeError("stop")
    assert all(a is b for a, b in zip(_owners_now(targets), before))


def test_per_layer_metrics_match_benchmark_json():
    names = layers.metric_names()
    metrics = layers.per_layer_metrics({}, [], traced=[2.0], untraced=[1.0])
    assert list(metrics) == list(names)
    assert metrics["trace.overhead_s"] == 1.0
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == names
