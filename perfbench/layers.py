"""Trace points and per-layer metrics.

Each package function is wrapped at the name its caller resolves: harness
binds the intervention and bank-operator functions and load_dataset by
name, so those wrappers patch harness attributes; MemoryBank and PcmaModel
methods are patched on the class; nn_core functions on the module, where
pcma and intervention look them up.
"""

from __future__ import annotations

import statistics

from spans import NAME, PARENT, NameStats, Target, percentile, tail_percentile

# (span name, stats beyond calls/self_s/share). "p50" adds p50_ms and
# "tail" adds tail_ms, the highest percentile with at least ten calls
# beyond it. cli and samplers are not traced: no open item speeds them up.
FUNCTIONS = (
    ("features.load_dataset", ("p50",)),
    ("features.read_manifest", ("p50",)),
    ("nn_core.mha_forward", ("p50",)),
    ("nn_core.mha_backward", ("p50",)),
    ("nn_core.cosine_forward", ("p50",)),
    ("nn_core.cosine_backward", ("p50",)),
    ("pcma.loss_and_grads", ("p50", "tail")),
    ("pcma.aggregate_forward", ("p50",)),
    ("pcma.aggregate_backward", ("p50",)),
    ("pcma.forward_full", ("p50", "tail")),
    ("intervention.gate_forward", ("p50",)),
    ("intervention.gate_backward", ("p50",)),
    ("intervention.mixup_intervene", ("p50",)),
    ("intervention.build_triplet_cached", ("p50", "tail")),
    ("intervention.triplet_backward", ("p50",)),
    ("intervention.infonce_loss", ("p50",)),
    ("mnse.query_knn", ("p50",)),
    ("mnse.entries", ("p50", "tail")),
    ("mnse.push_batch", ("p50",)),
    ("mnse.random_do", ("p50", "tail")),
    ("mnse.mnse_do", ("p50", "tail")),
    ("mnse.populate", ()),
    ("harness.adam_step", ("p50", "tail")),
    ("harness.train", ()),
    ("harness.evaluate", ("p50",)),
    ("harness.seen_unseen_protocol", ()),
    ("harness.save_checkpoint", ()),
    ("harness.write_metrics", ()),
    ("harness.write_curves", ()),
)

# name -> (unit, better) for every per-layer metric, in output order.
EXTRA_METRICS = {
    "mnse.query_knn.p99_ms": ("ms", "lower"),
    "mnse.query_knn.rows_scanned": ("count", "lower"),
    "mnse.bank_size": ("count", "lower"),
    "intervention.mixup_intervene.raised": ("count", "lower"),
    "harness.step_ms.p50": ("ms", "lower"),
    "harness.step_ms.p95": ("ms", "lower"),
    "trace.wall_s": ("s", "lower"),  # median traced episode
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "share": "fraction", "p50_ms": "ms", "tail_ms": "ms"}


def metric_names() -> dict[str, tuple[str, str]]:
    out = {}
    for name, extra in FUNCTIONS:
        for stat in ("calls", "self_s", "share") + tuple(f"{e}_ms" for e in extra):
            out[f"{name}.{stat}"] = (STAT_UNITS[stat], "lower")
    out.update(EXTRA_METRICS)
    return out


def targets() -> list[Target]:
    from causalvqa import features, harness, nn_core
    from causalvqa.mnse import MemoryBank
    from causalvqa.pcma import PcmaModel

    def bank_len(bank, *args, **kwargs):
        return len(bank)

    owners = {
        "features.load_dataset": (harness, "load_dataset"),
        "features.read_manifest": (features, "read_manifest"),
        "mnse.query_knn": (MemoryBank, "query_knn"),
        "mnse.entries": (MemoryBank, "entries"),
        "mnse.push_batch": (MemoryBank, "push_batch"),
        "mnse.populate": (MemoryBank, "populate"),
    }
    out = []
    for name, _ in FUNCTIONS:
        module, attr = name.split(".")
        if name in owners:
            owner, attr = owners[name]
        elif module == "nn_core":
            owner = nn_core
        elif module == "pcma":
            owner = PcmaModel
        else:  # intervention and mnse operators, harness functions
            owner = harness
        size_of = bank_len if name in ("mnse.query_knn", "mnse.entries") else None
        out.append(Target(name, owner, attr, size_of))
    return out


def _ms(values: list[float], p: float) -> float:
    return 1e3 * percentile(values, p) if values else 0.0


def _step_intervals(adam: NameStats | None, spans: list[list]) -> list[float]:
    """Intervals between successive adam_step entries inside one train call."""
    if adam is None:
        return []
    parents = [s[PARENT] for s in spans if s[NAME] == "harness.adam_step"]
    return [
        b - a
        for a, b, pa, pb in zip(adam.starts, adam.starts[1:], parents, parents[1:])
        if pa == pb
    ]


def per_layer_metrics(
    stats: dict[str, NameStats],
    spans: list[list],
    traced: list[float],
    untraced: list[float],
) -> dict[str, float]:
    """Per-layer metrics from identical traced episodes with wall times
    `traced`, against untraced episodes with wall times `untraced`.

    Counts and self times are per episode; shares are of the traced wall.
    """
    episodes = len(traced)
    empty = NameStats(0, [], 0.0, 0, [], [])
    out: dict[str, float] = {}
    for name, extra in FUNCTIONS:
        s = stats.get(name, empty)
        out[f"{name}.calls"] = s.calls / episodes
        out[f"{name}.self_s"] = s.self_s / episodes
        out[f"{name}.share"] = s.self_s / sum(traced)
        if "p50" in extra:
            out[f"{name}.p50_ms"] = _ms(s.durations, 50)
        if "tail" in extra:
            p = tail_percentile(s.calls)
            out[f"{name}.tail_ms"] = _ms(s.durations, p) if p is not None else 0.0
    knn = stats.get("mnse.query_knn", empty)
    out["mnse.query_knn.p99_ms"] = _ms(knn.durations, 99)
    out["mnse.query_knn.rows_scanned"] = sum(knn.sizes) / episodes
    sizes = knn.sizes + stats.get("mnse.entries", empty).sizes
    out["mnse.bank_size"] = float(max(sizes, default=0))
    out["intervention.mixup_intervene.raised"] = (
        stats.get("intervention.mixup_intervene", empty).raised / episodes
    )
    steps = _step_intervals(stats.get("harness.adam_step"), spans)
    out["harness.step_ms.p50"] = _ms(steps, 50)
    out["harness.step_ms.p95"] = _ms(steps, 95)
    traced_wall, untraced_wall = statistics.median(traced), statistics.median(untraced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    return out
