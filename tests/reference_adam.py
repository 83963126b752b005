"""Adam one named tensor at a time, kept as the reference the flat
whole-buffer adam_step in harness is checked against.

Moments live in per-name dicts and every tensor is updated by the same
expressions, in the same order, as the flat step applies to each element.
"""

from __future__ import annotations

import numpy as np

from causalvqa import nn_core as nc
from causalvqa.harness import OptimizerConfig

Array = np.ndarray


class ReferenceAdam:
    def __init__(self) -> None:
        self.t = 0
        self.m: dict[str, Array] = {}
        self.v: dict[str, Array] = {}

    def step(self, store: nc.ParamStore, cfg: OptimizerConfig) -> None:
        self.t += 1
        for name in store.names():
            g = store.grad(name)
            m = self.m.setdefault(name, np.zeros_like(g))
            v = self.v.setdefault(name, np.zeros_like(g))
            m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            if cfg.lr == 0.0:
                continue
            mhat = m / (1.0 - cfg.beta1**self.t)
            vhat = v / (1.0 - cfg.beta2**self.t)
            param = store[name]
            param -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)
