"""Finite-difference gradient oracle used across the test suite.

Analytic backward passes are checked against central differences computed
from the forward pass alone. Probing is per-coordinate on randomly chosen
entries so large tensors stay cheap to verify.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

EPS = 1e-5
RTOL = 1e-4
MIN_PROBES = 20


def numeric_partial(f: Callable[[], float], arr: np.ndarray, idx: tuple, eps: float = EPS) -> float:
    """Central-difference partial of scalar f with respect to arr[idx]."""
    orig = arr[idx]
    arr[idx] = orig + eps
    hi = f()
    arr[idx] = orig - eps
    lo = f()
    arr[idx] = orig
    return (hi - lo) / (2.0 * eps)


def probe_coords(shape: tuple[int, ...], rng: np.random.Generator, n: int = MIN_PROBES) -> list[tuple]:
    """n random coordinates into a tensor of the given shape (with repeats allowed)."""
    if shape == ():
        return [()] * 1
    return [tuple(int(rng.integers(0, s)) for s in shape) for _ in range(n)]


def assert_grad_matches(
    f: Callable[[], float],
    arr: np.ndarray,
    analytic: np.ndarray,
    rng: np.random.Generator,
    label: str = "tensor",
    n_probes: int = MIN_PROBES,
    eps: float = EPS,
    rtol: float = RTOL,
) -> None:
    """Check analytic gradient entries against central differences.

    f must recompute the scalar loss from current array contents; arr is
    perturbed in place and restored. Relative error uses a unit floor so
    near-zero gradients are compared absolutely.
    """
    assert analytic.shape == arr.shape, f"{label}: grad shape {analytic.shape} vs {arr.shape}"
    for idx in probe_coords(arr.shape, rng, n_probes):
        num = numeric_partial(f, arr, idx, eps)
        ana = float(analytic[idx])
        denom = max(abs(num), abs(ana), 1.0)
        rel = abs(num - ana) / denom
        assert rel < rtol, (
            f"{label}{list(idx)}: analytic {ana:.10g} vs numeric {num:.10g} "
            f"(rel err {rel:.3g})"
        )


def dead_tensors(store, names, floor: float = 1e-9) -> list[str]:
    """The names among names whose gradient in store has no entry above
    floor in magnitude. The floor sits far above rounding noise (about
    1e-16 here), which a gradient that cancels exactly leaves behind."""
    return [name for name in names if not np.abs(store.grad(name)).max() > floor]
