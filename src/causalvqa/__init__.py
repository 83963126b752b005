"""Causal intervention mechanisms for video question answering.

Subpackages operate on precomputed clip/question/answer feature vectors:

- ``features``: dataset manifests, binary payloads, synthetic generation
- ``nn_core``: float64 forward/backward numeric primitives
- ``pcma``: the cross-modal attention answering model
- ``mnse``: memory bank of scene vectors with nearest-neighbor lookup
- ``intervention``: mixup-based scene interventions and contrastive loss
- ``samplers``: frame selection strategies (moment-aware, resampling, learned)
- ``harness``: training loops, evaluation protocols, CLI entry points

Importing the package on glibc raises malloc's mmap and trim thresholds for
the whole process (see ``_keep_freed_memory``).
"""

import os

__version__ = "0.1.0"

# glibc mallopt parameters (malloc.h) and the values set for them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's upper limit on 64-bit
_TRIM_THRESHOLD = 64 << 20


def _keep_freed_memory() -> None:
    """Keep freed arrays of up to 32 MiB in the heap instead of giving their
    pages back to the kernel.

    With glibc's defaults every training step's arrays are returned by heap
    trimming and faulted in again by the next step. Any mallopt call turns off
    glibc's dynamic thresholds, so both are set; the mmap one first, since
    alone the trim threshold would leave it at 128 KiB. Does nothing on other
    C libraries, and never raises.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        import ctypes

        # CDLL(None) is the running process; find_library would start a subprocess
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    except (AttributeError, ImportError, OSError, TypeError, ValueError):
        return


_keep_freed_memory()
