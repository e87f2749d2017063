"""One OpenBLAS thread per process, set once at import.

The encoder's matrices are tiny (dim 64, head dim 16), so OpenBLAS's
per-core threads only contend with the sweep engines' own workers, and
the thread count also sets the bits: a gemm split over two threads sums
in another order than one thread does.  :func:`pin_one_thread` sets the
thread count of the OpenBLAS numpy loaded to the constant 1 through
:mod:`ctypes`, whatever ``OPENBLAS_NUM_THREADS`` says.
:mod:`repro.models.encoder` calls it when imported, which every
``import repro…`` does before any thread of ours exists, so every
process that encodes computes the same bits on a given CPU.

:func:`blas_regime` names what produced the bits: the OpenBLAS core and
thread count (``"SkylakeX, 1 thread"``), or ``"unpinned: <reason>"`` when
no known OpenBLAS entry point was found; it never guesses.  OpenBLAS
built with DYNAMIC_ARCH picks kernels by CPU, so another core can still
give other bits.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import List, Optional

import numpy as np

# (prefix, suffix) of the exported names: scipy-openblas wheels rename
# the symbols and the 64-bit-integer builds add a "64_" suffix.
_SYMBOL_FORMS = (
    ("scipy_openblas_", "64_"),
    ("scipy_openblas_", ""),
    ("openblas_", "64_"),
    ("openblas_", ""),
)

_regime: Optional[str] = None


def _numpy_openblas_paths() -> List[str]:
    """Files of the OpenBLAS numpy loaded: the wheel's copy, else the mapped one."""
    package = os.path.dirname(np.__file__)
    paths = sorted(
        glob.glob(os.path.join(os.path.dirname(package), "numpy.libs", "*openblas*"))
        + glob.glob(os.path.join(package, ".dylibs", "*openblas*"))
    )
    if paths:
        return paths
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            mapped = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return []
    return sorted(p for p in mapped if os.path.isfile(p))


def _pin() -> str:
    paths = _numpy_openblas_paths()
    if not paths:
        return "unpinned: no OpenBLAS library is loaded"
    for path in paths:
        try:
            # dlopen of a loaded library returns the instance numpy uses.
            lib = ctypes.CDLL(path)
        except OSError:
            continue  # reported below with the other candidates
        for prefix, suffix in _SYMBOL_FORMS:
            setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if setter is None:
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            threads = 1
            getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = getter()
            if threads != 1:
                return f"unpinned: {os.path.basename(path)} kept {threads} threads"
            corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
            core = "unknown core"
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                core = (corename() or b"").decode("ascii", "replace") or core
            return f"{core}, 1 thread"
    return "unpinned: no loadable set_num_threads in " + ", ".join(
        os.path.basename(p) for p in paths
    )


def pin_one_thread() -> str:
    """Pin numpy's OpenBLAS to one thread (once per process); the regime."""
    global _regime
    if _regime is None:
        _regime = _pin()
    return _regime


def blas_regime() -> str:
    """Which BLAS regime produced this process's bits (read-only)."""
    return pin_one_thread()
