"""Which BLAS numpy loaded in this process, and how many threads it runs."""
from __future__ import annotations

import ctypes

import numpy as np

# thread-count getters of the OpenBLAS builds numpy wheels ship
_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def _loaded_blas_paths() -> list:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            return sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return []


def info() -> dict:
    """Vendor and version from numpy's build config; threads from the loaded library."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = int(getter())
                break
        if threads is not None:
            break
    return {"blas_vendor": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}
