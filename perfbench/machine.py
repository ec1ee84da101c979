"""Machine record written into every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np

_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _blas() -> tuple[str, int | None]:
    """(OpenBLAS version, threads it runs with), read from the library numpy loaded."""
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (KeyError, TypeError):
        version = "unknown"
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in _THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return version, int(getter())
    return version, None


def machine_record() -> dict:
    nproc = len(os.sched_getaffinity(0))
    version, threads = _blas()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "blas_threads": threads,
        "blas_threads_exceed_nproc": threads is not None and threads > nproc,
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
