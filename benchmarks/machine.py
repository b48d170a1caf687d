"""Facts about the machine a run measured on, and what the run cannot control."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

UNCONTROLLED = [
    "page cache stays warm: the benchmark drops no caches",
    "the host may be shared with other workloads; nothing is pinned or isolated",
    "CPU frequency scaling and turbo are left as the host sets them",
]


def _cache_sizes() -> list[str]:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out.append(f"L{level} {kind} {size}")
    return out


def _blas() -> dict:
    """Name and version from numpy's build record, thread count from the library."""
    import numpy as np

    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    libs = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        pass
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["default_threads"] = int(fn())
                return info
    info["default_threads"] = None
    return info


def machine_facts(cleared: dict[str, str]) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "caches": _cache_sizes(),
        "thread_vars_cleared": cleared,
        "uncontrolled": UNCONTROLLED,
    }
