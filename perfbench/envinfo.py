"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself;
    None when it cannot be found."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs_dir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def collect(seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
