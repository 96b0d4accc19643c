"""The environment a result was measured in, recorded with every result."""

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

import numpy as np


def _blas_library():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (KeyError, TypeError):
        return "unknown"


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the program's source files, identifying the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "trajdiff", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def record(root, workload, seed, blas_env):
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_library(),
        "blas_threads": blas_threads(),
        "blas_env": blas_env,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }
