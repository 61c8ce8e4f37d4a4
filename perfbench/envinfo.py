"""Environment record stored with every benchmark result.

blas_record() runs inside a sample process after numpy is imported and
reads the thread count OpenBLAS actually uses.  host_record() runs in the
benchmark's own process and names the code under test: the git commit
when the checkout is a repository, and always a digest of the package
sources, since a checkout without git history has no commit to name.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

THREAD_KEYS = ("blas_threads", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FOCKLADDER_THREADS")


def _openblas_threads(lib_dir):
    # numpy and scipy each bundle their own OpenBLAS with prefixed symbols.
    for path in sorted(glob.glob(os.path.join(lib_dir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def blas_record():
    """Library versions, the BLAS numpy links and the threads it runs with."""
    import numpy as np
    import scipy

    site = os.path.dirname(os.path.dirname(np.__file__))
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(os.path.join(site, "numpy.libs")),
        "scipy_blas_threads": _openblas_threads(os.path.join(site, "scipy.libs")),
    }


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(src_dir):
    """sha256 over the package's .py files, by relative path and content."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "fockladder", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def host_record(root, child_env):
    """Commit, source digest, core count and the thread settings children ran with."""
    return {
        "commit": _git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "OPENBLAS_NUM_THREADS": child_env.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": child_env.get("OMP_NUM_THREADS"),
        "FOCKLADDER_THREADS": child_env.get("FOCKLADDER_THREADS"),
    }
