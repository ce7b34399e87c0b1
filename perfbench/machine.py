"""Machine and environment record attached to every benchmark result.

Final-bit results depend on the BLAS thread count (the zero129 error differs
in the 17th digit between one and two OpenBLAS threads), so two results are
comparable only when their records agree on it.  The record names the CPU,
its caches, the interpreter and library versions, every OpenBLAS loaded into
the process with its effective thread count, the thread variables set in the
environment, and the source under test (git commit when the checkout is a
repository, and always a digest of ``src/``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            sizes[f"L{level}"] = _read(index / "size")
    return sizes


def _loaded_openblas() -> list[str]:
    paths = set()
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" in Path(path).name.lower():
            paths.add(path)
    return sorted(paths)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def _blas() -> dict:
    import numpy as np

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        build = {}
    libraries = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        config = _call(
            lib,
            (
                "scipy_openblas_get_config64_",
                "scipy_openblas_get_config",
                "openblas_get_config64_",
                "openblas_get_config",
            ),
            ctypes.c_char_p,
        )
        threads = _call(
            lib,
            (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ),
            ctypes.c_int,
        )
        libraries.append(
            {
                "library": Path(path).name,
                "config": config.decode() if config else None,
                "threads": threads,
            }
        )
    return {"name": build.get("name"), "version": build.get("version"), "loaded": libraries}


def _git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(root: Path) -> dict:
    """Everything a reader needs to decide whether two results are comparable."""
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
    }
