"""The environment a result was measured in, recorded with every result.

Thread counts are read from the loaded OpenBLAS copies themselves (numpy and
scipy wheels each bundle one), so a thread-count difference between two
results is visible even when no environment variable was set.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SLNRBEAM_WORKERS")


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` directly, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_threads(lib: Path) -> dict:
    handle = ctypes.CDLL(str(lib))
    info = {"library": lib.name}
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(handle, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            info["threads"] = int(get_threads())
            info["config"] = get_config().decode(errors="replace").strip()
            return info
    info["threads"] = "unknown"
    return info


def blas_info() -> dict:
    import numpy
    import scipy

    try:
        vendor = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    copies = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
            try:
                copies.append({"package": pkg.__name__, **_openblas_threads(lib)})
            except OSError as err:
                copies.append({"package": pkg.__name__, "library": lib.name, "error": str(err)})
    return {"vendor": vendor, "copies": copies}


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
