"""Locate the library under test and record the environment of a run."""

from __future__ import annotations

import ctypes
import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: BLAS thread count the benchmark pins in every worker process.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingLibrary(RuntimeError):
    """The checkout holds no importable jittervan sources."""


def have_sources() -> bool:
    return (SRC / "jittervan" / "__init__.py").is_file()


def import_jittervan():
    """Import jittervan from this checkout's ``src/``, never from elsewhere."""
    if not have_sources():
        raise MissingLibrary(f"no jittervan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("jittervan")
    if Path(module.__file__).resolve().parent != SRC / "jittervan":
        raise MissingLibrary(f"jittervan was imported from {module.__file__}, not {SRC}")
    return module


def worker_env() -> dict[str, str]:
    """Environment for worker processes: pinned BLAS and library threads."""
    env = dict(os.environ)
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    env["JITTERVAN_THREADS"] = "1"
    return env


def _blas_runtime_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if its library can be found."""
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def library_environment() -> dict:
    """Versions and BLAS of the running process; call after numpy is loaded."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )


def host_environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_lines": src_lines(),
    }
