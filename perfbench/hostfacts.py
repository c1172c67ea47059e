"""Host and configuration facts recorded with every benchmark result."""

import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

# BLAS and LAPACK run with one thread.  On a host of a few shared cores a
# second BLAS thread does not pay: after each call OpenBLAS's idle worker
# spins on the other core while the single Python thread assembles the
# next matrix.  On a 2-vCPU Xeon VM the SVD of an n = 158 galerkin sweep
# took 50-240 ms with two threads and 50-80 ms with one.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
THREAD_VARS = BLAS_THREAD_VARS + ("NUMEXPR_NUM_THREADS", "MINMOD_THREADS")


def pin_blas_threads():
    """Set one BLAS thread for this process and its children; must run
    before numpy is imported, or the process keeps numpy's default."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was set")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_lapack() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"blas": "unknown", "lapack": "unknown"}
    return {
        k: f"{deps.get(k, {}).get('name', 'unknown')} {deps.get(k, {}).get('version', '')}".strip()
        for k in ("blas", "lapack")
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout at ``root``, or 'unknown' outside a git checkout."""
    if not (root / ".git").exists():  # never report the commit of an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_facts(root: Path) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_lapack(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(root),
        # Jobs run closed-loop from one client: at most one child process at a
        # time, and MINMOD_THREADS is removed from the children's environment,
        # so galerkin_sweep always runs with threads=1.
        "minmod_threads": "unset (galerkin_sweep threads=1)",
        "max_child_processes": 1,
    }


SPEED_PROBES = 5


def speed_probe() -> dict:
    """Median times in ms of two fixed kernels that use no dttokit code.

    Taken before and after the measured pass, they show how fast the host
    ran at the time, so a change of a metric between runs can be told
    apart from a change of the host's speed.  They correct nothing.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((400, 200)) * (1 + 1j)
    loop, svd = [], []
    for _ in range(SPEED_PROBES):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        t1 = time.perf_counter()
        np.linalg.svd(a, compute_uv=False)
        t2 = time.perf_counter()
        loop.append(t1 - t0)
        svd.append(t2 - t1)
    return {"python_loop_ms": 1e3 * sorted(loop)[SPEED_PROBES // 2], "svd_400x200_ms": 1e3 * sorted(svd)[SPEED_PROBES // 2]}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict:
    """Cumulative import time in seconds of numpy and every dttokit module."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and (m.group(4) == "numpy" or m.group(4).split(".")[0] == "dttokit"):
            out[m.group(4)] = int(m.group(2)) * 1e-6
    return out


IMPORT_PROBES = 5


def import_times(env: dict, root: Path) -> dict:
    """Median per-module cumulative times of ``import dttokit`` in fresh children."""
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dttokit"],
            env=env, cwd=root, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import dttokit failed: {proc.stderr[-500:]}")
        runs.append(parse_importtime(proc.stderr))
    names = sorted(set().union(*runs))
    return {n: sorted(r.get(n, 0.0) for r in runs)[len(runs) // 2] for n in names}
