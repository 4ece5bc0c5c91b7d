"""What a result was measured on: threads, BLAS, versions and the code."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _commit(root: Path) -> str:
    """`git rev-parse HEAD` of the checkout; "unknown" when it is no repository."""
    try:
        out = subprocess.run(["git", f"--git-dir={root / '.git'}", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:  # no git on the machine
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_record(root: Path) -> dict:
    """Thread variables as found (never set here), BLAS, nproc, versions, code."""
    import numpy as np
    import scipy
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "numpy_blas": {k: deps.get(k, {}) for k in ("blas", "lapack")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": _commit(root),
    }
