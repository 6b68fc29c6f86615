"""Child processes under another OpenBLAS kernel.

numpy's OpenBLAS, when it is built ``DYNAMIC_ARCH``, picks its kernels for
the CPU when it loads, and ``OPENBLAS_CORETYPE`` overrides the pick.  The
panels and the dense output sum each lane with an OpenBLAS dot, so their
bits depend on that kernel as well as on numpy's own SIMD kernels.
"""

import os
import subprocess
import sys

import numpy as np


def dynamic_arch() -> bool:
    """Whether numpy's OpenBLAS picks its kernels when it loads."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def run(code: str, coretype: str | None = None, **env):
    """Run ``code`` in a child Python, under the kernels of ``coretype``
    (OpenBLAS's own pick for None), with ``env`` added to the environment.
    Returns the finished process; one that fails raises
    CalledProcessError."""
    env = {**os.environ, **env}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )


def core(coretype: str | None = None) -> str:
    """The core whose kernels OpenBLAS loads in a child under ``coretype``,
    as it reports it under OPENBLAS_VERBOSE=2."""
    err = run("import numpy", coretype, OPENBLAS_VERBOSE="2").stderr
    return "\n".join(line for line in err.splitlines() if line.startswith("Core:"))
