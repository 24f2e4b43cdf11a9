"""Re-run the pinned tracker tests and both tracker reference properties per OpenBLAS kernel.

BLAS results can differ in the last bits between kernels, which
``OPENBLAS_CORETYPE`` selects per process. Tracker output must not, so
`tests/test_association.py -k "pinned or pair_reference or scalar_reference"`
must pass under every kernel: the pinned digests, the offline tracker's
window-wide affinity against the per-keyframe-pair reference, and the online
tracker's cost from stacked rows against the scalar per-pair reference. This
script runs it once per kernel, one subprocess at a time, prints one line per
kernel (with the core OpenBLAS reports it loaded, or ``?`` where that cannot
be read) and exits 1 if any run fails.

    python tools/check_blas_kernels.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
KERNELS = (None, "Prescott", "Nehalem", "Sandybridge", "Haswell", "SkylakeX", "Zen")
PYTEST = (
    sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
    "tests/test_association.py", "-k", "pinned or pair_reference or scalar_reference",
)
# Asks numpy's bundled OpenBLAS which core it picked; prints "?" where the symbol is missing.
CORENAME = """
import ctypes, glob, os, numpy
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
found = glob.glob(os.path.join(libs, "*openblas*"))
name = "?"
for path in found:
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        get = getattr(ctypes.CDLL(path), symbol, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            name = get().decode()
print(name)
"""


def run(kernel: str | None) -> tuple[bool, str, str]:
    """(passed, loaded core, pytest's last line) with OPENBLAS_CORETYPE set to ``kernel``."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    core = subprocess.run(
        (sys.executable, "-c", CORENAME), cwd=REPO, env=env, capture_output=True, text=True
    )
    tests = subprocess.run(PYTEST, cwd=REPO, env=env, capture_output=True, text=True)
    lines = tests.stdout.strip().splitlines() or ["(no output)"]
    return tests.returncode == 0, core.stdout.strip() or "?", lines[-1]


def main() -> int:
    failed = 0
    for kernel in KERNELS:
        passed, core, summary = run(kernel)
        failed += not passed
        label = kernel or "unset"
        status = "ok  " if passed else "FAIL"
        print(f"{status} OPENBLAS_CORETYPE={label:<11} core={core:<11} {summary}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
