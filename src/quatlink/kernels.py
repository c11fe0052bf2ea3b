"""The package's C kernels: one source, one build, one loader.

`_kernels.c` holds both compiled functions: `qlms_batch`, behind
`adaptive.run_qlms_batch`, and `mimo_fir`, behind `channel.mimo_convolve`.
`library` compiles it with the system's `cc` on first use into
`__pycache__`, as a shared library named by a checksum of the source and
the build command, and loads it through `ctypes`.  Each module that calls
one of its functions declares that function's arguments.  The build has no
floating-point contraction or reassociation, so the bits do not depend on
the CPU it runs on.
"""

import ctypes
import functools
import os
import tempfile
import zlib
from pathlib import Path

from .errors import KernelBuildError

_SOURCE = Path(__file__).with_name("_kernels.c")
# The command that builds the shared library, less its output and source.
# No contraction (FMA) or reassociation, so that every SIMD width the
# source's target clones pick rounds the same.
_COMPILE = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared")


def _build(path: Path) -> None:
    """Compile the library into `path` through a temporary file renamed into
    place, so processes that build at once each leave a whole library."""
    import subprocess  # only a build needs it

    path.parent.mkdir(exist_ok=True)
    fd, temporary = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        try:
            done = subprocess.run([*_COMPILE, "-o", temporary, str(_SOURCE)], capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(f"cannot run the C compiler {_COMPILE[0]!r}: {exc.strerror}") from None
        if done.returncode:
            last = (done.stderr.strip().splitlines() or ["no message"])[-1]
            raise KernelBuildError(f"the C compiler {_COMPILE[0]!r} failed with status {done.returncode}: {last}")
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


@functools.cache
def library() -> ctypes.CDLL:
    """The shared library, built on first use if no process has built this source with this command."""
    key = zlib.crc32(_SOURCE.read_bytes() + " ".join(_COMPILE).encode())
    path = _SOURCE.with_name("__pycache__") / f"{_SOURCE.stem}-{key:08x}.so"
    if not path.exists():
        _build(path)
    return ctypes.CDLL(str(path))
