"""The package's C kernels: one source, one build, one loader.

`_kernels.c` holds the five compiled functions: `qlms_batch`, behind
`adaptive.run_qlms_batch`; `mimo_fir`, behind `channel.mimo_convolve`;
`block_moments`, which writes the Wiener statistics R and p of
`wiener.estimate_statistics`; and `wiener_solve` and `wiener_cost`, which
solve the block Wiener optimum through an LDL^H factorization and score it,
one run at a time, behind `wiener.solve_wiener` and `wiener.statistics_mse`.
`library` compiles it with the system's `cc` on first use into
`__pycache__`, as a shared library named by a checksum of the source and the
build command (`_COMPILE`, which also defines the source's `LANES`), and
loads it through `ctypes` (`_load`), which declares every function's
arguments and its `c_int` status once, from one table (`_ARGUMENTS`): a
nonzero status, a failed allocation, raises `MemoryError`.  A cache
directory the library cannot be written into raises `KernelBuildError`, as a
failed build does.  The build has no floating-point contraction or
reassociation, so the bits do not depend on the CPU it runs on.  `in_place`
is the one rule for when a function reads an array in place through its
strides.
"""

import contextlib
import ctypes
import functools
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .errors import KernelBuildError

_SOURCE = Path(__file__).with_name("_kernels.c")
# lanes per group of `qlms_batch` and `block_moments`; the build defines the source's LANES
LANES = 8
# The command that builds the shared library, less its output and source.
# No contraction (FMA) or reassociation, so that every SIMD width the
# source's target clones pick rounds the same.
_COMPILE = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared", f"-DLANES={LANES}")

_I64, _FLOATS = ctypes.c_int64, np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_STRIDED = np.ctypeslib.ndpointer(np.float64, flags="ALIGNED")  # read through the strides passed with it
# each function's arguments, in the order `_kernels.c` declares them
_ARGUMENTS = {
    "qlms_batch": [
        _STRIDED, _I64, _I64, np.ctypeslib.ndpointer(flags="C_CONTIGUOUS"), ctypes.c_int,  # int8, or int64 if `wide`
        _FLOATS, _I64, _I64, _I64, _I64, _I64, ctypes.c_double, _I64, ctypes.c_double,
        _FLOATS, _FLOATS, np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),
    ],
    "mimo_fir": [_STRIDED, _I64, _I64, _FLOATS, _I64, _I64, _I64, _I64, _I64, _FLOATS],
    "block_moments": [_STRIDED, _I64, _I64, _STRIDED, _I64, _I64, _I64, _I64, _I64, _I64, _FLOATS, _FLOATS],
    "wiener_solve": [_FLOATS, _FLOATS, _FLOATS, _I64, _I64, ctypes.c_double, _FLOATS, _FLOATS,
                     np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS")],
    "wiener_cost": [_FLOATS, _FLOATS, _FLOATS, _I64, _I64, _FLOATS],
}  # fmt: skip


def in_place(array: np.ndarray) -> np.ndarray:
    """`array` if its last two axes are aligned contiguous quaternions, which the C
    functions read in place through the strides of the other axes; else a contiguous copy."""
    return array if array.strides[-2:] == (32, 8) and array.flags.aligned else np.ascontiguousarray(array)


def _build(path: Path) -> None:
    """Compile the library into `path` through a temporary file renamed into
    place, so processes that build at once each leave a whole library."""
    import subprocess  # only a build needs it

    try:
        path.parent.mkdir(exist_ok=True)
        fd, temporary = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    except OSError as exc:
        raise KernelBuildError(f"cannot write the library into {str(path.parent)!r}: {exc.strerror}") from None
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


def _check(status: int, function, arguments) -> int:
    """The `errcheck` of every function: each returns nonzero only when it cannot allocate its buffers."""
    if status:
        raise MemoryError(f"the C kernel {function.__name__} cannot allocate its buffers")
    return status


def _load(path) -> ctypes.CDLL:
    """The library at `path`, with every function's arguments, status and `errcheck` declared."""
    lib = ctypes.CDLL(str(path))
    for name, arguments in _ARGUMENTS.items():
        function = getattr(lib, name)
        function.argtypes, function.restype, function.errcheck = arguments, ctypes.c_int, _check
    return lib


@functools.cache
def library() -> ctypes.CDLL:
    """The shared library, built on first use if no process has built this source with this command.

    A build removes the cache's other libraries, which older sources or commands left.
    """
    key = zlib.crc32(_SOURCE.read_bytes() + " ".join(_COMPILE).encode())
    path = _SOURCE.with_name("__pycache__") / f"{_SOURCE.stem}-{key:08x}.so"
    if not path.exists():
        _build(path)
        # builds of an older source or command; a `.tmp` that another process is building is no `.so`
        for stale in set(path.parent.glob(f"{_SOURCE.stem}-*.so")) - {path}:
            with contextlib.suppress(OSError):  # another process removed it first
                stale.unlink()
    return _load(path)
