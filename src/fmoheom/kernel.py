"""Build and load the compiled HEOM step kernel, `_kernel.c`.

The source is compiled with the system C compiler the first time this
module is imported in an environment, and loaded with ctypes:

    cc -O3 -march=native -shared -fPIC -o <library> _kernel.c

The library is cached in ${XDG_CACHE_HOME:-~/.cache}/fmoheom/ under a
name that hashes the source, the compile command and the CPU identity
(`cpu_identity`), so a build for one CPU is never loaded on another.
It is written to a temporary file and moved into place, so concurrent
first imports each see either no library or a complete one. A missing
or failing compiler raises ImportError naming the command.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILER = "cc"
FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")


class Operator(ctypes.Structure):
    """`heom_op` of `_kernel.c`: the constant arrays of one propagator."""

    _fields_ = [("count", ctypes.c_long), ("x", ctypes.c_void_p),
                ("indptr", ctypes.c_void_p), ("indices", ctypes.c_void_p),
                ("r", ctypes.c_void_p)]


def bind(count, x, indptr, indices, data):
    """Pointer to the `heom_op` of one propagator, after checking its arrays.

    `x` (7 x 7) and `data` are C-contiguous complex128, `indptr` (one
    entry per row plus one) and `indices` C-contiguous int32 in CSR form
    over count * 7 rows. The caller keeps every array alive as long as the
    pointer is used.
    """
    rows = count * 7
    for name, a, dtype in (("x", x, np.complex128), ("indptr", indptr, np.int32),
                           ("indices", indices, np.int32), ("data", data, np.complex128)):
        if a.dtype != dtype or not a.flags.c_contiguous:
            raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype)} array")
    if (x.shape != (7, 7) or indptr.shape != (rows + 1,) or indptr[0] != 0
            or np.any(np.diff(indptr) < 0) or indices.shape != data.shape
            or indices.shape != (indptr[-1],)
            or (indices.size and not 0 <= indices.min() <= indices.max() < rows)):
        raise ValueError(f"x must be 7 x 7 and (indptr, indices, data) CSR over "
                         f"{rows} rows and columns")
    return ctypes.pointer(Operator(count, x.ctypes.data, indptr.ctypes.data,
                                   indices.ctypes.data, data.ctypes.data))


def cache_dir():
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "fmoheom"


def cpu_identity():
    """Machine type plus the model name and flags lines of /proc/cpuinfo."""
    lines = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key = line.split(":", 1)[0].strip()
                if key in ("model name", "flags"):
                    lines.append(line)
                if not line.strip():  # the first processor is enough
                    break
    except OSError:
        pass
    return "".join(lines)


def build(directory=None):
    """Path of the compiled library in `directory`, compiling it if absent."""
    directory = Path(directory or cache_dir())
    # The key holds the command with its two paths as placeholders: the
    # source is hashed by content, so every checkout shares one build.
    command = [COMPILER, *FLAGS, "-o", "<library>", "<source>"]
    key = hashlib.sha256("\0".join(
        [SOURCE.read_text(), " ".join(command), cpu_identity()]).encode())
    library = directory / f"_kernel-{key.hexdigest()[:16]}.so"
    if library.exists():
        return library
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
    os.close(fd)
    command[-3:] = ["-o", tmp, str(SOURCE)]
    try:
        subprocess.run(command, check=True, capture_output=True, text=True)
        os.replace(tmp, library)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        raise ImportError(f"fmoheom needs a C compiler to build its HEOM kernel; "
                          f"`{' '.join(command)}` failed: {detail}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return library


def load():
    """The kernel library with its argument and result types declared."""
    lib = ctypes.CDLL(str(build()))
    ptr, long_, double = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.heom_rhs.argtypes = [ctypes.POINTER(Operator), ptr, ptr]
    lib.heom_rhs.restype = None
    lib.heom_stage.argtypes = [long_, ctypes.c_int, ptr, double, ptr, ptr, ptr]
    lib.heom_stage.restype = None
    lib.heom_error_norm.argtypes = [long_, ptr, double, double, double, ptr, ptr, ptr]
    lib.heom_error_norm.restype = double
    return lib


LIB = load()
