"""Build and load the compiled HEOM step kernel, `_kernel.c`.

The source is compiled with the system C compiler the first time this
module is imported in an environment, and loaded with ctypes:

    cc -O3 -march=native -shared -fPIC -o _kernel-KEY.so _kernel.c

The library is cached in ${XDG_CACHE_HOME:-~/.cache}/fmoheom/, where
KEY hashes the source, COMPILER, FLAGS and the CPU identity
(`cpu_identity`): a build for one CPU is never loaded on another, and
checkouts of one source share a build. Old builds are never removed. A
build is written to a temporary file and moved into place, so concurrent
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


def check(name, array, dtype, shape):
    """Address of `array`, or ValueError naming it unless it is a C-contiguous
    numpy array of exactly `dtype` and `shape`."""
    if not (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.shape == shape and array.flags.c_contiguous):
        raise ValueError(
            f"{name} must be a C-contiguous {np.dtype(dtype)} array of shape "
            f"{shape}, got {getattr(array, 'dtype', type(array))} "
            f"{getattr(array, 'shape', '')}")
    return array.ctypes.data


def bind(count, x, indptr, indices, data):
    """The constant leading arguments of `heom_rhs`: count, then the addresses
    of X (7 x 7 complex128) and of R' in CSR over count * 7 rows (int32
    `indptr` and `indices`, complex128 `data`). The caller keeps the arrays
    alive while the addresses are used."""
    rows = count * 7
    x_ptr = check("x", x, np.complex128, (7, 7))
    indptr_ptr = check("indptr", indptr, np.int32, (rows + 1,))
    if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must start at 0 and never decrease")
    nnz = (int(indptr[-1]),)
    indices_ptr = check("indices", indices, np.int32, nnz)
    data_ptr = check("data", data, np.complex128, nnz)
    if indices.size and not 0 <= indices.min() <= indices.max() < rows:
        raise ValueError(f"indices must lie in 0..{rows - 1}, the columns of "
                         f"CSR over {rows} rows")
    return count, x_ptr, indptr_ptr, indices_ptr, data_ptr


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
    key = hashlib.sha256("\0".join(
        [SOURCE.read_text(), COMPILER, *FLAGS, cpu_identity()]).encode())
    library = directory / f"_kernel-{key.hexdigest()[:16]}.so"
    if library.exists():
        return library
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
    os.close(fd)
    command = [COMPILER, *FLAGS, "-o", tmp, str(SOURCE)]
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
    # heom_rhs(count, x, indptr, indices, r, q, out)
    lib.heom_rhs.argtypes = [long_, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.heom_rhs.restype = None
    lib.heom_stage.argtypes = [long_, ctypes.c_int, ptr, double, ptr, ptr, ptr]
    lib.heom_stage.restype = None
    lib.heom_error_norm.argtypes = [long_, ptr, double, double, double, ptr, ptr, ptr]
    lib.heom_error_norm.restype = double
    return lib


LIB = load()
