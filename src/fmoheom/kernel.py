"""Build and load the compiled HEOM step kernel, `_kernel.c`.

The source is compiled with the system C compiler the first time this
module is imported in an environment, and loaded with ctypes:

    cc -O3 -march=native -shared -fPIC -o _kernel-KEY.so _kernel.c

The library is cached in ${XDG_CACHE_HOME:-~/.cache}/fmoheom/, where
KEY hashes the source's bytes, COMPILER, FLAGS and the CPU identity
(`cpu_identity`): a build for one CPU is never loaded on another, and
checkouts of one source share a build. A relative XDG_CACHE_HOME is
ignored, as the XDG Base Directory spec asks. Old builds are never removed. A
build is written to a temporary file and moved into place, so concurrent
first imports each see either no library or a complete one. ImportError
names the command when the compiler is missing or fails, and the directory
when the cache cannot be created or written.

`load` declares the argument and result types of the library's three
functions: heom_rhs(count, h, r, tables, a, b, gamma, q, out) and
heom_step, the integrator's passes, and hierarchy_tables(count, sites,
depth, binom, tables), the builder of `fmoheom.hierarchy`, with `tables`
the hierarchy's one int32 block (`bind` checks the arrays heom_rhs
follows). N_SITES, the site count heom_rhs is compiled for, is read from
the library.
"""

import ctypes
import hashlib
import os
import platform
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


def bind(count, h, r, tables, a, b, gamma):
    """The constant leading arguments of `heom_rhs`: count, the addresses of
    h = Im X (N_SITES x N_SITES float64) and of the trap rates r (N_SITES
    float64), so that X = i h - diag(r), and of the hierarchy's int32
    (3, count, N_SITES) tables, the planes n, down and up (neighbour ranks,
    -1 for none), then the bath coefficients a, b and gamma of
    `fmoheom.heom`. The caller keeps the arrays alive."""
    def out_of_range(ranks):
        return ranks.min(initial=-1) < -1 or ranks.max(initial=-1) >= count

    ptrs = (check("h", h, np.float64, (N_SITES, N_SITES)),
            check("r", r, np.float64, (N_SITES,)),
            check("tables", tables, np.int32, (3, count, N_SITES)))
    if out_of_range(tables[1:]):  # both planes at once; name the first bad one
        name = "down" if out_of_range(tables[1]) else "up"
        raise ValueError(f"{name} ranks must lie in -1..{count - 1}")
    return (count, *ptrs, a, b, gamma)


def cache_dir():
    base = Path(os.environ.get("XDG_CACHE_HOME", ""))
    return (base if base.is_absolute() else Path.home() / ".cache") / "fmoheom"


def cpu_identity():
    """Machine type plus the lines of /proc/cpuinfo that name the CPU and its
    features: model name and flags on x86, Features, CPU implementer and
    CPU part on arm64."""
    lines = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key = line.split(":", 1)[0].strip()
                if key in ("model name", "flags", "Features", "CPU implementer",
                           "CPU part"):
                    lines.append(line)
                if not line.strip():  # the first processor is enough
                    break
    except OSError:
        pass
    return "".join(lines)


def build(directory=None):
    """Path of the compiled library in `directory`, compiling it if absent."""
    directory = Path(directory or cache_dir())
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join(["", COMPILER, *FLAGS, cpu_identity()]).encode())
    library = directory / f"_kernel-{key.hexdigest()[:16]}.so"
    if library.exists():
        return library
    # Only a compile needs these; a warm cache spares every process the import.
    import subprocess
    import tempfile
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
    except OSError as exc:
        raise ImportError(f"fmoheom cannot write its kernel cache in {directory}; "
                          f"set XDG_CACHE_HOME to a writable directory: {exc}") from exc
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
    lib.heom_rhs.argtypes = [long_, ptr, ptr, ptr, double, double, double, ptr, ptr]
    lib.heom_rhs.restype = None
    lib.heom_step.argtypes = [long_, ptr, double, double, ctypes.POINTER(ptr)]
    lib.heom_step.restype = double
    lib.hierarchy_tables.argtypes = [long_, long_, long_, ptr, ptr]
    lib.hierarchy_tables.restype = None
    return lib


LIB = load()
# The site count the compiled heom_rhs reads, which bind checks against.
N_SITES = ctypes.c_long.in_dll(LIB, "heom_sites").value
