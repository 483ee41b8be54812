"""The compiled kernel: its build cache, its ctypes declarations, its step
pass against numpy, and the polynomial form of the Dormand-Prince step
against the exact stage tableau."""

import ctypes
import io
import math
import os
import platform
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import RK45

from fmoheom import kernel
from fmoheom.heom import _ERROR, _Y_NEW
from fmoheom.model import N_SITES

SRC = Path(kernel.__file__).resolve().parents[1]


def random_states(rng, count, n=1):
    """Random real states whose entries span twelve decades."""
    shape = (n, count, 7, 7)
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-12, 0, size=shape)


def numpy_error_norm(y, y_new, err, atol, rtol):
    """RMS of the error estimate err over atol + rtol max(|zeta|, |zeta_new|)."""
    scale = np.maximum(np.hypot(y, y.transpose(0, 2, 1)),
                       np.hypot(y_new, y_new.transpose(0, 2, 1)))
    scale = scale * (rtol / math.sqrt(2.0)) + atol
    return math.sqrt(np.mean((err / scale) ** 2))


def addresses(s):
    """The states y, w_1..w_7 as the array of addresses the kernel takes."""
    return (ctypes.c_void_p * 8)(*(b.ctypes.data for b in s))


def weights(coefficients, h):
    """The coefficients c_i of h^i w_i times h^i, i = 1, 2, ..."""
    return coefficients * h ** np.arange(1, coefficients.size + 1)


def step(count, h, atol, rtol, y, w):
    """heom_step as run() calls it, with the weights of h^i w_i: y_new into
    w_7's buffer, f(y_new) into w_6's; returns the error norm."""
    terms = np.concatenate([weights(_Y_NEW, h), weights(_ERROR, h)])
    return kernel.LIB.heom_step(count, terms.ctypes.data, atol, rtol,
                                addresses([y, *w]))


@pytest.mark.parametrize("count", [1, 36, 330])
@pytest.mark.parametrize("h,atol,rtol", [(0.01, 1e-10, 1e-8), (3.0, 1e-13, 1e-11)])
def test_error_norm_matches_numpy(count, h, atol, rtol):
    rng = np.random.default_rng(count)
    y = random_states(rng, count)[0]
    w = [*random_states(rng, count, 7)]
    y_new = y + np.tensordot(weights(_Y_NEW, h), w[:6], axes=1)
    err = np.tensordot(weights(_ERROR, h), w, axes=1)
    norm = step(count, h, atol, rtol, y, w)
    assert norm == pytest.approx(numpy_error_norm(y, y_new, err, atol, rtol),
                                 rel=1e-14, abs=0)


@pytest.mark.parametrize("count", [1, 330])
def test_update_matches_numpy(count):
    # 330 nodes are 16 170 doubles, which no power-of-two block divides.
    rng = np.random.default_rng(count)
    y = random_states(rng, count)[0]
    w = [*random_states(rng, count, 7)]
    before = [y.copy(), *(wj.copy() for wj in w)]
    h = 0.37
    c = weights(_Y_NEW, h)
    y_new = y + np.tensordot(c, w[:6], axes=1)
    f_new = w[0] + np.tensordot(c, w[1:], axes=1)
    y_terms = np.abs(y) + np.tensordot(np.abs(c), np.abs(w[:6]), axes=1)
    f_terms = np.abs(w[0]) + np.tensordot(np.abs(c), np.abs(w[1:]), axes=1)
    step(count, h, 1e-10, 1e-8, y, w)
    assert np.all(np.abs(w[6] - y_new) <= 1e-14 * y_terms)
    assert np.all(np.abs(w[5] - f_new) <= 1e-14 * f_terms)
    # A rejected attempt recomputes the chain from the untouched w_1 = f(y).
    for now, then in zip([y, *w[:5]], before):
        assert np.array_equal(now, then)


@pytest.mark.parametrize("count", [1, 36])
def test_step_commutes_with_conjugation(count):
    # zeta -> zeta* is Q -> Q^T in every node. RK45's error norm on the
    # complex state does not see it, and the pass sums each pair's squares
    # in a form that swapping them leaves unchanged, so the norm is the same
    # float; y_new and f(y_new) come back transposed. Entries of one scale
    # make every pair count in the sum; a sum whose rounding depends on the
    # order of a pair differs within a few of these draws.
    for seed in range(50):
        y, *w = np.random.default_rng(seed).normal(size=(8, count, 7, 7))
        yt, *wt = (np.ascontiguousarray(x.transpose(0, 2, 1)) for x in [y, *w])
        norm = step(count, 0.37, 1e-10, 1e-8, y, w)
        assert step(count, 0.37, 1e-10, 1e-8, yt, wt) == norm, seed
        assert np.array_equal(wt[6], w[6].transpose(0, 2, 1))
        assert np.array_equal(wt[5], w[5].transpose(0, 2, 1))


def test_load_declares_every_exported_function():
    # Without a restype ctypes reads a double result as an int, and without
    # argtypes it passes Python floats wrongly; neither raises.
    source = kernel.SOURCE.read_text()
    results = {"void": None, "double": ctypes.c_double}
    exported = re.findall(r"^(?!static)(\w+) (\w+)\(([^)]*)\)\s*\{", source,
                          re.MULTILINE)
    assert sorted(name for _, name, _ in exported) == ["heom_rhs", "heom_step"]
    for result, name, params in exported:
        function = getattr(kernel.LIB, name)
        assert function.restype is results[result], name
        assert function.argtypes is not None, name
        assert len(function.argtypes) == len(params.split(",")), name


def test_source_has_the_model_site_count():
    # bind checks every array against N_SITES; the kernel reads N.
    defines = re.findall(r"^#define N (\d+)", kernel.SOURCE.read_text(), re.MULTILINE)
    assert defines == [str(N_SITES)]


def _rational(rows):
    """Rows of space-separated fractions such as "-56/15" as lists of Fraction."""
    return [[Fraction(x) for x in row.split()] for row in rows.strip().splitlines()]


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.5),
# exact. Row s - 1 of _A gives stage s from stages 0..s-1, stage 0 being
# f(y); the last row is the fifth-order solution, whose derivative is
# stage 6 and the first stage of the next step (FSAL). _E is the fifth-
# minus fourth-order weight over all seven stages.
_A = _rational("""
    1/5
    3/40        9/40
    44/45       -56/15       32/9
    19372/6561  -25360/2187  64448/6561  -212/729
    9017/3168   -355/33      46732/5247  49/176    -5103/18656
    35/384      0            500/1113    125/192   -2187/6784   11/84
""")
_E = _rational("-71/57600 0 71/16695 -71/1920 17253/339200 -22/525 1/40")[0]


def step_polynomials():
    """One Dormand-Prince step for y' = L y as polynomials in z = hL, exact.

    Returns (y_new, error): y_new[i] and error[i] are the coefficients of
    z^i y, i = 0..7, in the fifth-order solution and in the error estimate
    h sum_s E_s k_s.
    """
    k = []  # h k_s as the coefficients of z^0..z^7 y
    for row in [[], *_A]:
        state = [int(i == 0) + sum(a * kj[i] for a, kj in zip(row, k))
                 for i in range(8)]
        k.append([Fraction(0), *state[:7]])
    y_new = state  # the state of stage 6, from the last row of _A
    error = [sum(e * kj[i] for e, kj in zip(_E, k)) for i in range(8)]
    return y_new, error


def test_step_polynomials_are_the_closed_forms():
    # The kernel's coefficients, derived exactly from the stage tableau:
    # every float `run` hands the compiled pass is the nearest float to
    # the exact coefficient.
    y_new, error = step_polynomials()
    F = Fraction
    assert y_new == [1, 1, F(1, 2), F(1, 6), F(1, 24), F(1, 120), F(1, 600), 0]
    assert error == [0, 0, 0, 0, 0, F(97, 120000), F(-13, 40000), F(1, 24000)]
    assert all(isinstance(x, Fraction) for x in [*y_new, *error])
    assert list(_Y_NEW) == [float(x) for x in y_new[1:7]]
    assert list(_ERROR) == [float(x) for x in error[1:]]


def test_polynomial_step_reproduces_the_stage_form():
    # scipy's RK45 tableau, stage by stage, on a random linear generator
    # against the chain w_i = L^i y: the fifth-order solution and the error
    # estimate.
    rng = np.random.default_rng(7)
    gen = rng.normal(size=(5, 5)) / 3.0
    y = rng.normal(size=5)
    h = 0.7
    k = np.empty((7, 5))
    k[0] = gen @ y
    for s in range(1, 6):
        k[s] = gen @ (y + h * (RK45.A[s, :s] @ k[:s]))
    y5 = y + h * (RK45.B @ k[:6])
    k[6] = gen @ y5
    hw = np.stack([h ** i * np.linalg.matrix_power(gen, i) @ y for i in range(1, 8)])
    np.testing.assert_allclose(y + _Y_NEW @ hw[:6], y5, rtol=0, atol=1e-14)
    np.testing.assert_allclose(_ERROR @ hw, h * (RK45.E @ k), rtol=0, atol=1e-15)


def test_source_compiles_without_warnings():
    # -Wextra flags a parameter left unused by a signature change. -Wpsabi
    # only notes that 8-double vectors pass differently without AVX-512,
    # which no static helper's caller outside this file can see.
    result = subprocess.run([kernel.COMPILER, "-fsyntax-only", "-Wall", "-Wextra",
                             "-Werror", "-Wno-psabi", str(kernel.SOURCE)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _import_fmoheom(cache):
    env = {**os.environ, "XDG_CACHE_HOME": str(cache), "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", "import fmoheom"], env=env,
                   check=True, capture_output=True, timeout=120)
    return sorted((cache / "fmoheom").iterdir())


def test_cli_import_loads_no_exact_arithmetic():
    # `heom` writes the step coefficients out as floats. Deriving them at
    # import with fractions, which imports decimal, costs every process
    # about 0.4 MB of peak RSS.
    code = ("import sys, fmoheom.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True, timeout=120)
    assert result.stdout.strip() == "[]"


def test_first_import_builds_one_library_then_reuses_it(tmp_path):
    first = _import_fmoheom(tmp_path)
    assert len(first) == 1 and first[0].suffix == ".so"
    mtime = first[0].stat().st_mtime_ns
    assert _import_fmoheom(tmp_path) == first
    assert first[0].stat().st_mtime_ns == mtime


def test_library_name_depends_on_the_cpu(tmp_path, monkeypatch):
    here = kernel.build(tmp_path)
    monkeypatch.setattr(kernel, "cpu_identity", lambda: "another cpu")
    there = kernel.build(tmp_path)
    assert here != there
    assert sorted(tmp_path.iterdir()) == sorted([here, there])


ARM64_CPUINFO = ("processor\t: 0\nBogoMIPS\t: 50.00\n"
                 "Features\t: fp asimd evtstrm aes pmull sha1 sha2 crc32 atomics\n"
                 "CPU implementer\t: 0x41\nCPU architecture: 8\n"
                 "CPU variant\t: 0x3\nCPU part\t: {part}\nCPU revision\t: 1\n"
                 "\nprocessor\t: 1\n")


def test_cpu_identity_tells_arm64_cores_apart(monkeypatch):
    # An arm64 cpuinfo has no model name or flags line: CPU implementer
    # and CPU part name the core type.
    def identity(part):
        text = ARM64_CPUINFO.format(part=part)
        monkeypatch.setattr(kernel, "open", lambda *_: io.StringIO(text),
                            raising=False)
        return kernel.cpu_identity()

    assert identity("0xd0c") != identity("0xd40")
    assert "CPU part\t: 0xd0c" in identity("0xd0c")


def test_cpu_identity_without_cpuinfo(tmp_path, monkeypatch):
    # Without a readable /proc/cpuinfo the machine type alone names the CPU.
    def unreadable(*_):
        raise OSError("no cpuinfo")

    monkeypatch.setattr(kernel, "open", unreadable, raising=False)
    assert kernel.cpu_identity() == platform.machine()
    assert kernel.build(tmp_path).suffix == ".so"


def test_missing_compiler_names_the_command(tmp_path, monkeypatch):
    monkeypatch.setattr(kernel, "COMPILER", "no-such-cc")
    with pytest.raises(ImportError, match="`no-such-cc -O3 -march=native -shared -fPIC -o "):
        kernel.build(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_bind_checks_the_arrays():
    # Im X = H^T of the model is symmetric, so a transposed h would go
    # unseen by every RHS test; bind refuses it. Each array is refused
    # before any address reaches the kernel.
    h, r = np.zeros((7, 7)), np.zeros(7)
    n = np.array([[0] * 7, [1] + [0] * 6])
    down = np.array([[-1] * 7, [0] + [-1] * 6])
    up = np.array([[1] + [-1] * 6, [-1] * 7])
    args = kernel.bind(2, h, r, n, down, up, 3.0, 2.0, 0.5)
    assert args[0] == 2 and args[-3:] == (3.0, 2.0, 0.5)
    with pytest.raises(ValueError, match="h must be a C-contiguous float64"):
        kernel.bind(2, np.asfortranarray(h + np.eye(7, k=1)), r, n, down, up,
                    1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="h must be a C-contiguous float64"):
        kernel.bind(2, h.astype(complex), r, n, down, up, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"h must be .* of shape \(7, 7\)"):
        kernel.bind(2, h[:6].copy(), r, n, down, up, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="r must be a C-contiguous float64"):
        kernel.bind(2, h, r.astype(np.float32), n, down, up, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"r must be .* of shape \(7,\)"):
        kernel.bind(2, h, np.zeros((7, 1)), n, down, up, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="down must be a C-contiguous int64"):
        kernel.bind(2, h, r, n, down.astype(np.int32), up, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"n must be .* of shape \(3, 7\)"):
        kernel.bind(3, h, r, n, down, up, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"up must be .* of shape \(2, 7\)"):
        kernel.bind(2, h, r, n, down, up[:, :6].copy(), 1.0, 0.0, 1.0)
    for rank in (2, -2):
        bad = up.copy()
        bad[0, 3] = rank
        with pytest.raises(ValueError, match=r"up ranks must lie in -1\.\.1"):
            kernel.bind(2, h, r, n, down, bad, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"down ranks must lie in -1\.\.1"):
            kernel.bind(2, h, r, n, bad, up, 1.0, 0.0, 1.0)
