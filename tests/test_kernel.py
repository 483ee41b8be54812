"""The compiled kernel: its build cache, and its stage sum and error norm
against the numpy formulas they replace."""

import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fmoheom import kernel
from fmoheom.heom import _A, _E

SRC = Path(kernel.__file__).resolve().parents[1]


def random_states(rng, count, n=1):
    """Random real states whose entries span twelve decades."""
    shape = (n, count, 7, 7)
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-12, 0, size=shape)


def numpy_error_norm(y, y_new, k, h, atol, rtol):
    """RMS of h sum_j E_j k_j over atol + rtol max(|zeta|, |zeta_new|)."""
    scale = np.maximum(np.hypot(y, y.transpose(0, 2, 1)),
                       np.hypot(y_new, y_new.transpose(0, 2, 1)))
    scale = scale * (rtol / math.sqrt(2.0)) + atol
    err = np.tensordot(_E, k, axes=1) * h / scale
    return math.sqrt(np.mean(err ** 2))


def addresses(k):
    """The seven stages k as the array of addresses the kernel takes."""
    return (ctypes.c_void_p * 7)(*(ks.ctypes.data for ks in k))


def error_norm(count, h, atol, rtol, y, y_new, k):
    return kernel.LIB.heom_error_norm(count, _E.ctypes.data, h, atol, rtol,
                                      y.ctypes.data, y_new.ctypes.data, addresses(k))


def stage(count, s, h, y, k, out):
    kernel.LIB.heom_stage(count, s, _A.ctypes.data, h, y.ctypes.data, addresses(k),
                          out.ctypes.data)


@pytest.mark.parametrize("count", [1, 36, 330])
@pytest.mark.parametrize("h,atol,rtol", [(0.01, 1e-10, 1e-8), (3.0, 1e-13, 1e-11)])
def test_error_norm_matches_numpy(count, h, atol, rtol):
    rng = np.random.default_rng(count)
    y, y_new = random_states(rng, count, 2)
    k = random_states(rng, count, 7)
    assert error_norm(count, h, atol, rtol, y, y_new, k) == pytest.approx(
        numpy_error_norm(y, y_new, k, h, atol, rtol), rel=1e-14, abs=0)


@pytest.mark.parametrize("count", [1, 330])
def test_stage_matches_numpy(count):
    # 330 nodes are 16 170 doubles, not a whole number of kernel blocks.
    rng = np.random.default_rng(count)
    y = random_states(rng, count)[0]
    k = random_states(rng, count, 7)
    out = np.empty_like(y)
    h = 0.37
    for s in range(1, 7):
        stage(count, s, h, y, k, out)
        terms = np.abs(y) + h * np.tensordot(np.abs(_A[s, :s]), np.abs(k[:s]), axes=1)
        expected = y + h * np.tensordot(_A[s, :s], k[:s], axes=1)
        assert np.all(np.abs(out - expected) <= 1e-15 * terms)


def test_last_stage_does_not_read_k1():
    # a_61 = E_1 = 0, so run() writes k_6 into k_1's buffer: neither the
    # stage-6 sum nor the error norm may read k_1.
    count = 36
    rng = np.random.default_rng(1)
    y, y_new = random_states(rng, count, 2)
    k = [*random_states(rng, count, 7)]
    k[1] = np.full_like(y, np.nan)
    out = np.empty_like(y)
    stage(count, 6, 0.37, y, k, out)
    assert np.all(np.isfinite(out))
    k_zeroed = np.array(k)
    k_zeroed[1] = 0.0
    assert error_norm(count, 0.37, 1e-10, 1e-8, y, y_new, k) == pytest.approx(
        numpy_error_norm(y, y_new, k_zeroed, 0.37, 1e-10, 1e-8), rel=1e-14, abs=0)


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
    args = kernel.bind(2, h, r, n, down, up, 2.0 + 3.0j, 0.5)
    assert args[0] == 2 and args[-3:] == (2.0, 3.0, 0.5)
    with pytest.raises(ValueError, match="h must be a C-contiguous float64"):
        kernel.bind(2, np.asfortranarray(h + np.eye(7, k=1)), r, n, down, up, 1j, 1.0)
    with pytest.raises(ValueError, match="h must be a C-contiguous float64"):
        kernel.bind(2, h.astype(complex), r, n, down, up, 1j, 1.0)
    with pytest.raises(ValueError, match=r"h must be .* of shape \(7, 7\)"):
        kernel.bind(2, h[:6].copy(), r, n, down, up, 1j, 1.0)
    with pytest.raises(ValueError, match="r must be a C-contiguous float64"):
        kernel.bind(2, h, r.astype(np.float32), n, down, up, 1j, 1.0)
    with pytest.raises(ValueError, match=r"r must be .* of shape \(7,\)"):
        kernel.bind(2, h, np.zeros((7, 1)), n, down, up, 1j, 1.0)
    with pytest.raises(ValueError, match="down must be a C-contiguous int64"):
        kernel.bind(2, h, r, n, down.astype(np.int32), up, 1j, 1.0)
    with pytest.raises(ValueError, match=r"n must be .* of shape \(3, 7\)"):
        kernel.bind(3, h, r, n, down, up, 1j, 1.0)
    with pytest.raises(ValueError, match=r"up must be .* of shape \(2, 7\)"):
        kernel.bind(2, h, r, n, down, up[:, :6].copy(), 1j, 1.0)
    for rank in (2, -2):
        bad = up.copy()
        bad[0, 3] = rank
        with pytest.raises(ValueError, match=r"up ranks must lie in -1\.\.1"):
            kernel.bind(2, h, r, n, down, bad, 1j, 1.0)
        with pytest.raises(ValueError, match=r"down ranks must lie in -1\.\.1"):
            kernel.bind(2, h, r, n, bad, up, 1j, 1.0)
