"""The compiled kernel: its build cache, and its stage sum and error norm
against the numpy formulas they replace."""

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


@pytest.mark.parametrize("count", [1, 36, 330])
@pytest.mark.parametrize("h,atol,rtol", [(0.01, 1e-10, 1e-8), (3.0, 1e-13, 1e-11)])
def test_error_norm_matches_numpy(count, h, atol, rtol):
    rng = np.random.default_rng(count)
    y, y_new = random_states(rng, count, 2)
    k = random_states(rng, count, 7)
    got = kernel.LIB.heom_error_norm(count, _E.ctypes.data, h, atol, rtol,
                                     y.ctypes.data, y_new.ctypes.data, k.ctypes.data)
    assert got == pytest.approx(numpy_error_norm(y, y_new, k, h, atol, rtol),
                                rel=1e-14, abs=0)


@pytest.mark.parametrize("count", [1, 330])
def test_stage_matches_numpy(count):
    # 330 nodes are 16 170 doubles, not a whole number of kernel blocks.
    rng = np.random.default_rng(count)
    y = random_states(rng, count)[0]
    k = random_states(rng, count, 7)
    out = np.empty_like(y)
    h = 0.37
    for s in range(1, 7):
        kernel.LIB.heom_stage(count, s, _A.ctypes.data, h, y.ctypes.data,
                              k.ctypes.data, out.ctypes.data)
        terms = np.abs(y) + h * np.tensordot(np.abs(_A[s, :s]), np.abs(k[:s]), axes=1)
        expected = y + h * np.tensordot(_A[s, :s], k[:s], axes=1)
        assert np.all(np.abs(out - expected) <= 1e-15 * terms)


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
    # X = i H_eff^dagger of the model is symmetric, so a transposed X
    # would go unseen by every RHS test; bind refuses it.
    x = np.zeros((7, 7), dtype=complex)
    indptr = np.arange(8, dtype=np.int32)
    indices = np.arange(7, dtype=np.int32)
    data = np.ones(7, dtype=complex)
    assert kernel.bind(1, x, indptr, indices, data)[0] == 1
    with pytest.raises(ValueError, match="x must be a C-contiguous complex128"):
        kernel.bind(1, np.asfortranarray(x + np.eye(7, k=1)), indptr, indices, data)
    with pytest.raises(ValueError, match="indices must be a C-contiguous int32"):
        kernel.bind(1, x, indptr, indices.astype(np.int64), data)
    with pytest.raises(ValueError, match="CSR over 7 rows"):
        kernel.bind(1, x, indptr, indices + 1, data)
    with pytest.raises(ValueError, match=r"indptr must be .* of shape \(15,\)"):
        kernel.bind(2, x, indptr, indices, data)
    with pytest.raises(ValueError, match="indptr must start at 0"):
        kernel.bind(1, x, indptr[::-1].copy(), indices, data)
    with pytest.raises(ValueError, match=r"data must be .* of shape \(7,\)"):
        kernel.bind(1, x, indptr, indices, data[:6])
