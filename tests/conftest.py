import ctypes
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import fedsim.experiment
from fedsim.data import Trajectory, synth_trajectories, write_csv
from fedsim.reports import rows_for_log

# Tests import the shared oracle helpers as a plain module.
TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

# Property tests draw a fixed, bounded set of examples and keep no example
# database, so a run is repeatable and its time bounded. hypothesis is
# optional; its tests skip without it.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile(
        "fedsim", derandomize=True, max_examples=60, deadline=None, database=None
    )
    settings.load_profile("fedsim")


def log_bytes(result):
    """The rows of a run's rounds.csv, joined: equal text, equal files."""
    return "\n".join(",".join(row) for log in result.logs for row in rows_for_log(log))


# Each reduction between variants: (richer variant, the overrides that make it
# the poorer one, the poorer variant, an override that makes the two part).
REDUCTIONS = {
    "feddecab": ("feddecab", dict(decentral_freq=0.0), "fedcab", dict(decentral_freq=0.5)),
    # uniform selection reads no compensator, so they keep their defaults here
    "fedcab": ("fedcab", dict(selection="uniform"), "fedavg", dict(selection="ranked")),
}


def prepare_clients_and_plans(config):
    """``prepare_clients(config)`` and the availability plan it drew for each
    client, in client order. A client keeps only the fates drawn from its
    plan, so the plans are recorded through a spy on ``_client_plan``."""
    plans = []
    client_plan = fedsim.experiment._client_plan

    def spy(*args):
        plans.append(client_plan(*args))
        return plans[-1]

    with mock.patch.object(fedsim.experiment, "_client_plan", spy):
        return fedsim.experiment.prepare_clients(config), plans


def write_ragged_fleet_csv(path) -> None:
    """32 whole vehicles for clients of two: 40 points at each even index and
    6 at each odd one, or 3 at an index of 3 mod 8. At seq_len=4 the four
    3-point vehicles hold no window, and the twelve clients of a 40-point and
    a 6-point vehicle keep a holdout that spans both."""
    trajectories = synth_trajectories(17, 32, 40, "sinusoid")
    lengths = [40 if i % 2 == 0 else 3 if i % 8 == 3 else 6 for i in range(len(trajectories))]
    write_csv(path, [
        Trajectory(t.vehicle_id, t.timestamps[:n], t.coords[:n])
        for t, n in zip(trajectories, lengths)
    ])


def openblas():
    """numpy's bundled OpenBLAS, opened with ctypes, with its core-name and
    thread-count calls typed; None where numpy bundles no OpenBLAS that has
    them."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
            get_core = lib.scipy_openblas_get_corename64_
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_core.argtypes, get_core.restype = [], ctypes.c_char_p
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return lib
    return None


def _numeric_platform() -> str:
    """numpy's version, the OpenBLAS kernel and thread count, and numpy's
    enabled SIMD dispatch targets; "unknown" where numpy bundles no OpenBLAS."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    core = threads = "unknown"
    lib = openblas()
    if lib is not None:
        core = lib.scipy_openblas_get_corename64_().decode()
        threads = lib.scipy_openblas_get_num_threads64_()
    dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (
        f"numpy {np.__version__}, OpenBLAS core {core}, {threads} BLAS threads, "
        f"dispatch {' '.join(dispatch) or 'none'}"
    )


# The BLAS kernel and numpy dispatch a subprocess runs under: this host's own,
# or what an AVX2 host runs (OpenBLAS's Haswell kernel, numpy without AVX-512)
KERNELS = {
    "native": {},
    "haswell": {
        "OPENBLAS_CORETYPE": "Haswell",
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    },
}


def python_under_kernel(script: str, kernel: str, threads: int) -> list[str]:
    """The stdout lines of ``python -c script`` under one of ``KERNELS`` at
    ``threads`` BLAS threads, with the package and the tests importable; the
    script must exit 0."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    path = [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")]
    env.update(KERNELS[kernel], OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def pytest_terminal_summary(terminalreporter):
    # every log names the platform its pinned bytes depend on; report-header
    # lines would not print under -q, and summary lines do
    terminalreporter.write_line(f"numeric platform: {_numeric_platform()}")


@pytest.fixture
def one_blas_thread():
    """Run the test at one BLAS thread and restore the count after it.

    OpenBLAS splits a GEMM of more than 1,024 rows across threads, and under
    some kernels (Haswell) the split rounds differently, so a blocked pass
    and a single pass over such rows agree only at one thread count. Where
    numpy bundles no OpenBLAS, the test runs at whatever count the BLAS has.
    """
    lib = openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    yield
    lib.scipy_openblas_set_num_threads64_(before)
