"""Desk-scale visual place recognition with dual-stream feature fusion."""

import ctypes
import glob
import os

import numpy

from .config import AblationFlags, ModelConfig, RunConfig, TrainConfig

__version__ = "0.1.0"

__all__ = ["AblationFlags", "ModelConfig", "RunConfig", "TrainConfig", "__version__"]


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread.

    How OpenBLAS splits a product over its threads moves the last bit of the
    result, so outputs would depend on the host's core count. The model uses
    the cores over images instead (model.SUB_BATCH). A numpy without the
    bundled library keeps its BLAS as it is.
    """
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        except OSError:
            continue
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


_one_blas_thread()
