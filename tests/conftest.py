"""Session header: the numpy, scipy and OpenBLAS kernels a run used.

Pinned digests hold only on the OpenBLAS core they were taken on, so every
run names the core that numpy's bundled OpenBLAS picked: in the header, or
after the summary under ``-q``, which prints no header.
"""

import ctypes
from pathlib import Path

import numpy as np
import scipy


def _openblas_core():
    """The core of numpy's bundled ``libscipy_openblas64_``, or "unknown"."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _kernels():
    return f"numpy {np.__version__}, scipy {scipy.__version__}, OpenBLAS core {_openblas_core()}"


def pytest_report_header(config):
    return _kernels()


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q prints no header
        terminalreporter.write_line(_kernels())
