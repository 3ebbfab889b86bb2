import os
import threading

import numpy as np
import pytest

from fnar.basis import build_bspline_basis, build_quadrature
from fnar.interaction import KernelIntegral, PastWindow, PointEval, epanechnikov_kernel
from fnar.network import NetworkWeights
import scipy.sparse as sp

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {number:2d} [{name}]: {status}{suffix}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def quad99():
    return build_quadrature(99)


@pytest.fixture(scope="session")
def cubic_basis(quad99):
    return build_bspline_basis(2, 3, quad99)


@pytest.fixture(scope="session")
def epa_op(quad99):
    return KernelIntegral(quad99, kernel=epanechnikov_kernel)


def ring_weights(n: int) -> NetworkWeights:
    """Deterministic row-normalized ring network (exchange matrix for n=2)."""
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] += 0.5
        w[i, (i - 1) % n] += 0.5
    return NetworkWeights(w=sp.csr_array(w))


def small_operator(kind: str, quad):
    if kind == "point":
        return PointEval(quad)
    if kind == "kernel":
        return KernelIntegral(quad, kernel=epanechnikov_kernel)
    return PastWindow(quad, width=0.3)


def fifo_of(tmp_path, source):
    """A named pipe that a thread fills with the bytes of ``source``, and the thread."""
    pipe = tmp_path / f"{source.name}.fifo"
    os.mkfifo(pipe)

    def feed():
        with open(pipe, "wb") as fh:
            fh.write(source.read_bytes())

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    return pipe, thread
