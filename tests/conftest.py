import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gext import Ring, cokernel, free_module_of, ring_module  # noqa: E402
from gext.free import GradedMatrix  # noqa: E402

P = 32003

QUARTIC_GENS = ["x*y - w*z", "y^3 - x*z^2", "w*y^2 - x^2*z", "x^3 - w^2*y"]


@pytest.fixture(scope="session")
def quartic_base():
    """S = k[w,x,y,z]."""
    return Ring(P, ("w", "x", "y", "z"))


@pytest.fixture(scope="session")
def quartic_ring():
    """Coordinate ring of the rational quartic curve in P^3."""
    return Ring(P, ("w", "x", "y", "z"), quotient=QUARTIC_GENS)


@pytest.fixture(scope="session")
def quartic_cokernel(quartic_base):
    """N = S/I as an S-module."""
    mat = GradedMatrix.from_entries(quartic_base, [QUARTIC_GENS], (0,))
    return cokernel(mat)


@pytest.fixture(scope="session")
def elliptic_ring():
    return Ring(P, ("x", "y", "z"), quotient=["x^3 + y^3 - z^3"])


@pytest.fixture(scope="session")
def del_pezzo_ring():
    return Ring(P, ("v", "w", "x", "y", "z"), quotient=["w*x", "y*z"])


@pytest.fixture(scope="session")
def del_pezzo_g(del_pezzo_ring):
    """G = coker [[v, w], [w, x]]."""
    mat = GradedMatrix.from_entries(del_pezzo_ring, [["v", "w"], ["w", "x"]],
                                    (0, 0))
    return cokernel(mat)


VERONESE_GENS = ["v^2 - u*x", "v*w - u*y", "w*x - v*y",
                 "w^2 - u*z", "w*y - v*z", "y^2 - x*z"]


@pytest.fixture(scope="session")
def veronese_ring():
    """Coordinate ring of the Veronese surface in P^5."""
    return Ring(P, ("u", "v", "w", "x", "y", "z"), quotient=VERONESE_GENS)


@pytest.fixture(scope="session")
def p2_ring():
    return Ring(P, ("x", "y", "z"))


@pytest.fixture(scope="session")
def p2_structure(p2_ring):
    return ring_module(p2_ring)


def line_bundle(ring, v):
    return free_module_of(ring, (-v,))


TRACED_PREAMBLE = """
import tracemalloc


def traced(call):
    \"\"\"call() under tracemalloc; prints the peak, returns the result.\"\"\"
    tracemalloc.start()
    result = call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(peak)
    return result
"""


def fresh_peak(probe: str) -> list[int]:
    """Run `probe` in a fresh interpreter (gext from src/, hash seed 0),
    after a preamble that defines `traced(call)`, and return the integers
    it printed: the tracemalloc peak of its one `traced` call first, then
    its answers.  A fresh interpreter, as what an earlier computation
    leaves in Python's free lists would lower a peak."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", TRACED_PREAMBLE + probe],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src,
                                   PYTHONHASHSEED="0"))
    assert proc.returncode == 0, proc.stderr
    return [int(word) for word in proc.stdout.split()]
