"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on a few vCPUs of a host shared with other tenants.
There the same solve runs up to 1.8x slower from one second to the next,
and slow spells last from a fraction of a second to tens of seconds. So
the wall time of one unit of work says as much about the neighbours as
about the program.

The worker therefore runs ``kernel()`` before the first unit and after
every unit. A unit's wall time is divided by the mean of the two kernel
times around it and multiplied by NOMINAL_S, the kernel's time on an
unloaded host: the result is the unit's time in seconds at that speed.
The set-up probes are bracketed the same way. One ``mfgstop verify``
takes only milliseconds, less than the kernel, so each is scaled instead
by ``read_kernel()`` run right before it, against NOMINAL_READ_S.

The kernel does the kind of work the program does, with code of its
own: it assembles block sparse matrices with ``diags``/``bmat``, factors
them with SuperLU, runs a Python loop and parses a field file held in
memory; the read kernel is that parse alone. Neither calls ``mfgstop``,
so a change to the program moves the unit times and leaves the kernels
alone.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# the kernels' wall times on an unloaded host (Intel Xeon, 2 vCPUs, one
# BLAS thread); they only scale the reported seconds
NOMINAL_S = 0.085
NOMINAL_READ_S = 0.005

_N_1D = 150  # nodes of one block of the 1D part
_BLOCKS = 6  # time slices of the 1D part
_N_2D = 15  # nodes per axis of the 2D part
_SLICES_2D = 10  # time slices of the 2D part
_CSV_READS = 4  # parses of the field file _CSV


# a field file as the program writes it: one row of coordinates and a
# value per node, 17 significant digits
_CSV = "x,y,value\n" + "".join(
    f"{i / 64:.17g},{j / 64:.17g},{(i * j) % 97 / 97 + 1 / 3:.17g}\n"
    for i in range(1, 64) for j in range(1, 64))


def _tridiagonal(n: int, centre: float):
    return sp.diags([np.full(n - 1, -1.0), np.full(n, centre), np.full(n - 1, -1.0)],
                    [-1, 0, 1], format="csr")


def _parse_field_file() -> float:
    lines = [ln.strip() for ln in _CSV.splitlines() if ln.strip()]
    return float(np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]]).sum())


def read_kernel() -> float:
    """Parse the field file _CSV once; return the wall time in seconds."""
    t0 = time.perf_counter()
    _parse_field_file()
    return time.perf_counter() - t0


def kernel() -> float:
    """Run the fixed reference work once; return its wall time in seconds.

    About half of it is 1D block assembly, SuperLU solves and a Python
    loop, as in the 1D solves; a quarter factors and solves a 2D
    space-time system of 2,250 unknowns, as in the 2D solves; a quarter
    parses CSV text as ``mfgstop verify`` does.
    """
    t0 = time.perf_counter()
    acc = 0.0
    eye = sp.identity(_N_1D, format="csr")
    for k in range(1, 13):
        d = _tridiagonal(_N_1D, 2.0 + k)
        blocks = [[d if i == j else (-eye if i == j + 1 else None) for j in range(_BLOCKS)]
                  for i in range(_BLOCKS)]
        x = spla.spsolve(sp.bmat(blocks, format="csc"), np.ones(_BLOCKS * _N_1D))
        for i in range(2000):
            acc += float(x[i % x.size]) * 0.5
    lap = _tridiagonal(_N_2D, 2.0)
    eye2 = sp.identity(_N_2D, format="csr")
    space = sp.kron(lap, eye2) + sp.kron(eye2, lap) + sp.identity(_N_2D**2)
    time_part = sp.kron(_tridiagonal(_SLICES_2D, 3.0), sp.identity(_N_2D**2))
    lu = spla.splu((time_part + sp.kron(sp.identity(_SLICES_2D), space)).tocsc())
    for _ in range(8):
        acc += float(lu.solve(np.ones(_SLICES_2D * _N_2D**2))[0])
    for _ in range(_CSV_READS):
        acc += _parse_field_file()
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return time.perf_counter() - t0
