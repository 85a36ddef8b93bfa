"""The benchmark's time unit: one pass of a fixed reference loop (1 ref).

Every operation is timed against a pass of this loop run just before it and
one run just after it, so host-speed drift divides out of the reported
figures. Each round does what one campaign sample does, in miniature: it
seeds a fresh generator, draws a state, calls ``eigh``, ``det`` and ``svd``
on 4x4 complex matrices, and formats and parses CSV lines of floats. It
imports nothing from ``permutangle``.

FROZEN: changing anything in this file (sizes, calls, constants) changes the
unit and makes every figure measured before the change incomparable.
"""

from __future__ import annotations

import time

import numpy as np

_ROUNDS = 120
_POOL = 16
_ENTROPY = 20151012

_parts = np.random.default_rng(_ENTROPY).standard_normal((2, _POOL, 4, 4))
_GENERAL = _parts[0] + 1j * _parts[1]
del _parts


def ref_pass() -> str:
    """One pass of the reference loop; returns its last line so no work is dead."""
    acc = 0.0
    line = ""
    for k in range(_ROUNDS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=_ENTROPY, spawn_key=(k,)))
        z = rng.standard_normal((2, 8))
        v = z[0] + 1j * z[1]
        v /= np.linalg.norm(v)
        m = v.reshape(4, 2)
        rho = m @ m.conj().T
        w = np.linalg.eigh(rho)[0]
        d = abs(np.linalg.det(rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)))
        s = np.linalg.svd(_GENERAL[k % _POOL], compute_uv=False)
        rank = int(np.count_nonzero(w > 1e-12))
        for j in range(4):
            line = f"{k},{rank},{acc:.17g},{d:.17g},{float(s[-1]):.17g},{float(w[j]):.17g},ref"
            fields = line.split(",")
            acc = 0.5 * acc + sum(float(x) for x in fields[2:6]) + j
    return line


def timed_ref() -> float:
    """Wall seconds of one reference pass."""
    t0 = time.perf_counter()
    ref_pass()
    return time.perf_counter() - t0
