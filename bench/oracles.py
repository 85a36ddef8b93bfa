"""Independent reference computations and the properties the outputs must have.

Nothing here calls a ``permutangle`` measure: every quantity is recomputed
from the state's amplitudes or matrix with plain numpy, by a different route
from the program's. See README.md for why each tolerance has the size it has.
"""

from __future__ import annotations

import math

import numpy as np

#: |tau - CKW hyperdeterminant|; observed <= 2e-15 on Haar states.
TAU_TOL = 1e-12
#: |n12 - own partial-transpose eigvalsh|; observed <= 1e-15.
N12_TOL = 1e-12
#: |r12^4 - 16 |det link||; observed <= 5e-16.
R4_TOL = 1e-12
#: |c12 - textbook Wootters|; the textbook route takes square roots of
#: near-zero eigenvalues (sqrt(1e-16) = 1e-8), observed <= 3.5e-8.
C12_TOL = 1e-6
#: Eigenvalues above this count toward the rank (the program's RANK_EPS).
RANK_EPS = 1e-12
#: The paper's region tolerance, and the tangle-identity tolerance.
REGION_TOL = 1e-9
IDENTITY_TOL = 1e-8
#: Closed-form agreement, compared at the fourth power for r12.
CLOSED_TOL = 1e-9
#: Separable states satisfy r12 <= (1/3)^(3/4).
WITNESS = (1.0 / 3.0) ** 0.75

_SY_SY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)


def rho12(amps) -> np.ndarray:
    """Reduction of a three-qubit pure state onto qubits 1 and 2."""
    a = np.asarray(amps, dtype=complex).reshape(4, 2)
    return a @ a.conj().T


def ckw_tangle(amps) -> float:
    """Coffman-Kundu-Wootters 3-tangle 4|d1 - 2 d2 + 4 d3| (PRA 61, 052306)."""
    a = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def partial_transpose(rho) -> np.ndarray:
    """pt[2i+a, 2j+b] = rho[2i+b, 2j+a], written out index by index."""
    out = np.empty((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for b in range(2):
                    out[2 * i + a, 2 * j + b] = rho[2 * i + b, 2 * j + a]
    return out


def negativity(rho) -> float:
    return max(0.0, -2.0 * float(np.linalg.eigvalsh(partial_transpose(rho))[0]))


def link(rho) -> np.ndarray:
    """L[2i+j, 2a+b] = rho[2i+b, 2j+a]: realignment of the partial transpose."""
    out = np.empty((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for b in range(2):
                    out[2 * i + j, 2 * a + b] = rho[2 * i + b, 2 * j + a]
    return out


def r12_fourth(rho) -> float:
    """r12^4 = 16 |det L| for two qubits."""
    return 16.0 * abs(np.linalg.det(link(rho)))


def concurrence(rho) -> float:
    """Wootters (PRL 80, 2245): sqrt-eigenvalues of rho (sy sy) rho* (sy sy)."""
    r = rho @ _SY_SY @ rho.conj() @ _SY_SY
    lam = np.sort(np.sqrt(np.maximum(np.linalg.eigvals(r).real, 0.0)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def rank(rho) -> int:
    return int(np.count_nonzero(np.linalg.eigvalsh(rho) > RANK_EPS))


def check_state(rho, rank_, c12, n12, r12, tau=None, amps=None) -> list[str]:
    """Compare one record's values with the independent computations."""
    bad = []
    if rank(rho) != rank_:
        bad.append(f"rank {rank_} != {rank(rho)}")
    if abs(concurrence(rho) - c12) > C12_TOL:
        bad.append(f"c12 {c12!r} vs textbook {concurrence(rho)!r}")
    if abs(negativity(rho) - n12) > N12_TOL:
        bad.append(f"n12 {n12!r} vs {negativity(rho)!r}")
    if abs(r12_fourth(rho) - r12**4) > R4_TOL:
        bad.append(f"r12^4 {r12**4!r} vs 16|det L| {r12_fourth(rho)!r}")
    if amps is not None and abs(ckw_tangle(amps) - tau) > TAU_TOL:
        bad.append(f"tau {tau!r} vs CKW {ckw_tangle(amps)!r}")
    return bad


def check_properties(rank_, c, n, r, tau, rank2=False, separable=False) -> list[str]:
    """Properties every record must have.

    ``rank2`` adds r <= sqrt(c), which the paper states for rank-2 states
    (the reductions of three-qubit pure states); it is not applied to other
    low-rank states, whose r12 of ~1e-4 at a singular link is rounding noise.
    """
    bad = []
    if not (0.0 <= c <= 1.0 and 0.0 <= n <= 1.0 and 0.0 <= r <= 1.0):
        bad.append("value outside [0, 1]")
    if n > c + REGION_TOL:
        bad.append(f"n {n!r} > c {c!r}")
    if r < c - REGION_TOL:
        bad.append(f"r {r!r} < c {c!r}")
    if rank2 and r > math.sqrt(c) + REGION_TOL:
        bad.append(f"rank-2 r {r!r} > sqrt(c)")
    if tau is not None:
        if abs(r**4 - c * c * (c * c + tau)) > IDENTITY_TOL:
            bad.append(f"r^4 != c^2 (c^2 + tau): {r!r} {c!r} {tau!r}")
        if tau > 1.0 - c * c + IDENTITY_TOL:
            bad.append(f"tau {tau!r} > 1 - c^2")
    if separable and r > WITNESS + REGION_TOL:
        bad.append(f"separable r12 {r!r} above the witness threshold")
    return bad


def self_test() -> None:
    """The checkers on states whose values are known by hand."""
    s = 1.0 / math.sqrt(2.0)
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = s
    w = np.zeros(8, dtype=complex)
    w[1] = w[2] = w[4] = 1.0 / math.sqrt(3.0)
    bell = np.array([s, 0, 0, s], dtype=complex)
    bell_rho = np.outer(bell, bell.conj())
    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    cases = [
        ("tau GHZ", ckw_tangle(ghz), 1.0, TAU_TOL),
        ("tau W", ckw_tangle(w), 0.0, TAU_TOL),
        ("c12 W", concurrence(rho12(w)), 2.0 / 3.0, C12_TOL),
        ("c Bell", concurrence(bell_rho), 1.0, C12_TOL),
        ("n Bell", negativity(bell_rho), 1.0, N12_TOL),
        ("r^4 Bell", r12_fourth(bell_rho), 1.0, R4_TOL),
        ("c product", concurrence(product), 0.0, C12_TOL),
        ("n product", negativity(product), 0.0, N12_TOL),
        ("r^4 product", r12_fourth(product), 0.0, R4_TOL),
    ]
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.9, 1.0):
        werner = (1.0 - p) * np.eye(4) / 4.0 + p * bell_rho
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        cases += [(f"c Werner {p:.3f}", concurrence(werner), expected, C12_TOL),
                  (f"n Werner {p:.3f}", negativity(werner), expected, N12_TOL)]
    for what, got, want, tol in cases:
        if abs(got - want) > tol:
            raise AssertionError(f"oracle self-test {what}: got {got!r}, want {want!r}")
    if not check_properties(2, 0.5, 0.6, 0.4, 0.5, rank2=True, separable=True):
        raise AssertionError("property checker passed a record that breaks every property")
