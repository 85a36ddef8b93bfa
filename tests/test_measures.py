import math
import struct

import numpy as np
import pytest

from conftest import random_density_matrix, tangle_from_r_c
from permutangle import (
    DensityMatrix,
    DimensionError,
    PureState,
    WITNESS_THRESHOLD,
    concurrence,
    haar_random_pure,
    haar_random_unitary,
    make_state,
    negativity,
    numeric_measures,
    pure_concurrence,
    purify,
    r12,
    r12_via_singular_values,
    realign,
    reduce,
    substream,
    three_tangle,
)
from permutangle.matkernel import singular_values
from permutangle.measures import CLAMP_TOL, _clamp01

RNG = np.random.default_rng(112358)

BELL = PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))


def _pure(amp):
    amp = np.asarray(amp, dtype=complex)
    return PureState((2, 2), amp / np.linalg.norm(amp))


class TestR12:
    def test_maximally_entangled(self):
        assert r12(BELL.density_matrix()) == pytest.approx(1.0, abs=1e-12)

    def test_werner_closed_form(self):
        for p in (0.0, 0.2, 0.5, 1 / 3, 0.9, 1.0):
            assert r12(make_state("werner", p=p)) == pytest.approx(p**0.75, abs=1e-12)
        assert r12(make_state("werner", p=0.5)) == pytest.approx(0.5946035575, abs=1e-9)

    def test_product_state_vanishes(self):
        u = haar_random_pure((2,), RNG).amplitudes
        v = haar_random_pure((2,), RNG).amplitudes
        rho = DensityMatrix((2, 2), np.kron(np.outer(u, u.conj()), np.outer(v, v.conj())))
        assert r12(rho) <= 1e-9

    def test_bell_diagonal_closed_form(self):
        # |8 (p2+p3-1/2)(p2+p4-1/2)(p3+p4-1/2)|^(1/4); at (0.7,.1,.1,.1) this
        # is 0.216^(1/4) = 0.6^(3/4) (the state is the p=0.6 isotropic mixture)
        rho = make_state("bell_diagonal", p1=0.7, p2=0.1, p3=0.1, p4=0.1)
        assert r12(rho) == pytest.approx(0.216**0.25, abs=1e-12)
        assert r12(rho) == pytest.approx(0.6**0.75, abs=1e-12)

    def test_symmetric_under_subsystem_swap(self):
        for rank in (1, 2, 3, 4):
            psi = haar_random_pure((2, 2, rank), RNG) if rank > 1 else haar_random_pure((2, 2), RNG)
            if rank == 1:
                r_fwd = r12(psi.density_matrix())
                swapped = psi.amplitudes.reshape(2, 2).T.reshape(-1)
                r_rev = r12(PureState((2, 2), swapped).density_matrix())
            else:
                r_fwd = r12(reduce(psi, (1, 2)))
                r_rev = r12(reduce(psi, (2, 1)))
            assert abs(r_fwd - r_rev) <= 1e-10

    def test_agrees_with_singular_value_route(self):
        for rank in (1, 2, 3, 4):
            for _ in range(50):
                rho = random_density_matrix(RNG, rank)
                assert abs(r12(rho) - r12_via_singular_values(rho)) <= 1e-9

    def test_unequal_dims_rejected(self):
        rho = reduce(haar_random_pure((2, 3), RNG), (1, 2))
        with pytest.raises(DimensionError):
            r12(rho)


class TestConcurrence:
    def test_pure_diagonal_amplitudes(self):
        psi = _pure([math.sqrt(0.8), 0, 0, math.sqrt(0.2)])
        assert concurrence(psi.density_matrix()) == pytest.approx(0.8, abs=1e-12)
        assert pure_concurrence(psi) == pytest.approx(0.8, abs=1e-15)

    def test_werner(self):
        assert concurrence(make_state("werner", p=0.5)) == pytest.approx(0.25, abs=1e-12)
        assert concurrence(make_state("werner", p=0.2)) == 0.0

    def test_bell_diagonal(self):
        rho = make_state("bell_diagonal", p1=0.7, p2=0.1, p3=0.1, p4=0.1)
        assert concurrence(rho) == pytest.approx(0.4, abs=1e-12)

    def test_x_state_maximally_entangled(self):
        rho = make_state("x_state", a=0.5, b=0.0, c=0.0, d=0.5, w=0.5, z=0.0)
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_matches_pure_oracle(self):
        for i in range(500):
            psi = haar_random_pure((2, 2), substream(8, i))
            a, b, c, d = psi.amplitudes
            oracle = 2 * abs(a * d - b * c)
            assert abs(concurrence(psi.density_matrix()) - oracle) <= 1e-10

    def test_rejects_non_two_qubit(self):
        with pytest.raises(DimensionError):
            concurrence(reduce(haar_random_pure((2, 3), RNG), (1, 2)))


class TestNegativity:
    def test_pure_matches_concurrence(self):
        for _ in range(50):
            psi = haar_random_pure((2, 2), RNG)
            rho = psi.density_matrix()
            assert abs(negativity(rho) - pure_concurrence(psi)) <= 1e-10

    def test_mems1_value(self):
        rho = make_state("mems1", c=2 / 3)
        assert negativity(rho) == pytest.approx(math.sqrt(5) / 3 - 1 / 3, abs=1e-12)

    def test_separable_werner(self):
        assert negativity(make_state("werner", p=1 / 3)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_iff_concurrence_zero(self):
        for rank in (2, 3, 4):
            for i in range(300):
                rho = random_density_matrix(substream(90 + rank, i), rank)
                assert (negativity(rho) > 1e-9) == (concurrence(rho) > 1e-9)


class TestThreeTangle:
    def test_ghz(self):
        ghz = PureState((2, 2, 2), np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
        assert three_tangle(ghz) == pytest.approx(1.0, abs=1e-12)

    def test_w_class_vanishes(self):
        from permutangle import sample_params

        for i in range(50):
            params = sample_params("w_class", substream(17, i))
            psi = make_state("w_class", **params)
            assert three_tangle(psi) <= 1e-12

    def test_canonical_closed_form(self):
        psi = make_state(
            "canonical3", lambda0=0.6, lambda3=0.5, lambda4=math.sqrt(0.39)
        )
        assert three_tangle(psi) == pytest.approx(0.5616, abs=1e-12)

    def test_permutation_invariance(self):
        psi = haar_random_pure((2, 2, 2), RNG)
        base = three_tangle(psi)
        t = psi.amplitudes.reshape(2, 2, 2)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
            permuted = PureState((2, 2, 2), np.transpose(t, perm).reshape(-1))
            assert abs(three_tangle(permuted) - base) <= 1e-12

    def test_local_unitary_invariance(self):
        for _ in range(2000):
            psi = haar_random_pure((2, 2, 2), RNG)
            u1, u2, u3 = (haar_random_unitary(2, RNG) for _ in range(3))
            rotated = PureState((2, 2, 2), np.kron(np.kron(u1, u2), u3) @ psi.amplitudes)
            assert abs(three_tangle(rotated) - three_tangle(psi)) <= 1e-12

    def test_rejects_other_dims(self):
        with pytest.raises(DimensionError):
            three_tangle(haar_random_pure((2, 2, 3), RNG))


class TestTauFromRC:
    """The tangle of a rank-2 purification is fixed by (r12, c12)."""

    def test_w_class_point(self):
        m = numeric_measures("w_class", lambda0=0.5, lambda1=0.5, lambda2=0.5, lambda3=0.5)
        assert m["r12"] == pytest.approx(0.5, abs=1e-12)
        assert m["c12"] == pytest.approx(0.5, abs=1e-12)
        assert tangle_from_r_c(m["r12"], m["c12"]) == pytest.approx(m["tau"], abs=1e-12)

    def test_m3ts_point(self):
        c = 0.6
        m = numeric_measures("m3ts", c12=c)
        assert tangle_from_r_c(m["r12"], m["c12"]) == pytest.approx(1 - c * c, abs=1e-12)
        assert m["tau"] == pytest.approx(1 - c * c, abs=1e-12)

    def test_canonical_point(self):
        # the canonical worked example: c12 = 0.6, tau = 0.5616
        m = numeric_measures(
            "canonical3", lambda0=math.sqrt(0.5), lambda1=math.sqrt(0.0392),
            lambda3=math.sqrt(0.18), lambda4=math.sqrt(0.2808),
        )
        assert m["r12"] == pytest.approx(0.758946638440411, abs=1e-9)
        assert m["c12"] == pytest.approx(0.6, abs=1e-12)
        assert tangle_from_r_c(m["r12"], m["c12"]) == pytest.approx(0.5616, abs=1e-9)
        assert m["tau"] == pytest.approx(0.5616, abs=1e-12)

    def test_matches_purified_tangle(self):
        for i in range(100):
            rho = random_density_matrix(substream(77, i), 2)
            c = concurrence(rho)
            if c < 0.05:
                continue
            assert abs(tangle_from_r_c(r12(rho), c) - three_tangle(purify(rho))) <= 1e-8


def _ccnr(rho: DensityMatrix) -> float:
    """Trace norm of the realigned density matrix; above 1 witnesses entanglement."""
    return float(np.sum(singular_values(realign(rho.matrix, rho.dims))))


def _linear_entropy(rho: DensityMatrix) -> float:
    return (4.0 / 3.0) * (1.0 - rho.purity())


class TestCcnrAndEntropy:
    def test_maximally_mixed_ccnr(self):
        rho = DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
        assert _ccnr(rho) == pytest.approx(0.5, abs=1e-12)

    def test_product_state_ccnr(self):
        rho1 = np.array([[0.8, 0.1], [0.1, 0.2]])
        rho2 = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
        rho = DensityMatrix((2, 2), np.kron(rho1, rho2))
        expected = math.sqrt(np.trace(rho1 @ rho1).real * np.trace(rho2 @ rho2).real)
        assert _ccnr(rho) == pytest.approx(expected, abs=1e-12)
        assert _ccnr(rho) <= 1.0

    def test_maximally_entangled_ccnr(self):
        assert _ccnr(BELL.density_matrix()) == pytest.approx(2.0, abs=1e-12)

    def test_separable_werner_ccnr(self):
        assert _ccnr(make_state("werner", p=1 / 3)) <= 1.0 + 1e-12

    def test_linear_entropy(self):
        assert _linear_entropy(BELL.density_matrix()) == pytest.approx(0.0, abs=1e-12)
        mm = DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
        assert _linear_entropy(mm) == pytest.approx(1.0, abs=1e-12)
        for p in (0.1, 0.5, 0.8):
            assert _linear_entropy(make_state("werner", p=p)) == pytest.approx(
                1 - p * p, abs=1e-12
            )


class TestWitness:
    """r12 strictly above (1/3)^(3/4) witnesses entanglement."""

    def test_entangled_werner(self):
        assert r12(make_state("werner", p=0.9)) > WITNESS_THRESHOLD

    def test_maximally_mixed(self):
        mm = DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
        assert not r12(mm) > WITNESS_THRESHOLD

    def test_threshold_ansatz_not_flagged(self):
        # the rank-3 boundary state at its peak sits exactly at the threshold;
        # strict inequality means it is not flagged
        assert not r12(make_state("ansatz1", p=1 / 3)) > WITNESS_THRESHOLD

    def test_flagged_implies_entangled(self):
        for i in range(300):
            rho = random_density_matrix(substream(55, i), 4)
            if r12(rho) > WITNESS_THRESHOLD:
                assert concurrence(rho) > 0


class TestLocalUnitaryInvariance:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_measures_invariant(self, rank):
        rho = random_density_matrix(substream(60, rank), rank)
        base = (r12(rho), concurrence(rho), negativity(rho))
        rng = substream(61, rank)
        for _ in range(50):
            u = np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
            rotated = DensityMatrix((2, 2), u @ rho.matrix @ u.conj().T)
            now = (r12(rotated), concurrence(rotated), negativity(rotated))
            assert max(abs(a - b) for a, b in zip(base, now)) <= 1e-9


class TestClamp:
    """The clamp's pass-through gives the bits of min(1.0, max(0.0, v))."""

    @staticmethod
    def _bits(value):
        return struct.pack("<d", value)

    @pytest.mark.parametrize("value", [
        -0.0, 0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
        1.0 + CLAMP_TOL, -CLAMP_TOL,
    ])
    def test_equals_min_max(self, value):
        assert [self._bits(v) for v in _clamp01([value, value])] == (
            [self._bits(min(1.0, max(0.0, value)))] * 2)

    @pytest.mark.parametrize("value", [1.0 + 2 * CLAMP_TOL, math.nan, math.inf, -math.inf])
    def test_out_of_tolerance_raises(self, value):
        message = f"r12 value {value!r} outside [0, 1] beyond tolerance {CLAMP_TOL}"
        with pytest.raises(ValueError) as info:
            _clamp01([0.5, value], "r12")
        assert str(info.value) == message
