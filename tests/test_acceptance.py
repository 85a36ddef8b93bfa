"""Acceptance suite.

Runs every acceptance criterion at its stated sample size and tolerance and
prints one PASS/FAIL line per criterion (visible with ``pytest -s``, or in
the captured output on failure). The large Monte-Carlo datasets are built
once per session and shared between criteria; every sample is a pure
function of (seed, index), so slicing a dataset is itself a valid smaller
campaign.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import (
    cofactor_determinant,
    partial_transpose_by_index,
    random_complex_matrix,
    random_density_matrix,
    realign_by_index,
)
from permutangle import (
    DensityMatrix,
    FAMILY_TAGS,
    PureState,
    WITNESS_THRESHOLD,
    closed_form_measures,
    concurrence,
    experiments,
    haar_random_pure,
    haar_random_unitary,
    link_product,
    make_state,
    negativity,
    numeric_measures,
    partial_transpose,
    path_invariant_spectrum,
    perturbation_campaign,
    pure_concurrence,
    r12,
    r12_via_singular_values,
    realign,
    records_csv_bytes,
    reduce,
    sample_params,
    scatter,
    separable_campaign,
    substream,
    three_tangle,
    verify,
)
from permutangle.matkernel import determinant

SEED_222 = 1001
SEED_223 = 1002
SEED_224 = 1003
SEED_SEP = 1004
SEED_ANSATZ1 = 1005
SEED_WERNER = 1006
SEED_MEMS1 = 1007

N_LARGE = 100_000
N_PERTURB = 20_000
N_MEDIUM = 10_000


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def haar222():
    return scatter((2, 2, 2), N_LARGE, seed=SEED_222)


@pytest.fixture(scope="module")
def haar223():
    return scatter((2, 2, 3), N_LARGE, seed=SEED_223)


@pytest.fixture(scope="module")
def haar224():
    return scatter((2, 2, 4), N_LARGE, seed=SEED_224)


@pytest.fixture(scope="module")
def separable():
    return separable_campaign(N_LARGE, seed=SEED_SEP)


@pytest.fixture(scope="module")
def perturbed_ansatz1():
    return perturbation_campaign("ansatz1_fig4", N_PERTURB, seed=SEED_ANSATZ1, epsilon=0.51)


@pytest.fixture(scope="module")
def perturbed_werner():
    return perturbation_campaign("werner_fig5", N_PERTURB, seed=SEED_WERNER, epsilon=0.51)


@pytest.fixture(scope="module")
def perturbed_mems1():
    return perturbation_campaign("mems1_fig8", N_MEDIUM, seed=SEED_MEMS1, epsilon=0.51)


def test_criterion_1_closed_form_agreement():
    start = time.perf_counter()
    worst = 0.0
    worst_case = ""
    for family in FAMILY_TAGS:
        rng = substream(2100, FAMILY_TAGS.index(family))
        for _ in range(1000):
            params = sample_params(family, rng)
            closed = closed_form_measures(family, **params)
            numeric = numeric_measures(family, **params)
            for key, value in closed.items():
                diff = abs(value - numeric[key])
                if diff > worst:
                    worst, worst_case = diff, f"{family}[{key}]"
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(1, ok, f"13 families x 1000 params, worst |numeric-closed| = {worst:.2e} "
                   f"({worst_case}), {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_2_tangle_identity():
    start = time.perf_counter()
    records = scatter((2, 2, 2), N_MEDIUM, seed=2200)
    report = verify(records, "rc_tau_identity", tol=1e-8)
    elapsed = time.perf_counter() - start
    ok = report.violations == 0 and elapsed < 60.0
    _report(2, ok, f"r^4 = c^2(c^2 + tau) on {report.total} Haar three-qubit states, "
                   f"worst residual {report.worst_margin:.2e}, {elapsed:.1f}s")
    assert report.violations == 0
    assert elapsed < 60.0


def test_criterion_3_rank2_region(haar222):
    report = verify(haar222, "cr_rank2")
    ok = report.violations == 0
    _report(3, ok, f"c <= r <= sqrt(c) on {report.total} rank-2 samples: "
                   f"{report.violations} violations, worst margin {report.worst_margin:+.2e}")
    assert report.violations == 0


def test_criterion_4_rank34_envelopes(haar223, haar224, perturbed_ansatz1, perturbed_werner):
    rep3 = verify(haar223, "cr_rank3")
    rep4 = verify(haar224, "cr_rank4")
    rep_a = verify(perturbed_ansatz1, "cr_rank3")
    rep_w = verify(perturbed_werner, "cr_rank4")
    ok = all(r.violations == 0 for r in (rep3, rep4, rep_a, rep_w))
    _report(4, ok, f"rank-3 envelope {rep3.violations}/{rep3.total}, "
                   f"rank-4 envelope {rep4.violations}/{rep4.total}, "
                   f"perturbed ansatz {rep_a.violations}/{rep_a.total} "
                   f"(worst {rep_a.worst_margin:+.2e}), "
                   f"perturbed Werner {rep_w.violations}/{rep_w.total} "
                   f"(worst {rep_w.worst_margin:+.2e})")
    for rep in (rep3, rep4, rep_a, rep_w):
        assert rep.violations == 0


def test_criterion_5_negativity_regions(haar222, haar223, haar224, perturbed_mems1):
    rep2 = verify(haar222, "nr_rank2")
    rep_mems = verify(perturbed_mems1, "nr_rank2")
    low3 = verify(haar223[:N_MEDIUM], "nr_rank2_lower")
    low4 = verify(haar224[:N_MEDIUM], "nr_rank2_lower")
    rep3 = verify(haar223, "nr_rank3")
    rep4 = verify(haar224, "nr_rank4")
    ok = (
        rep2.violations == 0
        and rep_mems.violations == 0
        and low3.violations > 0
        and low4.violations > 0
        and rep3.violations == 0
        and rep4.violations == 0
    )
    _report(5, ok, f"rank-2 negativity region {rep2.violations}/{rep2.total}; "
                   f"perturbed boundary {rep_mems.violations}/{rep_mems.total}; "
                   f"rank-3/4 break the rank-2 lower bound ({low3.violations}, "
                   f"{low4.violations} of {N_MEDIUM}) while rank-3 region has "
                   f"{rep3.violations} and rank-4 region {rep4.violations} violations")
    assert rep2.violations == 0 and rep_mems.violations == 0
    assert low3.violations > 0 and low4.violations > 0
    assert rep3.violations == 0 and rep4.violations == 0


def test_criterion_6_witness(separable, haar222, haar223, haar224,
                             perturbed_ansatz1, perturbed_werner, perturbed_mems1):
    report = verify(separable, "witness_separable")
    max_sep = max(rec.r12 for rec in separable)
    flagged_without_concurrence = sum(
        1
        for rec in itertools.chain(
            separable, haar222, haar223, haar224,
            perturbed_ansatz1, perturbed_werner, perturbed_mems1,
        )
        if rec.r12 > WITNESS_THRESHOLD and rec.c12 <= 0.0
    )
    ok = report.violations == 0 and flagged_without_concurrence == 0
    _report(6, ok, f"{report.total} separable states, max r12 = {max_sep:.10f} "
                   f"<= (1/3)^(3/4) + 1e-9; {flagged_without_concurrence} flagged "
                   f"states with zero concurrence across all campaigns")
    assert report.violations == 0
    assert flagged_without_concurrence == 0


def test_criterion_7_m3ts_maximality(haar222):
    report = verify(haar222[:N_MEDIUM], "m3ts_max_tau", tol=1e-8)
    rng = substream(2700, 0)
    worst_grad = 0.0
    for _ in range(10):
        while True:
            c12, c13 = rng.uniform(0.05, 0.95, size=2)
            if c12**2 + c13**2 <= 0.9:
                break
        worst_grad = max(worst_grad, _projected_gradient_norm(c12, c13))
    ok = report.violations == 0 and worst_grad <= 1e-6
    _report(7, ok, f"tau <= 1 - c^2 on {report.total} samples "
                   f"(worst margin {report.worst_margin:+.2e}); max projected "
                   f"boundary-family gradient {worst_grad:.2e}")
    assert report.violations == 0
    assert worst_grad <= 1e-6


def _projected_gradient_norm(c12: float, c13: float, step: float = 1e-4) -> float:
    x0 = np.array([1 / math.sqrt(2), 0.0, c13 / math.sqrt(2), c12 / math.sqrt(2)])

    def funcs(x):
        l4 = math.sqrt(max(0.0, 1.0 - float(np.dot(x, x))))
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[4], amps[5], amps[6], amps[7] = x[0], x[1], x[2], x[3], l4
        psi = PureState((2, 2, 2), amps / np.linalg.norm(amps))
        return (
            three_tangle(psi),
            concurrence(reduce(psi, (1, 2))),
            concurrence(reduce(psi, (1, 3))),
        )

    grads = np.zeros((3, 4))
    for j in range(4):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += step
        xm[j] -= step
        fp, fm = funcs(xp), funcs(xm)
        grads[:, j] = [(fp[k] - fm[k]) / (2 * step) for k in range(3)]
    grad_tau, g1, g2 = grads
    constraints = np.vstack([g1, g2])
    projector = np.eye(4) - constraints.T @ np.linalg.solve(
        constraints @ constraints.T, constraints
    )
    return float(np.linalg.norm(projector @ grad_tau))


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(2800)

    # permutation maps against the index-level table, exact equality
    perm_exact = True
    for dims in [(2, 2), (2, 3), (3, 3)]:
        d1, d2 = dims
        for _ in range(10):
            m = random_complex_matrix(rng, d1 * d2, d1 * d2)
            perm_exact &= np.array_equal(realign(m, dims), realign_by_index(m, d1, d2))
            h = m + m.conj().T
            h = h / np.trace(h).real if abs(np.trace(h).real) > 0.1 else h + np.eye(d1 * d2)
            for sub in (1, 2):
                perm_exact &= np.array_equal(
                    partial_transpose(m, sub, dims=dims),
                    partial_transpose_by_index(m, d1, d2, subsystem=sub),
                )

    # determinant against cofactor expansion
    worst_det = 0.0
    for _ in range(100):
        m = random_complex_matrix(rng, 4, 4)
        oracle = cofactor_determinant(m)
        worst_det = max(worst_det, abs(determinant(m) - oracle) / max(1.0, abs(oracle)))

    # concurrence against the pure-state closed form
    worst_conc = 0.0
    for i in range(N_MEDIUM):
        psi = haar_random_pure((2, 2), substream(2801, i))
        worst_conc = max(
            worst_conc, abs(concurrence(psi.density_matrix()) - pure_concurrence(psi))
        )

    # determinant route against the singular-value route
    worst_r = 0.0
    for rank in (1, 2, 3, 4):
        for i in range(N_MEDIUM // 4):
            rho = random_density_matrix(substream(2802 + rank, i), rank)
            worst_r = max(worst_r, abs(r12(rho) - r12_via_singular_values(rho)))

    ok = perm_exact and worst_det <= 1e-12 and worst_conc <= 1e-10 and worst_r <= 1e-9
    _report(8, ok, f"index-table permutations exact: {perm_exact}; cofactor det "
                   f"{worst_det:.2e} <= 1e-12; pure-state concurrence {worst_conc:.2e} "
                   f"<= 1e-10; r12 det-vs-svd {worst_r:.2e} <= 1e-9")
    assert perm_exact
    assert worst_det <= 1e-12
    assert worst_conc <= 1e-10
    assert worst_r <= 1e-9


def test_criterion_9_local_unitary_invariance():
    worst_measure = 0.0
    for rank in (1, 2, 3, 4):
        rho = random_density_matrix(substream(2900, rank), rank)
        base = np.array([r12(rho), concurrence(rho), negativity(rho)])
        rng = substream(2901, rank)
        for _ in range(1000):
            u = np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
            rotated = DensityMatrix((2, 2), u @ rho.matrix @ u.conj().T)
            now = np.array([r12(rotated), concurrence(rotated), negativity(rotated)])
            worst_measure = max(worst_measure, float(np.max(np.abs(now - base))))

    worst_spec = 0.0
    psi2 = haar_random_pure((2, 2), substream(2902, 0))
    base2 = np.sort_complex(path_invariant_spectrum(psi2, (1, 2)))
    psi3 = haar_random_pure((2, 2, 2), substream(2902, 1))
    base3 = np.sort_complex(path_invariant_spectrum(psi3, (1, 2, 3)))
    rng = substream(2903, 0)
    for _ in range(1000):
        u2 = np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
        rot2 = PureState((2, 2), u2 @ psi2.amplitudes)
        spec2 = np.sort_complex(path_invariant_spectrum(rot2, (1, 2)))
        u3 = np.kron(np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng)),
                     haar_random_unitary(2, rng))
        rot3 = PureState((2, 2, 2), u3 @ psi3.amplitudes)
        spec3 = np.sort_complex(path_invariant_spectrum(rot3, (1, 2, 3)))
        worst_spec = max(
            worst_spec,
            float(np.max(np.abs(spec2 - base2))),
            float(np.max(np.abs(spec3 - base3))),
        )

    ok = worst_measure <= 1e-8 and worst_spec <= 1e-8
    _report(9, ok, f"1000 local unitaries per rank: worst measure drift "
                   f"{worst_measure:.2e}, worst path-spectrum drift {worst_spec:.2e}")
    assert worst_measure <= 1e-8
    assert worst_spec <= 1e-8


def test_criterion_10_determinism(monkeypatch):
    identical = True
    for build in (
        lambda: scatter((2, 2, 3), 1500, seed=3000),
        lambda: perturbation_campaign("werner_fig5", 1200, seed=3001, epsilon=0.51),
        lambda: separable_campaign(1200, seed=3002),
    ):
        baseline = records_csv_bytes(build())
        identical &= baseline == records_csv_bytes(build())  # rerun
        for size in (1, 7, 512):
            monkeypatch.setattr(experiments, "CHUNK_SIZE", size)
            identical &= records_csv_bytes(build()) == baseline
        monkeypatch.undo()
    _report(10, identical, "campaign bytes identical across reruns and chunk sizes 1/7/512")
    assert identical


# ---------------------------------------------------------------------------
# spec-level invariants that want full-scale datasets; they piggyback on the
# fixtures the numbered criteria already built


def test_invariant_r12_bounded(haar222, haar223, haar224, separable):
    for records in (haar222, haar223, haar224, separable):
        report = verify(records, "prop1")
        assert report.violations == 0, f"r12 outside [0,1]: worst {report.worst_margin}"


def test_invariant_negativity_zero_iff_concurrence_zero(haar222, haar223, haar224):
    tol = 1e-9
    mismatches = sum(
        1
        for rec in itertools.chain(haar222, haar223, haar224)
        if (rec.n12 > tol) != (rec.c12 > tol)
    )
    assert mismatches == 0


def test_invariant_structured_separable_families_have_zero_r12(separable):
    # classical-quantum states carry exact zero rows through the permutation,
    # so their determinant vanishes identically
    worst_cq = max(rec.r12 for rec in separable if rec.family == "cq_state")
    assert worst_cq <= 1e-9
    # few-term product mixtures have singular links too, but the fourth root
    # turns the O(eps) determinant noise of a rank-3 link into O(eps^(1/4));
    # ~2.4e-4 is the double-precision floor for the true value 0
    worst_mix = max(rec.r12 for rec in separable if rec.family == "product_mix")
    assert worst_mix <= 5e-4


def test_invariant_zero_concurrence_ceiling(haar222, haar223, haar224, separable):
    # among sampled states with vanishing concurrence, r12 never exceeds the
    # witness threshold
    worst = max(
        (rec.r12 for rec in itertools.chain(haar222, haar223, haar224, separable)
         if rec.c12 <= 1e-9),
        default=0.0,
    )
    assert worst <= WITNESS_THRESHOLD + 1e-9


def test_invariant_rank4_breaks_rank2_parabola(haar224):
    report = verify(haar224[:N_MEDIUM], "cr_rank2_lower")
    assert report.violations > 0


def test_invariant_link_trace_equals_purity():
    worst = 0.0
    for rank in (1, 2, 3, 4):
        for i in range(N_MEDIUM):
            rho = random_density_matrix(substream(3100 + rank, i), rank)
            trace = float(np.trace(link_product(rho)).real)
            worst = max(worst, abs(trace - rho.purity()))
    assert worst <= 1e-10


def test_invariant_x_states_r_dominates_concurrence():
    rng = substream(3200, 0)
    for _ in range(1000):
        params = sample_params("x_state", rng)
        closed = closed_form_measures("x_state", **params)
        assert closed["r12"] >= closed["c12"] - 1e-9
        rho = make_state("x_state", **params)
        assert r12(rho) >= concurrence(rho) - 1e-9
