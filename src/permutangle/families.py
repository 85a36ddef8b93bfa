"""Named state families, their closed-form measures, and boundary curves.

Each family is one entry of a registry holding its domain, builder, closed
form, in-domain sampler and parameter names; ``FAMILY_TAGS`` lists it in
order. ``_evaluate`` is the one gate for family parameters, so
``make_state``, ``closed_form_measures`` and ``numeric_measures`` accept the
same ones. Builders trust their domain: each returns a :class:`PureState` or
:class:`DensityMatrix` matching the family's defining amplitude vector or
matrix entrywise, without validating it again. ``closed_form_measures``
returns the analytically known values for that family as a dict keyed by
measure name; keys vary per family (cross-pair values like ``c13`` exist
only for three-qubit families).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError
from .measures import WITNESS_THRESHOLD, _residual_tangle, measure_stack, three_tangle
from .qstate import DensityMatrix, PureState, purify, reduce_pure_stack
from .qstate import _trusted_dm, _trusted_pure

PARAM_SUM_TOL = 1e-9
CANONICAL_NORM_TOL = 1e-10

_SQ2 = math.sqrt(2.0)

#: The four Bell vectors in the computational basis.
BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / _SQ2
BELL_PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0]) / _SQ2
BELL_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / _SQ2
BELL_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / _SQ2


def _finite(value) -> bool:
    """False for a NaN or infinite number, also inside a vector or a complex value."""
    try:
        return cmath.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False
    except TypeError:  # a Bloch vector, or a name such as "psi-" that the domain judges
        return not isinstance(value, (tuple, list, np.ndarray)) or all(map(_finite, value))


# --------------------------------------------------------------------------
# domains and builders


def _unit_interval(params, key, hi=1.0) -> float:
    value = float(params[key])
    if not -1e-12 <= value <= hi + 1e-12:
        raise DomainError(f"parameter {key}={value} outside [0, {hi}]")
    return min(hi, max(0.0, value))


def _interval(key: str, hi: float = 1.0) -> Callable[[Mapping], tuple[float]]:
    """The domain of a family with one parameter in [0, hi]."""
    return lambda params: (_unit_interval(params, key, hi),)


_BELL_WEIGHTS = ("p1", "p2", "p3", "p4")
_CANONICAL = ("lambda0", "lambda1", "lambda2", "lambda3", "lambda4", "theta")
_WERNER_FIDUCIALS = {"phi+": BELL_PHI_PLUS, "psi-": BELL_PSI_MINUS}


def _bell_diagonal_domain(params) -> tuple[float, float, float, float]:
    ps = tuple(float(params[k]) for k in _BELL_WEIGHTS)
    if any(p < -1e-12 for p in ps):
        raise DomainError(f"Bell-diagonal weights must be nonnegative, got {ps}")
    if abs(sum(ps) - 1.0) > PARAM_SUM_TOL:
        raise DomainError(f"Bell-diagonal weights must sum to 1, got sum {sum(ps)!r}")
    return tuple(max(0.0, p) for p in ps)


def _werner_domain(params) -> tuple[float, np.ndarray]:
    p = _unit_interval(params, "p")
    bell = str(params.get("bell", "phi+"))
    if bell not in _WERNER_FIDUCIALS:
        raise DomainError(f"werner fiducial must be 'phi+' or 'psi-', got {bell!r}")
    return p, _WERNER_FIDUCIALS[bell]


def _within(value: complex, bound: float, what: str) -> complex:
    """``value``, projected onto |value| = bound when it exceeds that by at most 1e-9."""
    size = abs(value)
    if size > bound + 1e-9:
        raise DomainError(f"x_state positivity requires {what}")
    return value if size <= bound else value * (bound / size)


def _x_state_domain(params) -> tuple:
    a, b, c, d = (float(params[k]) for k in ("a", "b", "c", "d"))
    w, z = complex(params.get("w", 0.0)), complex(params.get("z", 0.0))
    if min(a, b, c, d) < -1e-12:
        raise DomainError("x_state diagonal entries must be nonnegative")
    if abs(a + b + c + d - 1.0) > PARAM_SUM_TOL:
        raise DomainError(f"x_state diagonal must sum to 1, got {a + b + c + d!r}")
    a, b, c, d = (max(0.0, x) for x in (a, b, c, d))
    w = _within(w, math.sqrt(a * d), "sqrt(a*d) >= |w|")
    z = _within(z, math.sqrt(b * c), "sqrt(b*c) >= |z|")
    return a, b, c, d, w, z


def _canonical_domain(params) -> tuple[float, ...]:
    """lambda0..lambda4 and theta of the three-qubit normal form
    lambda0 |000> + lambda1 e^{i theta} |100> + lambda2 |101> + lambda3 |110>
    + lambda4 |111>, with sum(lambda_i^2) = 1; an omitted value is 0."""
    values = tuple(float(params.get(name, 0.0)) for name in _CANONICAL)
    lams, theta = values[:5], values[5]
    if any(l < 0.0 or l > 1.0 for l in lams):
        raise DomainError(f"canonical amplitudes must lie in [0, 1], got {lams}")
    norm2 = sum(l * l for l in lams)
    if abs(norm2 - 1.0) > CANONICAL_NORM_TOL:
        raise DomainError(f"canonical amplitudes must satisfy sum lambda^2 = 1, got {norm2!r}")
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise DomainError(f"theta must lie in [0, pi], got {theta}")
    return values


def _w_class_domain(params) -> tuple[float, ...]:
    if abs(float(params.get("lambda4", 0.0))) > 1e-12:
        raise DomainError("w_class states have lambda4 = 0")
    return _canonical_domain({**params, "lambda4": 0.0})


def _m3ts_general_domain(params) -> tuple[float, float]:
    c12 = _unit_interval(params, "c12")
    c13 = _unit_interval(params, "c13")
    if 1.0 - c12 * c12 - c13 * c13 < -1e-12:
        raise DomainError(f"m3ts_general requires c12^2 + c13^2 <= 1, got {c12**2 + c13**2!r}")
    return c12, c13


def _ansatz2_domain(params) -> tuple[float, float, float]:
    alpha = float(params["alpha"])
    if "beta" in params:
        beta = float(params["beta"])
        gamma = 1.0 - alpha - beta
        if min(alpha, beta, gamma) < -1e-12:
            raise DomainError("ansatz2 weights (alpha, beta, 1-alpha-beta) must be nonnegative")
        return alpha, max(0.0, beta), max(0.0, gamma)
    if not -1e-12 <= alpha <= 1.0 / 3.0 + 1e-12:
        raise DomainError(f"optimized ansatz2 requires alpha in [0, 1/3], got {alpha}")
    alpha = min(1.0 / 3.0, max(0.0, alpha))
    root = math.sqrt((1.0 - alpha) * (1.0 - 3.0 * alpha))
    beta = 0.5 * (1.0 - alpha + root)
    gamma = 0.5 * (1.0 - alpha - root)
    return alpha, beta, gamma


def _bloch_qubit(vec: Sequence[float]) -> np.ndarray:
    """The qubit state of a Bloch vector; one just outside the ball is projected onto it."""
    x, y, z = (float(v) for v in vec)
    norm2 = x * x + y * y + z * z
    if norm2 > 1.0 + 1e-9:
        raise DomainError(f"Bloch vector {(x, y, z)} lies outside the unit ball")
    if norm2 > 1.0:
        x, y, z = (v / math.sqrt(norm2) for v in (x, y, z))
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def _cq_state_domain(params) -> tuple[float, np.ndarray, np.ndarray]:
    """p and the two qubit states that the Bloch vectors a and b describe."""
    p = _unit_interval(params, "p")
    rho_a = _bloch_qubit(params.get("a", (0.0, 0.0, 1.0)))
    rho_b = _bloch_qubit(params.get("b", (0.0, 0.0, -1.0)))
    return p, rho_a, rho_b


def _bell_mixture(weights: Sequence[float]) -> np.ndarray:
    vecs = (BELL_PHI_PLUS, BELL_PSI_PLUS, BELL_PSI_MINUS, BELL_PHI_MINUS)
    rho = np.zeros((4, 4), dtype=complex)
    for w, v in zip(weights, vecs):
        rho += w * np.outer(v, v)
    return rho


def _make_bell_diagonal(*weights: float) -> DensityMatrix:
    return _trusted_dm((2, 2), _bell_mixture(weights))


def _make_werner(p: float, vec: np.ndarray) -> DensityMatrix:
    rho = (1.0 - p) * np.eye(4) / 4.0 + p * np.outer(vec, vec)
    return _trusted_dm((2, 2), rho.astype(complex))


def _make_mems1(c: float) -> DensityMatrix:
    # Accepted on all of [0, 1]; it is maximally entangled at fixed linear
    # entropy only for c >= 2/3, but the same matrix stays a valid rank-2
    # boundary state below that.
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = c / 2.0
    rho[1, 1] = 1.0 - c
    return _trusted_dm((2, 2), rho)


def _make_mems2(c: float) -> DensityMatrix:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[1, 1] = rho[3, 3] = 1.0 / 3.0
    rho[0, 3] = rho[3, 0] = c / 2.0
    return _trusted_dm((2, 2), rho)


def _make_x_state(a: float, b: float, c: float, d: float, w: complex, z: complex) -> DensityMatrix:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = a, b, c, d
    rho[0, 3], rho[3, 0] = w, np.conj(w)
    rho[1, 2], rho[2, 1] = z, np.conj(z)
    return _trusted_dm((2, 2), rho)


def _make_canonical(l0, l1, l2, l3, l4, theta) -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0] = l0
    amps[4] = l1 * np.exp(1j * theta)
    amps[5] = l2
    amps[6] = l3
    amps[7] = l4
    return _trusted_pure((2, 2, 2), amps / np.linalg.norm(amps))


def _make_m3ts(c12: float) -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0 / _SQ2
    amps[6] = c12 / _SQ2
    amps[7] = math.sqrt(max(0.0, 1.0 - c12 * c12)) / _SQ2
    return _trusted_pure((2, 2, 2), amps)


def _make_m3ts_general(c12: float, c13: float) -> PureState:
    rest = 1.0 - c12 * c12 - c13 * c13
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0 / _SQ2
    amps[5] = c13 / _SQ2
    amps[6] = c12 / _SQ2
    amps[7] = math.sqrt(max(0.0, rest)) / _SQ2
    return _trusted_pure((2, 2, 2), amps)


def _make_ansatz1(p: float) -> DensityMatrix:
    return _trusted_dm((2, 2), _bell_mixture((p, (1.0 - p) / 2.0, (1.0 - p) / 2.0, 0.0)))


def _make_ansatz2(alpha: float, beta: float, gamma: float) -> DensityMatrix:
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = alpha
    rho += beta * np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS)
    rho += gamma * np.outer(BELL_PHI_MINUS, BELL_PHI_MINUS)
    return _trusted_dm((2, 2), rho)


def _make_mems1_purification(c: float) -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0] = math.sqrt(c / 2.0)
    amps[5] = math.sqrt(1.0 - c)
    amps[6] = math.sqrt(c / 2.0)
    return _trusted_pure((2, 2, 2), amps)


def _make_cq_state(p: float, rho_a: np.ndarray, rho_b: np.ndarray) -> DensityMatrix:
    rho = np.zeros((4, 4), dtype=complex)
    rho[:2, :2] = p * rho_a
    rho[2:, 2:] = (1.0 - p) * rho_b
    return _trusted_dm((2, 2), rho)


# --------------------------------------------------------------------------
# closed forms


def _closed_bell_diagonal(p1: float, p2: float, p3: float, p4: float) -> dict:
    c = max(0.0, 2.0 * max(p1, p2, p3, p4) - 1.0)
    r = abs(8.0 * (p2 + p3 - 0.5) * (p2 + p4 - 0.5) * (p3 + p4 - 0.5)) ** 0.25
    return {"c12": c, "n12": c, "r12": r}


def _closed_werner(p: float, vec: np.ndarray) -> dict:
    c = max(0.0, (3.0 * p - 1.0) / 2.0)
    return {"c12": c, "n12": c, "r12": p**0.75}


def _closed_mems1(c: float) -> dict:
    n = math.sqrt((1.0 - c) ** 2 + c * c) - (1.0 - c)
    return {"c12": c, "r12": c, "n12": n, "tau": 0.0}


def _closed_mems2(c: float) -> dict:
    return {"c12": c, "r12": math.sqrt(2.0 * c / 3.0)}


def _closed_x_state(a: float, b: float, c: float, d: float, w: complex, z: complex) -> dict:
    conc = 2.0 * max(
        0.0,
        abs(z) - math.sqrt(max(0.0, a * d)),
        abs(w) - math.sqrt(max(0.0, b * c)),
    )
    r = 2.0 * abs(a * d - b * c) ** 0.25 * abs(abs(z) ** 2 - abs(w) ** 2) ** 0.25
    return {"c12": conc, "r12": r}


def _closed_canonical(l0: float, l1: float, l2: float, l3: float, l4: float, theta: float) -> dict:
    return {
        "c12": 2.0 * l0 * l3,
        "r12": 2.0 * l0 * math.sqrt(l3) * (l3**2 + l4**2) ** 0.25,
        "tau": 4.0 * (l0 * l4) ** 2,
    }


def _closed_w_class(l0: float, l1: float, l2: float, l3: float, l4: float, theta: float) -> dict:
    return {
        "c12": 2.0 * l0 * l3,
        "r12": 2.0 * l0 * l3,
        "c13": 2.0 * l0 * l2,
        "r13": 2.0 * l0 * l2,
        "c23": 2.0 * l2 * l3,
        "r23": 2.0 * l2 * l3,
        "tau": 0.0,
    }


def _closed_m3ts(c12: float) -> dict:
    return {
        "c12": c12,
        "r12": math.sqrt(c12),
        "n12": c12,
        "tau": 1.0 - c12 * c12,
        "c13": 0.0,
        "c23": 0.0,
        "r13": 0.0,
        "r23": 0.0,
    }


def _closed_m3ts_general(c12: float, c13: float) -> dict:
    r12_val = math.sqrt(c12) * (1.0 - c13 * c13) ** 0.25
    r13_val = math.sqrt(c13) * (1.0 - c12 * c12) ** 0.25
    return {
        "c12": c12,
        "c13": c13,
        "c23": c12 * c13,
        "r12": r12_val,
        "r13": r13_val,
        "r23": r12_val * r13_val,
        "tau": max(0.0, 1.0 - c12 * c12 - c13 * c13),
    }


def _closed_ansatz1(p: float) -> dict:
    c = max(0.0, 2.0 * p - 1.0)
    return {"c12": c, "n12": c, "r12": math.sqrt(p) * abs(2.0 * p - 1.0) ** 0.25}


def _closed_ansatz2(alpha: float, beta: float, gamma: float) -> dict:
    r = math.sqrt(abs(beta**2 - gamma**2))
    n = math.sqrt(alpha**2 + (beta - gamma) ** 2) - alpha
    return {"r12": r, "n12": n}


def _closed_mems1_purification(c: float) -> dict:
    cross = math.sqrt(2.0 * c * (1.0 - c))
    return {
        "c12": c,
        "r12": c,
        "n12": math.sqrt((1.0 - c) ** 2 + c * c) - (1.0 - c),
        "c13": cross,
        "r13": cross,
        "c23": cross,
        "r23": cross,
        "tau": 0.0,
    }


def _closed_cq_state(p: float, rho_a: np.ndarray, rho_b: np.ndarray) -> dict:
    return {"r12": 0.0}


# --------------------------------------------------------------------------
# the family registry, with in-domain parameter samplers (tests, the acceptance
# suite, separable campaigns)


def _uniform(key: str, hi: float = 1.0) -> Callable[[np.random.Generator], dict]:
    return lambda rng: {key: rng.uniform(0.0, hi)}


def _random_bloch(rng: np.random.Generator) -> tuple[float, float, float]:
    """A Bloch vector drawn uniformly from the unit ball."""
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return tuple(v * rng.uniform() ** (1.0 / 3.0))


def _sample_x_state(rng: np.random.Generator) -> dict:
    a, b, c, d = rng.dirichlet(np.ones(4))
    w = rng.uniform(0.0, 1.0) * math.sqrt(a * d) * np.exp(2j * np.pi * rng.uniform())
    z = rng.uniform(0.0, 1.0) * math.sqrt(b * c) * np.exp(2j * np.pi * rng.uniform())
    return {"a": a, "b": b, "c": c, "d": d, "w": w, "z": z}


def _sample_canonical(rng: np.random.Generator, k: int) -> dict:
    """k normalized amplitudes lambda0..lambda{k-1} and a phase."""
    lam = np.abs(rng.standard_normal(k))
    lam /= np.linalg.norm(lam)
    out = {name: float(v) for name, v in zip(_CANONICAL, lam)}
    out["theta"] = rng.uniform(0.0, np.pi)
    return out


def _sample_m3ts_general(rng: np.random.Generator) -> dict:
    while True:
        c12, c13 = rng.uniform(0.0, 1.0, size=2)
        if c12 * c12 + c13 * c13 <= 1.0:
            return {"c12": c12, "c13": c13}


class _Family(NamedTuple):
    #: The parameter mapping -> the checked values that ``build`` and
    #: ``closed_form`` take as positional arguments; raises DomainError.
    domain: Callable[[Mapping], tuple]
    build: Callable[..., Union[DensityMatrix, PureState]]
    closed_form: Callable[..., dict]
    sample: Callable[[np.random.Generator], dict]
    params: tuple[str, ...]


#: FAMILY_TAGS is this order, and criterion 1 seeds each family by its position;
#: a sampler's draw order fixes the datasets (cq_state's p, a, b feed the
#: separable campaign).
_FAMILIES: dict[str, _Family] = {
    "bell_diagonal": _Family(
        _bell_diagonal_domain, _make_bell_diagonal, _closed_bell_diagonal,
        lambda rng: dict(zip(_BELL_WEIGHTS, rng.dirichlet(np.ones(4)))), _BELL_WEIGHTS),
    "werner": _Family(
        _werner_domain, _make_werner, _closed_werner, _uniform("p"), ("p", "bell")),
    "mems1": _Family(_interval("c"), _make_mems1, _closed_mems1, _uniform("c"), ("c",)),
    "mems2": _Family(
        _interval("c", 2.0 / 3.0), _make_mems2, _closed_mems2, _uniform("c", 2.0 / 3.0), ("c",)),
    "x_state": _Family(
        _x_state_domain, _make_x_state, _closed_x_state, _sample_x_state,
        ("a", "b", "c", "d", "w", "z")),
    "w_class": _Family(
        _w_class_domain, _make_canonical, _closed_w_class, lambda rng: _sample_canonical(rng, 4),
        _CANONICAL),
    "canonical3": _Family(
        _canonical_domain, _make_canonical, _closed_canonical,
        lambda rng: _sample_canonical(rng, 5), _CANONICAL),
    "m3ts": _Family(_interval("c12"), _make_m3ts, _closed_m3ts, _uniform("c12"), ("c12",)),
    "m3ts_general": _Family(
        _m3ts_general_domain, _make_m3ts_general, _closed_m3ts_general, _sample_m3ts_general,
        ("c12", "c13")),
    "ansatz1": _Family(_interval("p"), _make_ansatz1, _closed_ansatz1, _uniform("p"), ("p",)),
    "ansatz2": _Family(
        _ansatz2_domain, _make_ansatz2, _closed_ansatz2,
        lambda rng: dict(zip(("alpha", "beta"), rng.dirichlet(np.ones(3)))), ("alpha", "beta")),
    "mems1_purification": _Family(
        _interval("c"), _make_mems1_purification, _closed_mems1_purification, _uniform("c"),
        ("c",)),
    "cq_state": _Family(
        _cq_state_domain, _make_cq_state, _closed_cq_state,
        lambda rng: {"p": rng.uniform(0.0, 1.0), "a": _random_bloch(rng), "b": _random_bloch(rng)},
        ("p", "a", "b")),
}

FAMILY_TAGS = tuple(_FAMILIES)


def _family(tag: str) -> _Family:
    if tag not in _FAMILIES:
        raise DomainError(f"unknown family {tag!r}; known: {FAMILY_TAGS}")
    return _FAMILIES[tag]


def _evaluate(role: str, tag: str, params: Mapping):
    """The family's builder or closed form ("build" / "closed_form") at the
    values its domain makes of the parameters.

    The one gate for family parameters: every key must be a parameter of the
    family and every number finite, including each element of a Bloch vector
    and both parts of a complex value. The domain then checks the values,
    fills in defaults and projects a value within its slack of a positivity
    bound onto the bound. Any problem with a parameter raises
    :class:`DomainError`.
    """
    family = _family(tag)
    for key, value in params.items():
        if key not in family.params:
            raise DomainError(f"{tag!r} has no parameter {key!r}; known: {family.params}")
        if not _finite(value):
            raise DomainError(f"parameter {key}={value!r} is not finite")
    try:
        values = family.domain(params)
    except DomainError:
        raise
    except KeyError as missing:
        raise DomainError(f"family {tag!r} is missing parameter {missing}") from None
    except (TypeError, ValueError) as wrong:  # e.g. a Bloch vector where a number belongs
        raise DomainError(f"{tag!r} got a parameter of the wrong kind: {wrong}") from None
    return getattr(family, role)(*values)


def make_state(family: str, **params) -> Union[DensityMatrix, PureState]:
    """Construct the state of a named family.

    Out-of-domain parameters raise :class:`DomainError` naming the violated
    constraint.
    """
    return _evaluate("build", family, params)


def closed_form_measures(family: str, **params) -> dict[str, float]:
    """Analytically known measure values for a family, keyed by name.

    Keys are a subset of {c12, n12, r12, tau, c13, r13, c23, r23}; only
    values with a closed form for that family are present.
    """
    return _evaluate("closed_form", family, params)


def sample_params(family: str, rng: np.random.Generator) -> dict:
    """Draw uniformly random in-domain parameters for a family."""
    return _family(family).sample(rng)


def numeric_measures(family: str, **params) -> dict[str, float]:
    """The same measures computed numerically from the constructed state.

    For three-qubit pure families this includes all pairwise values and the
    tangle; for two-qubit families it is {c12, n12, r12}, plus tau when the
    state has rank <= 2. Either way one stacked kernel call measures the
    pairs, so each value has the bits of the scalar measure of that pair.
    """
    state = make_state(family, **params)
    if isinstance(state, PureState):  # every pure family is over (2, 2, 2)
        parent = state.amplitudes[None]
        pairs = [reduce_pure_stack(parent, (2, 2, 2), keep) for keep in ((1, 2), (1, 3), (2, 3))]
        m = measure_stack(np.concatenate(pairs))
        return {
            "c12": m.c12[0],
            "n12": m.n12[0],
            "r12": m.r12[0],
            "c13": m.c12[1],
            "r13": m.r12[1],
            "c23": m.c12[2],
            "r23": m.r12[2],
            "tau": _residual_tangle(parent, m.c12[:1], m.c12[1:2])[0],
        }
    m = measure_stack(state.matrix[None])
    out = {"c12": m.c12[0], "n12": m.n12[0], "r12": m.r12[0]}
    # rank <= 2 states purify to three qubits, so their tangle is measurable
    if m.rank[0] == 2:
        out["tau"] = three_tangle(purify(state))
    elif m.rank[0] == 1:
        out["tau"] = 0.0
    return out


# --------------------------------------------------------------------------
# boundary curves


def cr_rank3_r_bound(c: float) -> float:
    """Largest r12 of a rank-3 state at concurrence c > 0."""
    return c**0.25 * math.sqrt((1.0 + c) / 2.0)


def nr_rank3_r_bound(n: float) -> float:
    """Largest r12 of a rank-3 state at negativity n > 0."""
    return n**0.25 * ((2.0 + n) / 3.0) ** 0.75


def rank4_r_bound(v: float) -> float:
    """Largest r12 of any two-qubit state at concurrence (or negativity) v."""
    return ((2.0 * v + 1.0) / 3.0) ** 0.75


def nr_rank2_n_lower(r: float) -> float:
    """Smallest negativity of a rank<=2 state at r12 = r."""
    return math.sqrt((1.0 - r) ** 2 + r * r) - (1.0 - r)


def _invert_increasing(f: Callable[[float], float], y: float) -> float:
    """Solve f(x) = y for increasing f on [0, 1] by bisection."""
    lo, hi = 0.0, 1.0
    if y <= f(lo):
        return lo
    if y >= f(hi):
        return hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _rank3_curve(r_bound: Callable[[float], float]) -> Callable[[float], float]:
    """The rank-3 boundary at r12 = x: 0 up to the witness knee, then the
    inverse of ``r_bound``."""
    return lambda x: 0.0 if x <= WITNESS_THRESHOLD else _invert_increasing(r_bound, x)


def _rank4_curve(x: float) -> float:
    return max(0.0, (3.0 * x ** (4.0 / 3.0) - 1.0) / 2.0)


_CURVES: dict[str, tuple[Callable[[float], float], tuple[float, float]]] = {
    "cr_rank2_upper": (lambda x: x, (0.0, 1.0)),
    "cr_rank2_lower": (lambda x: x * x, (0.0, 1.0)),
    "cr_rank3": (_rank3_curve(cr_rank3_r_bound), (0.0, 1.0)),
    "cr_rank4": (_rank4_curve, (WITNESS_THRESHOLD, 1.0)),
    "nr_rank2_upper": (lambda x: x, (0.0, 1.0)),
    "nr_rank2_lower": (nr_rank2_n_lower, (0.0, 1.0)),
    "nr_rank3": (_rank3_curve(nr_rank3_r_bound), (0.0, 1.0)),
    "nr_rank4": (_rank4_curve, (WITNESS_THRESHOLD, 1.0)),
}

CURVE_TAGS = tuple(_CURVES)


def curve_domain(curve: str) -> tuple[float, float]:
    """Abscissa domain of a boundary curve."""
    if curve not in _CURVES:
        raise DomainError(f"unknown curve {curve!r}; known: {CURVE_TAGS}")
    return _CURVES[curve][1]


def curve_grid(curve: str, points: int) -> np.ndarray:
    """Evenly spaced abscissae covering the curve's domain."""
    lo, hi = curve_domain(curve)
    if points < 2:
        raise DomainError("need at least 2 grid points")
    return np.linspace(lo, hi, points)


def boundary_curve(curve: str, grid: Sequence[float]) -> list[tuple[float, float]]:
    """Evaluate an analytic boundary curve on the given abscissae.

    Abscissae are the r12 values; ordinates are c12 or n12 depending on the
    curve family. Out-of-domain abscissae raise :class:`DomainError`.
    """
    lo, hi = curve_domain(curve)
    fn = _CURVES[curve][0]
    out = []
    for x in grid:
        x = float(x)
        if x < lo - 1e-12 or x > hi + 1e-12:
            raise DomainError(f"abscissa {x} outside domain [{lo}, {hi}] of {curve}")
        out.append((x, fn(min(hi, max(lo, x)))))
    return out
