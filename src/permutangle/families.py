"""Named state families, their closed-form measures, and boundary curves.

Each family is one :class:`_Family` entry of the ``_FAMILIES`` registry;
``FAMILY_TAGS`` lists them in order. :func:`_evaluate` is the one gate for
family parameters, and every domain bounds its intervals and weights through
:func:`_interval_gate` and :func:`_weights_gate`.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError, check_int, check_key
from .measures import WITNESS_THRESHOLD, measure_stack, three_tangle
from .qstate import DensityMatrix, PureState, purify
from .qstate import _trusted_dm, _trusted_pure

PARAM_SUM_TOL = 1e-9
#: How far a parameter or a curve abscissa may lie past an edge of its interval, or a weight
#: below 0; it is then clamped onto the edge (``_interval_gate``, ``_weights_gate``).
EDGE_TOL = 1e-12
#: How far a positivity bound may be exceeded; the value is then projected onto the bound.
POSITIVITY_TOL = 1e-9
CANONICAL_NORM_TOL = 1e-10

_SQ2 = math.sqrt(2.0)

#: The four Bell vectors in the computational basis.
BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / _SQ2
BELL_PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0]) / _SQ2
BELL_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / _SQ2
BELL_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / _SQ2


def _finite(value) -> bool:
    """False for a NaN or infinite number, also inside a vector or a complex value."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "biufc":
        return bool(np.isfinite(value).all())
    try:
        return cmath.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False
    except TypeError:  # a Bloch vector, or a name such as "psi-" that the domain judges
        return not isinstance(value, (tuple, list, np.ndarray)) or all(map(_finite, value))


# --------------------------------------------------------------------------
# domains and builders


def _interval_gate(value, key: str, hi: float = 1.0, lo: float = 0.0):
    """The interval gate: ``value`` clamped to [lo, hi] once it lies within
    ``EDGE_TOL`` of it, else DomainError naming ``key`` (NaN lies outside); a
    numpy array holds a stack of values, all checked in one comparison."""
    if isinstance(value, np.ndarray):
        inside = (value >= lo - EDGE_TOL) & (value <= hi + EDGE_TOL)
        if not inside.all():
            raise DomainError(f"parameter {key}={value[~inside][0]} outside [{lo:.16g}, {hi}]")
        return np.minimum(hi, np.maximum(lo, value))
    value = float(value)
    if not lo - EDGE_TOL <= value <= hi + EDGE_TOL:
        raise DomainError(f"parameter {key}={value} outside [{lo:.16g}, {hi}]")
    return min(hi, max(lo, value))


def _weights_gate(weights: Sequence, what: str) -> tuple:
    """The weights gate: ``weights`` with each one below 0 clamped to 0, once
    none lies more than ``EDGE_TOL`` below 0 and they sum to 1 within
    ``PARAM_SUM_TOL``, else DomainError naming ``what``; arrays of k values
    each are k states, checked at once."""
    if isinstance(weights[0], np.ndarray):
        ws = np.array(weights, dtype=float)
        negative, total = (ws < -EDGE_TOL).any(axis=0), sum(ws)
        off = abs(total - 1.0) > PARAM_SUM_TOL
        if negative.any():
            raise DomainError(f"{what} must be nonnegative, got {_first(ws.T, negative)}")
        if off.any():
            raise DomainError(f"{what} must sum to 1, got sum {_first(total, off)!r}")
        return tuple(np.maximum(0.0, ws))
    ws = tuple(map(float, weights))
    if (low := min(ws)) < -EDGE_TOL:
        raise DomainError(f"{what} must be nonnegative, got {ws}")
    if abs((total := sum(ws)) - 1.0) > PARAM_SUM_TOL:
        raise DomainError(f"{what} must sum to 1, got sum {total!r}")
    return ws if low > 0.0 else tuple([max(0.0, w) for w in ws])


def _first(values: np.ndarray, bad: np.ndarray):
    """The first entry of ``values`` (a number, or a vector along the last
    axis) where ``bad`` holds, as a Python float or a tuple of them."""
    first = np.asarray(values)[bad][0]
    return first.item() if first.ndim == 0 else tuple(first.tolist())


def _interval(key: str, hi: float = 1.0) -> Callable[[Mapping], tuple[float]]:
    """The domain of a family with one parameter in [0, hi]."""
    return lambda params: (_interval_gate(params[key], key, hi),)


_BELL_WEIGHTS = ("p1", "p2", "p3", "p4")
_CANONICAL = ("lambda0", "lambda1", "lambda2", "lambda3", "lambda4", "theta")
_WERNER_FIDUCIALS = {"phi+": BELL_PHI_PLUS, "psi-": BELL_PSI_MINUS}


def _bell_diagonal_domain(params) -> tuple:
    """The four weights; arrays of k values each are k states, checked at once."""
    return _weights_gate([params[k] for k in _BELL_WEIGHTS], "Bell-diagonal weights")


def _werner_domain(params) -> tuple[float, np.ndarray]:
    p = _interval_gate(params["p"], "p")
    return p, check_key(params.get("bell", "phi+"), _WERNER_FIDUCIALS, "werner fiducial")


def _within(value: complex, bound: float, what: str) -> complex:
    """``value``, projected onto |value| = bound when at most ``POSITIVITY_TOL`` above it."""
    size = abs(value)
    if size > bound + POSITIVITY_TOL:
        raise DomainError(f"x_state positivity requires {what}")
    return value if size <= bound else value * (bound / size)


def _x_state_domain(params) -> tuple:
    diagonal = [float(params[k]) for k in ("a", "b", "c", "d")]
    a, b, c, d = _weights_gate(diagonal, "x_state diagonal entries (a, b, c, d)")
    w, z = complex(params.get("w", 0.0)), complex(params.get("z", 0.0))
    w = _within(w, math.sqrt(a * d), "sqrt(a*d) >= |w|")
    z = _within(z, math.sqrt(b * c), "sqrt(b*c) >= |z|")
    return a, b, c, d, w, z


def _canonical_domain(params, lambda4_hi: float = 1.0) -> tuple[float, ...]:
    """lambda0..lambda4 and theta of the three-qubit normal form
    lambda0 |000> + lambda1 e^{i theta} |100> + lambda2 |101> + lambda3 |110>
    + lambda4 |111>, with sum(lambda_i^2) = 1; an omitted value is 0. Each
    lambda lies in [0, 1] (lambda4 in [0, lambda4_hi]) and theta in [0, pi]."""
    his = (1.0, 1.0, 1.0, 1.0, lambda4_hi, math.pi)
    values = tuple(
        _interval_gate(float(params.get(k, 0.0)), k, hi) for k, hi in zip(_CANONICAL, his))
    norm2 = sum(l * l for l in values[:5])
    if abs(norm2 - 1.0) > CANONICAL_NORM_TOL:
        raise DomainError(f"canonical amplitudes must satisfy sum lambda^2 = 1, got {norm2!r}")
    return values


def _m3ts_general_domain(params) -> tuple[float, float]:
    c12 = _interval_gate(params["c12"], "c12")
    c13 = _interval_gate(params["c13"], "c13")
    if 1.0 - c12 * c12 - c13 * c13 < -EDGE_TOL:
        raise DomainError(f"m3ts_general requires c12^2 + c13^2 <= 1, got {c12**2 + c13**2!r}")
    return c12, c13


def _ansatz2_domain(params) -> tuple[float, float, float]:
    if "beta" in params:
        alpha, beta = float(params["alpha"]), float(params["beta"])
        return _weights_gate((alpha, beta, 1.0 - alpha - beta),
                             "ansatz2 weights (alpha, beta, 1-alpha-beta)")
    alpha = _interval_gate(float(params["alpha"]), "alpha", 1.0 / 3.0)
    root = math.sqrt((1.0 - alpha) * (1.0 - 3.0 * alpha))
    beta = 0.5 * (1.0 - alpha + root)
    gamma = 0.5 * (1.0 - alpha - root)
    return alpha, beta, gamma


def _cq_state_domain(params) -> tuple[float, np.ndarray]:
    """p and the Bloch vectors a and b as one ``(2, ..., 3)`` array; a vector
    just outside the unit ball is projected onto it."""
    p = _interval_gate(params["p"], "p")
    v = np.array([params.get("a", (0.0, 0.0, 1.0)), params.get("b", (0.0, 0.0, -1.0))], dtype=float)
    if v.shape[-1] != 3:
        raise ValueError(f"a Bloch vector has 3 entries, got {v.shape[-1]}")
    if isinstance(p, np.ndarray):  # a stack of p: ValueError when its size differs
        np.broadcast_shapes(p.shape, v.shape[1:-1])
    norm2 = v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2]
    outside = norm2 > 1.0 + POSITIVITY_TOL
    if outside.any():
        raise DomainError(f"Bloch vector {_first(v, outside)} lies outside the unit ball")
    # v / 1.0 is v, so only a vector past the sphere moves
    return p, v / np.sqrt(np.maximum(norm2, 1.0))[..., None]


_BELL_PROJECTORS = tuple(
    np.outer(v, v) for v in (BELL_PHI_PLUS, BELL_PSI_PLUS, BELL_PSI_MINUS, BELL_PHI_MINUS)
)


def _bell_mixture(*weights) -> np.ndarray:
    """sum_j w_j |B_j><B_j| over phi+, psi+, psi-, phi-; a weight may be an array of k values."""
    rho = np.zeros(np.shape(weights[0]) + (4, 4), dtype=complex)
    for w, projector in zip(weights, _BELL_PROJECTORS):
        rho += np.multiply.outer(w, projector)
    return rho


def _make_werner(p, vec: np.ndarray) -> np.ndarray:
    rho = np.multiply.outer(1.0 - p, np.eye(4)) / 4.0 + np.multiply.outer(p, np.outer(vec, vec))
    return rho.astype(complex)


def _make_x_state(a: float, b: float, c: float, d: float, w: complex, z: complex) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = a, b, c, d
    rho[0, 3], rho[3, 0] = w, np.conj(w)
    rho[1, 2], rho[2, 1] = z, np.conj(z)
    return rho


def _make_canonical(l0, l1, l2, l3, l4, theta) -> np.ndarray:
    amps = np.zeros(8, dtype=complex)
    amps[0] = l0
    amps[4] = l1 * np.exp(1j * theta)
    amps[5] = l2
    amps[6] = l3
    amps[7] = l4
    return amps / np.linalg.norm(amps)


def _make_m3ts_general(c12: float, c13: float) -> np.ndarray:
    rest = 1.0 - c12 * c12 - c13 * c13
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0 / _SQ2
    amps[5] = c13 / _SQ2
    amps[6] = c12 / _SQ2
    amps[7] = math.sqrt(max(0.0, rest)) / _SQ2
    return amps


def _make_ansatz1(p) -> np.ndarray:
    q = (1.0 - p) / 2.0
    return _bell_mixture(p, q, q, 0.0)


def _make_ansatz2(alpha: float, beta: float, gamma: float) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = alpha
    rho += beta * np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS)
    rho += gamma * np.outer(BELL_PHI_MINUS, BELL_PHI_MINUS)
    return rho


def _make_mems1_purification(c) -> np.ndarray:
    amps = np.zeros(np.shape(c) + (8,), dtype=complex)
    amps[..., 0] = amps[..., 6] = np.sqrt(c / 2.0)
    amps[..., 5] = np.sqrt(1.0 - c)
    return amps


def _make_cq_state(p, bloch: np.ndarray) -> np.ndarray:
    """p |0><0| (x) rho_a + (1 - p) |1><1| (x) rho_b, rho_a and rho_b the
    qubit states of the Bloch vectors a and b."""
    x, iy, z = bloch[..., 0], 1j * bloch[..., 1], bloch[..., 2]
    qubits = np.empty(x.shape + (2, 2), dtype=complex)
    qubits[..., 0, 0] = 1.0 + z
    qubits[..., 0, 1] = x - iy
    qubits[..., 1, 0] = x + iy
    qubits[..., 1, 1] = 1.0 - z
    rho_a, rho_b = 0.5 * qubits
    p = np.asarray(p)[..., None, None]
    top = p * rho_a
    rho = np.zeros(top.shape[:-2] + (4, 4), dtype=complex)
    rho[..., :2, :2] = top
    rho[..., 2:, 2:] = (1.0 - p) * rho_b
    return rho


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
    return {"c12": c, "r12": c, "n12": nr_rank2_n_lower(c), "tau": 0.0}


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
    """Each pair of a W-class state has r = c, and tau = 0."""
    c12, c13, c23 = 2.0 * l0 * l3, 2.0 * l0 * l2, 2.0 * l2 * l3
    return {"c12": c12, "r12": c12, "c13": c13, "r13": c13, "c23": c23, "r23": c23, "tau": 0.0}


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
    """Pair (1, 2) is mems1; pairs (1, 3) and (2, 3) have r = c."""
    cross = math.sqrt(2.0 * c * (1.0 - c))
    return {**_closed_mems1(c), "c13": cross, "r13": cross, "c23": cross, "r23": cross}


def _closed_cq_state(p: float, bloch: np.ndarray) -> dict:
    return {"r12": 0.0}


# --------------------------------------------------------------------------
# the family registry, with in-domain parameter samplers (tests, the acceptance
# suite, separable campaigns)


def flat_dirichlet(rng: np.random.Generator, k: int) -> np.ndarray:
    """k weights uniform on the simplex: ``rng.dirichlet(np.ones(k))``, written out.

    k unit exponentials scaled by the reciprocal of their left-to-right sum,
    which is what numpy's Dirichlet computes while it draws a gamma(1)
    variate as its standard exponential, for a fraction of its cost. The
    numpy version that the digest manifest records pins that, and
    ``tests/test_families.py`` checks it bit for bit.
    """
    e = rng.standard_exponential(k)
    acc = 0.0
    for x in e.tolist():
        acc += x
    return e * (1.0 / acc)


def _uniform(key: str, hi: float = 1.0) -> Callable[[np.random.Generator], dict]:
    return lambda rng: {key: hi * rng.random()}


def _random_bloch(rng: np.random.Generator) -> tuple[float, float, float]:
    """A Bloch vector drawn uniformly from the unit ball."""
    v = rng.standard_normal(3)
    norm, scale = math.sqrt(v.dot(v)), rng.random() ** (1.0 / 3.0)  # norm: np.linalg.norm's formula
    x, y, z = v.tolist()
    return x / norm * scale, y / norm * scale, z / norm * scale


def _sample_x_state(rng: np.random.Generator) -> dict:
    a, b, c, d = flat_dirichlet(rng, 4)
    w = rng.random() * math.sqrt(a * d) * np.exp(2j * np.pi * rng.random())
    z = rng.random() * math.sqrt(b * c) * np.exp(2j * np.pi * rng.random())
    return {"a": a, "b": b, "c": c, "d": d, "w": w, "z": z}


def _sample_canonical(rng: np.random.Generator, k: int) -> dict:
    """k normalized amplitudes lambda0..lambda{k-1} and a phase."""
    lam = np.abs(rng.standard_normal(k))
    lam /= np.linalg.norm(lam)
    out = {name: float(v) for name, v in zip(_CANONICAL, lam)}
    out["theta"] = np.pi * rng.random()
    return out


def _sample_m3ts_general(rng: np.random.Generator) -> dict:
    while True:
        c12, c13 = rng.random(2)
        if c12 * c12 + c13 * c13 <= 1.0:
            return {"c12": c12, "c13": c13}


class _Family(NamedTuple):
    """A family's domain, builder, closed form, in-domain sampler and parameter names.

    A builder trusts its domain and returns the family's defining amplitude
    vector or matrix, which :func:`make_state` wraps without validating it
    again; :func:`state_stack` names the builders that broadcast.
    """

    #: The parameter mapping -> the checked values that ``build`` and
    #: ``closed_form`` take as positional arguments; raises DomainError.
    domain: Callable[[Mapping], tuple]
    build: Callable[..., np.ndarray]
    closed_form: Callable[..., dict]
    sample: Callable[[np.random.Generator], dict]
    params: tuple[str, ...]


#: FAMILY_TAGS is this order, and criterion 1 seeds each family by its position;
#: a sampler's draw order fixes the datasets (cq_state's p, a, b feed the
#: separable campaign).
_FAMILIES: dict[str, _Family] = {
    "bell_diagonal": _Family(
        _bell_diagonal_domain, _bell_mixture, _closed_bell_diagonal,
        lambda rng: dict(zip(_BELL_WEIGHTS, flat_dirichlet(rng, 4))), _BELL_WEIGHTS),
    "werner": _Family(
        _werner_domain, _make_werner, _closed_werner, _uniform("p"), ("p", "bell")),
    # mems1 is accepted on all of [0, 1]; it is maximally entangled at fixed
    # linear entropy only for c >= 2/3, but the same matrix stays a valid
    # rank-2 boundary state below that.
    "mems1": _Family(
        _interval("c"), lambda c: _make_x_state(c / 2.0, 1.0 - c, 0.0, c / 2.0, c / 2.0, 0.0),
        _closed_mems1, _uniform("c"), ("c",)),
    "mems2": _Family(
        _interval("c", 2.0 / 3.0),
        lambda c: _make_x_state(1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0, c / 2.0, 0.0),
        _closed_mems2, _uniform("c", 2.0 / 3.0), ("c",)),
    "x_state": _Family(
        _x_state_domain, _make_x_state, _closed_x_state, _sample_x_state,
        ("a", "b", "c", "d", "w", "z")),
    "w_class": _Family(
        lambda params: _canonical_domain(params, lambda4_hi=0.0), _make_canonical,
        _closed_w_class, lambda rng: _sample_canonical(rng, 4), _CANONICAL),
    "canonical3": _Family(
        _canonical_domain, _make_canonical, _closed_canonical,
        lambda rng: _sample_canonical(rng, 5), _CANONICAL),
    "m3ts": _Family(  # m3ts_general at c13 = 0, where n12 = c12 too
        lambda params: (_interval_gate(params["c12"], "c12"), 0.0), _make_m3ts_general,
        lambda c12, c13: {**_closed_m3ts_general(c12, c13), "n12": c12}, _uniform("c12"), ("c12",)),
    "m3ts_general": _Family(
        _m3ts_general_domain, _make_m3ts_general, _closed_m3ts_general, _sample_m3ts_general,
        ("c12", "c13")),
    "ansatz1": _Family(_interval("p"), _make_ansatz1, _closed_ansatz1, _uniform("p"), ("p",)),
    "ansatz2": _Family(
        _ansatz2_domain, _make_ansatz2, _closed_ansatz2,
        lambda rng: dict(zip(("alpha", "beta"), flat_dirichlet(rng, 3))),
        ("alpha", "beta")),
    "mems1_purification": _Family(
        _interval("c"), _make_mems1_purification, _closed_mems1_purification, _uniform("c"),
        ("c",)),
    "cq_state": _Family(
        _cq_state_domain, _make_cq_state, _closed_cq_state,
        lambda rng: {"p": rng.random(), "a": _random_bloch(rng), "b": _random_bloch(rng)},
        ("p", "a", "b")),
}

FAMILY_TAGS = tuple(_FAMILIES)


def _evaluate(role: str, tag: str, params: Mapping):
    """The family's builder or closed form ("build" / "closed_form") at the
    values its domain makes of the parameters: the one gate for them.

    Every key must be a parameter of the family and every number finite, also
    inside a Bloch vector or a complex value. The domain then checks the
    values, fills in defaults and projects a value within its slack of a
    positivity bound onto the bound. Any problem raises :class:`DomainError`.
    """
    family = check_key(tag, _FAMILIES, "family")
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
    """The state of a named family; a :class:`DomainError` names a parameter
    outside the family's domain."""
    state = state_stack(family, **params)
    if state.shape == (8,):
        return _trusted_pure((2, 2, 2), state)
    if state.shape == (4, 4):
        return _trusted_dm((2, 2), state)
    raise DomainError(f"{family!r} takes one value per parameter, got a stack of them")


def state_stack(family: str, **params) -> np.ndarray:
    """The defining amplitude vector (three qubits) or density matrix (two
    qubits) of a family state, as a numpy array.

    The builders of ansatz1, werner, mems1_purification, cq_state and
    bell_diagonal broadcast: given arrays of k values (a ``(k, 3)`` array of
    Bloch vectors), they return the stack of the k states, each row with the
    bits :func:`make_state` gives it, and a ``DomainError`` names the first
    row outside the domain.
    """
    return _evaluate("build", family, params)


def closed_form_measures(family: str, **params) -> dict[str, float]:
    """Analytically known measure values for a family, keyed by name: those of
    {c12, n12, r12, tau, c13, r13, c23, r23} with a closed form for it."""
    return _evaluate("closed_form", family, params)


def sample_params(family: str, rng: np.random.Generator) -> dict:
    """Draw uniformly random in-domain parameters for a family."""
    return check_key(family, _FAMILIES, "family").sample(rng)


#: Qubit orders that bring the pairs (1, 2), (1, 3) and (2, 3) to the front.
_PAIRS_FIRST = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def numeric_measures(family: str, **params) -> dict[str, float]:
    """The same measures computed numerically from the constructed state.

    All pairwise values and the tangle of a three-qubit pure family; {c12,
    n12, r12} of a two-qubit family, plus tau when its rank is at most 2. One
    kernel call measures the pairs, a pure state's as parents with their
    qubits permuted so that pair (a, b) is (1, 2); tau is the unpermuted
    parent's.
    """
    state = make_state(family, **params)
    if isinstance(state, PureState):  # every pure family is over (2, 2, 2)
        cube = state.amplitudes.reshape(2, 2, 2)
        parents = np.stack([cube.transpose(axes).reshape(8) for axes in _PAIRS_FIRST])
        m = measure_stack(parents)
        return {
            "c12": m.c12[0],
            "n12": m.n12[0],
            "r12": m.r12[0],
            "c13": m.c12[1],
            "r13": m.r12[1],
            "c23": m.c12[2],
            "r23": m.r12[2],
            "tau": m.tau[0],
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
    """Solve f(x) = y for increasing f on [0, 1] by bisection: the midpoint of
    the adjacent floats lo < hi with f(lo) < y <= f(hi)."""
    lo, hi = 0.0, 1.0
    if y <= f(lo):
        return lo
    if y >= f(hi):
        return hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
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


#: curve tag -> (its ordinate at an abscissa, the abscissa domain, its CSV header)
_CURVES: dict[str, tuple[Callable[[float], float], tuple[float, float], str]] = {
    "cr_rank2_upper": (lambda x: x, (0.0, 1.0), "r12,c12"),
    "cr_rank2_lower": (lambda x: x * x, (0.0, 1.0), "r12,c12"),
    "cr_rank3": (_rank3_curve(cr_rank3_r_bound), (0.0, 1.0), "r12,c12"),
    "cr_rank4": (_rank4_curve, (WITNESS_THRESHOLD, 1.0), "r12,c12"),
    "nr_rank2_upper": (lambda x: x, (0.0, 1.0), "r12,n12"),
    "nr_rank2_lower": (nr_rank2_n_lower, (0.0, 1.0), "r12,n12"),
    "nr_rank3": (_rank3_curve(nr_rank3_r_bound), (0.0, 1.0), "r12,n12"),
    "nr_rank4": (_rank4_curve, (WITNESS_THRESHOLD, 1.0), "r12,n12"),
    # fig 2: the largest 3-tangle at c12, reached by the maximally-3-tangled states
    "m3ts_tau": (lambda x: 1.0 - x * x, (0.0, 1.0), "c12,tau"),
}

CURVE_TAGS = tuple(_CURVES)


def curve_domain(curve: str) -> tuple[float, float]:
    """Abscissa domain of a boundary curve."""
    return check_key(curve, _CURVES, "curve")[1]


def curve_header(curve: str) -> str:
    """The CSV header of a boundary curve: its abscissa's and its ordinate's names."""
    return check_key(curve, _CURVES, "curve")[2]


def curve_grid(curve: str, points: int) -> np.ndarray:
    """``points`` (an int of at least 2) evenly spaced abscissae covering the curve's domain."""
    lo, hi = curve_domain(curve)
    return np.linspace(lo, hi, check_int(points, "grid points", 2))


def boundary_curve(curve: str, grid: Sequence[float]) -> list[tuple[float, float]]:
    """Evaluate an analytic boundary curve on the given abscissae.

    :func:`curve_header` names the abscissa and the ordinate. Each abscissa
    passes the interval gate: the curve is evaluated at its clamped value,
    and the row keeps it as given.
    """
    fn, (lo, hi), _ = check_key(curve, _CURVES, "curve")
    key = f"{curve} abscissa"
    return [(x, fn(_interval_gate(x, key, hi, lo))) for x in map(float, grid)]
