"""Reproduction campaigns: scatter datasets, perturbation sweeps, region checks.

Every campaign runs on :func:`_run_indexed`, and :func:`build_record` is a
batch of one of its step. Records are :class:`Records` columns from the
kernel through the CSV/JSON writers and readers to :func:`verify`.
:func:`figure_dataset` writes one figure's bundle.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import operator
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, get_type_hints

import numpy as np

from . import families
from .errors import DimensionError, check_int, check_key, check_real, is_int, is_numeral
from .measures import WITNESS_THRESHOLD, measure_stack
from .qstate import (
    DensityMatrix,
    PureState,
    _require_dims,
    fixed_eigvecs_stack,
    fixed_eigvecs_weights_stack,
    haar_amplitudes,
    haar_draw,
    mix_stack,
    perturb_pure_stack,
    projector_stack,
    reduce_pure_stack,
    substreams,
)

CHUNK_SIZE = 512
#: The largest sample count: a sample index is a spawn key of one 32-bit word.
MAX_SAMPLES = 2**32
VIOLATION_TOL = 1e-9
IDENTITY_TOL = 1e-8

SCATTER_DIMS = ((2, 2), (2, 2, 2), (2, 2, 3), (2, 2, 4))
#: The perturbation strength of figures 4, 5 and 8 and the campaigns' default.
EPSILON = 0.51
#: How many of the worst offenders a ViolationReport lists.
MAX_OFFENDERS = 10


class MeasureRecord(NamedTuple):
    """The measures of one campaign sample: a stored row without its index,
    its fields the records CSV/JSON columns after ``index``, in file order.
    ``tau`` is None (an empty CSV field, a JSON null) unless the record
    descends from a three-qubit pure parent."""

    rank: int
    c12: float
    n12: float
    r12: float
    tau: Optional[float]
    family: str


#: The record of the tuple of its fields, built in C: namedtuple's ``_make``
#: without its length check.
_record = functools.partial(tuple.__new__, MeasureRecord)


class Records:
    """Campaign records held as six columns, in :class:`MeasureRecord` field order.

    ``Records(*columns)`` takes six columns of equal length, or none for no
    records; any other count, or unequal lengths, raise ``ValueError``, as a
    row would lack fields or a longer column's tail would be lost.
    ``columns`` holds them as tuples of the ranks, c12, n12, r12, tau (None
    where a record has none) and family tags, the values of the kernel's or
    a reader's lists, bits and all. A tuple of numbers, strings and None is
    untracked by the cyclic garbage collector once a collection has seen it,
    so held records add nothing to later collections, whatever their number.
    ``len``, indexing, slicing, iteration and ``+``/``+=`` with other records
    or a list of rows work as on a list of :class:`MeasureRecord` rows; a row
    is made when it is asked for.
    """

    __slots__ = ("columns",)

    def __init__(self, *columns: Iterable):
        columns = tuple(map(tuple, columns)) or ((),) * len(MeasureRecord._fields)
        lengths = list(map(len, columns))
        if len(lengths) != len(MeasureRecord._fields) or len(set(lengths)) != 1:
            raise ValueError(f"records need {len(MeasureRecord._fields)} columns of equal "
                             f"length, got columns of lengths {lengths}")
        self.columns = columns

    @classmethod
    def of(cls, records: Iterable[MeasureRecord]) -> Records:
        """``records`` itself, or the columns of an iterable of rows."""
        if isinstance(records, Records):
            return records
        return cls(*zip(*records))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(*(column[i] for column in self.columns))
        return _record(column[i] for column in self.columns)

    def __iter__(self) -> Iterator[MeasureRecord]:
        return map(_record, zip(*self.columns))

    def __add__(self, other: Iterable[MeasureRecord]) -> Records:
        return Records(*map(operator.add, self.columns, Records.of(other).columns))

    def __iadd__(self, other: Iterable[MeasureRecord]) -> Records:
        self.columns = (self + other).columns
        return self

    def __eq__(self, other) -> bool:
        return self.columns == other.columns if isinstance(other, Records) else NotImplemented


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of checking records against an analytic region.

    ``worst_margin`` is signed: the largest excess beyond the region over all
    records (negative values mean everything sat strictly inside). A record
    with a non-finite measure, or with a finite one outside the domain of the
    region's bound (a square root or a fractional power of a negative number,
    a power that overflows), has a NaN margin, which counts as a violation
    and makes ``worst_margin`` NaN. ``violations == 0`` iff
    ``worst_margin <= tolerance``.
    """

    region: str
    tolerance: float
    total: int
    violations: int
    worst_margin: float
    offenders: tuple[tuple[int, float], ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "offenders": [list(o) for o in self.offenders]}


# --------------------------------------------------------------------------
# record construction


def build_record(
    rho: DensityMatrix, parent: Optional[PureState], family: str
) -> MeasureRecord:
    """Measure a two-qubit state; tau only when a (2,2,2) pure parent exists.

    A parent, of any dims, must be the state ``rho`` is the (1, 2) reduction
    of, as :func:`~permutangle.qstate.reduce` gives it, else ``ValueError``; a
    (2, 2, 2) parent is measured in place of ``rho``. A batch of one of the
    campaigns' step, so it reproduces their records bit for bit.
    """
    _require_dims(rho, (2, 2), "a record")
    stack = rho.matrix[None]
    if parent is not None:
        amplitudes = parent.amplitudes[None]
        if not np.array_equal(rho.matrix, reduce_pure_stack(amplitudes, parent.dims, (1, 2))[0]):
            raise ValueError(f"rho is not the (1, 2) reduction of the {parent.dims} parent")
        if parent.dims == (2, 2, 2):
            stack = amplitudes  # measured through its reduction, which is rho
    m = measure_stack(stack)
    tau = None if m.tau is None else m.tau[0]
    return MeasureRecord(m.rank[0], m.c12[0], m.n12[0], m.r12[0], tau, family)


class _Kind(NamedTuple):
    """A kind of campaign sample: its family tag; ``draw(rng)``, one sample's
    generator outputs and nothing else; and ``build(draws)``, the stack of
    states of a list of draws, which does all the arithmetic on them once per
    chunk with the stacked forms of the scalar functions.

    A draw uses the stream as the scalar sampler does, and a build gives each
    row the bits the scalar functions give its draw alone. These array
    operations have the bits of their scalar counterparts (pinned by
    ``tests/test_qstate.py::TestArrayBits``): IEEE ``+ - * /`` and
    ``np.sqrt``; vectorized ``np.sin`` and ``np.cos``; ``np.float_power`` for
    Python's ``**``, where ``np.power`` and ``x * x`` round differently;
    ``np.vecdot`` rows for ``v.dot(v)``; and ``rng.random(k)`` for ``k``
    ``rng.random()`` calls. Where the drawn numbers decide how many more a
    sample draws (the Bell-diagonal rejection loop), the draw decides on
    Python floats with the same operations.
    """

    tag: str
    draw: Callable[[np.random.Generator], Any]
    build: Callable[[list], np.ndarray]


def _run_indexed(kinds: Sequence[_Kind], n: int, seed: int) -> Records:
    """Records of samples 0..n-1, measured in chunks of ``CHUNK_SIZE`` in index order.

    Sample ``i`` is of kind ``kinds[i % len(kinds)]`` and draws from the
    stream of ``(seed, i)`` (:func:`permutangle.qstate.substreams`). Each
    kind's share of a chunk is built as one stack, and one
    :func:`~permutangle.measures.measure_stack` call measures the chunk's
    stack, which gives each state the bits it gets alone: the bytes do not
    depend on the chunk size.
    """
    n = check_int(n, "sample count", 1, MAX_SAMPLES)
    m = len(kinds)
    columns: list[list] = [[] for _ in MeasureRecord._fields]
    for start in range(0, n, CHUNK_SIZE):
        chunk = range(start, min(start + CHUNK_SIZE, n))
        draws = [kinds[i % m].draw(rng) for rng, i in zip(substreams(seed, chunk), chunk)]
        # kind j's samples sit at every m-th place of the chunk
        shares = [(slice((j - start) % m, None, m), kind) for j, kind in enumerate(kinds)]
        parts = [(rows, kind.build(draws[rows])) for rows, kind in shares if draws[rows]]
        stack = np.empty((len(draws), *parts[0][1].shape[1:]), dtype=complex)
        for rows, part in parts:
            stack[rows] = part
        measured = measure_stack(stack)
        taus = [None] * len(draws) if measured.tau is None else measured.tau
        tags = [kinds[i % m].tag for i in chunk]
        for column, values in zip(columns, (*measured[:4], taus, tags)):
            column.extend(values)
    return Records(*columns)


def scatter(dims: Sequence[int], n: int, seed: int) -> Records:
    """Haar-random states reduced to qubits (1, 2), one record each: two-qubit pure
    states for dims (2, 2), tripartite ones whose reduction has rank <= k for (2, 2, k)."""
    dims = tuple(dims)
    if not (all(map(is_int, dims)) and dims in SCATTER_DIMS):
        raise DimensionError(f"unsupported scatter dims {dims}; supported: {SCATTER_DIMS}")
    dims = tuple(map(int, dims))
    family = "haar_" + "x".join(str(d) for d in dims)
    size = math.prod(dims)

    def build(parts: list) -> np.ndarray:
        amplitudes = haar_amplitudes(np.array(parts))
        if len(dims) == 2:  # a reduction over a one-dimensional factor would round differently
            return projector_stack(amplitudes)
        # a (2, 2, 2) state is its own tangle parent, which the kernel reduces itself
        return amplitudes if dims[2] == 2 else reduce_pure_stack(amplitudes, dims, (1, 2))

    return _run_indexed((_Kind(family, lambda rng: haar_draw(size, rng), build),), n, seed)


_ANSATZ1_EIGVECS = np.column_stack(
    [families.BELL_PSI_PLUS, families.BELL_PSI_MINUS, families.BELL_PHI_PLUS]
)


def _ansatz1_stack(draws: list, eps: float) -> np.ndarray:
    u = np.array(draws)  # p, theta/pi, phi/(2 pi)
    base = families.state_stack("ansatz1", p=u[:, 0])
    weights = fixed_eigvecs_weights_stack(u[:, 1:])
    return mix_stack(base, fixed_eigvecs_stack(_ANSATZ1_EIGVECS, weights), eps)


def _werner_stack(draws: list, eps: float) -> np.ndarray:
    p, parts = map(np.array, zip(*draws))
    base = families.state_stack("werner", p=p, bell="psi-")
    noise = reduce_pure_stack(haar_amplitudes(parts), (2, 2, 4), (1, 2))
    return mix_stack(base, noise, eps)


def _mems1_stack(draws: list, eps: float) -> np.ndarray:
    c, parts = map(np.array, zip(*draws))
    psi = families.state_stack("mems1_purification", c=c)
    return perturb_pure_stack(psi, haar_amplitudes(parts), eps)


#: kind -> (the draw: the base parameter's U[0, 1) draw, then the noise's;
#: the chunk's states from its draws and epsilon)
_PERTURBATIONS = {
    "ansatz1_fig4": (lambda rng: rng.random(3), _ansatz1_stack),
    "werner_fig5": (lambda rng: (rng.random(), haar_draw(16, rng)), _werner_stack),
    "mems1_fig8": (lambda rng: (rng.random(), haar_draw(8, rng)), _mems1_stack),
}
PERTURBATION_KINDS = tuple(_PERTURBATIONS)


def perturbation_campaign(
    kind: str, n: int, seed: int, epsilon: float = EPSILON
) -> Records:
    """Randomly perturbed boundary-family states, one record per sample.

    * ``ansatz1_fig4``: rank-3 Bell mixture plus a random state with the same
      Bell eigenvectors, base weight ~ U[0, 1].
    * ``werner_fig5``: rank-4 Werner state (psi- fiducial) plus the two-qubit
      reduction of a Haar (2, 2, 4) pure state.
    * ``mems1_fig8``: pure-state perturbation of the rank-2 boundary
      purification; records carry the tangle of the perturbed parent.
    """
    draw, states = check_key(kind, _PERTURBATIONS, "perturbation kind")
    epsilon = check_real(epsilon, "epsilon", 0.0)
    return _run_indexed((_Kind(kind, draw, lambda draws: states(draws, epsilon)),), n, seed)


def _product_mix_draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    terms = int(rng.integers(1, 4))
    # flat_dirichlet's exponentials, then the Haar blocks of u_1, v_1, u_2, ...:
    # the stream of 2 * terms haar_draw(2) calls
    return rng.standard_exponential(terms), rng.standard_normal((2 * terms, 2, 2))


def _product_mixes(draws: list) -> np.ndarray:
    """sum_t w_t |u_t><u_t| (x) |v_t><v_t| of each (exponentials, Haar blocks)
    draw, w the flat Dirichlet weights of the exponentials, one stack per term
    count, adding the terms in order."""
    rho = np.zeros((len(draws), 4, 4), dtype=complex)
    counts = np.array([len(e) for e, _ in draws])
    for terms in np.unique(counts):
        rows = np.flatnonzero(counts == terms)
        weights = families.flat_dirichlet_stack(np.array([draws[row][0] for row in rows]))
        projectors = projector_stack(haar_amplitudes(np.array([draws[row][1] for row in rows])))
        # np.kron of two 2x2 matrices is this broadcast product, reshaped
        u, v = projectors[:, 0::2, :, None, :, None], projectors[:, 1::2, None, :, None, :]
        kron = (u * v).reshape(len(rows), terms, 4, 4)
        for t in range(terms):
            rho[rows] += weights[:, t, None, None] * kron[:, t]
    return rho


def _cq_state_draw(rng: np.random.Generator) -> tuple:
    """The draws of ``sample_params("cq_state", rng)``: p, then a Bloch vector's
    ``standard_normal(3)`` and ``random()`` for a, then for b."""
    return rng.random(), rng.standard_normal(3), rng.random(), rng.standard_normal(3), rng.random()


def _cq_states(draws: list) -> np.ndarray:
    p, va, ua, vb, ub = map(np.array, zip(*draws))
    a, b = families.random_bloch_stack(va, ua), families.random_bloch_stack(vb, ub)
    return families.state_stack("cq_state", p=p, a=a, b=b)


def _bell_diagonal_separable_draw(rng: np.random.Generator) -> np.ndarray:
    """Four unit exponentials whose flat Dirichlet weights are at most 1/2:
    ``flat_dirichlet(rng, 4)`` until its largest weight is, on Python floats."""
    while True:
        e = rng.standard_exponential(4)
        x0, x1, x2, x3 = e.tolist()
        # rounding is monotone, so the largest weight is the largest exponential's
        if max(x0, x1, x2, x3) * (1.0 / (x0 + x1 + x2 + x3)) <= 0.5:
            return e


def _bell_diagonal_separables(draws: list) -> np.ndarray:
    weights = np.transpose(families.flat_dirichlet_stack(np.array(draws)))
    return families.state_stack("bell_diagonal", **dict(zip(("p1", "p2", "p3", "p4"), weights)))


#: The separable campaign's kinds, cycled in this order.
_SEPARABLE = (
    _Kind("product_mix", _product_mix_draw, _product_mixes),
    _Kind("cq_state", _cq_state_draw, _cq_states),
    _Kind("werner_separable", lambda rng: (1.0 / 3.0) * rng.random(),
          lambda ps: families.state_stack("werner", p=np.array(ps))),
    _Kind("bell_diagonal_separable", _bell_diagonal_separable_draw, _bell_diagonal_separables),
)


def separable_campaign(n: int, seed: int) -> Records:
    """Constructed-separable states for the witness check, cycling through
    product mixtures of at most 3 terms, classical-quantum states, separable
    Werner states (p <= 1/3) and Bell-diagonal states with spectrum in [0, 1/2]."""
    return _run_indexed(_SEPARABLE, n, seed)


# --------------------------------------------------------------------------
# region verification


#: region tag -> its margin of (c12, n12, r12, tau, tol)
_REGIONS: dict[str, Callable[..., float]] = {
    "prop1": lambda c, n, r, t, tol: max(-r, r - 1.0),
    "cr_rank2": lambda c, n, r, t, tol: max(c - r, r - math.sqrt(c)),
    "cr_rank2_lower": lambda c, n, r, t, tol: r - math.sqrt(c),
    "cr_rank3": lambda c, n, r, t, tol: (max(c - r, r - families.cr_rank3_r_bound(c))
                                         if c > tol else r - WITNESS_THRESHOLD),
    "cr_rank4": lambda c, n, r, t, tol: max(c - r, r - families.rank4_r_bound(c)),
    "r_geq_c": lambda c, n, r, t, tol: c - r,
    "nr_rank2": lambda c, n, r, t, tol: max(families.nr_rank2_n_lower(r) - n, n - r),
    "nr_rank2_lower": lambda c, n, r, t, tol: families.nr_rank2_n_lower(r) - n,
    "nr_rank3": lambda c, n, r, t, tol: (max(n - r, r - families.nr_rank3_r_bound(n))
                                         if n > tol else r - WITNESS_THRESHOLD),
    "nr_rank4": lambda c, n, r, t, tol: max(n - r, r - families.rank4_r_bound(n)),
    "witness_separable": lambda c, n, r, t, tol: r - WITNESS_THRESHOLD,
    "rc_tau_identity": lambda c, n, r, t, tol: abs(r**4 - c**2 * (c**2 + t)),
    "m3ts_max_tau": lambda c, n, r, t, tol: t - (1.0 - c**2),
}
#: The tau identities: they need the tau field, and their tolerance is IDENTITY_TOL
#: (VIOLATION_TOL for the rest).
_TAU_REGIONS = ("rc_tau_identity", "m3ts_max_tau")

REGION_TAGS = tuple(_REGIONS)


def region_tolerance(region: str, tol: Optional[float] = None) -> float:
    """The tolerance :func:`verify` checks ``region`` at: ``tol`` (a real number,
    negative too) or, for None, the region's standard; a ``DomainError`` names
    an unknown region or a ``tol`` that is no finite real number."""
    check_key(region, _REGIONS, "region")
    if tol is None:
        tol = IDENTITY_TOL if region in _TAU_REGIONS else VIOLATION_TOL
    return check_real(tol, "tol")


def verify(
    records: Iterable[MeasureRecord],
    region: str,
    tol: Optional[float] = None,
) -> ViolationReport:
    """Count records outside an analytic region beyond tolerance.

    ``records`` is a :class:`Records` value or an iterable of rows, checked at
    :func:`region_tolerance`. The report lists up to ``MAX_OFFENDERS`` (index,
    margin) pairs of the worst offenders, NaN margins first (see
    :class:`ViolationReport`).
    """
    tol = region_tolerance(region, tol)
    margin_fn, needs_tau = _REGIONS[region], region in _TAU_REGIONS
    _, c12s, n12s, r12s, taus, _ = Records.of(records).columns
    worst = -math.inf
    total = 0
    offenders: list[tuple[int, float]] = []
    for total, (c12, n12, r12, tau) in enumerate(zip(c12s, n12s, r12s, taus), 1):
        # x - x is 0.0 exactly when x is finite: a non-finite measure gets a NaN margin
        spread = (c12 - c12) + (n12 - n12) + (r12 - r12)
        if tau is not None:
            spread += tau - tau
        elif needs_tau:
            raise ValueError(f"region {region!r} needs the tau field, record {total - 1} lacks it")
        try:
            margin = margin_fn(c12, n12, r12, tau, tol) if spread == 0.0 else math.nan
        except (ValueError, TypeError, OverflowError):  # outside the domain of the bound
            margin = math.nan
        if margin > worst or margin != margin:  # a NaN margin stays the worst
            worst = margin
        if not margin <= tol:
            offenders.append((total - 1, margin))
    if total == 0:
        raise ValueError("no records to verify")
    # NaN margins first, then the rest from the largest, each in index order
    worst_first = [pair for pair in offenders if pair[1] != pair[1]]
    finite = [pair for pair in offenders if pair[1] == pair[1]]
    worst_first += heapq.nlargest(MAX_OFFENDERS, finite, key=operator.itemgetter(1))
    return ViolationReport(
        region=region,
        tolerance=tol,
        total=total,
        violations=len(offenders),
        worst_margin=worst,
        offenders=tuple(worst_first[:MAX_OFFENDERS]),
    )


# --------------------------------------------------------------------------
# serialization (17 significant digits so datasets round-trip exactly)


def format_float(value: Optional[float]) -> str:
    """17 significant digits, so a float round-trips exactly; None -> ''."""
    if value is None:
        return ""
    return format(float(value), ".17g")


def _plain(column: Sequence[str]) -> Sequence[str]:
    """``column``, once :func:`~permutangle.errors.is_numeral` accepts its joined text."""
    text = "".join(column)
    if not is_numeral(text):
        raise ValueError(f"{text!r} holds whitespace, '_' or a non-ASCII character")
    return column


def _numbers(parse: Callable[[str], Any]) -> Callable[[Sequence[str]], list]:
    """A CSV column's parser of numbers: ``parse`` of each of its :func:`_plain` texts."""
    return lambda column: list(map(parse, _plain(column)))


def _optional_floats(column: Sequence[str]) -> list[Optional[float]]:
    """A CSV column's parser of optional floats: an empty text is None."""
    if "" not in _plain(column):
        return list(map(float, column))
    return [float(text) if text else None for text in column]


def _of_types(*types: type) -> Callable[[Sequence], Sequence]:
    """A JSON column's check that each value has one of ``types`` (a bool is no int
    here); a column whose set of value types lies inside them passes as it is."""
    allowed = frozenset(types)

    def check(column):
        if not allowed.issuperset(map(type, column)):
            value = next(v for v in column if type(v) not in allowed)
            raise ValueError(f"{value!r} is not {' or '.join(t.__name__ for t in types)}")
        return column

    return check


#: A stored column's type -> (its conversion in a ``%`` row template, the
#: parser of its CSV texts, the check of its JSON values). ``%.17g`` spells a
#: float (or an int) as :func:`format_float` does.
_KINDS = {
    int: ("%d", _numbers(int), _of_types(int)),
    float: ("%.17g", _numbers(float), _of_types(int, float)),
    Optional[float]: ("%.17g", _optional_floats, _of_types(int, float, type(None))),
    str: ("%s", list, _of_types(str)),
}
#: The stored columns in file order: the record's position, then its fields.
_FIELDS = ("index", *MeasureRecord._fields)
_CSV_HEADER = ",".join(_FIELDS)
_CONVERSIONS, _FROM_TEXT, _FROM_JSON = zip(
    _KINDS[int], *(_KINDS[t] for t in get_type_hints(MeasureRecord).values())
)
_TAU = _FIELDS.index("tau")
#: A stored row's CSV line, and the line of a row without tau (``%.0s``
#: spells None as an empty field).
_CSV_ROW = ",".join(_CONVERSIONS) + "\n"
_CSV_ROW_NO_TAU = ",".join((*_CONVERSIONS[:_TAU], "%.0s", *_CONVERSIONS[_TAU + 1:])) + "\n"
#: A stored row's object as ``json.dumps(rows, indent=2)`` lays it out, each
#: value's JSON text in a ``%s``.
_JSON_ROW = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in _FIELDS) + "\n  }"
_FAMILY_TAG = re.compile("[A-Za-z0-9_]+")


def _check_families(column: Sequence[str]) -> None:
    """Family tags are of ``[A-Za-z0-9_]+``, so a CSV field needs no quoting; each
    distinct tag is matched once, and ``ValueError`` names the first bad record."""
    bad = [tag for tag in set(column) if not _FAMILY_TAG.fullmatch(tag)]
    if bad:
        position = min(map(column.index, bad))
        raise ValueError(f"record {position}: family {column[position]!r} is not of [A-Za-z0-9_]+")


def _parse_column(name: str, parse: Callable[[Sequence], Sequence], column: Sequence) -> Sequence:
    """``parse`` of a whole column; on a failure a pass over its values finds the record."""
    try:
        return parse(column)
    except ValueError:
        for position, value in enumerate(column):
            try:
                parse([value])
            except ValueError as exc:
                raise ValueError(f"record {position}: {name}: {exc}") from None
        raise


def _records(columns: Sequence[Sequence], parsers: Sequence[Callable]) -> Records:
    """Records from the stored columns in file order, each parsed as a whole.

    Every field must parse and the index must run 0..n-1 in order (so
    :func:`verify`'s offender indices are the stored ones), else
    ``ValueError`` names a bad record; ranges are for :func:`verify`.
    """
    index, *columns = map(_parse_column, _FIELDS, parsers, columns)
    _check_families(columns[-1])
    if index != list(range(len(index))):
        bad = next(p for p, i in enumerate(index) if i != p)
        raise ValueError(f"record {bad} has index {index[bad]}; expected 0..n-1 in order")
    return Records(*columns)


def _stored_columns(records: Iterable[MeasureRecord]) -> list[Sequence]:
    """The stored columns of records or of rows, ``index`` first, after the family check."""
    columns = Records.of(records).columns
    _check_families(columns[-1])
    return [range(len(columns[0])), *columns]


def records_csv_bytes(records: Iterable[MeasureRecord]) -> bytes:
    lines = [(_CSV_ROW if row[_TAU] is not None else _CSV_ROW_NO_TAU) % row
             for row in zip(*_stored_columns(records))]
    return "".join([_CSV_HEADER, "\n", *lines]).encode("utf-8")


def write_records_csv(records: Iterable[MeasureRecord], path) -> Path:
    path = Path(path)
    path.write_bytes(records_csv_bytes(records))
    return path


def read_records_csv(source) -> Records:
    """Parse a records CSV produced by :func:`write_records_csv` (see :func:`_records`).

    Lines end at ``\\n`` or ``\\r\\n`` only; blank ones are skipped, and every
    other line after the header holds the seven fields. The body is split at
    its commas once, so field ``k`` of line ``j`` is item ``7 j + k``.
    """
    if not hasattr(source, "read"):
        with open(source, encoding="utf-8", newline="") as file:
            return read_records_csv(file)
    text = source.read()
    lines = [ln for ln in (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
             if ln.strip()]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError(f"bad records CSV header: {lines[0] if lines else '<empty>'!r}")
    body = lines[1:]
    commas = [ln.count(",") for ln in body]  # one fewer than the line's fields
    if commas.count(len(_FIELDS) - 1) != len(commas):
        position = next(p for p, count in enumerate(commas) if count != len(_FIELDS) - 1)
        raise ValueError(f"record {position} has {commas[position] + 1} fields; "
                         f"expected {_CSV_HEADER}")
    fields = ",".join(body).split(",") if body else []
    return _records([fields[k::len(_FIELDS)] for k in range(len(_FIELDS))], _FROM_TEXT)


def records_to_json(records: Iterable[MeasureRecord]) -> str:
    """The text of ``json.dumps(rows, indent=2)`` for the list of row objects.

    The values are spelled by the json module, a column per ``json.dumps``
    call without indent; no value's text holds ", ", so a split takes them apart.
    """
    columns = _stored_columns(records)
    if not columns[0]:
        return "[]"
    texts = [json.dumps(list(column))[1:-1].split(", ") for column in columns]
    return "[\n" + ",\n".join(map(_JSON_ROW.__mod__, zip(*texts))) + "\n]"


def records_from_json(text: str) -> Records:
    """Parse :func:`records_to_json` output; indices must run 0..n-1 in order."""
    try:
        rows = json.loads(text)
    except RecursionError:
        raise ValueError("records JSON is nested too deeply") from None
    if not isinstance(rows, list):
        raise ValueError(f"records JSON must be a list of records, got {type(rows).__name__}")
    keys = set(_FIELDS)
    for position, row in enumerate(rows):
        if not isinstance(row, dict) or row.keys() != keys:
            raise ValueError(f"record {position} must be an object with the fields {_CSV_HEADER}")
    return _records([list(map(operator.itemgetter(name), rows)) for name in _FIELDS], _FROM_JSON)


# --------------------------------------------------------------------------
# figure datasets


@dataclass(frozen=True)
class _FigureSpec:
    scatter: Optional[tuple] = None  # ("haar", dims) | ("haar_pair", d1, d2) | ("perturb", kind)
    n: int = 10_000
    curves: tuple[str, ...] = ()  # boundary curve tags
    regions: tuple[tuple[str, Optional[str]], ...] = ()  # (region, family filter)


_FIGURES: dict[int, _FigureSpec] = {
    1: _FigureSpec(
        scatter=("haar", (2, 2, 2)),
        curves=("cr_rank2_upper", "cr_rank2_lower"),
        regions=(("cr_rank2", None), ("rc_tau_identity", None)),
    ),
    2: _FigureSpec(
        scatter=("haar", (2, 2, 2)),
        curves=("m3ts_tau",),
        regions=(("m3ts_max_tau", None),),
    ),
    3: _FigureSpec(
        scatter=("haar_pair", (2, 2, 3), (2, 2, 4)),
        curves=("cr_rank2_upper", "cr_rank2_lower", "cr_rank3", "cr_rank4"),
        regions=(("cr_rank3", "haar_2x2x3"), ("cr_rank4", None)),
    ),
    4: _FigureSpec(
        scatter=("perturb", "ansatz1_fig4"),
        n=20_000,
        curves=("cr_rank2_upper", "cr_rank3"),
        regions=(("cr_rank3", None),),
    ),
    5: _FigureSpec(
        scatter=("perturb", "werner_fig5"),
        n=20_000,
        curves=("cr_rank2_upper", "cr_rank4"),
        regions=(("cr_rank4", None),),
    ),
    6: _FigureSpec(curves=("cr_rank2_upper", "cr_rank2_lower", "cr_rank3", "cr_rank4")),
    7: _FigureSpec(
        scatter=("haar", (2, 2, 2)),
        n=20_000,
        curves=("nr_rank2_upper", "nr_rank2_lower"),
        regions=(("nr_rank2", None),),
    ),
    8: _FigureSpec(
        scatter=("perturb", "mems1_fig8"),
        curves=("nr_rank2_upper", "nr_rank2_lower"),
        regions=(("nr_rank2", None),),
    ),
    9: _FigureSpec(
        scatter=("haar", (2, 2, 3)),
        n=20_000,
        curves=("nr_rank2_upper", "nr_rank2_lower", "nr_rank3"),
        regions=(("nr_rank3", None),),
    ),
    10: _FigureSpec(
        scatter=("haar", (2, 2, 4)),
        n=20_000,
        curves=("nr_rank2_upper", "nr_rank2_lower", "nr_rank4"),
        regions=(("nr_rank4", None),),
    ),
    11: _FigureSpec(curves=("nr_rank2_upper", "nr_rank2_lower", "nr_rank3", "nr_rank4")),
}
FIGURE_IDS = tuple(_FIGURES)


def figure_dataset(fig_id: int, out_dir, n: Optional[int] = None, seed: int = 0) -> dict[str, Path]:
    """Write ``fig<k>_scatter.csv`` (when the figure has a scatter),
    ``fig<k>_curve_<tag>.csv`` (the bytes of ``permutangle curve --id <tag>``:
    :func:`families.curve_csv_bytes`) and ``fig<k>_meta.json``,
    the configuration and region-violation summaries, for one figure.
    """
    fig_id = check_int(fig_id, "figure id", FIGURE_IDS[0], FIGURE_IDS[-1])
    fig = _FIGURES[fig_id]
    seed = check_int(seed, "seed", 0)
    if n is not None:
        n = check_int(n, "sample count", 1, MAX_SAMPLES)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    records = Records()
    config: dict = {"figure": fig_id, "seed": seed, "curve_points": families.CURVE_POINTS}
    if fig.scatter is not None:
        count = fig.n if n is None else n
        config["n"] = count
        mode = fig.scatter[0]
        if mode == "haar":
            records = scatter(fig.scatter[1], count, seed)
            config.update(kind="scatter", dims=list(fig.scatter[1]))
        elif mode == "haar_pair":
            records = scatter(fig.scatter[1], count, seed)
            records += scatter(fig.scatter[2], count, seed + 1)
            config.update(kind="scatter_pair", dims=[list(fig.scatter[1]), list(fig.scatter[2])])
        else:
            kind = fig.scatter[1]
            records = perturbation_campaign(kind, count, seed, EPSILON)
            config.update(kind=kind, epsilon=EPSILON,
                          base_parameter="uniform over the family domain, per sample")
        path = out_dir / f"fig{fig_id}_scatter.csv"
        path.write_bytes(records_csv_bytes(records))
        written["scatter"] = path

    for tag in fig.curves:
        path = out_dir / f"fig{fig_id}_curve_{tag}.csv"
        path.write_bytes(families.curve_csv_bytes(tag, families.CURVE_POINTS))
        written[f"curve_{tag}"] = path

    reports = []
    for region, family_filter in fig.regions:
        subset = records
        if family_filter is not None:
            keep = [family == family_filter for family in records.columns[-1]]
            subset = Records(*(itertools.compress(col, keep) for col in records.columns))
        report = verify(subset, region).to_dict()
        if family_filter is not None:
            report["family_filter"] = family_filter
        reports.append(report)

    meta = {"config": config, "files": sorted(p.name for p in written.values()),
            "regions": reports}
    meta_path = out_dir / f"fig{fig_id}_meta.json"
    meta_path.write_bytes(json.dumps(meta, indent=2, sort_keys=True).encode("utf-8"))
    written["meta"] = meta_path
    return written
