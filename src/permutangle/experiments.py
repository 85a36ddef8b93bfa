"""Reproduction campaigns: scatter datasets, perturbation sweeps, region checks.

Sample ``i`` of a campaign is a pure function of ``(seed, i)`` via its own
random substream. Campaigns run in chunks of ``CHUNK_SIZE`` samples, in index
order; a chunk builds its samples one substream at a time, stacks them, and
measures the whole chunk in one call of the stacked kernel
:func:`permutangle.measures.measure_stack`. The kernel gives each state the
bits it gets alone, and :func:`build_record` is a batch of one of it, so
output is byte-identical regardless of chunk size.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import families
from .errors import DimensionError, DomainError
from .measures import WITNESS_THRESHOLD, measure_stack
from .qstate import (
    DensityMatrix,
    PureState,
    State,
    haar_random_pure,
    mix,
    perturb_pure,
    random_fixed_eigvecs,
    reduce,
    reduce_pure_stack,
    substream,
)
from .qstate import _trusted_dm

CHUNK_SIZE = 512
VIOLATION_TOL = 1e-9
IDENTITY_TOL = 1e-8

SCATTER_DIMS = ((2, 2), (2, 2, 2), (2, 2, 3), (2, 2, 4))
#: The perturbation strength of figures 4, 5 and 8 and the campaigns' default.
EPSILON = 0.51
#: How many of the worst offenders a ViolationReport lists.
MAX_OFFENDERS = 10


@dataclass(frozen=True)
class MeasureRecord:
    """The measures of one campaign sample, as stored in records CSV/JSON.

    ``tau`` is present only when the record descends from a three-qubit pure
    parent; otherwise it is None (an empty CSV field, a JSON null).
    """

    rank: int
    c12: float
    n12: float
    r12: float
    tau: Optional[float]
    family: str


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of checking records against an analytic region.

    ``worst_margin`` is signed: the largest excess beyond the region over all
    records (negative values mean everything sat strictly inside). A record
    with a non-finite measure has a NaN margin, which counts as a violation
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


#: One campaign sample: the state to measure, its (2, 2, 2) pure parent or
#: None, and the family tag. The state is a two-qubit density matrix, or a
#: pure state over (2, 2, d) whose (1, 2) reduction is measured; the chunk
#: reduces those all at once.
Sample = tuple[State, Optional[PureState], str]


def build_record(
    rho: DensityMatrix, parent: Optional[PureState], family: str
) -> MeasureRecord:
    """Measure a two-qubit state; tau only when a (2,2,2) pure parent exists.

    A batch of one of the campaigns' stacked kernel, so it reproduces their
    records bit for bit.
    """
    if parent is not None and parent.dims != (2, 2, 2):
        parent = None
    return _measure([(rho, parent, family)])[0]


def _measure(samples: Sequence[Sample]) -> list[MeasureRecord]:
    """Records of a chunk of samples from one :func:`measure_stack` call.

    Every sample's state has the type and dims of the first, and either
    every sample carries a (2, 2, 2) parent or none does.
    """
    first = samples[0][0]
    pure = isinstance(first, PureState)
    if first.dims[:2] != (2, 2) or (not pure and len(first.dims) != 2):
        raise DimensionError(f"records are defined for two qubits, got dims {first.dims}")
    for state, _, _ in samples:
        if state.dims != first.dims or isinstance(state, PureState) != pure:
            raise DimensionError(f"a chunk mixes states over {first.dims} and {state.dims}")
    if pure:
        amplitudes = np.stack([psi.amplitudes for psi, _, _ in samples])
        rhos = reduce_pure_stack(amplitudes, first.dims, (1, 2))
    else:
        rhos = np.stack([rho.matrix for rho, _, _ in samples])
    parents = None
    if samples[0][1] is not None:
        parents = np.stack([parent.amplitudes for _, parent, _ in samples])
    m = measure_stack(rhos, parents)
    taus = [None] * len(samples) if m.tau is None else m.tau
    return [
        MeasureRecord(rank=rank, c12=c12, n12=n12, r12=r12, tau=tau, family=family)
        for rank, c12, n12, r12, tau, (_, _, family) in zip(
            m.rank, m.c12, m.n12, m.r12, taus, samples
        )
    ]


def _run_indexed(sample_fn: Callable[[int], Sample], n: int) -> list[MeasureRecord]:
    """Measure sample_fn(0..n-1) in chunks of ``CHUNK_SIZE``, in index order."""
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    records: list[MeasureRecord] = []
    for start in range(0, n, CHUNK_SIZE):
        records += _measure([sample_fn(i) for i in range(start, min(start + CHUNK_SIZE, n))])
    return records


def scatter(dims: Sequence[int], n: int, seed: int) -> list[MeasureRecord]:
    """Haar-random states reduced to qubits (1, 2), measured one record each.

    dims (2, 2) samples two-qubit pure states directly (rank-1 records);
    (2, 2, k) samples tripartite pure states whose reduction has rank <= k.
    """
    dims = tuple(int(d) for d in dims)
    if dims not in SCATTER_DIMS:
        raise DimensionError(f"unsupported scatter dims {dims}; supported: {SCATTER_DIMS}")
    family = "haar_" + "x".join(str(d) for d in dims)

    def one(index: int) -> Sample:
        rng = substream(seed, index)
        psi = haar_random_pure(dims, rng)
        if len(dims) == 2:
            return psi.density_matrix(), None, family
        return psi, psi if dims == (2, 2, 2) else None, family

    return _run_indexed(one, n)


_ANSATZ1_EIGVECS = np.column_stack(
    [families.BELL_PSI_PLUS, families.BELL_PSI_MINUS, families.BELL_PHI_PLUS]
)


def _perturbed_ansatz1(index: int, seed: int, eps: float) -> Sample:
    rng = substream(seed, index)
    p = rng.uniform(0.0, 1.0)
    base = families.make_state("ansatz1", p=p)
    noise = random_fixed_eigvecs(_ANSATZ1_EIGVECS, rng, dims=(2, 2))
    return mix(base, noise, eps), None, "ansatz1_fig4"


def _perturbed_werner(index: int, seed: int, eps: float) -> Sample:
    rng = substream(seed, index)
    p = rng.uniform(0.0, 1.0)
    base = families.make_state("werner", p=p, bell="psi-")
    noise = reduce(haar_random_pure((2, 2, 4), rng), (1, 2))
    return mix(base, noise, eps), None, "werner_fig5"


def _perturbed_mems1(index: int, seed: int, eps: float) -> Sample:
    rng = substream(seed, index)
    c = rng.uniform(0.0, 1.0)
    psi = families.make_state("mems1_purification", c=c)
    phi = perturb_pure(psi, haar_random_pure((2, 2, 2), rng), eps)
    return phi, phi, "mems1_fig8"


_PERTURBATIONS = {
    "ansatz1_fig4": _perturbed_ansatz1,
    "werner_fig5": _perturbed_werner,
    "mems1_fig8": _perturbed_mems1,
}
PERTURBATION_KINDS = tuple(_PERTURBATIONS)


def perturbation_campaign(
    kind: str, n: int, seed: int, epsilon: float = EPSILON
) -> list[MeasureRecord]:
    """Randomly perturbed boundary-family states, one record per sample.

    * ``ansatz1_fig4``: rank-3 Bell mixture plus a random state with the same
      Bell eigenvectors, base weight ~ U[0, 1].
    * ``werner_fig5``: rank-4 Werner state (psi- fiducial) plus the two-qubit
      reduction of a Haar (2, 2, 4) pure state.
    * ``mems1_fig8``: pure-state perturbation of the rank-2 boundary
      purification; records carry the tangle of the perturbed parent.
    """
    if kind not in _PERTURBATIONS:
        raise DomainError(f"unknown perturbation kind {kind!r}; known: {PERTURBATION_KINDS}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon}")
    fn = _PERTURBATIONS[kind]
    return _run_indexed(lambda i: fn(i, seed, epsilon), n)


def _separable_sample(index: int, seed: int) -> Sample:
    rng = substream(seed, index)
    kind = index % 4
    if kind == 0:
        terms = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(terms))
        rho = np.zeros((4, 4), dtype=complex)
        for w in weights:
            u = haar_random_pure((2,), rng).amplitudes
            v = haar_random_pure((2,), rng).amplitudes
            rho += w * np.kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
        return _trusted_dm((2, 2), rho), None, "product_mix"
    if kind == 1:
        params = families.sample_params("cq_state", rng)
        return families.make_state("cq_state", **params), None, "cq_state"
    if kind == 2:
        state = families.make_state("werner", p=rng.uniform(0.0, 1.0 / 3.0))
        return state, None, "werner_separable"
    while True:
        p = rng.dirichlet(np.ones(4))
        if p.max() <= 0.5:
            break
    state = families.make_state("bell_diagonal", p1=p[0], p2=p[1], p3=p[2], p4=p[3])
    return state, None, "bell_diagonal_separable"


def separable_campaign(n: int, seed: int) -> list[MeasureRecord]:
    """Constructed-separable states for the witness check.

    Cycles through product mixtures with at most 3 terms, classical-quantum
    states, separable Werner states (p <= 1/3), and Bell-diagonal states with
    spectrum inside [0, 1/2].
    """
    return _run_indexed(lambda i: _separable_sample(i, seed), n)


# --------------------------------------------------------------------------
# region verification


def _m_prop1(rec: MeasureRecord, tol: float) -> float:
    return max(-rec.r12, rec.r12 - 1.0)


def _m_cr_rank2(rec: MeasureRecord, tol: float) -> float:
    return max(rec.c12 - rec.r12, rec.r12 - math.sqrt(rec.c12))


def _m_cr_rank2_lower(rec: MeasureRecord, tol: float) -> float:
    return rec.r12 - math.sqrt(rec.c12)


def _m_cr_rank3(rec: MeasureRecord, tol: float) -> float:
    if rec.c12 > tol:
        return max(rec.c12 - rec.r12, rec.r12 - families.cr_rank3_r_bound(rec.c12))
    return rec.r12 - WITNESS_THRESHOLD


def _m_cr_rank4(rec: MeasureRecord, tol: float) -> float:
    return max(rec.c12 - rec.r12, rec.r12 - families.rank4_r_bound(rec.c12))


def _m_r_geq_c(rec: MeasureRecord, tol: float) -> float:
    return rec.c12 - rec.r12


def _m_nr_rank2(rec: MeasureRecord, tol: float) -> float:
    return max(families.nr_rank2_n_lower(rec.r12) - rec.n12, rec.n12 - rec.r12)


def _m_nr_rank2_lower(rec: MeasureRecord, tol: float) -> float:
    return families.nr_rank2_n_lower(rec.r12) - rec.n12


def _m_nr_rank3(rec: MeasureRecord, tol: float) -> float:
    if rec.n12 > tol:
        return max(rec.n12 - rec.r12, rec.r12 - families.nr_rank3_r_bound(rec.n12))
    return rec.r12 - WITNESS_THRESHOLD


def _m_nr_rank4(rec: MeasureRecord, tol: float) -> float:
    return max(rec.n12 - rec.r12, rec.r12 - families.rank4_r_bound(rec.n12))


def _m_witness(rec: MeasureRecord, tol: float) -> float:
    return rec.r12 - WITNESS_THRESHOLD


def _m_rc_tau(rec: MeasureRecord, tol: float) -> float:
    return abs(rec.r12**4 - rec.c12**2 * (rec.c12**2 + rec.tau))


def _m_m3ts_max(rec: MeasureRecord, tol: float) -> float:
    return rec.tau - (1.0 - rec.c12**2)


#: region tag -> (margin function, default tolerance, needs tau)
_REGIONS: dict[str, tuple[Callable[[MeasureRecord, float], float], float, bool]] = {
    "prop1": (_m_prop1, VIOLATION_TOL, False),
    "cr_rank2": (_m_cr_rank2, VIOLATION_TOL, False),
    "cr_rank2_lower": (_m_cr_rank2_lower, VIOLATION_TOL, False),
    "cr_rank3": (_m_cr_rank3, VIOLATION_TOL, False),
    "cr_rank4": (_m_cr_rank4, VIOLATION_TOL, False),
    "r_geq_c": (_m_r_geq_c, VIOLATION_TOL, False),
    "nr_rank2": (_m_nr_rank2, VIOLATION_TOL, False),
    "nr_rank2_lower": (_m_nr_rank2_lower, VIOLATION_TOL, False),
    "nr_rank3": (_m_nr_rank3, VIOLATION_TOL, False),
    "nr_rank4": (_m_nr_rank4, VIOLATION_TOL, False),
    "witness_separable": (_m_witness, VIOLATION_TOL, False),
    "rc_tau_identity": (_m_rc_tau, IDENTITY_TOL, True),
    "m3ts_max_tau": (_m_m3ts_max, IDENTITY_TOL, True),
}

REGION_TAGS = tuple(_REGIONS)


def verify(
    records: Iterable[MeasureRecord],
    region: str,
    tol: Optional[float] = None,
) -> ViolationReport:
    """Count records outside an analytic region beyond tolerance.

    Returns the signed worst margin along with up to ``MAX_OFFENDERS``
    (index, margin) pairs for the worst offenders.
    """
    if region not in _REGIONS:
        raise DomainError(f"unknown region {region!r}; known: {REGION_TAGS}")
    margin_fn, default_tol, needs_tau = _REGIONS[region]
    tol = default_tol if tol is None else float(tol)
    worst = -math.inf
    total = 0
    offenders: list[tuple[int, float]] = []
    for idx, rec in enumerate(records):
        if needs_tau and rec.tau is None:
            raise ValueError(f"region {region!r} needs the tau field, record {idx} lacks it")
        # x - x is 0.0 exactly when x is finite: a record with a non-finite
        # measure gets a NaN margin, which counts as a violation
        spread = (rec.c12 - rec.c12) + (rec.n12 - rec.n12) + (rec.r12 - rec.r12)
        if rec.tau is not None:
            spread += rec.tau - rec.tau
        margin = margin_fn(rec, tol) if spread == 0.0 else math.nan
        total += 1
        if margin > worst or margin != margin:  # a NaN margin stays the worst
            worst = margin
        if not margin <= tol:
            offenders.append((idx, margin))
    if total == 0:
        raise ValueError("no records to verify")
    offenders.sort(key=lambda pair: (not math.isnan(pair[1]), -pair[1]))
    return ViolationReport(
        region=region,
        tolerance=tol,
        total=total,
        violations=len(offenders),
        worst_margin=worst,
        offenders=tuple(offenders[:MAX_OFFENDERS]),
    )


# --------------------------------------------------------------------------
# serialization (17 significant digits so datasets round-trip exactly)


def format_float(value: Optional[float]) -> str:
    """17 significant digits, so a float round-trips exactly; None -> ''."""
    if value is None:
        return ""
    return format(float(value), ".17g")


def _of_type(*types: type) -> Callable:
    """A check that a JSON value has one of ``types`` (a bool is no int here)."""

    def check(value):
        if type(value) not in types:
            raise ValueError(f"{value!r} is not {' or '.join(t.__name__ for t in types)}")
        return value

    return check


#: A stored column's annotation -> (its CSV text, its parser from CSV text,
#: the check of its JSON value).
_KINDS = {
    "int": (str, int, _of_type(int)),
    "float": (format_float, float, _of_type(int, float)),
    "Optional[float]": (format_float, lambda text: float(text) if text else None,
                        _of_type(int, float, type(None))),
    "str": (str, str, _of_type(str)),
}
#: The stored columns in file order: the record's position, then its fields.
_FIELDS = ("index",) + tuple(f.name for f in fields(MeasureRecord))
_CSV_HEADER = ",".join(_FIELDS)
_TO_TEXT, _FROM_TEXT, _FROM_JSON = zip(
    _KINDS["int"], *(_KINDS[f.type] for f in fields(MeasureRecord))
)
_values = operator.attrgetter(*_FIELDS[1:])
_FAMILY_TAG = re.compile("[A-Za-z0-9_]+")


def _check_families(column: Sequence[str]) -> None:
    """Family tags are of ``[A-Za-z0-9_]+``, so a CSV field needs no quoting.

    Each distinct tag is matched once; ``ValueError`` names the first bad record.
    """
    bad = [tag for tag in set(column) if not _FAMILY_TAG.fullmatch(tag)]
    if bad:
        position = min(map(column.index, bad))
        raise ValueError(f"record {position}: family {column[position]!r} is not of [A-Za-z0-9_]+")


def _parse_column(name: str, parse: Callable, column: Sequence) -> list:
    """``parse`` applied down a column; on a failure a second pass finds the record."""
    try:
        return list(map(parse, column))
    except ValueError:
        for position, value in enumerate(column):
            try:
                parse(value)
            except ValueError as exc:
                raise ValueError(f"record {position}: {name}: {exc}") from None
        raise


def _records(rows: Sequence[Sequence], parsers: Sequence[Callable]) -> list[MeasureRecord]:
    """Records from rows of column values in file order, parsed a column at a time.

    Every row must hold every field, every field must parse and the index must
    run 0..n-1 in order (so :func:`verify`'s offender indices are the stored
    ones); otherwise ``ValueError`` names a bad record. Ranges are for :func:`verify`.
    """
    for position, row in enumerate(rows):
        if len(row) != len(_FIELDS):
            raise ValueError(f"record {position} has {len(row)} fields; expected {_CSV_HEADER}")
    if not rows:
        return []
    index, *columns = map(_parse_column, _FIELDS, parsers, zip(*rows))
    _check_families(columns[-1])
    bad = [p for p, i in enumerate(index) if i != p]
    if bad:
        raise ValueError(f"record {bad[0]} has index {index[bad[0]]}; expected 0..n-1 in order")
    return list(map(MeasureRecord, *columns))


def records_csv_bytes(records: Iterable[MeasureRecord]) -> bytes:
    rows = list(map(_values, records))
    columns = [range(len(rows)), *zip(*rows)]
    _check_families(columns[-1])
    texts = [map(to_text, column) for to_text, column in zip(_TO_TEXT, columns)]
    return ("\n".join([_CSV_HEADER, *map(",".join, zip(*texts))]) + "\n").encode("utf-8")


def write_records_csv(records: Iterable[MeasureRecord], path) -> Path:
    path = Path(path)
    path.write_bytes(records_csv_bytes(records))
    return path


def read_records_csv(source) -> list[MeasureRecord]:
    """Parse a records CSV produced by :func:`write_records_csv`.

    The index column must run 0..n-1 in order; see :func:`_records`.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError(f"bad records CSV header: {lines[0] if lines else '<empty>'!r}")
    return _records([ln.split(",") for ln in lines[1:]], _FROM_TEXT)


def records_to_json(records: Iterable[MeasureRecord]) -> str:
    payload = [dict(zip(_FIELDS, (idx,) + _values(rec))) for idx, rec in enumerate(records)]
    _check_families([row["family"] for row in payload])
    return json.dumps(payload, indent=2)


def records_from_json(text: str) -> list[MeasureRecord]:
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
    return _records(list(map(operator.itemgetter(*_FIELDS), rows)), _FROM_JSON)


# --------------------------------------------------------------------------
# figure datasets

CURVE_POINTS = 512


@dataclass(frozen=True)
class _FigureSpec:
    scatter: Optional[tuple] = None  # ("haar", dims) | ("haar_pair", d1, d2) | ("perturb", kind)
    n: int = 10_000
    curves: tuple[str, ...] = ()  # boundary curve tags, or "m3ts_tau"
    regions: tuple[tuple[str, Optional[str]], ...] = ()  # (region, family filter)


_FIGURES: dict[int, _FigureSpec] = {
    1: _FigureSpec(
        scatter=("haar", (2, 2, 2)),
        n=10_000,
        curves=("cr_rank2_upper", "cr_rank2_lower"),
        regions=(("cr_rank2", None), ("rc_tau_identity", None)),
    ),
    2: _FigureSpec(
        scatter=("haar", (2, 2, 2)),
        n=10_000,
        curves=("m3ts_tau",),
        regions=(("m3ts_max_tau", None),),
    ),
    3: _FigureSpec(
        scatter=("haar_pair", (2, 2, 3), (2, 2, 4)),
        n=10_000,
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
        n=10_000,
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


def curve_csv_bytes(tag: str, points: int) -> bytes:
    """A boundary curve (or the m3ts tau curve) on ``points`` grid points as CSV."""
    if tag == "m3ts_tau":
        xs = np.linspace(0.0, 1.0, points)
        rows = [(x, 1.0 - x * x) for x in xs]
        header = "c12,tau"
    else:
        xs = families.curve_grid(tag, points)
        rows = families.boundary_curve(tag, xs)
        header = "r12,c12" if tag.startswith("cr_") else "r12,n12"
    lines = [header] + [f"{format_float(x)},{format_float(y)}" for x, y in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def figure_dataset(fig_id: int, out_dir, n: Optional[int] = None, seed: int = 0) -> dict[str, Path]:
    """Write the scatter, curve, and metadata files for one figure.

    Layout: ``fig<k>_scatter.csv`` (when the figure has a scatter),
    ``fig<k>_curve_<tag>.csv`` on a 512-point grid, and ``fig<k>_meta.json``
    recording the configuration and region-violation summaries.
    """
    if fig_id not in _FIGURES:
        raise DomainError(f"unknown figure id {fig_id}; known: 1..11")
    fig = _FIGURES[fig_id]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    records: list[MeasureRecord] = []
    config: dict = {"figure": fig_id, "seed": seed, "curve_points": CURVE_POINTS}
    if fig.scatter is not None:
        count = fig.n if n is None else int(n)
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
        path.write_bytes(curve_csv_bytes(tag, CURVE_POINTS))
        written[f"curve_{tag}"] = path

    reports = []
    for region, family_filter in fig.regions:
        subset = records if family_filter is None else [
            r for r in records if r.family == family_filter
        ]
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
