"""The four workloads: what one operation does, its checks, and its replay.

Each workload is built from ``--seed`` alone. ``op()`` is the timed
operation; ``check()`` compares its outputs with the independent computations
in ``oracles`` and returns a list of problems; ``replay()`` repeats the
operation's items stage by stage under a tracer, for the per-layer figures.
All program calls go through module attributes, so the tracer sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np

import oracles
from permutangle import cli, experiments, families, measures, qstate

#: Samples per campaign call: two full 512-sample chunks, so a two-worker
#: pool (the default on a 2-CPU host) gets equal shares, as at the paper's
#: n = 10 000 or 20 000, where 20 to 40 chunks spread evenly.
FIG_N = 1024
#: Ops use campaign seeds seed * SEED_STRIDE + op index.
SEED_STRIDE = 10_000
#: Indices rebuilt per campaign for the independent checks (crosses a chunk edge).
CHECK_INDICES = (0, 1, 2, 3, 257, 511, 512, 513, FIG_N - 1)

_CSV_HEADER = ["index", "rank", "c12", "n12", "r12", "tau", "family"]
_ANSATZ1_EIGVECS = np.column_stack(
    [families.BELL_PSI_PLUS, families.BELL_PSI_MINUS, families.BELL_PHI_PLUS]
)


# --------------------------------------------------------------------------
# per-sample constructors, mirroring the campaigns (the replay is pinned to
# the campaign's records, so a drift here shows as a check failure)


def _haar_222(seed, i, eps):
    psi = qstate.haar_random_pure((2, 2, 2), qstate.substream(seed, i))
    return qstate.reduce(psi, (1, 2)), psi, "haar_2x2x2"


def _mems1_fig8(seed, i, eps):
    rng = qstate.substream(seed, i)
    psi = families.make_state("mems1_purification", c=rng.uniform(0.0, 1.0))
    phi = qstate.perturb_pure(psi, qstate.haar_random_pure((2, 2, 2), rng), eps)
    return qstate.reduce(phi, (1, 2)), phi, "mems1_fig8"


def _ansatz1_fig4(seed, i, eps):
    rng = qstate.substream(seed, i)
    base = families.make_state("ansatz1", p=rng.uniform(0.0, 1.0))
    noise = qstate.random_fixed_eigvecs(_ANSATZ1_EIGVECS, rng, dims=(2, 2))
    return qstate.mix(base, noise, eps), None, "ansatz1_fig4"


def _werner_fig5(seed, i, eps):
    rng = qstate.substream(seed, i)
    base = families.make_state("werner", p=rng.uniform(0.0, 1.0), bell="psi-")
    noise = qstate.reduce(qstate.haar_random_pure((2, 2, 4), rng), (1, 2))
    return qstate.mix(base, noise, eps), None, "werner_fig5"


def _bloch(rng):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return tuple(v * rng.uniform() ** (1.0 / 3.0))


def _separable(seed, i, eps):
    rng = qstate.substream(seed, i)
    kind = i % 4
    if kind == 0:
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        rho = np.zeros((4, 4), dtype=complex)
        for w in weights:
            u = qstate.haar_random_pure((2,), rng).amplitudes
            v = qstate.haar_random_pure((2,), rng).amplitudes
            rho += w * np.kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
        return qstate.DensityMatrix((2, 2), rho), None, "product_mix"
    if kind == 1:
        p = rng.uniform(0.0, 1.0)
        a = _bloch(rng)
        state = families.make_state("cq_state", p=p, a=a, b=_bloch(rng))
        return state, None, "cq_state"
    if kind == 2:
        return families.make_state("werner", p=rng.uniform(0.0, 1.0 / 3.0)), None, "werner_separable"
    while True:
        p = rng.dirichlet(np.ones(4))
        if p.max() <= 0.5:
            break
    state = families.make_state("bell_diagonal", p1=p[0], p2=p[1], p3=p[2], p4=p[3])
    return state, None, "bell_diagonal_separable"


def _parse_csv(data: str) -> list[tuple]:
    """Records CSV -> (index, rank, c12, n12, r12, tau, family), by stdlib csv."""
    reader = csv.reader(io.StringIO(data))
    if next(reader) != _CSV_HEADER:
        raise ValueError("records CSV header differs")
    return [
        (int(i), int(k), float(c), float(n), float(r), float(t) if t else None, fam)
        for i, k, c, n, r, t, fam in reader
    ]


def _rec_tuple(idx, rec) -> tuple:
    return (idx, rec.rank, rec.c12, rec.n12, rec.r12, rec.tau, rec.family)


def _pin(got: tuple, want: tuple, tol: float) -> bool:
    """Ranks and families exactly, floats within tol."""
    if got[:2] != want[:2] or got[6] != want[6] or (got[5] is None) != (want[5] is None):
        return False
    floats = [(g, w) for g, w in zip(got[2:6], want[2:6]) if g is not None]
    return all(abs(g - w) <= tol for g, w in floats)


class Workload:
    """Defaults for workloads without a campaign to replay or compare."""

    #: Untimed operation run once per round whose failure counts in ``failed``.
    probe = None
    #: Threads an operation runs on; its reference round runs a pass on each.
    threads = 1

    def replay(self, result, tracer, op_index: int) -> list[str]:
        return []

    def pool_check(self, result) -> list[str]:
        return []

    def csv_bytes(self, result):
        return None


# --------------------------------------------------------------------------


class FigureWorkload(Workload):
    """Figure bundles written by ``figure_dataset``, plus optional campaigns."""

    #: (figure id, per-sample constructor) for each bundle of one op.
    bundles: tuple = ()
    #: Also run ``separable_campaign`` in each op.
    separable = False
    #: The default pool's size, with PERMUTANGLE_THREADS unset.
    threads = os.cpu_count() or 1

    def __init__(self, seed: int, tmp: Path):
        self.seed = abs(int(seed))
        self.tmp = tmp
        self.ops = 0
        self.items_per_op = FIG_N * (len(self.bundles) + int(self.separable))

    def op(self):
        campaign_seed = self.seed * SEED_STRIDE + self.ops
        self.ops += 1
        out = self.tmp / "figures"
        for fig_id, _ in self.bundles:
            experiments.figure_dataset(fig_id, out, n=FIG_N, seed=campaign_seed)
        sep = experiments.separable_campaign(FIG_N, campaign_seed) if self.separable else None
        return campaign_seed, sep

    def _campaigns(self, result):
        """(label, constructor, epsilon, rows, meta or None) for each campaign of an op."""
        campaign_seed, sep = result
        out = self.tmp / "figures"
        for fig_id, make in self.bundles:
            rows = _parse_csv((out / f"fig{fig_id}_scatter.csv").read_text(encoding="utf-8"))
            meta = json.loads((out / f"fig{fig_id}_meta.json").read_text(encoding="utf-8"))
            yield f"fig{fig_id}", make, meta["config"].get("epsilon"), rows, meta
        if sep is not None:
            yield "separable", _separable, None, [_rec_tuple(i, r) for i, r in enumerate(sep)], None

    def check(self, result) -> list[str]:
        campaign_seed, _ = result
        bad = []
        for label, make, eps, rows, meta in self._campaigns(result):
            if len(rows) != FIG_N or [r[0] for r in rows] != list(range(FIG_N)):
                bad.append(f"{label}: expected indices 0..{FIG_N - 1}")
                continue
            if meta is not None:
                if meta["config"]["n"] != FIG_N or meta["config"]["seed"] != campaign_seed:
                    bad.append(f"{label}: meta config {meta['config']}")
                for report in meta["regions"]:
                    if report["violations"] != 0:
                        bad.append(f"{label}: meta region {report['region']} has violations")
                path = self.tmp / "figures" / f"{label}_scatter.csv"
                lib = [_rec_tuple(i, r) for i, r in enumerate(experiments.read_records_csv(path))]
                if lib != rows:
                    bad.append(f"{label}: stdlib csv parse differs from read_records_csv")
            rank2 = make in (_haar_222, _mems1_fig8)
            for row in rows:
                for msg in oracles.check_properties(*row[1:6], rank2=rank2,
                                                    separable=make is _separable):
                    bad.append(f"{label}[{row[0]}]: {msg}")
            for i in CHECK_INDICES:
                rho, parent, family = make(campaign_seed, i, eps)
                rec = experiments.build_record(rho, parent, family)
                if _rec_tuple(i, rec) != rows[i]:
                    bad.append(f"{label}[{i}]: rebuilt record differs from the campaign's")
                amps = parent.amplitudes if parent is not None and parent.dims == (2, 2, 2) else None
                for msg in oracles.check_state(rho.matrix, *rows[i][1:6], amps=amps):
                    bad.append(f"{label}[{i}]: {msg}")
        return bad

    def replay(self, result, tracer, op_index: int) -> list[str]:
        """Each sample of the op, stage by stage; returns the problems found."""
        campaign_seed, _ = result
        bad = []
        samples = 0
        for label, make, eps, rows, _ in self._campaigns(result):
            for i in range(FIG_N):
                tracer.current_item = op_index * 1_000_000 + samples
                with tracer.span("replay.sample"):
                    rho, parent, family = make(campaign_seed, i, eps)
                    with tracer.span("qstate.spectral"):
                        rho.rank()
                    rec = experiments.build_record(rho, parent, family)
                samples += 1
                # the SVD route of r12: the one caller of matkernel.singular_values
                r_sv = measures.r12_via_singular_values(rho)
                if abs(r_sv**4 - rec.r12**4) > oracles.R4_TOL:
                    bad.append(f"{label}[{i}]: r12 routes disagree")
                if not _pin(_rec_tuple(i, rec), rows[i], 1e-12):
                    bad.append(f"{label}[{i}]: replay differs from the campaign")
        tracer.current_item = -1
        return bad

    def pool_check(self, result) -> list[str]:
        """The default-pool output bytes equal the one-worker bytes."""
        campaign_seed, sep = result
        bad = []
        one = self.tmp / "one_worker"
        with mock.patch.dict(os.environ, {"PERMUTANGLE_THREADS": "1"}):
            for fig_id, _ in self.bundles:
                experiments.figure_dataset(fig_id, one, n=FIG_N, seed=campaign_seed)
                name = f"fig{fig_id}_scatter.csv"
                if (one / name).read_bytes() != (self.tmp / "figures" / name).read_bytes():
                    bad.append(f"fig{fig_id}: one-worker bytes differ from the default pool's")
            if sep is not None:
                single = experiments.separable_campaign(FIG_N, campaign_seed)
                if experiments.records_csv_bytes(single) != experiments.records_csv_bytes(sep):
                    bad.append("separable: one-worker bytes differ from the default pool's")
        return bad

    def csv_bytes(self, result) -> tuple[int, int]:
        out = self.tmp / "figures"
        size = sum((out / f"fig{f}_scatter.csv").stat().st_size for f, _ in self.bundles)
        return size, FIG_N * len(self.bundles)


class TangleFigures(FigureWorkload):
    bundles = ((1, _haar_222), (8, _mems1_fig8))


class MixedFigures(FigureWorkload):
    bundles = ((4, _ansatz1_fig4), (5, _werner_fig5))
    separable = True


# --------------------------------------------------------------------------


def _run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _fmt(x) -> str:
    return "" if x is None else format(float(x), ".17g")


def _write_rows(path: Path, rows) -> None:
    lines = [",".join(_CSV_HEADER)]
    lines += [f"{i},{k},{_fmt(c)},{_fmt(n)},{_fmt(r)},{_fmt(t)},{fam}" for i, k, c, n, r, t, fam in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class RecordsVerify(Workload):
    """CLI ``verify`` over a synthesized records CSV, then CSV/JSON round trips."""

    N_RECORDS = 2000
    REGIONS = ("prop1", "cr_rank2", "cr_rank2_lower", "r_geq_c",
               "witness_separable", "rc_tau_identity", "m3ts_max_tau")
    #: Closed-form region definitions: True when the record lies outside.
    OUTSIDE = {
        "prop1": lambda c, r, t: r < 0.0 or r > 1.0,
        "cr_rank2": lambda c, r, t: r < c or r > math.sqrt(c),
        "cr_rank2_lower": lambda c, r, t: r > math.sqrt(c),
        "r_geq_c": lambda c, r, t: r < c,
        "witness_separable": lambda c, r, t: r > oracles.WITNESS,
        "rc_tau_identity": lambda c, r, t: abs(r**4 - c * c * (c * c + t)) > oracles.IDENTITY_TOL,
        "m3ts_max_tau": lambda c, r, t: t > 1.0 - c * c,
    }
    #: No record lies closer than this to a region's boundary.
    GAP = 1e-6

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        self.items_per_op = self.N_RECORDS
        rng = np.random.default_rng([abs(int(seed)), 0x5EC0])
        self.rows = []
        while len(self.rows) < self.N_RECORDS:
            row = self._draw(rng, len(self.rows))
            if row is not None:
                self.rows.append(row)
        self.path = tmp / "records.csv"
        _write_rows(self.path, self.rows)
        self.expected = {
            region: sum(self.OUTSIDE[region](c, r, t) for _, _, c, _, r, t, _ in self.rows)
            for region in self.REGIONS
        }
        # a clean file plus one record whose r12 is not a number
        probe = [row for row in self.rows if not self.OUTSIDE["cr_rank2"](row[2], row[4], row[5])][:8]
        probe = [(i, *row[1:]) for i, row in enumerate(probe)]
        probe.append((len(probe), 2, 0.5, 0.25, math.nan, 0.0, "probe"))
        self.probe_path = tmp / "probe_nan.csv"
        _write_rows(self.probe_path, probe)

    def _draw(self, rng, index):
        c = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.0, 1.0)
        n = rng.uniform(0.0, c)
        if index % 2 == 0 and r >= c:
            t = (r**4 - c**4) / (c * c)  # on the tangle identity
            if not 0.0 <= t <= 1.0:
                t = rng.uniform(0.0, 1.0)
        else:
            t = rng.uniform(0.0, 1.0)
        # round-trip through the 17-digit text form before judging distances
        c, n, r, t = (float(_fmt(x)) for x in (c, n, r, t))
        residual = abs(r**4 - c * c * (c * c + t))
        near = [abs(r - c), abs(r - math.sqrt(c)), abs(r - oracles.WITNESS),
                abs(t - (1.0 - c * c)), r, 1.0 - r, c]
        if min(near) < self.GAP or 1e-12 < residual < self.GAP:
            return None
        return (index, int(rng.integers(1, 5)), c, n, r, t, "synthetic")

    def op(self):
        reports = {}
        for region in self.REGIONS:
            code, text = _run_cli(["verify", "--region", region, "--input", str(self.path)])
            reports[region] = (code, text)
        records = experiments.read_records_csv(self.path)
        csv_path = experiments.write_records_csv(records, self.tmp / "roundtrip.csv")
        json_path = self.tmp / "roundtrip.json"
        json_path.write_text(experiments.records_to_json(records), encoding="utf-8")
        back_csv = experiments.read_records_csv(csv_path)
        back_json = experiments.records_from_json(json_path.read_text(encoding="utf-8"))
        return reports, back_csv, back_json

    def check(self, result) -> list[str]:
        reports, back_csv, back_json = result
        bad = []
        for region, (code, text) in reports.items():
            want = self.expected[region]
            try:
                report = json.loads(text)
            except ValueError:
                bad.append(f"verify {region}: exit {code}, no JSON report")
                continue
            if report["violations"] != want or report["total"] != self.N_RECORDS:
                bad.append(f"verify {region}: {report['violations']} violations, expected {want}")
            if code != (0 if want == 0 else 1):
                bad.append(f"verify {region}: exit {code} with {want} expected violations")
        for label, back in (("csv", back_csv), ("json", back_json)):
            if [_rec_tuple(i, rec) for i, rec in enumerate(back)] != self.rows:
                bad.append(f"{label} round trip changed the records")
        return bad

    def probe(self) -> bool:
        """True when verify does not pass the NaN record off as clean."""
        code, _ = _run_cli(["verify", "--region", "cr_rank2", "--input", str(self.probe_path)])
        return code in (1, 2)

    def csv_bytes(self, result) -> tuple[int, int]:
        return (self.tmp / "roundtrip.csv").stat().st_size, self.N_RECORDS


# --------------------------------------------------------------------------


def _draw_params(family: str, rng) -> dict:
    """In-domain parameters for each family, drawn by the benchmark itself."""
    if family == "bell_diagonal":
        p = rng.dirichlet(np.ones(4))
        return {"p1": p[0], "p2": p[1], "p3": p[2], "p4": p[3]}
    if family == "werner":
        return {"p": rng.uniform(0.0, 1.0), "bell": ("phi+", "psi-")[int(rng.integers(2))]}
    if family in ("mems1", "mems1_purification"):
        return {"c": rng.uniform(0.0, 1.0)}
    if family == "mems2":
        return {"c": rng.uniform(0.0, 2.0 / 3.0)}
    if family == "x_state":
        a, b, c, d = rng.dirichlet(np.ones(4))
        w = rng.uniform(0.0, 0.99) * math.sqrt(a * d) * np.exp(2j * np.pi * rng.uniform())
        z = rng.uniform(0.0, 0.99) * math.sqrt(b * c) * np.exp(2j * np.pi * rng.uniform())
        return {"a": a, "b": b, "c": c, "d": d, "w": w, "z": z}
    if family in ("canonical3", "w_class"):
        lam = np.abs(rng.standard_normal(5 if family == "canonical3" else 4))
        lam /= np.linalg.norm(lam)
        out = {f"lambda{k}": float(v) for k, v in enumerate(lam)}
        out["theta"] = rng.uniform(0.0, np.pi)
        return out
    if family == "m3ts":
        return {"c12": rng.uniform(0.0, 1.0)}
    if family == "m3ts_general":
        angle, radius = rng.uniform(0.0, np.pi / 2), math.sqrt(rng.uniform(0.0, 1.0))
        return {"c12": radius * math.cos(angle), "c13": radius * math.sin(angle)}
    if family in ("ansatz1",):
        return {"p": rng.uniform(0.0, 1.0)}
    if family == "ansatz2":
        alpha, beta, _ = rng.dirichlet(np.ones(3))
        return {"alpha": alpha, "beta": beta}
    if family == "cq_state":
        return {"p": rng.uniform(0.0, 1.0), "a": _bloch(rng), "b": _bloch(rng)}
    raise ValueError(f"no parameter draw for family {family!r}")


class SingleState(Workload):
    """Scalar measure calls on single family states: the interactive path."""

    PER_FAMILY = 48

    def __init__(self, seed: int, tmp: Path):
        rng = np.random.default_rng([abs(int(seed)), 0x51A7])
        self.batch = [
            (family, _draw_params(family, rng))
            for _ in range(self.PER_FAMILY)
            for family in families.FAMILY_TAGS
        ]
        self.items_per_op = len(self.batch)
        self.first = None

    def op(self):
        out = []
        for family, params in self.batch:
            state = families.make_state(family, **params)
            tau = None
            if isinstance(state, qstate.PureState):
                rho = qstate.reduce(state, (1, 2))
                tau = measures.three_tangle(state)
            else:
                rho = state
            out.append((state, rho, measures.r12(rho), measures.concurrence(rho),
                        measures.negativity(rho), tau,
                        families.closed_form_measures(family, **params)))
        return out

    def check(self, result) -> list[str]:
        values = [row[2:] for row in result]
        if self.first is not None:
            return [] if values == self.first else ["single-state values changed between ops"]
        self.first = values
        bad = []
        for (family, _), (state, rho, r, c, n, tau, closed) in zip(self.batch, result):
            amps = state.amplitudes if isinstance(state, qstate.PureState) else None
            rank = rho.rank()
            for msg in oracles.check_state(rho.matrix, rank, c, n, r, tau=tau, amps=amps):
                bad.append(f"{family}: {msg}")
            for msg in oracles.check_properties(rank, c, n, r, tau):
                bad.append(f"{family}: {msg}")
            numeric = {"c12": c, "n12": n, "r12": r**4, "tau": tau}
            for key, value in closed.items():
                got = numeric.get(key)
                want = value**4 if key == "r12" else value
                if got is not None and abs(got - want) > oracles.CLOSED_TOL:
                    bad.append(f"{family}: {key} {got!r} vs closed form {want!r}")
        return bad


WORKLOADS = {
    "tangle_figures": TangleFigures,
    "mixed_figures": MixedFigures,
    "records_verify": RecordsVerify,
    "single_state": SingleState,
}
