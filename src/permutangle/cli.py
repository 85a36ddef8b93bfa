"""Command-line front end: family measures, sampling campaigns, curves, figures.

``permutangle --help`` lists the subcommands. Exit codes: 0 success, 1
region violations found by ``verify``, 2 bad usage. ``--seed`` is mandatory
for ``sample``/``perturb``: reproducibility is the product, so there is no
wall-clock default.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import experiments, families
from .errors import DomainError
from .experiments import format_float

_PARAM_HELP = (
    "comma-separated k=v pairs, e.g. p=0.5 or a=0.3,b=0.2,... ; complex values "
    "as 0.1+0.2j, vectors as colon-separated triples, e.g. a=0:0:1"
)


def _parse_value(text: str):
    if ":" in text:
        return tuple(float(part) for part in text.split(":"))
    for cast in (int, float, complex):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(text: str) -> dict:
    params = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise DomainError(f"bad parameter {item!r}; expected k=v")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in params:
            raise DomainError(f"parameter {key!r} given more than once")
        params[key] = _parse_value(value)
    return params


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"bad dims {text!r}; expected e.g. 2,2,3") from None


def _emit(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _cmd_measure(args) -> int:
    params = _parse_params(args.params or "")
    closed = families.closed_form_measures(args.family, **params)
    numeric = families.numeric_measures(args.family, **params)
    diff = {k: abs(closed[k] - numeric[k]) for k in closed if k in numeric}
    if args.format == "json":
        payload = {
            "family": args.family,
            "params": {k: str(v) for k, v in params.items()},
            "closed_form": closed,
            "numeric": numeric,
            "abs_diff": diff,
        }
        _emit((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(), args.out)
    else:
        lines = ["quantity,closed_form,numeric,abs_diff"]
        for key in sorted(set(closed) | set(numeric)):
            values = (closed.get(key), numeric.get(key), diff.get(key))
            lines.append(",".join([key, *map(format_float, values)]))
        _emit(("\n".join(lines) + "\n").encode(), args.out)
    return 0


def _emit_records(records, args) -> None:
    if args.format == "json":
        _emit((experiments.records_to_json(records) + "\n").encode(), args.out)
    else:
        _emit(experiments.records_csv_bytes(records), args.out)


def _cmd_sample(args) -> int:
    records = experiments.scatter(_parse_dims(args.dims), args.n, args.seed)
    _emit_records(records, args)
    return 0


def _cmd_curve(args) -> int:
    _emit(experiments.curve_csv_bytes(args.id, args.points), args.out)
    return 0


def _cmd_perturb(args) -> int:
    records = experiments.perturbation_campaign(args.kind, args.n, args.seed, epsilon=args.eps)
    _emit_records(records, args)
    return 0


def _cmd_figure(args) -> int:
    written = experiments.figure_dataset(args.id, args.out, n=args.n, seed=args.seed)
    for name in sorted(written):
        sys.stdout.write(f"{name}: {written[name]}\n")
    return 0


def _cmd_verify(args) -> int:
    records = experiments.read_records_csv(args.input)
    report = experiments.verify(records, args.region, tol=args.tol)
    sys.stdout.write(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0 if report.violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permutangle",
        description="Permutation-based correlation measures for small quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)  # the flags of measure, sample and perturb
    output.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    output.add_argument("--out", default=None, help="write to this file instead of stdout")
    campaign = argparse.ArgumentParser(add_help=False, parents=[output])  # sample and perturb
    campaign.add_argument("--n", type=int, required=True, help="sample count")
    campaign.add_argument("--seed", type=int, required=True,
                          help="campaign seed (mandatory; no wall-clock default)")

    p = sub.add_parser("measure", help="closed-form vs numeric measures of a family state",
                       parents=[output])
    p.add_argument("--family", required=True, choices=families.FAMILY_TAGS)
    p.add_argument("--params", default="", help=_PARAM_HELP)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("sample", help="Haar scatter campaign", parents=[campaign])
    p.add_argument("--dims", required=True, help="factor dimensions, e.g. 2,2,3")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("curve", help="analytic boundary curve")
    p.add_argument("--id", required=True, choices=families.CURVE_TAGS)
    p.add_argument("--points", type=int, default=experiments.CURVE_POINTS,
                   help=f"grid size (default: {experiments.CURVE_POINTS})")
    p.add_argument("--out", default=None, help="write to this file instead of stdout")
    p.set_defaults(fn=_cmd_curve)

    p = sub.add_parser("perturb", help="perturbed boundary-family campaign", parents=[campaign])
    p.add_argument("--kind", required=True, choices=experiments.PERTURBATION_KINDS)
    p.add_argument("--eps", type=float, default=experiments.EPSILON,
                   help=f"perturbation strength (default: {experiments.EPSILON})")
    p.set_defaults(fn=_cmd_perturb)

    p = sub.add_parser("figure", help="dataset bundle for one figure")
    p.add_argument("--id", type=int, required=True, choices=experiments.FIGURE_IDS)
    p.add_argument("--out", default="figures", help="output directory (default: figures)")
    p.add_argument("--n", type=int, default=None,
                   help="scatter sample count (default: per-figure standard size)")
    p.add_argument("--seed", type=int, default=0, help="campaign seed (default: 0)")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("verify", help="check a records CSV against a region")
    p.add_argument("--region", required=True, choices=experiments.REGION_TAGS)
    p.add_argument("--input", required=True, help="records CSV to check")
    p.add_argument("--tol", type=float, default=None,
                   help="violation tolerance (default: the region's standard)")
    p.set_defaults(fn=_cmd_verify)

    return parser


#: The parser of this process: parsing leaves a parser as it was.
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # DomainError and DimensionError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
