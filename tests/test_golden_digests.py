"""Output bytes pinned by SHA-256 digests.

Every command's output at a small size is hashed and compared with the
committed manifest ``golden_digests.json``: figure bundles, sample and
perturb records (CSV and JSON), the separable campaign, every boundary curve
and the ``measure`` table of every family. The bits depend on the numpy
version, the platform, the SIMD targets numpy dispatches to on this CPU and
the BLAS and LAPACK numpy links, so the manifest records all four, and a host
that differs fails rather than skips.

Regenerate the manifest (and log the regeneration in CHANGES.md) with::

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from permutangle import experiments, families, substream
from permutangle.cli import run

MANIFEST = Path(__file__).with_name("golden_digests.json")
SEED = 7
N_FIGURE = 256
N_RECORDS = 300


def _host() -> dict:
    """What decides the bits besides the code. ``__cpu_dispatch__`` is the wheel's
    build-time target list; ``__cpu_features__`` says which of them this CPU runs."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.machine()}",
        "simd_dispatch": [target for target in __cpu_dispatch__ if __cpu_features__[target]],
        "blas_lapack": {lib: f"{deps[lib]['name']} {deps[lib]['version']}"
                        for lib in ("blas", "lapack")},
    }


def _cli(out: Path, *argv: str) -> Path:
    """Run a command that must exit 0, writing to ``out``."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = run([*argv, "--out", str(out)])
    assert code == 0, f"permutangle {' '.join(argv)} exited {code}"
    return out


def _param_text(value) -> str:
    """A parameter as CLI text that parses back to the same number."""
    if isinstance(value, tuple):
        return ":".join(repr(float(v)) for v in value)
    if isinstance(value, complex):
        return repr(complex(value))
    return repr(float(value))


def outputs(tmp: Path) -> dict[str, bytes]:
    """Each pinned output's bytes, by a name that says how to reproduce it."""
    out: dict[str, bytes] = {}
    for fig in range(1, 12):
        folder = _cli(tmp / f"fig{fig}", "figure", "--id", str(fig), "--n", str(N_FIGURE),
                      "--seed", str(SEED))
        for path in sorted(folder.iterdir()):
            out[f"figure --id {fig} --n {N_FIGURE}: {path.name}"] = path.read_bytes()
    for fmt in ("csv", "json"):
        for dims in experiments.SCATTER_DIMS:
            text = ",".join(map(str, dims))
            out[f"sample --dims {text} --format {fmt}"] = _cli(
                tmp / "records", "sample", "--dims", text, "--n", str(N_RECORDS),
                "--seed", str(SEED), "--format", fmt).read_bytes()
        for kind in experiments.PERTURBATION_KINDS:
            out[f"perturb --kind {kind} --format {fmt}"] = _cli(
                tmp / "records", "perturb", "--kind", kind, "--n", str(N_RECORDS),
                "--seed", str(SEED), "--format", fmt).read_bytes()
    out["separable_campaign"] = experiments.records_csv_bytes(
        experiments.separable_campaign(N_RECORDS, SEED))
    for tag in families.CURVE_TAGS:
        out[f"curve --id {tag}"] = _cli(tmp / "curve", "curve", "--id", tag).read_bytes()
    for tag in families.FAMILY_TAGS:
        params = families.sample_params(tag, substream(0, 0))
        text = ",".join(f"{key}={_param_text(value)}" for key, value in params.items())
        for fmt in ("csv", "json"):
            out[f"measure --family {tag} --format {fmt}"] = _cli(
                tmp / "measure", "measure", "--family", tag, "--params", text, "--format", fmt
            ).read_bytes()
    return out


def digests(tmp: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs(tmp).items()}


def _host_differences(manifest: dict) -> list[str]:
    """Each fact of this host that the manifest records otherwise, with both values."""
    return [f"{key}: manifest {manifest.get(key)!r}, this host {value!r}"
            for key, value in _host().items() if manifest.get(key) != value]


def test_a_host_that_differs_is_named_with_both_values():
    host = _host()
    other = {**host, "simd_dispatch": ["X86_V2"],
             "blas_lapack": {"blas": "mkl 1", "lapack": "mkl 1"}}
    differ = _host_differences(other)
    assert len(differ) == 2
    assert "['X86_V2']" in differ[0] and repr(host["simd_dispatch"]) in differ[0]
    assert "mkl 1" in differ[1] and repr(host["blas_lapack"]) in differ[1]


def test_output_bytes_match_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    differ = _host_differences(manifest)
    assert not differ, (
        f"the manifest was made on another host ({'; '.join(differ)}); "
        "regenerate it on this host (see this module's docstring)"
    )
    got = digests(tmp_path)
    want = manifest["digests"]
    changed = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not changed, f"{len(changed)} outputs changed bytes: {changed}"


@pytest.mark.parametrize("size", [1, 7, 512])
def test_campaign_bytes_match_manifest_at_any_chunk_size(monkeypatch, size):
    """Records gathered a chunk at a time are written with the manifest's bytes."""
    manifest = json.loads(MANIFEST.read_text())
    assert not _host_differences(manifest)
    monkeypatch.setattr(experiments, "CHUNK_SIZE", size)
    got = {
        "separable_campaign": experiments.records_csv_bytes(
            experiments.separable_campaign(N_RECORDS, SEED)),
        "sample --dims 2,2,2 --format csv": experiments.records_csv_bytes(
            experiments.scatter((2, 2, 2), N_RECORDS, SEED)),
        "sample --dims 2,2,3 --format json": (experiments.records_to_json(
            experiments.scatter((2, 2, 3), N_RECORDS, SEED)) + "\n").encode(),
        "perturb --kind mems1_fig8 --format csv": experiments.records_csv_bytes(
            experiments.perturbation_campaign("mems1_fig8", N_RECORDS, SEED)),
    }
    for name, data in got.items():
        assert hashlib.sha256(data).hexdigest() == manifest["digests"][name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {**_host(), "digests": digests(Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['digests'])} digests to {MANIFEST}")
