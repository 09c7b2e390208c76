"""Byte-identity guard: kcone outputs against recorded digests.

perfbench/digests.json holds the sha256 of the stdout of each `kcone` call
the benchmark makes, and of the basis its acycle-batch workload builds with
full_basis; tests/cli_digests.json holds those of `kcone` calls the
benchmark does not make: `basis` text output and --orbit, `orbits`,
`pushforward`, and `acycle`s of a multi-term module (JSON and text) and
of a raw class, whose paths are relative to the repository root.  Any
change to a stratum, to the JSON or to the text shows up here as a
mismatch.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from kcone import cli

ROOT = Path(__file__).resolve().parent.parent
RECORDED = json.loads((ROOT / "perfbench" / "digests.json").read_text())
DIGESTS = RECORDED["cli_stdout"]
MORE_DIGESTS = json.loads((Path(__file__).resolve().parent / "cli_digests.json").read_text())

PROBE_KEY = "acycle A1 --bound-sq 16 (trivial module)"
# the module of the benchmark's acycle probe: [0,0] minus [1,1]
PROBE_MODULE = [
    {"coef": 1, "lambda_l": [0], "lambda_r": [0]},
    {"coef": -1, "lambda_l": [1], "lambda_r": [1]},
]
BASIS_KEYS = [
    "basis A2 --bound-sq 200",
    "basis B2 --bound-sq 64",
    "basis G2 --bound-sq 32",
    "basis A1xA1xA1 --bound-sq 2",
]


def stdout_sha256(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_digest_keys_are_covered():
    assert sorted(DIGESTS) == sorted(BASIS_KEYS + [PROBE_KEY])


@pytest.mark.parametrize("key", BASIS_KEYS)
def test_basis_stdout_matches_digest(key):
    assert stdout_sha256(key.split()) == DIGESTS[key]


@pytest.mark.parametrize("key", sorted(MORE_DIGESTS))
def test_other_stdout_matches_digest(key, monkeypatch):
    monkeypatch.chdir(ROOT)  # a key names its files relative to the repository root
    assert stdout_sha256(key.split()) == MORE_DIGESTS[key]


def test_acycle_probe_stdout_matches_digest(tmp_path):
    path = tmp_path / "probe-module.json"
    path.write_text(json.dumps({"standards": PROBE_MODULE}))
    argv = ["acycle", "A1", "--bound-sq", "16", "--module", str(path)]
    assert stdout_sha256(argv) == DIGESTS[PROBE_KEY]


def basis_digest(basis) -> str:
    """sha256 of every vector of a GeometricBasis, as the benchmark records it."""
    rows = [
        [
            v.orbit_id,
            v.index,
            v.certified,
            v.rank,
            [[list(w), c] for w, c in v.kclass.coeffs],
            [[list(w), n] for w, n in v.combination],
        ]
        for v in basis.all_vectors()
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_full_basis_matches_digest(basis_cache):
    assert sorted(RECORDED["full_basis"]) == ["A2 50"]
    assert basis_digest(basis_cache("A2", 50)) == RECORDED["full_basis"]["A2 50"]
