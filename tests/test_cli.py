import dataclasses
import errno
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kcone import KClass, cli, orbitalg
from kcone.cli import main

from helpers import reference_payload

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbits_json(capsys):
    code, out, _ = run_cli(capsys, "orbits", "A2")
    assert code == 0
    records = json.loads(out)
    assert [r["id"] for r in records] == [0, 1, 2]
    assert records[1]["label"] == "[2,1]"
    assert records[2]["covers"] == [1]
    assert records[2]["dynkin_marks"] == [2, 2]


def test_orbits_text(capsys):
    code, out, _ = run_cli(capsys, "orbits", "A1", "--format", "text")
    assert code == 0
    assert len([line for line in out.splitlines() if "[" in line]) == 2


def test_orbits_bad_type(capsys):
    code, _, err = run_cli(capsys, "orbits", "Z9")
    assert code == 2
    assert "cannot parse" in err


@pytest.mark.parametrize(
    "argv", [["orbits", "A2x"], ["orbits", "xA2"], ["basis", "A2xx", "--bound-sq", "1"]]
)
def test_empty_factor_in_a_product_label_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert f"cannot parse Cartan type {argv[1]!r}" in err
    assert "empty factor" in err


def test_orbits_missing_table(capsys):
    code, _, err = run_cli(capsys, "orbits", "F4")
    assert code == 2
    assert "table unavailable" in err


def test_basis_a1(capsys):
    code, out, _ = run_cli(capsys, "basis", "A1", "--bound-sq", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound_sq"] == "16"
    regular = next(s for s in payload["strata"] if s["orbit"] == 1)
    certified = [v for v in regular["vectors"] if v["certified"]]
    assert len(certified) == 2
    kclasses = [v["kclass"]["coeffs"] for v in certified]
    assert kclasses == [
        [{"weight": [0], "coef": 1}],
        [{"weight": [1], "coef": 1}],
    ]


def test_basis_orbit_filter(capsys):
    code, out, _ = run_cli(capsys, "basis", "A2", "--bound-sq", "18", "--orbit", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["strata"]) == 1
    assert len(payload["strata"][0]["vectors"]) == 3


def test_basis_zero_bound(capsys):
    code, out, _ = run_cli(capsys, "basis", "A1", "--bound-sq", "0")
    assert code == 0
    json.loads(out)


def test_basis_bad_orbit(capsys):
    code, _, err = run_cli(capsys, "basis", "A1", "--bound-sq", "4", "--orbit", "9")
    assert code == 2
    assert "no orbit" in err


def test_basis_rational_bound(capsys):
    code, out, _ = run_cli(capsys, "basis", "A1", "--bound-sq", "33/2")
    assert code == 0
    assert json.loads(out)["bound_sq"] == "33/2"


def test_basis_resource_cap(capsys, monkeypatch):
    monkeypatch.setenv("KCONE_MAX_SUBSET_BITS", "2")
    code, _, err = run_cli(capsys, "basis", "B2", "--bound-sq", "4")
    assert code == 3
    assert "cap" in err


def test_basis_default_subset_cap_exits_3(capsys, monkeypatch):
    # the zero orbit of A8 has 36 positive roots: its kernel is refused
    # against the default 2^22 cap before the ball is built
    monkeypatch.delenv("KCONE_MAX_SUBSET_BITS", raising=False)
    code, out, err = run_cli(capsys, "basis", "A8", "--bound-sq", "0")
    assert code == 3
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and "2^36" in line and "2^22" in line


def test_acycle_trivial_module(capsys, tmp_path):
    module = tmp_path / "trivial.json"
    module.write_text(
        json.dumps(
            {
                "standards": [
                    {"coef": 1, "lambda_l": [0], "lambda_r": [0]},
                    {"coef": -1, "lambda_l": [1], "lambda_r": [1]},
                ]
            }
        )
    )
    code, out, _ = run_cli(capsys, "acycle", "A1", "--bound-sq", "16", "--module", str(module))
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "variety": [0],
        "cycle": [{"orbit": 0, "label": "[1,1]", "multiplicity": 1}],
    }


def test_acycle_spherical_kclass(capsys, tmp_path):
    module = tmp_path / "mod.json"
    module.write_text(
        json.dumps({"kclass": {"coeffs": [{"weight": [0], "coef": 1}], "rank": None}})
    )
    code, out, _ = run_cli(capsys, "acycle", "A1", "--bound-sq", "16", "--module", str(module))
    assert code == 0
    payload = json.loads(out)
    assert payload["variety"] == [1]
    assert payload["cycle"][0]["multiplicity"] == 1


def test_acycle_text(capsys, tmp_path):
    mixed = str(ROOT / "tests" / "modules" / "a2-mixed.json")
    code, out, _ = run_cli(
        capsys, "acycle", "A2", "--bound-sq", "50", "--module", mixed, "--format", "text"
    )
    assert code == 0
    assert out == "orbit 2 ([3]): multiplicity 3\n"
    # [0] minus [0] is the zero class
    zero = tmp_path / "zero.json"
    zero.write_text(
        json.dumps(
            {
                "standards": [
                    {"coef": 1, "lambda_l": [0], "lambda_r": [0]},
                    {"coef": -1, "lambda_l": [0], "lambda_r": [0]},
                ]
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "acycle", "A1", "--bound-sq", "16", "--module", str(zero), "--format", "text"
    )
    assert code == 0
    assert out == "zero class: empty associated variety\n"


def test_acycle_malformed_file(capsys, tmp_path):
    module = tmp_path / "bad.json"
    module.write_text("{not json")
    code, _, err = run_cli(capsys, "acycle", "A1", "--bound-sq", "16", "--module", str(module))
    assert code == 2
    assert err.startswith("error:")


def test_acycle_deeply_nested_file_exits_2(tmp_path):
    # the json decoder recurses once per bracket and overflows the stack
    module = tmp_path / "deep.json"
    module.write_text('{"standards": ' + "[" * 100_000 + "]" * 100_000 + "}")
    proc = subprocess.run(
        [sys.executable, "-m", "kcone.cli", "acycle", "A1", "--bound-sq", "16", "--module", str(module)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: a module file nests too deeply to read"]
    assert "Traceback" not in proc.stderr


def test_acycle_wrong_rank_weight(capsys, tmp_path):
    module = tmp_path / "bad_rank.json"
    module.write_text(
        json.dumps({"standards": [{"coef": 1, "lambda_l": [0, 0], "lambda_r": [0]}]})
    )
    code, _, err = run_cli(capsys, "acycle", "A1", "--bound-sq", "16", "--module", str(module))
    assert code == 2
    assert "mismatch" in err


@pytest.mark.parametrize(
    "module",
    [
        {"kclass": {"coeffs": [{"weight": [0], "coef": 1.7}]}},
        {"kclass": {"coeffs": [{"weight": [0], "coef": True}]}},
        {"kclass": {"coeffs": [{"weight": [0.0], "coef": 1}]}},
        {"kclass": {"coeffs": [{"weight": [0], "coef": 1}], "rank": 1.5}},
        {"kclass": {"coeffs": [{"weight": [0], "coef": 1}], "rank": False}},
        {"standards": [{"coef": True, "lambda_l": [0], "lambda_r": [0]}]},
        {"standards": [{"coef": 1, "lambda_l": [0.5], "lambda_r": [-0.5]}]},
    ],
    ids=[
        "float-coef",
        "bool-coef",
        "float-weight",
        "float-rank",
        "bool-rank",
        "bool-standard-coef",
        "half-integer-lambda",
    ],
)
def test_acycle_rejects_non_integer_fields(capsys, tmp_path, module):
    path = tmp_path / "bad_types.json"
    path.write_text(json.dumps(module))
    code, out, err = run_cli(capsys, "acycle", "A1", "--bound-sq", "16", "--module", str(path))
    assert code == 2
    assert out == ""
    assert "integer" in err


@pytest.mark.parametrize(
    "module,field",
    [
        ({"standards": [{"lambda_l": [0], "lambda_r": [0]}]}, '"coef"'),
        ({"standards": [3]}, '"standards" entry'),
        ({"standards": 3}, '"standards"'),
        ({"kclass": [{"weight": [0], "coef": 1}]}, '"kclass"'),
        ({"kclass": {"coeffs": {"weight": [0], "coef": 1}}}, '"coeffs"'),
        ({"kclass": {"coeffs": [{"coef": 1}]}}, '"weight"'),
        (
            {
                "standards": [{"coef": 1, "lambda_l": [0], "lambda_r": [0]}],
                "kclass": {"coeffs": [{"weight": [0], "coef": 1}]},
            },
            '"standards" or "kclass", not both',
        ),
        ({"modules": []}, 'needs a "standards" or "kclass" key'),
    ],
    ids=[
        "missing-coef",
        "entry-not-object",
        "standards-not-list",
        "kclass-not-object",
        "coeffs-not-list",
        "missing-weight",
        "both-keys",
        "neither-key",
    ],
)
def test_acycle_malformed_module_names_its_field(capsys, tmp_path, module, field):
    path = tmp_path / "bad_shape.json"
    path.write_text(json.dumps(module))
    code, out, err = run_cli(capsys, "acycle", "A1", "--bound-sq", "16", "--module", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and field in err


def test_module_file_classes_keep_the_kclass_invariant(a2):
    # both shapes come back folded: sorted, dominant, each weight once, no zeros
    raw = cli._parse_module_file(str(ROOT / "tests" / "modules" / "a2-raw-class.json"), a2)
    mixed = cli._parse_module_file(str(ROOT / "tests" / "modules" / "a2-mixed.json"), a2)
    for kc in (raw, mixed):
        weights = [w for w, _ in kc.coeffs]
        assert weights == sorted(set(weights))
        assert all(min(w) >= 0 and c for w, c in kc.coeffs)
    assert raw == KClass((((0, 0), 2), ((0, 3), 1), ((1, 1), -3), ((2, 2), -1), ((3, 0), 1)))


def test_internal_fault_is_not_a_usage_error(capsys, monkeypatch):
    # only a ValueError or OSError is a usage error; any other exception
    # is a fault of kcone and must propagate with its traceback
    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "full_basis", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["basis", "A1", "--bound-sq", "4"])


def test_negative_subset_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("KCONE_MAX_SUBSET_BITS", "-1")
    code, _, err = run_cli(capsys, "basis", "A1", "--bound-sq", "4")
    assert code == 2
    assert "nonnegative" in err


def test_basis_huge_bound_exits_3(capsys):
    code, out, err = run_cli(capsys, "basis", "A1", "--bound-sq", "1e400")
    assert code == 3
    assert out == ""
    assert err.startswith("error: truncation window too large")


def test_basis_huge_finite_bound_exits_3_before_enumerating():
    # a finite window whose coordinate box is far over the limit; the address
    # space cap turns an enumeration that starts anyway into a quick failure
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kcone.cli", "basis", "A1", "--bound-sq", "1e30"],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: truncation window too large to enumerate")
    assert "over the limit" in proc.stderr
    assert time.perf_counter() - t0 < 30


def test_basis_ball_over_the_limit_exits_3():
    # a coordinate box under the box limit whose ball of about 9 * 10^7
    # weights is over the ball limit: refused before the list is built, so
    # the address space cap is never reached
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "kcone.cli", "basis", "A1", "--bound-sq", "1e15"],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: truncation window too large to enumerate")
    assert "its ball holds" in proc.stderr


def test_basis_bad_orbit_exits_before_building(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("full_basis must not run for an unknown orbit")

    monkeypatch.setattr(cli, "full_basis", unreachable)
    code, out, err = run_cli(capsys, "basis", "C3", "--bound-sq", "1", "--orbit", "99")
    assert code == 2
    assert out == ""
    assert err.startswith("error: no orbit with id 99 in C3")


def test_basis_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(orbitalg, "enumerate_levi_dominant", exhausted)
    code, out, err = run_cli(capsys, "basis", "A1", "--bound-sq", "1e30")
    assert code == 3
    assert out == ""
    assert err.startswith("error: out of memory")


def test_parallelism_is_accepted_and_must_be_nonnegative(capsys):
    code, out, _ = run_cli(capsys, "orbits", "A1", "--parallelism", "3")
    assert code == 0
    assert json.loads(out)
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "A1", "--parallelism", "-1"])
    assert exc.value.code == 2


def test_acycle_bound_too_small(capsys, tmp_path):
    module = tmp_path / "big.json"
    module.write_text(
        json.dumps({"kclass": {"coeffs": [{"weight": [8], "coef": 1}], "rank": None}})
    )
    code, _, err = run_cli(capsys, "acycle", "A1", "--bound-sq", "16", "--module", str(module))
    assert code == 4
    assert "larger bound" in err


def test_pushforward_command(capsys):
    code, out, _ = run_cli(capsys, "pushforward", "A2", "--orbit", "1", "--phi", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["kclass"]["coeffs"] == [
        {"weight": [0, 0], "coef": 1},
        {"weight": [1, 1], "coef": -1},
    ]
    assert payload["kclass"]["rank"] == 1


def test_pushforward_bad_orbit(capsys):
    code, out, err = run_cli(capsys, "pushforward", "A2", "--orbit", "7", "--phi", "0,0")
    assert code == 2
    assert out == ""
    assert err == "error: --orbit must name an orbit id of A2\n"


def test_pushforward_nondominant_phi(capsys):
    code, _, err = run_cli(capsys, "pushforward", "A2", "--orbit", "0", "--phi=-1,0")
    assert code == 2
    assert "dominant" in err


def test_pushforward_negative_phi_needs_the_equals_form(capsys):
    # (-1, 0) is dominant for the torus, the Levi of A2's regular orbit; a
    # separate "-1,0" reads as an option, so it must follow "--phi="
    code, out, _ = run_cli(
        capsys, "pushforward", "A2", "--orbit", "2", "--phi=-1,0", "--format", "text"
    )
    assert code == 0
    assert out == "pushforward of [-1, 0] on orbit 2: rank 1: +1[0,1]\n"
    with pytest.raises(SystemExit) as exc:
        main(["pushforward", "A2", "--orbit", "2", "--phi", "-1,0"])
    assert exc.value.code == 2
    assert "argument --phi: expected one argument" in capsys.readouterr().err


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "restrict_gamma_class", lambda *args: {})
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert out.count("PASS") == 4
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL A1 restriction oracle: "
    ]


def test_bad_bound_arg_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "kcone.cli", "basis", "A1", "--bound-sq", "nope"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_json_round_trip(capsys, tmp_path):
    # basis output's kclass schema parses back as a module file
    code, out, _ = run_cli(capsys, "basis", "A1", "--bound-sq", "16")
    payload = json.loads(out)
    vector = payload["strata"][0]["vectors"][0]
    module = tmp_path / "roundtrip.json"
    module.write_text(json.dumps({"kclass": vector["kclass"]}))
    code, out, _ = run_cli(capsys, "acycle", "A1", "--bound-sq", "16", "--module", str(module))
    assert code == 0
    assert json.loads(out)["variety"] == [0]


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ["orbits", t]
            for t in ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "C4", "D4", "G2", "A1xA1", "A1xA1xA1"]
        ),
        ["basis", "A2", "--bound-sq", "18", "--orbit", "1"],
        ["basis", "B2", "--bound-sq", "8", "--orbit", "0"],
        ["pushforward", "A2", "--orbit", "1", "--phi", "0,0"],
        ["pushforward", "G2", "--orbit", "0", "--phi", "1,2"],
        ["acycle", "A2", "--bound-sq", "18"],
    ],
    ids=" ".join,
)
def test_json_stdout_is_json_dumps_indent_2(capsys, tmp_path, argv):
    if argv[0] == "acycle":
        module = tmp_path / "module.json"
        module.write_text(
            json.dumps({"standards": [{"coef": 2, "lambda_l": [1, 0], "lambda_r": [0, 1]}]})
        )
        argv = [*argv, "--module", str(module)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("label,bound", [("A2", 18), ("G2", 8), ("A1xA1xA1", 1)])
def test_basis_writer_matches_reference_payload(capsys, monkeypatch, basis_cache, label, bound):
    # the per-vector writer against json.dumps of the payload tree, through
    # the CLI with and without --orbit
    basis = basis_cache(label, bound)
    monkeypatch.setattr(cli, "full_basis", lambda rd, bound_sq: basis)
    for orbit in [None, *(o.id for o in basis.orbits)]:
        argv = ["basis", label, "--bound-sq", str(bound)]
        if orbit is not None:
            argv += ["--orbit", str(orbit)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == json.dumps(reference_payload(basis, orbit), indent=2) + "\n"


def test_basis_writer_on_empty_strata(basis_cache):
    basis = basis_cache("A2", 18)
    emptied = dataclasses.replace(basis, strata={**basis.strata, 1: ()})
    assert emptied.strata[1] == ()
    for orbit in [None, 1, 2, 99]:  # 99 names no orbit: an empty strata list
        out = []
        cli._write_basis_json(emptied, orbit, out.append)
        assert "".join(out) == json.dumps(reference_payload(emptied, orbit), indent=2) + "\n"


class ClosedPipe:
    """A stdout whose reader is gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "A1", "--bound-sq", "4"],
        ["basis", "A1", "--bound-sq", "4", "--format", "text"],
        ["orbits", "A2"],
    ],
    ids=" ".join,
)
def test_broken_pipe_exits_quietly(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(argv)
    devnull = sys.stdout
    assert code == cli.EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""  # no error line
    assert devnull.name == os.devnull  # later writes and flushes go nowhere
    devnull.close()


def test_missing_module_file_still_exits_2(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "acycle", "A1", "--bound-sq", "16", "--module", str(missing))
    assert code == 2
    assert err.startswith("error:") and "No such file" in err


def test_reader_closing_the_pipe_early_is_silent():
    # the output (about 510 kB) outgrows a pipe's buffer (64 kB on Linux),
    # so the writer blocks until the read end closes, then meets it closed
    proc = subprocess.Popen(
        [sys.executable, "-m", "kcone", "basis", "A2", "--bound-sq", "200"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(100).startswith(b'{\n  "type": "A2"')
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
