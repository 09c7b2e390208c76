"""Acceptance suite.

One test per acceptance criterion; each prints an ACCEPT line on success.
All comparisons are exact (integer or rational equality); runtime limits
are asserted with time.monotonic.

Run with: pytest tests/test_acceptance.py -v -s
"""

import subprocess
import sys
import time

from kcone import (
    associated_cycle,
    build_root_datum,
    classify_orbits,
    enumerate_dominant,
    express_in_geometric_basis,
    gamma_class,
    grading_data,
    kclass_add,
    module_to_kclass,
    pushforward,
    pushforward_kernel,
    restrict_kclass,
    skyscraper_class,
    weyl_dim,
    VirtualModule,
)

from helpers import (
    brute_dominant,
    brute_pushforward,
    flatten_kclass,
    parse_partition_label,
    partition_orbit_dimension,
    rational_rank,
    weyl_group,
)


def report(num, text):
    print(f"ACCEPT {num} PASS: {text}")


def test_criterion_1_orbit_classification():
    start = time.monotonic()
    expected = {
        "A1": [0, 2],
        "A2": [0, 4, 6],
        "A3": [0, 6, 8, 10, 12],
        "B2": [0, 4, 6, 8],
        "G2": [0, 6, 8, 10, 12],
    }
    for label, dims in expected.items():
        rd = build_root_datum(label)
        orbits = classify_orbits(rd)
        assert [o.dimension for o in orbits] == dims, label
        if label != "G2":
            family, n = label[0], int(label[1:])
            for orbit in orbits:
                part, _ = parse_partition_label(orbit.label)
                assert orbit.dimension == partition_orbit_dimension(family, n, part)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, f"orbit counts and dimensions, double-checked ({elapsed:.2f}s)")


def test_criterion_2_skyscraper_identity_suite():
    start = time.monotonic()
    rho_shift = {"A1": 17, "A2": 81, "B2": 195}  # 8 + ceil((2C)^2)
    for label, level in rho_shift.items():
        rd = build_root_datum(label)
        group = weyl_group(rd)
        rho = (1,) * rd.rank
        for phi in enumerate_dominant(rd, 8):
            sky = skyscraper_class(rd, phi)
            # Weyl-numerator form
            acc = {}
            for m, length in group:
                w_rho = tuple(
                    sum(m[i][j] * rho[j] for j in range(rd.rank)) for i in range(rd.rank)
                )
                term = tuple(phi[i] + rho[i] - w_rho[i] for i in range(rd.rank))
                folded = brute_dominant(rd, term)
                acc[folded] = acc.get(folded, 0) + (-1 if length % 2 else 1)
            acc = {w: c for w, c in acc.items() if c}
            assert sky.as_dict() == acc, (label, phi)
            # truncated restriction collapses to the single irreducible
            assert restrict_kclass(rd, sky, level) == {phi: 1}, (label, phi)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
    report(2, f"skyscraper two-form identity and restriction oracle ({elapsed:.2f}s)")


def test_criterion_3_worked_pushforward_values():
    rd = build_root_datum("A2")
    orbits = classify_orbits(rd)
    subregular = orbits[1]
    gd = grading_data(rd, subregular)

    expected_sub = {(0, 0): 1, (1, 1): -1}
    expected_sky = {(0, 0): 1, (1, 1): -2, (3, 0): 1, (0, 3): 1, (2, 2): -1}

    # independent brute-force subset enumeration first
    assert brute_pushforward(rd, gd, (0, 0)) == expected_sub
    assert brute_pushforward(rd, grading_data(rd, orbits[0]), (0, 0)) == expected_sky

    kc = pushforward(rd, pushforward_kernel(rd, gd), (0, 0))
    assert kc.as_dict() == expected_sub and kc.rank == 1
    assert skyscraper_class(rd, (0, 0)).as_dict() == expected_sky
    report(3, "A2 subregular pushforward and skyscraper match exactly")


def test_criterion_4_basis_cardinalities(basis_cache):
    start = time.monotonic()
    a1 = basis_cache("A1", 16)
    regular_a1 = [v for v in a1.strata[1] if v.certified]
    assert len(regular_a1) == 2  # component group of order 2

    for bound in (18, 32):
        a2 = basis_cache("A2", bound)
        regular_a2 = [v for v in a2.strata[2] if v.certified]
        assert len(regular_a2) == 3, bound  # component group of order 3
        assert {tuple(v.kclass.coeffs) for v in regular_a2} == {
            (((0, 0), 1),),
            (((0, 1), 1),),
            (((1, 0), 1),),
        }
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.2f}s"
    report(4, f"A1 regular = 2, A2 regular = 3 at bound 18 and 32 ({elapsed:.2f}s)")


def test_criterion_5_spanning_and_independence(basis_cache):
    for label, bound in [("A1", 16), ("A2", 18), ("B2", 16)]:
        rd = build_root_datum(label)
        basis = basis_cache(label, bound)
        certified = basis.certified_vectors()
        # independence over the rationals in the truncated window
        axis = enumerate_dominant(rd, basis.support_window_sq)
        index = {w: i for i, w in enumerate(axis)}
        rows = [flatten_kclass(v.kclass, index) for v in certified]
        assert rational_rank(rows) == len(rows), label
        # exact integer span of every small gamma class
        for gamma in enumerate_dominant(rd, bound):
            coords = express_in_geometric_basis(rd, gamma_class(rd, gamma), basis)
            rebuilt = {}
            for v, n in coords.items():
                for w, c in v.kclass.coeffs:
                    rebuilt[w] = rebuilt.get(w, 0) + n * c
            rebuilt = {w: c for w, c in rebuilt.items() if c}
            assert rebuilt == {gamma: 1}, (label, gamma)
    report(5, "certified vectors independent and integrally spanning (A1/A2/B2)")


def test_criterion_6_associated_cycles(basis_cache):
    start = time.monotonic()
    a1rd = build_root_datum("A1")
    a1 = basis_cache("A1", 16)

    trivial = module_to_kclass(a1rd, VirtualModule(terms=((1, (0,), (0,)), (-1, (1,), (1,)))))
    cyc = associated_cycle(express_in_geometric_basis(a1rd, trivial, a1), a1.poset)
    assert cyc.variety == (0,) and cyc.components == ((0, 1),)

    for label, bound in [("A1", 16), ("A2", 18)]:
        rd = build_root_datum(label)
        basis = basis_cache(label, bound)
        regular = basis.orbits[-1].id
        for gamma in enumerate_dominant(rd, 8):
            cyc = associated_cycle(
                express_in_geometric_basis(rd, gamma_class(rd, gamma), basis),
                basis.poset,
            )
            assert cyc.components == ((regular, 1),), (label, gamma)

    for label, bound in [("A1", 32), ("A2", 50)]:
        rd = build_root_datum(label)
        basis = basis_cache(label, bound)
        for phi in enumerate_dominant(rd, 8):
            cyc = associated_cycle(
                express_in_geometric_basis(rd, skyscraper_class(rd, phi), basis),
                basis.poset,
            )
            assert cyc.components == ((0, weyl_dim(rd, None, phi)),), (label, phi)

    two = kclass_add(gamma_class(a1rd, (0,)), gamma_class(a1rd, (2,)))
    cyc = associated_cycle(express_in_geometric_basis(a1rd, two, a1), a1.poset)
    assert cyc.components == ((1, 2),)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.2f}s"
    report(6, f"associated cycles: trivial, principal series, skyscrapers ({elapsed:.2f}s)")


def test_criterion_7_determinism():
    args = [sys.executable, "-m", "kcone.cli", "basis", "A2", "--bound-sq", "18"]
    outputs = [
        subprocess.run(args, capture_output=True, check=True).stdout for _ in range(5)
    ]
    assert all(out == outputs[0] for out in outputs)
    serial = subprocess.run(
        args + ["--parallelism", "1"], capture_output=True, check=True
    ).stdout
    parallel = subprocess.run(
        args + ["--parallelism", "0"], capture_output=True, check=True
    ).stdout
    assert serial == outputs[0] == parallel
    report(7, "byte-identical basis output across 5 runs and parallelism settings")
