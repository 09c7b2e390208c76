"""Command-line front end.

Subcommands: orbits, basis, acycle, pushforward, selftest.  All output is
deterministic: weights are serialized as integer lists in a fixed order and
rational bounds as exact "p/q" strings, so repeated runs are byte-identical.
--parallelism is accepted for compatibility and has no effect.

Exit codes: 0 success, 1 an internal fault (with a traceback) or a failed
selftest check, 2 argument/parse errors (including unknown types, missing
orbit tables and malformed module files, whose message names the bad
field), 3 resource-cap errors (including windows too large to enumerate), 4
bound-too-small errors, 141 when the reader of stdout closed it early (as
in `kcone basis ... | head`): no error line is printed, stdout is pointed
at os.devnull so the shutdown stays silent, and 141 is what a shell
reports for a process that SIGPIPE ended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .assocvar import (
    BoundTooSmallError,
    VirtualModule,
    associated_cycle,
    express_in_geometric_basis,
    module_to_kclass,
)
from .ktheory import (
    KClass,
    SubsetCapExceededError,
    gamma_class,
    kclass_from_terms,
    pushforward,
    pushforward_kernel,
    skyscraper_class,
)
from .nilpotent import classify_orbits, closure_poset, grading_data
from .orbitalg import GeometricBasis, GeometricBasisVector, full_basis
from .repcalc import restrict_gamma_class, restrict_kclass
from .rootdata import RootDatum, build_root_datum

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BOUND = 4
EXIT_BROKEN_PIPE = 141


def _fraction_arg(raw: str) -> Fraction:
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {raw!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("bound must be nonnegative")
    return value


def _nonnegative_int_arg(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _weight_arg(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer vector: {raw!r}")


def _terms_text(kc: KClass) -> str:
    """The class's terms as +c[w] with signed coefficients, in coeffs order."""
    return " ".join(f"{c:+d}[{','.join(map(str, w))}]" for w, c in kc.coeffs)


def _kclass_json(kc: KClass) -> dict:
    return {
        "coeffs": [{"weight": list(w), "coef": c} for w, c in kc.coeffs],
        "rank": kc.rank,
    }


def _emit(payload, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines():
            print(line)


def cmd_orbits(args: argparse.Namespace) -> int:
    rd = build_root_datum(args.type)
    orbits = classify_orbits(rd)
    poset = closure_poset(rd, orbits)
    payload = [
        {
            "id": o.id,
            "label": o.label,
            "dynkin_marks": list(o.dynkin_marks),
            "dimension": o.dimension,
            "covers": list(poset.covers[o.id]),
        }
        for o in orbits
    ]

    def text_lines():
        yield f"nilpotent orbits of {args.type}"
        yield f"{'id':>3} {'label':<14} {'marks':<16} {'dim':>4}  covers"
        for rec in payload:
            marks = ",".join(str(m) for m in rec["dynkin_marks"])
            covers = ",".join(str(c) for c in rec["covers"]) or "-"
            yield f"{rec['id']:>3} {rec['label']:<14} {marks:<16} {rec['dimension']:>4}  {covers}"

    _emit(payload, args.format, text_lines)
    return EXIT_OK


def _json_list(items: list[str], newline: str) -> str:
    """A JSON list of written items; newline is "\n" plus the indentation of its line."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _vector_text(v: GeometricBasisVector) -> str:
    """A basis vector as json.dumps(indent=2) writes it inside a basis document.

    There a vector always opens at depth 4 (strata, stratum, vectors,
    vector), so every indentation below is fixed.  Weights, coefficients
    and the orbit, index and rank are ints, certified is a bool, and the
    class's rank is an int or None.
    """
    comb = [
        '{\n              "levi_weight": [\n                '
        + ",\n                ".join(map(int.__repr__, w))
        + '\n              ],\n              "coef": '
        + int.__repr__(c)
        + "\n            }"
        for w, c in v.combination
    ]
    terms = [
        '{\n                "weight": [\n                  '
        + ",\n                  ".join(map(int.__repr__, w))
        + '\n                ],\n                "coef": '
        + int.__repr__(c)
        + "\n              }"
        for w, c in v.kclass.coeffs
    ]
    comb_text = _json_list(comb, "\n          ")
    terms_text = _json_list(terms, "\n            ")
    rank = "null" if v.kclass.rank is None else int.__repr__(v.kclass.rank)
    return (
        f'{{\n          "orbit": {v.orbit_id:d},\n          "index": {v.index:d},'
        f'\n          "certified": {"true" if v.certified else "false"},'
        f'\n          "rank": {v.rank:d},\n          "combination": {comb_text},'
        f'\n          "kclass": {{\n            "coeffs": {terms_text},'
        f'\n            "rank": {rank}\n          }}\n        }}'
    )


def _write_basis_json(basis: GeometricBasis, orbit_filter: Optional[int], write) -> None:
    """Write the basis document, one vector at a time.

    The bytes are json.dumps(payload, indent=2) + "\n" of the payload
    {"type", "bound_sq", "norm_constant", "span_window_sq",
    "support_window_sq", "strata"}, whose strata are {"orbit", "label",
    "dimension", "vectors"}; _vector_text writes each vector, and the
    fixed text around them is what that encoder writes at those depths:
    each item or "key": value pair on its own line, indented two spaces
    deeper than its container, strings through encode_basestring_ascii as
    json.dumps writes them with ensure_ascii on.  No payload is built.
    """
    enc = encode_basestring_ascii
    write(
        f'{{\n  "type": {enc(basis.type_label)},\n  "bound_sq": {enc(str(basis.bound_sq))},'
        f'\n  "norm_constant": {enc(str(basis.norm_constant))},'
        f'\n  "span_window_sq": {enc(str(basis.span_window_sq))},'
        f'\n  "support_window_sq": {enc(str(basis.support_window_sq))},\n  "strata": '
    )
    orbits = _shown_orbits(basis, orbit_filter)
    if not orbits:
        write("[]\n}\n")
        return
    sep = "[\n    "
    for orbit in orbits:
        write(
            f'{sep}{{\n      "orbit": {orbit.id:d},\n      "label": {enc(orbit.label)},'
            f'\n      "dimension": {orbit.dimension:d},\n      "vectors": '
        )
        vectors = basis.strata[orbit.id]
        if not vectors:
            write("[]\n    }")
        else:
            vsep = "[\n        "
            for v in vectors:
                write(vsep + _vector_text(v))
                vsep = ",\n        "
            write("\n      ]\n    }")
        sep = ",\n    "
    write("\n  ]\n}\n")


def _write_basis_text(basis: GeometricBasis, orbit_filter: Optional[int], write) -> None:
    write(f"geometric basis for {basis.type_label}, bound^2 = {basis.bound_sq}\n")
    for orbit in _shown_orbits(basis, orbit_filter):
        write(f"orbit {orbit.id} ({orbit.label}, dim {orbit.dimension}):\n")
        for v in basis.strata[orbit.id]:
            flag = "certified" if v.certified else "provisional"
            write(f"  #{v.index} rank {v.rank} ({flag}): {_terms_text(v.kclass)}\n")


def _shown_orbits(basis: GeometricBasis, orbit_filter: Optional[int]):
    return [o for o in basis.orbits if orbit_filter is None or o.id == orbit_filter]


def cmd_basis(args: argparse.Namespace) -> int:
    rd = build_root_datum(args.type)
    if args.orbit is not None and not any(o.id == args.orbit for o in classify_orbits(rd)):
        print(f"error: no orbit with id {args.orbit} in {args.type}", file=sys.stderr)
        return EXIT_USAGE
    basis = full_basis(rd, args.bound_sq)
    write = _write_basis_json if args.format == "json" else _write_basis_text
    write(basis, args.orbit, sys.stdout.write)
    return EXIT_OK


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_field(x, what: str) -> int:
    if not _is_int(x):
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def _weight_field(raw, rank: int) -> tuple[int, ...]:
    if not isinstance(raw, list) or not all(_is_int(x) for x in raw):
        raise ValueError(f"weight {raw!r} is not a list of integers")
    if len(raw) != rank:
        raise ValueError(f"weight length mismatch in {raw!r}; expected rank {rank}")
    return tuple(raw)


def _shaped(x, kind: type, what: str):
    """x if it is a JSON object (kind dict) or list (kind list), else a ValueError naming what."""
    if not isinstance(x, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return x


def _member(obj: dict, key: str, what: str):
    if key not in obj:
        raise ValueError(f'{what} has no "{key}" key')
    return obj[key]


def _parse_module_file(path: str, rd: RootDatum) -> KClass:
    """The class of the virtual module in the file at path.

    The file gives exactly one of "standards", folded by module_to_kclass,
    and "kclass", folded by kclass_from_terms.  Every shape fault is a
    ValueError naming its field.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = _shaped(json.load(fh), dict, "a module file")
    if "standards" in data and "kclass" in data:
        raise ValueError('a module file gives "standards" or "kclass", not both')
    if "standards" in data:
        where = 'a "standards" entry'
        terms = []
        for entry in _shaped(data["standards"], list, '"standards"'):
            _shaped(entry, dict, where)
            coef = _int_field(_member(entry, "coef", where), "coefficient")
            lam_l = _weight_field(_member(entry, "lambda_l", where), rd.rank)
            lam_r = _weight_field(_member(entry, "lambda_r", where), rd.rank)
            terms.append((coef, lam_l, lam_r))
        return module_to_kclass(rd, VirtualModule(terms=tuple(terms)))
    if "kclass" in data:
        raw = _shaped(data["kclass"], dict, '"kclass"')
        where = 'a "coeffs" entry'
        coeffs = []
        for item in _shaped(_member(raw, "coeffs", '"kclass"'), list, '"coeffs"'):
            _shaped(item, dict, where)
            weight = _weight_field(_member(item, "weight", where), rd.rank)
            coeffs.append((weight, _int_field(_member(item, "coef", where), "coefficient")))
        rank_field = raw.get("rank")
        if rank_field is not None:
            _int_field(rank_field, "rank")
        return kclass_from_terms(rd, coeffs, rank_field)
    raise ValueError('module file needs a "standards" or "kclass" key')


def cmd_acycle(args: argparse.Namespace) -> int:
    rd = build_root_datum(args.type)
    kc = _parse_module_file(args.module, rd)
    basis = full_basis(rd, args.bound_sq)
    coords = express_in_geometric_basis(rd, kc, basis)
    cycle = associated_cycle(coords, basis.poset)
    labels = {o.id: o.label for o in basis.orbits}
    payload = {
        "variety": list(cycle.variety),
        "cycle": [
            {"orbit": oid, "label": labels[oid], "multiplicity": mult}
            for oid, mult in cycle.components
        ],
    }

    def text_lines():
        if not cycle.components:
            yield "zero class: empty associated variety"
        for oid, mult in cycle.components:
            yield f"orbit {oid} ({labels[oid]}): multiplicity {mult}"

    _emit(payload, args.format, text_lines)
    return EXIT_OK


def cmd_pushforward(args: argparse.Namespace) -> int:
    rd = build_root_datum(args.type)
    orbits = classify_orbits(rd)
    if not any(o.id == args.orbit for o in orbits):
        print(f"error: --orbit must name an orbit id of {args.type}", file=sys.stderr)
        return EXIT_USAGE
    gd = grading_data(rd, orbits[args.orbit])
    kc = pushforward(rd, pushforward_kernel(rd, gd), args.phi)
    payload = {
        "type": args.type,
        "orbit": args.orbit,
        "phi": list(args.phi),
        "kclass": _kclass_json(kc),
    }

    def text_lines():
        yield (f"pushforward of {list(args.phi)} on orbit {args.orbit}: "
               f"rank {kc.rank}: {_terms_text(kc)}")

    _emit(payload, args.format, text_lines)
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = []

    def check(name: str, fn) -> None:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures.append(name)
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")

    def orbit_counts():
        for label, count in [("A1", 2), ("A2", 3), ("A3", 5), ("B2", 4), ("G2", 5)]:
            rd = build_root_datum(label)
            got = len(classify_orbits(rd))
            assert got == count, f"{label}: {got} orbits, expected {count}"

    def skyscraper_a2():
        rd = build_root_datum("A2")
        kc = kclass_from_terms(
            rd, [((0, 0), 1), ((1, 1), -2), ((3, 0), 1), ((0, 3), 1), ((2, 2), -1)]
        )
        assert skyscraper_class(rd, (0, 0)).coeffs == kc.coeffs

    def restriction_oracle():
        rd = build_root_datum("A1")
        assert restrict_gamma_class(rd, (0,), 16) == {(0,): 1, (2,): 1, (4,): 1}
        assert restrict_kclass(rd, skyscraper_class(rd, (1,)), 20) == {(1,): 1}

    def subregular_pushforward():
        rd = build_root_datum("A2")
        orbits = classify_orbits(rd)
        gd = grading_data(rd, orbits[1])
        kc = pushforward(rd, pushforward_kernel(rd, gd), (0, 0))
        assert kc.as_dict() == {(0, 0): 1, (1, 1): -1} and kc.rank == 1

    def a1_cycle():
        rd = build_root_datum("A1")
        basis = full_basis(rd, 16)
        kc = module_to_kclass(rd, VirtualModule(terms=((1, (0,), (0,)), (-1, (1,), (1,)))))
        cycle = associated_cycle(express_in_geometric_basis(rd, kc, basis), basis.poset)
        assert cycle.components == ((0, 1),)
        kc = gamma_class(rd, (0,))
        cycle = associated_cycle(express_in_geometric_basis(rd, kc, basis), basis.poset)
        assert cycle.components == ((1, 1),)

    check("orbit counts", orbit_counts)
    check("A2 skyscraper class", skyscraper_a2)
    check("A2 subregular pushforward", subregular_pushforward)
    check("A1 restriction oracle", restriction_oracle)
    check("A1 associated cycles", a1_cycle)
    return EXIT_OK if not failures else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcone",
        description="Geometric bases of equivariant K-theory of the nilpotent "
        "cone, and associated cycles of virtual modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, bound=False):
        p.add_argument("type", help="Cartan type label, e.g. A2, B3, G2, A1xA1")
        if bound:
            p.add_argument(
                "--bound-sq",
                type=_fraction_arg,
                required=True,
                help="squared norm bound (rational, e.g. 16 or 33/2)",
            )
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument(
            "--parallelism",
            type=_nonnegative_int_arg,
            default=0,
            help="accepted for compatibility; has no effect",
        )

    p_orbits = sub.add_parser("orbits", help="classify nilpotent orbits")
    add_common(p_orbits)
    p_orbits.set_defaults(run=cmd_orbits)

    p_basis = sub.add_parser("basis", help="compute the geometric basis")
    add_common(p_basis, bound=True)
    p_basis.set_defaults(run=cmd_basis)
    p_basis.add_argument("--orbit", type=int, default=None, help="restrict output to one orbit id")

    p_acycle = sub.add_parser("acycle", help="associated cycle of a virtual module")
    add_common(p_acycle, bound=True)
    p_acycle.set_defaults(run=cmd_acycle)
    p_acycle.add_argument("--module", required=True, help="JSON module file")

    p_push = sub.add_parser("pushforward", help="pushforward of one Levi weight")
    add_common(p_push)
    p_push.set_defaults(run=cmd_pushforward)
    p_push.add_argument("--orbit", type=int, required=True, help="orbit id")
    p_push.add_argument(
        "--phi",
        type=_weight_arg,
        required=True,
        help="Levi weight, e.g. 1,0; write a negative first entry as --phi=-1,0",
    )

    sub.add_parser("selftest", help="run built-in consistency checks").set_defaults(run=cmd_selftest)
    return parser


def _stdout_to_devnull() -> None:
    """Point stdout at os.devnull, so that no later flush meets the closed pipe."""
    devnull = open(os.devnull, "w")
    try:
        os.dup2(devnull.fileno(), sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):  # a stdout without a file descriptor
        sys.stdout = devnull
    else:
        devnull.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a reader that left before the last bytes shows here
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except BoundTooSmallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except SubsetCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OverflowError as exc:
        print(f"error: truncation window too large to enumerate: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory; try a smaller bound", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
