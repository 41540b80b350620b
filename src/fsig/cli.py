"""Command-line front end.

Input documents are JSON with unbounded integers:

    {
      "format_version": 1,
      "name": "optional label",
      "ambient_rank": 2,
      "generators": [[2, 0], [1, 1], [0, 2]]
    }

Every subcommand prints aligned text by default and a machine-readable JSON
document with --json; rationals are always rendered exactly as "p/q" (add
--approx for a clearly labeled decimal column).  Exit codes: 0 success,
1 selftest failure, 2 parse error, 3 precondition violation, 4 budget
exceeded.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import families
from .cone import dual_cone_rays, full_embedding
from .errors import BudgetError, ParseError, PreconditionError
from .frobenius import count_aq, hk_colengths
from .semigroup import SemigroupPresentation, build_context, check_normal
from .signature import f_signature

FORMAT_VERSION = 1


def format_rational(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def approx_str(x) -> str:
    return f"{float(Fraction(x)):.12g}"


def load_document(path: str) -> SemigroupPresentation:
    """Parse and validate an input document, mapping all failures to ParseError."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: document must be a JSON object")
    version = doc.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise ParseError(f"{path}: format_version must be {FORMAT_VERSION}, got {version!r}")
    rank = doc.get("ambient_rank")
    if not _is_int(rank):
        raise ParseError(f"{path}: ambient_rank must be an integer, got {rank!r}")
    gens = doc.get("generators")
    if not isinstance(gens, list) or not all(
        isinstance(g, list) and all(map(_is_int, g)) for g in gens
    ):
        raise ParseError(f"{path}: generators must be a list of integer lists")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"{path}: name must be a string")
    try:
        return SemigroupPresentation(rank, tuple(map(tuple, gens)), name=name)
    except PreconditionError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _is_int(x) -> bool:
    """A JSON integer: bool is a subclass of int in Python, but not a number here."""
    return isinstance(x, int) and not isinstance(x, bool)


def emit_document(path: str, presentation: SemigroupPresentation) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "ambient_rank": presentation.ambient_rank,
        "generators": [list(g) for g in presentation.generators],
    }
    if presentation.name is not None:
        doc["name"] = presentation.name
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _presentation_json(p: SemigroupPresentation) -> dict:
    return {
        "name": p.name,
        "ambient_rank": p.ambient_rank,
        "generators": [list(g) for g in p.generators],
    }


def _print_kv(pairs) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"{key.ljust(width)}  {value}")


def cmd_signature(args) -> int:
    presentation = load_document(args.file)
    result = f_signature(presentation)
    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "command": "signature",
            "input": _presentation_json(presentation),
            "lattice_rank": result.embedding.rank,
            "facet_count": result.embedding.num_coordinates,
            "signature": format_rational(result.value),
        }
        if args.approx:
            doc["signature_approx"] = approx_str(result.value)
        print(json.dumps(doc, indent=2))
    else:
        rows = [
            ("name", presentation.name or "(unnamed)"),
            ("ambient rank", str(presentation.ambient_rank)),
            ("generators", str(len(presentation.generators))),
            ("lattice rank", str(result.embedding.rank)),
            ("facet count", str(result.embedding.num_coordinates)),
            ("F-signature", format_rational(result.value)),
        ]
        if args.approx:
            rows.append(("approx", approx_str(result.value)))
        _print_kv(rows)
    return 0


def cmd_facets(args) -> int:
    presentation = load_document(args.file)
    ctx = build_context(presentation)
    emb = full_embedding(ctx)
    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "command": "facets",
            "input": _presentation_json(presentation),
            "lattice_rank": emb.rank,
            "lattice_basis": [list(r) for r in ctx.lattice.rows],
            "facets": [
                {
                    "coefficients": [format_rational(c) for c in f.coefficients],
                    "values_on_generators": list(f.values_on_generators),
                }
                for f in emb.functionals
            ],
            "embedding_matrix": [list(r) for r in emb.matrix_T.rows],
            "image_generators": [list(g) for g in emb.image_generators],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"lattice rank {emb.rank}, {emb.num_coordinates} facet functionals")
        for k, f in enumerate(emb.functionals):
            coeffs = ", ".join(format_rational(c) for c in f.coefficients)
            vals = ", ".join(str(v) for v in f.values_on_generators)
            print(f"  w{k}: coefficients ({coeffs})  values on generators ({vals})")
        print("embedding matrix (rows act on lattice coordinates):")
        for row in emb.matrix_T.rows:
            print("  " + "  ".join(f"{x:>4}" for x in row))
        print("image generators:")
        for g, img in zip(presentation.generators, emb.image_generators):
            print(f"  {tuple(g)} -> {tuple(img)}")
    return 0


def _parse_q_list(args) -> list[int]:
    if args.q:
        try:
            qs = [int(part) for part in args.q.split(",")]
        except ValueError as exc:
            raise ParseError(f"--q expects a comma-separated integer list: {exc}") from exc
    else:
        qs = list(range(1, args.q_max + 1))
    if not qs or any(q < 1 for q in qs) or any(b <= a for a, b in zip(qs, qs[1:])):
        raise ParseError("q values must be positive and strictly ascending")
    return qs


def cmd_aq(args) -> int:
    presentation = load_document(args.file)
    emb = full_embedding(build_context(presentation))
    table = [count_aq(emb, q) for q in _parse_q_list(args)]
    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "command": "aq",
            "input": _presentation_json(presentation),
            "lattice_rank": emb.rank,
            "table": [
                {
                    "q": row.q,
                    "a_q": row.a_q,
                    "ratio": format_rational(row.ratio),
                    **({"ratio_approx": approx_str(row.ratio)} if args.approx else {}),
                }
                for row in table
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        header = f"{'q':>6}  {'a_q':>12}  {'a_q/q^d':>16}"
        if args.approx:
            header += f"  {'~approx':>16}"
        print(header)
        for row in table:
            line = f"{row.q:>6}  {row.a_q:>12}  {format_rational(row.ratio):>16}"
            if args.approx:
                line += f"  {approx_str(row.ratio):>16}"
            print(line)
    return 0


def cmd_hk(args) -> int:
    if args.t < 1 or args.q < 1:
        raise ParseError("--t and --q must be positive integers")
    if args.budget < 1:
        raise ParseError("--budget must be a positive integer")
    presentation = load_document(args.file)
    emb = full_embedding(build_context(presentation))
    colengths = hk_colengths(emb, args.t, args.q, budget=args.budget)
    difference = colengths.not_dividing - colengths.with_witness
    a_q = count_aq(emb, args.q).a_q
    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "command": "hk",
            "input": _presentation_json(presentation),
            "t": args.t,
            "q": args.q,
            "witness_mu": list(colengths.mu),
            "colength_not_dividing": colengths.not_dividing,
            "colength_with_witness": colengths.with_witness,
            "difference": difference,
            "a_q": a_q,
            "identity_holds": difference == a_q,
        }
        print(json.dumps(doc, indent=2))
    else:
        _print_kv(
            [
                ("witness monomial", str(colengths.mu)),
                (f"colength at t={args.t}, q={args.q}", str(colengths.not_dividing)),
                ("colength with witness added", str(colengths.with_witness)),
                ("difference", str(difference)),
                ("a_q", str(a_q)),
                ("identity holds", "yes" if difference == a_q else "NO"),
            ]
        )
    return 0


def cmd_family(args) -> int:
    if args.kind == "segre":
        presentation = families.segre_generators(args.p1, args.p2)
        closed = families.segre_signature(args.p1, args.p2)
    else:
        presentation = families.veronese_generators(args.p1, args.p2)
        closed = families.veronese_signature(args.p1, args.p2)
    computed = f_signature(presentation).value
    if args.emit:
        emit_document(args.emit, presentation)
    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "command": "family",
            "family": args.kind,
            "parameters": [args.p1, args.p2],
            "closed_form": format_rational(closed),
            "computed": format_rational(computed),
            **({"computed_approx": approx_str(computed)} if args.approx else {}),
            "match": closed == computed,
        }
        if args.emit:
            doc["emitted"] = args.emit
        print(json.dumps(doc, indent=2))
    else:
        rows = [
            ("family", f"{args.kind}({args.p1},{args.p2})"),
            ("closed-form signature", format_rational(closed)),
            ("computed signature", format_rational(computed)),
            ("match", "yes" if closed == computed else "NO"),
        ]
        if args.approx:
            rows.append(("approx", approx_str(computed)))
        if args.emit:
            rows.append(("emitted", args.emit))
        _print_kv(rows)
    return 0


def cmd_check_normal(args) -> int:
    if args.bound < 1:
        raise ParseError("--bound must be a positive integer")
    presentation = load_document(args.file)
    ctx = build_context(presentation)
    verdict = check_normal(ctx, full_embedding(ctx).functionals, args.bound)
    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "command": "check-normal",
            "input": _presentation_json(presentation),
            "bound": verdict.bound,
            "normal_up_to_bound": verdict.normal,
            "counterexample": list(verdict.counterexample) if verdict.counterexample else None,
        }
        print(json.dumps(doc, indent=2))
    else:
        if verdict.normal:
            print(f"normal up to bound {verdict.bound} (bounded certificate only)")
        else:
            print(
                f"NOT normal: {verdict.counterexample} lies in the group and cone "
                "but is not a generator combination"
            )
    if not verdict.normal:
        return 3
    return 0


def _selftest_checks():
    from .exact import IntegerMatrix, determinant, express_in_basis, hermite_basis
    from .frobenius import brute_force_aq, hk_difference_identity
    from .signature import polytope_volume, signature_polytope

    free2 = SemigroupPresentation(2, ((1, 0), (0, 1)), name="free(2)")
    veronese22 = families.veronese_generators(2, 2)
    segre22 = families.segre_generators(2, 2)

    def check_hermite():
        got = hermite_basis(IntegerMatrix(((2, 0), (1, 1), (0, 2))))
        return got.rows == ((1, 1), (0, 2))

    def check_determinant():
        return determinant(IntegerMatrix(((1, 2), (3, 4)))) == -2

    def check_express():
        basis = IntegerMatrix(((1, 1), (0, 2)))
        return (
            express_in_basis((2, 0), basis) == (2, -1)
            and express_in_basis((1, 0), basis) is None
        )

    def check_dual_rays():
        ctx = build_context(SemigroupPresentation(2, ((1, 0), (1, 2))))
        return dual_cone_rays(ctx) == [(0, 1), (2, -1)]

    def check_rescaled_free():
        return f_signature(SemigroupPresentation(2, ((2, 0), (0, 2)))).value == 1

    def check_veronese_volume():
        emb = full_embedding(build_context(veronese22))
        return polytope_volume(signature_polytope(emb), self_check=True) == Fraction(1, 2)

    def check_segre_signature():
        return f_signature(segre22).value == Fraction(2, 3)

    def check_veronese_signature():
        return f_signature(families.veronese_generators(2, 3)).value == Fraction(1, 3)

    def check_counts():
        emb = full_embedding(build_context(veronese22))
        segre_emb = full_embedding(build_context(segre22))
        return (
            count_aq(emb, 3).a_q == 5
            and count_aq(segre_emb, 3).a_q == 19
            and brute_force_aq(veronese22, 3) == 5
            and brute_force_aq(segre22, 2) == 6
        )

    def check_hk_identity():
        emb = full_embedding(build_context(veronese22))
        free_emb = full_embedding(build_context(free2))
        return (
            hk_difference_identity(emb, 1, 3).equal
            and hk_difference_identity(free_emb, 1, 2) == (4, 4, True)
        )

    def check_eulerian():
        return (
            families.eulerian(3, 2) == 4
            and families.eulerian(4, 3) == 11
            and families.eulerian_alternating_sum(5, 3) == 66
        )

    def check_closed_form():
        return (
            families.segre_aq_closed_form(2, 2, 2) == 6
            and families.segre_aq_closed_form(2, 2, 3) == 19
            and families.segre_signature(2, 3) == Fraction(11, 24)
        )

    def check_normality_diagnostic():
        bad = SemigroupPresentation(2, ((2, 0), (0, 1), (1, 1)))
        ctx = build_context(bad)
        verdict = check_normal(ctx, full_embedding(ctx).functionals, 4)
        return not verdict.normal and verdict.counterexample == (1, 0)

    return [
        ("hermite basis", check_hermite),
        ("determinant", check_determinant),
        ("express in basis", check_express),
        ("dual cone rays", check_dual_rays),
        ("rescaled free semigroup has signature 1", check_rescaled_free),
        ("veronese(2,2) polytope volume 1/2", check_veronese_volume),
        ("segre(2,2) signature 2/3", check_segre_signature),
        ("veronese(2,3) signature 1/3", check_veronese_signature),
        ("free-rank counts", check_counts),
        ("colength difference identity", check_hk_identity),
        ("eulerian numbers", check_eulerian),
        ("segre closed forms", check_closed_form),
        ("normality counterexample", check_normality_diagnostic),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    results = []
    for label, thunk in _selftest_checks():
        try:
            ok = thunk()
        except Exception as exc:  # a crash is a failure, keep going
            ok = False
            label = f"{label} ({type(exc).__name__}: {exc})"
        results.append((label, ok))
        if not ok:
            failures += 1
    if args.json:
        doc = {
            "format_version": FORMAT_VERSION,
            "command": "selftest",
            "results": [{"check": label, "pass": ok} for label, ok in results],
            "failures": failures,
        }
        print(json.dumps(doc, indent=2))
    else:
        for label, ok in results:
            print(f"{'PASS' if ok else 'FAIL'}  {label}")
        print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsig",
        description="Exact F-signature computation for normal affine semigroup rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--approx",
            action="store_true",
            help="add decimal approximations (clearly labeled; defaults are exact)",
        )

    p = sub.add_parser("signature", help="compute the F-signature of a presentation")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(handler=cmd_signature)

    p = sub.add_parser("facets", help="facet functionals and the full embedding")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(handler=cmd_facets)

    p = sub.add_parser("aq", help="table of free ranks a_q with exact ratios")
    p.add_argument("file")
    p.add_argument("--q-max", type=int, default=8, help="tabulate q = 1..Q")
    p.add_argument("--q", help="explicit comma-separated q list (overrides --q-max)")
    add_common(p)
    p.set_defaults(handler=cmd_aq)

    p = sub.add_parser("hk", help="colengths and the difference identity")
    p.add_argument("file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument(
        "--budget",
        type=int,
        default=5_000_000,
        help="cap on the points counted per colength (exit 4 when exceeded)",
    )
    add_common(p)
    p.set_defaults(handler=cmd_hk)

    p = sub.add_parser("family", help="built-in families with closed-form signatures")
    p.add_argument("kind", choices=("segre", "veronese"))
    p.add_argument("p1", type=int)
    p.add_argument("p2", type=int)
    p.add_argument("--emit", metavar="FILE", help="write the presentation document")
    add_common(p)
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("check-normal", help="bounded normality diagnostic")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=6)
    add_common(p)
    p.set_defaults(handler=cmd_check_normal)

    p = sub.add_parser("selftest", help="run the built-in example corpus")
    add_common(p)
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error (precondition violated): {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"error (budget exceeded): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
