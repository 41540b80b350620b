"""Command-line front end.

Input documents are JSON with unbounded integers:

    {
      "format_version": 1,
      "name": "optional label",
      "ambient_rank": 2,
      "generators": [[2, 0], [1, 1], [0, 2]]
    }

Each subcommand builds its output once, as a list of fields, and _report
prints them: aligned text by default, a machine-readable JSON document with
--json.  facets, aq, check-normal and selftest print free-form text instead
of rows.  Rationals are always rendered exactly as "p/q" (signature, aq and
family add a clearly labeled decimal field with --approx).  Exit codes:
0 success, 1 selftest failure, 2 parse error, 3 precondition violation,
4 budget exceeded.  Each subcommand imports the layers it runs inside its
handler, so a process loads no layer its command does not use.
"""

import argparse
import json
import sys
from fractions import Fraction

from .cone import full_embedding
from .errors import BudgetError, ParseError, PreconditionError
from .semigroup import SemigroupPresentation, build_context, check_normal

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


def _text(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _report(args, fields, presentation=None, lines=None) -> None:
    """Print a command's output: one JSON document with --json, else text.

    Each field is (json_key, text_label, value); a field with no key is text
    only and one with no label is JSON only.  JSON renders Fractions as "p/q"
    and tuples as lists; text prints aligned label-value rows, Fractions as
    p/q and booleans as yes/NO, or the free-form lines when a command has them.
    """
    if args.json:
        doc = {"format_version": FORMAT_VERSION, "command": args.command}
        if presentation is not None:
            doc["input"] = {
                "name": presentation.name,
                "ambient_rank": presentation.ambient_rank,
                "generators": presentation.generators,
            }
        doc.update((key, value) for key, _, value in fields if key)
        print(json.dumps(doc, indent=2, default=format_rational))
    elif lines is not None:
        for line in lines:
            print(line)
    else:
        rows = [(label, _text(value)) for _, label, value in fields if label]
        width = max(len(label) for label, _ in rows)
        for label, value in rows:
            print(f"{label.ljust(width)}  {value}")


def cmd_signature(args) -> int:
    from .signature import f_signature

    presentation = load_document(args.file)
    result = f_signature(presentation)
    fields = [
        (None, "name", presentation.name or "(unnamed)"),
        (None, "ambient rank", presentation.ambient_rank),
        (None, "generators", len(presentation.generators)),
        ("lattice_rank", "lattice rank", result.embedding.rank),
        ("facet_count", "facet count", result.embedding.num_coordinates),
        ("signature", "F-signature", result.value),
    ]
    if args.approx:
        fields.append(("signature_approx", "approx", approx_str(result.value)))
    _report(args, fields, presentation)
    return 0


def cmd_facets(args) -> int:
    presentation = load_document(args.file)
    ctx = build_context(presentation)
    emb = full_embedding(ctx)
    functionals = [
        {"coefficients": f.coefficients, "values_on_generators": f.values_on_generators}
        for f in emb.functionals
    ]
    fields = [
        ("lattice_rank", None, emb.rank),
        ("lattice_basis", None, ctx.lattice.rows),
        ("facets", None, functionals),
        ("embedding_matrix", None, emb.matrix_T.rows),
        ("image_generators", None, emb.image_generators),
    ]
    lines = [f"lattice rank {emb.rank}, {emb.num_coordinates} facet functionals"]
    for k, f in enumerate(emb.functionals):
        coeffs = ", ".join(format_rational(c) for c in f.coefficients)
        vals = ", ".join(str(v) for v in f.values_on_generators)
        lines.append(f"  w{k}: coefficients ({coeffs})  values on generators ({vals})")
    lines.append("embedding matrix (rows act on lattice coordinates):")
    lines += ["  " + "  ".join(f"{x:>4}" for x in row) for row in emb.matrix_T.rows]
    lines.append("image generators:")
    for g, img in zip(presentation.generators, emb.image_generators):
        lines.append(f"  {tuple(g)} -> {tuple(img)}")
    _report(args, fields, presentation, lines)
    return 0


def _parse_q_list(args) -> list[int]:
    if args.q is not None:
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
    from .frobenius import count_aq

    qs = _parse_q_list(args)
    presentation = load_document(args.file)
    emb = full_embedding(build_context(presentation))
    table = []
    for q in qs:
        row = count_aq(emb, q)
        table.append({"q": row.q, "a_q": row.a_q, "ratio": row.ratio})
        if args.approx:
            table[-1]["ratio_approx"] = approx_str(row.ratio)
    header = ("q", "a_q", "a_q/q^d", "~approx")[: len(table[0])]
    lines = [
        "  ".join(f"{_text(x):>{width}}" for x, width in zip(cells, (6, 12, 16, 16)))
        for cells in [header, *(row.values() for row in table)]
    ]
    fields = [("lattice_rank", None, emb.rank), ("table", None, table)]
    _report(args, fields, presentation, lines)
    return 0


def cmd_hk(args) -> int:
    from .frobenius import hk_difference_identity

    if args.t < 1 or args.q < 1:
        raise ParseError("--t and --q must be positive integers")
    if args.budget < 1:
        raise ParseError("--budget must be a positive integer")
    presentation = load_document(args.file)
    emb = full_embedding(build_context(presentation))
    identity = hk_difference_identity(emb, args.t, args.q, budget=args.budget)
    fields = [
        ("t", None, args.t),
        ("q", None, args.q),
        ("witness_mu", "witness monomial", identity.mu),
        ("colength_not_dividing", f"colength at t={args.t}, q={args.q}", identity.not_dividing),
        ("colength_with_witness", "colength with witness added", identity.with_witness),
        ("difference", "difference", identity.lhs),
        ("a_q", "a_q", identity.rhs),
        ("identity_holds", "identity holds", identity.equal),
    ]
    _report(args, fields, presentation)
    return 0


def cmd_family(args) -> int:
    from . import families
    from .signature import f_signature

    if args.kind == "segre":
        presentation = families.segre_generators(args.p1, args.p2)
        closed = families.segre_signature(args.p1, args.p2)
    else:
        presentation = families.veronese_generators(args.p1, args.p2)
        closed = families.veronese_signature(args.p1, args.p2)
    computed = f_signature(presentation).value
    if args.emit:
        emit_document(args.emit, presentation)
    fields = [
        ("family", None, args.kind),
        ("parameters", None, (args.p1, args.p2)),
        (None, "family", f"{args.kind}({args.p1},{args.p2})"),
        ("closed_form", "closed-form signature", closed),
        ("computed", "computed signature", computed),
    ]
    # JSON puts the approximation before the match, text after it
    if args.approx:
        fields.append(("computed_approx", None, approx_str(computed)))
    fields.append(("match", "match", closed == computed))
    if args.approx:
        fields.append((None, "approx", approx_str(computed)))
    if args.emit:
        fields.append(("emitted", "emitted", args.emit))
    _report(args, fields)
    return 0


def cmd_check_normal(args) -> int:
    if args.bound < 1:
        raise ParseError("--bound must be a positive integer")
    presentation = load_document(args.file)
    ctx = build_context(presentation)
    verdict = check_normal(ctx, full_embedding(ctx).functionals, args.bound)
    fields = [
        ("bound", None, verdict.bound),
        ("normal_up_to_bound", None, verdict.normal),
        ("counterexample", None, verdict.counterexample),
    ]
    if verdict.normal:
        line = f"normal up to bound {verdict.bound} (bounded certificate only)"
    else:
        line = (
            f"NOT normal: {verdict.counterexample} lies in the group and cone "
            "but is not a generator combination"
        )
    _report(args, fields, presentation, [line])
    return 0 if verdict.normal else 3


def _selftest_checks():
    from . import families
    from .exact import IntegerMatrix, determinant, express_in_basis, hermite_basis
    from .frobenius import brute_force_aq, count_aq, hk_difference_identity
    from .signature import _walk_volume, f_signature, polytope_volume, signature_polytope

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
        return [f.ray for f in full_embedding(ctx).functionals] == [(0, 1), (2, -1)]

    def check_rescaled_free():
        return f_signature(SemigroupPresentation(2, ((2, 0), (0, 2)))).value == 1

    def check_veronese_volume():
        p = signature_polytope(full_embedding(build_context(veronese22)))
        return polytope_volume(p) == _walk_volume(p) == Fraction(1, 2)

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
            and hk_difference_identity(free_emb, 1, 2)[:3] == (4, 4, True)
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
    results = []
    for label, thunk in _selftest_checks():
        try:
            ok = thunk()
        except Exception as exc:  # a crash is a failure, keep going
            ok = False
            label = f"{label} ({type(exc).__name__}: {exc})"
        results.append({"check": label, "pass": ok})
    failures = sum(not result["pass"] for result in results)
    lines = [f"{'PASS' if r['pass'] else 'FAIL'}  {r['check']}" for r in results]
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    _report(args, [("results", None, results), ("failures", None, failures)], lines=lines)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsig",
        description="Exact F-signature computation for normal affine semigroup rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, approx=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if approx:
            p.add_argument(
                "--approx",
                action="store_true",
                help="add decimal approximations (clearly labeled; defaults are exact)",
            )

    p = sub.add_parser("signature", help="compute the F-signature of a presentation")
    p.add_argument("file")
    add_common(p, approx=True)
    p.set_defaults(handler=cmd_signature)

    p = sub.add_parser("facets", help="facet functionals and the full embedding")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(handler=cmd_facets)

    p = sub.add_parser("aq", help="table of free ranks a_q with exact ratios")
    p.add_argument("file")
    p.add_argument("--q-max", type=int, default=8, help="tabulate q = 1..Q")
    p.add_argument("--q", help="explicit comma-separated q list (overrides --q-max)")
    add_common(p, approx=True)
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
    add_common(p, approx=True)
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
