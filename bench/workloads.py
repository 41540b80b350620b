"""Seeded corpora for the fsig benchmark.

Each workload is a list of operations.  An operation calls the public fsig
API on inputs generated here from the seed, and carries the exact value it
must return (`expected`) and/or an untimed independent check (`verify`).
Nothing here is timed; the runner in run.py times `Op.run` and compares.

The expected values never come from the code under test: the Eulerian and
Segre closed forms, the Veronese laws and the colength identity are written
out below, the closure oracle and the invariance checks recompute the value
by a second route, and the sig-random golden values were recorded from the
seed commit (golden/sig-random-20250811.json).
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 20250811
WORKLOADS = ("sig-families", "sig-random", "counting")
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / f"sig-random-{DEFAULT_SEED}.json"

# sig-random: presentations per (ambient rank, generator count) cell.
RANDOM_RANKS = (2, 3, 4)
RANDOM_GENERATOR_COUNTS = tuple(range(2, 9))
RANDOM_MAX_ENTRY = 3
RANDOM_PER_CELL = {"full": 40, "smoke": 1}
NORMAL_BOUND = 6


@dataclass
class Op:
    """One benchmark operation.

    run() performs the operation through the public API and returns an exact
    value.  The runner compares it with `expected` inside the timed region
    (when `expected` is not None) and calls `verify(result)` untimed, which
    returns None or a failure message.  `probe` marks the operation whose
    Python heap peak the traced run records.
    """

    name: str
    run: Callable[[], object]
    expected: object = None
    verify: Callable[[object], str | None] | None = None
    probe: bool = False


@dataclass
class Corpus:
    workload: str
    ops: list[Op]
    cli_presentation: object
    cli_expected: Fraction


# ---------------------------------------------------------------- oracles


def eulerian(d: int, s: int) -> int:
    """A(d, s) by the alternating sum; independent of fsig.families."""
    return sum((-1) ** i * comb(d + 1, i) * (s - i) ** d for i in range(s + 1))


def segre_signature(r: int, s: int) -> Fraction:
    d = r + s - 1
    return Fraction(eulerian(d, s), factorial(d))


def segre_aq(r: int, s: int, q: int) -> int:
    """Closed-form free rank of the Segre product of k[x_1..x_r], k[y_1..y_s]."""
    d = r + s - 1

    def binom(m, k):
        return comb(m, k) if 0 <= k <= m else 0

    return sum(
        (-1) ** i * binom(d + 1, i) * binom(q * (s - i) + d - s, d) for i in range(s + 1)
    )


def veronese_aq(d: int, n: int, q: int) -> int | None:
    """Veronese law a_{kn} = k^d n^(d-1); None when n does not divide q."""
    if q % n:
        return None
    return (q // n) ** d * n ** (d - 1)


# ---------------------------------------------------------------- helpers


def _shuffled(ops: list[Op], workload: str, seed: int) -> list[Op]:
    random.Random(f"order:{workload}:{seed}").shuffle(ops)
    return ops


def _embedding(fs, presentation):
    return fs.cone.full_embedding(fs.semigroup.build_context(presentation))


def build(workload: str, fs, seed: int, size: str = "full") -> Corpus:
    """The corpus of one workload; `fs` holds the imported fsig modules."""
    if workload == "sig-families":
        return _sig_families(fs, seed, size)
    if workload == "sig-random":
        return _sig_random(fs, seed, size)
    if workload == "counting":
        return _counting(fs, seed, size)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- sig-families


def _sig_families(fs, seed: int, size: str) -> Corpus:
    if size == "full":
        segre = [(r, s) for r in range(2, 5) for s in range(r, 9 - r)]
        veronese = [(d, 2) for d in range(2, 7)] + [(d, 3) for d in range(2, 6)]
        probe = (3, 4)
    else:
        segre, veronese, probe = [(2, 2), (2, 3)], [(2, 2), (3, 2)], (2, 3)
    ops = []
    for r, s in segre:
        p = fs.families.segre_generators(r, s)
        ops.append(
            Op(
                f"f_signature {p.name}",
                _signature_op(fs, p),
                expected=segre_signature(r, s),
                probe=(r, s) == probe,
            )
        )
    for d, n in veronese:
        p = fs.families.veronese_generators(d, n)
        ops.append(Op(f"f_signature {p.name}", _signature_op(fs, p), expected=Fraction(1, n)))
    cli = (3, 4) if size == "full" else (2, 2)
    return Corpus(
        "sig-families",
        _shuffled(ops, "sig-families", seed),
        fs.families.segre_generators(*cli),
        segre_signature(*cli),
    )


def _signature_op(fs, presentation):
    return lambda: fs.signature.f_signature(presentation).value


# ---------------------------------------------------------------- sig-random


def random_presentation_specs(seed: int, per_cell: int):
    """(cell, index, generators, coordinate permutation) drawn from the seed.

    Each (rank, generator count) cell has its own stream, so a smaller
    per_cell gives a prefix of a larger one.
    """
    for r in RANDOM_RANKS:
        for k in RANDOM_GENERATOR_COUNTS:
            rng = random.Random(f"sig-random:{seed}:{r}:{k}")
            for index in range(per_cell):
                gens = set()
                while len(gens) < k:
                    g = tuple(rng.randint(0, RANDOM_MAX_ENTRY) for _ in range(r))
                    if any(g):
                        gens.add(g)
                perm = list(range(r))
                rng.shuffle(perm)
                yield f"{r},{k}", index, tuple(sorted(gens)), tuple(perm)


def normal_then_signature(fs, presentation):
    """check_normal (bound 6) and, when the verdict is normal, f_signature."""
    ctx = fs.semigroup.build_context(presentation)
    emb = fs.cone.full_embedding(ctx)
    if not fs.semigroup.check_normal(ctx, emb.functionals, NORMAL_BOUND).normal:
        return (False, None)
    return (True, fs.signature.f_signature(presentation).value)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        doc = json.load(handle)
    return {
        (cell, i): (tuple(map(tuple, gens)), (normal, None if sig is None else Fraction(sig)))
        for cell, rows in doc["cells"].items()
        for i, (gens, normal, sig) in enumerate(rows)
    }


def _sig_random(fs, seed: int, size: str) -> Corpus:
    golden = load_golden() if seed == DEFAULT_SEED else None
    ops = []
    for cell, index, gens, perm in random_presentation_specs(seed, RANDOM_PER_CELL[size]):
        rank = len(gens[0])
        p = fs.semigroup.SemigroupPresentation(rank, gens)
        expected = None
        if golden is not None:
            golden_gens, expected = golden[(cell, index)]
            if golden_gens != gens:
                raise RuntimeError(f"sig-random input {cell}#{index} differs from its golden record")
        twin = fs.semigroup.SemigroupPresentation(
            rank, tuple(tuple(g[j] for j in perm) for g in reversed(gens))
        )
        ops.append(
            Op(
                f"normal+signature [{cell}]#{index} {list(map(list, gens))}",
                lambda p=p: normal_then_signature(fs, p),
                expected=expected,
                verify=_invariance_check(fs, twin),
                probe=(cell, index) == ("4,4", 0),
            )
        )
    cli_doc = fs.families.segre_generators(2, 2)
    return Corpus("sig-random", _shuffled(ops, "sig-random", seed), cli_doc, Fraction(2, 3))


def _invariance_check(fs, twin):
    def verify(result):
        again = normal_then_signature(fs, twin)
        if again != result:
            return f"permuted/reversed twin gives {again}, original {result}"
        return None

    return verify


# ---------------------------------------------------------------- counting

FREE2 = ((1, 0), (0, 1))


def _counting(fs, seed: int, size: str) -> Corpus:
    fam = fs.families
    if size == "full":
        tables = [
            ("segre", 2, 2, (8, 16, 32)),
            ("segre", 2, 3, (8, 16, 32)),
            ("segre", 3, 3, (8, 16)),
            ("veronese", 2, 2, (8, 16, 32)),
            ("veronese", 2, 4, (8, 16, 32)),
            ("veronese", 3, 2, (8, 16, 32)),
            ("veronese", 3, 4, (8, 16, 32)),
            ("veronese", 4, 2, (8, 16, 32)),
        ]
        brute = [
            ("segre", 2, 2), ("segre", 2, 3), ("veronese", 3, 2),
            ("veronese", 4, 2), ("veronese", 2, 4),
        ]
        brute_q = (4, 8)
        hk_cases = ["free", ("veronese", 2, 2), ("veronese", 3, 2), ("segre", 2, 2)]
        hk_tq = ((1, 3), (2, 4))
        probe = (("segre", 2, 2), (1, 3))
    else:
        tables = [("segre", 2, 2, (2, 4)), ("veronese", 2, 2, (2, 4))]
        brute = [("segre", 2, 2)]
        brute_q = (2, 3)
        hk_cases = ["free", ("veronese", 2, 2)]
        hk_tq = ((1, 2),)
        probe = (("veronese", 2, 2), (1, 2))

    def presentation(case):
        if case == "free":
            return fs.semigroup.SemigroupPresentation(2, FREE2, name="free(2)")
        kind, a, b = case
        return fam.segre_generators(a, b) if kind == "segre" else fam.veronese_generators(a, b)

    def closed_aq(case, q):
        if case == "free":
            return q * q
        kind, a, b = case
        return segre_aq(a, b, q) if kind == "segre" else veronese_aq(a, b, q)

    ops = []
    for kind, a, b, qs in tables:
        case = (kind, a, b)
        p = presentation(case)
        ops.append(
            Op(
                f"count_aq {p.name} q={list(qs)}",
                lambda p=p, qs=qs: _aq_table(fs, p, qs),
                expected=tuple(closed_aq(case, q) for q in qs),
            )
        )
    for case in brute:
        p = presentation(case)
        for q in brute_q:
            ops.append(
                Op(
                    f"brute_force_aq vs count_aq {p.name} q={q}",
                    lambda p=p, q=q: (
                        fs.frobenius.brute_force_aq(p, q),
                        fs.frobenius.count_aq(_embedding(fs, p), q).a_q,
                    ),
                    expected=_twice(closed_aq(case, q)),
                    verify=_agree,
                )
            )
    for case in hk_cases:
        p = presentation(case)
        for t, q in hk_tq:
            ops.append(
                Op(
                    f"hk_difference_identity {p.name} t={t} q={q}",
                    lambda p=p, t=t, q=q: tuple(
                        fs.frobenius.hk_difference_identity(_embedding(fs, p), t, q)[:2]
                    ),
                    expected=_twice(closed_aq(case, q)),
                    verify=_closure_oracle(fs, p, q),
                    probe=(case, (t, q)) == probe,
                )
            )
    cli_doc = fam.segre_generators(2, 2)
    return Corpus("counting", _shuffled(ops, "counting", seed), cli_doc, Fraction(2, 3))


def _twice(a_q):
    """Expected (oracle, lattice) or (lhs, rhs) pair; None without a closed form."""
    return None if a_q is None else (a_q, a_q)


def _aq_table(fs, presentation, qs):
    emb = _embedding(fs, presentation)
    return tuple(fs.frobenius.count_aq(emb, q).a_q for q in qs)


def _agree(result):
    brute, lattice = result
    return None if brute == lattice else f"closure oracle {brute} != count_aq {lattice}"


def _closure_oracle(fs, presentation, q):
    def verify(result):
        lhs, rhs = result
        oracle = fs.frobenius.brute_force_aq(presentation, q)
        if not lhs == rhs == oracle:
            return f"colength difference {lhs}, count_aq {rhs}, closure oracle {oracle}"
        return None

    return verify
