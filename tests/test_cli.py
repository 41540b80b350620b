"""Command-line interface: documents, subcommands, exit codes, round-trips."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fsig
from fsig.cli import main
from fsig.families import segre_aq_closed_form


def write_doc(path, rank, generators, name=None, version=1):
    doc = {"format_version": version, "ambient_rank": rank, "generators": generators}
    if name is not None:
        doc["name"] = name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def veronese22_file(tmp_path):
    return write_doc(tmp_path / "v22.json", 2, [[2, 0], [1, 1], [0, 2]], name="v22")


class TestSignatureCommand:
    def test_free_semigroup_is_one(self, tmp_path, capsys):
        path = write_doc(tmp_path / "free.json", 2, [[1, 0], [0, 1]])
        assert main(["signature", path]) == 0
        assert "1/1" in capsys.readouterr().out

    def test_veronese(self, veronese22_file, capsys):
        assert main(["signature", veronese22_file]) == 0
        assert "1/2" in capsys.readouterr().out

    def test_json_output_roundtrips(self, veronese22_file, capsys):
        assert main(["signature", veronese22_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        num, den = doc["signature"].split("/")
        value = Fraction(int(num), int(den))
        assert value == Fraction(1, 2)
        assert Fraction(int(num), int(den)).denominator == int(den)  # lowest terms

    def test_approx_column(self, veronese22_file, capsys):
        assert main(["signature", veronese22_file, "--approx"]) == 0
        assert "0.5" in capsys.readouterr().out


class TestFamilyCommand:
    def test_veronese_closed_form(self, capsys):
        assert main(["family", "veronese", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("1/3") == 2  # closed form and computed agree
        assert "yes" in out

    def test_emit_signature_roundtrip(self, tmp_path, capsys):
        emitted = tmp_path / "segre23.json"
        assert main(["family", "segre", "2", "3", "--emit", str(emitted)]) == 0
        family_out = capsys.readouterr().out
        assert "11/24" in family_out
        assert main(["signature", str(emitted)]) == 0
        assert "11/24" in capsys.readouterr().out

    def test_invalid_parameters_exit_3(self, capsys):
        assert main(["family", "segre", "1", "2"]) == 3

    def test_unwritable_emit_target_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "segre22.json"
        assert main(["family", "segre", "2", "2", "--emit", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write")

    def test_segre_10_10_is_in_reach(self, capsys):
        # corank 1: the closed form needs no vertex of the 19-dimensional polytope
        assert main(["family", "segre", "10", "10", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["match"] is True

    def test_json_approx(self, capsys):
        assert main(["family", "segre", "2", "2", "--json", "--approx"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["computed"] == "2/3"
        assert doc["computed_approx"] == "0.666666666667"


class TestAqCommand:
    def test_segre_table(self, tmp_path, capsys):
        emitted = tmp_path / "s22.json"
        main(["family", "segre", "2", "2", "--emit", str(emitted)])
        capsys.readouterr()
        assert main(["aq", str(emitted), "--q", "2,3"]) == 0
        out = capsys.readouterr().out
        assert "3/4" in out and "19/27" in out

    def test_json_table(self, veronese22_file, capsys):
        assert main(["aq", veronese22_file, "--q", "2,4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["a_q"] for row in doc["table"]] == [2, 8]
        assert [row["ratio"] for row in doc["table"]] == ["1/2", "1/2"]

    def test_large_q_count(self, tmp_path, capsys):
        emitted = tmp_path / "s34.json"
        main(["family", "segre", "3", "4", "--emit", str(emitted)])
        capsys.readouterr()
        assert main(["aq", str(emitted), "--q", "40", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["a_q"] for row in doc["table"]] == [1_735_299_580]
        assert segre_aq_closed_form(3, 4, 40) == 1_735_299_580

    def test_bad_q_list_exit_2(self, veronese22_file, capsys):
        # unsorted, nonpositive and empty q lists
        for flags in (["--q", "3,2"], ["--q", "0,2"], ["--q-max", "0"], ["--q", ""]):
            assert main(["aq", veronese22_file, *flags]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:")

    def test_q_list_is_checked_before_the_document(self, capsys):
        assert main(["aq", "/nonexistent/nowhere.json", "--q", ""]) == 2
        assert capsys.readouterr().err.startswith("error: --q expects")


class TestHkCommand:
    def test_identity_reported(self, veronese22_file, capsys):
        assert main(["hk", veronese22_file, "--q", "3", "--t", "1"]) == 0
        out = capsys.readouterr().out
        assert "identity holds" in out and "yes" in out

    def test_json_fields(self, veronese22_file, capsys):
        assert main(["hk", veronese22_file, "--q", "2", "--t", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["difference"] == doc["a_q"]
        assert doc["identity_holds"] is True

    def test_json_matches_library(self, veronese22_file, capsys):
        from fsig.cone import full_embedding
        from fsig.families import veronese_generators
        from fsig.frobenius import hk_difference_identity
        from fsig.semigroup import build_context

        assert main(["hk", veronese22_file, "--q", "3", "--t", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        emb = full_embedding(build_context(veronese_generators(2, 2)))
        identity = hk_difference_identity(emb, 2, 3)
        assert doc["witness_mu"] == list(identity.mu)
        assert (doc["colength_not_dividing"], doc["colength_with_witness"]) == identity[4:]
        assert (doc["difference"], doc["a_q"], doc["identity_holds"]) == identity[:3]

    def test_budget_reaches_the_colength(self, veronese22_file, capsys):
        assert main(["hk", veronese22_file, "--q", "3", "--budget", "1"]) == 4

    def test_budget_error_reports_the_count_reached(self, veronese22_file, capsys):
        from fsig.cone import full_embedding
        from fsig.errors import BudgetExceeded
        from fsig.families import veronese_generators
        from fsig.frobenius import hk_difference_identity
        from fsig.semigroup import build_context

        emb = full_embedding(build_context(veronese_generators(2, 2)))
        with pytest.raises(BudgetExceeded) as caught:
            hk_difference_identity(emb, 1, 8, budget=20)
        assert main(["hk", veronese22_file, "--q", "8", "--budget", "20"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error (budget exceeded): {caught.value}\n"
        assert f"reached {caught.value.reached} points, past the budget of 20" in captured.err
        assert caught.value.reached > 20

    @pytest.mark.parametrize(
        "flags",
        [
            ["--q", "0"],
            ["--q", "2", "--t", "0"],
            ["--q", "2", "--budget", "0"],
            ["--q", "2", "--budget", "-1"],
        ],
    )
    def test_nonpositive_q_or_t_exit_2(self, veronese22_file, capsys, flags):
        assert main(["hk", veronese22_file, *flags]) == 2


class TestCheckNormalCommand:
    def test_normal_input(self, veronese22_file, capsys):
        assert main(["check-normal", veronese22_file, "--bound", "6"]) == 0
        assert "normal up to bound 6" in capsys.readouterr().out

    def test_counterexample_exit_3(self, tmp_path, capsys):
        path = write_doc(tmp_path / "gap.json", 2, [[2, 0], [0, 1], [1, 1]])
        assert main(["check-normal", path, "--bound", "4"]) == 3
        assert "(1, 0)" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_nonpositive_bound_exit_2(self, veronese22_file, capsys, bound):
        assert main(["check-normal", veronese22_file, "--bound", bound]) == 2
        assert "--bound" in capsys.readouterr().err


class TestParseErrors:
    def test_missing_file(self, capsys):
        assert main(["signature", "/nonexistent/nowhere.json"]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["signature", str(path)]) == 2

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["utf8", "deep"]
    )
    def test_unreadable_document(self, tmp_path, capsys, content):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        assert main(["signature", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_wrong_format_version(self, tmp_path, capsys):
        path = write_doc(tmp_path / "v9.json", 2, [[1, 0]], version=9)
        assert main(["signature", path]) == 2

    def test_zero_generator(self, tmp_path, capsys):
        path = write_doc(tmp_path / "zero.json", 2, [[0, 0]])
        assert main(["signature", path]) == 2

    def test_duplicate_generator(self, tmp_path, capsys):
        path = write_doc(tmp_path / "dup.json", 2, [[1, 0], [1, 0]])
        assert main(["signature", path]) == 2

    def test_ragged_generator(self, tmp_path, capsys):
        path = write_doc(tmp_path / "ragged.json", 2, [[1, 0, 0]])
        assert main(["signature", path]) == 2

    @pytest.mark.parametrize(
        "rank, generators, expected",
        [
            (2, [[1, -1]], "negative"),
            (0, [[1, 0]], "ambient rank"),
            (2, [], "at least one generator"),
        ],
    )
    def test_presentation_checks_are_parse_errors(
        self, tmp_path, capsys, rank, generators, expected
    ):
        path = write_doc(tmp_path / "bad.json", rank, generators)
        assert main(["signature", path]) == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ambient_rank", True),
            ("format_version", True),
            ("generators", [[True, 0], [0, 1]]),
            ("generators", [[1, 0], "01"]),
        ],
    )
    def test_booleans_and_non_integers_rejected(self, tmp_path, capsys, field, value):
        doc = {"format_version": 1, "ambient_rank": 2, "generators": [[1, 0], [0, 1]], field: value}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        assert main(["signature", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_boolean_rank_and_version_together(self, tmp_path, capsys):
        path = tmp_path / "bools.json"
        path.write_text('{"format_version": true, "ambient_rank": true, "generators": [[1]]}')
        assert main(["signature", str(path)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command",
        [["facets", "FILE"], ["hk", "FILE", "--q", "2"], ["check-normal", "FILE"], ["selftest"]],
        ids=["facets", "hk", "check-normal", "selftest"],
    )
    def test_approx_only_where_it_is_read(self, veronese22_file, capsys, command):
        argv = [veronese22_file if a == "FILE" else a for a in command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--approx"])
        assert exc.value.code == 2
        assert "--approx" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_selftest_json(self, capsys):
        assert main(["selftest", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 0


# rank 3 in Z^4: the coefficients have denominators 11, 22 and 44, and the
# group generated has index 4 in its saturation
SLANTED = [[2, 0, 1, 3], [0, 2, 1, 3], [3, 1, 0, 2], [1, 3, 0, 2]]

FACETS_GOLDEN = {
    "rescaled": (
        2,
        [[2, 0], [0, 2]],
        """\
lattice rank 2, 2 facet functionals
  w0: coefficients (0/1, 1/2)  values on generators (0, 1)
  w1: coefficients (1/2, 0/1)  values on generators (1, 0)
embedding matrix (rows act on lattice coordinates):
     0     1
     1     0
image generators:
  (2, 0) -> (0, 1)
  (0, 2) -> (1, 0)
""",
        {
            "lattice_rank": 2,
            "lattice_basis": [[2, 0], [0, 2]],
            "facets": [
                {"coefficients": ["0/1", "1/2"], "values_on_generators": [0, 1]},
                {"coefficients": ["1/2", "0/1"], "values_on_generators": [1, 0]},
            ],
            "embedding_matrix": [[0, 1], [1, 0]],
            "image_generators": [[0, 1], [1, 0]],
        },
    ),
    "v22": (
        2,
        [[2, 0], [1, 1], [0, 2]],
        """\
lattice rank 2, 2 facet functionals
  w0: coefficients (0/1, 1/1)  values on generators (0, 1, 2)
  w1: coefficients (1/1, 0/1)  values on generators (2, 1, 0)
embedding matrix (rows act on lattice coordinates):
     1     2
     1     0
image generators:
  (2, 0) -> (0, 2)
  (1, 1) -> (1, 1)
  (0, 2) -> (2, 0)
""",
        {
            "lattice_rank": 2,
            "lattice_basis": [[1, 1], [0, 2]],
            "facets": [
                {"coefficients": ["0/1", "1/1"], "values_on_generators": [0, 1, 2]},
                {"coefficients": ["1/1", "0/1"], "values_on_generators": [2, 1, 0]},
            ],
            "embedding_matrix": [[1, 2], [1, 0]],
            "image_generators": [[0, 2], [1, 1], [2, 0]],
        },
    ),
    "slanted": (
        4,
        SLANTED,
        """\
lattice rank 3, 4 facet functionals
  w0: coefficients (-2/11, 7/22, 1/44, 5/44)  values on generators (0, 1, 0, 1)
  w1: coefficients (-2/11, -2/11, 3/11, 4/11)  values on generators (1, 1, 0, 0)
  w2: coefficients (7/22, 7/22, -5/22, -3/22)  values on generators (0, 0, 1, 1)
  w3: coefficients (7/22, -2/11, 1/44, 5/44)  values on generators (1, 0, 1, 0)
embedding matrix (rows act on lattice coordinates):
     1     1     1
     3     1     4
    -1     0    -2
     1     0     1
image generators:
  (2, 0, 1, 3) -> (0, 1, 0, 1)
  (0, 2, 1, 3) -> (1, 1, 0, 0)
  (3, 1, 0, 2) -> (0, 0, 1, 1)
  (1, 3, 0, 2) -> (1, 0, 1, 0)
""",
        {
            "lattice_rank": 3,
            "lattice_basis": [[1, 1, 3, 7], [0, 2, 1, 3], [0, 0, 4, 8]],
            "facets": [
                {
                    "coefficients": ["-2/11", "7/22", "1/44", "5/44"],
                    "values_on_generators": [0, 1, 0, 1],
                },
                {
                    "coefficients": ["-2/11", "-2/11", "3/11", "4/11"],
                    "values_on_generators": [1, 1, 0, 0],
                },
                {
                    "coefficients": ["7/22", "7/22", "-5/22", "-3/22"],
                    "values_on_generators": [0, 0, 1, 1],
                },
                {
                    "coefficients": ["7/22", "-2/11", "1/44", "5/44"],
                    "values_on_generators": [1, 0, 1, 0],
                },
            ],
            "embedding_matrix": [[1, 1, 1], [3, 1, 4], [-1, 0, -2], [1, 0, 1]],
            "image_generators": [[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]],
        },
    ),
}


class TestFacetsCommand:
    @pytest.mark.parametrize("name", sorted(FACETS_GOLDEN))
    def test_output_is_pinned(self, tmp_path, capsys, name):
        # text and --json, byte for byte: the rational coefficients are derived
        # from the integer rays, and must print exactly as they always have
        rank, generators, text, body = FACETS_GOLDEN[name]
        path = write_doc(tmp_path / f"{name}.json", rank, generators, name=name)
        assert main(["facets", path]) == 0
        assert capsys.readouterr().out == text
        assert main(["facets", path, "--json"]) == 0
        doc = {
            "format_version": 1,
            "command": "facets",
            "input": {"name": name, "ambient_rank": rank, "generators": generators},
            **body,
        }
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


# the documents the goldens below read; "FILE" in a golden's argv stands for one
GOLDEN_DOCUMENTS = {
    "v22": (2, [[2, 0], [1, 1], [0, 2]], "v22"),
    "slanted": (4, SLANTED, None),
    "gap": (2, [[2, 0], [0, 1], [1, 1]], None),
}

SELFTEST_CHECKS = [
    "hermite basis",
    "determinant",
    "express in basis",
    "dual cone rays",
    "rescaled free semigroup has signature 1",
    "veronese(2,2) polytope volume 1/2",
    "segre(2,2) signature 2/3",
    "veronese(2,3) signature 1/3",
    "free-rank counts",
    "colength difference identity",
    "eulerian numbers",
    "segre closed forms",
    "normality counterexample",
]

# case: (document or None, argv, exit code, text stdout, JSON body after the header)
CLI_GOLDEN = {
    "signature-named": (
        "v22",
        ["signature", "FILE"],
        0,
        """\
name          v22
ambient rank  2
generators    3
lattice rank  2
facet count   2
F-signature   1/2
""",
        {"lattice_rank": 2, "facet_count": 2, "signature": "1/2"},
    ),
    "signature-named-approx": (
        "v22",
        ["signature", "FILE", "--approx"],
        0,
        """\
name          v22
ambient rank  2
generators    3
lattice rank  2
facet count   2
F-signature   1/2
approx        0.5
""",
        {"lattice_rank": 2, "facet_count": 2, "signature": "1/2", "signature_approx": "0.5"},
    ),
    "signature-unnamed": (
        "slanted",
        ["signature", "FILE"],
        0,
        """\
name          (unnamed)
ambient rank  4
generators    4
lattice rank  3
facet count   4
F-signature   2/3
""",
        {"lattice_rank": 3, "facet_count": 4, "signature": "2/3"},
    ),
    "signature-unnamed-approx": (
        "slanted",
        ["signature", "FILE", "--approx"],
        0,
        """\
name          (unnamed)
ambient rank  4
generators    4
lattice rank  3
facet count   4
F-signature   2/3
approx        0.666666666667
""",
        {
            "lattice_rank": 3,
            "facet_count": 4,
            "signature": "2/3",
            "signature_approx": "0.666666666667",
        },
    ),
    "aq": (
        "v22",
        ["aq", "FILE", "--q", "2,3"],
        0,
        """\
     q           a_q           a_q/q^d
     2             2               1/2
     3             5               5/9
""",
        {
            "lattice_rank": 2,
            "table": [
                {"q": 2, "a_q": 2, "ratio": "1/2"},
                {"q": 3, "a_q": 5, "ratio": "5/9"},
            ],
        },
    ),
    "aq-approx": (
        "v22",
        ["aq", "FILE", "--q", "2,3", "--approx"],
        0,
        """\
     q           a_q           a_q/q^d           ~approx
     2             2               1/2               0.5
     3             5               5/9    0.555555555556
""",
        {
            "lattice_rank": 2,
            "table": [
                {"q": 2, "a_q": 2, "ratio": "1/2", "ratio_approx": "0.5"},
                {"q": 3, "a_q": 5, "ratio": "5/9", "ratio_approx": "0.555555555556"},
            ],
        },
    ),
    "hk": (
        "v22",
        ["hk", "FILE", "--q", "2", "--t", "1"],
        0,
        """\
witness monomial             (3, 3)
colength at t=1, q=2         32
colength with witness added  30
difference                   2
a_q                          2
identity holds               yes
""",
        {
            "t": 1,
            "q": 2,
            "witness_mu": [3, 3],
            "colength_not_dividing": 32,
            "colength_with_witness": 30,
            "difference": 2,
            "a_q": 2,
            "identity_holds": True,
        },
    ),
    "family-approx": (
        None,
        ["family", "segre", "2", "3", "--approx"],
        0,
        """\
family                 segre(2,3)
closed-form signature  11/24
computed signature     11/24
match                  yes
approx                 0.458333333333
""",
        {
            "family": "segre",
            "parameters": [2, 3],
            "closed_form": "11/24",
            "computed": "11/24",
            "computed_approx": "0.458333333333",
            "match": True,
        },
    ),
    "family-emit": (
        None,
        ["family", "segre", "2", "3", "--emit", "segre23.json"],
        0,
        """\
family                 segre(2,3)
closed-form signature  11/24
computed signature     11/24
match                  yes
emitted                segre23.json
""",
        {
            "family": "segre",
            "parameters": [2, 3],
            "closed_form": "11/24",
            "computed": "11/24",
            "match": True,
            "emitted": "segre23.json",
        },
    ),
    "check-normal": (
        "v22",
        ["check-normal", "FILE"],
        0,
        "normal up to bound 6 (bounded certificate only)\n",
        {"bound": 6, "normal_up_to_bound": True, "counterexample": None},
    ),
    "check-normal-counterexample": (
        "gap",
        ["check-normal", "FILE", "--bound", "4"],
        3,
        "NOT normal: (1, 0) lies in the group and cone but is not a generator combination\n",
        {"bound": 4, "normal_up_to_bound": False, "counterexample": [1, 0]},
    ),
    "selftest": (
        None,
        ["selftest"],
        0,
        "".join(f"PASS  {check}\n" for check in SELFTEST_CHECKS) + "13/13 checks passed\n",
        {"results": [{"check": check, "pass": True} for check in SELFTEST_CHECKS], "failures": 0},
    ),
}


class TestOutputIsPinned:
    @pytest.mark.parametrize("case", list(CLI_GOLDEN))
    def test_text_and_json(self, tmp_path, monkeypatch, capsys, case):
        # stdout, stderr and exit code byte for byte, as text and as --json
        monkeypatch.chdir(tmp_path)
        document, argv, code, text, body = CLI_GOLDEN[case]
        header = {"format_version": 1, "command": argv[0]}
        if document is not None:
            rank, generators, name = GOLDEN_DOCUMENTS[document]
            path = write_doc(tmp_path / f"{document}.json", rank, generators, name=name)
            argv = [path if a == "FILE" else a for a in argv]
            header["input"] = {"name": name, "ambient_rank": rank, "generators": generators}
        assert main(argv) == code
        assert capsys.readouterr() == (text, "")
        assert main([*argv, "--json"]) == code
        assert capsys.readouterr() == (json.dumps({**header, **body}, indent=2) + "\n", "")

    def test_emitted_document(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["family", "segre", "2", "3", "--emit", "segre23.json"]) == 0
        generators = [[1, 0, 1, 0, 0], [1, 0, 0, 1, 0], [1, 0, 0, 0, 1]]
        generators += [[0, 1, 1, 0, 0], [0, 1, 0, 1, 0], [0, 1, 0, 0, 1]]
        doc = {
            "format_version": 1,
            "ambient_rank": 5,
            "generators": generators,
            "name": "segre(2,3)",
        }
        assert (tmp_path / "segre23.json").read_text() == json.dumps(doc, indent=2) + "\n"


def fresh_interpreter(code):
    """Run code in a new interpreter without site packages, fsig imported from this
    tree; its last line of stdout is read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(fsig.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportFootprint:
    # each case in its own process: a command loads only the layers it runs,
    # and no fsig module needs dataclasses (and inspect, ast, dis behind it)
    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["signature", "FILE", "--json"], {"fsig.frobenius", "fsig.families", "dataclasses"}),
            (["hk", "FILE", "--q", "2"], {"fsig.signature", "fsig.families", "dataclasses"}),
        ],
        ids=["signature", "hk"],
    )
    def test_command_loads_only_its_layers(self, veronese22_file, argv, absent):
        argv = [veronese22_file if a == "FILE" else a for a in argv]
        code = (
            "import json, sys\n"
            "from fsig.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(json.dumps(sorted(sys.modules)))"
        )
        loaded = set(fresh_interpreter(code))
        assert {"fsig.cone", "fsig.exact", "fsig.semigroup"} <= loaded
        assert not loaded & absent, loaded & absent

    def test_package_import_loads_no_layer(self):
        code = "import json, sys, fsig\nprint(json.dumps([sorted(sys.modules), dir(fsig)]))"
        loaded, names = fresh_interpreter(code)
        assert [m for m in loaded if m.startswith("fsig")] == ["fsig"]
        assert set(fsig.__all__) <= set(names)
