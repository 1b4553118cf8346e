"""Command-line interface: flags, formats, exit codes, determinism."""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from evenzeta import documents, f_table, from_json, suites, to_json
from evenzeta.cli import MAX_MZV_DEPTH, MAX_TABLE_DEPTH, _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIdentityCommand:
    def test_latex_printed_display(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--kind", "mzv", "--n", "4", "--poly", "1",
            "--format", "latex",
        )
        assert code == 0
        assert out.strip() == (
            "\\frac{35}{64}\\zeta(2k)-\\frac{5}{16}\\zeta(2)\\zeta(2k-2)"
        )

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--kind", "bernoulli", "--n", "4",
            "--m", "0,0,0,0",
        )
        assert code == 0
        assert "kind   : bernoulli" in out
        assert "B(2k)/(2k)!" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--kind", "zeta", "--n", "2", "--m", "1,0",
            "--format", "json",
        )
        assert code == 0
        doc = from_json(out)
        assert doc.kind == "zeta"
        assert doc.n == 2

    def test_single_index_coefficient_one(self, capsys):
        # Depth 1, exponent 0: the weighted sum is B_{2k}/(2k)! itself.
        code, out, _ = run(
            capsys, "identity", "--kind", "bernoulli", "--n", "1", "--m", "0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"][0]["coeffs"] == ["1/1"]

    def test_three_index_table_depth_48_pinned(self, capsys):
        # Two convolution steps of the f-product at the deepest admitted
        # table; the digest was recorded before the Bernoulli collapse ran on
        # integer rows.
        code, out, _ = run(
            capsys, "identity", "--kind", "bernoulli", "--n", "3", "--m", "16,16,14",
            "--format", "json",
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "6ec01f1c19de9d33e4ba042515c7eda2ef1c313ba5079ff9a0d1365fa29972ad"
        )

    def test_poly_for_zeta_kind(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--kind", "zeta", "--n", "2",
            "--poly", "x1*x2", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["poly"] == "x1*x2"

    def test_nonsymmetric_mzv_rejected(self, capsys):
        code, out, err = run(
            capsys, "identity", "--kind", "mzv", "--n", "2",
            "--poly", "x1^2*x2",
        )
        assert code == 2
        assert out == ""
        assert "symmetric" in err

    def test_parse_error_reported(self, capsys):
        code, _, err = run(
            capsys, "identity", "--kind", "mzv", "--n", "2", "--poly", "x1 +",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_deep_nesting_is_a_parse_error(self, capsys):
        # 250 nested levels once overflowed the recursive parser's stack.
        poly = "(" * 250 + "x1" + ")" * 250
        code, out, err = run(capsys, "identity", "--kind", "zeta", "--n", "2", "--poly", poly)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "nest deeper than the limit 64" in err

    def test_weight_at_the_coefficient_limit(self, capsys):
        # The largest coefficient the parser admits, at the deepest table:
        # the identity renders, reads back and checks against its left side.
        poly = f"({2**125 + 3})^64*x1^48"
        code, out, _ = run(
            capsys, "identity", "--kind", "zeta", "--n", "1", "--poly", poly, "--format", "json"
        )
        assert code == 0
        identity = from_json(out)
        assert to_json(identity) == out.rstrip("\n")
        for k in (1, 2, 49):
            assert documents.verify_identity(identity, k).ok

    def test_coefficient_past_the_limit_is_a_parse_error(self, capsys):
        # 2^16384 was once built, and then its digits overflowed Python's
        # int-to-str limit, in a message that named no argument.
        code, out, err = run(
            capsys, "identity", "--kind", "zeta", "--n", "1", "--poly", "((2^64)^64)^4"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: poly") and "exceed the limit 8192 (at position 12)" in err

    def test_exactly_one_weight_flag(self, capsys):
        code, _, err = run(capsys, "identity", "--kind", "zeta", "--n", "2")
        assert code == 2
        assert "exactly one" in err

        code, _, err = run(
            capsys, "identity", "--kind", "zeta", "--n", "2",
            "--m", "0,0", "--poly", "1",
        )
        assert code == 2

    def test_mvec_length_mismatch(self, capsys):
        code, _, err = run(
            capsys, "identity", "--kind", "bernoulli", "--n", "3", "--m", "0,0",
        )
        assert code == 2
        assert "--n is 3" in err

    def test_bernoulli_rejects_poly(self, capsys):
        code, _, err = run(
            capsys, "identity", "--kind", "bernoulli", "--n", "2", "--poly", "1",
        )
        assert code == 2

    def test_bad_choice_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["identity", "--kind", "shuffle", "--n", "2", "--poly", "1"])
        assert info.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "identity.json"
        code, out, _ = run(
            capsys, "identity", "--kind", "mzv", "--n", "2", "--poly", "1",
            "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert target.read_text(encoding="utf-8").strip() == out.strip()

    @pytest.mark.parametrize(
        "argv",
        [
            ("identity", "--kind", "zeta", "--n", "1", "--m", "0"),
            ("verify", "--suite", "tables"),
        ],
        ids=["identity", "verify"],
    )
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1


class TestVerifyCommand:
    def test_words_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "words", "--max-n", "3")
        assert code == 0
        assert "suite=words" in out
        assert "result: PASS" in out

    def test_skip_reporting(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "zeta", "--max-k", "3", "--max-n", "4",
        )
        assert code == 0
        summary = next(line for line in out.splitlines() if "suite=zeta" in line)
        skipped = int(summary.split("skipped=")[1].split()[0])
        assert skipped > 0

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "tables", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["suites"][0]["suite"] == "tables"
        assert payload["suites"][0]["failed"] == 0

    def test_bounds_checked(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "zeta", "--max-n", "99")
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--suite", "words", "--max-n", "9", "--max-k", "999"),
            ("--suite", "words", "--max-n", "6"),
            ("--suite", "tables", "--max-n", "0", "--max-k", "-3"),
            ("--suite", "all", "--max-n", "6"),
        ],
        ids=["words-both", "words-depth-6", "tables-both", "all-depth"],
    )
    def test_bounds_checked_before_any_suite(self, capsys, monkeypatch, argv):
        # Every suite shares the bounds 1..5 and 1..16, and they are checked
        # before the first suite runs, so no suite runs and nothing is printed.
        for name in suites.SUITE_NAMES:
            monkeypatch.setattr(suites, f"{name}_suite", lambda *_, **__: pytest.fail("a suite ran"))
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_all_suites(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--max-n", "3", "--max-k", "6",
        )
        assert code == 0
        for name in ("tables", "bernoulli", "zeta", "mzv", "words"):
            assert f"suite={name}" in out


class TestExamplesCommand:
    @pytest.mark.parametrize("section,count", [(2, 3), (3, 3), (4, 6)])
    def test_sections_match(self, capsys, section, count):
        code, out, _ = run(capsys, "examples", "--section", str(section))
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("MATCH")]
        assert len(lines) == count
        assert "MISMATCH" not in out
        assert "result: PASS" in out

    def test_bad_section(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["examples", "--section", "5"])
        assert info.value.code == 2


class TestTablesCommand:
    def test_json_matches_tables(self, capsys):
        code, out, _ = run(capsys, "tables", "--depth", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        fs = f_table(3)
        assert payload["depth"] == 3
        for m in range(4):
            for i, entry in enumerate(fs.row(m)):
                recorded = payload["f"][m][i]
                assert recorded == [
                    f"{c.numerator}/{c.denominator}" for c in entry.coeffs
                ]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "tables", "--depth", "2")
        assert code == 0
        assert "f[0,0] = (t - 2)/2" in out
        assert "g[2,2] = (3t - 3)/2" in out

    def test_depth_range(self, capsys):
        code, _, err = run(capsys, "tables", "--depth", "17")
        assert code == 2
        assert "0..16" in err


def exit_code(capsys, *argv):
    """Like ``run``, with argparse's usage exit taken as the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIntegerArguments:
    """Integer flags and the parts of --m take ASCII digits only: ``int``
    alone would read other scripts' digits and underscores between digits."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("identity", "--kind", "bernoulli", "--n", "2", "--m", "\u0662,1_0"),
            ("identity", "--kind", "bernoulli", "--n", "2", "--m", "2,1_0"),
            ("identity", "--kind", "zeta", "--n", "1", "--m", "\uff13"),
            ("identity", "--kind", "bernoulli", "--n", "\u0662", "--m", "2,1"),
            ("identity", "--kind", "mzv", "--n", "1_0", "--poly", "1"),
            ("verify", "--suite", "words", "--max-n", "\u0663"),
            ("verify", "--suite", "words", "--max-k", "1_0"),
            ("tables", "--depth", " 1_0"),
            ("tables", "--depth", "\uff13"),
            ("examples", "--section", "\u0662"),
            ("examples", "--section", "0_2"),
        ],
        ids=["m-arabic-indic", "m-underscore", "m-fullwidth", "n-arabic-indic", "n-underscore",
             "max-n", "max-k", "depth-underscore", "depth-fullwidth", "section-arabic-indic",
             "section-underscore"],
    )
    def test_refused_with_exit_2(self, capsys, argv):
        code, out, err = exit_code(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "integer" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("identity", "--kind", "bernoulli", "--n", "-1", "--m", "1"), "--n must be >= 1, got -1"),
            (
                ("identity", "--kind", "bernoulli", "--n", "2", "--m", "2,-1"),
                "must list integers >= 0, got [2, -1]",
            ),
            (("verify", "--suite", "words", "--max-n", "-3"), "--max-n must be in 1..5, got -3"),
            (("verify", "--suite", "words", "--max-k", "17"), "--max-k must be in 1..16, got 17"),
            (("tables", "--depth", "-1"), "--depth must be in 0..16, got -1"),
        ],
        ids=["n", "m", "max-n", "max-k", "depth"],
    )
    def test_range_messages_unchanged(self, capsys, argv, message):
        code, out, err = exit_code(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_signs_and_surrounding_space_read(self, capsys):
        assert exit_code(capsys, "tables", "--depth", " +2 ")[:2] == run(capsys, "tables", "--depth", "2")[:2]
        doc = exit_code(capsys, "identity", "--kind", "bernoulli", "--n", "2", "--m", " 1, +0")
        assert doc == run(capsys, "identity", "--kind", "bernoulli", "--n", "2", "--m", "1,0")


class Admitted(Exception):
    """Raised by a stubbed builder: the guard let the input through."""


def refuse(*args, **kwargs):
    raise Admitted


class TestAdmission:
    """Each limit at the boundary and one step over it.  The builders are
    stubbed to raise, so an admitted input stops at once and a refused one
    proves that no builder ran."""

    def test_limits(self):
        assert (MAX_TABLE_DEPTH, MAX_MZV_DEPTH) == (48, 10)

    def test_table_depth_for_m(self, capsys, monkeypatch):
        monkeypatch.setattr(documents, "bernoulli_identity", refuse)
        monkeypatch.setattr(documents, "zeta_identity_monomial", refuse)
        for kind in ("bernoulli", "zeta"):
            with pytest.raises(Admitted):
                main(["identity", "--kind", kind, "--n", "2", "--m", "47,0"])
            code, _, err = run(capsys, "identity", "--kind", kind, "--n", "2", "--m", "48,0")
            assert code == 2
            assert "table depth 49, above the limit 48" in err

    def test_table_depth_for_n(self, capsys, monkeypatch):
        monkeypatch.setattr(documents, "bernoulli_identity", refuse)
        with pytest.raises(Admitted):
            main(["identity", "--kind", "bernoulli", "--n", "49", "--m", ",".join("0" * 49)])
        monkeypatch.setattr(documents, "parse_poly", refuse)
        code, _, err = run(capsys, "identity", "--kind", "zeta", "--n", "50", "--poly", "1")
        assert code == 2
        assert "table depth 49" in err

    def test_table_depth_for_poly(self, capsys, monkeypatch):
        monkeypatch.setattr(documents, "zeta_identity_poly", refuse)
        with pytest.raises(Admitted):
            main(["identity", "--kind", "zeta", "--n", "1", "--poly", "x1^48"])
        code, _, err = run(capsys, "identity", "--kind", "zeta", "--n", "1", "--poly", "x1^49")
        assert code == 2
        assert "table depth 49, above the limit 48" in err

    def test_mzv_depth(self, capsys, monkeypatch):
        monkeypatch.setattr(documents, "mzv_identity", refuse)
        monkeypatch.setattr(documents, "mzsv_identity", refuse)
        for kind in ("mzv", "mzsv"):
            with pytest.raises(Admitted):
                main(["identity", "--kind", kind, "--n", "10", "--poly", "1"])
        monkeypatch.setattr(documents, "parse_poly", refuse)
        for kind in ("mzv", "mzsv"):
            code, _, err = run(capsys, "identity", "--kind", kind, "--n", "11", "--poly", "1")
            assert code == 2
            assert f"--n 11 exceeds the limit 10 for {kind}" in err

    def test_poly_degree(self, capsys, monkeypatch):
        monkeypatch.setattr(documents, "mzv_identity", refuse)
        weight = "(" + " + ".join(f"x{i}" for i in range(1, 9)) + ")"
        with pytest.raises(Admitted):
            main(["identity", "--kind", "mzv", "--n", "8", "--poly", f"{weight}^4"])
        code, _, err = run(capsys, "identity", "--kind", "mzv", "--n", "8", "--poly", f"{weight}^5")
        assert code == 2
        assert "total degree 5 exceeds the limit 4" in err


#: (kind, n, mvec, poly, accepted): one weight form each, run through both
#: the ``identity`` command and ``from_json``.
_WEIGHT_FORMS = [
    pytest.param("bernoulli", 3, [2, 0, 1], None, True, id="bernoulli-mvec"),
    pytest.param("zeta", 2, [1, 0], None, True, id="zeta-mvec"),
    pytest.param("zeta", 2, None, "x1^2*x2 - 1/3", True, id="zeta-poly"),
    pytest.param("mzv", 2, None, "x1*x2 + x1 + x2", True, id="mzv-poly"),
    pytest.param("mzsv", 3, None, "x1^2 + x2^2 + x3^2", True, id="mzsv-poly"),
    pytest.param("bernoulli", 2, None, "1", False, id="bernoulli-poly"),
    pytest.param("mzv", 2, [0, 0], None, False, id="mzv-mvec"),
    pytest.param("mzsv", 2, [0, 0], None, False, id="mzsv-mvec"),
    pytest.param("zeta", 2, [0, 0], "1", False, id="both-set"),
    pytest.param("zeta", 2, None, None, False, id="neither-set"),
    pytest.param("bernoulli", 3, [0, 0], None, False, id="mvec-short"),
    pytest.param("zeta", 2, [0, 0, 0], None, False, id="mvec-long"),
    pytest.param("zeta", 2, [0, -1], None, False, id="mvec-negative"),
    pytest.param("mzv", 2, None, "x1^2*x2", False, id="mzv-not-symmetric"),
    pytest.param("mzsv", 2, None, "x1", False, id="mzsv-not-symmetric"),
    pytest.param("mzv", 0, None, "1", False, id="n-zero"),
    pytest.param("mzsv", 11, None, "1", False, id="mzsv-too-deep"),
    pytest.param("zeta", 50, None, "1", False, id="n-beyond-table-depth"),
    pytest.param("bernoulli", 2, [48, 0], None, False, id="mvec-beyond-table-depth"),
    pytest.param("zeta", 1, None, "x1^49", False, id="poly-beyond-table-depth"),
]


class TestWeightForms:
    """The ``identity`` command and ``from_json`` accept and reject the same
    weights, and every accepted JSON document round-trips byte for byte."""

    @staticmethod
    def argv(kind, n, mvec, poly):
        argv = ["identity", "--kind", kind, "--n", str(n), "--format", "json"]
        if mvec is not None:
            argv += ["--m", ",".join(map(str, mvec))]
        if poly is not None:
            argv += ["--poly", poly]
        return argv

    @pytest.mark.parametrize("kind, n, mvec, poly, accepted", _WEIGHT_FORMS)
    def test_both_entry_points_agree(self, capsys, kind, n, mvec, poly, accepted):
        code, out, err = run(capsys, *self.argv(kind, n, mvec, poly))
        assert (code, bool(out), bool(err)) == ((0, True, False) if accepted else (2, False, True))
        payload = json.dumps({
            "schema": 1, "kind": kind, "n": n, "T": 0, "mvec": mvec, "poly": poly,
            "terms": [{"l": 0, "coeffs": ["1/1"]}], "tool": "test",
        })
        if accepted:
            assert to_json(from_json(out)) + "\n" == out
            from_json(payload)
        else:
            with pytest.raises(ValueError):
                from_json(payload)

    def test_every_kind_accepted(self):
        accepted = {form.values[0] for form in _WEIGHT_FORMS if form.values[4]}
        assert accepted == set(documents._KINDS)


class TestDeterminism:
    def test_identical_invocations(self, capsys):
        argv = [
            "identity", "--kind", "mzsv", "--n", "3",
            "--poly", "x1 + x2 + x3", "--format", "json",
        ]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestParserCache:
    def test_parser_built_once_per_process(self, capsys):
        _build_parser.cache_clear()
        ok = ["identity", "--kind", "mzv", "--n", "3", "--poly", "x1*x2*x3", "--format", "json"]
        bad = ["identity", "--kind", "mzv", "--n", "2", "--poly", "x1^2"]
        first = [run(capsys, *ok), run(capsys, *bad)]
        second = [run(capsys, *ok), run(capsys, *bad)]
        assert first == second
        assert [code for code, _, _ in first] == [0, 2]
        info = _build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)


_README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
_README_COMMANDS = re.findall(r"^evenzeta .*$", _README, re.MULTILINE)
_README_OUTPUTS = dict(re.findall(r"^(evenzeta .*)\n# -> (.*)$", _README, re.MULTILINE))


class TestReadmeCommands:
    """Every ``evenzeta ...`` line of README runs and prints what it shows."""

    def test_commands_found(self):
        assert len(_README_COMMANDS) == 13
        assert list(_README_OUTPUTS.values()) == [
            "\\frac{35}{64}\\zeta(2k)-\\frac{5}{16}\\zeta(2)\\zeta(2k-2)"
        ]

    @pytest.mark.parametrize("line", _README_COMMANDS)
    def test_command_runs(self, capsys, line):
        code, out, _ = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0
        if line in _README_OUTPUTS:
            assert out.strip() == _README_OUTPUTS[line]
