import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import strata_kit

from strata_kit.cli import run
from strata_kit.strata import ext_dimensions

from test_expression import identity_text_st

MSEG_01 = '{"segments":[{"line":"r","dim":1,"period":null,"a":0,"b":1}]}'
MSEG_PAIR = (
    '{"segments":[{"line":"r","dim":1,"period":null,"a":0,"b":0},'
    '{"line":"r","dim":1,"period":null,"a":1,"b":1}]}'
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerbs:
    def test_lambda(self, capsys):
        code, out, _ = invoke(capsys, "lambda", MSEG_01)
        assert code == 0
        assert out == "[1,1]\n"

    def test_dual_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "dual", MSEG_01)
        assert code == 0
        code, out2, _ = invoke(capsys, "dual", out.strip())
        assert code == 0
        assert json.loads(out2) == json.loads(MSEG_01)

    def test_poset_json_and_dot(self, capsys):
        code, out, _ = invoke(capsys, "poset", MSEG_PAIR)
        assert code == 0
        data = json.loads(out)
        assert len(data["nodes"]) == 2 and len(data["edges"]) == 1
        code, out, _ = invoke(capsys, "poset", MSEG_PAIR, "--dot")
        assert code == 0
        assert out.startswith("digraph")
        code, _, _ = invoke(capsys, "poset", MSEG_PAIR, "--format", "dot")
        assert code == 2

    def test_strata(self, capsys, tmp_path):
        block = tmp_path / "block.json"
        block.write_text(json.dumps({"lines": [{"line": "r", "dim": 1}], "n": 2}))
        code, out, _ = invoke(capsys, "strata", "--block", str(block), "--lambda", "[2]")
        assert code == 0
        data = json.loads(out)
        assert data["lambda"] == [2]
        assert len(data["components"]) == 1
        assert data["components"][0]["ring"]["dimension"] == 2

    def test_ring(self, capsys):
        code, out, _ = invoke(capsys, "ring", "--class", MSEG_PAIR)
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == 2
        assert data["generators"] == ["e1(X1,X2)", "e2(X1,X2)"]

    def test_ext(self, capsys):
        code, out, _ = invoke(capsys, "ext", "--r", "3")
        assert (code, out) == (0, "[1,3,3,1]\n")
        code, out, _ = invoke(capsys, "ext", "--mseg", MSEG_PAIR)
        assert (code, out) == (0, "[1,2,1]\n")

    def test_ext_row_past_the_digit_limit(self, capsys):
        """A row whose middle entry C(r, r // 2) has more digits than an
        integer may print is refused at once, exactly where printing fails."""
        assert invoke(capsys, "ext", "--r", str(10 ** 9)) == (
            1, "", "error: C(1000000000, 500000000) cannot print: "
            "integer has more than 4300 digits\n",
        )
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            # 10**640 has 2127 bits: below 2127 no row is refused, from 2139
            # on every row is, and in between C(r, r // 2) itself decides.
            for r in (2126, 2127, 2131, 2132, 2138, 2139):
                code, out, err = invoke(capsys, "ext", "--r", str(r), "--format", "table")
                if r < 2132:
                    assert (code, err) == (0, "")
                    assert out == " ".join(map(str, ext_dimensions(r))) + "\n"
                else:
                    assert (code, out, err) == (1, "", f"error: C({r}, {r // 2}) cannot print: "
                                                       "integer has more than 640 digits\n")
                    with pytest.raises(ValueError):
                        str(math.comb(r, r // 2))
            mseg = json.dumps({"segments": [{"line": "r", "a": 0, "b": 0}] * 2132})
            assert invoke(capsys, "ext", "--mseg", mseg) == (
                1, "", "error: C(2132, 1066) cannot print: integer has more than 640 digits\n"
            )
        finally:
            sys.set_int_max_str_digits(limit)

    def test_kgroup_check(self, capsys):
        code, out, _ = invoke(
            capsys, "kgroup-check", "Z[1,1]*Z[0,0] = Z{[1,1],[0,0]} + Z{[0,1]}"
        )
        assert (code, out) == (0, "verified\n")
        code, out, _ = invoke(capsys, "kgroup-check", "Z[0,0] = Z[1,1]")
        assert (code, out) == (0, "refuted at degree 0\n")

    def test_kgroup_check_reason_independent_of_term_order(self, capsys):
        terms = ("D^1(Z{[0,2],[1,1],[2,3]})", "Z[0,2]*Z[1,3]")
        outs = [
            invoke(capsys, "kgroup-check", f"{first} + {second} = Z[0,0]")
            for first, second in (terms, terms[::-1])
        ]
        assert outs[0] == outs[1] == (
            0,
            "unverifiable: undecomposed product remains at degree 0: "
            "?D^1(Z{[2,3]_r,[0,2]_r,[1,1]_r})\n",
            "",
        )

    def test_enumerate(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--support", '[["r",0],["r",1]]')
        assert code == 0
        assert len(json.loads(out)) == 2

    def test_table_format(self, capsys):
        code, out, _ = invoke(capsys, "ring", "--class", MSEG_PAIR, "--format", "table")
        assert code == 0
        assert "dimension: 2" in out


def _int_digit_limit() -> int:
    """Python's limit on the digits int() converts; skip where there is none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    return limit


class TestExitCodes:
    def test_usage_error_bad_json(self, capsys):
        code, _, err = invoke(capsys, "lambda", "{not json")
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_usage_error_expression(self, capsys):
        code, _, err = invoke(capsys, "kgroup-check", "Z[0,1 = Z[0,1]")
        assert code == 2
        assert "column" in err

    def test_usage_error_missing_equals(self, capsys):
        code, _, err = invoke(capsys, "kgroup-check", "Z[0,1]")
        assert code == 2
        assert "column 7: expected '='" in err

    def test_identity_error_positions(self, capsys):
        code, _, err = invoke(capsys, "kgroup-check", "Z[0,0] = Z[0,")
        assert code == 2
        assert "column 14: expected an integer" in err
        code, _, err = invoke(capsys, "kgroup-check", "Z[0,1] = Z[0,1] = Z[0,1]")
        assert code == 2
        assert "column 17: unexpected trailing input" in err

    @pytest.mark.parametrize(
        "identity,column",
        [("Z[²,3] = Z[0,0]", 3), ("D^²(Z[0,3]) = Z[0,0]", 3), ("Z[0,0] = Z[0,-²]", 14)],
        ids=["segment", "order", "signed"],
    )
    def test_non_decimal_digit(self, capsys, identity, column):
        """A digit that is not decimal, such as a superscript, is no integer."""
        code, out, err = invoke(capsys, "kgroup-check", identity)
        assert (code, out) == (2, "")
        assert err == f"error: syntax error at line 1, column {column}: expected an integer\n"

    @pytest.mark.parametrize(
        "identity,column,segment",
        [
            ("Z[1,0] = Z[0,0]", 2, "[1,0]"),
            ("Z [ 2 , 1 ] = Z[0,0]", 3, "[2,1]"),
            ("Z[0,0] = Z{[0,0], [3,1]}", 19, "[3,1]"),
        ],
        ids=["plain", "spaced", "in-braces"],
    )
    def test_reversed_segment_names_its_bracket(self, capsys, identity, column, segment):
        assert invoke(capsys, "kgroup-check", identity) == (
            2, "", f"error: syntax error at line 1, column {column}: "
            f"segment needs b >= a, got {segment}\n",
        )

    def test_decimal_digits_of_any_script(self, capsys):
        assert invoke(capsys, "kgroup-check", "Z[٣,٤] = Z[3,4;r]") == (0, "verified\n", "")

    @pytest.mark.parametrize(
        "identity,column",
        [("Z[0,0] = Z[{},9]", 12), ("D^{}(Z[0,0]) = Z[0,0]", 3), ("Z[0,0] =\n Z[0, -{}]", 7)],
        ids=["segment", "order", "second-line"],
    )
    def test_integer_too_long(self, capsys, identity, column):
        limit = _int_digit_limit()
        code, out, err = invoke(capsys, "kgroup-check", identity.format("1" * (limit + 1)))
        assert (code, out) == (2, "")
        line = identity.count("\n") + 1
        assert err == (
            f"error: syntax error at line {line}, column {column}: "
            f"integer has more than {limit} digits\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["lambda", '{"segments":[{"line":"r","a":0,"b":%s}]}'],
            ["enumerate", "--support", '[["r",%s]]'],
            ["strata", "--block", '{"lines":[{"line":"r"}],"n":2}', "--lambda", "[%s]"],
        ],
        ids=["lambda", "enumerate", "strata"],
    )
    def test_json_integer_too_long(self, capsys, argv):
        limit = _int_digit_limit()
        argv = [a.replace("%s", "1" * (limit + 1)) for a in argv]
        message = f"error: invalid JSON: integer has more than {limit} digits\n"
        assert invoke(capsys, *argv) == (2, "", message)

    @pytest.mark.parametrize("verb", ["lambda", "kgroup-check"])
    def test_file_not_utf8(self, capsys, tmp_path, verb):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe[")
        assert invoke(capsys, verb, str(path)) == (
            2, "", f"error: cannot read {path}: not UTF-8 text\n"
        )

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("[" * 100000, 1, 101),
            ('{"a":' * 100000, 1, 501),
            ('["[[[",' + "[" * 100000, 1, 107),
            ("[\n" * 100000, 101, 1),
        ],
        ids=["arrays", "objects", "after-a-string", "lines"],
    )
    def test_json_nested_too_deep(self, capsys, text, line, column):
        assert invoke(capsys, "lambda", text) == (
            2, "", f"error: invalid JSON at line {line}, column {column}: nesting deeper than 100\n"
        )

    @pytest.mark.parametrize(
        "identity,line,column",
        [
            ("(" * 100000, 1, 101),
            ("D^1(" * 100000, 1, 404),
            ("Z[0,0] =\n " + "( " * 1000, 2, 202),
        ],
        ids=["parentheses", "derivatives", "second-line"],
    )
    def test_expression_nested_too_deep(self, capsys, identity, line, column):
        assert invoke(capsys, "kgroup-check", identity) == (
            2, "", f"error: syntax error at line {line}, column {column}: nesting deeper than 100\n"
        )

    def test_expression_nested_at_the_limit(self, capsys):
        identity = "(" * 50 + "D^0(" * 50 + "Z[0,0]" + ")" * 100 + " = Z[0,0]"
        assert invoke(capsys, "kgroup-check", identity) == (0, "verified\n", "")

    def test_negative_derivative_order(self, capsys):
        code, out, err = invoke(capsys, "kgroup-check", "D^-1(Z[0,0]) = D^-1(Z[1,1])")
        assert (code, out) == (2, "")
        assert "column 3: derivative order must be >= 0" in err

    def test_domain_error(self, capsys):
        finite = '{"segments":[{"line":"r","dim":1,"period":2,"a":0,"b":1}]}'
        code, _, err = invoke(capsys, "dual", finite)
        assert code == 1
        assert "wraparound" in err

    def test_repeated_block_line(self, capsys, tmp_path):
        block = tmp_path / "block.json"
        block.write_text(json.dumps({"lines": [{"line": "r"}, {"line": "r"}], "n": 3}))
        code, out, err = invoke(capsys, "strata", "--block", str(block), "--lambda", "[1,1,1]")
        assert (code, out) == (1, "")
        assert "repeats the cuspidal line r" in err

    def test_budget_error(self, capsys):
        """A bound that is exceeded says how far the input went and names the knob."""
        for argv, message in [
            (
                ["poset", MSEG_PAIR, "--budget", "0"],
                "downset node bound 0 exceeded: the search had reached 2 nodes",
            ),
            (
                ["enumerate", "--support", json.dumps([["r", t] for t in range(12)]),
                 "--budget", "10"],
                "support size bound 10 exceeded: the support has 12 points",
            ),
            (
                ["strata", "--block", '{"lines":[{"line":"r"},{"line":"s"}],"n":4}',
                 "--lambda", "[4]", "--budget", "2"],
                "component enumeration bound 2 exceeded: the stratum has 5 classes",
            ),
            (
                ["lambda", MSEG_01.replace('"b":1', '"b":200000')],
                "output size bound 200000 exceeded: the partition would have 200001 parts",
            ),
            (
                ["dual", MSEG_01.replace('"b":1', f'"b":{10**30}')],
                f"output size bound 200000 exceeded: the support has {10**30 + 1} points",
            ),
            (
                ["dual", MSEG_PAIR, "--budget", "1"],
                "output size bound 1 exceeded: the support has 2 points",
            ),
        ]:
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == f"error: {message} (raise it with --budget or STRATAKIT_BUDGET)\n"

    def test_default_output_bound_admits_one_segment_of_100001_twists(self, capsys):
        one = '{"segments":[{"line":"r","dim":1,"period":null,"a":0,"b":100000}]}'
        assert invoke(capsys, "lambda", one) == (0, "[" + ",".join(["1"] * 100001) + "]\n", "")
        code, out, _ = invoke(capsys, "dual", one)
        assert (code, len(json.loads(out)["segments"])) == (0, 100001)

    @pytest.mark.parametrize("argv", [
        ["poset", MSEG_01], ["poset", MSEG_PAIR], ["poset", "not json"],
        ["enumerate", "--support", '[["r",0]]'],
        ["strata", "--block", '{"lines":[{"line":"r"}],"n":2}', "--lambda", "[2]"],
        ["lambda", MSEG_01], ["dual", MSEG_01],
    ])
    def test_negative_budget_is_a_usage_error(self, capsys, monkeypatch, argv):
        """Refused before any work, whatever the input and from either source."""
        assert invoke(capsys, *argv, "--budget", "-1") == (
            2, "", "error: --budget must be nonnegative, got -1\n")
        monkeypatch.setenv("STRATAKIT_BUDGET", "-3")
        assert invoke(capsys, *argv) == (
            2, "", "error: STRATAKIT_BUDGET must be nonnegative, got -3\n")

    def test_unknown_verb(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["ext", "--r", "3", "--nope"]) == 2

    @pytest.mark.parametrize("verb", [["lambda"], ["dual"], ["poset"], ["ring", "--class"]])
    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"segments":[{"line":"r","b":0}]}', "segments[0].a: expected integer"),
            ('{"segments":[{"line":"r","a":"x","b":0}]}', "segments[0].a: expected integer"),
            ('{"segments":5}', "segments: expected a list"),
            (
                '{"segments":[{"line":"r","dim":true,"a":0,"b":0}]}',
                "segments[0].dim: expected integer",
            ),
            (
                '{"segments":[{"line":"r","period":true,"a":0,"b":0}]}',
                "segments[0].period: expected integer or null",
            ),
        ],
        ids=["missing-a", "string-a", "segments-not-list", "bool-dim", "bool-period"],
    )
    def test_malformed_multisegment(self, capsys, verb, text, message):
        assert invoke(capsys, *verb, text) == (2, "", f"error: {message}\n")

    def test_malformed_nested_representative(self, capsys):
        for text, message in (
            ('{"representative":{}}', "representative: expected a multisegment object"),
            (
                '{"representative":{"segments":[{"line":"r","a":0,"b":true}]}}',
                "representative.segments[0].b: expected integer",
            ),
            ('{"segments":[{"a":0,"b":0}]}', "segments[0].line: expected string"),
            ('{"segments":[[0,0]]}', "segments[0]: expected an object"),
        ):
            code, out, err = invoke(capsys, "ring", "--class", text)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["enumerate", "--support", '[{"line":"r"}]'], "[0].twist: expected integer"),
            (["enumerate", "--support", '[["r","x"]]'], "[0][1]: expected integer"),
            (["enumerate", "--support", '[[5,0]]'], "[0][0]: expected string"),
            (
                ["enumerate", "--support", '[["r",0],{"line":"r","twist":1.5}]'],
                "[1].twist: expected integer",
            ),
            (
                ["enumerate", "--support", "[5]"],
                "[0]: expected an object with a twist, or a [line, twist] pair",
            ),
            (
                ["strata", "--block", '{"lines":[{"line":"r"}],"n":"x"}', "--lambda", "[1]"],
                "n: expected integer",
            ),
            (
                ["strata", "--block", '{"lines":[{"line":"r"}],"n":2}', "--lambda", '[1,"a"]'],
                "[1]: expected integer",
            ),
            (
                [
                    "strata", "--block", '{"lines":[{"line":"r","dim":true}],"n":2}',
                    "--lambda", "[2]",
                ],
                "lines[0].dim: expected integer",
            ),
            (
                ["strata", "--block", '{"lines":[{"line":"r"},[]],"n":2}', "--lambda", "[2]"],
                "lines[1]: expected an object",
            ),
            (["strata", "--block", '{"n":2}', "--lambda", "[2]"], "lines: expected a list"),
        ],
        ids=[
            "point-missing-twist", "pair-string-twist", "pair-int-line", "point-float-twist",
            "point-not-object", "block-string-n", "lambda-string-part", "block-bool-dim",
            "block-line-not-object", "block-missing-lines",
        ],
    )
    def test_malformed_input_names_its_path(self, capsys, argv, message):
        assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["strata", "--block", "[]", "--lambda", "[2]"], "--block: expected an object"),
            (
                ["strata", "--block", '{"lines":[{"line":"r"}],"n":2}', "--lambda", "7"],
                "--lambda: expected a list",
            ),
        ],
        ids=["block-not-object", "lambda-not-list"],
    )
    def test_malformed_root_names_its_flag(self, capsys, argv, message):
        assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lambda", MSEG_01, "--dot"],
            ["dual", MSEG_01, "--dot"],
            ["ring", "--class", MSEG_PAIR, "--budget", "3"],
            ["ext", "--r", "3", "--budget", "3"],
            ["kgroup-check", "Z[0,0] = Z[0,0]", "--budget", "1"],
            ["kgroup-check", "Z[0,0] = Z[0,0]", "--format", "table"],
        ],
    )
    def test_flag_the_verb_does_not_read(self, capsys, argv):
        assert run(argv) == 2


class TestDeterminismAndOutput:
    def test_byte_identical_repeats(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = invoke(capsys, "poset", MSEG_PAIR)
            outs.append(out)
        assert outs[0] == outs[1]

    def test_out_file_lf(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = invoke(capsys, "lambda", MSEG_01, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_bytes() == b"[1,1]\n"

    @pytest.mark.parametrize("verb", ["lambda", "dual"])
    def test_empty_entries_print_as_absent(self, capsys, verb):
        """An entry with a truthy ``empty`` field stands for no segment, whatever
        else it holds; the other entries keep their document-order paths."""
        first, second = json.loads(MSEG_PAIR)["segments"]
        padded = [{"empty": True}, first, {"empty": 1, "line": "r", "a": 5, "b": 2},
                  {**second, "empty": False}, {"empty": True, "a": "x"}]
        want = invoke(capsys, verb, MSEG_PAIR)
        assert want[0] == 0 and want[1]
        assert invoke(capsys, verb, json.dumps({"segments": padded})) == want
        bad = json.dumps({"segments": [{"empty": True}, {"line": "r", "a": "x", "b": 0}]})
        assert invoke(capsys, verb, bad) == (2, "", "error: segments[1].a: expected integer\n")

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("STRATAKIT_BUDGET", "0")
        code, _, err = invoke(capsys, "poset", MSEG_PAIR)
        assert code == 1
        monkeypatch.setenv("STRATAKIT_BUDGET", "notanint")
        code, _, err = invoke(capsys, "poset", MSEG_PAIR)
        assert code == 2

    def test_json_round_trip_all_verbs(self, capsys):
        for argv in (
            ["lambda", MSEG_01],
            ["dual", MSEG_PAIR],
            ["poset", MSEG_PAIR],
            ["ext", "--r", "4"],
            ["enumerate", "--support", '[["r",0],["r",1],["r",2]]'],
        ):
            code, out, _ = invoke(capsys, *argv)
            assert code == 0
            json.loads(out)


@pytest.mark.parametrize(
    "verb,text",
    [("lambda", MSEG_01), ("kgroup-check", "Z[0,1] = Z[0,1]")],
    ids=["json", "kgroup-check"],
)
def test_out_path_that_cannot_be_written(capsys, monkeypatch, tmp_path, verb, text):
    missing = tmp_path / "no" / "x"
    assert invoke(capsys, verb, text, "--out", str(missing)) == (
        2, "", f"error: cannot write {missing}: {os.strerror(errno.ENOENT)}\n"
    )
    assert invoke(capsys, verb, text, "--out", str(tmp_path)) == (
        2, "", f"error: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}\n"
    )
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")

    def refuse(*args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr("strata_kit.cli.open", refuse, raising=False)
    assert invoke(capsys, verb, str(path)) == (
        2, "", f"error: cannot read {path}: {os.strerror(errno.EACCES)}\n"
    )


def test_module_entry_point_has_clean_stderr():
    src = str(Path(strata_kit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "strata_kit.cli", "ext", "--r", "2"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[1,2,1]\n", b"")


json_scalar_st = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["r", "s", "", "x"]),
    st.floats(-2, 2), st.just([]), st.just({}),
)
segment_json_st = st.one_of(
    st.dictionaries(st.sampled_from(["line", "dim", "period", "a", "b", "empty"]), json_scalar_st),
    json_scalar_st,
)


# invoke() drains capsys on every call, so one fixture serves every example.
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["lambda", "dual"]), st.one_of(st.lists(segment_json_st, max_size=3), json_scalar_st))
def test_multisegment_json_fuzz_never_raises(capsys, verb, segments):
    """Any JSON shape ends in a documented exit code, never an exception."""
    code, _, err = invoke(capsys, verb, json.dumps({"segments": segments}))
    assert code in (0, 1, 2)
    assert "Traceback" not in err


line_json_st = st.dictionaries(st.sampled_from(["line", "dim", "period", "twist"]), json_scalar_st)
block_json_st = st.one_of(
    st.dictionaries(
        st.sampled_from(["lines", "n"]),
        st.one_of(st.lists(st.one_of(line_json_st, json_scalar_st), max_size=2), json_scalar_st),
    ),
    json_scalar_st,
)
support_json_st = st.one_of(
    st.lists(
        st.one_of(line_json_st, st.lists(json_scalar_st, min_size=2, max_size=2), json_scalar_st),
        max_size=4,
    ),
    json_scalar_st,
)
input_argv_st = st.one_of(
    st.tuples(
        st.just("strata"),
        st.just("--block"),
        block_json_st.map(json.dumps),
        st.just("--lambda"),
        st.one_of(st.lists(json_scalar_st, max_size=3), json_scalar_st).map(json.dumps),
    ),
    st.tuples(st.just("enumerate"), st.just("--support"), support_json_st.map(json.dumps)),
)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(input_argv_st)
def test_block_lambda_and_support_json_fuzz_never_raises(capsys, argv):
    """Blocks, partitions and support points end in a documented exit code too."""
    code, _, err = invoke(capsys, *argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(identity_text_st)
def test_kgroup_check_fuzz_never_raises(capsys, identity):
    """Any identity text ends in a documented exit code, never an exception."""
    code, _, err = invoke(capsys, "kgroup-check", identity)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
