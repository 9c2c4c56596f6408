"""Driver tests: label grammar, verb dispatch, exit codes, and the
emission contract (fixed key order, byte determinism, atomic writes)."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinertorelli import torelli
from steinertorelli.cli import (build_arg_parser, default_b_label, emit,
                                main, parse_label_text, resolve_label)
from steinertorelli.errors import UsageError
from steinertorelli.scenes import P1Series, load_scene
from steinertorelli.steiner import validate_presentation

SCENEDIR = Path(__file__).resolve().parent.parent / "scenefiles"

TC_PATH = str(SCENEDIR / "twisted_cubic.json")
CI_PATH = str(SCENEDIR / "diagonal_ci.json")
SIX_PATH = str(SCENEDIR / "six_general_points.json")
SEVEN_CUBIC_PATH = str(SCENEDIR / "seven_on_twisted_cubic.json")
SEVEN_FREE_PATH = str(SCENEDIR / "seven_general_f11.json")
SCROLL_A_PATH = str(SCENEDIR / "scroll_member_a.json")
SCROLL_B_PATH = str(SCENEDIR / "scroll_member_b.json")
CONIC_PATH = str(SCENEDIR / "conic_monomials.json")
FERMAT_PATH = str(SCENEDIR / "fermat_quartic.json")


def json_oracle(report):
    """A report's bytes as json's own indent-1 encoder writes them."""
    return (json.dumps(report, indent=1, ensure_ascii=False)
            + "\n").encode("utf-8")


# ---- label grammar --------------------------------------------------------------


def test_label_grammar_accepts_documented_spellings():
    assert parse_label_text("K") == ("adjoint", 0)
    assert parse_label_text("K+A") == ("adjoint", 1)
    assert parse_label_text("k+2a") == ("adjoint", 2)
    assert parse_label_text("K-A") == ("adjoint", -1)
    assert parse_label_text("K + 3A") == ("adjoint", 3)
    assert parse_label_text("O(5)") == ("twist", 5)
    assert parse_label_text("o(-1)") == ("twist", -1)
    assert parse_label_text("(1,1)") == ("pair", (1, 1))
    assert parse_label_text("7") == ("twist", 7)


@pytest.mark.parametrize("bad", ["K+junk", "O(x)", "(1,2,3)", "(a,b)",
                                 "banana", "K*2A"])
def test_label_grammar_rejects_garbage(bad):
    with pytest.raises(UsageError):
        parse_label_text(bad)


def test_resolve_label_against_scene_grading():
    tc = P1Series(3)
    assert resolve_label(tc, "K+2A") == 4
    assert resolve_label(tc, "O(5)") == 5
    with pytest.raises(UsageError):
        resolve_label(tc, "(1,1)")
    scroll = load_scene(SCROLL_A_PATH)
    k_plus_a = scroll.label_add(scroll.canonical_label(), scroll.label_A())
    assert resolve_label(scroll, "K+A") == k_plus_a
    with pytest.raises(UsageError):
        resolve_label(scroll, "O(5)")


def test_explicit_twist_on_monomial_scene(capsys):
    # no canonical class is needed to read O(4) on an integer-graded scene
    assert resolve_label(load_scene(CONIC_PATH), "O(4)") == 4
    code, rep = run_json(capsys, ["torelli", CONIC_PATH, "--B", "O(4)",
                                  "--primes", "5,7,11"])
    assert code == 0
    assert rep["consensus"] == "EQUAL"
    assert all(r["verdict"] == "EQUAL" and r["recovery_ok"]
               for r in rep["results"])
    code, rep = run_json(capsys, ["torelli", CONIC_PATH, "--B", "K",
                                  "--primes", "5"])
    assert code == 5
    assert rep["error"] == "UnsupportedScene"


def test_default_label_is_adjoint_plus_n_plus_one():
    assert default_b_label(P1Series(3)) == 4
    quartic = load_scene(str(SCENEDIR / "fermat_quartic.json"))
    assert default_b_label(quartic) == 3


# ---- verb dispatch --------------------------------------------------------------


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_torelli_verb_equal_consensus(capsys):
    code, rep = run_json(capsys, ["torelli", TC_PATH, "--B", "O(5)",
                                  "--primes", "5"])
    assert code == 0
    assert rep["consensus"] == "EQUAL"
    assert rep["results"][0]["scanned"] == 156
    assert rep["results"][0]["recovery_ok"] is True


def test_valles_verb_uses_adjoint_default(capsys):
    code, rep = run_json(capsys, ["valles", TC_PATH, "--prime", "5"])
    assert code == 0
    assert rep["B"] == "O(4)"
    assert rep["scanned"] == 156
    assert len(rep["unstable"]) == 6


def test_build_verb_on_point_set(capsys):
    code, rep = run_json(capsys, ["build", SIX_PATH, "--prime", "7"])
    assert code == 0
    assert rep["B"] is None
    assert rep["dims"] == {"a": 2, "m": 4, "b": 5}
    assert rep["bundle_rank"] == 3
    assert rep["validation"]["valid"] is True


def test_koszul_verb_quadric_syzygies(capsys):
    code, rep = run_json(capsys, ["koszul", TC_PATH, "--p", "1",
                                  "--q", "1"])
    assert code == 0
    assert rep["N"] == "O(0)"
    assert (rep["dim"], rep["middle"]) == (3, 16)


def test_green_verb_on_points(capsys):
    code, rep = run_json(capsys, ["green", SEVEN_CUBIC_PATH,
                                  "--prime", "7"])
    assert code == 0
    assert rep["on_rnc"] is True


def test_duality_verb_matches(capsys):
    code, rep = run_json(capsys, ["duality", TC_PATH, "--p", "0",
                                  "--q", "1"])
    assert code == 0
    assert rep["match"] is True


def test_recover_verb_full_table(capsys):
    code, rep = run_json(capsys, ["recover", TC_PATH, "--B", "O(5)",
                                  "--prime", "7"])
    assert code == 0
    assert rep["all_match"] is True
    assert len(rep["rows"]) == 8


def test_recover_verb_reports_non_unique_quotients(capsys):
    # B = K on the quadric scroll member: no image point has a unique
    # trivial quotient, and the table says so instead of failing
    code, rep = run_json(capsys, ["recover", SCROLL_A_PATH, "--B", "K",
                                  "--prime", "5"])
    assert code == 0
    assert rep["all_match"] is False
    assert [r["recovered"] for r in rep["rows"]] == [None] * 8


def test_dk_verb_file_mode(capsys):
    code, rep = run_json(capsys, ["dk", SEVEN_FREE_PATH, "--prime", "11"])
    assert code == 0
    assert rep["consensus"] == "EQUAL"
    assert rep["results"][0]["rnc_flag"] is False


def test_dk_verb_isolates_a_bad_prime(capsys):
    # the seven points fall out of general position mod 19 only
    code, rep = run_json(capsys, ["dk", SEVEN_FREE_PATH, "--primes",
                                  "11,13,19"])
    assert code == 0
    assert [(r["prime"], r["verdict"]) for r in rep["results"]] == \
        [(11, "EQUAL"), (13, "EQUAL"), (19, "BAD_PRIME")]
    assert rep["results"][2]["error"] == "NotGeneralPosition"
    assert "error" not in rep["results"][0]
    assert rep["consensus"] == "EQUAL"
    assert rep["bad_primes"] == [19]


def test_dk_verb_generation_mode_records_seed(capsys):
    code, rep = run_json(capsys, ["dk", "--N", "7", "--seed", "0"])
    assert code == 0
    assert (rep["seed"], rep["used_seed"]) == (0, 1)
    frozen = load_scene(SEVEN_FREE_PATH)
    assert rep["coordinates"] == [[int(c) for c in row]
                                  for row in frozen.points]
    assert rep["consensus"] == "EQUAL"


def test_dk_verb_certifies_a_seed_that_needs_many_draws(capsys):
    # 270 draws from seed 389241 fail the certificate at p = 11, more
    # than an earlier budget of 256 allowed
    code, rep = run_json(capsys, ["dk", "--N", "7", "--seed", "389241",
                                  "--prime", "11"])
    assert code == 0
    assert (rep["seed"], rep["used_seed"]) == (389241, 389512)
    assert rep["consensus"] == "EQUAL"


def test_scroll_invariance_verb(capsys):
    code, rep = run_json(capsys, ["scroll-invariance", SCROLL_A_PATH,
                                  SCROLL_B_PATH])
    assert code == 0
    assert rep["invariant"] is True


# ---- exit codes -----------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert main(["torelli", TC_PATH, "--B", "K+junk"]) == 2
    assert main(["torelli", TC_PATH, "--prime", "5",
                 "--primes", "5,7"]) == 2
    assert main(["koszul", TC_PATH, "--p", "1"]) == 2
    assert main(["dk"]) == 2
    assert main(["dk", SIX_PATH, "--N", "6"]) == 2
    assert main(["dk", TC_PATH]) == 2
    assert main(["koszul", SIX_PATH, "--p", "1", "--q", "1",
                 "--N", "O(3)"]) == 2
    assert main(["build", SIX_PATH, "--B", "O(3)"]) == 2
    assert main(["valles", SIX_PATH, "--B", "O(3)"]) == 2
    assert main(["dk", "--N", "6", "--primes", "5,7"]) == 2
    assert main(["frobnicate", TC_PATH]) == 2
    # a repeated prime is refused, not run twice
    assert main(["torelli", TC_PATH, "--primes", "5,5"]) == 2
    assert main(["dk", SIX_PATH, "--primes", "7,7"]) == 2
    # an empty label is refused, not read as the default
    assert main(["build", TC_PATH, "--B", "", "--prime", "5"]) == 2
    assert main(["koszul", TC_PATH, "--p", "1", "--q", "1", "--N", ""]) == 2
    assert main(["duality", TC_PATH, "--p", "1", "--q", "1", "--N", ""]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("path", [TC_PATH, SIX_PATH])
@pytest.mark.parametrize("q, degree", [(-2, -2), (-1, -2), (3, 4), (5, 5)])
def test_koszul_degrees_outside_the_window_are_refused(capsys, path, q,
                                                       degree):
    # K_{p,q} reads M_q, M_(q+1) and M_(q-1); the first of them outside
    # [-1, 3] is the one named
    assert main(["koszul", path, "--p", "1", f"--q={q}"]) == 5
    assert capsys.readouterr().out == (
        '{\n "error": "WindowTooSmall",\n "message": "degree '
        f'{degree} outside window [-1, 3]"\n}}\n')


@pytest.mark.parametrize("argv", [
    ["torelli", TC_PATH, "--prime", "0"],
    ["koszul", TC_PATH, "--p", "1", "--q", "1", "--prime", "0"],
    ["dk", "--N", "6", "--prime", "0"],
])
def test_prime_zero_is_refused(capsys, argv):
    code, rep = run_json(capsys, argv)
    assert code == 5
    assert rep["error"] == "NonPrimeModulus"


@pytest.mark.parametrize("argv", [
    ["torelli", CI_PATH, "--B", "K+2A", "--primes", "17,4"],
    ["dk", SIX_PATH, "--primes", "7,1"],
])
def test_non_prime_modulus_is_refused_before_any_prime(capsys, monkeypatch,
                                                       argv):
    """A multi-prime run refuses a modulus that is not prime up front: no
    presentation is validated at the primes listed before it."""
    calls = []

    def counting(pres):
        calls.append(pres.field)
        return validate_presentation(pres)

    monkeypatch.setattr(torelli, "validate_presentation", counting)
    code, rep = run_json(capsys, argv)
    assert code == 5
    assert rep["error"] == "NonPrimeModulus"
    assert calls == []


SINGLE_SCENE_VERBS = [
    ["build", "--prime", "5"],
    ["valles", "--prime", "5"],
    ["koszul", "--p", "1", "--q", "1", "--prime", "5"],
    ["green", "--prime", "5"],
    ["duality", "--p", "1", "--q", "1", "--prime", "5"],
    ["torelli", "--primes", "5"],
    ["recover", "--prime", "5"],
    ["dk", "--primes", "5"],
]


@pytest.mark.parametrize("scene", sorted(p.name for p in
                                         SCENEDIR.glob("*.json")))
@pytest.mark.parametrize("verb", SINGLE_SCENE_VERBS, ids=lambda v: v[0])
def test_every_verb_on_every_scene_ends_in_a_report(capsysbinary, verb,
                                                   scene):
    # a run either reports, refuses its arguments, or names its failure;
    # a report's bytes are those of json's indent-1 encoder
    code = main([verb[0], str(SCENEDIR / scene), *verb[1:]])
    assert code in (0, 2, 5)
    out = capsysbinary.readouterr().out
    if code != 2:
        assert out == json_oracle(json.loads(out))


@pytest.mark.parametrize("argv", [
    ["torelli", TC_PATH, "--primes", ""],
    ["dk", SIX_PATH, "--primes", ""],
])
def test_empty_prime_list_is_refused(capsys, argv):
    assert main(argv) == 2
    assert "prime list" in capsys.readouterr().err


def test_missing_file_exits_three(capsys):
    assert main(["valles", "nowhere/missing.json"]) == 3
    assert "missing" in capsys.readouterr().err


def test_schema_violation_exits_four(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "mystery"}')
    assert main(["valles", str(bad)]) == 4
    notjson = tmp_path / "notjson.json"
    notjson.write_text("]]]")
    assert main(["valles", str(notjson)]) == 4
    capsys.readouterr()


def test_mistyped_field_exits_four(tmp_path, capsys):
    # exponents 1.9 must not be read as 1 and run on x*y
    data = json.loads(Path(CONIC_PATH).read_text())
    data["monomials"][1] = [1.9, 1.9]
    bad = tmp_path / "floats.json"
    bad.write_text(json.dumps(data))
    assert main(["valles", str(bad), "--B", "O(4)", "--prime", "5"]) == 4
    assert "exponent vector" in capsys.readouterr().err


def test_pipeline_errors_exit_five_with_named_report(capsys):
    code, rep = run_json(capsys, ["koszul", TC_PATH, "--p", "1",
                                  "--q", "5"])
    assert code == 5
    assert rep["error"] == "WindowTooSmall"
    code, rep = run_json(capsys, ["torelli", SCROLL_A_PATH, "--B", "(0,3)"])
    assert code == 5
    assert rep["error"] == "UnsupportedLabel"
    # a negative count is refused before any draw
    code, rep = run_json(capsys, ["dk", "--N", "-1"])
    assert code == 5
    assert rep == {"error": "NotGeneralPosition",
                   "message": "need at least r+1 = 4 points, got -1"}


# ---- emission contract ----------------------------------------------------------


def test_json_report_round_trips(capsys):
    code, rep = run_json(capsys, ["valles", TC_PATH, "--prime", "5"])
    assert code == 0
    assert json.loads(emit(rep, "json").decode("utf-8")) == rep
    assert list(rep) == ["scene", "B", "prime", "scanned", "unstable"]


def test_out_file_written_atomically(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["torelli", TC_PATH, "--B", "O(5)", "--primes", "5",
                 "--out", str(out)])
    assert code == 0
    assert not (tmp_path / "report.json.tmp").exists()
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert rep["consensus"] == "EQUAL"
    # stdout carries the text table when --out takes the JSON
    assert "consensus" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_explicit_format_wins_over_out(tmp_path, capsys, fmt):
    out = tmp_path / "report.json"
    code = main(["build", TC_PATH, "--B", "O(5)", "--prime", "5",
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    data = out.read_bytes()
    rep = json.loads(data)
    assert rep["validation"]["valid"] is True
    assert capsys.readouterr().out.encode("utf-8") == emit(rep, fmt)
    assert emit(rep, "json") == data


def test_reports_are_byte_deterministic(tmp_path, capsys):
    argv = ["dk", "--N", "7", "--seed", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def _fresh_parser_main(argv):
    build_arg_parser.cache_clear()
    return main(argv)


def test_verbs_in_sequence_match_fresh_calls(capsys):
    # the parser is built once per process; one verb's options must not
    # leak into the next verb's report
    runs = [["koszul", TC_PATH, "--p", "1", "--q", "1", "--N", "O(1)"],
            ["green", SEVEN_CUBIC_PATH, "--prime", "7", "--format", "text"],
            ["valles", TC_PATH, "--prime", "5"],
            ["koszul", CI_PATH, "--p", "2", "--q", "1"]]
    fresh = []
    for argv in runs:
        code = _fresh_parser_main(argv)
        fresh.append((code, capsys.readouterr().out))
    parser = build_arg_parser()
    for argv, want in zip(runs, fresh):
        code = main(argv)
        assert (code, capsys.readouterr().out) == want
    assert build_arg_parser() is parser


# sha256 of the --help text at 80 columns, recorded when the parser was
# still built on every call.  argparse lays help out differently across
# Python versions, so the digests hold for the version they were taken on.
HELP_DIGESTS = {
    "": "08993437a68ff8f7ffc7f2cbc97e67db216060643f2607ef8cb78b2eef173819",
    "build":
        "e11265246d901c786f9e093709be6f5fa2152c31cca1ad536287145b4005373a",
    "valles":
        "a72a17559908aa7aa58622c016b25f89a8387391e40334fecbf258327055c20b",
    "koszul":
        "fe90063de2d5594dfea47b98676fb0e4d4054c144222409b16ad4442a8566678",
    "green":
        "b0eafb26953d13d9a88f5f03fd6a5ddae8fc31600746de56f62268b82b564391",
    "duality":
        "6c6897e66497f45907d27d40bfbdb57950b1f12926a7569173315c745f011d16",
    "torelli":
        "f8305f3123cf59929bd3ae19b616b5ccddcb5e9779f0a07727207aac6a184d02",
    "recover":
        "e101442e32587db004c2a5f88a9363fde4935ff4c847bdd9eed0430f65826f55",
    "dk": "e8eab82f9ac2d75691463c6bdec9bbf38bf93d38e6a003df9e42508918c66f05",
    "scroll-invariance":
        "ce0583bef6bd615ddaebfcbfa81f29589b35cfca358aaf30c8f8c866f295c01f",
}


def _help_text(capsys, verb):
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--help"] if verb else ["--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="digests taken with the Python 3.11 argparse")
@pytest.mark.parametrize("verb", list(HELP_DIGESTS))
def test_help_text_is_pinned(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    main(["koszul", TC_PATH, "--p", "1", "--q", "1"])
    capsys.readouterr()
    for _ in range(2):
        text = _help_text(capsys, verb)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            HELP_DIGESTS[verb]


@pytest.mark.parametrize("verb", list(HELP_DIGESTS))
def test_help_text_matches_a_fresh_parser(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    main(["valles", TC_PATH, "--prime", "5"])
    capsys.readouterr()
    cached = _help_text(capsys, verb)
    build_arg_parser.cache_clear()
    assert _help_text(capsys, verb) == cached


def test_text_format_is_tabular_not_json(capsys):
    code = main(["torelli", TC_PATH, "--primes", "5",
                 "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "{" not in out
    assert "consensus" in out
    assert "EQUAL" in out


@pytest.mark.parametrize("argv, want", [
    (["torelli", FERMAT_PATH, "--B", "O(3)", "--primes", "13,17,19"], 0),
    (["dk", "--N", "6", "--prime", "11", "--seed", "4"], 0),
    (["scroll-invariance", SCROLL_A_PATH, SCROLL_B_PATH], 0),
    (["koszul", TC_PATH, "--p", "1", "--q", "5"], 5),
])
@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_out_files_and_stdout_hold_the_json_encoder_bytes(
        tmp_path, capsysbinary, argv, want, fmt):
    """With --out the file holds json's indent-1 bytes, error reports
    too, and so does stdout when it is JSON."""
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out), *fmt]) == want
    data = out.read_bytes()
    assert data == json_oracle(json.loads(data))
    stdout = capsysbinary.readouterr().out
    assert stdout == (data if fmt else emit(json.loads(data), "text"))


JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u2029é∞\U0001d53d'),
    st.characters()))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-10 ** 40, 10 ** 40), st.floats(), JSON_TEXT)
# int lists with a bool or None among the ints stay json's
INT_LISTS = st.tuples(
    st.lists(st.integers(), min_size=1),
    st.sampled_from([None, True, False, 0]),
    st.integers(0, 10)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
JSON_KEYS = st.one_of(JSON_TEXT, st.integers(), st.none(), st.booleans(),
                      st.floats())


def _nested(tree, depth):
    for i in range(depth):
        tree = [tree] if i % 2 else {"k": tree}
    return tree


JSON_TREES = st.recursive(
    st.one_of(JSON_SCALARS, INT_LISTS, st.lists(st.integers())),
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.dictionaries(JSON_KEYS, children)),
    max_leaves=30)


@given(tree=st.one_of(JSON_TREES, st.builds(_nested, JSON_TREES,
                                            st.integers(6, 9))))
@settings(max_examples=150, deadline=None)
def test_json_reports_are_the_json_encoder_bytes(tree):
    assert emit(tree, "json") == json_oracle(tree)


@pytest.mark.parametrize("bad", [
    Fraction(1, 2), {1, 2}, [1, Fraction(1, 2)], {"a": {"b": {3}}},
    {(1, 2): 3}, [object()]])
def test_json_reports_refuse_what_json_refuses(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=1, ensure_ascii=False)
    with pytest.raises(TypeError):
        emit(bad, "json")


def test_empty_unstable_list_serializes_as_empty():
    data = emit({"prime": 5, "scanned": 0, "unstable": []}, "json")
    assert json.loads(data.decode("utf-8")) == {
        "prime": 5, "scanned": 0, "unstable": []}
    assert b"[]" in data


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "steinertorelli.cli", "green",
         str(SCENEDIR / "twisted_cubic.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["verdict"] == "minimal-degree variety detected"
