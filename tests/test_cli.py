import contextlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import czfkit
from czfkit import hierarchy, names
from czfkit.cli import MAX_NAME_DEPTH, run


CHAIN_TOP = """\
carrier: a b
order: a<=b
cover: a <| {a}
cover: a <| {a,b}
cover: b <| {b}
cover: b <| {a,b}
cover: a <| {b}
"""

OMEGA_TOP = """\
carrier: 0
cover: 0 <| {0}
"""


@pytest.fixture()
def chain_path(tmp_path):
    p = tmp_path / "chain.top"
    p.write_text(CHAIN_TOP)
    return str(p)


@pytest.fixture()
def omega_path(tmp_path):
    p = tmp_path / "omega.top"
    p.write_text(OMEGA_TOP)
    return str(p)


def out_of(capsys):
    return capsys.readouterr().out


def test_parse(capsys):
    assert run(["parse", "ex x. x in y"]) == 0
    assert out_of(capsys) == "ex x. x in y\n"
    assert run(["parse", "x in"]) == 2


def test_classify(capsys):
    assert run(["classify", "ex x. x in y"]) == 0
    assert out_of(capsys) == "Sigma 1 / Pi 2\n"
    assert run(["classify", "x in M"]) == 2
    capsys.readouterr()
    assert run(["classify", "x in M", "--extra", "M"]) == 0
    assert out_of(capsys) == "Sigma 0 / Pi 0\n"


def test_hierarchy(capsys):
    assert run(["hierarchy", "ex x. x in y", "--side", "sigma",
                "--level", "1"]) == 0
    assert out_of(capsys) == "true\n"
    assert run(["hierarchy", "ex x. x in y", "--side", "pi",
                "--level", "1"]) == 1
    assert out_of(capsys) == "false\n"


def test_out_of_range_level_and_arity_exit_2(capsys):
    assert run(["hierarchy", "x = x", "--side", "sigma",
                "--level", "-1"]) == 2
    assert capsys.readouterr().err == "error: level must be nonnegative\n"
    assert run(["compile", "x1 = x1", "--arity", "0"]) == 2
    assert capsys.readouterr().err == "error: arity must be at least 1\n"


def test_assignment_without_equals_sign_exits_2(capsys):
    assert run(["hf-sat", "x = x", "--universe", "{}", "--env", "x"]) == 2
    assert capsys.readouterr().err == (
        "error: bad assignment 'x', expected var=value\n")


def test_compile(capsys):
    assert run(["compile", "x1 = x1", "--arity", "1"]) == 0
    assert out_of(capsys) == "#1\n"
    assert run(["compile", "x1 in x1", "--arity", "1"]) == 0
    text = out_of(capsys)
    assert text.startswith("F_") and "#1" in text
    assert run(["compile", "ex y. y in x1", "--arity", "1"]) == 2


def test_compile_refuses_class_atoms(capsys):
    assert run(["compile", "x1 in C", "--arity", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: formula contains a class atom over C\n"


@pytest.mark.parametrize("formula", [
    "~" * 300 + "x1 = x1", "ex y in x1. " * 100 + "x1 = x1",
], ids=["300-negations", "100-quantifiers"])
def test_compile_deep_formula(capsys, formula):
    assert run(["compile", formula, "--arity", "1"]) == 0
    text = out_of(capsys)
    assert text.startswith("F_") and text.endswith(")\n")


def test_hf_eval(capsys):
    assert run(["hf-eval", "F_p", "{}", "{}"]) == 0
    assert out_of(capsys) == "{{}}\n"
    assert run(["hf-eval", "p", "{}", "{}"]) == 0
    assert out_of(capsys) == "{{}}\n"
    assert run(["hf-eval", "F_zap", "{}", "{}"]) == 2
    assert run(["hf-eval", "F_p", "{}"]) == 2


def test_hf_sat(capsys):
    assert run(["hf-sat", "ex x. x in y", "--universe", "{{},{{}}}",
                "--env", "y={{}}"]) == 0
    assert out_of(capsys) == "true\n"
    assert run(["hf-sat", "ex x. x in y", "--universe", "{{}}",
                "--env", "y={}"]) == 1
    assert out_of(capsys) == "false\n"
    assert run(["hf-sat", "x in y", "--universe", "{{}}"]) == 2
    capsys.readouterr()
    assert run(["hf-sat", "x = y", "--universe", "{}", "--env", "x={}"]) == 2
    assert capsys.readouterr().err == "error: unassigned variable y\n"


def test_lfp(capsys):
    rules = ["{}|-{}", "{{}}|-{{}}"]
    argv = ["lfp"]
    for r in rules:
        argv += ["--rule", r]
    assert run(argv) == 0
    assert out_of(capsys) == "{{{}},{}}\n"
    assert run(argv + ["--stages"]) == 0
    assert out_of(capsys) == "{}\n{{}}\n{{{}},{}}\n"
    assert run(["lfp", "--rule", "nonsense"]) == 2


def test_l_stage_and_hadd(capsys):
    assert run(["l-stage", "1", "1"]) == 0
    assert out_of(capsys) == "{{{}},{}}\n"
    assert run(["hadd", "1", "1"]) == 0
    assert out_of(capsys) == "3\n"
    assert run(["l-stage", "3", "3", "--max-size", "10"]) == 3


def test_hadd_of_large_ordinals(capsys):
    """hadd computes on ints; building the von Neumann ordinals of the sums
    took memory exponential in them."""
    assert run(["hadd", "40", "0"]) == 0
    assert out_of(capsys) == "41\n"
    assert run(["hadd", "1000", "7"]) == 0
    assert out_of(capsys) == "7008\n"


def test_hadd_is_closed_form(capsys):
    """hadd does not loop over alpha: a trillion is as quick as one."""
    assert run(["hadd", "1000000000000", "3"]) == 0
    assert out_of(capsys) == "3000000000004\n"


@pytest.mark.parametrize("argv, message", [
    (["hadd", "--", "-1", "0"], "finite ordinals only"),
    (["hadd", "--", "0", "-1"], "finite ordinals only"),
    (["l-stage", "--", "-1", "1"], "finite ordinals only"),
    (["l-stage", "--", "1", "-1"], "k must be a natural number"),
    (["l-stage", "--", "0", "-1"], "k must be a natural number"),
    (["parse", "x = {,}"],
     "formula syntax error: expected '{' at position 5"),
])
def test_input_errors_exit_2(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_check_regular(capsys):
    assert run(["check-regular", "{{}}", "--level", "regular"]) == 0
    assert out_of(capsys) == "ok\n"
    assert run(["check-regular", "{{},{{}}}", "--level", "regular"]) == 1
    assert "regularity" in out_of(capsys)
    assert run(["check-regular", "{{{}}}", "--level", "regular"]) == 2


def test_check_elementary(capsys):
    assert run(["check-elementary", "--source", "{{}}", "--target", "{{}}",
                "--map", "{}=>{}"]) == 0
    assert out_of(capsys).startswith("ok (")
    assert run(["check-elementary", "--source", "{{}}",
                "--target", "{{},{{}}}", "--map", "{}=>{{}}",
                "--depth", "2"]) == 1
    assert out_of(capsys).startswith("fails on ")
    assert run(["check-elementary", "--source", "{{{}}}", "--target", "{{}}",
                "--map", "{{}}=>{}"]) == 2
    capsys.readouterr()
    # one point, two images: refused in either order
    for maps in (["{}=>{{}}", "{}=>{}"], ["{}=>{}", "{}=>{{}}"]):
        argv = ["check-elementary", "--source", "{{}}",
                "--target", "{{},{{}}}"]
        for m in maps:
            argv += ["--map", m]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad map entry ")
        assert captured.err.count("\n") == 1
    # the same entry twice is one entry
    assert run(["check-elementary", "--source", "{{}}", "--target", "{{}}",
                "--map", "{}=>{}", "--map", "{}=>{}"]) == 0
    assert out_of(capsys).startswith("ok (")


def test_topology_validate_and_frame(capsys, chain_path, omega_path, tmp_path):
    assert run(["topology-validate", "--topology", chain_path]) == 0
    assert out_of(capsys) == "valid\n"
    assert run(["frame", "--topology", omega_path]) == 0
    assert out_of(capsys) == "{}\n{0}\n"
    assert run(["frame", "--topology", chain_path]) == 0
    assert out_of(capsys) == "{}\n{a}\n{a,b}\n"
    broken = tmp_path / "broken.top"
    broken.write_text("carrier: a\n")
    assert run(["topology-validate", "--topology", str(broken)]) == 1
    assert "reflexivity" in out_of(capsys)
    assert run(["frame", "--topology", str(tmp_path / "missing.top")]) == 2


def test_interpret(capsys, omega_path, chain_path):
    assert run(["interpret", "x = x", "--topology", omega_path,
                "--env", "x={}"]) == 0
    assert out_of(capsys) == "{0}\n"
    assert run(["interpret", "x = y", "--topology", omega_path,
                "--env", "x={}", "--env", "y={{}}"]) == 0
    assert out_of(capsys) == "{}\n"
    assert run(["interpret", "x = x", "--topology", omega_path,
                "--env", "x=(()->{0})"]) == 0
    assert out_of(capsys) == "{0}\n"
    assert run(["interpret", "all x. x = x | ~(x = x)", "--topology",
                chain_path, "--depth", "1"]) == 0
    assert out_of(capsys) == "{a,b}\n"


def chain(depth):
    """The name ((...(()->{0})...)->{0}), ``depth`` levels deep."""
    return "(" * depth + "()" + "->{0})" * depth


BAD_NAMES = ["(", "(()->{0}", "(()->0)", "(()->{zz})",
             pytest.param(chain(MAX_NAME_DEPTH + 1), id="too-deep"),
             pytest.param(chain(3000), id="3000-deep")]


@pytest.mark.parametrize("name", BAD_NAMES)
def test_interpret_rejects_bad_names(capsys, omega_path, name):
    assert run(["interpret", "x = x", "--topology", omega_path,
                "--env", f"x={name}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad name:")
    assert captured.err.count("\n") == 1


DEEP_HF = "{" * 3000 + "}" * 3000


@pytest.mark.parametrize("argv, message", [
    (["parse", "~" * 3000 + "x = x"], "formula syntax error: nested too deeply"),
    (["hf-eval", "F_p", DEEP_HF, "{}"], "bad hf literal: nested too deeply"),
], ids=["formula-3000-deep", "hf-eval-3000-deep"])
def test_deep_input_exits_2(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


FLAT = " & ".join(["x1 = x1"] * 3000)  # parses without parser recursion
NEGATED = "~" * 500 + "(x1 = x1)"
DEEPEST = chain(MAX_NAME_DEPTH)


@pytest.mark.parametrize("argv", [
    ["translate", FLAT],
    ["eliminate-classes", FLAT],
    ["compile", FLAT, "--arity", "1"],
    ["hf-sat", FLAT, "--universe", "{}", "--env", "x1={}"],
    ["interpret", FLAT, "--topology", "T", "--env", "x1={}"],
    ["translate", FLAT, "--mode", "semantic", "--topology", "T",
     "--env", "x1={}"],
    ["translate", NEGATED],
    ["eliminate-classes", NEGATED],
    ["interpret", "~" * 190 + "(x = y)", "--topology", "T",
     "--env", f"x={DEEPEST}", "--env", f"y={DEEPEST}"],
    ["compile", "x1 = " + "{" * 601 + "}" * 601, "--arity", "1"],
], ids=["translate-flat", "eliminate-flat", "compile-flat", "hf-sat-flat",
        "interpret-flat", "semantic-flat", "translate-negated",
        "eliminate-negated", "interpret-deep-names", "compile-600-deep"])
def test_recursion_exhaustion_exits_2(capsys, omega_path, argv):
    """Input that the recursive evaluators cannot finish is an input error,
    not a traceback."""
    assert run([omega_path if a == "T" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input nested too deeply\n"


def test_interpret_rejects_deep_hf_literal(capsys, omega_path):
    assert run(["interpret", "x = x", "--topology", omega_path,
                "--env", f"x={DEEP_HF}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad hf literal: nested too deeply\n"


def literal(rank):
    """The HF literal {{...{}...}} of the given rank."""
    return "{" * (rank + 1) + "}" * (rank + 1)


@pytest.mark.parametrize("rank", [MAX_NAME_DEPTH, MAX_NAME_DEPTH + 1, 300])
@pytest.mark.parametrize("argv", [
    ["interpret", "x = x", "--env", "x=L"],
    ["interpret", "x = L", "--env", "x=L"],
    ["interpret", "x = L", "--env", "x={}"],
    ["translate", "x = x", "--mode", "semantic", "--env", "x=L"],
    ["translate", "x = L", "--mode", "semantic", "--env", "x=L"],
], ids=["interpret-env", "interpret-formula", "interpret-formula-only",
        "translate-env", "translate-formula"])
def test_hf_literals_that_become_names_are_capped(capsys, omega_path, argv,
                                                  rank):
    argv = [a.replace("L", literal(rank)) for a in argv]
    code = run(argv + ["--topology", omega_path])
    captured = capsys.readouterr()
    if rank <= MAX_NAME_DEPTH:
        assert code == 0 and captured.err == ""
        return
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: bad hf literal: nested deeper than "
                            f"{MAX_NAME_DEPTH} levels\n")


@pytest.mark.parametrize("argv", [
    ["interpret", "x = x", "--depth", "-1", "--topology", "T"],
    ["witness-collection", "--depth", "-1", "--topology", "T",
     "--a", "()", "--r", "()", "--p", "{0}"],
    ["powerset-name", "--depth", "-1", "--topology", "T", "--name", "()"],
    ["translate", "x = x", "--mode", "semantic", "--depth", "-1",
     "--topology", "T"],
    ["check-elementary", "--source", "{{}}", "--target", "{{}}",
     "--map", "{}=>{}", "--depth", "-1"],
    ["check-regular", "{{}}", "--level", "regular", "--budget", "-1"],
    ["prove", "x = x", "--budget", "-1"],
    ["l-stage", "1", "1", "--max-size", "-1"],
], ids=lambda argv: argv[0])
def test_negative_counts_exit_2(capsys, omega_path, argv):
    argv = [omega_path if a == "T" else a for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a natural number: '-1'" in captured.err


def test_unreadable_topology_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.top"
    path.write_bytes(b"carrier: \xe9\n")
    for argv in (["frame"], ["interpret", "x = x"]):
        assert run(argv + ["--topology", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read topology file: ")


@pytest.mark.parametrize("text, message", [
    ("carrier: a b\norder: a<b\n", "bad order pair 'a<b'"),
    ("carrier: a\norder: a<=z\n", "order pair (a,z) off the carrier"),
    ("order: a<=a\ncover: a <| {a}\n", "missing carrier line"),
], ids=["no-leq", "off-carrier", "no-carrier"])
def test_malformed_topology_file_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "malformed.top"
    path.write_text(text)
    for command in ("frame", "topology-validate"):
        assert run([command, "--topology", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad topology file: {message}\n"


@pytest.mark.parametrize("argv, target", [
    (["classify", "x = x"], (hierarchy, "classify")),
    (["powerset-name", "--topology", "T", "--name", "()"],
     (names, "powerset_name")),
], ids=["classify", "powerset-name"])
def test_undeclared_library_errors_propagate(monkeypatch, omega_path, argv,
                                             target):
    """A ValueError a command does not declare as bad input is a bug: run
    lets it through rather than reporting exit 2."""
    def broken(*args, **kwargs):
        raise ValueError("library bug")

    monkeypatch.setattr(*target, broken)
    with pytest.raises(ValueError, match="library bug"):
        run([omega_path if a == "T" else a for a in argv])


NAME_OPTIONS = {
    "--a": ["witness-collection", "--r", "()", "--p", "{0}"],
    "--r": ["witness-collection", "--a", "()", "--p", "{0}"],
    "--name": ["powerset-name"],
}


@pytest.mark.parametrize("name", BAD_NAMES)
@pytest.mark.parametrize("option", NAME_OPTIONS)
def test_name_options_reject_bad_names(capsys, omega_path, option, name):
    assert run(NAME_OPTIONS[option]
               + ["--topology", omega_path, option, name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad name:")
    assert captured.err.count("\n") == 1


def test_names_at_the_depth_limit_are_evaluated(capsys, omega_path):
    deep = chain(MAX_NAME_DEPTH)
    assert run(["interpret", "x = y & z in x", "--topology", omega_path,
                "--env", f"x={deep}", "--env", f"y={deep}",
                "--env", f"z={chain(MAX_NAME_DEPTH - 1)}"]) == 0
    assert out_of(capsys) == "{0}\n"
    assert run(["witness-collection", "--topology", omega_path,
                "--a", deep, "--r", deep, "--p", "{}"]) == 0
    assert out_of(capsys) == "()\n"
    assert run(["powerset-name", "--topology", omega_path,
                "--name", deep]) == 0
    assert out_of(capsys) == f"({deep}->{{0}},()->{{0}})\n"


def test_witness_collection(capsys, omega_path):
    assert run(["witness-collection", "--topology", omega_path,
                "--depth", "2",
                "--a", "(()->{0})",
                "--r", "(((()->{0})->{0})->{0})",
                "--p", "{0}"]) == 0
    text = out_of(capsys)
    assert text.startswith("(") and text.endswith(")\n")
    # p fails the precondition when the relation is empty
    assert run(["witness-collection", "--topology", omega_path,
                "--depth", "1", "--a", "(()->{0})", "--r", "()",
                "--p", "{0}"]) == 2
    capsys.readouterr()
    # p must be a frame element of the topology
    assert run(["witness-collection", "--topology", omega_path,
                "--a", "(()->{0})", "--r", "()", "--p", "{1}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a frame element" in captured.err
    assert captured.err.count("\n") == 1


def test_powerset_name(capsys, omega_path):
    assert run(["powerset-name", "--topology", omega_path, "--depth", "1",
                "--name", "()"]) == 0
    assert out_of(capsys) == "(()->{0})\n"
    assert run(["powerset-name", "--topology", omega_path, "--depth", "1",
                "--name", "(busted"]) == 2


def test_translate(capsys, omega_path):
    assert run(["translate", "x = x | y = y"]) == 0
    assert out_of(capsys) == "~(~(~(~(x = x)) | ~(~(y = y))))\n"
    assert run(["translate", "x = x", "--mode", "semantic",
                "--topology", omega_path, "--env", "x={}"]) == 0
    assert out_of(capsys) == "true\n"
    assert run(["translate", "x = {{}}", "--mode", "semantic",
                "--topology", omega_path, "--env", "x={}"]) == 1
    assert out_of(capsys) == "false\n"
    assert run(["translate", "x = x", "--mode", "semantic"]) == 2


def test_prove(capsys):
    assert run(["prove", "x = x -> x = x"]) == 0
    assert "=>" in out_of(capsys)
    assert run(["prove", "x = x | ~(x = x)"]) == 1
    assert out_of(capsys) == "not provable\n"
    assert run(["prove", "x = x | ~(x = x)", "--logic", "classical"]) == 0
    capsys.readouterr()
    assert run(["prove", "x = x | ~(x = x)", "--logic", "classical",
                "--budget", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget exceeded: nodes limit reached after 1 "
                            "sequents expanded\n")
    assert run(["prove", "y = y", "--left", "x = x & y = y"]) == 0


def test_eliminate_classes(capsys):
    assert run(["eliminate-classes", "x in M -> x in a", "--axiom",
                "all v. (v in M -> v in a) & (v in a -> v in M)"]) == 0
    text = out_of(capsys)
    assert "goal: x in a -> x in a" in text
    assert run(["eliminate-classes", "x in M", "--axiom",
                "all v. (v in M -> v in N) & (v in N -> v in M)"]) == 2


def test_usage_errors():
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["classify"]) == 2


FUZZ_TOKENS = ["{}", "{", "}", "(", ")", "()", "{0}", "{a}", "=", " = ",
               " in ", "in", "~", "->", "&", "|", "x", "y", "x1", "M", "ex x.",
               "all x.", ",", "=>", "|-", " ", "0", "1", "-1"]

# Whole formulas, so that a search can start and trip its budget.
FUZZ_FORMULAS = ["x = x", "x = x | ~(x = x)", "all x. ex y. x in y"]

# Each subcommand's argv after its name: "T" is drawn text, "F" drawn text
# or a whole formula, "N" a drawn count and "TOP" a drawn topology file.
FUZZ_ARGV = {
    "parse": ["T"],
    "classify": ["T", "--extra", "T"],
    "hierarchy": ["T", "--side", "sigma", "--level", "N"],
    "compile": ["T", "--arity", "N"],
    "hf-eval": ["T", "T", "T"],
    "hf-sat": ["T", "--universe", "T", "--env", "T"],
    "lfp": ["--rule", "T", "--rule", "T", "--stages"],
    "l-stage": ["N", "N", "--max-size", "N"],
    "hadd": ["N", "N"],
    "check-regular": ["T", "--level", "bcst", "--budget", "N"],
    "check-elementary": ["--source", "T", "--target", "T", "--map", "T",
                         "--depth", "N"],
    "topology-validate": ["--topology", "TOP"],
    "frame": ["--topology", "TOP"],
    "interpret": ["T", "--topology", "TOP", "--depth", "N", "--env", "T"],
    "witness-collection": ["--topology", "TOP", "--depth", "N", "--a", "T",
                           "--r", "T", "--p", "T"],
    "powerset-name": ["--topology", "TOP", "--depth", "N", "--name", "T"],
    "translate": ["T", "--mode", "semantic", "--topology", "TOP",
                  "--depth", "N", "--env", "T"],
    "prove": ["F", "--left", "F", "--budget", "N"],
    "eliminate-classes": ["T", "--axiom", "T"],
}


@pytest.fixture(scope="module")
def fuzz_topologies(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "omega.top").write_text(OMEGA_TOP)
    (d / "chain.top").write_text(CHAIN_TOP)
    return [str(d / "omega.top"), str(d / "chain.top"),
            str(d / "missing.top")]


@pytest.mark.parametrize("command", FUZZ_ARGV)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_exit_code_contract(fuzz_topologies, command, data):
    """On any input: exit 0, 1, 2 or 3 and no exception; an input error
    or a tripped budget writes nothing to stdout; an answer writes nothing
    to stderr, and a negative answer states its verdict; a tripped budget
    writes one stderr line."""
    text = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=6).map("".join)
    draw = {"T": text, "F": st.one_of(text, st.sampled_from(FUZZ_FORMULAS)),
            "N": st.sampled_from(["-1", "0", "1", "x"]),
            "TOP": st.sampled_from(fuzz_topologies)}
    argv = [command] + [data.draw(draw[a]) if a in draw else a
                        for a in FUZZ_ARGV[command]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out.getvalue() == ""
    if code == 3:
        assert err.getvalue().startswith("budget exceeded: ")
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")
    if code in (0, 1):
        assert err.getvalue() == ""
    if code == 1:
        assert out.getvalue().strip()


def _limit_address_space(limit=400_000_000):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _compile_under_limit(text):
    """czfkit compile of text at arity 1 in a subprocess under a 400 MB
    address-space limit."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(czfkit.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "czfkit.cli", "compile", text, "--arity", "1"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_limit_address_space)


def test_out_of_memory_exits_3():
    """Running out of memory is a tripped budget, not a negative answer.
    The 22-deep literal's term renders to about 160 MB of text; under a
    400 MB address-space limit the render fails, and nothing is printed.
    Never run this input without the limit."""
    done = _compile_under_limit("x1 = " + "{" * 22 + "}" * 22)
    assert (done.returncode, done.stdout, done.stderr) \
        == (3, "", "budget exceeded: out of memory\n")


def test_term_too_large_to_render_exits_3():
    """The 26-rank literal's term has 2^30 + 1 tree nodes, past
    godel.MAX_RENDER_SIZE, so compile stops before rendering.  The
    address-space limit stays, so that a missing bound fails the test
    rather than taking the machine's memory."""
    done = _compile_under_limit("x1 = " + "{" * 27 + "}" * 27)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("budget exceeded: term of 1073741825 ")
    assert done.stderr.count("\n") == 1
