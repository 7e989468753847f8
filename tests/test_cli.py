import pytest

from czfkit.cli import run


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


def test_compile(capsys):
    assert run(["compile", "x1 = x1", "--arity", "1"]) == 0
    assert out_of(capsys) == "#1\n"
    assert run(["compile", "x1 in x1", "--arity", "1"]) == 0
    text = out_of(capsys)
    assert text.startswith("F_") and "#1" in text
    assert run(["compile", "ex y. y in x1", "--arity", "1"]) == 2


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


@pytest.mark.parametrize("name", ["(", "(()->{0}", "(()->0)", "(()->{zz})"])
def test_interpret_rejects_bad_names(capsys, omega_path, name):
    assert run(["interpret", "x = x", "--topology", omega_path,
                "--env", f"x={name}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad name:")
    assert captured.err.count("\n") == 1


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
    assert out_of(capsys) == "budget exceeded\n"
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
