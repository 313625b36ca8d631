import pytest

from bicoh.cli import main
from bicoh.errors import DegreeMismatchError, FormatError
from bicoh.modfile import load_module, save_module
from bicoh.resolution import minimal_presentation


HYPERSURFACE = """\
# S/(x1 y1)
p=32003
m=2
n=2
gens=(0,0)
rels=(1,1): x1*y1
"""

TWO_RELATIONS = """\
p=32003
m=2
n=2
gens=(0,0)
rels=(1,1): x1*y1
rels=(1,1): x1*y2
"""


@pytest.fixture
def hyper_path(tmp_path):
    path = tmp_path / "hyper.mod"
    path.write_text(HYPERSURFACE)
    return str(path)


@pytest.fixture
def two_path(tmp_path):
    path = tmp_path / "two.mod"
    path.write_text(TWO_RELATIONS)
    return str(path)


def test_load_module_basic(hyper_path):
    M = load_module(hyper_path)
    assert len(M.gens) == 1 and len(M.rels) == 1
    assert M.ring.p == 32003


def test_load_module_free(tmp_path):
    path = tmp_path / "free.mod"
    path.write_text("p=32003\nm=2\nn=2\ngens=(0,0),(1,0)\n")
    M = load_module(path)
    assert len(M.gens) == 2 and not M.rels


def test_load_module_degree_mismatch(tmp_path):
    path = tmp_path / "bad.mod"
    path.write_text("m=2\nn=2\ngens=(0,0)\nrels=(1,1): x1*x2\n")
    with pytest.raises(DegreeMismatchError):
        load_module(path)


def test_load_module_format_errors(tmp_path):
    path = tmp_path / "bad.mod"
    path.write_text("m=2\ngens=(0,0)\n")
    with pytest.raises(FormatError):
        load_module(path)  # missing n
    path.write_text("m=2\nn=2\ngens=(0,0)\nrels=(1,1): x1*y1, 0\n")
    with pytest.raises(FormatError):
        load_module(path)  # entry count != generator count
    path.write_text("m=2\nn=2\ngens=(0,0)\nfoo=1\n")
    with pytest.raises(FormatError):
        load_module(path)


def test_roundtrip_save_load(two_path, tmp_path):
    M = load_module(two_path)
    out = tmp_path / "emitted.mod"
    save_module(out, M)
    again = load_module(out)
    assert again == M


def test_roundtrip_negative_shifts_and_many_generators(tmp_path):
    path = tmp_path / "shifted.mod"
    path.write_text(
        "p=101\nm=2\nn=2\ngens=(-1,0),(1,1)\n"
        "rels=(1,1): x1^2*y1, 0\n"
        "rels=(2,1): x1^3*y1, x1\n")
    M = load_module(path)
    assert M.ring.p == 101
    assert M.gens[0] == (-1, 0)
    out = tmp_path / "again.mod"
    save_module(out, M)
    assert load_module(out) == M


def test_cli_simple_suite_passes(capsys):
    code = main(["check", "--suite", "simple", "-m", "2", "-n", "2",
                 "--window", "-6:0,0:6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "32003" in out


def test_cli_hilbert_table(hyper_path, capsys, tmp_path):
    csv = tmp_path / "table.csv"
    code = main(["hilbert", "--module", hyper_path,
                 "--window", "0:3,0:3", "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "a,b,dim"
    assert "3,3,7" in lines  # 16 monomials minus the multiples of x1*y1


def test_cli_hilbert_of_free_corner(tmp_path, capsys):
    path = tmp_path / "free.mod"
    path.write_text("p=32003\nm=2\nn=2\ngens=(0,0)\n")
    code = main(["hilbert", "--module", str(path), "--window", "0:3,0:3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "16" in out


def test_cli_malformed_polynomial_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.mod"
    path.write_text("m=2\nn=2\ngens=(0,0)\nrels=(1,1): x1*@\n")
    code = main(["hilbert", "--module", str(path), "--window", "0:1,0:1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "position" in err


def test_cli_missing_file_exit_2(capsys):
    code = main(["hilbert", "--module", "/nonexistent.mod",
                 "--window", "0:1,0:1"])
    assert code == 2


def test_cli_emit_roundtrip(two_path, tmp_path, capsys):
    out = tmp_path / "emitted.mod"
    code = main(["resolve", "--module", two_path, "--emit", str(out)])
    assert code == 0
    emitted = load_module(out)
    assert emitted == minimal_presentation(load_module(two_path))


def test_cli_precondition_violation_exit_2(two_path, capsys):
    # the CM suite must reject the non-CM module with an input error
    code = main(["check", "--suite", "cm", "--module", two_path,
                 "--window", "-2:2,-2:2"])
    assert code == 2
    # a composite modulus and a ring without variables are input errors too
    for ring_flags in (["-m", "2", "-n", "2", "-p", "4"],
                       ["-m", "0", "-n", "0"]):
        code = main(["check", "--suite", "simple", *ring_flags,
                     "--window", "0:0,0:0"])
        assert code == 2


def test_cli_counterexample_exit_1(two_path, capsys, monkeypatch):
    # a failing suite exits 1 and prints the first counterexample
    import bicoh.cli as cli
    from bicoh.checks import CellFailure, CheckReport

    def broken(M, window):
        return CheckReport(suite="euler", window=window, passed=False,
                           checked=1,
                           failure=CellFailure((0, 0), 1, 2, "synthetic"))

    monkeypatch.setitem(cli._SUITES, "euler", broken)
    code = main(["check", "--suite", "euler", "--module", two_path,
                 "--window", "0:0,0:0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample" in out and "lhs=1" in out


def test_cli_corner_suite_passes(two_path, capsys):
    code = main(["check", "--suite", "corner", "--module", two_path,
                 "--window", "-3:3,-3:3"])
    assert code == 0


def test_cli_free_suite_with_shifts(capsys):
    code = main(["check", "--suite", "free", "-m", "2", "-n", "2",
                 "--shifts", "0,0;1,0;2,1", "--window", "-4:4,-4:4"])
    assert code == 0


def test_cli_locoh_and_oracle_agree(hyper_path, capsys):
    # -i -1: H^i vanishes below 0 as above the variable count
    for index in ("2", "-1"):
        assert main(["locoh", "--module", hyper_path, "--theory", "Q",
                     "-i", index, "--window", "-2:0,-3:-1"]) == 0
        locoh_out = capsys.readouterr().out
        assert main(["oracle", "--module", hyper_path, "--theory", "Q",
                     "-i", index, "--window", "-2:0,-3:-1"]) == 0
        oracle_out = capsys.readouterr().out
        assert locoh_out.splitlines()[-3:] == oracle_out.splitlines()[-3:]


def test_cli_tame_and_regscan(hyper_path, capsys):
    assert main(["tame", "--module", hyper_path, "--k", "3",
                 "--jwindow", "-8:8"]) == 0
    assert "eventually-zero" in capsys.readouterr().out
    assert main(["regscan", "--module", hyper_path,
                 "--jwindow", "-3:5"]) == 0
    assert "upper bound" in capsys.readouterr().out


def test_cli_profile(hyper_path, capsys):
    assert main(["profile", "--module", hyper_path,
                 "--window", "-4:4,-4:4"]) == 0
    out = capsys.readouterr().out
    assert "dim 3" in out and "CM" in out and "cd<=2" in out
