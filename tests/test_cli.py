import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicoh import cli
from bicoh.cli import main
from bicoh.errors import DegreeMismatchError, FormatError, InvariantError
from bicoh.fixtures import gencm_fixture, named_fixtures, random_quotients
from bicoh.groebner import FreeModule, ModuleElement, buchberger
from bicoh.linalg import DEFAULT_PRIME
from bicoh.modfile import load_module, save_module
from bicoh.poly import Bidegree, Polynomial, RingSpec, monomial_basis
from bicoh.resolution import (
    Presentation,
    hilbert_table,
    minimal_presentation,
    resolve,
)
from bicoh.tables import Window
from test_groebner import _rows_presentation
from test_resolution import _dense_quotient


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


def test_load_module_without_p_takes_the_default_prime(tmp_path):
    path = tmp_path / "free.mod"
    path.write_text("m=2\nn=2\ngens=(0,0)\n")
    assert load_module(path).ring.p == DEFAULT_PRIME


def test_load_module_degree_mismatch(tmp_path):
    # an entry of the wrong bidegree, and one that mixes bidegrees
    path = tmp_path / "bad.mod"
    for entry in ("x1*x2", "x1*y1 + x1"):
        path.write_text(f"m=2\nn=2\ngens=(0,0)\nrels=(1,1): {entry}\n")
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


@pytest.mark.parametrize("text, line", [
    # a second m= would resolve the module over F_p[x1,y1,y2]
    ("m=2\nn=2\nm=1\ngens=(0,0)\nrels=(1,1): x1*y1\n", 3),
    ("m=2\nn=2\ngens=(0,0)\ngens=(0,0),(1,0)\nrels=(1,1): x1*y1\n", 4),
    ("p=3\nm=2\nn=2\np=5\ngens=(0,0)\n", 4),
    ("m=2\nn=2\ngens=(0,0)\nn=2\n", 4),
], ids=["m", "gens", "p", "n"])
def test_repeated_key_is_malformed(tmp_path, capsys, text, line):
    path = tmp_path / "repeated.mod"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"line {line}: repeated key"):
        load_module(path)
    assert main(["resolve", "--module", str(path)]) == 2
    assert f"line {line}" in capsys.readouterr().err


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


def test_roundtrip_of_a_relation_on_no_generators(tmp_path):
    # the zero module with a relation: the entry list after the colon is
    # empty, and reads back as no entries
    M = Presentation(RingSpec(2, 2), (), ((1, 1),),
                     (ModuleElement(FreeModule(RingSpec(2, 2), ()), ()),))
    out = tmp_path / "zero.mod"
    save_module(out, M)
    assert out.read_text().endswith("rels=(1,1): \n")
    assert load_module(out) == M


@settings(max_examples=60)
@given(st.data())
def test_roundtrip_of_random_presentations(data):
    # 0-3 generators, negative shifts included, and 0-3 relations with
    # random entries (zero where the bidegree leaves no monomial)
    p = data.draw(st.sampled_from([2, 3, 32003]))
    m, n = data.draw(st.sampled_from([(2, 2), (1, 2), (2, 0)]))
    ring = RingSpec(m, n, p)

    def shift(low, high):
        return Bidegree(data.draw(st.integers(low, high)),
                        data.draw(st.integers(low, high)))

    gens = [shift(-2, 1) for _ in range(data.draw(st.integers(0, 3)))]
    rels = [shift(-2, 3) for _ in range(data.draw(st.integers(0, 3)))]
    target = FreeModule(ring, gens)
    M = Presentation(ring, gens, rels, [ModuleElement(target, tuple(
        Polynomial.from_dict(ring, {
            mono: data.draw(st.integers(0, p - 1))
            for mono in monomial_basis(ring, r - g)}) for g in gens))
        for r in rels])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.mod"
        save_module(path, M)
        assert load_module(path) == M


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


def test_cli_module_file_not_utf8_exit_2(tmp_path, capsys):
    # a UTF-16 file is malformed input, exit 2 with one error line, not a
    # traceback (exit 1 means a counterexample)
    path = tmp_path / "utf16.mod"
    path.write_bytes(b"\xff\xfe" + HYPERSURFACE.encode("utf-16-le"))
    with pytest.raises(FormatError, match="not UTF-8"):
        load_module(path)
    assert main(["profile", "--module", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_cli_huge_modulus_exit_2_at_once(tmp_path, capsys):
    # 2^61 - 1 is refused by its size before any trial division
    path = tmp_path / "huge.mod"
    path.write_text(f"p={2**61 - 1}\nm=1\nn=1\ngens=(0,0)\n")
    start = time.perf_counter()
    assert main(["profile", "--module", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert "too large" in capsys.readouterr().err


def test_cli_emit_roundtrip(two_path, tmp_path, capsys):
    out = tmp_path / "emitted.mod"
    code = main(["resolve", "--module", two_path, "--emit", str(out)])
    assert code == 0
    emitted = load_module(out)
    assert emitted == minimal_presentation(load_module(two_path))


def test_cli_emit_drops_a_redundant_relation(tmp_path, capsys):
    # x1^2*y1 = x1 * (x1*y1): the emitted presentation is the first map of
    # the minimal resolution, with one relation
    path, out = tmp_path / "redundant.mod", tmp_path / "emitted.mod"
    path.write_text("m=2\nn=2\ngens=(0,0)\n"
                    "rels=(1,1): x1*y1\nrels=(2,1): x1^2*y1\n")
    assert main(["resolve", "--module", str(path), "--emit", str(out)]) == 0
    assert "F_1: rank 1" in capsys.readouterr().out
    emitted = load_module(out)
    assert (len(emitted.gens), len(emitted.rels)) == (1, 1)
    assert emitted == minimal_presentation(load_module(path))


def test_cli_emit_writes_minimal_basis_elements(tmp_path, capsys):
    # dense relations shaped like the gb_large workload's, plus x1 times
    # the first: the file holds three elements of the reduced Groebner
    # basis of the relations, the redundant relation dropped, and presents
    # the same module
    M = _dense_quotient((3, 2), ((1, 1), (1, 2), (2, 1)))
    f = [col.coords[0] for col in M.columns]
    redundant = _rows_presentation(M.ring, M.gens, M.rels + ((2, 1),),
                                   ((*f, f[0] * M.ring.gens()[0]),))
    path, out = tmp_path / "dense.mod", tmp_path / "emitted.mod"
    save_module(path, redundant)
    assert main(["resolve", "--module", str(path), "--emit", str(out)]) == 0
    emitted = load_module(out)
    basis = buchberger(M.columns, module=M.target)
    assert len(emitted.rels) == 3
    assert {str(c) for c in emitted.columns} <= \
        {str(g) for g in basis.elements}
    window = Window(0, 4, 0, 4)
    assert hilbert_table(emitted, window) == hilbert_table(M, window)
    res, again = resolve(M), resolve(emitted)
    assert [len(again.shifts(i)) for i in range(again.length + 1)] == \
        [len(res.shifts(i)) for i in range(res.length + 1)] == [1, 3, 4, 2]
    assert [again.shifts(i) for i in range(again.length + 1)] == \
        [res.shifts(i) for i in range(res.length + 1)]


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


def test_cli_scans_over_a_ring_without_x_variables_exit_2(tmp_path, capsys):
    # the x-strands of a module over F_p[y] would live over a ring without
    # variables: an input error with one error line, not a traceback
    path = tmp_path / "y.mod"
    path.write_text("m=0\nn=2\ngens=(0,0)\nrels=(0,1): y1\n")
    for argv in (["regscan", "--jwindow", "-2:2"],
                 ["tame", "--k", "1", "--jwindow", "-2:2"],
                 ["check", "--suite", "structure", "--window", "-1:1,-1:1"]):
        code = main([*argv, "--module", str(path)])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, err


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


def test_cli_broken_invariant_exit_4(two_path, capsys, monkeypatch):
    # an internal fault is neither a failed check (1) nor bad input (2)
    import bicoh.cli as cli

    def broken(M):
        raise InvariantError("resolution did not terminate")

    monkeypatch.setattr(cli, "resolve", broken)
    code = main(["resolve", "--module", two_path])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: resolution did not terminate")
    assert "Traceback" not in err


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


def test_cli_reuses_its_parser(hyper_path, capsys, monkeypatch):
    # one process, one parser: an oracle run, a call that argparse rejects
    # (no --theory), an R+ table, the oracle's R+ table and a call that
    # argparse rejects (an unknown theory) give the exit codes and output
    # of separate runs, each with a parser of its own
    window = ["--window", "-2:0,-3:-1"]
    calls = [
        ["oracle", "--module", hyper_path, "--theory", "Q", "-i", "2"],
        ["oracle", "--module", hyper_path, "-i", "2"],
        ["locoh", "--module", hyper_path, "--theory", "R+", "-i", "3"],
        ["oracle", "--module", hyper_path, "--theory", "R+", "-i", "3"],
        ["oracle", "--module", hyper_path, "--theory", "X", "-i", "2"],
    ]

    def run(argv):
        try:
            code = main(argv + window)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    separate = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        separate.append(run(argv))
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    assert [run(argv) for argv in calls] == separate
    assert len(built) == 1
    assert [code for code, _, _ in separate] == [0, 2, 0, 0, 2]
    # the oracle's R+ table reads as the duality path's
    assert separate[3][1].splitlines()[1:] == separate[2][1].splitlines()[1:]
    assert any(line.split()[1:] != ["0"] * 3
               for line in separate[3][1].splitlines()[3:])
    assert "invalid choice: 'X'" in separate[4][2]


def test_cli_oracle_runs_without_numpy(tmp_path):
    # the F_p layer is pure Python: a whole oracle run never imports numpy
    path = tmp_path / "two.mod"
    save_module(str(path), named_fixtures()["S/(x1y1,x1y2)"])
    script = ("import sys; from bicoh.cli import main; "
              f"code = main(['oracle', '--module', {str(path)!r}, "
              "'--theory', 'Q', '-i', '2', '--window', '-2:0,-2:0']); "
              "print(code, 'numpy' in sys.modules)")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == "0 False"


def test_cli_tame_and_regscan(hyper_path, capsys):
    assert main(["tame", "--module", hyper_path, "--k", "3",
                 "--jwindow", "-8:8"]) == 0
    assert "eventually-zero" in capsys.readouterr().out
    assert main(["regscan", "--module", hyper_path,
                 "--jwindow", "-3:5"]) == 0
    assert "upper bound" in capsys.readouterr().out


def test_cli_profile(hyper_path, capsys):
    assert main(["profile", "--module", hyper_path]) == 0
    out = capsys.readouterr().out
    assert "dim 3" in out and "CM" in out and out.endswith(", cd=2\n")


def test_cli_profile_without_y_variables(tmp_path, capsys):
    # Q = (0) over a ring without y-variables: H^0_Q(M) = M, so cd is 0
    path = tmp_path / "x.mod"
    path.write_text("m=2\nn=0\ngens=(0,0)\nrels=(1,0): x1\n")
    assert main(["profile", "--module", str(path)]) == 0
    assert capsys.readouterr().out.endswith(", cd=0\n")


def test_cli_profile_rejects_a_window(hyper_path, capsys):
    # cd is exact, so profile takes no window: the flag is unknown, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--module", hyper_path, "--window", "-4:4,-4:4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --window" in capsys.readouterr().err


# a unit entry (generator 1 is x1 times generator 0) and a relation that
# is x1 times another
UNITS_AND_REDUNDANT = """\
p=32003
m=2
n=2
gens=(0,0),(1,0),(0,1)
rels=(1,0): x1, -1, 0
rels=(1,1): x1*y1, y1, x1
rels=(2,1): x1^2*y1, x1*y1, x1^2
rels=(1,2): x2*y2^2, y1*y2, 0
"""

DIGEST_WINDOW = "-3:3,-3:3"
DIGEST_JWINDOW = "-3:3"
MODULE_SUITES = ("free", "euler", "cm", "corner", "gencm", "dimle1",
                 "structure", "fiveterm", "depthles")

# sha256 over every op of test_cli_output_digest: exit code, stdout and
# stderr with the module path replaced, and each --emit file
CLI_OUTPUT_SHA256 = (
    "062fff84b8013fcca4f3f1aa24623a276043dc56e1833baeebebdb36bfacf760")


def _digest_modules(tmp_path):
    """The module files of the digest: the named fixtures, gencm_fixture,
    UNITS_AND_REDUNDANT and three random quotients over F_3."""
    modules = list(named_fixtures().values()) + [gencm_fixture()]
    modules += random_quotients(RingSpec(2, 2, 3), 3, seed=2811)
    paths = []
    for t, M in enumerate(modules):
        paths.append(tmp_path / f"m{t}.mod")
        save_module(paths[-1], M)
    paths.append(tmp_path / f"m{len(modules)}.mod")
    paths[-1].write_text(UNITS_AND_REDUNDANT)
    return [str(path) for path in paths]


def _digest_ops(path, emit):
    module, window = ["--module", path], ["--window", DIGEST_WINDOW]
    yield ["hilbert", *module, *window]
    yield ["resolve", *module, "--emit", emit]
    yield ["profile", *module]
    for command in ("locoh", "oracle"):
        for theory in ("P", "Q", "R+"):
            for i in range(4):
                yield [command, *module, *window, "--theory", theory,
                       "-i", str(i)]
    for suite in MODULE_SUITES:
        yield ["check", "--suite", suite, *module, *window]
    for k in range(-1, 4):
        yield ["tame", *module, "--k", str(k), "--jwindow", DIGEST_JWINDOW]
    yield ["regscan", *module, "--jwindow", DIGEST_JWINDOW]


def _digest(paths, tmp_path, capsys):
    """sha256 over every op of _digest_ops on the module files, and the
    number of ops."""
    digest = hashlib.sha256()
    ops = 0
    for path in paths:
        emit = str(tmp_path / "emitted.mod")
        for argv in _digest_ops(path, emit):
            code = main(argv)
            out, err = capsys.readouterr()
            for part in (str(code), out, err):
                digest.update(part.replace(path, "<module>")
                              .replace(emit, "<emit>").encode())
                digest.update(b"\0")
            ops += 1
        with open(emit, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest(), ops


def test_cli_output_digest(tmp_path, capsys):
    # every subcommand on every digest module prints what it printed when
    # the digest was recorded: a refactor that keeps the numbers keeps the
    # bytes, and any change to a printed table, verdict or count shows here
    assert _digest(_digest_modules(tmp_path), tmp_path, capsys) == (
        CLI_OUTPUT_SHA256, 9 * 42)


# a CM module over F_p[x1,y1,y2] (m = 1), where check dimle1 runs its
# additivity rows, and a CM module over F_3[y1,y2] (m = 0), where it
# compares H^i_max with H^i_Q and where P, the x-strands and every suite
# built on them stop with their errors
OFF_STANDARD_MODULES = {
    "m1.mod": """\
p=32003
m=1
n=2
gens=(0,0),(0,1)
rels=(1,1): x1*y1, 0
rels=(0,2): y2^2, y1
""",
    "m0.mod": """\
p=3
m=0
n=2
gens=(0,0),(0,1)
rels=(0,2): y1^2, 0
rels=(0,2): y1*y2, y1
""",
}

# sha256 over every op of test_cli_output_digest_off_the_standard_ring,
# hashed as in test_cli_output_digest
OFF_STANDARD_SHA256 = (
    "a40604120d79ae8c8c231a428276f79e6f8880cfbad449daf8204e3a469da638")


def test_cli_output_digest_off_the_standard_ring(tmp_path, capsys):
    # the digest of test_cli_output_digest on rings other than (2, 2)
    paths = []
    for name, text in OFF_STANDARD_MODULES.items():
        paths.append(tmp_path / name)
        paths[-1].write_text(text)
    assert _digest([str(path) for path in paths], tmp_path, capsys) == (
        OFF_STANDARD_SHA256, 2 * 42)


# generators (0,0), (1,0), (0,0) and the relation e0 + e2, a unit at each
# end: the Markowitz pivot of unit pruning eliminates generator 2, whose
# row has fewer entries, so F_0 prints (0,0) (1,0); a pivot taken by
# generator order would keep generator 2 and print (1,0) (0,0)
PIVOT_MODULE = """\
p=32003
m=2
n=2
gens=(0,0),(1,0),(0,0)
rels=(0,0): 1, 0, 1
rels=(1,1): x1*y1, y1, 0
rels=(1,2): x1*y2^2, y1*y2, 0
"""

# sha256 over every op of test_cli_output_digest_pins_the_pruning_pivot,
# hashed as in test_cli_output_digest
PIVOT_SHA256 = (
    "6e29c052197280e062ea647c621419bfd4cfd1ee2bd3774edaf0f3049658c11d")


def test_cli_output_digest_pins_the_pruning_pivot(tmp_path, capsys):
    # which generator of equal shift survives shows in the printed order
    path = tmp_path / "pivot.mod"
    path.write_text(PIVOT_MODULE)
    assert _digest([str(path)], tmp_path, capsys) == (PIVOT_SHA256, 42)
