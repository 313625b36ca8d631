"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

import signal
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _inputs(name, seed, workdir):
    workdir.mkdir()
    workload = workloads.build(name, seed, workdir)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    ops = [[Path(t).name if str(workdir) in t else t for t in op]
           for op in workload.ops]
    return files, ops


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic(name, tmp_path):
    first = _inputs(name, 7, tmp_path / "a")
    assert first == _inputs(name, 7, tmp_path / "b")
    assert first[0] != _inputs(name, 8, tmp_path / "c")[0]


def test_generated_modules_parse_with_the_intended_shape(tmp_path):
    from bicoh.modfile import load_module

    workloads.build("gb_large", 3, tmp_path)
    M = load_module(tmp_path / "gb_large.mod")
    assert (M.ring.m, M.ring.n) == workloads.GB_LARGE_RING
    assert sorted(tuple(r) for r in M.rels) == sorted(
        workloads.GB_LARGE_PATTERN)
    assert all(len(entry.terms) == len(workloads.monomials(3, 2, *bd))
               for entry, bd in zip(M.matrix[0], M.rels))


def test_block_change_is_invertible_and_keeps_blocks():
    import random

    images = workloads.block_change(random.Random(5), 2, 2)
    for var, image in enumerate(images):
        block = slice(0, 2) if var < 2 else slice(2, 4)
        assert all(sum(e[block]) == 1 and sum(e) == 1 for e in image)


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.open("outer")       # 0.0
    tracer.open("inner")       # 1.0
    tracer.close()             # 3.0: inner lasted 2
    tracer.open("inner")       # 4.0
    tracer.close()             # 4.5: inner lasted 0.5
    tracer.close()             # 10.0: outer lasted 10
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["inner"].self_s == pytest.approx(2.5)
    assert tracer.stats["outer"].self_s == pytest.approx(7.5)
    assert tracer.stats["outer"].total_s == pytest.approx(10.0)


def test_tracer_counts_calls_through_other_bindings():
    import bicoh.cli  # noqa: F401  (loads every layer)
    from bicoh import linalg, resolution
    from bicoh.fixtures import standard_ring
    from bicoh.resolution import quotient_by_polys

    x1, x2, y1, y2 = standard_ring().gens()
    M = quotient_by_polys(standard_ring(), [x1 * y2 + x2 * y1])
    original = linalg.rank_of_array
    tracer = Tracer()
    tracer.install()
    try:
        assert resolution.rank_of_array is not original
        resolution.rank_of_array(np.eye(3, dtype=np.int64), 32003)
        before = resolution.hilbert_dim.cache_info()
        resolution.hilbert_dim(M, (3, 2))   # miss: one more rank call
        resolution.hilbert_dim(M, (3, 2))   # hit: no call
        after = resolution.hilbert_dim.cache_info()
    finally:
        tracer.uninstall()
    assert linalg.rank_of_array is original
    assert resolution.rank_of_array is original
    assert tracer.stats["linalg.rank_of_array"].calls == 2
    assert tracer.stats["resolution.hilbert_dim"].calls == 1
    assert tracer.stats["resolution.hilbert_dim"].hits == 1
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
    assert tracer.counters["calls_le64"] == 1


def test_tracer_patches_the_cli_suite_table():
    import bicoh.cli
    from bicoh import checks

    tracer = Tracer()
    tracer.install()
    try:
        assert bicoh.cli._SUITES["euler"] is not checks.check_euler.__wrapped__
        assert bicoh.cli._SUITES["euler"] is checks.check_euler
    finally:
        tracer.uninstall()
    assert bicoh.cli._SUITES["euler"] is checks.check_euler


def test_csv_comparator_catches_one_wrong_cell(tmp_path):
    rows = ["a,b,dim"] + [f"{a},{b},{a * b % 3}"
                          for a in range(-2, 3) for b in range(-2, 3)]
    good = tmp_path / "good.csv"
    good.write_text("\n".join(rows) + "\n")
    rows[7] = rows[7].rsplit(",", 1)[0] + ",9"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    left, right = workloads.read_csv(good), workloads.read_csv(bad)
    assert workloads.compare_tables(left, left) == []
    a, b, _ = rows[7].split(",")
    assert workloads.compare_tables(left, right) == [
        ((int(a), int(b)), left[(int(a), int(b))], 9)]


def test_referee_flags_a_value_that_differs_from_the_reference(tmp_path):
    workload = workloads.build("ext_window", 1, tmp_path)
    good = ["[PASS] gencm: 729 comparisons\n"]
    assert workload.check(good, {"comparisons": 729}) == {}
    failures = workload.check(["[PASS] gencm: 728 comparisons\n"],
                              {"comparisons": 729})
    assert list(failures) == [0]


class _FakeCli:
    def __init__(self, main):
        self.main = main


def test_an_op_over_the_time_limit_is_stopped_and_failed(monkeypatch):
    def spin(argv):
        while True:
            pass

    monkeypatch.setattr(worker, "OP_LIMIT_S", 0.05)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        stdout, reason = worker.run_op(_FakeCli(spin), [])
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert stdout is None and "per-op limit" in reason


def test_failed_ops_carry_their_reason():
    def fail(argv):
        print("partial output")
        return 1

    def boom(argv):
        raise ZeroDivisionError("inverse of 0")

    assert worker.run_op(_FakeCli(fail), [])[1].startswith("exit code 1")
    assert worker.run_op(_FakeCli(boom), [])[1] == (
        "ZeroDivisionError: inverse of 0")
    assert worker.run_op(_FakeCli(lambda argv: print("ok") or 0), []) == (
        "ok\n", None)
