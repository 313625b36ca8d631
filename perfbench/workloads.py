"""Seeded inputs, CLI operations and referees of the benchmark workloads.

Inputs are generated here from the seed alone, without importing bicoh:
bicoh receives only the `.mod` files written by `build`.  Every input is
generic for its shape, so its tables, Betti ranks and (dim, depth) do not
depend on the seed; `reference.json` holds them and any difference counts
as a failed operation (the invariance referee).

An operation is one argv for `bicoh.cli.main`.  A workload is the list of
operations plus `check`, which turns their captured stdout (and the CSV
files they wrote) into one failure reason per failed operation.
"""

import itertools
import json
import random
import re
from math import comb
from pathlib import Path

P = 32003
REFERENCE = Path(__file__).resolve().with_name("reference.json")

# (2,2) quotients of the euler workload: the bidegrees of their dense
# relations.  Fixed patterns, unlike fixtures.random_quotients, whose cost
# swings by an order of magnitude from seed to seed.
EULER_PATTERNS = (
    ((2, 1), (2, 1), (2, 1)),
    ((1, 1), (1, 1)),
    ((1, 1), (1, 2), (2, 1)),
    ((2, 1), (1, 2)),
    ((1, 0), (0, 1)),
)
EULER_WINDOW = "-5:5,-5:5"

# The (3,2) rung of the scale ladder; the (3,3) rung does not finish yet.
GB_LARGE_RING = (3, 2)
GB_LARGE_PATTERN = ((1, 1), (1, 2), (2, 1))
GB_LARGE_HILBERT_WINDOW = "0:4,0:4"

# The relations of fixtures.named_fixtures and fixtures.gencm_fixture over
# F_p[x1,x2,y1,y2], as exponent tuples (x1, x2, y1, y2).
X1Y1, X1Y2, X2Y1, X2Y2 = (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)
NAMED_FIXTURES = {
    "S": (),
    "S_x1y1": (X1Y1,),
    "S_y1_y2": ((0, 0, 1, 0), (0, 0, 0, 1)),
    "S_x1y1_x1y2": (X1Y1, X1Y2),
}
GENCM_FIXTURE = (X1Y1, X1Y2, X2Y1, X2Y2)
ORACLE_WINDOW = "-5:5,-5:5"
EXT_WINDOW = "-13:13,-13:13"

NAMES = ("euler", "gb_large", "oracle", "ext_window")


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: coefficient mod P}


def monomials(m, n, a, b):
    """Exponent tuples of bidegree (a, b) in m x- and n y-variables."""
    def block(k, deg):
        return [e for e in itertools.product(range(deg + 1), repeat=k)
                if sum(e) == deg]
    return [ex + ey for ex in block(m, a) for ey in block(n, b)]


def dense_poly(rng, m, n, bidegree):
    """Every monomial of the bidegree, each with a nonzero coefficient."""
    return {e: rng.randrange(1, P) for e in monomials(m, n, *bidegree)}


def poly_mul(f, g):
    out = {}
    for e, c in f.items():
        for u, d in g.items():
            key = tuple(a + b for a, b in zip(e, u))
            out[key] = (out.get(key, 0) + c * d) % P
    return {e: c for e, c in out.items() if c}


def invertible(rng, size):
    """A seeded invertible size x size matrix over F_P (size <= 2)."""
    while True:
        a = [[rng.randrange(P) for _ in range(size)] for _ in range(size)]
        det = a[0][0] if size == 1 else a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det % P:
            return a


def block_change(rng, m, n):
    """Images of the variables under a seeded invertible change of
    coordinates that maps x's among x's and y's among y's."""
    ax, ay = invertible(rng, m), invertible(rng, n)
    images = []
    for i in range(m):
        images.append({tuple(int(k == j) for k in range(m + n)): ax[j][i]
                       for j in range(m) if ax[j][i]})
    for i in range(n):
        images.append({tuple(int(k == m + j) for k in range(m + n)): ay[j][i]
                       for j in range(n) if ay[j][i]})
    return images


def substitute(exponent, images):
    """The monomial with each variable replaced by its image."""
    out = {tuple(0 for _ in exponent): 1}
    for var, power in enumerate(exponent):
        for _ in range(power):
            out = poly_mul(out, images[var])
    return out


def format_poly(f, m, n):
    names = [f"x{i + 1}" for i in range(m)] + [f"y{i + 1}" for i in range(n)]
    terms = []
    for e in sorted(f, reverse=True):
        factors = [str(f[e])]
        factors += [v if k == 1 else f"{v}^{k}"
                    for v, k in zip(names, e) if k]
        terms.append("*".join(factors))
    return " + ".join(terms)


def module_text(m, n, relations):
    """A cyclic quotient S/(relations) in the flat key-value format."""
    lines = [f"p={P}", f"m={m}", f"n={n}", "gens=(0,0)"]
    for f in relations:
        e = next(iter(f))
        a, b = sum(e[:m]), sum(e[m:])
        lines.append(f"rels=({a},{b}): {format_poly(f, m, n)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing what the CLI printed or wrote


def read_csv(path):
    """{(a, b): dim} from a table CSV written with --csv."""
    rows = Path(path).read_text(encoding="utf-8").split()
    if not rows or rows[0] != "a,b,dim":
        raise ValueError(f"{path}: missing a,b,dim header")
    table = {}
    for row in rows[1:]:
        a, b, dim = (int(t) for t in row.split(","))
        table[(a, b)] = dim
    return table


def compare_tables(left, right):
    """Cells where two tables differ, as (cell, left value, right value);
    a cell missing on one side reads as None there."""
    return [(cell, left.get(cell), right.get(cell))
            for cell in sorted(set(left) | set(right))
            if left.get(cell) != right.get(cell)]


def table_values(table):
    return ",".join(str(table[cell]) for cell in sorted(table))


def passed_comparisons(stdout, suite):
    found = re.search(rf"\[PASS\] {suite}: (\d+) comparisons", stdout)
    return int(found.group(1)) if found else None


def free_dim(m, n, a, b):
    if a < 0 or b < 0:
        return 0
    return comb(a + m - 1, m - 1) * comb(b + n - 1, n - 1)


def resolution_shifts(stdout):
    """Shift lists of F_0, F_1, .. from the output of `bicoh resolve`."""
    levels = re.findall(r"F_\d+: rank (\d+)  shifts (.*)", stdout)
    out = []
    for rank, shifts in levels:
        pairs = [[int(a), int(b)]
                 for a, b in re.findall(r"\((-?\d+),(-?\d+)\)", shifts)]
        if len(pairs) != int(rank):
            raise ValueError(f"rank {rank} but shifts {shifts!r}")
        out.append(pairs)
    return out


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Operations to run, and the referee of their outputs.

    `canonical(outputs)` returns {key: (op index, value)}: the values that
    must equal `reference.json` for every seed.  `self_check(outputs)`
    returns {op index: reason} from the referees internal to one run."""

    def __init__(self, name, ops, canonical, self_check):
        self.name = name
        self.ops = ops
        self.canonical = canonical
        self.self_check = self_check

    def check(self, outputs, reference):
        """{op index: reason} over every referee; `outputs[i]` is the stdout
        of op i, or None if it already failed."""
        failures = {}
        try:
            failures.update(self.self_check(outputs))
            found = self.canonical(outputs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            last = len(self.ops) - 1
            return {last: f"unreadable output: {type(exc).__name__}: {exc}"}
        for key, (index, value) in found.items():
            if key not in reference:
                failures.setdefault(index, f"{key}: no reference value")
            elif value != reference[key]:
                failures.setdefault(
                    index, f"{key}: {value!r} differs from the reference "
                           f"{reference[key]!r}")
        return failures


def _all_ran(outputs, indices):
    return all(outputs[i] is not None for i in indices)


def _euler(seed, workdir):
    rng = random.Random(f"euler:{seed}")
    ops = []
    for k, pattern in enumerate(EULER_PATTERNS):
        path = workdir / f"euler{k}.mod"
        path.write_text(module_text(2, 2, [dense_poly(rng, 2, 2, bd)
                                           for bd in pattern]))
        ops.append(["check", "--suite", "euler", "--module", str(path),
                    "--window", EULER_WINDOW])
        ops.append(["profile", "--module", str(path)])

    def canonical(outputs):
        found = {}
        for k in range(len(EULER_PATTERNS)):
            check, prof = 2 * k, 2 * k + 1
            if outputs[check] is not None:
                found[f"euler{k}.comparisons"] = (
                    check, passed_comparisons(outputs[check], "euler"))
            if outputs[prof] is not None:
                dims = re.search(r"dim (\d+), depth (\d+)", outputs[prof])
                found[f"euler{k}.dim_depth"] = (
                    prof, dims and [int(t) for t in dims.groups()])
        return found

    return Workload("euler", ops, canonical, lambda outputs: {})


def _gb_large(seed, workdir):
    rng = random.Random(f"gb_large:{seed}")
    m, n = GB_LARGE_RING
    path = workdir / "gb_large.mod"
    path.write_text(module_text(m, n, [dense_poly(rng, m, n, bd)
                                       for bd in GB_LARGE_PATTERN]))
    csv = workdir / "gb_large_hilbert.csv"
    ops = [["resolve", "--module", str(path)],
           ["hilbert", "--module", str(path), "--window",
            GB_LARGE_HILBERT_WINDOW, "--csv", str(csv)]]

    def canonical(outputs):
        found = {}
        if outputs[0] is not None:
            shifts = resolution_shifts(outputs[0])
            found["betti"] = (0, [len(s) for s in shifts])
            found["shifts"] = (0, shifts)
        if outputs[1] is not None:
            found["hilbert"] = (1, table_values(read_csv(csv)))
        return found

    def self_check(outputs):
        """The alternating sum of the free modules of the resolution is the
        Hilbert function, cell by cell."""
        if not _all_ran(outputs, (0, 1)):
            return {}
        shifts = resolution_shifts(outputs[0])
        hilbert = read_csv(csv)
        euler_char = {
            (a, b): sum((-1) ** i * free_dim(m, n, a - sa, b - sb)
                        for i, level in enumerate(shifts)
                        for sa, sb in level)
            for (a, b) in hilbert}
        wrong = compare_tables(euler_char, hilbert)
        if wrong:
            return {0: f"alternating sum != hilbert at {wrong[0]}"}
        return {}

    return Workload("gb_large", ops, canonical, self_check)


def _oracle(seed, workdir):
    rng = random.Random(f"oracle:{seed}")
    ops, pairs = [], []
    for name, relations in NAMED_FIXTURES.items():
        images = block_change(rng, 2, 2)
        path = workdir / f"{name}.mod"
        path.write_text(module_text(
            2, 2, [substitute(e, images) for e in relations]))
        for theory in ("P", "Q"):
            for i in range(3):
                key = f"{name}|{theory}|{i}"
                csvs = []
                for command in ("locoh", "oracle"):
                    csv = workdir / f"{name}_{theory}{i}_{command}.csv"
                    csvs.append(csv)
                    ops.append([command, "--module", str(path),
                                "--theory", theory, "-i", str(i),
                                "--window", ORACLE_WINDOW,
                                "--csv", str(csv)])
                pairs.append((key, len(ops) - 2, *csvs))

    def canonical(outputs):
        return {key: (index, table_values(read_csv(locoh)))
                for key, index, locoh, _ in pairs
                if outputs[index] is not None}

    def self_check(outputs):
        """The duality path and the limit-Koszul oracle agree cell by
        cell."""
        failures = {}
        for key, index, locoh, oracle in pairs:
            if _all_ran(outputs, (index, index + 1)):
                wrong = compare_tables(read_csv(locoh), read_csv(oracle))
                if wrong:
                    failures[index + 1] = (f"{key}: locoh != oracle at "
                                           f"{wrong[0]}")
        return failures

    return Workload("oracle", ops, canonical, self_check)


def _ext_window(seed, workdir):
    rng = random.Random(f"ext_window:{seed}")
    images = block_change(rng, 2, 2)
    path = workdir / "gencm.mod"
    path.write_text(module_text(
        2, 2, [substitute(e, images) for e in GENCM_FIXTURE]))
    ops = [["check", "--suite", "gencm", "--module", str(path),
            "--window", EXT_WINDOW]]

    def canonical(outputs):
        if outputs[0] is None:
            return {}
        return {"comparisons": (0, passed_comparisons(outputs[0], "gencm"))}

    return Workload("ext_window", ops, canonical, lambda outputs: {})


_MAKERS = {"euler": _euler, "gb_large": _gb_large, "oracle": _oracle,
           "ext_window": _ext_window}


def build(name, seed, workdir):
    """Write the workload's inputs for this seed into workdir."""
    return _MAKERS[name](seed, Path(workdir))


def reference(name):
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
