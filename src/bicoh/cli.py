"""Command line front end.

Exit codes: 0 success / all checks pass, 1 a check found a counterexample
(printed with both sides), 2 malformed input or an unmet precondition,
4 an internal invariant broke (InvariantError: a fault in bicoh).
"""

import argparse
import sys

from . import checks
from .cohomology import (
    THEORIES,
    cohomological_dimension,
    local_coh_table,
    oracle_table,
)
from .errors import BicohError, FormatError, InvariantError
from .groebner import FreeModule
from .linalg import DEFAULT_PRIME
from .modfile import load_module, save_module
from .poly import Bidegree, RingSpec
from .resolution import (
    hilbert_table,
    minimal_presentation,
    profile,
    resolve,
)
from .tables import Window, write_csv
from .tame import reg_scan, tame_scan

_SUITES = {
    "simple": checks.check_lemma_simple,
    "free": checks.check_free,
    "euler": checks.check_euler,
    "cm": checks.check_cm_degeneration,
    "corner": checks.check_corner,
    "gencm": checks.check_gencm_les,
    "dimle1": checks.check_dim_r0_le1,
    "structure": checks.check_structure1,
    "fiveterm": checks.check_five_term,
    "depthles": checks.check_depth_sminus1_les,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bicoh",
        description="Exact local cohomology of bigraded modules over F_p "
                    "and degreewise verification of the duality identities "
                    "relating the theories P = (x), Q = (y) and the "
                    "maximal ideal.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_module(p, required=True):
        p.add_argument("--module", required=required,
                       help="module file (flat key-value format)")

    def add_window(p):
        p.add_argument("--window", required=True,
                       help="bidegree window aMin:aMax,bMin:bMax")

    def add_csv(p):
        p.add_argument("--csv", help="also write the table as a,b,dim rows")

    p = sub.add_parser("hilbert", help="exact graded dimensions")
    add_module(p), add_window(p), add_csv(p)

    p = sub.add_parser("resolve", help="minimal free resolution")
    add_module(p)
    p.add_argument("--emit", help="write the minimal presentation here")

    p = sub.add_parser("profile", help="dim, depth, pd, CM flags, cd(Q)")
    add_module(p)

    p = sub.add_parser("locoh", help="local cohomology table")
    add_module(p), add_window(p), add_csv(p)
    p.add_argument("--theory", required=True, choices=THEORIES)
    p.add_argument("-i", type=int, required=True, dest="index")

    p = sub.add_parser("oracle", help="limit-Koszul oracle table")
    add_module(p), add_window(p), add_csv(p)
    p.add_argument("--theory", required=True, choices=THEORIES)
    p.add_argument("-i", type=int, required=True, dest="index")

    p = sub.add_parser("check", help="run a verification suite")
    add_module(p, required=False)
    add_window(p)
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("-m", type=int, help="x-variable count (suite simple)")
    p.add_argument("-n", type=int, help="y-variable count (suite simple)")
    p.add_argument("-p", type=int, default=DEFAULT_PRIME,
                   help="field modulus")
    p.add_argument("--shifts", help="free-module shifts a,b;a,b "
                                    "(suite free)")

    p = sub.add_parser("tame", help="tameness scan of H^k_Q")
    add_module(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--jwindow", required=True, help="lo:hi")

    p = sub.add_parser("regscan", help="strand regularity growth")
    add_module(p)
    p.add_argument("--jwindow", required=True, help="lo:hi")

    return parser


def _parse_jwindow(text):
    try:
        lo, hi = (int(t) for t in text.split(":"))
    except ValueError as exc:
        raise FormatError(f"bad j-window {text!r}: expected lo:hi") from exc
    if lo > hi:
        raise FormatError(f"empty j-window {text!r}")
    return lo, hi


def _emit_table(table, label, csv_path):
    print(table.render(label))
    if csv_path:
        write_csv(table, csv_path)
        print(f"csv written to {csv_path}")


def _ring_from_flags(args):
    """The ring given by -m/-n/-p; a missing flag or an invalid ring is
    malformed input."""
    if args.m is None or args.n is None:
        raise FormatError(f"suite {args.suite} needs -m and -n")
    return RingSpec(args.m, args.n, args.p)


def _run_check(args):
    suite = args.suite
    window = Window.parse(args.window)
    if suite == "simple":
        ring = _ring_from_flags(args)
        report = checks.check_lemma_simple(ring, window)
        p = ring.p
    elif suite == "free":
        if args.module:
            M = load_module(args.module)
            ring, shifts = M.ring, M.gens
        else:
            if not args.shifts:
                raise FormatError(
                    "suite free needs --module or -m/-n/--shifts")
            ring = _ring_from_flags(args)
            shifts = []
            for part in args.shifts.split(";"):
                try:
                    a, b = (int(t) for t in part.split(","))
                except ValueError as exc:
                    raise FormatError(
                        f"bad shift {part!r}: expected a,b") from exc
                shifts.append(Bidegree(a, b))
        report = checks.check_free(FreeModule(ring, tuple(shifts)), window)
        p = ring.p
    else:
        if not args.module:
            raise FormatError(f"suite {suite} needs --module")
        M = load_module(args.module)
        report = _SUITES[suite](M, window)
        p = M.ring.p
    print(f"characteristic p={p}")
    print(report)
    return 0 if report.passed else 1


_NEGATIVE_VALUE_FLAGS = ("--window", "--jwindow", "--shifts", "--k")


def _merge_flag_values(argv):
    """Join '--window -6:0,0:6' into '--window=-6:0,0:6' so argparse does
    not mistake a leading minus for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _NEGATIVE_VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


_parser = None  # built by the first call of main, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser.parse_args(_merge_flag_values(list(argv)))
        return _dispatch(args)
    except BicohError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, InvariantError) else 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "hilbert":
        M = load_module(args.module)
        window = Window.parse(args.window)
        table = hilbert_table(M, window)
        _emit_table(table, f"hilbert table (p={M.ring.p})", args.csv)
        return 0

    if args.command == "resolve":
        M = load_module(args.module)
        res = resolve(M)
        print(f"minimal free resolution over {M.ring} "
              f"(length {res.length}, p={M.ring.p})")
        for i, mod in enumerate(res.modules):
            shifts = " ".join(str(s) for s in mod.shifts) or "-"
            print(f"  F_{i}: rank {mod.rank}  shifts {shifts}")
        if args.emit:
            save_module(args.emit, minimal_presentation(M))
            print(f"minimal presentation written to {args.emit}")
        return 0

    if args.command == "profile":
        M = load_module(args.module)
        print(f"p={M.ring.p}: {profile(M)}, "
              f"cd={cohomological_dimension(M, 'Q')}")
        return 0

    if args.command == "locoh":
        M = load_module(args.module)
        window = Window.parse(args.window)
        table = local_coh_table(M, args.theory, args.index, window)
        label = (f"H^{args.index} for theory {args.theory} "
                 f"(p={M.ring.p}, flipped={args.theory == 'R+'})")
        _emit_table(table, label, args.csv)
        return 0

    if args.command == "oracle":
        M = load_module(args.module)
        window = Window.parse(args.window)
        table = oracle_table(M, args.theory, args.index, window)
        label = (f"oracle H^{args.index} for theory {args.theory} "
                 f"(p={M.ring.p})")
        _emit_table(table, label, args.csv)
        return 0

    if args.command == "check":
        return _run_check(args)

    if args.command == "tame":
        M = load_module(args.module)
        report = tame_scan(M, args.k, _parse_jwindow(args.jwindow))
        print(f"p={M.ring.p}: {report}")
        return 0

    if args.command == "regscan":
        M = load_module(args.module)
        report = reg_scan(M, _parse_jwindow(args.jwindow))
        print(f"p={M.ring.p}: {report}")
        return 0

    raise FormatError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
