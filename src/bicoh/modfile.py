"""The flat key-value module file format.

    # comment
    p=32003
    m=2
    n=2
    gens=(0,0),(1,0)
    rels=(1,1): x1*y1, 0

`gens=` lists one (a,b) shift per generator; each `rels=` line is one
relation column: its source shift, a colon, then one polynomial per
generator, comma separated, and nothing after the colon when there is no
generator.  An absent or empty rels section gives a free module.
`p`, `m`, `n` and `gens` appear at most once; `rels=` may repeat.
"""

import re

from .errors import FormatError, ParseError
from .groebner import FreeModule, ModuleElement
from .linalg import DEFAULT_PRIME
from .poly import Bidegree, RingSpec, parse_poly
from .resolution import Presentation

_PAIR = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def _parse_shift_list(value, lineno):
    value = value.strip()
    if not value:
        return []
    pairs = _PAIR.findall(value)
    rebuilt = ",".join(f"({a},{b})" for a, b in pairs)
    if re.sub(r"\s+", "", value) != rebuilt:
        raise FormatError(f"line {lineno}: malformed shift list {value!r}")
    return [Bidegree(int(a), int(b)) for a, b in pairs]


def load_module(path) -> Presentation:
    """Read and validate a presentation; raises FormatError on a file that
    is not UTF-8 and on structural problems, and DegreeMismatchError when
    an entry violates the shifts."""
    params = {}
    seen = {}   # key -> line of the keys that may appear once
    gens = None
    rel_lines = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected key=value, "
                              f"got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in ("p", "m", "n", "gens"):
            if key in seen:
                raise FormatError(
                    f"line {lineno}: repeated key {key!r}, first given "
                    f"on line {seen[key]}")
            seen[key] = lineno
        if key in ("p", "m", "n"):
            try:
                params[key] = int(value.strip())
            except ValueError as exc:
                raise FormatError(
                    f"line {lineno}: {key} must be an integer") from exc
        elif key == "gens":
            gens = _parse_shift_list(value, lineno)
        elif key == "rels":
            rel_lines.append((lineno, value.strip()))
        else:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
    for need in ("m", "n"):
        if need not in params:
            raise FormatError(f"missing required key {need}=")
    try:
        ring = RingSpec(params["m"], params["n"],
                        params.get("p", DEFAULT_PRIME))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if gens is None:
        raise FormatError("missing gens= line")
    target = FreeModule(ring, gens)
    rels = []
    columns = []
    for lineno, body in rel_lines:
        if ":" not in body:
            raise FormatError(f"line {lineno}: relation needs "
                              "'(a,b): entries'")
        shift_part, entries_part = body.split(":", 1)
        shift = _parse_shift_list(shift_part, lineno)
        if len(shift) != 1:
            raise FormatError(f"line {lineno}: exactly one source shift "
                              "per relation")
        entries = entries_part.split(",") if entries_part.strip() else []
        if len(entries) != len(gens):
            raise FormatError(
                f"line {lineno}: {len(entries)} entries for "
                f"{len(gens)} generators")
        try:
            column = [parse_poly(text, ring) for text in entries]
        except ParseError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        rels.append(shift[0])
        columns.append(ModuleElement(target, column))
    return Presentation(ring, target.shifts, tuple(rels), columns)


def save_module(path, P: Presentation):
    ring = P.ring
    lines = [f"p={ring.p}", f"m={ring.m}", f"n={ring.n}"]
    lines.append("gens=" + ",".join(f"({g.a},{g.b})" for g in P.gens))
    for shift, col in zip(P.rels, P.columns):
        entries = ", ".join(map(str, col.coords))
        lines.append(f"rels=({shift.a},{shift.b}): {entries}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
