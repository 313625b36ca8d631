"""Bidegree windows and exact dimension tables.

A window selects which cells get computed; every cell value is exact and
independent of the window choice.
"""

from dataclasses import dataclass

from .errors import FormatError
from .poly import Bidegree


@dataclass(frozen=True)
class Window:
    amin: int
    amax: int
    bmin: int
    bmax: int

    def __post_init__(self):
        if self.amin > self.amax or self.bmin > self.bmax:
            raise FormatError(f"empty window {self}")

    @classmethod
    def parse(cls, text):
        """Parse 'aMin:aMax,bMin:bMax'."""
        try:
            apart, bpart = text.split(",")
            amin, amax = (int(t) for t in apart.split(":"))
            bmin, bmax = (int(t) for t in bpart.split(":"))
        except (ValueError, AttributeError) as exc:
            raise FormatError(f"bad window {text!r}: expected "
                              "aMin:aMax,bMin:bMax") from exc
        return cls(amin, amax, bmin, bmax)

    def cells(self):
        for a in range(self.amin, self.amax + 1):
            for b in range(self.bmin, self.bmax + 1):
                yield Bidegree(a, b)

    def __neg__(self):
        return Window(-self.amax, -self.amin, -self.bmax, -self.bmin)

    @property
    def a_range(self):
        return range(self.amin, self.amax + 1)

    @property
    def b_range(self):
        return range(self.bmin, self.bmax + 1)

    @property
    def size(self):
        return (self.amax - self.amin + 1) * (self.bmax - self.bmin + 1)

    def __str__(self):
        return f"{self.amin}:{self.amax},{self.bmin}:{self.bmax}"


@dataclass(frozen=True)
class DimTable:
    """Exact dimensions over a window; cells maps (a, b) -> dim."""

    window: Window
    cells: dict
    p: int

    def __getitem__(self, d):
        a, b = d
        return self.cells[(a, b)]

    def is_zero(self):
        return all(v == 0 for v in self.cells.values())

    def nonzero_cells(self):
        return sorted(d for d, v in self.cells.items() if v)

    def render(self, label=""):
        lines = []
        if label:
            lines.append(label)
        width = max([3] + [len(str(v)) for v in self.cells.values()])
        acols = list(self.window.a_range)
        header = "b\\a |" + "".join(f"{a:>{width + 1}}" for a in acols)
        lines.append(header)
        lines.append("-" * len(header))
        for b in reversed(list(self.window.b_range)):
            row = f"{b:>4}|"
            for a in acols:
                row += f"{self.cells[(a, b)]:>{width + 1}}"
            lines.append(row)
        return "\n".join(lines)


def matlis_flip(T: DimTable) -> DimTable:
    """Graded K-dual at table level: cell (a,b) of the flip is cell (-a,-b)
    of the input, over the negated window."""
    flipped = {(-a, -b): v for (a, b), v in T.cells.items()}
    return DimTable(window=-T.window, cells=flipped, p=T.p)


def write_csv(table: DimTable, path):
    """Emit one table as 'a,b,dim' rows with a header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,dim\n")
        for d in table.window.cells():
            fh.write(f"{d.a},{d.b},{table[d]}\n")
