"""Sparse exact linear algebra over a prime field F_p.

Every degreewise computation in the package bottoms out here: ranks of
matrices over F_p.  A Matrix is stored by columns, each a {row: value}
dict of its nonzero entries, Python ints reduced mod p; the modulus is
passed alongside.  The degree pieces of Koszul and relation maps are
mostly zero, so elimination touches nonzero entries only (Dumas &
Villard 2002, sparse elimination over finite fields).  One step,
_insert, reduces a vector against a table of pivots and adds what is
left: it serves _echelon here and groebner.minimal_elements.
"""

from math import isqrt

from .errors import BadRingError, ComposeError

DEFAULT_PRIME = 32003


def _check_prime(p):
    # the bound first: trial division up to sqrt(p) would not end on a
    # modulus like 2^61 - 1
    if p >= 1 << 20:
        raise BadRingError(f"modulus {p} too large: primes below 2^20 "
                           f"are supported")
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise BadRingError(f"modulus {p} is not prime")


class Matrix:
    """A rows x cols matrix over F_p: cols[j] is the {row: value} dict of
    the nonzero entries of column j, reduced mod p.  A column is not
    modified once its matrix is built, so matrices may share columns."""

    __slots__ = ("shape", "cols")

    def __init__(self, shape, cols):
        self.shape = shape
        self.cols = cols

    @classmethod
    def zeros(cls, rows, cols):
        return cls((rows, cols), [{} for _ in range(cols)])

    def apply(self, column, p):
        """self * column mod p, for a {row: value} column.  The result may
        be one of self's own columns, so it must not be modified."""
        cols = self.cols
        if len(column) == 1:
            # a multiple of one column, where nothing cancels
            (j, x), = column.items()
            if x == 1:
                return cols[j]
            return {i: y * x % p for i, y in cols[j].items()}
        out = {}
        for j, x in column.items():
            for i, y in cols[j].items():
                out[i] = out.get(i, 0) + x * y
        return {i: r for i, v in out.items() if (r := v % p)}


def _subtract(v, f, w, p):
    """v -= f * w mod p in place, dropping the entries that become zero."""
    for i, x in w.items():
        y = (v.get(i, 0) - f * x) % p
        if y:
            v[i] = y
        else:
            v.pop(i, None)


def _insert(table, v, p):
    """Reduce the {index: value} vector v in place against the table
    {pivot: monic vector without its pivot}, at its smallest index while
    that index holds a pivot.  If anything is left, it is scaled to 1
    there and becomes the pivot of that index."""
    while v:
        r = min(v)
        pivot = table.get(r)
        if pivot is None:
            inv = pow(v.pop(r), -1, p)
            table[r] = ({i: x * inv % p for i, x in v.items()} if inv != 1
                        else v)
            return
        _subtract(v, v.pop(r), pivot, p)


def _echelon(mat, p):
    """Eliminate the columns of mat from left to right (_insert), and
    return the table {pivot row: monic column without its pivot}, whose
    size is the rank."""
    table = {}
    for col in mat.cols:
        _insert(table, dict(col), p)
    return table


def rank_of_array(arr, p):
    """Rank over F_p of a Matrix.  No caller in bicoh passes anything else,
    but perfbench's tracer test passes a dense 2-D array, which is read
    as the Matrix of its entries mod p."""
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        return 0
    if not isinstance(arr, Matrix):
        arr = Matrix(arr.shape, [{i: v for i, x in enumerate(col)
                                  if (v := int(x) % p)} for col in zip(*arr)])
    return len(_echelon(arr, p))


def check_complex(A, B, p):
    """Raise ComposeError unless the Matrix maps A --> . --> B form a
    complex at the middle space: the shapes chain and B * A = 0 mod p."""
    if B.shape[1] != A.shape[0]:
        raise ComposeError(
            f"shape mismatch: B has {B.shape[1]} columns, A has "
            f"{A.shape[0]} rows")
    if A.shape[1] and B.shape[0]:
        if any(B.apply(col, p) for col in A.cols):
            raise ComposeError("B*A is not zero; not a complex at this spot")


def homology_dim(A, B, p) -> int:
    """dim(ker B / im A) over F_p for one graded piece of a complex
    A --> . --> B of Matrix maps.

    A maps into the middle space (its columns are cycles), B maps out of it.
    Raises ComposeError unless B * A = 0.
    """
    check_complex(A, B, p)
    ker_b = B.shape[1] - rank_of_array(B, p)
    return ker_b - rank_of_array(A, p)
