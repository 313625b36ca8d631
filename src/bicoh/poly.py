"""Sparse bihomogeneous polynomials over S = F_p[x_1..x_m, y_1..y_n].

The single-graded subrings F_p[x] and F_p[y] reuse the same representation
with the other variable block empty, so all Groebner and resolution code is
written once.  The monomial order is total-degree reverse-lexicographic
with x1 > ... > xN, N = m + n (x_(m+j) is y_j).

A monomial x^e is one Python int of 2N + 1 fields of FIELD_BITS bits,

    [ T | T - e_N | ... | T - e_1 | e_N | ... | e_1 ],    T = sum(e),

e_1 in the lowest field (Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Every
field is additive in e, so the product of monomials is `e + f`, the
quotient is `f - e`, and the monomial 1 is 0.  Comparing T, then the
T - e_i from i = N down, is degrevlex, so the order is plain int order.
The top bit of each field is a guard: the fields of a monomial stay below
2^(FIELD_BITS - 1), and x^e divides x^f exactly when f - e borrows into no
guard, `not (f - e) & GUARDS`.  T is the largest field, so a total degree
of 2^31 or more is the one way to reach a guard: `RingSpec.monomial` and
every product check it and raise DegreeOverflowError, so a monomial never
wraps.  One GUARDS mask serves rings of up to MAX_VARS variables.

The low N fields, e, give the rest field-wise with no tuple ("SIMD within
a register"): adding 2^(FIELD_BITS - 1) - 1 to every field sets the guard
of the nonzero ones, and `((e | G) - f) & G`, G their guards, marks the
fields where e_i >= f_i, so coprimality and the lcm are a few int
operations.  Modulo 2^FIELD_BITS - 1 every field weighs one, so that
remainder of the low fields is their sum, and the middle fields follow as
T * (1 + 2^FIELD_BITS + ...) - e.  `RingSpec.block_part` cuts the part of
a monomial in one variable block out as a monomial of that block's ring
the same way.

Exponent tuples appear only where monomials enter or leave, through
`RingSpec.monomial(e)` and `RingSpec.exponents(mono)`: the parser and
printer, the variables and monomial bases.
"""

import itertools
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from .errors import (
    BadRingError,
    DegreeOverflowError,
    NotBihomogeneousError,
    ParseError,
    RingMismatchError,
    UnknownVariableError,
    ZeroPolynomialError,
)
from .linalg import DEFAULT_PRIME, _check_prime

FIELD_BITS = 32
_FIELD_MASK = (1 << FIELD_BITS) - 1
_DEGREE_LIMIT = 1 << (FIELD_BITS - 1)
MAX_VARS = 64
# the guard bit of every field of a ring with up to MAX_VARS variables; a
# difference of two monomials of fewer variables has zeros (or, when
# negative, ones) above its own fields, so one mask serves every ring
GUARDS = sum(1 << (FIELD_BITS * (i + 1) - 1) for i in range(2 * MAX_VARS + 1))


class Bidegree(NamedTuple):
    a: int
    b: int

    def __add__(self, other):
        return Bidegree(self.a + other[0], self.b + other[1])

    def __sub__(self, other):
        return Bidegree(self.a - other[0], self.b - other[1])

    def __neg__(self):
        return Bidegree(-self.a, -self.b)

    @property
    def total(self):
        return self.a + self.b

    def __str__(self):
        return f"({self.a},{self.b})"


def _fields(count):
    """(bits, mask, ones, guards) of a run of `count` fields from field 0:
    its width, its mask, the int with a 1 in each field, their guards."""
    bits = FIELD_BITS * count
    mask = (1 << bits) - 1
    ones = mask // _FIELD_MASK
    return bits, mask, ones, ones << FIELD_BITS - 1


@dataclass(frozen=True)
class RingSpec:
    """S = F_p[x_1..x_m, y_1..y_n], standard bigraded: deg x_i = (1,0),
    deg y_j = (0,1).  m = 0 or n = 0 gives the single-graded subrings.

    `width` is the bit length of the packed monomials of the ring, and a
    product at or above `limit` has reached total degree 2^31."""

    m: int
    n: int
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise BadRingError(
                "need m >= 0, n >= 0 and at least one variable")
        if self.m + self.n > MAX_VARS:
            raise BadRingError(f"at most {MAX_VARS} variables")
        _check_prime(self.p)
        width = FIELD_BITS * (2 * self.nvars + 1)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "limit", 1 << (width - 1))
        object.__setattr__(self, "_shifts", tuple(
            range(0, FIELD_BITS * self.nvars, FIELD_BITS)))
        object.__setattr__(self, "_xmask", (1 << FIELD_BITS * self.m) - 1)
        bits, mask, ones, guards = _fields(self.nvars)
        object.__setattr__(self, "_low",
                           (bits, mask, ones, guards, guards - ones))
        object.__setattr__(self, "_blocks", (
            (0,) + _fields(self.m), (FIELD_BITS * self.m,) + _fields(self.n)))

    @property
    def nvars(self):
        return self.m + self.n

    @property
    def canonical_degree(self):
        """Generator degree of the canonical module S(-m,-n)."""
        return Bidegree(self.m, self.n)

    def variable_name(self, i):
        if i < self.m:
            return f"x{i + 1}"
        return f"y{i - self.m + 1}"

    def variable_degree(self, i):
        return Bidegree(1, 0) if i < self.m else Bidegree(0, 1)

    def monomial(self, e):
        """The packed monomial of the exponent tuple e (length nvars)."""
        total = sum(e)
        if total >= _DEGREE_LIMIT:
            raise DegreeOverflowError(
                f"total degree {total} exceeds the limit "
                f"{_DEGREE_LIMIT - 1}")
        mono = total
        for c in reversed(e):
            mono = mono << FIELD_BITS | total - c
        for c in reversed(e):
            mono = mono << FIELD_BITS | c
        return mono

    def exponents(self, mono):
        """The exponent tuple of a packed monomial."""
        return tuple(mono >> s & _FIELD_MASK for s in self._shifts)

    def block_part(self, mono, k):
        """The part of the packed monomial mono (bits above the monomial
        ignored) in the variable block k (x 0, y 1), packed as a monomial of
        F_p[block k]; 0, the monomial 1, when the block is empty."""
        start, bits, mask, ones, _ = self._blocks[k]
        low = mono >> start & mask
        total = low % _FIELD_MASK
        return (total << bits | total * ones - low) << bits | low

    def variable(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, ((self.monomial(e), 1),))

    def gens(self):
        return [self.variable(i) for i in range(self.nvars)]

    def one(self):
        return Polynomial(self, ((0, 1),))

    def zero(self):
        return Polynomial(self, ())

    def __str__(self):
        vs = ",".join(self.variable_name(i) for i in range(self.nvars))
        return f"F_{self.p}[{vs}]"


# ---------------------------------------------------------------------------
# packed monomials (see the module docstring)


def mono_divides(e, f):
    """True if x^e divides x^f."""
    return not (f - e) & GUARDS


def mono_div(f, e):
    """x^f / x^e, for x^e dividing x^f."""
    return f - e


def mono_degree(ring, e):
    """Total degree: the top field."""
    return e >> ring.width - FIELD_BITS


def mono_lcm(ring, e, f):
    """lcm(x^e, x^f), field-wise on the low fields (see the module
    docstring); DegreeOverflowError at total degree 2^31 or more."""
    bits, mask, ones, guards, _ = ring._low
    b = f & mask
    ge = ((e | guards) - b) & guards      # the guards of the e_i >= f_i
    low = b ^ ((e ^ f) & (ge - (ge >> FIELD_BITS - 1)))
    # a sum of at most 2 * (2^31 - 1), below the modulus
    total = low % _FIELD_MASK
    if total >= _DEGREE_LIMIT:
        raise DegreeOverflowError(
            f"an lcm reaches total degree {total}, beyond the limit "
            f"{_DEGREE_LIMIT - 1}")
    return (total << bits | total * ones - low) << bits | low


def mono_coprime(ring, e, f):
    """True if no variable divides both x^e and x^f: adding 2^31 - 1 to
    each low field sets its guard exactly when the field is nonzero."""
    _, _, _, guards, nonzero = ring._low
    return not (e + nonzero) & (f + nonzero) & guards


def _x_degree(ring, e):
    """The sum of the x-fields: modulo 2^FIELD_BITS - 1 each field weighs
    one, and the sum stays below the modulus."""
    return (e & ring._xmask) % _FIELD_MASK


def mono_bidegree(ring, e):
    a = _x_degree(ring, e)
    return Bidegree(a, mono_degree(ring, e) - a)


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def block_dim(k, length):
    """Number of monomials of degree k in `length` variables."""
    if k < 0:
        return 0
    if length == 0:
        return 1 if k == 0 else 0
    return comb(k + length - 1, length - 1)


def piece_dim(ring, d):
    """dim_K S_d, the closed binomial form."""
    a, b = d
    return block_dim(a, ring.m) * block_dim(b, ring.n)


def monomial_basis(ring, d):
    """All monomials of bidegree d, descending in the monomial order.
    Empty when a component of d is negative."""
    a, b = d
    if a < 0 or b < 0:
        return []
    xs = _compositions(a, ring.m)
    ys = _compositions(b, ring.n)
    if ring.m == 0 and a != 0:
        return []
    if ring.n == 0 and b != 0:
        return []
    monos = [ring.monomial(x + y) for x, y in itertools.product(xs, ys)]
    monos.sort(reverse=True)
    return monos


# ---------------------------------------------------------------------------
# polynomials


def _check_degree(ring, mono):
    """Raise DegreeOverflowError if the product mono set a guard bit."""
    if mono >= ring.limit:
        raise DegreeOverflowError(
            f"a product reaches total degree {mono_degree(ring, mono)}, "
            f"beyond the limit {_DEGREE_LIMIT - 1}")


class Polynomial:
    """Terms stored as a tuple of (packed monomial, coefficient) pairs,
    strictly descending in the monomial order, that is as ints,
    coefficients in [1, p).  Immutable and hashable.

    A monomial is an int (see the module docstring), so a product of terms
    adds ints and a term list sorts with no key.  Products check the
    degree limit once, on the product of the leads: the lead has the
    largest total degree.  A total degree of 2^31 or more raises
    DegreeOverflowError."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None

    @classmethod
    def from_dict(cls, ring, d):
        """From an unordered {packed monomial: coefficient} dict."""
        p = ring.p
        items = [(e, c % p) for e, c in d.items() if c % p]
        items.sort(reverse=True)
        return cls(ring, tuple(items))

    @classmethod
    def constant(cls, ring, c):
        return cls.from_dict(ring, {0: c})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands over {self.ring} and {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.ring, other)
        self._check_ring(other)
        d = dict(self.terms)
        p = self.ring.p
        for e, c in other.terms:
            v = (d.get(e, 0) + c) % p
            if v:
                d[e] = v
            else:
                d.pop(e, None)
        return Polynomial.from_dict(self.ring, d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, tuple((e, p - c) for e, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        if not (self.terms and other.terms):
            return self.ring.zero()
        _check_degree(self.ring, self.terms[0][0] + other.terms[0][0])
        d = {}
        p = self.ring.p
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                d[e] = (d.get(e, 0) + c1 * c2) % p
        return Polynomial.from_dict(self.ring, d)

    __rmul__ = __mul__

    def scale(self, c):
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        if c == 1 or not self.terms:
            return self
        p = self.ring.p
        return Polynomial(self.ring,
                          tuple((e, (k * c) % p) for e, k in self.terms))

    def lead(self):
        """(monomial, coefficient) of the leading term."""
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        return self.terms[0]

    def bidegree(self):
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no bidegree")
        ring = self.ring
        degs = {(mono_degree(ring, e), _x_degree(ring, e))
                for e, _ in self.terms}
        degs = sorted(Bidegree(a, total - a) for total, a in degs)
        if len(degs) != 1:
            raise NotBihomogeneousError(f"mixed bidegrees {degs}")
        return degs[0]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def _term_str(self, e, c):
        # symmetric representative for readability; parses back fine
        cs = c if c <= self.ring.p // 2 else c - self.ring.p
        factors = []
        for i, k in enumerate(self.ring.exponents(e)):
            if k == 1:
                factors.append(self.ring.variable_name(i))
            elif k > 1:
                factors.append(f"{self.ring.variable_name(i)}^{k}")
        if not factors:
            return str(cs), cs < 0
        body = "*".join(factors)
        if cs == 1:
            return body, False
        if cs == -1:
            return body, True
        return f"{abs(cs)}*{body}", cs < 0

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.terms):
            body, negative = self._term_str(e, c)
            body = body.lstrip("-")
            if i == 0:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ring}>"


# ---------------------------------------------------------------------------
# parser
#
# term    = [integer *] factor (* factor)*  |  integer
# factor  = variable [^ positive-integer]
# variable = "x"k (1 <= k <= m) | "y"k (1 <= k <= n)
# terms joined by + and -; whitespace ignored.


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in "xy":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"variable '{ch}' needs an index", i)
            tokens.append(("var", (ch, int(text[i + 1:j])), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


def parse_poly(text: str, ring: RingSpec) -> Polynomial:
    """Parse a polynomial, normalizing coefficients mod p and collecting
    like terms.  Raises ParseError / UnknownVariableError with positions."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def var_index(name, at):
        block, k = name
        if block == "x":
            if not (1 <= k <= ring.m):
                raise UnknownVariableError(f"no variable x{k} (m={ring.m})", at)
            return k - 1
        if not (1 <= k <= ring.n):
            raise UnknownVariableError(f"no variable y{k} (n={ring.n})", at)
        return ring.m + k - 1

    def parse_term():
        coeff = 1
        expo = [0] * ring.nvars
        saw_atom = False
        while True:
            kind, value, at = peek()
            if kind == "int":
                advance()
                coeff = (coeff * value) % ring.p
            elif kind == "var":
                advance()
                idx = var_index(value, at)
                power = 1
                if peek()[0] == "^":
                    advance()
                    ekind, evalue, eat = advance()
                    if ekind != "int" or evalue < 1:
                        raise ParseError("exponent must be a positive integer",
                                         eat)
                    power = evalue
                expo[idx] += power
            else:
                raise ParseError("expected a coefficient or variable", at)
            saw_atom = True
            if peek()[0] == "*":
                advance()
                continue
            break
        if not saw_atom:
            raise ParseError("empty term", peek()[2])
        return coeff, ring.monomial(expo)

    terms = {}
    sign = 1
    kind, _, at = peek()
    if kind in "+-":
        sign = -1 if kind == "-" else 1
        advance()
    while True:
        coeff, expo = parse_term()
        terms[expo] = terms.get(expo, 0) + sign * coeff
        kind, _, at = peek()
        if kind == "end":
            break
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            raise ParseError("expected '+', '-' or end of input", at)
        advance()
    return Polynomial.from_dict(ring, terms)
