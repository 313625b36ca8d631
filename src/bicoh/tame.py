"""Tameness scans, limit depth and dimension of strands, regularity growth.

Questions about the components H^k_Q(M)_j as j runs to minus infinity are
decided per strand: the corner and Cohen-Macaulay reductions turn the
vanishing of H^k_Q(M)_j into nonvanishing of an Ext of a single strand of
a finitely generated dual, which is exact and window-free.  Everything
asymptotic ("eventually") is operationalized on the user's window: a scan
is decided only when its trailing pattern is constant (see _decide), and
the reports record observed patterns, never the conjecture itself.
"""

from dataclasses import dataclass
from fractions import Fraction

from .checks import CellFailure, CheckReport
from .errors import NotCohenMacaulayError, UnsupportedIndexError
from .poly import Bidegree
from .resolution import (
    Presentation,
    ext_presentation,
    initial_module,
    profile,
    resolve,
)
from .strands import strand, strand_dim
from .tables import Window

EVENTUALLY_ZERO = "eventually-zero"
EVENTUALLY_NONZERO = "eventually-nonzero"
INCONCLUSIVE = "inconclusive"


def strand_nonvanishing(N: Presentation, k: int, j: int) -> bool:
    """Whether the local cohomology H^k at the maximal ideal of K[x] of
    the strand N_j is nonzero, decided by the minimal presentation of the
    dual Ext (no degree window involved)."""
    ext = ext_presentation(strand(N, 0, j), N.ring.m - k)
    return len(ext.gens) > 0


def _strand_profile(N, j):
    """(depth, dim) of the strand N_j over K[x], or None when zero."""
    dim = strand_dim(N, 0, j)
    if dim < 0:
        return None
    return (N.ring.m - resolve(strand(N, 0, j)).length, dim)


_MIN_RUN = 3


def _trailing_half(vals):
    """The trailing half of a scan listed from its limit end: the first
    floor(n/2) of its n values, at least one.  The middle value of an odd
    scan is not in it."""
    return vals[:max(1, len(vals) // 2)]


def _decide(values, toward_min):
    """Verdict for a scanned pattern, speaking about the limit direction.

    values: {key: value}.  Decided with the limit-end value when either the
    trailing half of the window is constant, or the window shows a single
    constant run of length >= 3 at the limit end followed by one transition
    (the shape every tame pattern has on a window).  Anything with two or
    more transitions stays inconclusive."""
    pairs = sorted(values.items(), key=lambda kv: kv[0],
                   reverse=not toward_min)
    vals = [v for _, v in pairs]
    if not vals:
        return None
    run = 1
    while run < len(vals) and vals[run] == vals[0]:
        run += 1
    transitions = sum(1 for i in range(1, len(vals))
                      if vals[i] != vals[i - 1])
    if (len(set(_trailing_half(vals))) == 1
            or (transitions <= 1 and run >= _MIN_RUN)):
        return vals[0]
    return None


@dataclass(frozen=True)
class TameReport:
    k: int
    jwindow: tuple
    verdicts: dict
    overall: str
    limit_depth: int | None
    limit_dim: int | None

    def __str__(self):
        lo, hi = self.jwindow
        pattern = "".join("x" if self.verdicts[j] else "."
                          for j in range(lo, hi + 1))
        limits = ""
        if self.limit_depth is not None:
            limits = f", limit depth {self.limit_depth}"
        if self.limit_dim is not None:
            limits += f", limit dim {self.limit_dim}"
        return (f"tame scan k={self.k} on j={lo}..{hi}: [{pattern}] "
                f"-> {self.overall}{limits}")


def tame_scan(M: Presentation, k: int, jwindow) -> TameReport:
    """Vanishing pattern of H^k_Q(M)_j over the j-window.

    Any module supports k = dim and k = depth - m (the corner reductions);
    other k require M Cohen-Macaulay.  The verdict speaks about the
    direction j -> -infinity and is decided only if the trailing half of
    the window is constant."""
    ring = M.ring
    prof = profile(M)
    s, t = prof.dim, prof.depth
    lo, hi = jwindow
    if prof.is_cm or k == s:
        dual = ext_presentation(M, ring.nvars - s)
        p_index = s - k
    elif k == t - ring.m:
        dual = ext_presentation(M, ring.nvars - t)
        p_index = ring.m
    else:
        raise UnsupportedIndexError(
            f"k={k} needs a CM module or k in {{dim, depth - m}} = "
            f"{{{s}, {t - ring.m}}}")
    verdicts = {j: strand_nonvanishing(dual, p_index, -j)
                for j in range(lo, hi + 1)}
    decided = _decide(verdicts, toward_min=True)
    if decided is None:
        overall = INCONCLUSIVE
    else:
        overall = EVENTUALLY_NONZERO if decided else EVENTUALLY_ZERO
    # limit depth/dim of the dual's strands for large strand index,
    # restricted to where the strands are nonzero
    strand_profiles = {j: _strand_profile(dual, -j)
                       for j in range(lo, hi + 1)}
    nonzero_profiles = {j: p for j, p in strand_profiles.items()
                        if p is not None}
    limit_depth = limit_dim = None
    if nonzero_profiles:
        stable = _decide(nonzero_profiles, toward_min=True)
        if stable is not None:
            limit_depth, limit_dim = stable
    return TameReport(k=k, jwindow=(lo, hi), verdicts=verdicts,
                      overall=overall, limit_depth=limit_depth,
                      limit_dim=limit_dim)


def _mod_by_irrelevant(N: Presentation) -> Presentation:
    """N / (x)N over the full ring: append the columns x_i * e_k."""
    ring = N.ring
    gens = N.gens
    new_rels = list(N.rels)
    new_cols = []
    for k, s in enumerate(gens):
        for var in range(ring.m):
            col = [ring.zero()] * len(gens)
            col[k] = ring.variable(var)
            new_cols.append(tuple(col))
            new_rels.append(Bidegree(*s) + ring.variable_degree(var))
    matrix = tuple(tuple(list(N.matrix[kk]) +
                         [new_cols[c][kk] for c in range(len(new_cols))])
                   for kk in range(len(gens)))
    return Presentation(ring, gens, tuple(new_rels), matrix)


def limit_profile_check(N: Presentation, jwindow) -> CheckReport:
    """Stabilization of (depth, dim) of the strands N_j for large j, and
    for CM N the exact limit-depth identity
    lim depth N_j = dim N - dim N/(x)N.  Decided only when the trailing
    half holds at least two strands, all with one profile."""
    lo, hi = jwindow
    profiles = [_strand_profile(N, j) for j in range(lo, hi + 1)]
    tail = _trailing_half(profiles[::-1])
    tail_values = set(tail)
    notes = []
    failure = None
    inconclusive = False
    if len(tail) < 2:
        inconclusive = True
        notes.append("the trailing half holds one strand; window too "
                     "small to decide")
    elif len(tail_values) != 1:
        inconclusive = True
        notes.append("depth/dim of the trailing strands not constant; "
                     "window too small to decide")
    else:
        value = tail_values.pop()
        if value is None:
            notes.append("trailing strands are zero modules")
        else:
            depth_limit, dim_limit = value
            notes.append(f"stable strand profile: depth {depth_limit}, "
                         f"dim {dim_limit}")
            if profile(N).is_cm:
                expected = (initial_module(N).krull_dim() - initial_module(
                    _mod_by_irrelevant(N)).krull_dim())
                if depth_limit != expected:
                    failure = CellFailure(
                        (0, hi), depth_limit, expected,
                        "limit depth vs dim N - dim N/(x)N")
                else:
                    notes.append(
                        f"limit depth identity holds: {depth_limit} = "
                        f"dim N - dim N/(x)N")
    window = Window(0, 0, lo, hi)
    return CheckReport(suite="limit-profile", window=window,
                       passed=failure is None,
                       checked=hi - lo + 1, failure=failure,
                       notes=tuple(notes), inconclusive=inconclusive)


def strand_regularity(N: Presentation, j: int):
    """Castelnuovo-Mumford regularity of the strand N_j over K[x], read
    off the minimal graded free resolution; None for the zero strand."""
    if strand_dim(N, 0, j) < 0:
        return None
    res = resolve(strand(N, 0, j))
    return max(max(s.a for s in mod.shifts) - i
               for i, mod in enumerate(res.modules))


@dataclass(frozen=True)
class RegReport:
    jwindow: tuple
    reg: dict
    slope: Fraction
    intercept: Fraction
    residuals: dict
    degenerate: bool
    top_dim: int

    def __str__(self):
        lo, hi = self.jwindow
        vals = ", ".join(f"{j}:{self.reg[j]}" for j in range(lo, hi + 1))
        tag = " (degenerate fit)" if self.degenerate else ""
        return (f"reg scan on j={lo}..{hi}: {{{vals}}}; upper bound "
                f"reg <= {self.slope}*j + {self.intercept}{tag}")


def reg_scan(M: Presentation, jwindow) -> RegReport:
    """Exact regularity of every strand of the dualized top cohomology of
    a CM module, with the least-slope linear upper bound over the window.
    With the top dimension s it bounds the initial degree a(H^k_Q(M)_j)
    from below by slope*j + s - k - intercept."""
    ring = M.ring
    prof = profile(M)
    if not prof.is_cm:
        raise NotCohenMacaulayError("regularity scan needs a CM module")
    s = prof.dim
    dual = ext_presentation(M, ring.nvars - s)
    lo, hi = jwindow
    reg = {j: strand_regularity(dual, j) for j in range(lo, hi + 1)}
    points = [(j, r) for j, r in reg.items() if r is not None]
    if len(points) < 2:
        slope = Fraction(0)
        intercept = Fraction(points[0][1]) if points else Fraction(0)
        degenerate = True
    else:
        slope = max(Fraction(r2 - r1, j2 - j1)
                    for idx, (j1, r1) in enumerate(points)
                    for j2, r2 in points[idx + 1:])
        intercept = max(Fraction(r) - slope * j for j, r in points)
        degenerate = False
    residuals = {j: Fraction(r) - (slope * j + intercept)
                 for j, r in points}
    return RegReport(jwindow=(lo, hi), reg=reg, slope=slope,
                     intercept=intercept, residuals=residuals,
                     degenerate=degenerate, top_dim=s)

