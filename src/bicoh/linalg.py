"""Dense exact linear algebra over a prime field F_p.

Every degreewise computation in the package bottoms out here: ranks and
kernels of integer matrices reduced mod p.  Matrices are plain int64
numpy arrays and the modulus is passed alongside; with p < 2^20 a pivot
elimination step stays far below the int64 overflow bound, so no modular
lifting is needed.
"""

from math import isqrt

import numpy as np

from .errors import ComposeError

DEFAULT_PRIME = 32003


def _check_prime(p):
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"modulus {p} is not prime")
    if p >= 1 << 20:
        raise ValueError(f"modulus {p} too large for int64 elimination")


def _echelon(arr, p, reduced=False):
    """Row echelon form mod p with first-nonzero pivoting.

    Returns (echelon array, list of pivot columns).  With reduced=True the
    pivot columns are cleared above the pivots as well (RREF).
    """
    a = np.array(arr, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        if r + 1 < rows:
            below = a[r + 1:, c]
            if np.any(below):
                a[r + 1:] = (a[r + 1:] - np.outer(below, a[r])) % p
        if reduced and r > 0:
            above = a[:r, c]
            if np.any(above):
                a[:r] = (a[:r] - np.outer(above, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank_of_array(arr, p):
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        return 0
    return len(_echelon(arr, p)[1])


def kernel_of_array(arr, p):
    """Basis of the right kernel as columns of an int64 array."""
    rows, cols = arr.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    ech, pivots = _echelon(arr, p, reduced=True)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for idx, f in enumerate(free):
        basis[f, idx] = 1
        for r, pc in enumerate(pivots):
            basis[pc, idx] = (-int(ech[r, f])) % p
    return basis


def check_complex(A, B, p):
    """Raise ComposeError unless A --> . --> B is a complex at the middle
    space: the shapes chain and B @ A = 0 mod p."""
    if B.shape[1] != A.shape[0]:
        raise ComposeError(
            f"shape mismatch: B has {B.shape[1]} columns, A has "
            f"{A.shape[0]} rows")
    if A.shape[1] and B.shape[0]:
        if np.any((B @ A) % p):
            raise ComposeError("B*A is not zero; not a complex at this spot")


def homology_dim(A, B, p) -> int:
    """dim(ker B / im A) over F_p for one graded piece of a complex
    A --> . --> B.

    A maps into the middle space (its columns are cycles), B maps out of it.
    Raises ComposeError unless B @ A = 0.
    """
    check_complex(A, B, p)
    ker_b = B.shape[1] - rank_of_array(B, p)
    return ker_b - rank_of_array(A, p)
