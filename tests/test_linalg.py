import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicoh.errors import ComposeError
from bicoh.linalg import (
    Matrix,
    _as_matrix,
    _subtract,
    homology_dim,
    rank_of_array,
)

P = 32003


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def eye(size):
    return np.eye(size, dtype=np.int64)


def array(entries):
    return np.array(entries, dtype=np.int64)


def matrix(entries):
    """Matrix of a nonempty list of rows."""
    cols = len(entries[0])
    return Matrix((len(entries), cols),
                  [{i: row[j] % P for i, row in enumerate(entries)
                    if row[j] % P} for j in range(cols)])


# Elimination with more bookkeeping than rank_of_array keeps: a pivot
# table that further columns can be reduced against, and the kernel read
# off the combinations of the columns that reduce to zero.  The tests of
# the oracle compare two of its levels with them.


def tracked_echelon(mat, p, table=None):
    """Eliminate the columns of mat left to right against a copy of table
    {pivot row: (monic column without its pivot, combination)}; returns
    the table and the kernel, one combination of the columns of mat per
    column that reduces to zero."""
    table = {} if table is None else dict(table)
    kernel = []
    for j, col in enumerate(mat.cols):
        v, comb = dict(col), {j: 1}
        while v:
            r = min(v)
            pivot = table.get(r)
            if pivot is None:
                break
            f = v.pop(r)
            _subtract(v, f, pivot[0], p)
            _subtract(comb, f, pivot[1], p)
        if v:
            inv = pow(v.pop(r), -1, p)
            table[r] = ({i: x * inv % p for i, x in v.items()},
                        {i: x * inv % p for i, x in comb.items()})
        else:
            kernel.append(comb)
    return table, kernel


def kernel_of_array(arr, p):
    """Basis of the right kernel, as the columns of a Matrix."""
    kernel = tracked_echelon(_as_matrix(arr, p), p)[1]
    return Matrix((arr.shape[1], len(kernel)), kernel)


def compose(B, A, p):
    """The product B * A mod p, one Matrix.apply per column of A."""
    return Matrix((B.shape[0], A.shape[1]), [B.apply(c, p) for c in A.cols])


def _dense_echelon(arr, p):
    """Referee: dense row echelon form mod p with first-nonzero pivoting on
    an int64 array.  Returns (echelon array, list of pivot columns)."""
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
        pivots.append(c)
        r += 1
    return a, pivots


def _dense(mat):
    """The int64 array of a Matrix."""
    out = np.zeros(mat.shape, dtype=np.int64)
    for j, col in enumerate(mat.cols):
        for i, v in col.items():
            out[i, j] = v
    return out


def _sparse(arr, p):
    """The Matrix of an int64 array, entries reduced mod p."""
    rows, cols = arr.shape
    return Matrix((rows, cols), [{i: int(arr[i, j]) % p for i in range(rows)
                                  if arr[i, j] % p} for j in range(cols)])


def _random_array(rng, rows, cols, p, density):
    return np.array([[rng.randrange(1, p) if rng.random() < density else 0
                      for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64).reshape(rows, cols)


def _agrees_with_dense_referee(arr, p):
    """Rank, kernel dimension and B * K = 0 against the dense referee."""
    rows, cols = arr.shape
    dense_rank = len(_dense_echelon(arr, p)[1]) if rows and cols else 0
    assert rank_of_array(arr, p) == dense_rank
    kernel = kernel_of_array(arr, p)
    assert kernel.shape == (cols, cols - dense_rank)
    dense_kernel = _dense(kernel)
    assert not np.any((arr @ dense_kernel) % p)
    # the kernel columns are independent, so they span the whole kernel
    if kernel.shape[1]:
        assert len(_dense_echelon(dense_kernel, p)[1]) == kernel.shape[1]


def test_rank_identity():
    assert rank_of_array(eye(3), P) == 3


def test_rank_zero_matrix():
    assert rank_of_array(zeros(4, 2), P) == 0


def test_rank_dependent_rows():
    assert rank_of_array(array([[1, 2], [2, 4]]), P) == 1


def test_kernel_of_identity_is_empty():
    assert kernel_of_array(eye(3), P).shape[1] == 0


def test_kernel_of_zero_map():
    k = kernel_of_array(zeros(2, 3), P)
    assert k.shape == (3, 3)


def test_kernel_single_relation():
    k = kernel_of_array(matrix([[1, 1]]), P)
    assert k.shape[1] == 1
    v = k.cols[0]
    assert (v.get(0, 0) + v.get(1, 0)) % P == 0 and v


def test_homology_of_zero_complex():
    z = zeros(3, 3)
    assert homology_dim(z, z, P) == 3


def test_homology_exact_spot():
    assert homology_dim(eye(2), zeros(0, 2), P) == 0


def test_homology_injective_outgoing():
    assert homology_dim(zeros(1, 1), array([[1]]), P) == 0


def test_homology_rejects_noncomplex():
    with pytest.raises(ComposeError):
        homology_dim(eye(2), eye(2), P)


def test_rank_nullity_on_random_matrices():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(0, 8)
        cols = rng.randint(0, 8)
        m = array([[rng.randrange(P) for _ in range(cols)]
                   for _ in range(rows)]).reshape(rows, cols)
        assert rank_of_array(m, P) + kernel_of_array(m, P).shape[1] == cols
        assert rank_of_array(m, P) <= min(rows, cols)


def test_kernel_columns_are_killed():
    rng = random.Random(5)
    m = matrix([[rng.randrange(7) for _ in range(6)] for _ in range(4)])
    k = kernel_of_array(m, P)
    assert not any(compose(m, k, P).cols)


def test_determinism():
    rng = random.Random(3)
    m = matrix([[rng.randrange(P) for _ in range(5)] for _ in range(5)])
    first = kernel_of_array(m, P)
    second = kernel_of_array(m, P)
    assert (first.shape, first.cols) == (second.shape, second.cols)


@pytest.mark.parametrize("p", [2, 3, 32003])
@pytest.mark.parametrize("density", [1.0, 0.05])
def test_sparse_elimination_matches_dense_referee(p, density):
    rng = random.Random(f"{p}:{density}")
    shapes = [(rows, cols) for rows in range(13) for cols in range(13)]
    shapes += [(72, 168), (168, 72), (40, 40), (1, 168)]
    for rows, cols in shapes:
        _agrees_with_dense_referee(
            _random_array(rng, rows, cols, p, density), p)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_compose_matches_dense_product(p):
    # sparse columns with one entry other than 1 take the scaled-column
    # path of Matrix.apply; every stored entry stays nonzero mod p
    rng = random.Random(p)
    for density in (1.0, 0.3, 0.05):
        for _ in range(60):
            rows, mid, cols = (rng.randint(0, 12) for _ in range(3))
            B = _random_array(rng, rows, mid, p, density)
            A = _random_array(rng, mid, cols, p, density)
            product = compose(_sparse(B, p), _sparse(A, p), p)
            assert product.shape == (rows, cols)
            assert all(0 < v < p for col in product.cols
                       for v in col.values())
            assert np.array_equal(_dense(product), (B @ A) % p)


def test_dense_input_reads_as_the_same_matrix():
    # rank and kernel read int64 arrays (entries reduced mod p) just as
    # the Matrix built from the same rows
    rows = [[P + 1, 2 * P], [-1, 5]]
    assert rank_of_array(array(rows), P) == rank_of_array(matrix(rows), P)
    assert kernel_of_array(array([[1, -1]]), P).cols == \
        kernel_of_array(matrix([[1, -1]]), P).cols


@given(st.data())
def test_sparse_elimination_matches_dense_referee_property(data):
    p = data.draw(st.sampled_from([2, 3, 32003]))
    rows = data.draw(st.integers(0, 12))
    cols = data.draw(st.integers(0, 12))
    density = data.draw(st.sampled_from([1.0, 0.3, 0.05]))
    rng = data.draw(st.randoms(use_true_random=False))
    _agrees_with_dense_referee(_random_array(rng, rows, cols, p, density), p)
