import random

import numpy as np
import pytest

from bicoh.errors import ComposeError
from bicoh.linalg import homology_dim, kernel_of_array, rank_of_array

P = 32003


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def eye(size):
    return np.eye(size, dtype=np.int64)


def array(entries):
    return np.array(entries, dtype=np.int64)


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
    k = kernel_of_array(array([[1, 1]]), P)
    assert k.shape[1] == 1
    v = k[:, 0]
    assert (v[0] + v[1]) % P == 0 and v.any()


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
    m = array([[rng.randrange(7) for _ in range(6)] for _ in range(4)])
    k = kernel_of_array(m, P)
    assert not np.any((m @ k) % P)


def test_determinism():
    rng = random.Random(3)
    m = array([[rng.randrange(P) for _ in range(5)] for _ in range(5)])
    first = kernel_of_array(m, P)
    second = kernel_of_array(m, P)
    assert np.array_equal(first, second)
