import random
from fractions import Fraction as F

import pytest

from inducibility.matrices import det, psd_check


def test_psd_identity_and_indefinite():
    assert psd_check([[1 if i == j else 0 for j in range(6)] for i in range(6)])
    assert not psd_check([[1, 2], [2, 1]])      # det = -3
    assert not psd_check([[1, 2], [3, 1]])      # asymmetric


def test_malformed_rows_raise():
    """Ragged and non-square rows are a ValueError (a usage error at the CLI)."""
    for rows in ([[1, 0], [0]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError):
            psd_check(rows)
        with pytest.raises(ValueError):
            det(rows)


def test_det_exact():
    assert det([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]) == F(1, 14) - F(1, 15)
    assert det([[2]]) == 2
    assert det([[1, 2], [2, 4]]) == 0
    assert det([]) == 1


def test_psd_against_cholesky():
    """200 random symmetric matrices with eigenvalues pushed off zero."""
    numpy = pytest.importorskip("numpy")
    rng = random.Random(11)
    agree = 0
    for trial in range(200):
        n = rng.randint(2, 5)
        a = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        # A^T A + d I is PSD for d >= 0, indefinite-ish for d very negative
        d = rng.choice([F(1), F(2), F(-4), F(-9)])
        m = [[sum(a[k][i] * a[k][j] for k in range(n)) + (d if i == j else 0)
              for j in range(n)] for i in range(n)]
        ours = psd_check(m)
        arr = numpy.array([[float(x) for x in row] for row in m])
        eig = numpy.linalg.eigvalsh(arr)
        if abs(min(eig)) < 1e-3:
            continue  # too close to singular for the float oracle
        try:
            numpy.linalg.cholesky(arr)
            theirs = True
        except numpy.linalg.LinAlgError:
            theirs = False
        assert ours == theirs, (m, eig)
        agree += 1
    assert agree >= 150


def test_psd_check_is_every_leading_minor_positive():
    """psd_check reads the Bareiss pivots; the reference takes each leading
    block's determinant on its own. Seeded symmetric matrices with small
    entries, zeros often, so zero and negative minors (and the row swaps
    that follow a zero pivot) both occur."""
    rng = random.Random(30)
    seen = {"zero": 0, "negative": 0, "pass": 0}
    for _ in range(400):
        n = rng.randint(1, 5)
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = F(0) if rng.random() < 0.3 else F(rng.randint(-2, 3), rng.randint(1, 2))
                m[i][j] = m[j][i] = x + (2 if i == j else 0)
        minors = [det([r[:k] for r in m[:k]]) for k in range(1, n + 1)]
        assert psd_check(m) == all(d > 0 for d in minors), m
        seen["zero"] += 0 in minors
        seen["negative"] += any(d < 0 for d in minors)
        seen["pass"] += all(d > 0 for d in minors)
    assert min(seen.values()) >= 20, seen
