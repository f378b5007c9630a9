"""The sparse solver against a dense Gauss-Jordan elimination written here."""

import random
from fractions import Fraction

import pytest

from torcob.linalg import INCONSISTENT, UNDERDETERMINED, UNIQUE, rank, solve


def dense_gauss_jordan(rows, rhs, ncols):
    """(status, solution, rank of A) by full reduction of the augmented matrix."""
    m = [[Fraction(r.get(c, 0)) for c in range(ncols)] + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivot_cols = []
    top = 0
    for c in range(ncols):
        p = next((i for i in range(top, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[top], m[p] = m[p], m[top]
        lead = m[top][c]
        m[top] = [x / lead for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[top])]
        pivot_cols.append(c)
        top += 1
    r = len(pivot_cols)
    if any(row[ncols] for row in m[r:]):
        return INCONSISTENT, None, r
    if r < ncols:
        return UNDERDETERMINED, None, r
    return UNIQUE, [m[i][ncols] for i in range(ncols)], r


def sparse_row(rng, ncols, density):
    row = {}
    for c in range(ncols):
        if rng.random() < density:
            row[c] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))
    return row


def combine(rng, rows, rhs):
    """A random combination of two of the given rows, with its right-hand side."""
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    a, b = Fraction(rng.choice([1, -1, 2])), Fraction(rng.choice([1, -2, 3]), 2)
    row = {}
    for c in set(rows[i]) | set(rows[j]):
        v = a * rows[i].get(c, 0) + b * rows[j].get(c, 0)
        if v:
            row[c] = v
    return row, a * rhs[i] + b * rhs[j]


def random_system(rng, kind):
    """A sparse system of the given kind, with duplicate rows, in shuffled order."""
    ncols = rng.randint(1, 14)
    nrows = ncols if kind != UNDERDETERMINED else rng.randint(1, max(1, ncols - 1))
    rows, rhs = [], []
    while len(rows) < nrows:
        row = sparse_row(rng, ncols, rng.choice([0.15, 0.3, 0.5]))
        if row:
            rows.append(row)
            rhs.append(Fraction(rng.randint(-4, 4)))
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(len(rows))
        rows.append(dict(rows[k]))
        rhs.append(rhs[k])
    for _ in range(rng.randint(0, 3)):
        row, b = combine(rng, rows, rhs)
        if row:
            rows.append(row)
            rhs.append(b)
    if kind == INCONSISTENT:
        row, b = combine(rng, rows, rhs)
        if row:
            rows.append(row)
            rhs.append(b + rng.choice([1, -1, Fraction(1, 2)]))
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [rows[i] for i in order], [rhs[i] for i in order], ncols


@pytest.mark.parametrize("kind", [UNIQUE, INCONSISTENT, UNDERDETERMINED])
def test_solve_and_rank_match_dense_oracle(kind):
    rng = random.Random(f"linalg-{kind}")
    seen = set()
    for _ in range(250):
        rows, rhs, ncols = random_system(rng, kind)
        want_status, want_x, want_rank = dense_gauss_jordan(rows, rhs, ncols)
        snapshot = [dict(r) for r in rows], list(rhs)
        status, x = solve(rows, rhs, ncols)
        assert (status, x) == (want_status, want_x), (rows, rhs, ncols)
        assert rank(rows) == want_rank
        assert ([dict(r) for r in rows], list(rhs)) == snapshot  # inputs untouched
        seen.add(status)
    # the generator reaches every status from every kind it is asked for
    assert kind in seen


def test_fill_in_at_a_pivot_column_is_eliminated():
    # The third row meets only pivot 0; subtracting the first row fills in
    # column 1, the second row's pivot, which the sweep must clear as well.
    rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}, {0: Fraction(1)}]
    assert solve(rows, [3, 5, 1], 3) == (UNIQUE, [1, 2, 3])
    assert rank(rows) == 3
    assert rank(rows + [{0: 1, 2: 1}]) == 3


def test_inconsistent_is_reported_before_underdetermined():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(2), 1: Fraction(2)}]
    assert solve(rows, [1, 3], 3) == (INCONSISTENT, None)
    assert solve(rows, [1, 2], 3) == (UNDERDETERMINED, None)


def test_empty_and_zero_rows():
    assert solve([], [], 0) == (UNIQUE, [])
    assert solve([{}], [0], 1) == (UNDERDETERMINED, None)
    assert solve([{}], [2], 1) == (INCONSISTENT, None)
    assert rank([{}, {}]) == 0


def test_several_right_hand_sides_match_one_at_a_time():
    rng = random.Random("linalg-several")
    for kind in (UNIQUE, INCONSISTENT, UNDERDETERMINED):
        for _ in range(60):
            rows, _, ncols = random_system(rng, kind)
            columns = {}
            for label in ("a", "b", "c"):
                x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
                b = [sum(q * x[c] for c, q in row.items()) for row in rows]
                if rng.random() < 0.2:
                    b[rng.randrange(len(b))] += 1
                columns[label] = b
            rhs = [{label: b[i] for label, b in columns.items() if b[i]} for i in range(len(rows))]
            singles = {label: solve(rows, b, ncols) for label, b in columns.items()}
            status, x = solve(rows, rhs, ncols)
            statuses = {s for s, _ in singles.values()}
            if INCONSISTENT in statuses:
                assert (status, x) == (INCONSISTENT, None)
            elif UNDERDETERMINED in statuses:
                assert (status, x) == (UNDERDETERMINED, None)
            else:
                assert status == UNIQUE
                for label, (_, want) in singles.items():
                    assert [part.get(label, 0) for part in x] == want
                assert all(0 not in part.values() for part in x)
