"""Exact linear algebra over the rationals (sparse Gaussian elimination).

Each pivot row is kept normalized to 1 at its pivot, its leftmost entry.  An
incoming row is reduced by sweeping its own columns in increasing order,
fill-in included, and subtracting a pivot row only where the row meets that
pivot's column; the work is proportional to the nonzeros touched, not to the
number of pivots.  The reduced row is unique (it is the row minus the one
combination of pivot rows that clears every pivot column), so the pivots,
the statuses and the solution do not depend on the sweep order.

Right-hand sides ride along as sparse maps {label: Fraction}, one entry per
right-hand-side column, so one elimination serves every column.
"""

from __future__ import annotations

import heapq

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


def _sub_scaled(b, f, pb):
    """b - f * pb for sparse maps, as a new map without zero entries."""
    out = dict(b)
    for key, q in pb.items():
        val = out.get(key, 0) - f * q
        if val:
            out[key] = val
        else:
            out.pop(key, None)
    return out


def _reduce(row, b, pivots):
    """Clear every pivot column from ``row`` in place; returns the reduced b.

    ``pivots`` maps a pivot column to its (row, right-hand side).
    """
    heap = list(row)
    heapq.heapify(heap)
    while heap:
        col = heapq.heappop(heap)
        f = row.get(col)
        piv = pivots.get(col)
        if f is None or piv is None:
            continue
        prow, pb = piv
        for c2, v2 in prow.items():
            val = row.get(c2)
            if val is None:
                row[c2] = -f * v2
                heapq.heappush(heap, c2)
            else:
                val -= f * v2
                if val:
                    row[c2] = val
                else:
                    del row[c2]
        if pb:
            b = _sub_scaled(b, f, pb)
    return b


def _add_pivot(row, b, pivots):
    """Normalize a reduced nonzero row at its leftmost column and store it."""
    col = min(row)
    piv = row[col]
    if piv != 1:
        for c2 in row:
            row[c2] /= piv
        b = {key: q / piv for key, q in b.items()}
    pivots[col] = (row, b)


def solve(rows, rhs, ncols):
    """Solve A x = b for sparse rows {col: Fraction}.

    Each entry of ``rhs`` is a number, or a map {label: Fraction} that holds
    the entries of several right-hand sides at once; the solution entries
    are then maps of the same shape.  Returns (status, solution); the
    solution is a list when the status is UNIQUE, otherwise None.  Rows are
    taken in order, and the first row that reduces to 0 = b with b nonzero
    (in any right-hand side) makes the system INCONSISTENT; a consistent
    system with fewer pivots than columns is UNDERDETERMINED.
    """
    several = any(isinstance(b, dict) for b in rhs)
    pivots = {}
    for row, b in zip(rows, rhs):
        row = dict(row)
        b = _reduce(row, b if several else ({0: b} if b else {}), pivots)
        if row:
            _add_pivot(row, b, pivots)
        elif b:
            return INCONSISTENT, None
    if len(pivots) < ncols:
        return UNDERDETERMINED, None
    # back substitution
    x = [None] * ncols
    for col in sorted(pivots, reverse=True):
        prow, b = pivots[col]
        for c2, v2 in prow.items():
            if c2 != col and x[c2]:
                b = _sub_scaled(b, v2, x[c2])
        x[col] = b
    return UNIQUE, x if several else [b.get(0, 0) for b in x]


def rank(rows):
    """Rank of a sparse rational matrix given as rows {col: Fraction}."""
    pivots = {}
    for row in rows:
        row = dict(row)
        _reduce(row, {}, pivots)
        if row:
            _add_pivot(row, {}, pivots)
    return len(pivots)
