"""The exact product kernel: every multiply in torcob runs through here.

A coefficient is a sparse map {m-exponents: number} on Q[m1, m2, ...]
(trimmed exponent tuples, as in ``coeff``); a series table maps t-exponent
tuples to such maps.  Series pass integer numerators (over their one
denominator) and ``GradedCoeff`` passes Fractions; the loops never convert.
One function per loop: ``madd`` multiplies m-monomials (``mdiv`` divides
them), ``mul_acc`` accumulates coefficient products and ``convolve``
multiplies series tables, into a new table or added into a given one.  Zero
entries never survive in any result.
"""

# Recorded with each benchmark run; the kernel has a single implementation.
BACKEND = "python"


def madd(a, b):
    """Product of two trimmed m-monomials; sums of nonnegative exponents stay trimmed."""
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    la = list(a)
    for i, x in enumerate(b):
        la[i] += x
    return tuple(la)


def mdiv(a, b):
    """Quotient a / b of trimmed m-monomials, None when b does not divide a."""
    if len(b) > len(a):
        return None
    q = [x - y for x, y in zip(a, b)]
    if q and min(q) < 0:
        return None
    q += a[len(b):]
    while q and not q[-1]:
        q.pop()
    return tuple(q)


def mul_acc(out, a_items, b):
    """out += a*b for coefficient maps, with ``a_items`` the (m, q) pairs of a."""
    for ma, qa in a_items:
        for mb, qb in b.items():
            m = madd(ma, mb)
            q = qa * qb
            s = out.get(m)
            if s is None:
                out[m] = q
            else:
                s = s + q
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def convolve(a, b, cap, *, out=None):
    """Truncated product of {t-exponents: coefficient map} tables.

    Products of total t-degree above ``cap`` are dropped; pass None for no
    truncation.  With ``out`` the products are added into that table, which
    is returned; a t-entry that cancels is removed.
    """
    if out is None:
        out = {}
    bitems = [(tb, sum(tb), cb) for tb, cb in b.items()]
    for ta, ca in a.items():
        da = sum(ta)
        ca_items = list(ca.items())
        for tb, db, cb in bitems:
            if cap is not None and da + db > cap:
                continue
            t = tuple(x + y for x, y in zip(ta, tb))
            tgt = out.get(t)
            if tgt is None:
                tgt = out[t] = {}
            if not mul_acc(tgt, ca_items, cb):
                del out[t]
    return out
