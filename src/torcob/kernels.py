"""The exact product kernel: every multiply in torcob runs through here.

A coefficient is a sparse map {m-exponents: Fraction} on Q[m1, m2, ...]
(trimmed exponent tuples, as in ``coeff``); a series table maps t-exponent
tuples to such maps; a flat table maps (t-exponents, m-exponents) pairs to
Fractions.  One function per loop: ``madd`` multiplies m-monomials,
``mul_acc`` accumulates coefficient products, ``convolve`` multiplies series
tables and ``flat_mul_sub`` subtracts flat products.  Zero entries never
survive in any result.
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


def convolve(a, b, cap):
    """Truncated product of {t-exponents: coefficient map} tables.

    Products of total t-degree above ``cap`` are dropped; pass None for no
    truncation.
    """
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
            mul_acc(tgt, ca_items, cb)
    for t in [t for t, c in out.items() if not c]:
        del out[t]
    return out


def flat_mul_sub(r, a, b):
    """r -= a*b on flat {(t-exponents, m-exponents): Fraction} tables."""
    for (ta, ma), qa in a.items():
        for (tb, mb), qb in b.items():
            key = (tuple(x + y for x, y in zip(ta, tb)), madd(ma, mb))
            s = r.get(key)
            if s is None:
                r[key] = -qa * qb
            else:
                s = s - qa * qb
                if s:
                    r[key] = s
                else:
                    del r[key]
