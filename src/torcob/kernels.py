"""The exact product kernel: every multiply in torcob runs through here.

A coefficient is a sparse map {m-key: number} on Q[m1, m2, ...]; a series
table maps t-exponent tuples to such maps.  Series pass integer numerators
(over their one denominator) and ``GradedCoeff`` passes Fractions; the loops
never convert.  ``mul_acc`` accumulates coefficient products and
``convolve`` multiplies series tables, into a new table or added into a
given one; given the same table twice, it squares it in about half the
coefficient products, each unordered pair of t-entries formed once (the
classical squaring rule, Knuth, TAOCP Vol. 2, 4.6.3).  It walks its right
operand in order of total t-degree, so under a degree cap each entry of the
left one stops at its first partner above the cap, a square's outer walk
stops at the first entry whose own square is above it, and a pair above the
cap is never visited (the short product).  Zero entries never survive in
any result.

An m-key is an m-monomial packed into one integer (FLINT's packed exponent
vectors; Monagan-Pearce, CASC 2007): the exponent of m_i sits in bit field
i - 1, each field W bits wide, so the product of two monomials is the sum of
their keys and 1 is the key 0.  ``pack`` and ``unpack`` convert from and to
the trimmed exponent tuples of ``coeff``, and ``generator`` gives the key of
one m_k.  Integer order on keys is the lexicographic order with the highest
generator most significant, a monomial order.  The top bit of every field is a guard that a valid key keeps clear:
exponents run up to MAX_EXP and generators up to m_MAX_GENERATORS, and
``pack`` refuses anything beyond with TooLarge.  Two valid fields sum to
less than 2^W, so a product never carries into the next field; an exponent
above MAX_EXP sets its field's guard bit, and ``mul_acc`` raises TooLarge
before such a key enters a map.  The keys that use no generator above m_k
are exactly those below 2^(W*k), which ``above_generator`` tests.

Exact division packs t-monomials the same way (``t_width``, ``t_pack``,
``t_unpack``), with fields sized to the division's truncation G rather than
fixed: each of the n fields is w = G.bit_length() + 1 bits wide, its top bit
a guard that every exponent up to G keeps clear, and t_1 sits in the most
significant field, so integer order on t-keys is the lexicographic order on
exponent tuples.  A t-monomial of degree at most G fits every field, so the
product of two whose degrees sum to at most G is the sum of their keys, and
whether one divides another is ``mdiv`` with the layout's guard bits
(``t_guard``).  ``t_mul_acc`` adds a product of two such tables into a
third, each coefficient product through ``mul_acc``; it is the
multiply-subtract step of division, and ``convolve`` stays on tuple tables.
"""

from operator import add, itemgetter

from torcob.errors import TooLarge

# Recorded with each benchmark run; the kernel has a single implementation.
BACKEND = "python"

W = 16  # bits per exponent field
MAX_EXP = (1 << (W - 1)) - 1
MAX_GENERATORS = 1024
_FIELD = (1 << W) - 1
GUARD = sum(1 << (W * i + W - 1) for i in range(MAX_GENERATORS))
_DEGREE = itemgetter(0)  # sort key of convolve's (degree, t-exponents, coefficients)


def pack(m) -> int:
    """The m-key of the exponent tuple ``m`` (position p holds the exponent of m_(p+1))."""
    if len(m) > MAX_GENERATORS:
        raise TooLarge(f"generator m{len(m)} is above the limit m{MAX_GENERATORS}")
    key = 0
    for e in reversed(m):
        if e > MAX_EXP:
            raise TooLarge(f"exponent {e} is above the limit {MAX_EXP}")
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        key = key << W | e
    return key


def generator(k: int) -> int:
    """The m-key of the Lazard generator m_k, refused as ``pack`` refuses it."""
    if k < 1:
        raise ValueError("generator index must be >= 1")
    if k > MAX_GENERATORS:
        raise TooLarge(f"generator m{k} is above the limit m{MAX_GENERATORS}")
    return 1 << W * (k - 1)


def unpack(key: int) -> tuple:
    """The trimmed exponent tuple of an m-key."""
    out = []
    while key:
        out.append(key & _FIELD)
        key >>= W
    return tuple(out)


def mdiv(a: int, b: int, guard: int = GUARD):
    """The key of a / b, None when b does not divide a: m-keys, or t-keys
    with the guard bits of their layout (``t_guard``).

    With every guard bit of a set first, no field borrows from the next, and
    a field keeps its guard bit exactly when b's exponent there is at most a's.
    """
    d = (a | guard) - b
    if d & guard != guard:
        return None
    return d ^ guard


def above_generator(maps, top) -> bool:
    """Whether a key of the coefficient maps uses a generator above m_top.

    Such a key is at least 2^(W*top), so the largest key of each map decides.
    """
    bound = 1 << W * top
    return any(c and max(c) >= bound for c in maps)


def mul_acc(out, a_items, b):
    """out += a*b for coefficient maps, with ``a_items`` the (m, q) pairs of a.

    A product key with a guard bit set (an exponent above MAX_EXP) raises
    TooLarge.  It is checked where a key enters ``out``: a key already there
    passed the check, and no valid key equals one with a guard bit.
    """
    for ma, qa in a_items:
        for mb, qb in b.items():
            # a factor 1 (the key 0) keeps the other key object, so that maps share keys
            m = ma + mb if ma and mb else ma or mb
            q = qa * qb
            s = out.get(m)
            if s is None:
                if m & GUARD:
                    raise TooLarge(f"an exponent in a product is above the limit {MAX_EXP}")
                out[m] = q
            else:
                s = s + q
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def t_width(guarantee: int) -> int:
    """Bits per field of a t-key whose exponents are at most ``guarantee``,
    the top one a guard."""
    return guarantee.bit_length() + 1


def t_guard(w: int, n: int) -> int:
    """The guard bits of a t-key of n fields of w bits."""
    return sum(1 << (w * i + w - 1) for i in range(n))


def t_pack(t, w: int) -> int:
    """The t-key of the exponent tuple ``t`` in w-bit fields, t_1 most significant."""
    key = 0
    for e in t:
        key = key << w | e
    return key


def t_unpack(key: int, w: int, n: int) -> tuple:
    """The exponent tuple of n variables of a t-key in w-bit fields."""
    mask = (1 << w) - 1
    return tuple(key >> w * i & mask for i in range(n - 1, -1, -1))


def t_mul_acc(out, a, b):
    """out += a*b for {t-key: coefficient map} tables; returns ``out``.

    A product's t-key is ta + tb, so the caller sizes the fields for every
    product it forms (``t_width``).  Every coefficient product goes through
    ``mul_acc``; a t-entry that cancels is removed.
    """
    bitems = b.items()
    for ta, ca in a.items():
        ca_items = list(ca.items())
        for tb, cb in bitems:
            t = ta + tb
            tgt = out.get(t)
            if tgt is None:
                tgt = out[t] = {}
            if not mul_acc(tgt, ca_items, cb):
                del out[t]
    return out


def convolve(a, b, cap, *, out=None):
    """Truncated product of {t-exponents: coefficient map} tables.

    Products of total t-degree above ``cap`` are never formed; pass None for
    no truncation.  With ``out`` the products are added into that table,
    which is returned; a t-entry that cancels is removed.  A square
    (``a is b``) forms each unordered pair of t-entries once: a pair of one
    entry with itself as it is, any other pair with the first entry's
    coefficients doubled, so about half the coefficient products of a
    general product.

    b's entries are walked in order of total degree, so an entry of a of
    degree da stops at its first partner above its room, cap - da (b's top
    degree when there is no cap), and a pair above the cap is never visited:
    only the low part of the product is formed (Mulders' short product;
    Hanrot and Zimmermann, J. Symb. Comput. 2004).
    """
    if out is None:
        out = {}
    bitems = [(sum(tb), tb, cb) for tb, cb in b.items()]
    if not bitems:
        return out
    bitems.sort(key=_DEGREE)
    low, top = bitems[0][0], bitems[-1][0]
    if a is b:
        # A loop of its own, so that the product loop below stays branch-free:
        # most products have a few entries, and a per-entry branch cost up to
        # a tenth of a call.  Both indices walk the one sorted list, so the
        # outer loop ends at the first entry with 2*da above the cap.
        for i, (da, ta, ca) in enumerate(bitems):
            room = top if cap is None else cap - da
            if da > room:
                break
            ca_items = list(ca.items())
            twice = [(m, q + q) for m, q in ca_items]
            for j in range(i, len(bitems)):
                db, tb, cb = bitems[j]
                if db > room:
                    break
                t = tuple(map(add, ta, tb))
                tgt = out.get(t)
                if tgt is None:
                    tgt = out[t] = {}
                if not mul_acc(tgt, twice if j > i else ca_items, cb):
                    del out[t]
        return out
    for ta, ca in a.items():
        room = top if cap is None else cap - sum(ta)
        if room < low:  # no partner fits: build nothing for this entry
            continue
        ca_items = list(ca.items())
        for db, tb, cb in bitems:
            if db > room:
                break
            t = tuple(map(add, ta, tb))
            tgt = out.get(t)
            if tgt is None:
                tgt = out[t] = {}
            if not mul_acc(tgt, ca_items, cb):
                del out[t]
    return out
