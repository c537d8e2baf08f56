"""Genus-2 L-polynomials from the Jacobian order, with the Hasse-Witt
matrix where that order leaves c2 open.

For y^2 = f(x) of genus 2 at a good prime p, the F_p count gives c1
exactly, and the Weil bound leaves c2 in one integer interval,
lpoly.weil_c2(p, c1), at most 4p wide.  #J(F_p) = P(1) must kill every
point of the Jacobian.  Baby-step giant-step (BSGS) over that interval
finds the c2 whose P(1) kills a base point D in about 4 sqrt(p) group
operations by Cantor's algorithm on a monic model (Kedlaya-Sutherland,
"Computing L-series of hyperelliptic curves", ANTS VIII, 2008); one such
c2 is the answer.  D is the sum of the first two points with y != 0: a
point with y = 0 is a Weierstrass point, of order 2.

Only where BSGS leaves more than one c2, because D has a small order (on
split Jacobians, mostly), or finds no base point, does the O(p) route
run: the Hasse-Witt matrix W (W_ij is the coefficient of x^(ip-j) in
f^((p-1)/2)) gives c1 = -tr W and c2 = det W mod p (Manin); the c2
congruent to det W among BSGS's are kept, and the further points P - inf
of the Jacobian are tried in turn, by the same search, until one is left.  Where
they leave more than one, which no prime above 7 has done,
counting.frobenius enumerates F_{p^2} in O(p^2) steps.  On the primes
that BSGS settles W is not built, so tr W = -c1 goes unchecked there; the
Weil bound, and a BSGS that finds no c2 at all, still raise.

The path holds at every odd good prime.  The model is f over its leading
coefficient, the curve or its quadratic twist, whose Jacobian has order
P(-1); a sextic with a root mod p is first made a quintic.  A sextic
without one keeps a real model of degree 6, whose classes are balanced
divisors (Galbraith-Harrison-Mireles Morales, "Efficient hyperelliptic
arithmetic using balanced representation for divisors", ANTS VIII, 2008).
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Optional

import numpy as np

from .arith import poly_add, poly_divmod, poly_mul, poly_sub, poly_xgcd
from .lpoly import LPoly, LPolyValidationError, weil_c2

# the neutral divisor in Mumford form (u, v) = (1, 0), and on a real model
# the balanced inf+ + inf- - (inf+ + inf-)
_NEUTRAL = ([1], [])
_REAL_NEUTRAL = ([1], [], 1)


def _shift(f: list[int], a: int, p: int) -> list[int]:
    """Coefficients of f(x + a) by Horner's rule."""
    out: list[int] = []
    for c in reversed(f):
        out = poly_add(poly_mul(out, [a, 1], p), [c], p) if out else [c]
    return out


def _inverses(p: int) -> list[int]:
    """inv[k] = 1/k mod p for 1 <= k < p, from p = (p // k) k + p % k;
    inv[0] is unused."""
    inv = [0, 1] + [0] * (p - 2)
    for k in range(2, p):
        inv[k] = -(p // k) * inv[p % k] % p
    return inv


def _power_coeffs(h: list[int], n: int, m: int, inv: list[int], p: int) -> list[int]:
    """Coefficients 0..m of (h / h_0)^n mod p, for h_0 != 0 and m < p.

    From h g' = n h' g with g = h^n and h_0 = 1:
    k g_k = sum_i ((n + 1) i - k) h_i g_(k-i), which divides by k.  Only
    the nonzero h_i take part, and g carries deg h leading zeros so that
    g_(k-i) needs no bounds test.
    """
    d = len(h) - 1
    inv_h0 = pow(h[0], p - 2, p)
    terms = [(d - i, (n + 1) * i * b % p, b)
             for i, b in enumerate(c * inv_h0 % p for c in h) if i and b]
    g = [0] * d + [1]
    for k in range(1, m + 1):
        s = 0
        for j, a, b in terms:
            s += (a - k * b) * g[k + j]
        g.append(s * inv[k] % p)
    return g[d:]


def hasse_witt(f: list[int], p: int) -> tuple[int, int]:
    """(tr W, det W) mod p for y^2 = f(x), f of degree 5 or 6 given as
    residues mod p and squarefree mod p.

    W_11 and W_12 come from f^((p-1)/2) directly.  W_21 and W_22 sit above
    x^p, so they are read from the reversed polynomial, whose power holds
    the coefficient of x^m at d(p-1)/2 - m, below p.  The recurrence needs
    a nonzero constant term: when f(0) = 0, f = x h with h(0) != 0, and the
    coefficient of x^m in f^n is the coefficient of x^(m-n) in h^n.
    """
    d, n = len(f) - 1, (p - 1) // 2
    lift = n if f[0] == 0 else 0  # f^n = x^lift h^n
    h = f[1:] if lift else f
    top = d * n - 2 * p + 2  # index of W_22 in the reversed power
    inv = _inverses(p)
    low = [0] * lift + _power_coeffs(h, n, p - 1 - lift, inv, p)
    high = _power_coeffs(f[::-1], n, top, inv, p)
    s, t = pow(h[0], n, p), pow(f[-1], n, p)
    w11, w12, w21, w22 = s * low[p - 1], s * low[p - 2], t * high[top - 1], t * high[top]
    return (w11 + w22) % p, (w11 * w22 - w12 * w21) % p


def monic_model(
    f: list[int], p: int, chi: np.ndarray, values: np.ndarray
) -> tuple[list[int], int]:
    """(F, s) with F = g / lc(g) monic and s = chi(lc(g)), given the
    character table chi and values = f mod p at every x in F_p.

    g is f itself, except for a sextic with a root r mod p, the first x
    where values vanishes: t = 1/(x - r) turns it into the quintic
    g = t^6 f(r + 1/t).  y^2 = F(x) is isomorphic to y^2 = g(x) when s = 1,
    and is its quadratic twist when s = -1, whose L-polynomial is P(-T):
    the same c2 with -c1.  F is a quintic, or a real model of degree 6
    with two points at infinity.
    """
    if len(f) == 7 and not values.all():
        f = _shift(f, int(np.argmin(values)), p)[:0:-1]
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f], int(chi[f[-1]])


# ---------------------------------------------------------------------------
# Cantor's algorithm on y^2 = F(x).  For F monic of degree 5 a divisor class
# is (u, v) with u monic of degree <= 2, deg v < deg u and u | F - v^2, the
# class of div(u, v) - (deg u) inf.  For F monic of degree 6 it is (u, v, n)
# with (u, v) as before and 0 <= n <= 2 - deg u, the class of the balanced
# divisor div(u, v) + n inf+ + (2 - deg u - n) inf- - (inf+ + inf-)
# (Galbraith-Harrison-Mireles Morales, ANTS VIII, 2008); inf+ is the point
# at infinity where y - V vanishes, for V the polynomial part of sqrt(F).
# Either form is unique to its class, so a class is neutral exactly when it
# equals _NEUTRAL or _REAL_NEUTRAL.

def _div_linear(w1: int, w0: int, r1: int, r0: int, b1: int, b0: int, p: int):
    """(s1, s0) with s1 x + s0 = (w1 x + w0) / (r1 x + r0) mod
    x^2 + b1 x + b0, or None when r1 x + r0 is not a unit there."""
    beta = r0 - b1 * r1
    res = (r0 * beta + b0 * r1 * r1) % p  # resultant of the two
    if not res:
        return None
    inv = pow(res, -1, p)
    return (w1 * beta - w0 * r1 + b1 * w1 * r1) * inv % p, (w0 * beta + b0 * w1 * r1) * inv % p


def _add_weight_two(d1, d2, F: list[int], p: int):
    """(u, v) of d1 + d2 for deg u1 = deg u2 = 2 in the generic case, by
    explicit formulas, on a quintic or a real model; None when u1, u2 (or
    u1, v1 when doubling) share a root or the sum does not have degree 2,
    which the general steps handle.

    With s = (v2 - v1) / u1 mod u2 (for a sum) or
    s = ((F - v1^2) / u1) / (2 v1) mod u1 (for a double), the reduced sum
    is u = ((F - v1^2)/u1 - 2 s v1 - s^2 u1) / u2 made monic and
    v = -(v1 + u1 s) mod u.  On a real model the sum of two classes with
    n = 0 keeps n = 0 when s1 != -1, as y - (v1 + u1 s) then has a pole of
    order 3 at inf-.
    """
    (u1, v1), (u2, v2) = d1[:2], d2[:2]
    a0, a1 = u1[0], u1[1]
    c0, c1 = (v1 + [0, 0])[:2]
    top = F[6] if len(F) == 7 else 0
    # (F - v1^2)/u1 = top x^4 + q3 x^3 + q2 x^2 + q1 x + q0
    q3 = F[5] - a1 * top
    q2 = F[4] - a1 * q3 - a0 * top
    if d1 == d2:
        b0, b1 = a0, a1
        q1 = F[3] - a1 * q2 - a0 * q3
        q0 = F[2] - c1 * c1 - a1 * q1 - a0 * q2
        # its remainder mod u1 is (q1 - a0 h3 - a1 h2) x + q0 - a0 h2
        h3 = q3 - a1 * top
        h2 = q2 - a0 * top - a1 * h3
        s = _div_linear(q1 - a0 * h3 - a1 * h2, q0 - a0 * h2, 2 * c1, 2 * c0, a1, a0, p)
    else:
        b0, b1 = u2[0], u2[1]
        e0, e1 = (v2 + [0, 0])[:2]
        s = _div_linear(e1 - c1, e0 - c0, a1 - b1, a0 - b0, b1, b0, p)
    if s is None:
        return None
    s1, s0 = s
    t2 = (top - s1 * s1) % p
    if not t2:
        return None
    t1 = q3 - s1 * s1 * a1 - 2 * s1 * s0 - b1 * t2
    t0 = q2 - s1 * s1 * a0 - 2 * s1 * s0 * a1 - s0 * s0 - 2 * s1 * c1 - b1 * t1 - b0 * t2
    inv = pow(t2, -1, p)
    w1, w0 = t1 * inv % p, t0 * inv % p
    # -(v1 + u1 s) mod x^2 + w1 x + w0, for v1 + u1 s =
    # s1 x^3 + (s0 + s1 a1) x^2 + (s1 a0 + s0 a1 + c1) x + s0 a0 + c0
    m = s0 + s1 * a1 - s1 * w1
    r1 = (s1 * w0 + m * w1 - s1 * a0 - s0 * a1 - c1) % p
    r0 = (m * w0 - s0 * a0 - c0) % p
    return [w0, w1, 1], ([r0, r1] if r1 else [r0] if r0 else [])


def cantor_add(d1, d2, F: list[int], p: int):
    """The reduced sum of two divisor classes, on a quintic or a real
    model."""
    if len(d1[0]) == len(d2[0]) == 3:
        total = _add_weight_two(d1, d2, F, p)
        if total is not None:
            return total + (0,) if len(F) == 7 else total
    if len(F) == 7:
        return _real_add(d1, d2, F, p)
    if d1[0] == [1]:
        return d2
    if d2[0] == [1]:
        return d1
    return _cantor(d1, d2, F, p)


def _compose(d1, d2, F: list[int], p: int):
    """Cantor's composition: the semi-reduced (u, v) of div(u1, v1) +
    div(u2, v2), u monic and deg v < deg u, and the number of pairs
    P + iota(P) it took out, the degree of the gcd that removed them."""
    (u1, v1), (u2, v2) = d1[:2], d2[:2]
    d0, e1, e2 = poly_xgcd(u1, u2, p)
    if d0 == [1]:
        d, s1, s2, s3 = d0, e1, e2, []
    else:
        d, c1, s3 = poly_xgcd(d0, poly_add(v1, v2, p), p)
        s1, s2 = poly_mul(c1, e1, p), poly_mul(c1, e2, p)
    u = poly_mul(u1, u2, p)
    num = poly_add(
        poly_add(poly_mul(poly_mul(s1, u1, p), v2, p), poly_mul(poly_mul(s2, u2, p), v1, p), p),
        poly_mul(s3, poly_add(poly_mul(v1, v2, p), F, p), p),
        p,
    )
    if d != [1]:
        u = poly_divmod(u, poly_mul(d, d, p), p)[0]
        num = poly_divmod(num, d, p)[0]
    return u, poly_divmod(num, u, p)[1], len(d) - 1


def _cantor(d1, d2, F: list[int], p: int):
    """Cantor's composition and reduction on a quintic model, for every
    case."""
    u, v, _ = _compose(d1, d2, F, p)
    while len(u) > 3:
        u = poly_divmod(poly_sub(F, poly_mul(v, v, p), p), u, p)[0]
        v = poly_divmod(poly_sub([], v, p), u, p)[1]
    inv = pow(u[-1], p - 2, p)
    return [c * inv % p for c in u], v


def _sqrt_part(F: list[int], p: int) -> list[int]:
    """V = x^3 + a x^2 + b x + c with deg(F - V^2) <= 2, for F monic of
    degree 6."""
    half = (p + 1) // 2
    a = F[5] * half % p
    b = (F[4] - a * a) * half % p
    c = (F[3] - 2 * a * b) * half % p
    return [c, b, a, 1]


def _real_add(d1, d2, F: list[int], p: int):
    """The sum of two balanced classes (u, v, n) on a real model.

    Composition leaves D = div(u, v) + n inf+ + m inf- - 2 (inf+ + inf-)
    with deg u + n + m = 4, each pair P + iota(P) it took out counted as
    inf+ + inf-, which differs from it by div(x - x(P)).  When deg u <= 2
    and n, m >= 1 this is the balanced form.  Otherwise one step by
    div(y - w) gets there, for a lift w = v mod u.  It is
    div(u, v) + div(u', w) - A inf+ - B inf-, with u u' = F - w^2 and A, B
    the pole orders of y - w at inf+ and inf- (deg(V - w) and deg(V + w)
    where nonzero), so D is the class of
    div(u', -w) + (n + deg u - B) inf+ + (m + deg u - A) inf-
    - 2 (inf+ + inf-).  The lift w = V - ((V - v) mod u) takes the excess
    off inf+ when n >= m, its mirror w = ((V + v) mod u) - V off inf-
    when n < m; in every case composition leaves, one step balances D.
    """
    u, v, pairs = _compose(d1, d2, F, p)
    d = len(u) - 1
    n = d1[2] + d2[2] + pairs
    m = 4 - d - n
    if d <= 2 and n and m:
        return u, v, n - 1
    V = _sqrt_part(F, p)
    if n >= m:
        w = poly_sub(V, poly_divmod(poly_sub(V, v, p), u, p)[1], p)
    else:
        w = poly_sub(poly_divmod(poly_add(V, v, p), u, p)[1], V, p)
    u = poly_divmod(poly_sub(F, poly_mul(w, w, p), p), u, p)[0]
    inv = pow(u[-1], p - 2, p)
    u = [c * inv % p for c in u]
    # B = deg(V + w), or where w = -V, deg(F - V^2) - 3 = deg u + deg u' - 3
    total = poly_add(V, w, p)
    pole = len(total) - 1 if total else d + len(u) - 4
    return u, poly_divmod(poly_sub([], w, p), u, p)[1], n + d - pole - 1


def _neutral(F: list[int]):
    return _REAL_NEUTRAL if len(F) == 7 else _NEUTRAL


def cantor_mul(n: int, d, F: list[int], p: int):
    """n * d for n >= 0 by double and add.  A divisor of degree 1 is
    doubled first, so that the additions meet the weight-two formulas."""
    if len(d[0]) == 2 and n > 1:
        half = cantor_mul(n >> 1, cantor_add(d, d, F, p), F, p)
        return cantor_add(half, d, F, p) if n & 1 else half
    if not n:
        return _neutral(F)
    acc = d
    for bit in bin(n)[3:]:
        acc = cantor_add(acc, acc, F, p)
        if bit == "1":
            acc = cantor_add(acc, d, F, p)
    return acc


def _jacobian_points(F: list[int], chi: np.ndarray, p: int):
    """Divisors (x - x0, y0) for every x0 = 0, 1, 2, ... with F(x0) a
    square, on a real model with n = 0, the class of P - inf+; y0 is read
    from a table of square roots, root[a^2 mod p] = a for
    0 <= a <= (p-1)/2."""
    half = np.arange((p + 1) // 2, dtype=np.int64)
    root = np.zeros(p, dtype=np.int64)
    root[half * half % p] = half
    for x0 in range(p):
        value = 0
        for c in reversed(F):
            value = (value * x0 + c) % p
        if chi[value] >= 0:
            y0 = int(root[value])
            point = [-x0 % p, 1], [y0] if y0 else []
            yield point + (0,) if len(F) == 7 else point


def _key(d):
    """A divisor class as a dict key: its reduced form, unique to it."""
    return (tuple(d[0]), tuple(d[1])) + d[2:]


def _killers(F: list[int], D, base: int, candidates: range, p: int) -> range:
    """The c2 in candidates, an arithmetic progression c + k e for
    0 <= k < K, whose P(1) = base + c2 kills the class D, by baby-step
    giant-step (Shanks).

    With E = e D the condition is (base + c) D + k E = 0, which holds on
    k = k0 mod ord(E).  Baby steps key j E by class for j < m, m^2 >= K; a
    repeat, first met at j = ord(E) as the neutral class, ends them with
    the order known, and k0 is read from the table.  Otherwise giant steps
    (base + c) D + i (m E), i <= m, meet baby step j at k = i m - j, which
    covers each k in [0, K) once and negates no class; the first two hits
    in range differ by ord(E).
    """
    count = len(candidates)
    if not count:
        return candidates
    neutral = _neutral(F)
    E = cantor_mul(candidates.step, D, F, p)
    m = math.isqrt(count - 1) + 1
    baby, step = {}, neutral
    for j in range(m):
        if j and step == neutral:
            break
        baby[_key(step)] = j
        step = cantor_add(step, E, F, p)
    giant = cantor_mul(base + candidates.start, D, F, p)
    if len(baby) < m:
        order, j = len(baby), baby.get(_key(giant))
        return candidates[:0] if j is None else candidates[-j % order :: order]
    hits = []
    for i in range(m + 1):
        j = baby.get(_key(giant))
        if j is not None and 0 <= i * m - j < count:
            hits.append(i * m - j)
            if len(hits) == 2:
                return candidates[hits[0] :: hits[1] - hits[0]]
        giant = cantor_add(giant, step, F, p)
    return candidates[hits[0] : hits[0] + 1] if hits else candidates[:0]


def _base_point(F: list[int], chi: np.ndarray, p: int):
    """D = P1 + P2 for the first two Jacobian points with y != 0, or None
    when there are fewer.  A point with y = 0 is a Weierstrass point, of
    order 2, and D has weight two, so its multiples meet the explicit
    formulas."""
    pair = list(islice((point for point in _jacobian_points(F, chi, p) if point[1]), 2))
    return cantor_add(*pair, F, p) if len(pair) == 2 else None


def _congruent(r: range, a: int, p: int) -> range:
    """The elements of r congruent to a mod the prime p."""
    if r.step % p:
        return r[(a - r.start) * pow(r.step, -1, p) % p :: p]
    return r if (a - r.start) % p == 0 else r[:0]


def _jacobian_survivors(F, base: int, candidates: range, chi, p: int) -> range:
    """The candidates c2 whose P(1) = base + c2 kills each Jacobian point
    tried, stopping early once one is left."""
    for point in _jacobian_points(F, chi, p):
        if len(candidates) <= 1:
            break
        candidates = _killers(F, point, base, candidates, p)
    return candidates


def hasse_witt_lpoly(
    f_coeffs: tuple[int, ...], p: int, c1: int, chi: np.ndarray, values: np.ndarray
) -> Optional[LPoly]:
    """The genus-2 L-polynomial at an odd good prime p, given c1 from the
    F_p count, the character table chi and values = f mod p at every x in
    F_p; None when the Jacobian points leave more than one c2, so the
    caller has to enumerate F_{p^2}.

    The Jacobian searched is that of the monic model, a twist when s = -1,
    so its order is P(1) with s c1 in place of c1.  BSGS first finds the c2
    in weil_c2(p, c1) whose P(1) kills the base point D; a single one is
    the answer, and W is not built, so tr W = -c1 goes unchecked on those
    primes.  Otherwise W keeps the c2 = det W mod p among BSGS's, whose
    P(1) are the multiples of ord(D) in range, and the Jacobian points
    pick among what is left.  LPolyValidationError when no c2 kills D or
    survives, or W contradicts c1, which would be a bug; a c1 outside the
    Weil bound c1^2 <= 16p leaves no candidate.
    """
    f = [a % p for a in f_coeffs]
    F, s = monic_model(f, p, chi, values)
    base = p * p + 1 + (p + 1) * s * c1
    candidates = weil_c2(p, c1)
    D = _base_point(F, chi, p)
    if D is not None:
        candidates = _killers(F, D, base, candidates, p)
    if D is None or len(candidates) > 1:
        trace, det = hasse_witt(f, p)
        if (c1 + trace) % p:
            raise LPolyValidationError(f"tr W = {trace} contradicts c1 = {c1} at p={p}")
        candidates = _congruent(candidates, det, p)
        if len(candidates) > 1:
            candidates = _jacobian_survivors(F, base, candidates, chi, p)
    if not candidates:
        raise LPolyValidationError(f"no c2 in the Weil bound fits the Jacobian at p={p}")
    if len(candidates) > 1:
        return None
    return LPoly(genus=2, p=p, c1=c1, c2=candidates[0])
