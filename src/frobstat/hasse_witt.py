"""Genus-2 L-polynomials from the Hasse-Witt matrix and the Jacobian order.

For y^2 = f(x) of genus 2 at a good prime p, the F_p count gives c1
exactly.  The Hasse-Witt matrix W (W_ij is the coefficient of x^(ip-j) in
f^((p-1)/2)) gives c1 = -tr W and c2 = det W mod p (Manin), and the Weil
conditions leave a handful of integers c2 = det W + kp.  When more than one
is left, the right one is the c2 whose #J(F_p) = P(1) kills points of the
Jacobian, tested by Cantor's algorithm on a monic quintic model
(Kedlaya-Sutherland, "Computing L-series of hyperelliptic curves",
ANTS VIII, 2008).  This costs O(p) operations on Python integers against
the O(p^2) of counting over F_{p^2}.

The path holds at every odd good prime.  A monic quintic model exists for
every quintic, and for a sextic with a root mod p, read from the values of
f that the F_p count evaluates; a sextic without one is left to the F_{p^2}
count.  So are the rare primes where the Jacobian points leave more than
one candidate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .arith import poly_add, poly_divmod, poly_mul, poly_sub, poly_xgcd
from .lpoly import LPoly, LPolyValidationError, weil_ok

# points of the Jacobian tried before the candidates go back to the count
JACOBIAN_POINTS = 4

# the neutral divisor in Mumford form (u, v) = (1, 0)
_NEUTRAL = ([1], [])


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


def monic_quintic_model(f: list[int], p: int, root: Optional[int]) -> list[int]:
    """A monic quintic F with y^2 = F(x) isomorphic over F_p to y^2 = f(x).

    A sextic needs a root r of f mod p: t = 1/(x - r) turns it into the
    quintic t^6 f(r + 1/t).  A quintic with leading coefficient c becomes
    monic under x = X/c, Y = c^2 y, with coefficients f_i c^(4-i).
    """
    if len(f) == 7:
        f = _shift(f, root, p)[:0:-1]
    c = f[-1]
    return [a * pow(c, 4 - i, p) % p for i, a in enumerate(f[:-1])] + [1]


# ---------------------------------------------------------------------------
# Cantor's algorithm on y^2 = F(x), F monic of degree 5: a divisor class is
# (u, v) with u monic of degree <= 2, deg v < deg u and u | F - v^2

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
    """d1 + d2 for deg u1 = deg u2 = 2 in the generic case, by explicit
    formulas; None when u1, u2 (or u1, v1 when doubling) share a root or
    the sum has degree below 2, which the general steps handle.

    With V = v1 + u1 s, where s = (v2 - v1) / u1 mod u2 (for a sum) or
    s = ((F - v1^2) / u1) / (2 v1) mod u1 (for a double), the reduced sum
    is u = ((F - v1^2)/u1 - 2 s v1 - s^2 u1) / u2 made monic and v = -V
    mod u.
    """
    (u1, v1), (u2, v2) = d1, d2
    a0, a1 = u1[0], u1[1]
    c0, c1 = (v1 + [0, 0])[:2]
    q2 = F[4] - a1  # (F - v1^2)/u1 = x^3 + q2 x^2 + q1 x + q0
    if d1 == d2:
        b0, b1 = a0, a1
        q1 = F[3] - a1 * q2 - a0
        q0 = F[2] - c1 * c1 - a1 * q1 - a0 * q2
        m = q2 - a1
        s = _div_linear(q1 - a0 - m * a1, q0 - m * a0, 2 * c1, 2 * c0, a1, a0, p)
    else:
        b0, b1 = u2[0], u2[1]
        e0, e1 = (v2 + [0, 0])[:2]
        s = _div_linear(e1 - c1, e0 - c0, a1 - b1, a0 - b0, b1, b0, p)
    if s is None or s[0] == 0:
        return None
    s1, s0 = s
    t2 = -s1 * s1
    t1 = 1 - s1 * s1 * a1 - 2 * s1 * s0 - b1 * t2
    t0 = q2 - s1 * s1 * a0 - 2 * s1 * s0 * a1 - s0 * s0 - 2 * s1 * c1 - b1 * t1 - b0 * t2
    inv = pow(t2, -1, p)
    w1, w0 = t1 * inv % p, t0 * inv % p
    # -V mod x^2 + w1 x + w0, for
    # V = s1 x^3 + (s0 + s1 a1) x^2 + (s1 a0 + s0 a1 + c1) x + s0 a0 + c0
    m = s0 + s1 * a1 - s1 * w1
    r1 = (s1 * w0 + m * w1 - s1 * a0 - s0 * a1 - c1) % p
    r0 = (m * w0 - s0 * a0 - c0) % p
    return [w0, w1, 1], ([r0, r1] if r1 else [r0] if r0 else [])


def cantor_add(d1, d2, F: list[int], p: int):
    """The reduced sum of two divisor classes in Mumford form."""
    (u1, v1), (u2, v2) = d1, d2
    if u1 == [1]:
        return d2
    if u2 == [1]:
        return d1
    if len(u1) == len(u2) == 3:
        total = _add_weight_two(d1, d2, F, p)
        if total is not None:
            return total
    return _cantor(d1, d2, F, p)


def _cantor(d1, d2, F: list[int], p: int):
    """Cantor's composition and reduction, for every case."""
    (u1, v1), (u2, v2) = d1, d2
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
    v = poly_divmod(num, u, p)[1]
    while len(u) > 3:
        u = poly_divmod(poly_sub(F, poly_mul(v, v, p), p), u, p)[0]
        v = poly_divmod(poly_sub([], v, p), u, p)[1]
    inv = pow(u[-1], p - 2, p)
    return [c * inv % p for c in u], v


def cantor_mul(n: int, d, F: list[int], p: int):
    """n * d for n >= 0 by double and add.  A divisor of degree 1 is
    doubled first, so that the additions meet the weight-two formulas."""
    if len(d[0]) == 2 and n > 1:
        half = cantor_mul(n >> 1, cantor_add(d, d, F, p), F, p)
        return cantor_add(half, d, F, p) if n & 1 else half
    acc = _NEUTRAL
    for bit in bin(n)[2:]:
        acc = cantor_add(acc, acc, F, p)
        if bit == "1":
            acc = cantor_add(acc, d, F, p)
    return acc


def _jacobian_points(F: list[int], chi: np.ndarray, p: int):
    """Divisors (x - x0, y0) for x0 = 0, 1, 2, ... with F(x0) a square,
    at most JACOBIAN_POINTS of them; y0 is read from a table of square
    roots, root[a^2 mod p] = a for 0 <= a <= (p-1)/2."""
    half = np.arange((p + 1) // 2, dtype=np.int64)
    root = np.zeros(p, dtype=np.int64)
    root[half * half % p] = half
    found = 0
    for x0 in range(p):
        value = 0
        for c in reversed(F):
            value = (value * x0 + c) % p
        if chi[value] >= 0:
            y0 = int(root[value])
            yield [-x0 % p, 1], [y0] if y0 else []
            found += 1
            if found == JACOBIAN_POINTS:
                return


def _jacobian_survivors(F, c1: int, candidates: list[int], chi, p: int) -> list[int]:
    """The candidates c2 whose P(1) = p^2 + 1 + (p + 1) c1 + c2 kills each
    point tried, stopping early once one is left.

    The candidates are congruent mod p, so N = P(1) runs along N_0 + kp;
    N_k D = N_0 D + k (pD) holds only along that full progression, so the
    walk steps through every k between the first and the last survivor.
    """
    for point in _jacobian_points(F, chi, p):
        if len(candidates) <= 1:
            break
        step = cantor_mul(p, point, F, p)
        acc = cantor_mul(p * p + 1 + (p + 1) * c1 + candidates[0], point, F, p)
        survivors = []
        for c2 in range(candidates[0], candidates[-1] + 1, p):
            if acc == _NEUTRAL and c2 in candidates:
                survivors.append(c2)
            acc = cantor_add(acc, step, F, p)
        candidates = survivors
    return candidates


def hasse_witt_lpoly(
    f_coeffs: tuple[int, ...], p: int, c1: int, chi: np.ndarray, values: np.ndarray
) -> Optional[LPoly]:
    """The genus-2 L-polynomial at an odd good prime p, given c1 from the
    F_p count, the character table chi and values = f mod p at every x in
    F_p; None when a sextic has no root mod p or the Jacobian points leave
    more than one c2, so the caller has to count over F_{p^2}.
    LPolyValidationError when W contradicts c1 or no candidate survives,
    which would be a bug.
    """
    f = [a % p for a in f_coeffs]
    root = int(np.argmin(values))  # the first x with f(x) = 0, if any
    if len(f) == 7 and values[root]:
        return None
    trace, det = hasse_witt(f, p)
    if (c1 + trace) % p:
        raise LPolyValidationError(f"tr W = {trace} contradicts c1 = {c1} at p={p}")
    candidates = [c2 for c2 in range(det - 3 * p, 7 * p, p) if weil_ok(p, c1, c2)]
    if len(candidates) > 1:
        F = monic_quintic_model(f, p, root)
        candidates = _jacobian_survivors(F, c1, candidates, chi, p)
    if not candidates:
        raise LPolyValidationError(f"no c2 = {det} mod {p} fits the Jacobian at p={p}")
    if len(candidates) > 1:
        return None
    return LPoly(genus=2, p=p, c1=c1, c2=candidates[0])
