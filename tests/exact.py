"""Exact arithmetic on half-integer lattice spectra: oracles for the tests.

Everything here works on Python integers and Fractions, so it answers the
questions the float code answers without round-off:

- ``lattice_weights``: the persymmetric weights of a lattice spectrum,
  scaled to integers;
- ``exact_stieltjes``: the Jacobi matrix that integer weights on a
  half-integer lattice define;
- ``chebyshev_to_power``: a Chebyshev series in the power basis;
- ``odd_multiplicity_roots``: the real roots of odd multiplicity of a
  rational polynomial in (-1, 1), that is the sign changes of the function,
  by Descartes' rule of signs in Vincent-Collins-Akritas bisection on a
  square-free decomposition.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

def lattice_weights(lam) -> tuple[list[int], list[int]]:
    """Integer nodes x = 2 lam and integer weights of the persymmetric measure.

    The weights are proportional to 1 / prod_{k!=s}|x_s - x_k|, scaled by
    the lcm of those products.
    """
    x = [int(2 * v) for v in lam.tolist()]
    assert x == [2 * v for v in lam.tolist()], "not on the half-integer lattice"
    prods = [math.prod(abs(xs - xk) for xk in x if xk != xs) for xs in x]
    lcm = math.lcm(*prods)
    return x, [lcm // p for p in prods]


def exact_stieltjes(x, w):
    """Exact a_k and b_k^2 (Fractions) of the measure with integer weights
    ``w`` on the half-integer lattice points lam = x / 2, ``x`` integers.

    Each monic orthogonal polynomial p_k is kept at the nodes x as an
    integer vector P_k times a rational scale s_k, and the Stieltjes
    recurrence p_{k+1} = (x - a_k) p_k - b_{k-1}^2 p_{k-1} runs in integer
    arithmetic; the coefficients are then mapped from x back to lam.  Pass
    ``*lattice_weights(lam)`` for the persymmetric measure.
    """
    diag, off2 = [], []
    P, P_prev = [1] * len(x), [0] * len(x)
    s, s_prev, b2 = Fraction(1), Fraction(1), Fraction(0)
    norm = sum(w)
    while True:
        a = Fraction(sum(wi * xi * pi * pi for wi, xi, pi in zip(w, x, P)), norm)
        diag.append(a / 2)
        if len(diag) == len(x):
            return diag, off2
        # with r = b_{k-1}^2 s_{k-1} den(a) / s_k,  p_{k+1} = s_k / (den(a) den(r))
        # * [den(r) (den(a) x - num(a)) P_k - num(r) P_{k-1}]
        r = b2 * s_prev * a.denominator / s
        P_next = [
            r.denominator * (a.denominator * xi - a.numerator) * pi - r.numerator * qi
            for xi, pi, qi in zip(x, P, P_prev)
        ]
        g = math.gcd(*P_next)
        P_next = [v // g for v in P_next]
        s_next = s * g / (a.denominator * r.denominator)
        norm_next = sum(wi * pi * pi for wi, pi in zip(w, P_next))
        b2 = (s_next / s) ** 2 * Fraction(norm_next, norm)
        off2.append(b2 / 4)
        P_prev, P, s_prev, s, norm = P, P_next, s, s_next, norm_next


@functools.cache
def _chebyshev_t(j: int) -> tuple[int, ...]:
    """Integer power-basis coefficients of T_j, ascending."""
    if j < 2:
        return (1,) if j == 0 else (0, 1)
    prev, cur = _chebyshev_t(j - 2), _chebyshev_t(j - 1)
    out = [0, *(2 * c for c in cur)]  # 2y T_j-1
    for i, c in enumerate(prev):
        out[i] -= c
    return tuple(out)


def chebyshev_to_power(coef) -> list:
    """Power-basis coefficients, ascending, of sum_j coef[j] T_j.

    The arithmetic is that of the coefficients: integers stay integers and
    Fractions stay exact.
    """
    power = [0] * len(coef)
    for j, a in enumerate(coef):
        if a:
            for i, c in enumerate(_chebyshev_t(j)):
                power[i] += a * c
    return power


def _primitive(p) -> list[int]:
    """The rational polynomial p as coprime integers, its top coefficient > 0."""
    scale = math.lcm(*(Fraction(a).denominator for a in p))
    q = [int(Fraction(a) * scale) for a in p]
    while q and not q[-1]:
        q.pop()
    if not q:
        return q
    g = math.gcd(*q) * (1 if q[-1] > 0 else -1)
    return [a // g for a in q]


def _derivative(p) -> list:
    return [i * a for i, a in enumerate(p)][1:]


def _divmod(p: list, q: list) -> tuple[list, list]:
    """Quotient and remainder of rational polynomials."""
    p = [Fraction(a) for a in p]
    quotient = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    while len(p) >= len(q) and any(p):
        factor = p[-1] / q[-1]
        shift = len(p) - len(q)
        quotient[shift] = factor
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        p.pop()
        while p and not p[-1]:
            p.pop()
    return quotient, p


def _gcd(p: list, q: list) -> list[int]:
    """Primitive gcd of rational polynomials, by Euclid's algorithm."""
    q = _primitive(q)
    while q:
        p, q = q, _primitive(_divmod(p, q)[1])
    return _primitive(p)


def _subtract(p: list, q: list) -> list:
    n = max(len(p), len(q))
    out = [a - b for a, b in zip(p + [0] * (n - len(p)), q + [0] * (n - len(q)))]
    while out and not out[-1]:
        out.pop()
    return out


def squarefree_factors(p) -> list[tuple[list[int], int]]:
    """(factor, multiplicity) pairs of the square-free decomposition of p.

    p = c prod f_i^i with each f_i square-free and coprime to the others
    (Yun's algorithm); the factors are primitive integer polynomials of
    degree at least 1.  A square-free p, gcd(p, p') = 1, is its own factor.
    """
    p = _primitive(p)
    derivative = _derivative(p)
    # b = prod f_i and c - b' = sum (i - 1) f_i' prod_{j != i} f_j, both over
    # the same divisor, so gcd(b, c - b') = f_1; then divide f_1 out of both
    a = _gcd(p, derivative)
    b, c = _divmod(p, a)[0], _divmod(derivative, a)[0]
    factors = []
    multiplicity = 1
    while len(b) > 1:
        d = _subtract(c, _derivative(b))
        a = _gcd(b, d)
        if len(a) > 1:
            factors.append((a, multiplicity))
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        multiplicity += 1
    return factors


def _shift_one(p: list[int]) -> list[int]:
    """p(y + 1), by repeated synthetic division."""
    q = list(p)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += q[j + 1]
    return q


def _variations(p: list[int]) -> int:
    signs = [a > 0 for a in p if a]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def roots_in_unit_interval(p: list[int]) -> int:
    """Distinct roots in (0, 1) of a square-free integer polynomial p.

    Vincent-Collins-Akritas: Descartes' rule of signs on (1 + y)^d p(1/(1 + y))
    bounds the roots in (0, 1); a bound of 0 or 1 is exact, and a larger one
    halves the interval.  Square-free p makes the halving end.
    """
    count = 0
    pending = [p]
    while pending:
        p = pending.pop()
        bound = _variations(_shift_one(p[::-1]))
        if bound < 2:
            count += bound
            continue
        degree = len(p) - 1
        left = [a << (degree - i) for i, a in enumerate(p)]  # 2^d p(y/2)
        right = _shift_one(left)  # 2^d p((y + 1)/2)
        if not right[0]:  # a root at the midpoint
            count += 1
            right = right[1:]
        pending += [left, right]
    return count


def odd_multiplicity_roots(p) -> int:
    """Roots of odd multiplicity of the rational polynomial p in (-1, 1).

    ``p`` holds power-basis coefficients, ascending, and is not zero.  These
    are the points where p changes sign.  After y^k is divided out (a root
    at 0 when k is odd), each odd-multiplicity factor f of the square-free
    decomposition is counted on (0, 1) as f(y) and f(-y).  An even p(y) is
    E(u) with u = y^2, which keeps each multiplicity away from 0: the
    factors of E count once for each of +-sqrt(u).
    """
    k = next(i for i, a in enumerate(p) if a)
    p = p[k:]
    even = not any(p[1::2])
    count = k % 2
    for factor, multiplicity in squarefree_factors(p[::2] if even else p):
        if multiplicity % 2 == 0:
            continue
        if even:
            count += 2 * roots_in_unit_interval(factor)
        else:
            mirror = [-a if i % 2 else a for i, a in enumerate(factor)]
            count += roots_in_unit_interval(factor) + roots_in_unit_interval(mirror)
    return count
