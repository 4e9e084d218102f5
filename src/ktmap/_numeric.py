"""Pure-Python ports of the two numerical routines the power-law fit needs.

`hurwitz_zeta` is the Cephes `zeta(x, q)` (S. L. Moshier, *Methods and
Programs for Mathematical Functions*, 1989); `minimize_bounded` is Brent's
bounded minimiser fminbound (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973). Each does the float operations of the common C
and Python implementations in their order, and `math.pow` is the libm `pow`
the C code calls, so a fit comes out bit for bit as it does with them;
tests/test_selection.py compares both with the reference implementations."""

from __future__ import annotations

import math
from typing import Callable

_MACHEP = 1.11022302462515654042e-16

# (2k)! / B_2k, for the Euler-Maclaurin correction terms
_EM_COEFFS = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)


def hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta function sum_{k>=0} (k + q)^-x, for x > 1 and q > 0."""
    x, q = float(x), float(q)
    if not (x > 1.0 and q > 0.0):
        raise ValueError(f"hurwitz_zeta needs x > 1 and q > 0, got ({x}, {q})")
    if q > 1e8:
        # asymptotic expansion, DLMF 25.11.43
        return (1 / (x - 1) + 1 / (2 * q)) * math.pow(q, 1 - x)

    # sum the terms up to k = 9 (further if q + k is still <= 9) directly,
    # stopping once a term no longer moves the sum; Euler-Maclaurin
    # summation adds the rest
    s = math.pow(q, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s

    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coeff in _EM_COEFFS:
        a *= x + k
        b /= w
        t = a * b / coeff
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def minimize_bounded(func: Callable[[float], float], lo: float, hi: float,
                     xatol: float) -> float:
    """The x in [lo, hi] where Brent's bounded search finds func's minimum:
    golden-section steps, parabolic steps where the parabola through the
    last three points is trusted, and convergence once the bracket is within
    xatol (plus a relative term) of the best point, or after 500 calls of
    func."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:
            # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True

        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= 500:
            break
    return xf


def _sign(v: float) -> float:
    """np.sign(v) + (v == 0), the step direction fminbound uses: zero (of
    either sign) steps up."""
    return math.copysign(1.0, v) if v != 0.0 else 1.0
