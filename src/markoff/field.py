"""Arithmetic over F_p.

Everything works on plain Python integers: a field element is an int reduced
mod p, and the modulus travels alongside it.  Nothing here computes orders:
rotation orders come from the Lucas sequence in `core`, which never leaves
F_p even when the eigenvalues live in F_{p^2}.

Factoring is trial division up to a fixed bound with a deterministic
Brent-cycle rho for what survives.  Primality is Miller-Rabin with the
first thirteen primes as witnesses, which is deterministic below
MR_DETERMINISTIC_BOUND (about 3.3e24); `require_odd_prime` refuses any
modulus at or above it rather than trust a probable-prime answer.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from .errors import DomainError

# Witnesses that make Miller-Rabin deterministic below the bound, the least
# strong pseudoprime to all of them (1287836182261 * 2575672364521).  The
# first twelve alone pass 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BOUND = 3317044064679887385961981

_TRIAL_BOUND = 1_000_000


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed witnesses; exact below MR_DETERMINISTIC_BOUND,
    a probable-prime answer at or above it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> int:
    """Validate a modulus for this package: a prime strictly above 3 and
    below MR_DETERMINISTIC_BOUND, where the primality test is exact."""
    if isinstance(p, int) and p >= MR_DETERMINISTIC_BOUND:
        raise DomainError(f"modulus {p} is not below {MR_DETERMINISTIC_BOUND}, "
                          "where the primality test stops being deterministic")
    if not isinstance(p, int) or p <= 3 or not is_probable_prime(p):
        raise DomainError(f"modulus must be a prime greater than 3, got {p!r}")
    return p


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def sqrt_mod(a: int, p: int) -> Optional[int]:
    """Canonical square root of a mod p, or None for a non-residue.

    Canonical means the smaller of the two roots (so the result is in
    [0, p/2]); callers that need both take p - r themselves.
    Tonelli-Shanks, with the p = 3 (mod 4) shortcut.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Write p - 1 = q * 2^s with q odd, then walk the 2-Sylow subgroup.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd n, deterministic parameter sweep."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho parameter sweep exhausted on {n}")


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization as {prime: exponent}; factorize(1) == {}."""
    if n < 1:
        raise ValueError("factorize wants a positive integer")
    out: Dict[int, int] = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    f = 5
    while f <= _TRIAL_BOUND and f * f <= n:
        for q in (f, f + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        f += 6
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.extend((d, m // d))
    return out


def tau(n: int) -> int:
    """Number of divisors."""
    return math.prod(e + 1 for e in factorize(n).values())


def phi(n: int) -> int:
    """Euler totient."""
    out = n
    for q in factorize(n):
        out = out // q * (q - 1)
    return out
