"""Independent high-precision reference for the single-valued polylogarithm.

sv(n, z) = pi_n( sum_{k<n} beta_k Li_{n-k}(z) log^k|z| ),  beta_k = 2^k B_k / k!

with B_1 = -1/2, pi_n keeping the real part for odd n and i times the
imaginary part for even n.  Built from `mpmath.polylog` and
`mpmath.bernoulli` only, so it shares no code with the package's own
high-precision route.  The projection makes the value independent of the
side of the cut (1, inf) that mpmath picks.
"""

import mpmath

REF_BITS = 128
# A returned value beyond REL_TOL fails as inaccurate; 1e-8 is the tolerance
# the package's own tests hold sv_polylog to against an mpmath oracle.
# Beyond WRONG_TOL it is a wrong value, not an inaccurate one (a wrong branch
# or sign is off by O(1)); the worst inaccurate value seen on seed code,
# next to z = 1, was 2e-7.
REL_TOL = 1e-8
WRONG_TOL = 1e-4


def sv_reference(n: int, z: complex) -> complex:
    with mpmath.workprec(REF_BITS):
        zz = mpmath.mpc(z.real, z.imag)
        if zz == 0:
            return 0j
        log_abs = mpmath.log(abs(zz))
        total = mpmath.mpc(0)
        power = mpmath.mpf(1)
        for k in range(n):
            beta_k = mpmath.ldexp(mpmath.bernoulli(k), k) / mpmath.factorial(k)
            total += beta_k * mpmath.polylog(n - k, zz) * power
            power *= log_abs
        if n % 2:
            return complex(float(total.real), 0.0)
        return complex(0.0, float(total.imag))


def rel_err(value: complex, ref: complex) -> float:
    """|v - ref| / max(|ref|, 1)."""
    return abs(value - ref) / max(abs(ref), 1.0)
