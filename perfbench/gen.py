"""Seeded input generators for the benchmark workloads.

Every generator takes a seed and returns the same inputs for the same seed.
The inputs are built here from the benchmark's own constants, never from the
package's samplers, so that a change to the package cannot change them.
"""

import cmath
import math
import random

# sv-sweep regions and their exact share of each pass of 100 points
REGIONS = ("disc", "annulus", "far", "near1", "cut")
PASS = {"disc": 20, "annulus": 40, "far": 15, "near1": 10, "cut": 15}
PASS_SIZE = sum(PASS.values())
WEIGHTS = (2, 3, 4, 5, 6)


def classify(z: complex) -> str:
    """Region of an sv argument, using the same boundaries as the generator.

    The real ray (1, inf) is `cut` whatever the sign of the zero imaginary
    part, so `x+0j` and `x-0j` land in the same region.
    """
    if z.imag == 0.0 and z.real > 1.0:
        return "cut"
    if abs(z) <= 0.5:
        return "disc"
    if abs(z - 1.0) <= 0.05:
        return "near1"
    if abs(z) <= 2.0:
        return "annulus"
    return "far"


def _draw(region: str, u: float, v: float) -> complex:
    """A point of `region` at size quantile u and angle quantile v in [0, 1)."""
    phi = 2.0 * math.pi * v
    if region == "disc":  # uniform in area: |z|^2 uniform on [0, 1/4]
        return cmath.rect(0.5 * math.sqrt(u), phi)
    if region == "annulus":  # uniform in area: |z|^2 uniform on (1/4, 4]
        return cmath.rect(math.sqrt(0.25 + 3.75 * u), phi)
    if region == "far":  # |z| log-uniform on [2, 1e12]
        return cmath.rect(2.0 * (5e11) ** u, phi)
    if region == "near1":  # |z - 1| log-uniform on [1e-8, 1e-2]
        return 1.0 + cmath.rect(1e-8 * (1e6) ** u, phi)
    if region == "cut":  # x log-uniform on (1, 1e3], either signed zero
        return complex(1e3 ** (1.0 - u), 0.0 if v < 0.5 else -0.0)
    raise ValueError("unknown region %r" % region)


def point_key(n: int, z: complex) -> tuple:
    """Identity of an sv argument; tells x+0j from x-0j, which compare equal."""
    return (n, z.real, z.imag, math.copysign(1.0, z.imag))


def sv_points(seed: int):
    """Endless stream of passes: each a shuffled list of 100 distinct
    (region, n, z) with exactly PASS[region] points of each region.

    Sampling is stratified, so that one pass already has the shape of the
    whole distribution: a region gives each weight n in 2..6 the same
    number k of points, at size quantiles (j + jitter) / k for j < k,
    paired with angle quantiles in random order.
    """
    rng = random.Random("sv-sweep:%d" % seed)
    seen = set()
    while True:
        points = []
        for region in REGIONS:
            k = PASS[region] // len(WEIGHTS)
            for n in WEIGHTS:
                angles = rng.sample(range(k), k)
                for j in range(k):
                    while True:
                        u = (j + rng.random()) / k
                        v = (angles[j] + rng.random()) / k
                        z = _draw(region, u, v)
                        key = point_key(n, z)
                        if classify(z) == region and key not in seen:
                            break
                    seen.add(key)
                    points.append((region, n, z))
        rng.shuffle(points)
        yield points


# symbolic: a copy of the function pools behind polycomplex.random_element.
# Wedge entries are monic so residues at 0, 1 and infinity compare exactly;
# the non-monic ratio appears only as a bracket argument.
WEDGE_POOL = ("t", "t+1", "t-1", "t+2", "t-2", "t+3", "(t+1)/(t-2)", "(2+t)/(1+t)")
BRACKET_POOL = WEDGE_POOL + ("(2*t+1)/(t+3)",)
COEFFICIENTS = (1, -1, 2, 3, -2)
SYMBOLIC_WEIGHTS = (3, 4, 5, 6, 7)


def chain_specs(seed: int):
    """Endless stream of (weight, coefficient, depth, bracket, wedge) specs.

    A spec is plain text; `workloads.build_element` turns it into a chain
    element.  Weights cycle through 3..7 so each weight has the same share.
    """
    rng = random.Random("symbolic:%d" % seed)
    while True:
        for weight in SYMBOLIC_WEIGHTS:
            depth = rng.choice(range(2, weight + 1))
            name = rng.choice(BRACKET_POOL)
            pool = [s for s in WEDGE_POOL if s != name]
            picks = []
            if depth < weight:
                # lead with a function that vanishes at a tested place, so
                # residues are often nonzero and the comparison is decisive
                picks.append(rng.choice([p for p in ("t", "t-1") if p != name]))
            rest = [s for s in pool if s not in picks]
            picks.extend(rng.sample(rest, weight - depth - len(picks)))
            yield (weight, rng.choice(COEFFICIENTS), depth, name, tuple(picks))
