"""RK4 transport of the single-valued polylogarithms along a polyline.

`path_state` is the independent oracle behind `polylog.sv_transport`: it
integrates the differential system below instead of summing the closed forms
of `polylog.sv_polylog` (series, log-expansion, inversion), so agreement of
the two along paths of a test's choosing certifies both.

State convention: y[j] holds the weight-(j+2) single-valued value; weight 1
is the closed form -log|1-z| and is never integrated.

The transported system is the total differential of the single-valued
functions: for m >= 3

  dLm = L_{m-1} d(i arg z)
        + ( -sum_{k=2}^{m-2} beta_k L_{m-k} log^{k-1}|z|
            + beta_{m-1} log|1-z| log^{m-2}|z| ) dlog|z|
        - beta_{m-1} log^{m-1}|z| dlog|1-z|

and dL2 = -log|1-z| d(i arg z) + log|z| d(i arg(1-z)).  The right-hand side
preserves the parity subspace (weight-m values in i^{m-1} R) exactly.
"""

from __future__ import annotations

from math import log


def _rhs(n: int, betas, z: complex, zdot: complex, y):
    w = zdot / z
    wp = -zdot / (1.0 - z)
    l0 = log(abs(z))
    l1 = log(abs(1.0 - z))
    iw = complex(0.0, w.imag)
    iwp = complex(0.0, wp.imag)
    u = w.real
    up = wp.real
    dy = [-l1 * iw + l0 * iwp]
    for m in range(3, n + 1):
        acc = y[m - 3] * iw
        s = 0j
        power = l0
        for k in range(2, m - 1):
            s += betas[k] * y[m - k - 2] * power
            power *= l0
        acc += (-s + betas[m - 1] * l1 * l0 ** (m - 2)) * u
        acc += (-betas[m - 1] * l0 ** (m - 1)) * up
        dy.append(acc)
    return dy


def path_state(n: int, betas, nodes, steps: int, y):
    y = list(y)
    size = n - 1  # entries for weights 2..n
    for a, b in zip(nodes, nodes[1:]):
        zdot = b - a
        h = 1.0 / steps
        for i in range(steps):
            s = i * h
            k1 = _rhs(n, betas, a + s * zdot, zdot, y)
            zm = a + (s + 0.5 * h) * zdot
            k2 = _rhs(n, betas, zm, zdot, [y[j] + 0.5 * h * k1[j] for j in range(size)])
            k3 = _rhs(n, betas, zm, zdot, [y[j] + 0.5 * h * k2[j] for j in range(size)])
            ze = a + (s + h) * zdot
            k4 = _rhs(n, betas, ze, zdot, [y[j] + h * k3[j] for j in range(size)])
            y = [
                y[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                for j in range(size)
            ]
    return y
