"""Deterministic references for the Monte Carlo tests, exact to grid accuracy.

Continuous side: from the fully mixed state, the purity variable u = |r|^2
of the conditional equation follows

    du = 4 (1 - u)(3 - u) dt + 4 (1 - u) sqrt(u) dB

for one scalar Brownian motion B, so the mean purity E[(1 + u_t)/2] from
u_0 = 0 is w(t, 0), where w solves the backward equation

    w_t = a w_u + (1/2) b^2 w_uu,   a = 4 (1 - u)(3 - u),   b^2 = 16 (1 - u)^2 u,

on u in [0, 1] with w(0, u) = (1 + u)/2.  Both ends are degenerate (b^2
vanishes there and the drift does not point out of [0, 1]), so neither
takes a boundary condition (Revuz & Yor, Continuous Martingales and
Brownian Motion, ch. XI): at u = 0 the equation is w_t = 12 w_u, and at
u = 1 it is w_t = 0.

Discrete side: a run from the fully mixed state is isotropic, so its Bloch
length rho = |r| is a Markov chain by itself.  One measurement at cosine c
to the current vector, with outcome s, x = s / precision^2 and t = tanh x,
maps the components (r_par, r_perp) = (rho c, rho sqrt(1 - c^2)) to

    ((t + r_par)/(1 + t r_par), r_perp sech x / (1 + t r_par)),

and the outcome has density (g(s - 1) + g(s + 1))(1 + t r_par)/2, with g
the Gaussian of width precision.  `mean_fidelity_from_mixed` pushes the
law of u = rho^2 through that map (`length_update`) on a grid; the mean
fidelity of either estimator is 1/2 + E[u_n]/6.

The time constant that links the two sides is the open question of the
calibration gap (tests/test_acceptance.py).  A literature anchor: Jacobs &
Steck, "A straightforward introduction to continuous quantum measurement",
Contemp. Phys. 47, 279 (2006), arXiv quant-ph/0611067.  A measurement of X
with strength k over a time dt has Gaussian outcome noise of variance
1/(8 k dt).  The conditional equation above has k = 1/2, so a Gaussian of
width precision along a fixed axis is worth dt = 1/(4 precision^2), and a
uniformly random axis gives each Pauli a third of that: dt = 1/(12
precision^2) per measurement, 144 times shorter than the 12/precision^2 of
`continuous.time_from_steps`.  The anchor cannot tell whether the paper's
precision is this Gaussian's width, nor what rate the paper uses.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csc_matrix, identity
from scipy.sparse.linalg import splu


def _generator(points: int) -> csc_matrix:
    """The backward operator a d/du + (1/2) b^2 d^2/du^2 on `points` + 1 nodes of [0, 1].

    Central differences inside; at u = 0, where b^2 = 0, the second-order
    one-sided difference of w_u; at u = 1 the zero row.
    """
    h = 1.0 / points
    u = np.linspace(0.0, 1.0, points + 1)
    a_2h = 4.0 * (1.0 - u) * (3.0 - u) / (2.0 * h)  # a / 2h
    b2_2h2 = 8.0 * (1.0 - u) ** 2 * u / (h * h)  # b^2 / 2h^2
    inner = np.arange(1, points)
    rows = np.concatenate([[0, 0, 0], inner, inner, inner])
    cols = np.concatenate([[0, 1, 2], inner - 1, inner, inner + 1])
    vals = np.concatenate([
        a_2h[0] * np.array([-3.0, 4.0, -1.0]),
        b2_2h2[inner] - a_2h[inner],
        -2.0 * b2_2h2[inner],
        b2_2h2[inner] + a_2h[inner],
    ])
    return csc_matrix((vals, (rows, cols)), shape=(points + 1, points + 1))


def mean_purity_from_mixed(t_max: float, steps: int, points: int = 2000) -> np.ndarray:
    """E[(1 + u_t)/2] from the fully mixed state at t = k t_max / steps, k = 0..steps.

    Crank-Nicolson in time on `points` + 1 nodes of u; returns w(t_k, 0).
    """
    step = 0.5 * t_max / steps * _generator(points)
    eye = identity(points + 1, format="csc")
    implicit, explicit = splu(eye - step), eye + step
    w = 0.5 * (1.0 + np.linspace(0.0, 1.0, points + 1))
    out = [w[0]]
    for _ in range(steps):
        w = implicit.solve(explicit @ w)
        out.append(w[0])
    return np.array(out)


# Bound on the grid error of a mean fidelity from `mean_fidelity_from_mixed`
# at its default grids.  test_sequential::test_discrete_oracle_converges checks
# it only at delta = 20, to n = 40.  It does not hold at every delta and n: at
# delta = 40 and n = 1920 (test_acceptance's oracle join) the default 1000
# cells sit 2.2e-6 in F from 2000 cells, which sit 5.4e-7 from 4000 cells.
MEAN_FIDELITY_BUDGET = 1e-6


def length_update(rho, along, sines, x):
    """The Bloch length after one measurement, and t = tanh x; floats or arrays, elementwise.

    The vector has length rho and component along = rho c on the axis, and
    sines = 4 (1 - c^2).  With q = e^{-2|x|}, sech^2 x = 4 q / (1 + q)^2, so
    the new length is min(sqrt((t + along)^2 + rho^2 sines q / (1 + q)^2)
    / (1 + t along), 1).  The operations and their order are those of
    `sequential._length_posterior`, so on floats this is its scalar reference.
    """
    t = np.tanh(x)
    q = np.exp(-2.0 * np.abs(x))
    squared = rho * rho * sines * q / ((q + 1.0) * (q + 1.0)) + (t + along) * (t + along)
    return np.minimum(np.sqrt(squared) / (1.0 + t * along), 1.0), t


def mean_fidelity_from_mixed(
    precision: float, steps: int, points: int = 1000, cosines: int = 32, outcomes: int = 401, span: float = 10.0
) -> np.ndarray:
    """Mean fidelity 1/2 + E[u_n]/6 after n = 0..steps measurements from the fully mixed state.

    u = rho^2 lives on `points` + 1 equal cells of [0, 1].  The transition
    from each node is built one row at a time: Gauss-Legendre with `cosines`
    nodes over the uniform cosine c, and the trapezoid rule with `outcomes`
    nodes over s in [-(1 + span precision), 1 + span precision], weighted
    by the outcome density.  Each image u' is shared between its two
    neighbouring nodes in proportion to its distance from them, which keeps
    its mean, and each row is normalized to total probability 1.
    """
    var = precision * precision
    c, c_weights = np.polynomial.legendre.leggauss(cosines)
    c = c[:, None]
    s = np.linspace(-1.0 - span * precision, 1.0 + span * precision, outcomes)
    s_weights = np.full(outcomes, s[1] - s[0])
    s_weights[[0, -1]] *= 0.5

    def gauss(y):
        return np.exp(-y * y / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

    # (cosine weight / 2) (g(s - 1) + g(s + 1))/2 ds; the factor 1 + t r_par follows per row
    weights = 0.25 * c_weights[:, None] * ((gauss(s - 1.0) + gauss(s + 1.0)) * s_weights)[None, :]
    x = (s / var)[None, :]
    sines = 4.0 * (1.0 - c) * (1.0 + c)
    u = np.linspace(0.0, 1.0, points + 1)
    kernel = np.empty((points + 1, points + 1))
    for i, u_i in enumerate(u):
        rho = math.sqrt(u_i)
        new_rho, t = length_update(rho, rho * c, sines, x)
        mass = (weights * (1.0 + t * (rho * c))).ravel()
        cell = (new_rho * new_rho).ravel() * points
        low = np.minimum(cell.astype(int), points - 1)
        frac = cell - low
        row = np.bincount(low, mass * (1.0 - frac), points + 1) + np.bincount(low + 1, mass * frac, points + 1)
        kernel[i] = row / row.sum()
    law = np.zeros(points + 1)
    law[0] = 1.0
    means = [law @ u]
    for _ in range(steps):
        law = law @ kernel
        means.append(law @ u)
    return 0.5 + np.array(means) / 6.0
