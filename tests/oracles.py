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
"""

from __future__ import annotations

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
