"""Time-continuous limit: conditional master equation and closed forms.

Counting the measurements as if they happened at the constant rate
12/precision^2 maps step n onto the continuous time t = 12 n / precision^2
(`time_from_steps`, the one time mapping).
In that limit the conditional state obeys the Ito equation

    d rho = -1/2 sum_k [sigma_k, [sigma_k, rho]] dt
            + sum_k {sigma_k - <sigma_k>, rho} dW_k,

with isotropic unit-intensity white noise, alongside the record process
dy = <sigma> dt + dW / 2.  In Bloch coordinates the same equation reads

    dr = -4 r dt + 2 (dW - r (r.dW)),

which keeps the unit sphere invariant and drives the purity
u = |r|^2 by du = 4(1-u)(3-u) dt + 4(1-u) r.dW.  Dropping the diffusion
term gives the closed-form purity and mean-fidelity curves below.

The simulations integrate the Bloch form by Euler-Maruyama, projecting any
vector that leaves the unit ball back onto the sphere.  A single
trajectory (`simulate_trajectory`) steps three Python floats through the
scalar step `_step_bloch`, which is also `bloch_sde_step`'s arithmetic,
one chunk of noise rows at a time; array passes over the chunk then form
the snapshot times, the record and the clipped states in the scalar
operation order, and the snapshots are built without re-checking them.
An ensemble (`simulate_purity_ensemble`) steps only the Bloch lengths, a
(B,) array of whole trajectory groups, in place through `_step_lengths`.
The step commutes with rotations and the noise is isotropic, so the length
alone is a Markov chain: one normal along the vector and one exponential
for the squared increment across it give the scalar step's length exactly
in law, at two variates per trajectory-step instead of three.  Its paths
are therefore not `simulate_trajectory`'s bit for bit.  The ensemble draws
its noise in the block layout the `montecarlo` docstring describes
(`_length_noise`), hands the kernel the steps between two grid times, and
samples the purity between kernel calls.
`sme_step` is the matrix-form reference step (with per-step trace
renormalization); it is checked pathwise against `bloch_sde_step`.  Every
integrator refuses a step above the one ceiling `DEFAULT_DT_MAX`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import FULLY_MIXED, DensityMatrix, Vec3, _PAULI, _clipped_batch, _norm
from .montecarlo import _group_blocks, _group_streams
from .povm import MeasurementSettings

# The one Euler-Maruyama step ceiling: every integrator and the CLI's --dt
# refuse a larger step.
DEFAULT_DT_MAX = 1e-3

# Measurements per unit time at unit precision: the time mapping, the
# closed-form fidelity curve and the ensemble's resolution guard all derive
# their rate RATE_CONSTANT / precision^2 from this one value.
RATE_CONSTANT = 12.0

# Noise rows `simulate_trajectory` takes through its passes at once: the
# chunk's lists and arrays stay within a few hundred KiB whatever the path
# length.
_ROW_CHUNK = 1024

# Steps of noise an ensemble group draws per generator call: a constant of the
# layout, never the batch width.  A group draws its normals and then its
# exponentials for a block, so the ensemble's bits depend on this value.
_BLOCK_STEPS = 128

# A trajectory-step's variates, in draw order: the normal along the vector, the exponential across it.
_LENGTH_KINDS = (("standard_normal", ()), ("standard_exponential", ()))


def time_from_steps(n, settings: MeasurementSettings) -> float:
    """t = 12 n / precision^2 for n measurements."""
    if not (n >= 0):
        raise ValueError(f"step count must be nonnegative, got {n!r}")
    w = settings.precision
    return RATE_CONSTANT * n / (w * w)


def _saturation_ratio(y):
    """(e^y - 1)/(e^y - 1/3), evaluated overflow-free for all y >= 0."""
    x = np.expm1(-np.asarray(y, dtype=float))
    return 3.0 * (-x) / (2.0 - x)


def drift_purity(t):
    """Drift-only purity 1/2 + (1/2)(e^{8t} - 1)/(e^{8t} - 1/3).

    The solution of du/dt = 4(1-u)(3-u) from the fully mixed state, written
    for the purity (1+u)/2.  Accepts a scalar or an array of times.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0.0):
        raise ValueError("drift purity is defined for nonnegative times only")
    out = 0.5 + 0.5 * _saturation_ratio(8.0 * t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def mean_fidelity_closed_form(n, settings: MeasurementSettings):
    """Closed-form mean fidelity 1/2 + (1/6)(e^q - 1)/(e^q - 1/3), q = 96 n / precision^2.

    Identical to 1/3 + (1/3) drift_purity(12 n / precision^2); rises from
    1/2 at n = 0 to the one-measurement optimum 2/3 as n grows.  Accepts a
    real (not necessarily integer) n or an array.
    """
    n_arr = np.asarray(n, dtype=float)
    if not np.all(n_arr >= 0.0):
        raise ValueError("measurement count must be nonnegative")
    w = settings.precision
    # the drift exponent 8 t at t = RATE_CONSTANT n / w^2; 8 * 12 = 96 is exact
    out = 0.5 + (1.0 / 6.0) * _saturation_ratio(8.0 * RATE_CONSTANT * n_arr / (w * w))
    return float(out) if np.isscalar(n) or n_arr.ndim == 0 else out


@dataclass(frozen=True)
class NoiseIncrement:
    """One isotropic Wiener increment; each component is Normal(0, dt)."""

    d_w: Vec3

    def __post_init__(self):
        object.__setattr__(self, "d_w", tuple(float(x) for x in self.d_w))


def draw_noise(rng: np.random.Generator, dt: float) -> NoiseIncrement:
    """Draw the three Wiener components for one step of size dt."""
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be a positive real, got {dt!r}")
    scale = math.sqrt(dt)
    v = rng.standard_normal(3)
    return NoiseIncrement((scale * v[0], scale * v[1], scale * v[2]))


@dataclass(frozen=True, slots=True)
class TrajectoryState:
    """Snapshot of a conditional trajectory, optionally with its record."""

    state: DensityMatrix
    time: float
    record: Vec3 | None = None


def _step_density(rho: np.ndarray, d_w, dt: float) -> np.ndarray:
    """One Euler-Maruyama step of the matrix-form equation on a 2x2 state, trace-renormalized.

    The matrix-form reference behind `sme_step`; the simulations step the
    Bloch form through `_step_bloch` and `_step_lengths` instead.  The
    update keeps a unit trace in exact arithmetic, so the division only
    repairs rounding.
    """
    rho = _euler_density(rho, d_w, dt)
    return rho / np.trace(rho).real


def _euler_density(rho: np.ndarray, d_w, dt: float) -> np.ndarray:
    """The Euler-Maruyama update of `_step_density` before its trace division."""
    d_w = np.asarray(d_w, dtype=float)
    expect = np.einsum("kij,ji->k", _PAULI, rho).real
    sig_rho = np.einsum("kij,jl->kil", _PAULI, rho)
    rho_sig = np.einsum("ij,kjl->kil", rho, _PAULI)
    sig_rho_sig = np.einsum("kij,kjl->kil", _PAULI, rho_sig)
    double_comm = 6.0 * rho - 2.0 * sig_rho_sig.sum(axis=0)
    anti = sig_rho + rho_sig - 2.0 * expect[:, None, None] * rho
    return rho + (-0.5 * dt) * double_comm + np.einsum("k,kij->ij", d_w, anti)


def _check_step(dt: float):
    if not (0.0 < dt <= DEFAULT_DT_MAX):
        raise ValueError(f"dt must satisfy 0 < dt <= {DEFAULT_DT_MAX!r}, got {dt!r}")


def sme_step(state: DensityMatrix, dt: float, noise: NoiseIncrement) -> DensityMatrix:
    """One conditional-master-equation step in matrix form.

    Euler-Maruyama update of rho, then trace renormalization and, if the
    Bloch vector left the unit ball, rescaling back onto the sphere.  This
    is the reference the Bloch-form step is checked against pathwise.
    """
    _check_step(dt)
    rho = _step_density(state.matrix(), noise.d_w, dt)
    return DensityMatrix.clipped(np.einsum("kij,ji->k", _PAULI, rho).real)


def bloch_sde_step(r, dt: float, noise: NoiseIncrement) -> Vec3:
    """Closed-form Bloch reduction of the matrix step: dr = -4 r dt + 2 (dW - r (r.dW)).

    Agrees pathwise with `sme_step` under shared noise.  This is the scalar
    step `simulate_trajectory` runs; the ensemble kernel `_step_lengths`
    steps its length map.
    """
    _check_step(dt)
    d_w = noise.d_w
    return _step_bloch(r[0], r[1], r[2], d_w[0], d_w[1], d_w[2], dt)


def _step_bloch(x, y, z, wx, wy, wz, dt: float) -> Vec3:
    """One Euler-Maruyama step of the Bloch vector (x, y, z) under the increment (wx, wy, wz).

    Radial term first, then each component, then the length; the vector is
    divided by its length only when that exceeds 1.  Unchecked: callers
    validate dt.
    """
    radial = x * wx + y * wy + z * wz
    x = x - 4.0 * x * dt + 2.0 * (wx - x * radial)
    y = y - 4.0 * y * dt + 2.0 * (wy - y * radial)
    z = z - 4.0 * z * dt + 2.0 * (wz - z * radial)
    length = math.sqrt(x * x + y * y + z * z)
    if length > 1.0:
        return (x / length, y / length, z / length)
    return (x, y, z)


def _step_lengths(rho: np.ndarray, two_as: np.ndarray, eight_b2s: np.ndarray, dt: float) -> None:
    """`_step_bloch`'s length map in place on a (B,) array of Bloch lengths, once per step of a block.

    Write r = rho e and dW = a e + b with b orthogonal to e.  The scalar step
    gives r' = e s + 2 b with s = rho (1 - 4 dt) + 2 a (1 - rho^2), so
    |r'| = sqrt(s^2 + 4 |b|^2), and the projection keeps min(|r'|, 1).  two_as
    holds 2 a and eight_b2s holds 4 |b|^2, as step-major (m, B) blocks or
    step slices of them; the kernel only reads them.  s is formed as
    (c - rho 2a) rho + 2a with c = 1 - 4 dt, so the reference in the tests
    repeats the same operations on Python floats.  The constants are 0-d
    arrays, converted once per call and not once per step.  Unchecked:
    callers validate dt.
    """
    c = np.array(1.0 - 4.0 * dt)
    one = np.array(1.0)
    t = np.empty_like(rho)
    for two_a, eight_b2 in zip(two_as, eight_b2s):
        np.multiply(rho, two_a, out=t)
        np.subtract(c, t, out=t)
        t *= rho
        t += two_a
        t *= t
        t += eight_b2
        np.sqrt(t, out=t)
        np.minimum(t, one, out=rho)


def _length_noise(streams, steps: int, dt: float):
    """The blocks (2 a, 4 |b|^2) of `steps` steps for a batch of groups.

    The groups draw a standard normal and then a standard exponential per
    trajectory-step, in the `montecarlo` block layout at _BLOCK_STEPS steps
    a block: a ~ N(0, dt) is the increment along the Bloch vector and
    |b|^2 = 2 dt Exp(1) the squared length of the increment across it.  The
    step-major (m, B) blocks are scaled views of reused buffers, so each
    pair must be read before the next is requested.
    """
    a_scale = 2.0 * math.sqrt(dt)
    b_scale = 8.0 * dt
    for two_as, eight_b2s in _group_blocks(streams, steps, _BLOCK_STEPS, _LENGTH_KINDS):
        two_as *= a_scale
        eight_b2s *= b_scale
        yield two_as, eight_b2s


def simulate_trajectory(
    initial: DensityMatrix,
    t_max: float,
    dt: float,
    rng: np.random.Generator,
    emit_record: bool = False,
    output_stride: int = 1,
) -> list[TrajectoryState]:
    """Integrate one conditional trajectory, emitting every `output_stride` steps.

    The initial state and the final step are always emitted.  When
    emit_record is set each snapshot carries the accumulated record
    integral of <sigma> dt + dW/2 up to its time.  The state steps as three
    Python floats through the scalar step `_step_bloch`, three normals of
    rng per step as `draw_noise` draws them.  An ensemble steps the same
    law through the length chain, not these bits.

    The noise is drawn _ROW_CHUNK rows at a time, which bounds the working
    memory, and each chunk goes through three passes.  The step pass runs `_step_bloch` over
    the rows' floats and keeps every state.  The array passes form the
    snapshot times k dt; the record (rec + r dt) + 0.5 dW through one
    `np.add.accumulate` over the interleaved terms, which adds them in step
    order; and `DensityMatrix.clipped`'s rescale and refusals of the
    emitted states through `_clipped_batch`.  The object pass builds the
    snapshots without re-checking them, as `clipped` builds its state.
    Every snapshot equals the step-by-step scalar chain bit for bit.
    """
    _check_step(dt)
    if not (t_max > 0.0) or not math.isfinite(t_max):
        raise ValueError(f"t_max must be a positive real, got {t_max!r}")
    if output_stride < 1:
        raise ValueError(f"output stride must be at least 1, got {output_stride!r}")
    steps = max(1, int(round(t_max / dt)))
    r = initial.bloch
    out = [TrajectoryState(initial, 0.0, (0.0, 0.0, 0.0) if emit_record else None)]
    record = np.zeros(3)  # the record after the last step taken
    records = itertools.repeat(None)
    new, put = object.__new__, object.__setattr__
    scale = math.sqrt(dt)
    for k in range(0, steps, _ROW_CHUNK):  # k: steps taken
        d_w = rng.standard_normal((min(_ROW_CHUNK, steps - k), 3))
        d_w *= scale
        m = len(d_w)
        # step pass
        path = [r]
        append = path.append
        for wx, wy, wz in d_w.tolist():
            x, y, z = r
            r = _step_bloch(x, y, z, wx, wy, wz, dt)
            append(r)
        # array passes; states is (3, m + 1): the chunk's start, then the state after each step
        states = np.fromiter(itertools.chain.from_iterable(path), float, 3 * (m + 1))
        states = states.reshape(m + 1, 3).T
        offsets = list(range(-(k + 1) % output_stride, m, output_stride))  # emitted steps k + 1 + j
        if k + m == steps and offsets[-1:] != [m - 1]:
            offsets.append(m - 1)
        emit = np.array(offsets, dtype=int)
        blochs = zip(*_clipped_batch(states[:, emit + 1]).tolist())
        times = ((k + 1 + emit) * dt).tolist()
        if emit_record:
            terms = np.empty((2 * m + 1, 3))
            terms[0] = record
            terms[1::2] = states[:, :-1].T * dt
            terms[2::2] = 0.5 * d_w
            np.add.accumulate(terms, axis=0, out=terms)
            record = terms[-1]
            records = zip(*terms[2::2][emit].T.tolist())
        # object pass
        for bloch, t, rec in zip(blochs, times, records):
            state = new(DensityMatrix)
            put(state, "bloch", bloch)
            snap = new(TrajectoryState)
            put(snap, "state", state)
            put(snap, "time", t)
            put(snap, "record", rec)
            out.append(snap)
    return out


def simulate_purity_ensemble(
    t_grid,
    dt: float,
    trajectories: int,
    seed: int = 0,
    base_index: int = 0,
    initial: DensityMatrix = FULLY_MIXED,
) -> np.ndarray:
    """Purity of independent trajectories at the requested times.

    Returns shape (len(t_grid), trajectories).  Only the length
    |initial.bloch| enters: the Bloch lengths of all trajectories step
    together, one entry each of a (B,) array, through the in-place kernel
    `_step_lengths`, the scalar step's law exactly.  Group j of trajectories
    [jG, (j + 1)G) draws its noise from derive_stream(seed, base_index + jG)
    (see `_length_noise`), so a batch split at group boundaries follows the
    same noise and step arithmetic as the whole.  Grid times snap to the
    nearest step; each noise block is cut at the grid steps it holds, and
    the purity (1 + rho^2)/2 is sampled between the kernel calls on its
    pieces, so where the blocks end changes no sample.
    """
    _check_step(dt)
    t_grid = [float(t) for t in t_grid]
    if not t_grid or not all(0.0 <= t < math.inf for t in t_grid) or sorted(t_grid) != t_grid:
        raise ValueError("time grid must be nonempty, finite, nonnegative, ascending")
    if trajectories < 1:
        raise ValueError(f"need at least one trajectory, got {trajectories!r}")
    steps = int(round(t_grid[-1] / dt))
    sample_at: dict[int, list[int]] = {}
    for g, t in enumerate(t_grid):
        sample_at.setdefault(int(round(t / dt)), []).append(g)

    out = np.empty((len(t_grid), trajectories))
    rho = np.full(trajectories, _norm(initial.bloch))
    blocks = _length_noise(_group_streams(seed, base_index, 0, trajectories), steps, dt)
    two_as, eight_b2s, lo, taken = (), (), 0, 0  # the current blocks, their next step, steps taken
    for mark, rows in sample_at.items():  # ascending, as the grid is
        # step up to the grid step, across blocks, then sample
        while taken < mark:
            if lo == len(two_as):
                (two_as, eight_b2s), lo = next(blocks), 0
            hi = min(len(two_as), lo + mark - taken)
            _step_lengths(rho, two_as[lo:hi], eight_b2s[lo:hi], dt)
            taken, lo = taken + hi - lo, hi
        out[rows] = 0.5 * (1.0 + rho * rho)
    return out
