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
operation order, and the snapshots are built without re-checking them;
an ensemble (`simulate_purity_ensemble`) holds a component-major (3, B)
batch, the layout of the discrete kernel `povm.posterior_batch` too, and
steps it in place through `_step_bloch_batch`, which reproduces the scalar
step bit for bit on every column.  Both read their noise from
`_noise_blocks`, which draws each stream's increments contiguously.  The
kernel reads a step slice of a noise block without writing it, through a
small step-major scratch; the ensemble hands it the steps between two grid
times and samples the purity between kernel calls.
`sme_step` is the matrix-form reference step (with per-step trace
renormalization); it is checked pathwise against `bloch_sde_step`.  Every
integrator refuses a step above the one ceiling `DEFAULT_DT_MAX`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import FULLY_MIXED, DensityMatrix, Vec3, _PAULI, _clipped_batch, _purity
from .montecarlo import DRAW_BLOCK, derive_stream
from .povm import MeasurementSettings

# The one Euler-Maruyama step ceiling: every integrator and the CLI's --dt
# refuse a larger step.
DEFAULT_DT_MAX = 1e-3

# Measurements per unit time at unit precision: the time mapping, the
# closed-form fidelity curve and the ensemble's resolution guard all derive
# their rate RATE_CONSTANT / precision^2 from this one value.
RATE_CONSTANT = 12.0

# unit noise intensity; test hook for fault-injection sensitivity checks
_NOISE_SCALE = 1.0

# Trajectory-steps of noise `_step_bloch_batch` copies into its step-major
# scratch at once: 96 KiB, which stays in cache at every batch size.
_KERNEL_CHUNK = 4096

# Noise rows `simulate_trajectory` takes through its passes at once: the
# chunk's lists and arrays stay within a few hundred KiB whatever the path
# length.
_ROW_CHUNK = 1024

# Above this many trajectories a noise block keeps DRAW_BLOCK // 256 steps
# (128) per generator call instead of shrinking to DRAW_BLOCK // B.
_FLOOR_TRAJECTORIES = 256


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
    Bloch form through `_step_bloch` and `_step_bloch_batch` instead.  The
    update keeps a unit trace in exact arithmetic, so the division only
    repairs rounding.
    """
    rho = _euler_density(rho, d_w, dt)
    return rho / np.trace(rho).real


def _euler_density(rho: np.ndarray, d_w, dt: float) -> np.ndarray:
    """The Euler-Maruyama update of `_step_density` before its trace division."""
    d_w = _NOISE_SCALE * np.asarray(d_w, dtype=float)
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
    step `simulate_trajectory` runs, and the in-place (3, B) kernel
    `_step_bloch_batch` reproduces it bit for bit on every column.
    """
    _check_step(dt)
    d_w = noise.d_w
    return _step_bloch(r[0], r[1], r[2], d_w[0], d_w[1], d_w[2], dt)


def _step_bloch(x, y, z, wx, wy, wz, dt: float) -> Vec3:
    """One Euler-Maruyama step of the Bloch vector (x, y, z) under the increment (wx, wy, wz).

    Radial term first, then each component, then the length; the vector is
    divided by its length only when that exceeds 1.  `_step_bloch_batch`
    repeats this operation order on every column, so both give the same bits.
    Unchecked: callers validate dt.
    """
    radial = x * wx + y * wy + z * wz
    x = x - 4.0 * x * dt + 2.0 * (wx - x * radial)
    y = y - 4.0 * y * dt + 2.0 * (wy - y * radial)
    z = z - 4.0 * z * dt + 2.0 * (wz - z * radial)
    length = math.sqrt(x * x + y * y + z * z)
    if length > 1.0:
        return (x / length, y / length, z / length)
    return (x, y, z)


def _step_bloch_batch(r: np.ndarray, block: np.ndarray, dt: float) -> None:
    """`_step_bloch` in place on a component-major (3, B) batch, once per step of a noise block.

    Column b of r is trajectory b and block[b] its next m increments, a
    (B, m, 3) block as `_noise_blocks` yields it, or any step slice of one.
    The block is read, not written: at most _KERNEL_CHUNK trajectory-steps
    at a time are copied into a step-major (c, 3, B) scratch, transposed
    and scaled by 2 _NOISE_SCALE in one multiply, so each step reads a
    contiguous (3, B) slice.  Written component by component in the scalar
    step's operation order, so every column equals `_step_bloch` bit for
    bit and any sub-batch reproduces the same trajectories.  Scaling by a
    power of two is exact away from underflow, so the doubled increment
    gives 2 (dW - r radial) as 2 dW - r (2 radial), and x (4 dt) equals
    (4 x) dt.  Every column is divided by max(|r|, 1): a division by 1.0
    leaves a column inside the ball unchanged.  The constants are 0-d
    arrays, converted once per call and not once per step.  Unchecked:
    callers validate dt.
    """
    trajectories, steps = block.shape[:2]
    chunk = max(1, min(steps, _KERNEL_CHUNK // trajectories))
    scratch = np.empty((chunk, 3, trajectories))
    two_scale = np.array(2.0 * _NOISE_SCALE)
    four_dt = np.array(4.0 * dt)
    one = np.array(1.0)
    prod = np.empty_like(r)
    px, py, pz = prod
    update = np.empty_like(r)
    acc = np.empty(trajectories)
    for lo in range(0, steps, chunk):
        two_dws = scratch[: min(chunk, steps - lo)]
        np.multiply(block[:, lo:lo + chunk].transpose(1, 2, 0), two_scale, out=two_dws)
        for two_dw in two_dws:
            np.multiply(r, two_dw, out=prod)
            np.add(px, py, out=acc)
            acc += pz  # twice the radial term
            np.multiply(r, acc, out=prod)
            np.subtract(two_dw, prod, out=update)
            np.multiply(r, four_dt, out=prod)
            r -= prod
            r += update
            np.multiply(r, r, out=prod)
            np.add(px, py, out=acc)
            acc += pz
            np.sqrt(acc, out=acc)
            np.maximum(acc, one, out=acc)
            r /= acc


def _noise_blocks(gens, steps: int, dt: float):
    """Wiener increments of `steps` steps for len(gens) trajectories, in blocks.

    Yields (B, m, 3) arrays whose row b holds the next m steps of gens[b],
    three normals per step drawn straight into the row: the same draws
    `draw_noise` makes one step at a time.  A block holds at most
    max(1, DRAW_BLOCK // min(B, 256)) steps: DRAW_BLOCK trajectory-steps up
    to 256 trajectories, and at least DRAW_BLOCK // 256 steps per generator
    call above that, where shorter calls would cost more per normal.  This
    bounds memory and leaves the draws unchanged.  Every block is a
    contiguous view of one preallocated buffer (a shorter last block too),
    so a block must be read before the next is requested.
    """
    scale = math.sqrt(dt)
    per_block = max(1, DRAW_BLOCK // min(len(gens), _FLOOR_TRAJECTORIES))
    buf = np.empty(len(gens) * min(per_block, steps) * 3)
    done = 0
    while done < steps:
        m = min(per_block, steps - done)
        block = buf[: len(gens) * m * 3].reshape(len(gens), m, 3)
        for g, row in zip(gens, block):
            g.standard_normal(out=row)
        block *= scale
        yield block
        done += m


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
    Python floats through the scalar step `_step_bloch`, on the draws
    `simulate_purity_ensemble` gives its trajectory; the batched kernel
    reproduces every snapshot bit for bit.  rng must be a numpy Generator:
    the increments are drawn into a preallocated block through its `out=`
    argument.

    Each noise block is taken _ROW_CHUNK rows at a time, which bounds the
    working memory, in three passes.  The step pass runs `_step_bloch` over
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
    k = 0  # steps taken
    for block in _noise_blocks([rng], steps, dt):
        for lo in range(0, block.shape[1], _ROW_CHUNK):
            d_w = block[0, lo : lo + _ROW_CHUNK]
            m = len(d_w)
            # step pass
            path = [r]
            append = path.append
            for wx, wy, wz in (d_w * _NOISE_SCALE).tolist():
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
            k += m
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

    Returns shape (len(t_grid), trajectories).  Trajectory k advances with
    noise from derive_stream(seed, base_index + k) drawn three normals per
    step, exactly as `simulate_trajectory` would consume them, and all
    trajectories step together, one column each of a (3, B) Bloch batch,
    through the in-place kernel `_step_bloch_batch`, so single runs,
    sub-batches and whole batches of the same index follow identical noise
    and step arithmetic.  Grid times snap to the nearest step; each noise
    block is cut at the grid steps it holds, and the purity is sampled
    between the kernel calls on its pieces, so where the blocks end changes
    no sample.
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
    r = np.repeat(np.array(initial.bloch)[:, None], trajectories, axis=1)
    gens = [derive_stream(seed, base_index + k) for k in range(trajectories)]
    blocks = _noise_blocks(gens, steps, dt)
    block, lo, taken = None, 0, 0  # the current block, its next step, steps taken
    for mark, rows in sample_at.items():  # ascending, as the grid is
        # step up to the grid step, across blocks, then sample
        while taken < mark:
            if block is None or lo == block.shape[1]:
                block, lo = next(blocks), 0
            hi = min(block.shape[1], lo + mark - taken)
            _step_bloch_batch(r, block[:, lo:hi], dt)
            taken, lo = taken + hi - lo, hi
        out[rows] = _purity(r)
    return out
