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
one chunk of noise rows at a time, and writes each state into its column
of a `Trajectory` as the step returned it; an array pass over the chunk
writes the record in the scalar operation order.  That result keeps the
path as three arrays and builds a `TrajectoryState` snapshot only when one
is read.
An ensemble (`simulate_purity_ensemble`) steps only the Bloch lengths, a
(B,) array of whole trajectory groups, in place through `_step_lengths`.
The step commutes with rotations and the noise is isotropic, so the length
alone is a Markov chain driven by the increment a along the vector and the
squared length |b|^2 of the increment across it.  The ensemble draws them
as two-point increments, the simplified weak Euler scheme (Kloeden &
Platen, Numerical Solution of SDEs, 1992, sec. 14.1): a = +-sqrt(dt) from one
uniform per trajectory-step and |b|^2 fixed at its mean 2 dt.  That keeps
the scalar step's means to weak order 1, which is all the ensemble
reports, but not its law, and its paths are not `simulate_trajectory`'s.
The ensemble draws its noise in the block layout the `montecarlo`
docstring describes (`_length_noise`), and its length chain, like the
discrete ones, runs in the batches of `montecarlo._grid_rows`, which reads
the lengths at the grid steps.
`sme_step` is the matrix-form reference step (with per-step trace
renormalization); it is checked pathwise against `bloch_sde_step`.  Every
integrator refuses a step above the one ceiling `DEFAULT_DT_MAX`.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .bloch import FULLY_MIXED, DensityMatrix, Vec3, _PAULI, _norm
from .montecarlo import _grid_rows, _group_blocks
from .povm import MeasurementSettings

# The one Euler-Maruyama step ceiling: every integrator and the CLI's --dt
# refuse a larger step.
DEFAULT_DT_MAX = 1e-3

# Measurements per unit time at unit precision: the time mapping, the
# closed-form fidelity curve and the ensemble's resolution guard all derive
# their rate RATE_CONSTANT / precision^2 from this one value.
RATE_CONSTANT = 12.0

# Noise rows `simulate_trajectory` takes through its passes at once, and
# columns a `Trajectory` turns into snapshots at once while it is iterated:
# the chunk's lists and arrays stay within a few hundred KiB whatever the
# path length.
_ROW_CHUNK = 1024

# A trajectory-step's variate: the uniform whose side of 1/2 signs the increment along the vector.
_LENGTH_KINDS = ("random",)


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


def draw_noise(rng: np.random.Generator, dt: float) -> Vec3:
    """Draw the three Wiener components, each Normal(0, dt), for one step of size dt."""
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be a positive real, got {dt!r}")
    return tuple((math.sqrt(dt) * rng.standard_normal(3)).tolist())


@dataclass(frozen=True, slots=True)
class TrajectoryState:
    """Snapshot of a conditional trajectory, optionally with its record.

    A `Trajectory` builds one from its column k each time the column is read.
    """

    state: DensityMatrix
    time: float
    record: Vec3 | None = None


@dataclass(frozen=True, slots=True, eq=False)
class Trajectory(Sequence):
    """A conditional trajectory as columns: `times` (K,), `bloch` (3, K), and `record` (3, K) or None.

    Column k holds snapshot k: its time, its state's Bloch vector and, when
    the record was emitted, the record integral up to that time.  As a
    sequence of `TrajectoryState`, `path[k]` (k < 0 too) builds snapshot k
    from its column, a slice returns a list of snapshots, and iteration
    builds them one at a time, never all at once.  `==` compares the arrays.
    """

    times: np.ndarray
    bloch: np.ndarray
    record: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return list(self._snapshots(key))
        k, size = operator.index(key), len(self.times)
        if not -size <= k < size:
            raise IndexError(f"trajectory index {k} out of range for {size} snapshots")
        k %= size
        return next(self._snapshots(slice(k, k + 1)))

    def __iter__(self) -> Iterator[TrajectoryState]:
        for k in range(0, len(self.times), _ROW_CHUNK):
            yield from self._snapshots(slice(k, k + _ROW_CHUNK))

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        if (self.record is None) != (other.record is None):
            return False
        return (np.array_equal(self.times, other.times) and np.array_equal(self.bloch, other.bloch)
                and (self.record is None or np.array_equal(self.record, other.record)))

    def _snapshots(self, columns: slice) -> Iterator[TrajectoryState]:
        """The snapshots of the columns `columns` selects, built from their floats without
        re-checking them, as `DensityMatrix.clipped` builds its state."""
        blochs = zip(*self.bloch[:, columns].tolist())
        times = self.times[columns].tolist()
        records = itertools.repeat(None) if self.record is None else zip(*self.record[:, columns].tolist())
        new, put = object.__new__, object.__setattr__
        for bloch, t, rec in zip(blochs, times, records):
            state = new(DensityMatrix)
            put(state, "bloch", bloch)
            snap = new(TrajectoryState)
            put(snap, "state", state)
            put(snap, "time", t)
            put(snap, "record", rec)
            yield snap


def _euler_density(rho: np.ndarray, d_w, dt: float) -> np.ndarray:
    """The matrix-form Euler-Maruyama update of a 2x2 state, before `sme_step` divides by the trace."""
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


def sme_step(state: DensityMatrix, dt: float, d_w) -> DensityMatrix:
    """One conditional-master-equation step in matrix form under the Wiener increment d_w.

    Euler-Maruyama update of rho, then trace renormalization and, if the
    Bloch vector left the unit ball, rescaling back onto the sphere.  The
    update keeps a unit trace in exact arithmetic, so the division only
    repairs rounding.  This is the reference the Bloch-form step is checked
    against pathwise.
    """
    _check_step(dt)
    rho = _euler_density(state.matrix(), d_w, dt)
    rho = rho / np.trace(rho).real
    return DensityMatrix.clipped(np.einsum("kij,ji->k", _PAULI, rho).real)


def bloch_sde_step(r, dt: float, d_w) -> Vec3:
    """Closed-form Bloch reduction of the matrix step: dr = -4 r dt + 2 (dW - r (r.dW)), dW = d_w.

    Agrees pathwise with `sme_step` under shared noise.  This is the scalar
    step `simulate_trajectory` runs; the ensemble kernel `_step_lengths`
    steps its length map.
    """
    _check_step(dt)
    return _step_bloch(r[0], r[1], r[2], d_w[0], d_w[1], d_w[2], dt)


def _step_bloch(x, y, z, wx, wy, wz, dt: float) -> Vec3:
    """One Euler-Maruyama step of the Bloch vector (x, y, z) under the increment (wx, wy, wz).

    Radial term first, then each component, then the length; the vector is
    divided by its length only when that exceeds 1, and a length that
    overflowed, which only out-of-range noise can cause, is refused.
    Unchecked: callers validate dt.
    """
    radial = x * wx + y * wy + z * wz
    x = x - 4.0 * x * dt + 2.0 * (wx - x * radial)
    y = y - 4.0 * y * dt + 2.0 * (wy - y * radial)
    z = z - 4.0 * z * dt + 2.0 * (wz - z * radial)
    length = math.sqrt(x * x + y * y + z * z)
    if length > 1.0:
        if length == math.inf:
            raise ValueError("the Bloch vector's squared length overflowed: the noise is out of range")
        return (x / length, y / length, z / length)
    return (x, y, z)


def _step_lengths(rho: np.ndarray, blocks, dt: float):
    """`_step_bloch`'s length map in place on a (B,) array of Bloch lengths, yielding rho after every step.

    Write r = rho e and dW = a e + b with b orthogonal to e.  The scalar step
    gives r' = e s + 2 b with s = rho (1 - 4 dt) + 2 a (1 - rho^2), so
    |r'| = sqrt(s^2 + 4 |b|^2), and the projection keeps min(|r'|, 1).
    blocks yields (2 a, 4 |b|^2): 2 a as a step-major (m, B) block, which
    the chain only reads, and 4 |b|^2 as one float for every trajectory-step
    of the block.  s is formed as (c - rho 2a) rho + 2a with c = 1 - 4 dt,
    then squared, added to 4 |b|^2 and square-rooted: IEEE operations and a
    correctly rounded sqrt only, so the reference in the tests repeats them
    on float64 scalars, and no libm routine enters the bits.  The constants
    are 0-d arrays, converted once per call or block and not once per step.
    Unchecked: callers validate dt.

    The projection is a bounded repair.  With the two-point increments
    2 a = +-2 sqrt(dt) and 4 |b|^2 = 8 dt, s rises monotonically from 2 a
    at rho = 0 to c at rho = 1 whenever c > 4 sqrt(dt), which holds for
    dt <= DEFAULT_DT_MAX; so |s| <= c, |r'| <= sqrt(1 + 16 dt^2), and
    min(., 1) moves a length by at most 8 dt^2 (8e-8 at dt = 1e-4), plus
    rounding.
    """
    c = np.array(1.0 - 4.0 * dt)
    one = np.array(1.0)
    t = np.empty_like(rho)
    for two_as, across in blocks:
        b2 = np.array(across)
        for two_a in two_as:
            np.multiply(rho, two_a, out=t)
            np.subtract(c, t, out=t)
            t *= rho
            t += two_a
            t *= t
            t += b2
            np.sqrt(t, out=t)
            np.minimum(t, one, out=rho)
            yield rho


def _length_noise(streams, steps: int, dt: float):
    """The blocks (2 a, 4 |b|^2) of `steps` steps for a batch of groups: two-point increments.

    The groups draw one uniform u per trajectory-step, in the `montecarlo`
    block layout, and the increment along the Bloch vector is
    a = copysign(sqrt(dt), u - 1/2): +-sqrt(dt), each with probability
    exactly 1/2, as u lies on the 2^-53 grid of [0, 1).  The
    squared length |b|^2 of the increment across the vector is its mean
    2 dt, so 4 |b|^2 = 8 dt, exact, comes as one float.  The step-major (m, B)
    block of 2 a is a view of one reused buffer, so each block must be read
    before the next is requested.
    """
    two_sqrt_dt = 2.0 * math.sqrt(dt)
    for (two_as,) in _group_blocks(streams, steps, _LENGTH_KINDS):
        two_as -= 0.5
        np.copysign(two_sqrt_dt, two_as, out=two_as)
        yield two_as, 8.0 * dt


def simulate_trajectory(
    initial: DensityMatrix,
    t_max: float,
    dt: float,
    rng: np.random.Generator,
    emit_record: bool = False,
) -> Trajectory:
    """Integrate one conditional trajectory, keeping the initial state and every step.

    Returns a `Trajectory` of K = steps + 1 columns, steps =
    max(1, round(t_max / dt)), in read-only arrays from which each
    `TrajectoryState` snapshot is built when it is read.  When emit_record is set each column carries the accumulated
    record integral of <sigma> dt + dW/2 up to its time.  The state steps as
    three Python floats through the scalar step `_step_bloch`, three normals
    of rng per step as `draw_noise` draws them.  An ensemble steps the same
    means through the two-point length chain, not this law or these bits.

    The noise is drawn _ROW_CHUNK rows at a time, which bounds the working
    memory.  The step pass runs `_step_bloch` over a chunk's rows and writes
    the states straight into the chunk's columns, so column k is
    `bloch_sde_step`'s chain after k steps, bit for bit: the step's own
    projection is the only repair, and |r| <= 1 + 4 eps.  A chunk holding a
    non-finite state, which only a stream drawing non-finite normals can
    cause, is refused.  The record pass writes (rec + r dt) + 0.5 dW from
    the columns already written, through one `np.add.accumulate` over the
    interleaved terms, which adds them in step order; the times are k dt.
    """
    _check_step(dt)
    if not (t_max > 0.0) or not math.isfinite(t_max):
        raise ValueError(f"t_max must be a positive real, got {t_max!r}")
    steps = max(1, int(round(t_max / dt)))
    x, y, z = initial.bloch
    times = np.arange(steps + 1) * dt
    bloch = np.empty((3, steps + 1))
    bloch[:, 0] = initial.bloch
    record = np.zeros((3, steps + 1)) if emit_record else None
    scale = math.sqrt(dt)
    for k in range(0, steps, _ROW_CHUNK):  # k: steps taken
        d_w = rng.standard_normal((min(_ROW_CHUNK, steps - k), 3))
        d_w *= scale
        m = len(d_w)
        flat = []
        extend = flat.extend
        for wx, wy, wz in d_w.tolist():
            x, y, z = r = _step_bloch(x, y, z, wx, wy, wz, dt)
            extend(r)
        chunk = bloch[:, k + 1 : k + m + 1]
        chunk[:] = np.array(flat).reshape(m, 3).T
        if not np.isfinite(chunk).all():
            raise ValueError(f"the trajectory reached a non-finite state within steps {k + 1}..{k + m}")
        if record is not None:
            terms = np.empty((2 * m + 1, 3))
            terms[0] = record[:, k]
            terms[1::2] = bloch[:, k : k + m].T * dt
            terms[2::2] = 0.5 * d_w
            np.add.accumulate(terms, axis=0, out=terms)
            record[:, k + 1 : k + m + 1] = terms[2::2].T
    for column in (times, bloch, record):
        if column is not None:
            column.flags.writeable = False
    return Trajectory(times, bloch, record)


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
    |initial.bloch| enters: the Bloch lengths of a batch of whole groups,
    as `montecarlo._grid_rows` forms it, step together, one entry each of a
    (B,) array, through the in-place chain `_step_lengths`, under the
    two-point increments of `_length_noise`: the scalar step's means to weak
    order 1, not its law.  Group j of trajectories [jG, (j + 1)G) draws its
    noise from derive_stream(seed, base_index + jG) (see `_length_noise`), so
    a batch split at group boundaries follows the same noise and step
    arithmetic as the whole, and the batches bound the working memory
    without moving a bit.  Grid times snap to the nearest step, where the
    lengths rho are read for (1 + rho^2)/2.
    """
    _check_step(dt)
    t_grid = [float(t) for t in t_grid]
    if not t_grid or not all(0.0 <= t < math.inf for t in t_grid) or sorted(t_grid) != t_grid:
        raise ValueError("time grid must be nonempty, finite, nonnegative, ascending")
    marks = [int(round(t / dt)) for t in t_grid]
    lengths = _grid_rows(
        lambda rho, streams: _step_lengths(rho, _length_noise(streams, marks[-1], dt), dt),
        marks, lambda width: np.full(width, _norm(initial.bloch)), trajectories, seed, base_index,
    )
    return 0.5 * (1.0 + lengths * lengths)
