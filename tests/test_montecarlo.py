import hashlib
import json
import struct

import numpy as np
import pytest

import unsharp_qubit.ensemble as ens
import unsharp_qubit.montecarlo as montecarlo
from unsharp_qubit import (
    DensityMatrix,
    MeasurementSettings,
    derive_stream,
    hypothetical_purity_paths,
    simulate_purity_ensemble,
    simulate_trajectory,
)
from unsharp_qubit.cli import main

G = montecarlo._GROUP

# SHA-256 of the CSV at the flags below, one per trial count: below G, at
# G + 1 and at 2G + 1, and for the curve to n = 400, past one block of
# montecarlo._BLOCK_STEPS steps, below G.  A change to the draw layout changes
# them, and so does a kernel's arithmetic with the layout kept: the
# fidelity-curve digests also pin the direct estimator's chain of invariants
# (four variates a step, no pure start) bit for bit, and their purity
# columns the mixed-start length chain.  Announce either and update them
# together.  The continuum-compare digests' SDE column rests on IEEE
# operations and a correctly rounded sqrt alone; their discrete column, like
# the fidelity-curve digests, rests on numpy's tanh and exp, which another
# libm may round differently.
CURVE_FLAGS = ("fidelity-curve", "--delta", "20", "--n-grid", "0,3,7", "--estimator", "both", "--seed", "11")
BLOCK_CURVE_FLAGS = ("fidelity-curve", "--delta", "20", "--n-grid", "0,400", "--estimator", "both", "--seed", "11")
COMPARE_FLAGS = ("continuum-compare", "--delta", "20", "--n-max", "3", "--dt", "5e-4", "--seed", "12")
LABELS = {CURVE_FLAGS: "fidelity-curve", BLOCK_CURVE_FLAGS: "fidelity-curve-n400", COMPARE_FLAGS: "continuum-compare"}
TABLE_DIGESTS = {
    (CURVE_FLAGS, "--trials", 30): "4894aa06bb1538c0fae10c1aafc84348c001d75311f098d2de802b5b8da2c517",
    (CURVE_FLAGS, "--trials", 101): "4ace01be6993a829892d60a20858db66195080a836c60787d98045cdedbcbc8f",
    (CURVE_FLAGS, "--trials", 201): "770cc342da9490f7f68bf1de4e5408781bd41dc111ac121571e16ee78cb69472",
    (BLOCK_CURVE_FLAGS, "--trials", 30): "42ac8a42b93e57e1aa80176e5e636edd9b69618cba5797a45bbe1e9d0982e73c",
    (COMPARE_FLAGS, "--trajectories", 30): "0b36e6a02bb47f750a792eee8570994e607d840b9080d6c5fde1e716760ed396",
    (COMPARE_FLAGS, "--trajectories", 101): "47ba4a09dae00e297870a72919de8865819421be26116f58db8d89a443e74da8",
    (COMPARE_FLAGS, "--trajectories", 201): "8d2d546566683312c563f5b4b2226b17040a117f36fe3e58d387d429059e23c8",
}
# every third snapshot and the last of one trajectory, 2500 steps across several noise chunks
TRAJECTORY_DIGEST = "54229908dd98556c73003d03630c41d2618fc3633f81ac4f5472ce7b389eecdb"


def _first_draws(rng):
    return rng.standard_normal(3).tolist(), rng.random(2).tolist()


def test_float_seeds_and_indices_are_refused_not_truncated():
    # int() would have read 7.9 as 7 and seed 3.5 as 3; numpy integers still pass
    for seed, index in ((7.9, 0), (7, 0.0), (7, 1.5)):
        with pytest.raises(TypeError):
            derive_stream(seed, index)
    assert _first_draws(derive_stream(np.uint64(7), np.int32(3))) == _first_draws(derive_stream(7, 3))
    with pytest.raises(TypeError):
        simulate_purity_ensemble((0.0, 0.01), 1e-4, 4, seed=3.5)
    with pytest.raises(TypeError):
        hypothetical_purity_paths(3, MeasurementSettings(2.0), 4, seed=2.5)
    whole = simulate_purity_ensemble((0.0, 0.01), 1e-4, 4, seed=np.int64(3))
    np.testing.assert_array_equal(whole, simulate_purity_ensemble((0.0, 0.01), 1e-4, 4, seed=3))


def test_groups_cover_the_part_at_fixed_boundaries():
    # group j of a part covers trials [jG, (j + 1)G) on derive_stream(seed, base + jG)
    groups = montecarlo._group_streams(5, 1000, 0, 2 * G + 50)
    assert [w for _, w in groups] == [G, G, 50]
    assert [_first_draws(g) for g, _ in groups] == [_first_draws(derive_stream(5, 1000 + j * G)) for j in range(3)]
    tail = montecarlo._group_streams(5, 1000, G, 2 * G + 1)
    assert [w for _, w in tail] == [G, 1]
    assert [_first_draws(g) for g, _ in tail] == [_first_draws(derive_stream(5, 1000 + j * G)) for j in (1, 2)]


def test_rows_at_reads_a_chain_at_its_marks_only():
    # step 0 and repeated marks included; the chain, updated in place, is not advanced past the last mark
    rho = np.zeros(2)

    def chain():
        for k in range(1, 100):
            rho[:] = k / 100
            yield rho

    steps = chain()
    rows = montecarlo._rows_at(steps, [0, 0, 3, 3, 10], rho)
    assert rows.tolist() == [[x] * 2 for x in (0.0, 0.0, 0.03, 0.03, 0.1)]
    assert next(steps).tolist() == [0.11, 0.11]


def test_chunks_split_parts_at_group_boundaries():
    for total in (1, G - 1, G, G + 1, 2 * G + 1, 1000, 10**4):
        for workers in (1, 2, 3, 7):
            chunks = ens._chunk_ranges(total, workers)
            assert chunks[0][0] == 0 and chunks[-1][1] == total
            assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
            assert all(lo % G == 0 for lo, _ in chunks)
            assert len(chunks) <= workers


@pytest.mark.parametrize(
    ("flags", "count_flag", "count"), list(TABLE_DIGESTS), ids=[f"{LABELS[f]}-{n}" for f, _, n in TABLE_DIGESTS]
)
def test_table_bytes_are_pinned_at_any_worker_count(tmp_path, flags, count_flag, count):
    def run(workers, fmt):
        out = tmp_path / f"table.{fmt}"  # one path, so the flags in the JSON differ by --workers only
        argv = [*flags, count_flag, str(count), "--workers", str(workers), "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        return out.read_bytes()

    digest = TABLE_DIGESTS[flags, count_flag, count]
    payloads = []
    for workers in (1, 2, 3):
        assert hashlib.sha256(run(workers, "csv")).hexdigest() == digest
        payload = json.loads(run(workers, "json"))
        assert payload["meta"]["flags"].pop("workers") == workers
        payloads.append(payload)
    assert payloads[0] == payloads[1] == payloads[2]


def test_trajectory_bytes_are_pinned():
    path = simulate_trajectory(DensityMatrix((0.0, 0.6, 0.8)), 0.25, 1e-4, derive_stream(5, 0), emit_record=True)
    assert len(path) == 2501
    digest = hashlib.sha256()
    for snap in path[::3] + path[-1:]:
        digest.update(struct.pack("<7d", snap.time, *snap.state.bloch, *snap.record))
    assert digest.hexdigest() == TRAJECTORY_DIGEST
