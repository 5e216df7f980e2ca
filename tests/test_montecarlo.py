import hashlib
import json
import struct

import pytest

import unsharp_qubit.ensemble as ens
import unsharp_qubit.montecarlo as montecarlo
from unsharp_qubit import DensityMatrix, derive_stream, simulate_trajectory
from unsharp_qubit.cli import main

G = montecarlo._GROUP

# SHA-256 of the CSV at the flags below, one per trial count: below G, at
# G + 1 and at 2G + 1.  A change to the draw layout changes them; announce it
# and update them together.
CURVE_FLAGS = ("fidelity-curve", "--delta", "20", "--n-grid", "0,3,7", "--estimator", "both", "--seed", "11")
COMPARE_FLAGS = ("continuum-compare", "--delta", "20", "--n-max", "3", "--dt", "5e-4", "--seed", "12")
TABLE_DIGESTS = {
    (CURVE_FLAGS, "--trials", 30): "03bf818395a23fe7549b176910f84d1c706af2d5f96099c2532cd23f9b9f7864",
    (CURVE_FLAGS, "--trials", 101): "d9512effca8c7fbe471fb69ec47d2ec9b8cab2e6ceeb622da9a7abced5664a2c",
    (CURVE_FLAGS, "--trials", 201): "011a0820884b481079e2e0d22aa3c29165c28446c1a29a47d3dbac78243263e2",
    (COMPARE_FLAGS, "--trajectories", 30): "6bde24bb55941ea72368fc1a5e2f131355fd2c7a7f515319f1cb3fa8774a55b6",
    (COMPARE_FLAGS, "--trajectories", 101): "a0aa19ec725c60938e4234c6dbbd9df8fe85a7cacc6151064dd7f0591ce73d34",
    (COMPARE_FLAGS, "--trajectories", 201): "500b8e9f290a2f5aa57345fc3335e074b460415ae65774b07998a6304f84f267",
}
# every third snapshot and the last of one trajectory, 2500 steps across several noise chunks
TRAJECTORY_DIGEST = "54229908dd98556c73003d03630c41d2618fc3633f81ac4f5472ce7b389eecdb"


def _first_draws(rng):
    return rng.standard_normal(3).tolist(), rng.random(2).tolist()


def test_groups_cover_the_part_at_fixed_boundaries():
    # group j of a part covers trials [jG, (j + 1)G) on derive_stream(seed, base + jG)
    groups = montecarlo._group_streams(5, 1000, 0, 2 * G + 50)
    assert [w for _, w in groups] == [G, G, 50]
    assert [_first_draws(g) for g, _ in groups] == [_first_draws(derive_stream(5, 1000 + j * G)) for j in range(3)]
    tail = montecarlo._group_streams(5, 1000, G, 2 * G + 1)
    assert [w for _, w in tail] == [G, 1]
    assert [_first_draws(g) for g, _ in tail] == [_first_draws(derive_stream(5, 1000 + j * G)) for j in (1, 2)]


def test_chunks_split_parts_at_group_boundaries():
    for total in (1, G - 1, G, G + 1, 2 * G + 1, 1000, 10**4):
        for workers in (1, 2, 3, 7):
            chunks = ens._chunk_ranges(total, workers)
            assert chunks[0][0] == 0 and chunks[-1][1] == total
            assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
            assert all(lo % G == 0 for lo, _ in chunks)
            assert len(chunks) <= workers


@pytest.mark.parametrize(
    ("flags", "count_flag", "count"), list(TABLE_DIGESTS), ids=[f"{f[0]}-{n}" for f, _, n in TABLE_DIGESTS]
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
