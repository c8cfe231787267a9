"""Protocol compiler: isometries, published circuits, stabilizers, gauges."""

import json
import math

import numpy as np
import pytest

from slowlight import noise, shots, tomography
from slowlight import protocol as P
from slowlight import qops

GRAPH_NAMES = sorted(P.TARGET_GRAPHS)


def _graph_oracle(name):
    n, edges = P.TARGET_GRAPHS[name]
    return qops.graph_state(n, [(a - 1, b - 1) for a, b in edges])


def test_bell_schedule_keeps_emitter_axis():
    state = P.compile_and_run(
        [P.rotation("ge", math.pi / 2), P.rotation("ef", math.pi), P.emit(1)])
    amps = state.amplitudes
    r = 1.0 / math.sqrt(2.0)
    assert amps[0, 0] == pytest.approx(r, abs=1e-12)
    assert amps[1, 1] == pytest.approx(r, abs=1e-12)
    assert abs(amps[0, 1]) + abs(amps[1, 0]) + np.abs(amps[2]).sum() < 1e-12
    with pytest.raises(ValueError, match="disentangling"):
        state.photons()


def test_empty_schedule_is_vacuum():
    state = P.compile_and_run([])
    assert state.n_photons == 0
    np.testing.assert_allclose(state.photons(), [1.0 + 0.0j])


def test_fock1_target():
    np.testing.assert_allclose(P.target_state("fock1").photons(), [0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("name,n", [("ghz2", 2), ("ghz3", 3)])
def test_ghz_targets_are_canonical(name, n):
    vec = P.target_state(name).photons()
    want = np.zeros(2 ** n, dtype=complex)
    want[0] = want[-1] = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(vec, want, atol=1e-12)


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_graph_targets_match_brute_force_construction(name):
    # oracle: CZ^(edges) H^n |0..0> built directly on the register
    vec = P.target_state(name).photons()
    np.testing.assert_allclose(vec, _graph_oracle(name), atol=1e-12)


def test_compiled_norm_is_one():
    for name in P.TARGET_NAMES:
        state = P.compile_and_run(P.published_circuit(name))
        assert abs(state.norm() - 1.0) < 1e-12


def test_cluster4_vertex_stabilizers_are_plus_one():
    n, edges = P.target_graph("cluster4_2d")
    vals = P.stabilizer_expectations(P.target_state("cluster4_2d"), edges)
    np.testing.assert_allclose(vals, np.ones(n), atol=1e-10)


def test_cluster4_full_stabilizer_group():
    n, edges = P.target_graph("cluster4_2d")
    vec = P.target_state("cluster4_2d").photons()
    gens = [qops.stabilizer_operator(v, n, [(a - 1, b - 1) for a, b in edges])
            for v in range(n)]
    for mask in range(2 ** n):
        op = np.eye(2 ** n, dtype=complex)
        for v in range(n):
            if (mask >> v) & 1:
                op = op @ gens[v]
        assert np.vdot(vec, op @ vec).real == pytest.approx(1.0, abs=1e-10)


def test_stabilizers_on_mixed_state_and_inputs():
    n, edges = P.target_graph("cluster4_2d")
    mixed = P.DensityMatrix(np.eye(16) / 16.0)
    np.testing.assert_allclose(P.stabilizer_expectations(mixed, edges), np.zeros(4), atol=1e-14)
    vec = P.target_state("cluster4_2d").photons()
    by_vec = P.stabilizer_expectations(vec, edges)
    by_dm = P.stabilizer_expectations(P.DensityMatrix.from_pure(vec), edges)
    np.testing.assert_allclose(by_vec, by_dm, atol=1e-12)
    with pytest.raises(ValueError, match="expected"):
        P.stabilizer_expectations(vec, edges, n_photons=5)
    with pytest.raises(ValueError, match="edge"):
        P.stabilizer_expectations(vec, [(1, 9)])


def test_local_z_conjugation_flips_x_stabilizers_predictably():
    n, edges = P.target_graph("cluster4_2d")
    vec = P.target_state("cluster4_2d").photons()
    rng = np.random.default_rng(11)
    for _ in range(6):
        support = {v for v in range(n) if rng.integers(2)}
        labels = "".join("Z" if v in support else "I" for v in range(n))
        rotated = qops.pauli_string(labels) @ vec
        vals = P.stabilizer_expectations(rotated, edges)
        for v in range(n):
            want = -1.0 if v in support else 1.0
            assert vals[v] == pytest.approx(want, abs=1e-10)
        # all-Z correlators are blind to Z rotations
        for zlab in ("ZIZI", "IZIZ", "ZZZZ"):
            op = qops.pauli_string(zlab)
            before = np.vdot(vec, op @ vec).real
            after = np.vdot(rotated, op @ rotated).real
            assert after == pytest.approx(before, abs=1e-12)


def test_commuting_step_swaps_leave_state_unchanged():
    steps = P.published_circuit("cluster4_2d")
    gates = [i for i, s in enumerate(steps) if s.kind == "mirror_gate"]
    base = P.compile_and_run(steps).amplitudes
    for i in gates:
        for j in (i - 1, i + 1):
            if 0 <= j < len(steps) and steps[j].kind == "rotation":
                swapped = list(steps)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                np.testing.assert_allclose(
                    P.compile_and_run(swapped).amplitudes, base, atol=1e-14)
    # adjacent feedback scatterings commute as well
    two = [P.rotation("ge", math.pi / 2), P.rotation("ef", math.pi), P.emit(1),
           P.rotation("ge", math.pi / 2), P.rotation("ef", math.pi), P.emit(2),
           P.rotation("ge", math.pi / 2), P.cz_feedback(1), P.cz_feedback(2),
           P.rotation("ef", math.pi), P.rotation("ge", math.pi), P.emit(3),
           P.rotation("ge", math.pi)]
    flipped = list(two)
    flipped[7], flipped[8] = flipped[8], flipped[7]
    np.testing.assert_allclose(P.compile_and_run(flipped).amplitudes,
                               P.compile_and_run(two).amplitudes, atol=1e-14)


def test_tetra5_uses_two_feedback_events_on_photon_one():
    fb = [s.photon for s in P.published_circuit("tetra5") if s.kind == "cz_feedback"]
    assert fb == [1, 1]
    fb5 = [s.photon for s in P.published_circuit("ring5") if s.kind == "cz_feedback"]
    assert fb5 == [1]


def test_compensation_offsets_cluster2():
    thetas = P.compensation_offsets("cluster2")
    assert abs(thetas[0]) == pytest.approx(math.pi, abs=1e-12)
    assert thetas[1] == pytest.approx(0.0, abs=1e-12)


def test_virtual_z_sweep_slope_one():
    steps = P.published_circuit("cluster4_2d")
    grid = [0.0, 0.25, 0.5, 0.75]
    out = P.virtual_z_sweep(steps, grid)
    assert out.shape == (4, 4)
    np.testing.assert_allclose(out[0], np.zeros(4), atol=1e-12)
    for k in range(4):
        slope = np.polyfit(grid, out[:, k], 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-9)
    wrapped = P.virtual_z_sweep(steps, [2.0 * math.pi])
    np.testing.assert_allclose(wrapped[0], out[0], atol=1e-9)


def test_fidelity_contract():
    rng = np.random.default_rng(29)
    for _ in range(5):
        a = rng.normal(size=16) + 1j * rng.normal(size=16)
        b = rng.normal(size=16) + 1j * rng.normal(size=16)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        direct = abs(np.vdot(a, b)) ** 2
        assert P.fidelity(a, b) == pytest.approx(direct, abs=1e-10)
        ra = P.DensityMatrix.from_pure(a)
        rb = P.DensityMatrix.from_pure(b)
        assert P.fidelity(ra, rb) == pytest.approx(direct, abs=1e-10)
        assert P.fidelity(ra, rb) == pytest.approx(P.fidelity(rb, ra), abs=1e-10)
        assert P.fidelity(ra, ra) == pytest.approx(1.0, abs=1e-10)
    bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative"):
        P.fidelity(bad, np.eye(4, dtype=complex) / 4.0)
    with pytest.raises(ValueError, match="dimensions"):
        P.fidelity(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))


def test_schedule_validation_errors():
    with pytest.raises(ValueError, match="twice"):
        P.compile_and_run([P.rotation("ge", math.pi), P.rotation("ef", math.pi),
                           P.emit(1), P.rotation("ef", math.pi), P.emit(1)])
    with pytest.raises(ValueError, match="out of order"):
        P.compile_and_run([P.emit(2)])
    with pytest.raises(ValueError, match="before it was emitted"):
        P.compile_and_run([P.cz_feedback(1)])
    with pytest.raises(ValueError, match="transition"):
        P.rotation("gf", math.pi)
    with pytest.raises(ValueError, match="mirror"):
        P.mirror_gate("ajar")
    with pytest.raises(ValueError, match="positive"):
        P.idle(0.0)
    with pytest.raises(ValueError, match="unknown target"):
        P.target_state("cluster9")


def test_density_matrix_validation():
    good = P.DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    assert good.n_photons == 2
    herm = np.diag([0.5, 0.5]).astype(complex)
    herm[0, 1] = 0.3
    with pytest.raises(ValueError, match="Hermitian"):
        P.DensityMatrix(herm)
    with pytest.raises(ValueError, match="trace"):
        P.DensityMatrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError, match="negative"):
        P.DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="power of two"):
        P.DensityMatrix(np.eye(3, dtype=complex) / 3.0)


def test_validate_density_reports_its_own_trace_message():
    with pytest.raises(ValueError, match="trace 2 is not 1"):
        qops.validate_density(np.eye(2))


def test_fidelity_is_exact_on_every_rank():
    rng = np.random.default_rng(17)
    for rank in range(1, 17):
        g = rng.normal(size=(16, rank)) + 1j * rng.normal(size=(16, rank))
        a = g @ g.conj().T
        a /= np.trace(a).real
        assert abs(qops.fidelity(a, a) - 1.0) < 1e-12


def test_kicked_batch_equals_separate_runs():
    steps = P.published_circuit("cluster4_2d")
    kicks = np.random.default_rng(5).normal(scale=0.3, size=(7, len(steps)))
    batch = P._run(steps, kicks)
    for r in range(len(kicks)):
        assert np.array_equal(batch[r], P._run(steps, kicks[r:r + 1])[0])


def test_zero_kicks_reproduce_compile_and_run():
    steps = P.published_circuit("cluster4_2d")
    plain = P.compile_and_run(steps).amplitudes
    kicked = P._run(steps, np.zeros((3, len(steps))))
    for row in kicked:
        assert np.array_equal(row, plain)


def test_density_json_schema_round_trip():
    dm = P.target_state("cluster2").photon_density()
    back = P.DensityMatrix.from_json(dm.to_json(extra={"seed": 4}))
    assert np.array_equal(back.matrix, dm.matrix)
    doc = json.loads(dm.to_json())
    assert (doc["kind"], doc["dim"], doc["n_photons"]) == ("density_matrix", 4, 2)


def test_json_round_trip():
    state = P.target_state("cluster2")
    doc = json.loads(state.to_json())
    assert doc["n_photons"] == 2
    assert doc["basis"][0] == "g|00"
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    np.testing.assert_allclose(amps[:4], state.photons(), atol=1e-12)
    dm = state.photon_density()
    doc2 = json.loads(dm.to_json())
    mat = np.array(doc2["real"]) + 1j * np.array(doc2["imag"])
    np.testing.assert_allclose(mat, dm.matrix, atol=1e-12)
    assert doc2["basis"] == ["00", "01", "10", "11"]


def test_pure_state_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(12)
    for n in (0, 3):
        amps = rng.standard_normal((3,) + (2,) * n) \
            + 1j * rng.standard_normal((3,) + (2,) * n)
        state = P.PureState(amps / np.linalg.norm(amps))
        back = P.PureState.from_json(state.to_json())
        assert back.n_photons == n
        assert np.array_equal(back.amplitudes, state.amplitudes)
    doc = json.loads(state.to_json())
    doc["amplitudes"] = doc["amplitudes"][:-1]
    with pytest.raises(ValueError, match="24 amplitude pairs"):
        P.PureState.from_json(json.dumps(doc))


def test_schedule_timing_metadata():
    steps = P.published_circuit("cluster4_2d")
    starts = P.schedule_times(steps)
    assert np.all(np.diff(starts) >= 0.0)
    for s in steps:
        if s.kind in ("rotation", "emit", "cz_feedback"):
            assert s.duration > 0.0
    total = P.total_duration(steps)
    assert starts[-1] + steps[-1].duration == pytest.approx(total, rel=1e-12)
    # four cycles must fit inside a few waveguide round trips
    assert 2e-7 < total < 1e-6


def test_pure_state_helpers():
    a = P.target_state("ghz2")
    b = P.target_state("cluster2")
    ov = a.overlap(b)
    direct = np.vdot(a.photons(), b.photons())
    assert ov == pytest.approx(direct, abs=1e-12)
    with pytest.raises(ValueError, match="photon counts"):
        a.overlap(P.target_state("ghz3"))
    emb = P.PureState.from_photonic(np.array([0.0, 1.0], dtype=complex))
    assert emb.n_photons == 1
    np.testing.assert_allclose(emb.photons(), [0.0, 1.0])


# ---------------------------------------------------------------------------
# one state-coercion rule at every entry point
# ---------------------------------------------------------------------------


BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def _bootstrap_figures(state):
    table = tomography.moments_from_state(BELL, variance=0.01, count=400)
    ci = tomography.bootstrap_ci(table, state, resamples=100, seed=3)
    return np.array([ci["estimate"], ci["low"], ci["high"]])


def _moment_means(state):
    table = tomography.moments_from_state(state)
    return np.array([table.mean(sig) for sig in table.signatures()])


def _shot_values(state):
    return shots.synthesize_shots(state, 0.5, 300, seed=2)[0].values


def _channel_output(state):
    return noise.apply_channels(state, noise.ChannelStack(), (1,), 1).matrix


STATE_ENTRY_POINTS = {
    "bootstrap_ci": _bootstrap_figures,
    "moments_from_state": _moment_means,
    "synthesize_shots": _shot_values,
    "fidelity": lambda state: P.fidelity(state, BELL),
    "stabilizer_expectations": lambda state: P.stabilizer_expectations(state, [(1, 2)]),
    "apply_channels": _channel_output,
}


@pytest.mark.parametrize("entry", sorted(STATE_ENTRY_POINTS))
def test_every_state_entry_point_coerces_by_one_rule(entry):
    call = STATE_ENTRY_POINTS[entry]
    rho = P.DensityMatrix.from_pure(BELL)
    # an unnormalised vector or matrix raises instead of scaling the result
    with pytest.raises(ValueError, match="norm 2 is not 1"):
        call(2.0 * BELL)
    with pytest.raises(ValueError, match="trace 2 is not 1"):
        call(2.0 * rho.matrix)
    pure = call(P.PureState.from_photonic(BELL))
    vector = call(BELL)
    density = call(rho)
    matrix = call(rho.matrix.copy())
    np.testing.assert_array_equal(pure, vector)
    np.testing.assert_array_equal(density, matrix)
    if entry != "synthesize_shots":
        # shots sample a vector directly and a matrix through its eigenvectors
        np.testing.assert_allclose(vector, density, rtol=0.0, atol=1e-12)


def test_coerce_state_normalises_within_tolerance():
    near = BELL * (1.0 + 5e-9)
    np.testing.assert_array_equal(P.coerce_state(near), near / np.linalg.norm(near))
    with pytest.raises(ValueError, match="norm"):
        P.coerce_state(BELL * (1.0 + 2e-8))
    with pytest.raises(ValueError, match="square"):
        P.coerce_state(np.ones((2, 2, 2)))
