import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameness import (
    InvalidDensity,
    LengthMismatch,
    NotNormalized,
    NotProbabilityVector,
    SectoredPureState,
    StandardState,
    is_gapless,
    majorizes,
    purify,
    qubit_concurrence,
    random_density_matrix,
    random_standard_state,
    spectrum,
    standard_form,
    twirl,
)
from frameness.states import (
    density_from_dict,
    density_to_dict,
    state_from_dict,
)

RT2 = np.sqrt(2.0)


def test_standard_form_merges_multiplicities():
    # (|0,a> + |0,b> + sqrt(2)|1,a>) / 2 carries weight 1/2 on each sector
    state = SectoredPureState({0: [0.5, 0.5], 1: [RT2 / 2]}, dim=2)
    std = standard_form(state)
    assert np.allclose(std.weights, [0.5, 0.5], atol=1e-15)


def test_standard_form_ignores_phases():
    rng = np.random.default_rng(8)
    for _ in range(20):
        amps = {0: rng.normal(size=3) + 1j * rng.normal(size=3), 2: rng.normal(size=2)}
        norm = np.sqrt(sum(np.vdot(v, v).real for v in amps.values()))
        amps = {n: v / norm for n, v in amps.items()}
        base = standard_form(SectoredPureState(amps, dim=4))
        phased = {
            n: v * np.exp(1j * rng.uniform(0, 2 * np.pi, size=v.shape))
            for n, v in amps.items()
        }
        rot = standard_form(SectoredPureState(phased, dim=4))
        assert np.max(np.abs(base.weights - rot.weights)) < 1e-14


def test_standard_form_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        standard_form(SectoredPureState({0: [1.0], 1: [1.0]}, dim=2))


def test_sectored_state_window():
    with pytest.raises(ValueError):
        SectoredPureState({5: [1.0]}, dim=3)


def test_standard_state_checks_weights():
    with pytest.raises(NotNormalized):
        StandardState([0.5, 0.3])
    with pytest.raises(NotNormalized):
        StandardState([1.5, -0.5])
    with pytest.raises(NotNormalized):
        StandardState([np.nan, 0.5, 0.5])
    with pytest.raises(NotNormalized):
        StandardState([np.inf, -np.inf, 1.0])


def test_spectrum_and_gaps():
    gapped = spectrum(StandardState([0.5, 0.0, 0.5]))
    assert gapped.support == (0, 2)
    assert not is_gapless(gapped)
    solid = spectrum(StandardState([0.3, 0.7]))
    assert solid.support == (0, 1)
    assert is_gapless(solid)
    point = spectrum(StandardState([0.0, 1.0, 0.0]))
    assert point.support == (1,)
    assert is_gapless(point)


def test_twirl_kills_off_diagonals():
    plus = 0.5 * np.ones((2, 2))
    assert np.array_equal(twirl(plus), np.diag([0.5, 0.5]))


def test_twirl_idempotent_and_trace_preserving():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho = random_density_matrix(5, rng)
        once = twirl(rho)
        assert np.array_equal(twirl(once), once)
        assert np.array_equal(np.diag(once), np.diag(rho))
        assert np.linalg.eigvalsh(once).min() > -1e-12


def test_twirl_keeps_multiplicity_blocks():
    rng = np.random.default_rng(9)
    rho = random_density_matrix(3, rng)
    out = twirl(rho, sector_of=[0, 0, 1])
    assert out[0, 1] == rho[0, 1]
    assert out[1, 0] == rho[1, 0]
    assert out[0, 2] == 0.0
    assert out[2, 1] == 0.0


def test_purify_amplitudes_and_total():
    bp = purify(StandardState([0.6, 0.3, 0.1]))
    assert bp.total == 2
    assert set(bp.amplitudes) == {(0, 2), (1, 1), (2, 0)}
    assert bp.amplitudes[(0, 2)] == pytest.approx(np.sqrt(0.6))


def _dense_vector(bp):
    d_ref = bp.total + 1
    psi = np.zeros((bp.system_dim, d_ref), dtype=np.complex128)
    for (ns, nr), a in bp.amplitudes.items():
        psi[ns, nr] = a
    return psi


def test_purify_marginals():
    rng = np.random.default_rng(14)
    for dim in (2, 3, 5, 8):
        st = random_standard_state(dim, rng)
        bp = purify(st)
        psi = _dense_vector(bp)
        # independent partial-trace oracle on the dense amplitude table
        rho_s = np.einsum("nr,mr->nm", psi, psi.conj())
        rho_r = np.einsum("nr,ns->rs", psi, psi.conj())
        assert np.max(np.abs(rho_s - np.diag(st.weights))) < 1e-12
        assert np.max(np.abs(rho_s - bp.reduced_system())) < 1e-12
        assert np.max(np.abs(rho_r - bp.reduced_reference())) < 1e-12
        ws = np.sort(np.linalg.eigvalsh(rho_s))[::-1]
        wr = np.sort(np.linalg.eigvalsh(rho_r))[::-1]
        size = max(ws.size, wr.size)
        ws = np.pad(ws, (0, size - ws.size))
        wr = np.pad(wr, (0, size - wr.size))
        assert np.max(np.abs(ws - wr)) < 1e-12


def test_majorizes_basic():
    assert majorizes([0.7, 0.3], [0.6, 0.4])
    assert not majorizes([0.5, 0.5], [0.6, 0.4])
    assert majorizes([1.0], [0.7, 0.3])
    assert majorizes([0.4, 0.3, 0.3], [1.0 / 3.0] * 3)


def test_majorizes_reflexive_and_flat_bottom():
    rng = np.random.default_rng(21)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        w = random_standard_state(d, rng).weights
        assert majorizes(w, w)
        assert majorizes(w, np.full(d, 1.0 / d))


def test_majorizes_rejects_bad_input():
    with pytest.raises(NotProbabilityVector):
        majorizes([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(NotProbabilityVector):
        majorizes([1.2, -0.2], [0.5, 0.5])
    with pytest.raises(NotProbabilityVector):
        majorizes([np.nan, 0.5, 0.5], [1.0])
    with pytest.raises(LengthMismatch):
        majorizes(np.eye(2), [0.5, 0.5])


def test_random_standard_state_deterministic():
    a = random_standard_state(4, np.random.default_rng(77))
    b = random_standard_state(4, np.random.default_rng(77))
    assert np.array_equal(a.weights, b.weights)
    assert a.weights.min() >= 0.0
    assert a.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_json_roundtrips():
    state = state_from_dict(
        {
            "dim": 2,
            "sectors": [
                {"n": 0, "amplitudes": [[RT2 / 2, 0.0]]},
                {"n": 1, "amplitudes": [[0.0, RT2 / 2]]},
            ],
        }
    )
    assert isinstance(state, SectoredPureState)
    assert np.allclose(standard_form(state).weights, [0.5, 0.5])

    flat = state_from_dict({"dim": 3, "weights": [0.2, 0.5, 0.3]})
    assert isinstance(flat, StandardState)

    rng = np.random.default_rng(31)
    rho = random_density_matrix(3, rng)
    blob = json.dumps(density_to_dict(rho))
    back = density_from_dict(json.loads(blob))
    assert np.max(np.abs(back - rho)) == 0.0

    with pytest.raises(ValueError):
        state_from_dict({"dim": 2})


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def density_payloads(draw):
    """``density_from_dict`` payloads from 2x2 to 4x4 with up to two NaN or
    infinite parts; before those go in, the matrix is raw, Hermitian, or
    a normalized Gram matrix."""
    dim = draw(st.integers(2, 4))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim * dim, max_size=2 * dim * dim))
    a = np.reshape(parts[: dim * dim], (dim, dim)) + 1j * np.reshape(parts[dim * dim :], (dim, dim))
    form = draw(st.sampled_from(["raw", "hermitian", "density"]))
    if form != "raw":
        a = 0.5 * (a + a.conj().T)
    if form == "density":
        a = a @ a.conj().T
        with np.errstate(all="ignore"):
            a = a / np.trace(a).real
    for _ in range(draw(st.integers(0, 2))):
        part = a.real if draw(st.booleans()) else a.imag
        part[draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] = draw(NON_FINITE)
    return {"dim": dim, "matrix": [[[z.real, z.imag] for z in row] for row in a]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(density_payloads())
def test_density_loader_rejects_or_returns_a_density(payload):
    try:
        rho = density_from_dict(payload)
    except InvalidDensity:
        return
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert np.linalg.eigvalsh(rho).min() >= -1e-10
    assert abs(np.trace(rho).real - 1.0) <= 1e-9
    if rho.shape == (2, 2):
        c = qubit_concurrence(rho)
        assert math.isfinite(c)
        assert 0.0 <= c <= 1.0
