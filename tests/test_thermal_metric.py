import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    entrywise_close,
    integrand_at,
    max_rel_dev,
    null_residuals,
    random_couplings,
)
from kitaev_bures.bures import EigenvalueFloorError, validate_density_matrix
from kitaev_bures.quadrature import (
    GridSpec,
    QuadratureConvergenceError,
    compensated_sum,
    integrate_bz_refined,
)
from kitaev_bures.spectrum import (
    Couplings,
    Momentum,
    PhaseRegion,
    classify_phase,
    dirac_points,
    fermion_gap,
    mode_angle,
    spectral_arrays,
    wrap_angle,
)
from kitaev_bures.thermal_metric import (
    CLASSICAL_PAIRS,
    NONCLASSICAL_PAIRS,
    ParameterIndex as P,
    ThermoPoint,
    _eliminated,
    _integrand,
    _mode_bloch,
    _mode_matrix,
    _refinement_plan,
    _tanh_sq_ratio,
    nonclassical_corrections,
    tensor_finite,
    tensor_oracle,
    tensor_thermodynamic,
    tensors_thermodynamic,
)

SYM = Couplings(1 / 3, 1 / 3, 1 / 3)
GAPPED = Couplings(0.1, 0.1, 0.8)
DECOUPLED = Couplings(0.0, 0.0, 1.0)


def swap_xy_indices(m):
    perm = [0, 2, 1, 3]
    return m[np.ix_(perm, perm)]


# ---------------------------------------------------------------------------
# integrands


def test_thermo_point_validation():
    with pytest.raises(ValueError):
        ThermoPoint(SYM, 0.0)
    with pytest.raises(ValueError):
        ThermoPoint(SYM, math.inf)
    # beta^2 must be finite: the classical kernel forms it, and below T =
    # 1 / sqrt(DBL_MAX) = 7.46e-155 it overflowed to a NaN tensor
    beta_max = math.sqrt(np.finfo(float).max)
    assert ThermoPoint(SYM, beta_max).beta == beta_max
    with pytest.raises(ValueError, match="sqrt"):
        ThermoPoint(SYM, np.nextafter(beta_max, math.inf))
    with pytest.raises(ValueError, match=r"T >= 7\.458"):
        ThermoPoint.from_temperature(SYM, 1e-160)
    for temperature in (-1.0, math.inf):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            ThermoPoint.from_temperature(SYM, temperature)
    tp = ThermoPoint.from_temperature(SYM, 0.0)
    assert tp.zero_temperature and tp.temperature == 0.0
    assert ThermoPoint.from_temperature(SYM, 0.5).beta == pytest.approx(2.0)


def test_classical_integrand_beta_beta_decoupled(rng):
    tp = ThermoPoint(DECOUPLED, 1.3)
    for _ in range(5):
        p = Momentum(*rng.uniform(-math.pi, math.pi, size=2))
        val = integrand_at("c", P.BETA, P.BETA, p, tp)
        assert val == pytest.approx(4.0 / (math.cosh(2 * 1.3) + 1.0), rel=1e-13)


def test_classical_integrand_jxjy_decoupled_averages_to_zero():
    tp = ThermoPoint(DECOUPLED, 0.9)
    p = Momentum(0.7, -1.2)
    expected = (
        0.81 * 16.0 * math.cos(0.7) * math.cos(-1.2) / 4.0
        / (math.cosh(1.8) + 1.0)
    )
    assert integrand_at("c", P.JX, P.JY, p, tp) == pytest.approx(expected, rel=1e-12)
    t = tensor_finite(tp, 31, elements=[("c", P.JX, P.JY)])
    assert abs(t.element("classical", P.JX, P.JY)) < 1e-15


def test_classical_integrand_jzjz_symmetric_corner():
    tp = ThermoPoint(SYM, 1.0)
    val = integrand_at("c", P.JZ, P.JZ, Momentum(math.pi, math.pi), tp)
    assert val == pytest.approx(4.0 / (math.cosh(2 / 3) + 1.0), rel=1e-12)


def test_nonclassical_integrand_decoupled():
    tp = ThermoPoint(DECOUPLED, 0.8)
    p = Momentum(0.4, 2.0)
    expected = math.tanh(0.8) ** 2 * math.sin(0.4) ** 2
    assert integrand_at("nc", P.JX, P.JX, p, tp) == pytest.approx(expected, rel=1e-12)


def test_nonclassical_integrand_zero_when_delta_vanishes():
    # delta = 0 exactly at the decoupled point, so theta_z = -2 delta = 0
    tp = ThermoPoint(DECOUPLED, 2.0)
    assert integrand_at("nc", P.JZ, P.JZ, Momentum(0.7, -0.2), tp) == 0.0
    # at the symmetric zone corner delta only vanishes to rounding
    corner = integrand_at("nc", P.JZ, P.JZ, Momentum(math.pi, math.pi), ThermoPoint(SYM, 2.0))
    assert abs(corner) < 1e-30


def test_nonclassical_integrand_zero_temperature_ratio_is_one(rng):
    j = Couplings(0.2, 0.3, 0.4)
    p = Momentum(0.9, -0.3)
    cold = integrand_at("nc", P.JZ, P.JZ, p, ThermoPoint(j, 5000.0))
    frozen = integrand_at("nc", P.JZ, P.JZ, p, ThermoPoint.from_temperature(j, 0.0))
    assert cold == pytest.approx(frozen, rel=1e-8)


def test_nonclassical_element_rejects_beta():
    with pytest.raises(ValueError, match="coupling indices"):
        tensor_finite(ThermoPoint(SYM, 1.0), 5, elements=[("nc", P.BETA, P.JZ)])


def test_diagonal_integrands_nonnegative(rng):
    for _ in range(100):
        j = random_couplings(rng)
        tp = ThermoPoint(j, float(rng.uniform(0.2, 5.0)))
        p = Momentum(*rng.uniform(-math.pi, math.pi, size=2))
        for mu in (P.BETA, P.JX, P.JY, P.JZ):
            assert integrand_at("c", mu, mu, p, tp) >= 0.0
        for a in (P.JX, P.JY, P.JZ):
            assert integrand_at("nc", a, a, p, tp) >= 0.0


# ---------------------------------------------------------------------------
# mode density matrix


def mode_state(p, tp):
    """The thermal qubit at momentum p, as the oracle builds it."""
    lam = (tp.beta, *tp.couplings.as_array())
    return _mode_matrix(*_mode_bloch(np.asarray(p.px), np.asarray(p.py), lam)[:2])


def test_mode_state_maximally_mixed_at_zero():
    rho = mode_state(Momentum(0.0, 0.0), ThermoPoint(Couplings(0.5, 0.5, -1.0), 2.0))
    assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-15)


def test_mode_state_thermal_occupations():
    rho = mode_state(Momentum(0.0, 0.0), ThermoPoint(DECOUPLED, 1.0))
    validate_density_matrix(rho)
    w = np.sort(np.linalg.eigvalsh(rho))
    z = 2.0 * math.cosh(1.0)
    assert w[0] == pytest.approx(math.exp(-1.0) / z, rel=1e-12)  # 0.11920...
    assert w[1] == pytest.approx(math.exp(1.0) / z, rel=1e-12)  # 0.88080...


def test_mode_state_bloch_vector_convention(rng):
    j = Couplings(0.3, 0.25, 0.35)
    p = Momentum(1.1, -0.7)
    tp = ThermoPoint(j, 1.7)
    sp = spectral_arrays(p.px, p.py, j)
    rho = mode_state(p, tp)
    r = math.tanh(0.5 * 1.7 * sp.lam)
    theta = mode_angle(sp)
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    expected = 0.5 * (np.eye(2) + r * (math.sin(theta) * sx + math.cos(theta) * sy))
    assert np.allclose(rho, expected, atol=1e-14)


def test_element_reads_the_part_it_names():
    t = tensor_finite(ThermoPoint(GAPPED, 2.0), 5)
    for part in ("classical", "nonclassical", "total"):
        m = getattr(t, part)
        for mu in P:
            for nu in P:
                value = t.element(part, mu, nu)
                assert type(value) is float and value == m[mu, nu]
    for part in ("c", "nc", "evaluation"):
        with pytest.raises(KeyError):
            t.element(part, P.JZ, P.JZ)


@pytest.mark.parametrize(
    "route",
    [
        lambda tp, els: tensor_finite(tp, 5, elements=els),
        lambda tp, els: tensor_thermodynamic(tp, elements=els),
        lambda tp, els: tensors_thermodynamic([tp], elements=els),
        lambda tp, els: nonclassical_corrections([tp], elements=els),
    ],
    ids=["finite", "thermodynamic", "batch", "corrections"],
)
def test_every_entry_point_refuses_an_empty_request(route):
    for empty in ([], ()):
        with pytest.raises(ValueError, match="^no tensor elements requested$"):
            route(ThermoPoint(GAPPED, 2.0), empty)


# ---------------------------------------------------------------------------
# finite-size tensor


def test_finite_size_validation():
    tp = ThermoPoint(SYM, 1.0)
    with pytest.raises(ValueError):
        tensor_finite(tp, 20)
    with pytest.raises(ValueError):
        tensor_finite(tp, 1)
    # a size is an odd integer, never truncated (5.5 -> 5) or parsed ("7")
    for route in (tensor_finite, tensor_oracle):
        for size in (5.5, "7", math.inf, None):
            with pytest.raises(ValueError, match="odd integer"):
                route(tp, size)
    assert np.array_equal(tensor_finite(tp, 5.0).total, tensor_finite(tp, 5).total)


def test_finite_grid_zero_temperature_dirac_hit_raises():
    # L divisible by 3 puts the symmetric-point dispersion zeros on the grid
    tp = ThermoPoint.from_temperature(SYM, 0.0)
    with pytest.raises(ValueError):
        tensor_finite(tp, 21)
    tensor_finite(tp, 23)  # non-commensurate grid is fine


def test_finite_decoupled_closed_forms_any_L():
    for beta in (0.5, 2.0):
        tp = ThermoPoint(DECOUPLED, beta)
        for L in (5, 31):
            t = tensor_finite(tp, L)
            assert t.element("classical", P.BETA, P.BETA) == pytest.approx(
                1.0 / (2.0 * (math.cosh(2 * beta) + 1.0)), rel=1e-14
            )
            assert t.element("nonclassical", P.JX, P.JX) == pytest.approx(
                math.tanh(beta) ** 2 / 16.0, rel=1e-14
            )


def test_finite_converges_to_thermodynamic():
    tp = ThermoPoint.from_temperature(GAPPED, 0.5)
    quad = tensor_thermodynamic(tp, GridSpec(base_n=128, target_rel_tol=1e-10))
    fin = tensor_finite(tp, 401)
    assert max_rel_dev(fin.classical, quad.classical) < 1e-6
    assert max_rel_dev(fin.nonclassical, quad.nonclassical) < 1e-6


def test_generic_critical_converges_to_finite_sums():
    # a needle disk at a corner with jx != jy: as L grows the finite sums
    # approach the zone quadrature (an early stop of the disk ladder would
    # leave a floor), down to criterion 1's 1e-4 at L = 4001
    tp = ThermoPoint.from_temperature(Couplings(0.3, 0.2, 0.5), 0.05)
    quad = tensor_thermodynamic(tp, GridSpec())
    devs = []
    for L in (1001, 2001, 4001):
        fin = tensor_finite(tp, L)
        devs.append(
            [max_rel_dev(fin.classical, quad.classical),
             max_rel_dev(fin.nonclassical, quad.nonclassical)]
        )
    devs = np.array(devs)
    assert np.all(np.diff(devs, axis=0) < 0.0), devs
    assert np.all(devs[-1] < 1e-4), devs


def test_nonclassical_beta_row_identically_zero(rng):
    tp = ThermoPoint.from_temperature(random_couplings(rng), 0.7)
    t = tensor_finite(tp, 31)
    assert np.all(t.nonclassical[0, :] == 0.0)
    assert np.all(t.nonclassical[:, 0] == 0.0)


def test_xy_swap_covariance(rng):
    j = Couplings(0.2, 0.5, 0.3)
    tp = ThermoPoint(j, 1.2)
    tp_swapped = ThermoPoint(Couplings(j.jy, j.jx, j.jz), 1.2)
    a = tensor_finite(tp, 41)
    b = tensor_finite(tp_swapped, 41)
    assert np.max(np.abs(a.classical - swap_xy_indices(b.classical))) < 1e-10
    assert np.max(np.abs(a.nonclassical - swap_xy_indices(b.nonclassical))) < 1e-10


def test_tensor_parts_psd(rng):
    for _ in range(5):
        tp = ThermoPoint.from_temperature(random_couplings(rng), float(rng.uniform(0.1, 2)))
        t = tensor_finite(tp, 31)
        for part in (t.classical, t.nonclassical, t.total):
            assert float(np.min(np.linalg.eigvalsh(part))) >= -1e-9


def test_classical_part_frozen_at_low_temperature():
    cold = tensor_finite(ThermoPoint.from_temperature(GAPPED, 1e-3), 41)
    cool = tensor_finite(ThermoPoint.from_temperature(GAPPED, 1e-2), 41)
    assert float(np.max(np.abs(cold.classical))) < 1e-8
    # exponential suppression: orders of magnitude between the two
    assert float(np.max(np.abs(cold.classical))) < 1e-40 * float(
        np.max(np.abs(cool.classical))
    )
    assert float(np.max(np.abs(cool.classical))) < 1e-8


def _full_grid_reference(tp, L):
    """Per-site finite sums written out on the whole L x L grid at once: the
    closed forms as products of the responses K_beta = lam, K_a = beta
    omega_a / lam, each pair reduced by compensated_sum and normalized by
    1 / (8 L^2)."""
    xs = (2.0 * math.pi / L) * np.arange(-(L - 1) // 2, (L - 1) // 2 + 1)
    f = spectral_arrays(xs[:, None], xs[None, :], tp.couplings)
    resp_nc = (None, f.theta_x, f.theta_y, f.theta_z)
    classical, nonclassical = np.zeros((4, 4)), np.zeros((4, 4))
    if not tp.zero_temperature:
        weight = 1.0 / (np.cosh(tp.beta * f.lam) + 1.0)
        k = (f.lam, tp.beta * f.omega_x / f.lam, tp.beta * f.omega_y / f.lam,
             tp.beta * f.omega_z / f.lam)
        for mu in range(4):
            for nu in range(4):
                classical[mu, nu] = compensated_sum(weight * k[mu] * k[nu]) / (8.0 * L * L)
    ratio = 1.0 if tp.zero_temperature else np.tanh(0.5 * tp.beta * f.lam) ** 2
    for a in range(1, 4):
        for b in range(1, 4):
            term = ratio * resp_nc[a] * resp_nc[b] / f.lam**4
            nonclassical[a, b] = compensated_sum(term) / (8.0 * L * L)
    return classical, nonclassical


@pytest.mark.parametrize(
    "couplings, temperature",
    [(GAPPED, 0.5), (SYM, 0.1), (Couplings(0.25, 0.25, 0.5), 0.05), (GAPPED, 0.0)],
    ids=["gapped", "gapless", "critical", "gapped-T0"],
)
@pytest.mark.parametrize("L", [61, 301])
def test_finite_sums_match_full_grid_compensated_sums(couplings, temperature, L):
    tp = ThermoPoint.from_temperature(couplings, temperature)
    classical, nonclassical = _full_grid_reference(tp, L)
    t = tensor_finite(tp, L)
    for got, ref in ((t.classical, classical), (t.nonclassical, nonclassical)):
        scale = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(got - ref))) <= 1e-14 * scale
    if tp.zero_temperature:
        assert np.all(t.classical == 0.0)


def test_finite_sum_memory_grows_with_L_not_L_squared():
    # the full L x L fields of one call would take ~10 arrays of 8 L^2 bytes
    # (80 MB at L = 1001); row blocks keep the peak to ~46 MB, linear in L
    tp = ThermoPoint.from_temperature(GAPPED, 0.5)
    peaks = {}
    for L in (1001, 2001):
        tracemalloc.start()
        try:
            tensor_finite(tp, L)
            peaks[L] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1001] < 64 * 2**20
    assert peaks[2001] < 2.5 * peaks[1001]


# ---------------------------------------------------------------------------
# thermodynamic tensor


def test_thermodynamic_zero_temperature_limits():
    t = tensor_thermodynamic(ThermoPoint.from_temperature(GAPPED, 0.0))
    assert np.all(t.classical == 0.0)
    assert float(np.min(np.linalg.eigvalsh(t.nonclassical))) >= -1e-9
    with pytest.raises(ValueError):
        tensor_thermodynamic(ThermoPoint.from_temperature(SYM, 0.0))


def test_zero_temperature_classical_only_request_is_zero_on_both_routes():
    # frozen eigenvalues: the classical part at T = 0 is exactly zero, also
    # when nothing but classical elements is requested
    tp = ThermoPoint.from_temperature(GAPPED, 0.0)
    els = [("c", P.BETA, P.BETA), ("c", P.JX, P.JZ)]
    thermo = tensor_thermodynamic(tp, elements=els)
    finite = tensor_finite(tp, 101, elements=els)
    for t in (thermo, finite):
        assert np.array_equal(t.classical, np.zeros((4, 4)))
        assert np.array_equal(t.nonclassical, np.zeros((4, 4)))


def test_thermodynamic_element_subset_matches_full():
    tp = ThermoPoint.from_temperature(GAPPED, 0.7)
    grid = GridSpec(base_n=64, target_rel_tol=1e-8)
    full = tensor_thermodynamic(tp, grid)
    sub = tensor_thermodynamic(tp, grid, elements=[("c", P.JZ, P.BETA), ("nc", P.JX, P.JZ)])
    assert sub.element("classical", P.BETA, P.JZ) == pytest.approx(
        full.element("classical", P.BETA, P.JZ), rel=1e-12
    )
    assert sub.element("nonclassical", P.JX, P.JZ) == pytest.approx(
        full.element("nonclassical", P.JX, P.JZ), rel=1e-12
    )
    with pytest.raises(ValueError):
        tensor_thermodynamic(tp, grid, elements=[("nc", P.BETA, P.JZ)])


@pytest.mark.parametrize("part", ["classical", "nonclassical", "total"])
def test_requested_elements_name_their_part_c_or_nc(part):
    # the long part names read an element back (BuresTensor.element); a
    # request names its part by the short form only
    tp = ThermoPoint.from_temperature(GAPPED, 0.7)
    with pytest.raises(ValueError, match=f"unknown tensor part '{part}' \\(expected c or nc\\)"):
        tensor_thermodynamic(tp, GridSpec(base_n=32), elements=[(part, P.JZ, P.JZ)])


def test_thermodynamic_xy_swap_covariance():
    j = Couplings(0.25, 0.4, 0.35)
    grid = GridSpec(base_n=64, target_rel_tol=1e-9)
    a = tensor_thermodynamic(ThermoPoint(j, 1.5), grid)
    b = tensor_thermodynamic(ThermoPoint(Couplings(j.jy, j.jx, j.jz), 1.5), grid)
    assert np.max(np.abs(a.classical - swap_xy_indices(b.classical))) < 1e-10
    assert np.max(np.abs(a.nonclassical - swap_xy_indices(b.nonclassical))) < 1e-10


@pytest.mark.parametrize("temperature", [0.05, 0.003])
def test_critical_jx_sign_flip_covariance(temperature):
    # jx -> -jx is the momentum shift px -> px + pi, so only the sign of the
    # jx row and column changes; the gap corner moves from (pi, pi) to
    # (0, pi) and its soft axis turns, so the two refinements share no disk
    a = tensor_thermodynamic(ThermoPoint.from_temperature(Couplings(0.3, 0.2, 0.5), temperature))
    b = tensor_thermodynamic(ThermoPoint.from_temperature(Couplings(-0.3, 0.2, 0.5), temperature))
    flip = np.diag([1.0, -1.0, 1.0, 1.0])
    for x, y in ((a.classical, b.classical), (a.nonclassical, b.nonclassical)):
        assert np.max(np.abs(x - flip @ y @ flip)) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("temperature", [0.05, 0.003])
def test_critical_beta_beta_invariant_under_coupling_permutations(temperature):
    # c:beta-beta depends only on the distribution of lam over the zone,
    # which a permutation of the couplings leaves unchanged; each
    # permutation closes the gap at another corner.  The permutations stop
    # at different disk rungs, so they agree to the 1e-12 bound only at a
    # tolerance that asks for it (at 1e-6 they spread by 7.1e-10)
    els = [("c", P.BETA, P.BETA)]
    grid = GridSpec(target_rel_tol=1e-12)
    vals = [
        tensor_thermodynamic(ThermoPoint.from_temperature(j, temperature), grid, elements=els)
        .element("classical", P.BETA, P.BETA)
        for j in (
            Couplings(0.3, 0.2, 0.5),
            Couplings(0.5, 0.2, 0.3),
            Couplings(0.2, 0.5, 0.3),
            Couplings(0.2, 0.3, 0.5),
        )
    ]
    assert max(vals) - min(vals) <= 1e-12 * max(vals)


def test_refined_quadrature_matches_huge_finite_grid():
    # near-singular gapless integrand at T = 1e-3 against an L ~ 4001 sum
    tp = ThermoPoint.from_temperature(SYM, 1e-3)
    els = [("nc", P.JZ, P.JZ)]
    quad = tensor_thermodynamic(
        tp, GridSpec(base_n=128, target_rel_tol=1e-6, max_doublings=4), elements=els
    )
    fin = tensor_finite(tp, 4001, elements=els)
    a = quad.element("nonclassical", P.JZ, P.JZ)
    b = fin.element("nonclassical", P.JZ, P.JZ)
    assert a == pytest.approx(b, rel=1e-3)


def test_correction_refuses_zero_temperature_and_classical_elements():
    warm = ThermoPoint(GAPPED, 2.0)
    with pytest.raises(ValueError, match="defined for T > 0"):
        nonclassical_corrections([warm, ThermoPoint.from_temperature(GAPPED, 0.0)])
    with pytest.raises(ValueError, match="no classical part"):
        nonclassical_corrections([warm], elements=[("nc", P.JZ, P.JZ), ("c", P.JZ, P.JZ)])


def test_nonclassical_correction_matches_measurable_subtraction():
    # where the difference is still representable, the direct correction
    # integral and the naive subtraction must agree
    grid = GridSpec(base_n=128, target_rel_tol=1e-10)
    tp = ThermoPoint.from_temperature(GAPPED, 0.2)
    els = [("nc", P.JZ, P.JZ)]
    g_t = tensor_thermodynamic(tp, grid, elements=els).element("nonclassical", P.JZ, P.JZ)
    g_0 = tensor_thermodynamic(
        ThermoPoint.from_temperature(GAPPED, 0.0), grid, elements=els
    ).element("nonclassical", P.JZ, P.JZ)
    corr = nonclassical_corrections([tp], grid, elements=els)[0].element(
        "nonclassical", P.JZ, P.JZ
    )
    assert corr < 0.0  # finite temperature reduces this element
    assert corr == pytest.approx(g_t - g_0, rel=1e-4)


# ---------------------------------------------------------------------------
# the quarter zone on the cut jx = jy

# every quadrature workload of the benchmark lies on the cut: the four
# tensor-phases couplings (all 16 elements), the two scaling-sweep couplings
# (nc:jz-jz over 6 temperatures) and a ratio-map column (c and nc jz-jz over
# 8 temperatures, tolerance 1e-4)
ALL_ELEMENTS = None
JZ_NC = [("nc", P.JZ, P.JZ)]
JZ_BOTH = [("c", P.JZ, P.JZ), ("nc", P.JZ, P.JZ)]
CUT_RUNS = {
    "gapped": ((0.1, 0.8), [0.5], ALL_ELEMENTS, 1e-6),
    "gapless": ((1 / 3, 1 / 3), [0.01], ALL_ELEMENTS, 1e-6),
    "critical": ((0.25, 0.5), [0.01], ALL_ELEMENTS, 1e-6),
    "near-critical": ((0.255, 0.49), [0.002], ALL_ELEMENTS, 1e-6),
    "gapless-log": ((0.3333, 0.3334), np.geomspace(1e-3, 1e-2, 6), JZ_NC, 1e-6),
    "critical-power": ((0.25, 0.5), np.geomspace(1e-4, 1e-2, 6), JZ_NC, 1e-6),
    "ratio-map-column": ((0.2, 0.6), np.geomspace(0.002, 0.05, 8), JZ_BOTH, 1e-4),
    # not a benchmark coupling: its Dirac point was once formed an ulp off
    # K = (a, -a), which silently took the half rule
    "gapless-dirac-ulp": (((1 - 0.386228) / 2, 0.386228), [0.01], ALL_ELEMENTS, 1e-6),
}


@pytest.mark.parametrize("name", list(CUT_RUNS))
def test_quarter_zone_matches_the_half_zone_at_half_the_cost(name):
    # jy one ulp above jx breaks the reflection p_x <-> p_y bit for bit, so
    # the perturbed coupling takes the half rule: the quarter rule must give
    # the same tensors to rounding, from at most 0.55 of the evaluations
    (j, jz), temps, els, tol = CUT_RUNS[name]
    grid = GridSpec(target_rel_tol=tol)
    runs = []
    for jy in (j, float(np.nextafter(j, 1.0))):
        points = [ThermoPoint.from_temperature(Couplings(j, jy, jz), t) for t in temps]
        runs.append(tensors_thermodynamic(points, grid, elements=els))
    quarter, half = runs
    for q, h in zip(quarter, half):
        scale = max(float(np.max(np.abs(h.classical))), float(np.max(np.abs(h.nonclassical))))
        for part in ("classical", "nonclassical"):
            assert float(np.max(np.abs(getattr(q, part) - getattr(h, part)))) <= 1e-12 * scale
    evaluations = [run[0].evaluation.details["evaluations"] for run in runs]
    assert evaluations[0] <= 0.55 * evaluations[1]


def test_cut_integrand_is_the_mean_of_the_reflected_components():
    # at jx = jy the zone integrand of a pair that p_x <-> p_y exchanges is
    # the mean of the pair, formed from the averaged response product, so a
    # lone request gives one component; every component is invariant under
    # p_x <-> p_y bit for bit, and the components without the average
    # (cut=False) stay the unsymmetrised closed forms
    from kitaev_bures.thermal_metric import _integrand, _tanh_sq_ratio

    tp = ThermoPoint.from_temperature(Couplings(0.3, 0.3, 0.4), 0.2)
    px, py = np.array([0.4, -2.1, 1.3]), np.array([1.7, 0.9, -0.2])
    full = _integrand([tp], list(CLASSICAL_PAIRS), list(NONCLASSICAL_PAIRS), _tanh_sq_ratio)
    assert np.array_equal(full(px, py), full(py, px))
    for part, pair, partner in (("c", (P.BETA, P.JX), (P.BETA, P.JY)),
                                ("nc", (P.JX, P.JZ), (P.JY, P.JZ))):
        pairs = ([pair], []) if part == "c" else ([], [pair])
        one = _integrand([tp], *pairs, _tanh_sq_ratio)(px, py)
        assert one.shape == (1, 1, px.size)
        for k in range(px.size):
            p = Momentum(px[k], py[k])
            own = integrand_at(part, *pair, p, tp)
            mean = 0.5 * (own + integrand_at(part, *partner, p, tp))
            assert one[0, 0, k] == pytest.approx(mean, rel=1e-13, abs=1e-300)
            assert own != pytest.approx(mean, rel=1e-6)


def test_full_request_on_the_cut_integrates_one_of_each_image_pair():
    # on the cut p_x <-> p_y exchanges c bx/by, xx/yy, xz/yz and nc xx/yy,
    # xz/yz: a full request integrates the pairs without a lone y index,
    # 4 + 2 at c = z and 4 + 3 at c = y (whose nonclassical y row is
    # derived), 6 + 3 off the cut; a full tensor at c = z holds each
    # integrated value, and each error, at its image as well
    from kitaev_bures.thermal_metric import _integrated_pairs

    full = (list(CLASSICAL_PAIRS), list(NONCLASSICAL_PAIRS))
    xx, xy, xz, zz = (P.JX, P.JX), (P.JX, P.JY), (P.JX, P.JZ), (P.JZ, P.JZ)
    assert _integrated_pairs(Couplings(0.25, 0.25, 0.5), *full) == ([xx, xy, xz, zz], [xx, xy])
    assert _integrated_pairs(Couplings(0.4, 0.4, 0.2), *full) == ([xx, xy, xz, zz], [xx, xz, zz])
    off = _integrated_pairs(Couplings(0.25, 0.26, 0.49), *full)
    assert [len(pairs) for pairs in off] == [6, 3]
    tp = ThermoPoint.from_temperature(Couplings(0.25, 0.25, 0.5), 0.05)
    zone = tensor_thermodynamic(tp, GridSpec(target_rel_tol=1e-6))
    finite = tensor_finite(tp, 31)
    details = zone.evaluation.details
    s = np.ix_([0, 2, 1, 3], [0, 2, 1, 3])
    for m in (zone.classical, zone.nonclassical, details["error_classical"],
              details["error_nonclassical"], finite.classical, finite.nonclassical):
        assert np.array_equal(m, m[s])
        assert m[P.JX, P.JZ] != 0.0


def _image_pair(pair):
    swap = {P.JX: P.JY, P.JY: P.JX}
    return tuple(sorted(swap.get(i, i) for i in pair))


def _reference_components(tp, px, py, kernel):
    """Every component of CLASSICAL_PAIRS, then NONCLASSICAL_PAIRS, straight
    from the module docstring's formulas, (1 / (cosh x + 1)) K_mu K_nu with
    K_beta = lam and K_J = beta omega / lam, and ratio theta_a theta_b /
    lam^4, with ratio tanh^2(x/2) (``kernel`` "tanh") or -sech^2(x/2)
    ("sech"), evaluated in long double
    from the float64 spectral fields and the float64 argument x = beta lam
    (any float64 evaluation of the formulas starts from that argument; an
    error of one ulp in x moves e^-x by x ulps).  On the cut jx = jy each
    component is the mean with its reflected partner, as the zone integrand
    documents.  Returns the components and, per component, the largest
    magnitude among them and the partners they average."""
    fields = spectral_arrays(px, py, tp.couplings)
    ld = np.longdouble
    lam = np.asarray(fields.lam, dtype=ld)
    omega = {P.JX: fields.omega_x, P.JY: fields.omega_y, P.JZ: fields.omega_z}
    theta = {P.JX: fields.theta_x, P.JY: fields.theta_y, P.JZ: fields.theta_z}

    def classical(mu, nu):
        if tp.zero_temperature:
            return np.zeros(np.shape(lam), dtype=ld)
        beta = ld(tp.beta)
        x = np.asarray(tp.beta * fields.lam, dtype=ld)
        k = {P.BETA: lam, **{a: beta * np.asarray(omega[a], dtype=ld) / lam for a in omega}}
        return k[mu] * k[nu] / (np.cosh(x) + 1)

    def nonclassical(a, b):
        if tp.zero_temperature:
            ratio = ld(1) if kernel == "tanh" else ld(0)
        else:
            x = np.asarray(tp.beta * fields.lam, dtype=ld)
            ratio = np.tanh(x / 2) ** 2 if kernel == "tanh" else -1 / np.cosh(x / 2) ** 2
        th = np.asarray(theta[a], dtype=ld) * np.asarray(theta[b], dtype=ld)
        return ratio * th / lam**4

    on_cut = tp.couplings.jx == tp.couplings.jy
    values, scales = [], []
    for part, pairs in ((classical, CLASSICAL_PAIRS), (nonclassical, NONCLASSICAL_PAIRS)):
        for pair in pairs:
            v = part(*pair)
            scales.append(float(np.max(np.abs(v))))
            if on_cut:
                w = part(*_image_pair(pair))
                scales[-1] = max(scales[-1], float(np.max(np.abs(w))))
                v = (v + w) / 2
            values.append(v)
    return np.array(values), scales


@pytest.mark.parametrize("couplings", [Couplings(0.3, 0.2, 0.5), Couplings(-0.3, 0.4, 0.35),
                                       Couplings(0.1, 0.1, 0.8), Couplings(0.25, 0.25, 0.5)],
                         ids=["critical-off-cut", "gapless-off-cut", "gapped-cut", "critical-cut"])
@pytest.mark.parametrize("kernel", ["tanh", "sech"])
@pytest.mark.parametrize("nodes", ["0-d", "2-d"])
def test_kernels_match_the_docstring_formulas(couplings, kernel, nodes):
    # every component of a batch of three temperatures (T = 0 included)
    # against an independent long double evaluation of the closed forms,
    # within 1e-15 of the component's largest value (on the cut, of the
    # largest of the two values it averages); each member of the batch is
    # the same point evaluated alone, bit for bit
    from kitaev_bures.thermal_metric import _integrand, _minus_sech_sq_ratio, _tanh_sq_ratio

    nc_kernel = _tanh_sq_ratio if kernel == "tanh" else _minus_sech_sq_ratio
    points = [ThermoPoint.from_temperature(couplings, t) for t in (0.0, 0.05, 0.7)]
    if nodes == "0-d":
        px, py = 0.9, -2.3
    else:
        rng = np.random.default_rng(11)
        px, py = rng.uniform(-np.pi, np.pi, (5, 1)), rng.uniform(-np.pi, np.pi, (1, 7))
    pairs = (list(CLASSICAL_PAIRS), list(NONCLASSICAL_PAIRS))
    got = _integrand(points, *pairs, nc_kernel)(px, py)
    for k, tp in enumerate(points):
        ref, scales = _reference_components(tp, px, py, kernel)
        assert ref.shape == got[k].shape
        for i, (g, r, scale) in enumerate(zip(got[k], ref, scales)):
            assert float(np.max(np.abs(g - r))) <= 1e-15 * scale, (tp.temperature, i)
        alone = _integrand([tp], *pairs, nc_kernel)(px, py)[0]
        assert np.array_equal(got[k], alone)


@pytest.mark.parametrize("couplings", [Couplings(0.25, 0.25, 0.5), Couplings(0.3, 0.2, 0.5)],
                         ids=["cut", "off-cut"])
def test_zz_integrand_forms_no_transverse_response(couplings, monkeypatch):
    # the zz elements read lam, omega_z and theta_z only, so a tensor of
    # them, on the zone and on the finite grid, forms no x or y response
    import kitaev_bures.thermal_metric as tm

    made = []

    def recording(px, py, c):
        made.append(spectral_arrays(px, py, c))
        return made[-1]

    monkeypatch.setattr(tm, "spectral_arrays", recording)
    zz = [("c", P.JZ, P.JZ), ("nc", P.JZ, P.JZ)]
    tp = ThermoPoint.from_temperature(couplings, 0.05)
    tensor_thermodynamic(tp, GridSpec(target_rel_tol=1e-4), elements=zz)
    tensor_finite(tp, 31, elements=zz)
    assert len(made) > 2
    for fields in made:
        assert not set(vars(fields)) & {"omega_x", "omega_y", "theta_x", "theta_y", "_sxy"}
    assert any("omega_z" in vars(f) and "theta_z" in vars(f) for f in made)


def test_kernels_stay_finite_at_degenerate_couplings():
    # at jx = jy = 0 the dispersion is lam = 2 |jz| everywhere; a subnormal
    # lam^2 overflows 1/lam^2, so the reciprocal is taken only above a floor
    # that keeps its square finite, and the components that divide by lam^2
    # are finite on both sides of it
    from kitaev_bures.thermal_metric import (
        _LAM2_FLOOR,
        _integrand,
        _minus_sech_sq_ratio,
        _tanh_sq_ratio,
    )

    edge = 0.5 * math.sqrt(_LAM2_FLOOR)
    cases = [Couplings(0.0, 0.0, 8.28e-161), Couplings(0.0, 0.0, edge * (1 + 1e-9)),
             Couplings(0.0, 0.0, edge * (1 - 1e-9))]
    lam2 = [(2.0 * c.jz) ** 2 for c in cases]
    assert lam2[0] < np.finfo(float).tiny and lam2[1] > _LAM2_FLOOR > lam2[2]
    px, py = np.array([[0.4], [-2.1], [3.0]]), np.array([[1.7, 0.9, -0.2, -3.1]])
    n_c = len(CLASSICAL_PAIRS)
    for couplings in cases:
        for nc_kernel in (_tanh_sq_ratio, _minus_sech_sq_ratio):
            points = [ThermoPoint.from_temperature(couplings, t) for t in (0.0, 0.05)]
            vals = _integrand(points, list(CLASSICAL_PAIRS), list(NONCLASSICAL_PAIRS),
                              nc_kernel)(px, py)
            assert np.all(np.isfinite(vals))
            assert np.all(vals[0, :n_c] == 0.0) and not np.any(np.signbit(vals[0, :n_c]))


@pytest.mark.parametrize("couplings", [Couplings(0.3, 0.2, 0.5), Couplings(0.25, 0.25, 0.5)],
                         ids=["off-cut", "cut"])
@pytest.mark.parametrize("kernel", ["tanh", "sech"])
def test_batch_members_across_kernel_groups_match_each_point_alone(couplings, kernel):
    # a block of about a third of _KERNEL_SLAB nodes puts three points in a
    # kernel group, so ten temperatures take four groups, with T = 0 inside
    # one of them; each member is the point evaluated alone, bit for bit
    from kitaev_bures.thermal_metric import (
        _KERNEL_SLAB,
        _integrand,
        _minus_sech_sq_ratio,
        _tanh_sq_ratio,
    )

    nc_kernel = _tanh_sq_ratio if kernel == "tanh" else _minus_sech_sq_ratio
    temperatures = (0.3, 0.01, 0.05, 0.7, 0.0, 0.002, 0.1, 1.5, 0.02, 0.2)
    points = [ThermoPoint.from_temperature(couplings, t) for t in temperatures]
    rng = np.random.default_rng(3)
    px = rng.uniform(-np.pi, np.pi, (8, 1))
    py = rng.uniform(-np.pi, np.pi, (1, _KERNEL_SLAB // 24))
    group = _KERNEL_SLAB // (px.size * py.size)
    assert 1 < group < len(points) and len(points) % group
    pairs = (list(CLASSICAL_PAIRS), list(NONCLASSICAL_PAIRS))
    got = _integrand(points, *pairs, nc_kernel)(px, py)
    for k, tp in enumerate(points):
        assert np.array_equal(got[k], _integrand([tp], *pairs, nc_kernel)(px, py)[0]), k
    assert np.all(got[temperatures.index(0.0), : len(CLASSICAL_PAIRS)] == 0.0)


@pytest.mark.parametrize("part", ["c", "nc"])
def test_batched_kernel_memory_stays_near_its_output_block(part):
    # 8 temperatures of one component on a block at the quadrature's budget:
    # the kernels go a point at a time there, so the temporaries are a few
    # node-sized arrays on top of the output (1.9 times it for the classical
    # component); kernels formed for all 8 points at once would take 3.4-4.4
    from kitaev_bures.quadrature import _BLOCK_VALUES
    from kitaev_bures.thermal_metric import _integrand, _tanh_sq_ratio

    points = [ThermoPoint.from_temperature(Couplings(0.3, 0.2, 0.5), t)
              for t in np.geomspace(0.002, 0.05, 8)]
    zz = [(P.JZ, P.JZ)]
    f = _integrand(points, zz if part == "c" else [], zz if part == "nc" else [], _tanh_sq_ratio)
    px = np.linspace(-3.0, 3.0, 32)[:, None]
    py = np.linspace(-3.0, 3.0, _BLOCK_VALUES // (8 * 32))[None, :]
    tracemalloc.start()
    try:
        out = f(px, py)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.size == _BLOCK_VALUES
    assert peak < 2.5 * out.nbytes


# ---------------------------------------------------------------------------
# temperature batches


def test_batch_of_one_is_tensor_thermodynamic():
    tp = ThermoPoint.from_temperature(Couplings(0.25, 0.25, 0.5), 0.05)
    grid = GridSpec(base_n=64, target_rel_tol=1e-5)
    (batched,) = tensors_thermodynamic([tp], grid)
    alone = tensor_thermodynamic(tp, grid)
    assert np.array_equal(batched.classical, alone.classical)
    assert np.array_equal(batched.nonclassical, alone.nonclassical)
    for key in ("error_classical", "error_nonclassical"):
        assert np.array_equal(batched.evaluation.details[key], alone.evaluation.details[key])


def test_batch_members_match_standalone_and_finite_sums():
    # near-critical gapped coupling: refined quadrature, while the finite
    # sums of its smooth integrands converge exponentially in L
    j = Couplings(0.22, 0.22, 0.56)
    grid = GridSpec(target_rel_tol=1e-6)
    els = [("c", P.BETA, P.JZ), ("c", P.JZ, P.JZ), ("nc", P.JX, P.JZ), ("nc", P.JZ, P.JZ)]
    points = [ThermoPoint.from_temperature(j, t) for t in (0.01, 0.03, 0.1)]
    batch = tensors_thermodynamic(points, grid, elements=els)
    for tp, member in zip(points, batch):
        alone = tensor_thermodynamic(tp, grid, elements=els)
        fin = tensor_finite(tp, 1001, elements=els)
        assert member.evaluation.details["temperature"] == tp.temperature
        for part in ("classical", "nonclassical"):
            got = getattr(member, part)
            scale = float(np.max(np.abs(getattr(alone, part))))
            assert float(np.max(np.abs(got - getattr(alone, part)))) <= 1e-6 * scale
            assert float(np.max(np.abs(got - getattr(fin, part)))) <= 1e-6 * scale


def test_batch_failure_names_only_the_failing_temperature():
    # a coarse shared geometry resolves T = 0.002 to 4e-4 but T = 0.3 only
    # to 2e-3 of its value, so a 1e-3 tolerance fails the warm point alone
    grid = GridSpec(base_n=32, max_doublings=1, target_rel_tol=1e-3, refine_levels=1)
    points = [ThermoPoint.from_temperature(SYM, t) for t in (0.3, 0.002)]
    with pytest.raises(QuadratureConvergenceError) as info:
        tensors_thermodynamic(points, grid, elements=[("nc", P.JZ, P.JZ)])
    message = str(info.value)
    assert "T = 0.3 " in message and "0.002" not in message
    assert info.value.result.converged.tolist() == [False, True]
    # the error carries each member's outcome: its own error for the
    # failed point, the tensor for the converged one
    failed, kept = info.value.members
    assert isinstance(failed, QuadratureConvergenceError)
    assert "T = 0.3 " in str(failed) and "0.002" not in str(failed)
    assert kept.evaluation.details["temperature"] == 0.002
    assert kept.element("nonclassical", P.JZ, P.JZ) > 0.0


def test_refinement_radius_covers_every_member():
    # near-critical gapped (gap 0.24): the radius is the largest disk the
    # gap corner allows, pi / 2, whatever the temperatures, and r_min comes
    # from the smallest width, T floored at gap / 8
    j = Couplings(0.22, 0.22, 0.56)
    floor = fermion_gap(j) / 8.0
    for temps in ((0.002, 0.08), (0.01,), (0.3,), (0.0,), (0.002, 0.01, 0.3, 1.0)):
        batch = [ThermoPoint.from_temperature(j, t) for t in temps]
        disk, radius, r_min = _refinement_plan(batch)
        assert disk[0] == (-math.pi, -math.pi)
        assert radius == 0.5 * math.pi
        assert r_min == max(min(temps), floor) / 100.0
    mixed = [ThermoPoint.from_temperature(j, t) for t in (0.002, 0.08)]
    disk, radius, r_min = _refinement_plan(mixed)
    assert r_min == floor / 100.0 == pytest.approx(3e-4)
    # every tensor of the batch records the plan it was integrated with
    grid = GridSpec(base_n=32, max_doublings=1, refine_levels=1, target_rel_tol=1.0)
    for t in tensors_thermodynamic(mixed, grid, elements=[("c", P.BETA, P.BETA)]):
        recorded = t.evaluation.details["refinement"]
        assert recorded == {"disk": disk, "radius": radius, "r_min": r_min}
    # a Dirac pair caps the radius at 0.499 of the distance of +-K (here
    # below pi / 2), and a gapless coupling has no floor: r_min is the
    # coldest T / 100, and 1e-6 / 100 at T = 0
    k, minus_k = dirac_points(SYM)
    distance = math.hypot(*wrap_angle(np.array([k.px - minus_k.px, k.py - minus_k.py])))
    for temps in ((0.01,), (0.002, 0.3), (0.0, 0.1)):
        batch = [ThermoPoint.from_temperature(SYM, t) for t in temps]
        _, radius, r_min = _refinement_plan(batch)
        assert radius == pytest.approx(0.499 * distance, rel=1e-14)
        assert radius == pytest.approx(1.478, abs=1e-3)
        assert r_min == (min(temps) or 1e-6) / 100.0


def test_refinement_radius_of_a_dirac_pair_stays_below_half_their_distance():
    # near-critical gapless: K and -K lie about 0.795 apart, so the radius
    # is 0.499 of their distance, and r_min = T / 100
    j = Couplings(0.255, 0.255, 0.49)
    k, minus_k = dirac_points(j)
    ((cx, cy), _), radius, r_min = _refinement_plan([ThermoPoint.from_temperature(j, 0.1)])
    assert (cx, cy) == (k.px, k.py)
    # the disk stands for -K, its mirror
    assert np.max(np.abs(wrap_angle(np.array([-cx, -cy]) - [minus_k.px, minus_k.py]))) < 1e-12
    distance = math.hypot(*wrap_angle(np.array([2.0 * cx, 2.0 * cy])))
    assert radius == 0.499 * distance == pytest.approx(0.3966, abs=1e-4)
    assert r_min == pytest.approx(1e-3, rel=1e-15)


@pytest.mark.parametrize(
    "couplings, temperature",
    [
        (SYM, 0.01),
        (Couplings(0.25, 0.25, 0.5), 0.01),
        (Couplings(0.3, 0.2, 0.5), 3e-3),
        (Couplings(0.22, 0.22, 0.56), 0.01),
    ],
    ids=["gapless-cone", "critical-needle", "critical-off-cut", "near-critical-gapped"],
)
def test_refined_integral_does_not_depend_on_the_disk_radius(couplings, temperature):
    # the partition of unity splits f exactly, whatever the disk's radius:
    # the plan's radius (the cap) and 0.5, on the same disk and r_min, give
    # the same zone integral within their reported errors, or 1e-13 of the
    # largest entry (rounding).  Measured: at most 6e-15 of the largest
    # entry apart, within 4% of that bound; a disk whose bump radius is
    # 0.1% off the mask's misses it at every coupling here
    tp = ThermoPoint.from_temperature(couplings, temperature)
    disk, cap, r_min = _refinement_plan([tp])
    assert cap > 1.4  # about three times 0.5
    f = _integrand([tp], list(CLASSICAL_PAIRS), list(NONCLASSICAL_PAIRS), _tanh_sq_ratio)
    grid = GridSpec(target_rel_tol=1e-11)
    wide, narrow = (integrate_bz_refined(f, disk, r_min, grid, radius=r) for r in (cap, 0.5))
    assert wide.converged and narrow.converged
    scale = np.max(np.abs(wide.value))
    bound = wide.error_estimate + narrow.error_estimate + 1e-13 * scale
    assert np.all(np.abs(wide.value - narrow.value) <= bound)


# couplings (j, j, jz) on the cut jx = jy: the critical gap corner, a
# near-critical gapped corner, one gapped beyond the disk, tied corners
# (j = 0) and a zero coupling on the critical boundary.  A Dirac pair's
# centre is checked by test_dirac_point_on_the_cut_is_fixed_by_minus_s
ON_CUT = {
    "critical": (0.25, 0.5),
    "near-critical": (0.22, 0.56),
    "gapped": (0.1, 0.8),
    "tied-corners": (0.0, 0.1),
    "zero-jz": (0.3, 0.0),
}


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)],
                         ids=["++", "+-", "-+", "--"])
@pytest.mark.parametrize("j, jz", ON_CUT.values(), ids=ON_CUT.keys())
def test_refinement_centres_on_the_cut_are_fixed_by_a_reflection(j, jz, signs):
    # an integrand on the cut is invariant under s: (p_x, p_y) -> (p_y,
    # p_x), and the quadrature refuses its disk unless s or -s fixes the
    # centre, so every plan on the cut must give such a centre (or no disk,
    # or refuse the coupling itself)
    couplings = Couplings(signs[0] * j, signs[0] * j, signs[1] * jz)
    for temp in (0.0, 0.01, 0.3):
        tp = ThermoPoint.from_temperature(couplings, temp)
        if jz == 0.0:
            with pytest.raises(ValueError, match="on the critical boundary"):
                _refinement_plan([tp])
            continue
        disk, _, _ = _refinement_plan([tp])
        if jz == 0.8:
            assert disk is None
            continue
        (cx, cy), _ = disk
        assert cx == cy or cx == -cy


@pytest.mark.parametrize("ulps", [1, 2, 3, 4])
def test_lone_element_a_few_ulps_off_the_cut_is_integrated(ulps):
    # jy a few ulps above jx puts the Dirac point a few ulps off p_x = -p_y
    # (up to 1e-11 next to the critical line), while a lone element's
    # integrand can match f(s p) = f(p) bit for bit at the probe nodes.
    # s K then lies within r_min of -K, so the quadrature integrates the
    # disk by the half rule instead of refusing it, and the entry is the
    # cut's to within rounding
    off_line = 0
    for jx, jz in ((0.1, 0.02), (0.3, 0.5), (1 / 3, 0.6)):
        jy = jx
        for _ in range(ulps):
            jy = math.nextafter(jy, math.inf)
        for temp in (0.0, 0.01, 0.3):
            near, cut = (ThermoPoint.from_temperature(Couplings(jx, j, jz), temp) for j in (jy, jx))
            (cx, cy), _ = _refinement_plan([near])[0]
            off_line += cx != -cy
            elements = [("c", P.JZ, P.JZ), ("c", P.BETA, P.BETA)]
            for element in elements + ([("nc", P.JZ, P.JZ)] if temp else []):
                part = {"c": "classical", "nc": "nonclassical"}[element[0]]
                got, want = (
                    tensor_thermodynamic(tp, elements=[element]).element(part, *element[1:])
                    for tp in (near, cut)
                )
                assert abs(got - want) <= 1e-12 * abs(want)
    assert off_line


@pytest.mark.parametrize("element", [("c", P.BETA, P.JY), ("nc", P.JX, P.JY)],
                         ids=["beta-jy", "nc-jx-jy"])
def test_refined_integral_that_vanishes_by_symmetry_converges(element):
    # at jy = 0 these entries vanish: their base and disk parts cancel,
    # so the refined integral is judged against its parts, not only its
    # total, as the unrefined one at (0.8, 0, 0.1) converges at its round-
    # off floor.  Judged against the total alone, both missed the tolerance
    # on the same nodes and errors
    part = {"c": "classical", "nc": "nonclassical"}[element[0]]
    for couplings, refined in ((Couplings(0.4, 0.0, 0.3), True),
                               (Couplings(0.8, 0.0, 0.1), False)):
        tp = ThermoPoint.from_temperature(couplings, 0.05)
        assert (_refinement_plan([tp])[0] is not None) == refined
        t = tensor_thermodynamic(tp, elements=[element])
        error = t.evaluation.details["error_" + part][element[1], element[2]]
        assert abs(t.element(part, element[1], element[2])) <= max(error, 1e-15)


@pytest.mark.parametrize(
    "couplings",
    [Couplings(0.2535, 0.2535, 0.493), Couplings(0.3, 0.21, 0.49)],
    ids=["near-needle-on-cut", "near-needle-off-cut"],
)
def test_polar_disk_near_a_needle_meets_a_tight_reference(couplings):
    # cones whose Hessian eigenvalue ratio (0.058 and 0.075) is just above
    # the needle cut get a polar disk with one ring-angle count per level;
    # at T = 1e-4 the default tensor must lie within its reported error (or
    # rounding) of a reference that climbs two more disk levels
    tp = ThermoPoint.from_temperature(couplings, 1e-4)
    (_, axis), _, _ = _refinement_plan([tp])
    assert axis is None
    assert_within_reported_error([tp])


# a reference on the same refinement plan: two more disk levels, five
# doublings and a 1e-11 tolerance
TIGHT = GridSpec(refine_levels=5, target_rel_tol=1e-11, max_doublings=5)


def assert_within_reported_error(points, batch=tensors_thermodynamic):
    """Each member of the default ``batch`` of ``points`` lies within its
    reported error, or 1e-13 of the largest entry (rounding), of the same
    member of a ``TIGHT`` batch of the same points, per part."""
    for g, ref in zip(batch(points), batch(points, TIGHT), strict=True):
        assert_near(g, ref)


TENSORS, CORRECTIONS = tensors_thermodynamic, nonclassical_corrections


@pytest.mark.parametrize(
    "batch, couplings, temperatures",
    [
        pytest.param(TENSORS, SYM, [0.01], id="gapless"),
        pytest.param(TENSORS, Couplings(0.255, 0.255, 0.49), [0.01], id="near-critical-gapless"),
        pytest.param(TENSORS, Couplings(0.2535, 0.2535, 0.493), [1e-4], id="near-needle-gapless"),
        pytest.param(TENSORS, Couplings(0.4, 0.3, 0.3), [1e-3], id="off-cut-gapless"),
        pytest.param(TENSORS, Couplings(0.35, 0.25, 0.4), [1e-3], id="off-cut-gapless-2"),
        pytest.param(TENSORS, Couplings(0.3, 0.21, 0.49), [1e-3], id="off-cut-near-needle"),
        pytest.param(TENSORS, Couplings(0.6, 0.2, 0.2), [0.05], id="gapped-Ax"),
        pytest.param(TENSORS, Couplings(0.25, 0.25, 0.5), [0.01], id="critical"),
        pytest.param(TENSORS, Couplings(0.25, 0.25, 0.5), [1e-4], id="critical-cold"),
        pytest.param(TENSORS, Couplings(0.3, 0.2, 0.5), [3e-3], id="critical-off-cut"),
        pytest.param(TENSORS, Couplings(0.24, 0.24, 0.52), [0.01], id="near-critical-gapped"),
        pytest.param(TENSORS, Couplings(0.2, 0.2, 0.6), [0.002], id="refined-gapped-cold"),
        pytest.param(TENSORS, Couplings(0.2, 0.2, 0.6), [0.05], id="refined-gapped"),
        pytest.param(TENSORS, GAPPED, [0.3], id="deep-gapped"),
        # batches: each member is judged on the batch's plan (the smallest
        # r_min), against a TIGHT batch on that plan
        pytest.param(
            TENSORS, Couplings(0.255, 0.255, 0.49), [0.002, 0.01, 0.05],
            id="batch-near-critical-gapless",
        ),
        pytest.param(CORRECTIONS, GAPPED, [0.1, 0.3, 0.5], id="corrections-gapped"),
        pytest.param(
            CORRECTIONS, Couplings(0.2, 0.2, 0.6), [0.02, 0.05, 0.1],
            id="corrections-refined-gapped",
        ),
    ],
)
def test_error_estimate_audit_over_the_phases(batch, couplings, temperatures):
    """A tensor reported as converged lies within its reported error of a
    tight reference, in every phase: gapless on and off the cut, near a
    needle, near-critical gapless and gapped, refined gapped-``Ax``, deep
    gapped, and critical couplings; and so does every member of a
    temperature batch, of tensors and of nonclassical corrections.  This
    guards the partition of unity (the erf step and the disk radius, the
    largest the geometry allows), whose steepness sets how far the base
    trapezoid and the disks must climb.

    The reference is a batch of the same points, so it takes the same
    refinement plan and the same ``r_min``: the needle-core truncation at
    critical couplings (the core ``|u|, |v| < r_min`` moves with ``T`` and
    is never refined, see the strict xfails of ``test_exact_scaling_law``)
    is excluded from this audit.
    """
    points = [ThermoPoint.from_temperature(couplings, t) for t in temperatures]
    assert_within_reported_error(points, batch)


def assert_near(g, ref):
    """``g`` lies within its reported error, or 1e-13 of the largest entry
    (rounding), of ``ref``, per part."""
    for part in ("classical", "nonclassical"):
        expected = getattr(ref, part)
        reported = np.max(g.evaluation.details[f"error_{part}"])
        bound = max(reported, 1e-13 * np.max(np.abs(expected)))
        assert np.max(np.abs(getattr(g, part) - expected)) <= bound, (g, part)


EVERY_ELEMENT = [("c", mu, nu) for mu, nu in CLASSICAL_PAIRS] + [
    ("nc", a, b) for a, b in NONCLASSICAL_PAIRS
]


@st.composite
def couplings_of_every_phase(draw):
    """Couplings with smaller magnitudes ``a``, ``b`` and a third ``(a + b)
    (1 + m)``: gapless for m < 0, on the critical line for m = 0, gapped
    for m > 0; off the cut (any order and signs), on it (jx == jy), or a
    few ulps off it."""
    a = draw(st.floats(0.05, 0.5))
    where = draw(st.sampled_from(["off", "cut", "near-cut"]))
    b = draw(st.floats(0.05, 0.5)) if where == "off" else a
    for _ in range(draw(st.integers(1, 4)) if where == "near-cut" else 0):
        b = math.nextafter(b, math.inf)
    m = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(st.floats(1e-3, 0.5))
    signs = draw(st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3))
    if where == "off":
        j = draw(st.permutations([signs[0] * a, signs[1] * b, signs[2] * (a + b) * (1 + m)]))
        return Couplings(*j)
    return Couplings(signs[0] * a, signs[0] * b, signs[2] * (a + b) * (1 + m))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    couplings=couplings_of_every_phase(),
    temperature=st.floats(math.log(1e-3), math.log(0.3)).map(math.exp),
    elements=st.one_of(
        st.none(), st.lists(st.sampled_from(EVERY_ELEMENT), min_size=1, max_size=3, unique=True)
    ),
)
@example(Couplings(0.3, 0.2, 0.5), 3e-3, None)
@example(Couplings(0.25, 0.25, 0.5), 1e-3, [("c", P.JZ, P.JZ), ("nc", P.JX, P.JY)])
@example(Couplings(0.1, 0.1, 0.20000000000000004), 0.3, None)
# off the cut, cold: the classical integrand underflows to 0 at both probe
# nodes of the reflection test, which must not read that as invariance
@example(Couplings(-0.5, -0.25, -0.5625), math.exp(-6.0), [("c", P.BETA, P.BETA)])
def test_error_estimate_audit_as_a_property(couplings, temperature, elements):
    """The same-plan audit of ``test_error_estimate_audit_over_the_phases``
    over drawn couplings of every phase, on and off the cut, and full
    tensors or named elements: each part lies within its reported error,
    or 1e-13 of the largest entry (rounding), of a ``TIGHT`` reference on
    the same refinement plan.

    Gapless couplings within 2% of ``max |J|`` of the critical line are
    left out: there +-K approach the merge corner, the disk at K shrinks
    with their distance, and the base trapezoid is left the valley between
    them (ROADMAP item 14).  That is a known loud failure, not a silent
    one: measured, the default tensor raises QuadratureConvergenceError at
    some temperatures out to a margin of 0.7% (a +-K distance of 0.65),
    and the ``TIGHT`` reference misses 1e-11 out to 1.2% (distance 1.05);
    no draw at a margin of 1.4% or more failed either way.
    """
    magnitudes = sorted(abs(j) for j in couplings.as_array())
    margin = magnitudes[0] + magnitudes[1] - magnitudes[2]
    assume(classify_phase(couplings) is not PhaseRegion.GAPLESS_B or margin >= 0.02 * magnitudes[2])
    points = [ThermoPoint.from_temperature(couplings, temperature)]
    batch = functools.partial(tensors_thermodynamic, elements=elements)
    assert_within_reported_error(points, batch)


def test_smooth_gapped_tensor_stops_on_a_coarse_grid():
    # deep in the gapped phase at T = 0.5 the integrand is smooth on the
    # scale of the zone: the n = 32 and n = 64 trapezoids already agree at
    # the default 1e-6, on 1,088 nodes of the quarter rule (a ladder that
    # starts at n = 128 spends 16,648), against a finer grid of its own
    tp = ThermoPoint.from_temperature(GAPPED, 0.5)
    g = tensor_thermodynamic(tp)
    assert g.evaluation.details["evaluations"] <= 1088
    assert_near(g, tensor_thermodynamic(tp, GridSpec(base_n=256, target_rel_tol=1e-13)))


def test_default_ladders_still_reach_their_top_rungs(monkeypatch):
    # on the near-critical cut at jz = 0.4975 the +-K cap shrinks the disk
    # to radius 0.199, and at T = 0.002 and the default tol 1e-6 the base
    # trapezoid climbs from n = 32 to the finest grid of the default ladder,
    # 2048 (at tol 1e-4 the error of the finer rung certifies n = 1024);
    # the disk climbs to (3, 4) in test_disk_ladder_that_misses_gives_the_fixed_pair
    from kitaev_bures import quadrature
    from kitaev_bures.scaling import figure_of_merit_trajectory

    doubled, reached = quadrature._doubled_mean, []

    def spy(f, mean, n, invariant):
        reached.append(2 * n)
        return doubled(f, mean, n, invariant)

    tp = ThermoPoint.from_temperature(figure_of_merit_trajectory(0.4975), 0.002)
    els = [("c", P.JZ, P.JZ), ("nc", P.JZ, P.JZ)]
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_doubled_mean", spy)
        g = tensor_thermodynamic(tp, GridSpec(), elements=els)
    default = GridSpec()
    assert max(reached) == default.base_n * 2**default.max_doublings == 2048
    ref = GridSpec(refine_levels=5, target_rel_tol=1e-11, max_doublings=7)
    assert_near(g, tensor_thermodynamic(tp, ref, elements=els))


@pytest.mark.parametrize("jz", [0.4950, 0.4975])
def test_near_cut_map_columns_meet_their_tolerance(jz):
    # the two columns of the 17x12 acceptance map whose +-K cap shrinks the
    # disk most (radius 0.28 and 0.20, a partition ramp 0.010 and 0.007
    # wide): where the base grid does not resolve the ramp, two coarse rungs
    # can agree by chance, so the ladder trusts its contraction rate only
    # from the grid that does.  Every cell, at the map's temperatures and
    # tolerance, lies within that tolerance and its reported error of a
    # tight reference
    from kitaev_bures.scaling import figure_of_merit_trajectory, map_axes

    tol = 1e-4
    _, temperatures = map_axes((0.48, 0.52), (0.002, 0.05), (17, 12))
    couplings = figure_of_merit_trajectory(jz)
    points = [ThermoPoint.from_temperature(couplings, float(t)) for t in temperatures]
    els = [("c", P.JZ, P.JZ), ("nc", P.JZ, P.JZ)]
    ref = GridSpec(refine_levels=5, target_rel_tol=1e-11, max_doublings=7)
    cells = tensors_thermodynamic(points, GridSpec(target_rel_tol=tol), elements=els)
    for g, exact in zip(cells, tensors_thermodynamic(points, ref, elements=els), strict=True):
        assert_near(g, exact)
        for part in ("classical", "nonclassical"):
            expected = getattr(exact, part)
            assert np.max(np.abs(getattr(g, part) - expected)) <= tol * np.max(np.abs(expected))


SCALING_CASES = [
    pytest.param(SYM, 0.01, id="gapless"),
    pytest.param(Couplings(0.255, 0.255, 0.49), 0.002, id="near-critical"),
    pytest.param(Couplings(0.22, 0.22, 0.56), 0.01, id="refined-gapped"),
    pytest.param(
        Couplings(0.25, 0.25, 0.5),
        0.01,
        id="critical-needle",
        marks=pytest.mark.xfail(
            strict=True,
            reason="core truncation: the needle disk's core |u|, |v| < r_min = width / 100 "
            "moves with T and has a fixed rule that its error ladder never refines; the "
            "law misses by 6.1e-6 (s = 1/2) and 1.7e-5 (s = 2) of the classical part "
            "against reported errors of 1.6e-7 to 9.6e-7",
        ),
    ),
]


@pytest.mark.parametrize("couplings, temperature", SCALING_CASES)
@pytest.mark.parametrize("s", [0.5, 2.0])
def test_exact_scaling_law(couplings, temperature, s):
    # the Gibbs state depends on beta J only, so (J, T) -> (sJ, sT) leaves it
    # invariant and the metric transforms as a tensor: d/dbeta picks up s,
    # each d/dJ_a picks up 1/s.  Both s are exact in binary, so the
    # integrands scale exactly and only the quadrature can break the law.
    g = tensor_thermodynamic(ThermoPoint.from_temperature(couplings, temperature))
    scaled = Couplings(*(s * couplings.as_array()))
    gs = tensor_thermodynamic(ThermoPoint.from_temperature(scaled, s * temperature))
    factor = np.array([s, 1.0 / s, 1.0 / s, 1.0 / s])
    for part in ("classical", "nonclassical"):
        expected = factor[:, None] * getattr(g, part) * factor[None, :]
        gap = np.max(np.abs(getattr(gs, part) - expected))
        assert gap <= 1e-12 * np.max(np.abs(expected)), part


def _nc_zz(couplings, temperature):
    tp = ThermoPoint.from_temperature(couplings, temperature)
    return tensor_thermodynamic(tp, elements=[("nc", P.JZ, P.JZ)]).nonclassical[3, 3]


def test_gapless_log_law_holds_down_to_t_1e_12():
    # inside the gapless phase g^nc_zz = a ln(1/T) + b, so equal steps in
    # ln T give equal steps in g.  The refinement width is T itself: a
    # width floored at 1e-6 refined every colder point as if it sat at
    # 1e-6, and the steps came out 1.0243, 1.0213 and 0.4161 (the value
    # froze at 5.4849 below 1e-12).  The needle-core share of r_min = T /
    # 100 is the same at every T, so it cancels in the steps
    g = [_nc_zz(Couplings(0.3, 0.3, 0.4), t) for t in (1e-6, 1e-8, 1e-10, 1e-12)]
    steps = np.diff(g)
    assert np.ptp(steps) <= 1e-6 * max(g)


def test_critical_power_law_holds_down_to_t_1e_8():
    # on the critical line g^nc_zz sqrt(T) tends to its limit linearly in
    # sqrt(T) (g = c T^(-1/2) + d + ...): the line through the values at T
    # = 1e-6 and 1e-7 predicts the one at 1e-8.  With the width floored at
    # 1e-6 the prediction missed by 1.5e-3
    temps = (1e-6, 1e-7, 1e-8)
    s = [math.sqrt(t) for t in temps]
    f = [_nc_zz(Couplings(0.25, 0.25, 0.5), t) * r for t, r in zip(temps, s)]
    predicted = f[0] + (f[1] - f[0]) * (s[2] - s[0]) / (s[1] - s[0])
    assert abs(predicted - f[2]) <= 1e-6 * abs(f[2])


def test_batch_requires_one_coupling():
    points = [ThermoPoint(SYM, 1.0), ThermoPoint(GAPPED, 1.0)]
    with pytest.raises(ValueError):
        tensors_thermodynamic(points)
    with pytest.raises(ValueError):
        tensors_thermodynamic([])


# ---------------------------------------------------------------------------
# null vectors, and the entries a full tensor derives from them

# every element named, so that nothing is derived
NULL_RTOL = 1e-13


def residuals(tensor, tp):
    return null_residuals(tensor.classical, tensor.nonclassical, tp.beta, tp.couplings)


@pytest.mark.parametrize(
    "couplings, temperature",
    [
        pytest.param(GAPPED, 0.5, id="gapped"),
        pytest.param(SYM, 0.01, id="gapless"),
        pytest.param(Couplings(0.25, 0.25, 0.5), 0.01, id="critical"),
        pytest.param(Couplings(0.255, 0.255, 0.49), 0.002, id="near-critical"),
        pytest.param(Couplings(0.35, -0.25, 0.4), 0.01, id="off-cut"),
    ],
)
def test_zone_quadrature_keeps_the_null_vectors(couplings, temperature):
    # a wrong response formula (a sign in theta_x, say) breaks these
    tp = ThermoPoint.from_temperature(couplings, temperature)
    g = tensor_thermodynamic(tp, elements=EVERY_ELEMENT)
    assert max(residuals(g, tp)) <= NULL_RTOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    # below |J| ~ 1e-77 every lam^2 is under _LAM2_FLOOR, which zeroes the
    # coupling block and leaves the beta row: no null vector there
    couplings=st.builds(Couplings, *[st.floats(-1.0, 1.0, allow_nan=False)] * 3).filter(
        lambda c: c.abs_max() >= 1e-3
    ),
    temperature=st.floats(0.05, 5.0),
    L=st.sampled_from([3, 5, 7, 9, 11]),
)
@example(Couplings(0.0, 0.3, 0.7), 0.5, 5)
@example(Couplings(-0.45, 0.2, -0.35), 0.1, 3)
def test_finite_sums_keep_the_null_vectors(couplings, temperature, L):
    tp = ThermoPoint.from_temperature(couplings, temperature)
    g = tensor_finite(tp, L, elements=EVERY_ELEMENT)
    assert max(residuals(g, tp)) <= NULL_RTOL


@pytest.mark.parametrize(
    "couplings, temperature",
    [(Couplings(0.3, 0.2, 0.5), 1.0), (Couplings(0.45, -0.2, 0.35), 0.3)],
    ids=["positive", "negative-jy"],
)
def test_oracle_keeps_the_null_vectors(couplings, temperature):
    # the oracle differentiates the mode family by central differences of
    # step h = 1e-6, so its derivatives carry eps / h ~ 2.2e-10 of rounding,
    # far above the closed forms' 1e-13; the null vectors hold to that
    tp = ThermoPoint.from_temperature(couplings, temperature)
    g = tensor_oracle(tp, 11)
    assert max(residuals(g, tp)) <= np.finfo(float).eps / 1e-6


def test_eliminated_index_is_the_largest_coupling_ties_toward_z_then_y():
    assert _eliminated(Couplings(0.5, -0.2, 0.3)) is P.JX
    assert _eliminated(Couplings(0.2, -0.5, 0.3)) is P.JY
    assert _eliminated(Couplings(0.4, 0.4, 0.2)) is P.JY
    assert _eliminated(Couplings(0.4, 0.1, -0.4)) is P.JZ
    assert _eliminated(Couplings(1 / 3, 1 / 3, 1 / 3)) is P.JZ
    assert _eliminated(Couplings(0.0, 0.0, 0.0)) is P.JZ


def assert_derived_equal_computed(full, named):
    """A full tensor (9 entries integrated, 7 derived) and the explicit
    16-element request agree to 1e-13 of the largest entry, per part."""
    for part in ("classical", "nonclassical"):
        expected = getattr(named, part)
        gap = np.max(np.abs(getattr(full, part) - expected))
        assert gap <= 1e-13 * np.max(np.abs(expected)), part


# the four tensor-phases couplings, a cut coupling whose jx = jy is the
# largest (the eliminated index is y), a zero and a negative coupling
DERIVED_CASES = {
    "gapped": (GAPPED, [0.5]),
    "gapless": (SYM, [0.01]),
    "critical": (Couplings(0.25, 0.25, 0.5), [0.01]),
    "near-critical": (Couplings(0.255, 0.255, 0.49), [0.002]),
    "cut-jx-largest": (Couplings(0.4, 0.4, 0.2), [0.05]),
    "zero-jx": (Couplings(0.0, 0.3, 0.7), [0.5]),
    "negative-jy": (Couplings(0.45, -0.2, 0.35), [0.05]),
    "mixed-zero-temperature": (GAPPED, [0.0, 0.3, 0.5]),
}
TENSOR_PHASES = ("gapped", "gapless", "critical", "near-critical")


@pytest.mark.parametrize("name", list(DERIVED_CASES))
def test_full_tensor_derives_what_the_named_request_computes(name):
    couplings, temperatures = DERIVED_CASES[name]
    points = [ThermoPoint.from_temperature(couplings, t) for t in temperatures]
    full = tensors_thermodynamic(points)
    named = tensors_thermodynamic(points, elements=EVERY_ELEMENT)
    for f, n in zip(full, named, strict=True):
        assert_derived_equal_computed(f, n)
        if name in TENSOR_PHASES:
            assert f.evaluation.details["evaluations"] == n.evaluation.details["evaluations"]


def test_full_correction_derives_what_the_named_request_computes():
    points = [ThermoPoint.from_temperature(Couplings(0.2, 0.2, 0.6), t) for t in (0.05, 0.1)]
    nc = [("nc", a, b) for a, b in NONCLASSICAL_PAIRS]
    named = nonclassical_corrections(points, elements=nc)
    for f, n in zip(nonclassical_corrections(points), named, strict=True):
        assert_derived_equal_computed(f, n)
        assert np.array_equal(f.classical, np.zeros((4, 4)))


@pytest.mark.parametrize(
    "couplings", [Couplings(0.3, 0.2, 0.5), Couplings(0.4, 0.4, 0.2), Couplings(0.0, -0.3, 0.7)],
    ids=str,
)
def test_full_finite_sum_derives_what_the_named_request_computes(couplings):
    for temperature in (0.0, 0.2):
        tp = ThermoPoint.from_temperature(couplings, temperature)
        assert_derived_equal_computed(
            tensor_finite(tp, 41), tensor_finite(tp, 41, elements=EVERY_ELEMENT)
        )


def test_derived_errors_are_propagated():
    # each derived error is the derivation's linear formula with |J| and the
    # computed errors
    tp = ThermoPoint.from_temperature(Couplings(0.3, 0.2, 0.5), 0.01)
    g = tensor_thermodynamic(tp, GridSpec(target_rel_tol=1e-4))
    ec, enc = (g.evaluation.details[f"error_{part}"] for part in ("classical", "nonclassical"))
    j = np.abs(tp.couplings.as_array())
    assert ec[0, 1:] == pytest.approx(ec[1:, 1:] @ j / tp.beta, rel=1e-15)
    assert ec[0, 0] == pytest.approx(ec[0, 1:] @ j / tp.beta, rel=1e-15)
    # jz is the largest coupling: its row is derived from the x-y block
    assert enc[1:3, 3] == pytest.approx(enc[1:3, 1:3] @ j[:2] / j[2], rel=1e-15)
    assert enc[3, 3] == pytest.approx(enc[3, 1:3] @ j[:2] / j[2], rel=1e-15)


def test_full_tensor_is_judged_over_all_16_errors():
    # on ladders that cannot climb, the errors do not depend on the
    # tolerance: at (1/3, 1/3, 1/3), T = 0.01, on the disk of radius 1.478
    # the 9 integrated entries report at most 5.5e-4 of the largest entry
    # and the derived ones 1.8e-3, so a tolerance of 1e-3 passes the 9
    # integrals and fails the tensor
    tp = ThermoPoint.from_temperature(SYM, 0.01)
    fixed = dict(base_n=32, max_doublings=1, refine_levels=1)
    integrated = [("c", mu, nu) for mu, nu in CLASSICAL_PAIRS if P.BETA not in (mu, nu)]
    integrated += [("nc", a, b) for a, b in NONCLASSICAL_PAIRS if P.JZ not in (a, b)]
    tensor_thermodynamic(tp, GridSpec(target_rel_tol=1e-3, **fixed), elements=integrated)
    with pytest.raises(QuadratureConvergenceError, match="T = 0.01 "):
        tensor_thermodynamic(tp, GridSpec(target_rel_tol=1e-3, **fixed))
    g = tensor_thermodynamic(tp, GridSpec(target_rel_tol=3e-3, **fixed))
    scale = max(np.max(np.abs(g.classical)), np.max(np.abs(g.nonclassical)))
    details = g.evaluation.details
    worst = max(np.max(details["error_classical"]), np.max(details["error_nonclassical"]))
    assert 1e-3 * scale < worst <= 3e-3 * scale


# ---------------------------------------------------------------------------
# the per-mode oracle


def test_oracle_requires_finite_temperature_and_odd_L():
    with pytest.raises(ValueError):
        tensor_oracle(ThermoPoint.from_temperature(SYM, 0.0), 21)
    with pytest.raises(ValueError):
        tensor_oracle(ThermoPoint(SYM, 1.0), 20)


def test_oracle_matches_finite_tensor(rng):
    for _ in range(4):
        j = random_couplings(rng)
        tp = ThermoPoint.from_temperature(j, float(rng.uniform(0.1, 2.0)))
        fin = tensor_finite(tp, 21)
        orc = tensor_oracle(tp, 21)
        # analytic per-mode route: machine-level agreement
        assert max_rel_dev(orc.classical, fin.classical) < 1e-8
        assert max_rel_dev(orc.nonclassical, fin.nonclassical) < 1e-8
        # finite-difference fidelity route: limited by the fd step
        assert entrywise_close(orc.evaluation.details["fd_classical"], fin.classical, 1e-4)
        assert entrywise_close(
            orc.evaluation.details["fd_nonclassical"], fin.nonclassical, 1e-4
        )
        assert orc.evaluation.details["beta_row_residual"] < 1e-10
        # the fd residual sits at the fidelity-difference noise floor
        assert orc.evaluation.details["fd_beta_row_residual"] < 1e-6


def test_oracle_decoupled_closed_forms():
    tp = ThermoPoint(DECOUPLED, 1.0)
    orc = tensor_oracle(tp, 31)
    assert orc.element("classical", P.BETA, P.BETA) == pytest.approx(
        1.0 / (2.0 * (math.cosh(2.0) + 1.0)), rel=1e-9
    )
    assert orc.element("nonclassical", P.JX, P.JX) == pytest.approx(
        math.tanh(1.0) ** 2 / 16.0, rel=1e-9
    )


def test_oracle_classical_part_dies_at_low_temperature():
    orc = tensor_oracle(ThermoPoint.from_temperature(GAPPED, 1e-3), 21)
    assert float(np.max(np.abs(orc.classical))) < 1e-8


def test_oracle_refuses_unresolved_classical_part():
    # at T = 0.04 the analytic classical part is ~50x the true one (a
    # squared derivative rounding divided by a ~e^-30 eigenvalue), and the
    # finite-difference route cannot resolve it either
    tp = ThermoPoint.from_temperature(GAPPED, 0.04)
    assert float(np.max(np.abs(tensor_finite(tp, 41).classical))) < 1e-11
    with pytest.raises(EigenvalueFloorError):
        tensor_oracle(tp, 41)


@pytest.mark.parametrize("couplings", [Couplings(0.4, 0.3, 0.3), Couplings(0.35, 0.35, 0.3)],
                         ids=["off-cut", "cut-jx-eq-jy"])
def test_mode_family_on_the_broadcast_grid_equals_the_flat_grid(couplings):
    # the oracle evaluates its mode family on xs[:, None] x xs[None, :]; each
    # field must equal the flat np.repeat / np.tile grid's, bit for bit
    from kitaev_bures.thermal_metric import _mode_bloch, _momentum_axis

    L = 21
    xs = _momentum_axis(L)
    lam = np.array([2.0, couplings.jx, couplings.jy, couplings.jz])
    grid = _mode_bloch(xs[:, None], xs[None, :], lam)
    flat = _mode_bloch(np.repeat(xs, L), np.tile(xs, L), lam)
    for g, f in zip(grid, flat):
        assert g.shape == (L, L)
        assert np.array_equal(g, f.reshape(L, L))


def test_entry_sums_mirror_the_upper_triangle(rng):
    # _entry_sums sums the 10 entries i <= j of an exactly symmetric stack;
    # that must equal one compensated sum per entry over all 16, bit for bit
    from kitaev_bures.thermal_metric import _entry_sums

    r = rng.normal(size=(3, 7, 4, 4)) * np.exp(rng.normal(scale=8.0, size=(3, 7, 4, 4)))
    g = r + r.swapaxes(-1, -2)
    assert np.array_equal(g, g.swapaxes(-1, -2))
    flat = g.reshape(-1, 4, 4)
    full = np.array([[compensated_sum(flat[:, i, j]) for j in range(4)] for i in range(4)])
    assert np.array_equal(_entry_sums(g), full)


def test_stable_mode_fidelity_matches_matrix_route(rng):
    # the closed-form pair fidelities used by the oracle (Uhlmann, then
    # Bhattacharyya) must equal the generic matrix fidelities wherever
    # matrices are accurate
    from kitaev_bures.bures import classical_fidelity, uhlmann_fidelity
    from kitaev_bures.thermal_metric import (
        _mode_bloch, _mode_matrix, _mode_pair_fidelities,
    )

    px = rng.uniform(-math.pi, math.pi, 64)
    py = rng.uniform(-math.pi, math.pi, 64)
    lam_a = np.array([1.7, 0.4, 0.3, 0.5])
    lam_b = lam_a + np.array([2e-3, -1e-3, 3e-3, 1e-3])
    bloch_a = _mode_bloch(px, py, lam_a)
    stable = _mode_pair_fidelities(px, py, *bloch_a)(lam_a, lam_b)
    rho_a = _mode_matrix(*bloch_a[:2])
    rho_b = _mode_matrix(*_mode_bloch(px, py, lam_b)[:2])
    matrix = uhlmann_fidelity(rho_a, rho_b, validate=False)
    assert float(np.max(np.abs(stable[0] - matrix))) < 1e-12
    matrix = classical_fidelity(rho_a, rho_b)
    assert float(np.max(np.abs(stable[1] - matrix))) < 1e-12
