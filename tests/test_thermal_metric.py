import math
import tracemalloc

import numpy as np
import pytest

from helpers import entrywise_close, max_rel_dev, random_couplings
from kitaev_bures.bures import EigenvalueFloorError, validate_density_matrix
from kitaev_bures.quadrature import GridSpec, QuadratureConvergenceError, compensated_sum
from kitaev_bures.spectrum import (
    Couplings,
    Momentum,
    classify_phase,
    fermion_gap,
    spectral_arrays,
)
from kitaev_bures.thermal_metric import (
    CLASSICAL_PAIRS,
    MIN_REFINE_RADIUS,
    NONCLASSICAL_PAIRS,
    ParameterIndex as P,
    ThermoPoint,
    _refinement_plan,
    classical_integrand,
    mode_density_matrix,
    nonclassical_corrections,
    nonclassical_integrand,
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
    tp = ThermoPoint.from_temperature(SYM, 0.0)
    assert tp.zero_temperature and tp.temperature == 0.0
    assert ThermoPoint.from_temperature(SYM, 0.5).beta == pytest.approx(2.0)


def test_classical_integrand_beta_beta_decoupled(rng):
    tp = ThermoPoint(DECOUPLED, 1.3)
    for _ in range(5):
        p = Momentum(*rng.uniform(-math.pi, math.pi, size=2))
        val = classical_integrand(P.BETA, P.BETA, p, tp)
        assert val == pytest.approx(4.0 / (math.cosh(2 * 1.3) + 1.0), rel=1e-13)


def test_classical_integrand_jxjy_decoupled_averages_to_zero():
    tp = ThermoPoint(DECOUPLED, 0.9)
    p = Momentum(0.7, -1.2)
    expected = (
        0.81 * 16.0 * math.cos(0.7) * math.cos(-1.2) / 4.0
        / (math.cosh(1.8) + 1.0)
    )
    assert classical_integrand(P.JX, P.JY, p, tp) == pytest.approx(expected, rel=1e-12)
    t = tensor_finite(tp, 31, elements=[("c", P.JX, P.JY)])
    assert abs(t.element("classical", P.JX, P.JY)) < 1e-15


def test_classical_integrand_jzjz_symmetric_corner():
    tp = ThermoPoint(SYM, 1.0)
    val = classical_integrand(P.JZ, P.JZ, Momentum(math.pi, math.pi), tp)
    assert val == pytest.approx(4.0 / (math.cosh(2 / 3) + 1.0), rel=1e-12)


def test_nonclassical_integrand_decoupled():
    tp = ThermoPoint(DECOUPLED, 0.8)
    p = Momentum(0.4, 2.0)
    expected = math.tanh(0.8) ** 2 * math.sin(0.4) ** 2
    assert nonclassical_integrand(P.JX, P.JX, p, tp) == pytest.approx(expected, rel=1e-12)


def test_nonclassical_integrand_zero_when_delta_vanishes():
    # delta = 0 exactly at the decoupled point, so theta_z = -2 delta = 0
    tp = ThermoPoint(DECOUPLED, 2.0)
    assert nonclassical_integrand(P.JZ, P.JZ, Momentum(0.7, -0.2), tp) == 0.0
    # at the symmetric zone corner delta only vanishes to rounding
    corner = nonclassical_integrand(P.JZ, P.JZ, Momentum(math.pi, math.pi), ThermoPoint(SYM, 2.0))
    assert abs(corner) < 1e-30


def test_nonclassical_integrand_zero_temperature_ratio_is_one(rng):
    j = Couplings(0.2, 0.3, 0.4)
    p = Momentum(0.9, -0.3)
    cold = nonclassical_integrand(P.JZ, P.JZ, p, ThermoPoint(j, 5000.0))
    frozen = nonclassical_integrand(P.JZ, P.JZ, p, ThermoPoint.from_temperature(j, 0.0))
    assert cold == pytest.approx(frozen, rel=1e-8)


def test_nonclassical_integrand_rejects_beta():
    with pytest.raises(ValueError):
        nonclassical_integrand(P.BETA, P.JZ, Momentum(0.1, 0.2), ThermoPoint(SYM, 1.0))


def test_diagonal_integrands_nonnegative(rng):
    for _ in range(100):
        j = random_couplings(rng)
        tp = ThermoPoint(j, float(rng.uniform(0.2, 5.0)))
        p = Momentum(*rng.uniform(-math.pi, math.pi, size=2))
        for mu in (P.BETA, P.JX, P.JY, P.JZ):
            assert classical_integrand(mu, mu, p, tp) >= 0.0
        for a in (P.JX, P.JY, P.JZ):
            assert nonclassical_integrand(a, a, p, tp) >= 0.0


# ---------------------------------------------------------------------------
# mode density matrix


def test_mode_state_maximally_mixed_at_zero():
    rho = mode_density_matrix(Momentum(0.0, 0.0), ThermoPoint(Couplings(0.5, 0.5, -1.0), 2.0))
    assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-15)


def test_mode_state_pure_at_zero_temperature():
    rho = mode_density_matrix(Momentum(0.3, 0.4), ThermoPoint.from_temperature(SYM, 0.0))
    w = np.linalg.eigvalsh(rho)
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    assert w[1] == pytest.approx(1.0, abs=1e-12)


def test_mode_state_thermal_occupations():
    rho = mode_density_matrix(Momentum(0.0, 0.0), ThermoPoint(DECOUPLED, 1.0))
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
    rho = mode_density_matrix(p, tp)
    r = math.tanh(0.5 * 1.7 * sp.lam)
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    expected = 0.5 * (np.eye(2) + r * (math.sin(sp.theta) * sx + math.cos(sp.theta) * sy))
    assert np.allclose(rho, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# finite-size tensor


def test_finite_size_validation():
    tp = ThermoPoint(SYM, 1.0)
    with pytest.raises(ValueError):
        tensor_finite(tp, 20)
    with pytest.raises(ValueError):
        tensor_finite(tp, 1)
    with pytest.raises(ValueError, match="no tensor elements"):
        tensor_finite(tp, 5, elements=[])


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
    tp_swapped = ThermoPoint(j.swapped_xy(), 1.2)
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


def test_thermodynamic_xy_swap_covariance():
    j = Couplings(0.25, 0.4, 0.35)
    grid = GridSpec(base_n=64, target_rel_tol=1e-9)
    a = tensor_thermodynamic(ThermoPoint(j, 1.5), grid)
    b = tensor_thermodynamic(ThermoPoint(j.swapped_xy(), 1.5), grid)
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
    # permutation closes the gap at another corner
    els = [("c", P.BETA, P.BETA)]
    vals = [
        tensor_thermodynamic(ThermoPoint.from_temperature(j, temperature), elements=els)
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
    # near-critical gapped (gap 0.24): widths are T floored at gap / 8, the
    # batch takes the smallest width and the largest max(8 w, 0.3)
    j = Couplings(0.22, 0.22, 0.56)
    mixed = [ThermoPoint.from_temperature(j, t) for t in (0.002, 0.05)]
    centres, axes, width, radius = _refinement_plan(mixed)
    assert centres == [Momentum(math.pi, math.pi)]
    assert width == fermion_gap(j) / 8.0 == pytest.approx(0.03)
    assert radius == max(8.0 * 0.05, MIN_REFINE_RADIUS)
    # a batch of one keeps the shoulder floor when 8 T is smaller
    _, _, width, radius = _refinement_plan([ThermoPoint.from_temperature(j, 0.01)])
    assert width == fermion_gap(j) / 8.0 and radius == MIN_REFINE_RADIUS == 0.3


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


def test_batch_requires_one_coupling():
    points = [ThermoPoint(SYM, 1.0), ThermoPoint(GAPPED, 1.0)]
    with pytest.raises(ValueError):
        tensors_thermodynamic(points)
    with pytest.raises(ValueError):
        tensors_thermodynamic([])


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


def test_stable_mode_fidelity_matches_matrix_route(rng):
    # the closed-form pair fidelity used by the oracle must equal the
    # generic eigendecomposition fidelity wherever matrices are accurate
    from kitaev_bures.bures import uhlmann_fidelity
    from kitaev_bures.thermal_metric import _mode_batch, _mode_pair_uhlmann

    px = rng.uniform(-math.pi, math.pi, 64)
    py = rng.uniform(-math.pi, math.pi, 64)
    lam_a = np.array([1.7, 0.4, 0.3, 0.5])
    lam_b = lam_a + np.array([2e-3, -1e-3, 3e-3, 1e-3])
    stable = _mode_pair_uhlmann(px, py)(lam_a, lam_b)
    matrix = uhlmann_fidelity(
        _mode_batch(px, py, lam_a), _mode_batch(px, py, lam_b), validate=False
    )
    assert float(np.max(np.abs(stable - matrix))) < 1e-12
