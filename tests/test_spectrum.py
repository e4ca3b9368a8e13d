import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

SYM = Couplings(1 / 3, 1 / 3, 1 / 3)
GAPPED = Couplings(0.1, 0.1, 0.8)
BOUNDARY = Couplings(0.25, 0.25, 0.5)


def test_spectral_fields_all_couplings_one():
    sp = spectral_arrays(0.0, 0.0, Couplings(1, 1, 1))
    assert sp.epsilon == pytest.approx(6.0, abs=0)
    assert sp.delta == pytest.approx(0.0, abs=0)
    assert sp.lam == pytest.approx(6.0, abs=0)
    assert sp.theta_z == pytest.approx(0.0, abs=0)


def test_spectral_fields_zone_corner_symmetric():
    sp = spectral_arrays(math.pi, math.pi, SYM)
    assert sp.epsilon == pytest.approx(-2 / 3, rel=1e-14)
    assert sp.delta == pytest.approx(0.0, abs=1e-15)
    assert sp.lam == pytest.approx(2 / 3, rel=1e-14)


def test_spectral_fields_at_dispersion_zero():
    sp = spectral_arrays(2 * math.pi / 3, -2 * math.pi / 3, SYM)
    assert abs(sp.epsilon) < 1e-14
    assert abs(sp.delta) < 1e-14
    assert sp.lam < 1e-14


def test_theta_convention_at_exact_zero():
    # epsilon and delta vanish exactly in floating point here
    sp = spectral_arrays(0.0, 0.0, Couplings(0.5, 0.5, -1.0))
    assert sp.lam == 0.0
    assert mode_angle(sp) == 0.0  # convention at the undefined point


def test_momentum_wraps_into_zone():
    p = Momentum(3 * math.pi, -5 * math.pi / 2)
    assert -math.pi <= p.px < math.pi
    assert -math.pi <= p.py < math.pi
    assert p.px == pytest.approx(-math.pi)
    assert p.py == pytest.approx(-math.pi / 2)
    # a coordinate already in the zone is kept bit for bit, which wrapping
    # through +pi would round away
    q = Momentum(1e-20, -math.pi)
    assert (q.px, q.py) == (1e-20, -math.pi)


def test_couplings_must_be_finite():
    with pytest.raises(ValueError):
        Couplings(1.0, math.inf, 0.0)


def test_lambda_squared_identity(rng):
    for _ in range(200):
        j = Couplings(*rng.uniform(-1, 1, size=3))
        sp = spectral_arrays(*rng.uniform(-math.pi, math.pi, size=2), j)
        assert sp.lam**2 == pytest.approx(sp.epsilon**2 + sp.delta**2, rel=1e-12)
        assert -math.pi < mode_angle(sp) <= math.pi


def test_xy_exchange_symmetry(rng):
    for _ in range(100):
        j = Couplings(*rng.uniform(-1, 1, size=3))
        px, py = rng.uniform(-math.pi, math.pi, size=2)
        a = spectral_arrays(px, py, j)
        b = spectral_arrays(py, px, Couplings(j.jy, j.jx, j.jz))
        assert a.epsilon == pytest.approx(b.epsilon, abs=1e-14)
        assert a.delta == pytest.approx(b.delta, abs=1e-14)
        assert a.lam == pytest.approx(b.lam, abs=1e-14)
        assert a.theta_x == pytest.approx(b.theta_y, abs=1e-14)
        assert a.theta_y == pytest.approx(b.theta_x, abs=1e-14)
        assert a.omega_x == pytest.approx(b.omega_y, abs=1e-14)
        assert a.omega_y == pytest.approx(b.omega_x, abs=1e-14)


RESPONSES = ("omega_x", "omega_y", "omega_z", "theta_x", "theta_y", "theta_z")


@pytest.mark.parametrize("nodes", ["separable", "per-node", "0-d"])
def test_responses_equal_the_docstring_formulas_bit_for_bit(nodes):
    # each response, formed on its first read, is the module docstring's
    # formula evaluated in its stated form, whatever was read before it
    rng = np.random.default_rng(7)
    j = Couplings(0.3, -0.45, 0.6)
    if nodes == "separable":
        px, py = rng.uniform(-math.pi, math.pi, (6, 1)), rng.uniform(-math.pi, math.pi, (1, 9))
    elif nodes == "per-node":
        px, py = rng.uniform(-math.pi, math.pi, (2, 2, 7))
    else:
        px, py = 0.9, -2.3
    cx, sx = np.cos(np.asarray(px)), np.sin(np.asarray(px))
    cy, sy = np.cos(np.asarray(py)), np.sin(np.asarray(py))
    eps = 2.0 * (j.jx * cx + j.jy * cy + j.jz)
    delta = 2.0 * (j.jx * sx + j.jy * sy)
    sxy = sx * cy - cx * sy
    formulas = {
        "omega_x": 2.0 * (cx * eps + sx * delta),
        "omega_y": 2.0 * (cy * eps + sy * delta),
        "omega_z": 2.0 * eps,
        "theta_x": 4.0 * (j.jz * sx + j.jy * sxy),
        "theta_y": 4.0 * (j.jz * sy - j.jx * sxy),
        "theta_z": -2.0 * delta,
    }
    for order in (RESPONSES, RESPONSES[::-1]):
        sp = spectral_arrays(px, py, j)
        assert np.array_equal(sp.epsilon, eps) and np.array_equal(sp.delta, delta)
        assert np.array_equal(sp.lam, np.hypot(eps, delta))
        for name in order:
            value = getattr(sp, name)
            assert np.shape(value) == np.shape(eps), name
            assert np.array_equal(value, formulas[name]), name
            assert getattr(sp, name) is value  # formed once, then kept


def test_reading_the_basic_fields_forms_no_response():
    sp = spectral_arrays(np.linspace(-3.0, 3.0, 5)[:, None], np.linspace(-3.0, 3.0, 4), SYM)
    sp.lam, sp.epsilon, sp.delta
    mode_angle(sp)
    assert not set(vars(sp)) & {*RESPONSES, "_sxy"}
    # a response forms itself and what it reads, nothing else
    sp.theta_z
    assert set(vars(sp)) & {*RESPONSES, "_sxy"} == {"theta_z"}
    sp.theta_y
    assert set(vars(sp)) & {*RESPONSES, "_sxy"} == {"theta_z", "theta_y", "_sxy"}
    with pytest.raises(AttributeError, match="theta"):
        sp.theta


def _theta_fd(p, j, axis, h=1e-6):
    shifts = {"jx": (h, 0, 0), "jy": (0, h, 0), "jz": (0, 0, h)}[axis]
    jp = Couplings(j.jx + shifts[0], j.jy + shifts[1], j.jz + shifts[2])
    jm = Couplings(j.jx - shifts[0], j.jy - shifts[1], j.jz - shifts[2])
    tp = mode_angle(spectral_arrays(p.px, p.py, jp))
    tm = mode_angle(spectral_arrays(p.px, p.py, jm))
    # wrap the difference across the branch cut
    return float(np.angle(np.exp(1j * (tp - tm)))) / (2 * h)


def test_theta_response_is_lambda_sq_times_dtheta(rng):
    checked = 0
    while checked < 300:
        j = Couplings(*rng.uniform(0.1, 1.0, size=3))
        p = Momentum(*rng.uniform(-math.pi, math.pi, size=2))
        sp = spectral_arrays(p.px, p.py, j)
        if sp.lam < 0.05:  # stay away from dispersion zeros
            continue
        for axis, resp in (("jx", sp.theta_x), ("jy", sp.theta_y), ("jz", sp.theta_z)):
            expected = sp.lam**2 * _theta_fd(p, j, axis)
            assert resp == pytest.approx(expected, rel=1e-6, abs=1e-8)
        checked += 1


def test_omega_response_is_gradient_of_half_lambda_sq(rng):
    h = 1e-6
    for _ in range(200):
        j = Couplings(*rng.uniform(0.1, 1.0, size=3))
        p = Momentum(*rng.uniform(-math.pi, math.pi, size=2))
        sp = spectral_arrays(p.px, p.py, j)
        for axis, resp in (("jx", sp.omega_x), ("jy", sp.omega_y), ("jz", sp.omega_z)):
            shifts = {"jx": (h, 0, 0), "jy": (0, h, 0), "jz": (0, 0, h)}[axis]
            jp = Couplings(j.jx + shifts[0], j.jy + shifts[1], j.jz + shifts[2])
            jm = Couplings(j.jx - shifts[0], j.jy - shifts[1], j.jz - shifts[2])
            lam_p = spectral_arrays(p.px, p.py, jp).lam
            lam_m = spectral_arrays(p.px, p.py, jm).lam
            fd = (lam_p**2 - lam_m**2) / (4 * h)
            assert resp == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_classify_phase_reference_points():
    assert classify_phase(SYM) is PhaseRegion.GAPLESS_B
    assert classify_phase(GAPPED) is PhaseRegion.GAPPED_AZ
    assert classify_phase(BOUNDARY) is PhaseRegion.CRITICAL_BOUNDARY


def test_classify_phase_sign_and_permutation_invariance(rng):
    relabel = {
        PhaseRegion.GAPPED_AX: PhaseRegion.GAPPED_AY,
        PhaseRegion.GAPPED_AY: PhaseRegion.GAPPED_AZ,
        PhaseRegion.GAPPED_AZ: PhaseRegion.GAPPED_AX,
        PhaseRegion.GAPLESS_B: PhaseRegion.GAPLESS_B,
        PhaseRegion.CRITICAL_BOUNDARY: PhaseRegion.CRITICAL_BOUNDARY,
    }
    for _ in range(100):
        j = Couplings(*rng.uniform(0.05, 1.0, size=3))
        region = classify_phase(j)
        signs = rng.choice([-1.0, 1.0], size=3)
        flipped = Couplings(signs[0] * j.jx, signs[1] * j.jy, signs[2] * j.jz)
        assert classify_phase(flipped) is region
        cycled = Couplings(j.jz, j.jx, j.jy)  # x<-z, y<-x, z<-y
        assert classify_phase(cycled) is relabel[region]


def test_fermion_gap_values():
    assert fermion_gap(GAPPED) == pytest.approx(1.2, rel=1e-12)
    assert fermion_gap(BOUNDARY) == 0.0
    assert fermion_gap(Couplings(0.8, 0.1, 0.1)) == pytest.approx(1.2, rel=1e-12)
    with pytest.raises(ValueError):
        fermion_gap(SYM)


def test_dirac_points_symmetric():
    pts = dirac_points(SYM)
    assert len(pts) == 2
    expected = {(2 * math.pi / 3, -2 * math.pi / 3), (-2 * math.pi / 3, 2 * math.pi / 3)}
    for p in pts:
        assert any(
            abs(p.px - ex) < 1e-9 and abs(p.py - ey) < 1e-9 for ex, ey in expected
        )
    assert dirac_points(GAPPED) == []


def _grid_zoom_minimum(j, center=None, span=2 * math.pi, n=61, rounds=8):
    """Independent oracle: iterative grid refinement of the dispersion minimum."""
    cx, cy = (0.0, 0.0) if center is None else center
    for _ in range(rounds):
        xs = cx + np.linspace(-span / 2, span / 2, n)
        ys = cy + np.linspace(-span / 2, span / 2, n)
        f = spectral_arrays(xs[:, None], ys[None, :], j)
        i, k = divmod(int(np.argmin(f.lam)), n)
        cx, cy = float(xs[i]), float(ys[k])
        span /= n / 4
    return cx, cy


def test_dirac_points_against_grid_minimization():
    j = Couplings(0.3, 0.3, 0.4)
    pts = dirac_points(j)
    assert len(pts) == 2
    for p in pts:
        assert spectral_arrays(p.px, p.py, j).lam < 1e-10
        zx, zy = _grid_zoom_minimum(j, center=(p.px, p.py), span=0.5)
        assert abs(wrap_angle(p.px - zx)) < 1e-6
        assert abs(wrap_angle(p.py - zy)) < 1e-6


def test_dirac_point_on_boundary_is_merged_pair():
    pts = dirac_points(BOUNDARY)
    assert len(pts) == 1
    assert spectral_arrays(pts[0].px, pts[0].py, BOUNDARY).lam < 1e-12
    assert abs(abs(pts[0].px) - math.pi) < 1e-9
    assert abs(abs(pts[0].py) - math.pi) < 1e-9
    # off the symmetric point, in other dominant directions and with a sign
    # flip the pair merges at another corner of {0, pi}^2
    for j in (
        Couplings(0.3, 0.2, 0.5),
        Couplings(0.5, 0.2, 0.3),
        Couplings(0.2, 0.5, 0.3),
        Couplings(-0.3, 0.2, 0.5),
    ):
        pts = dirac_points(j)
        assert len(pts) == 1
        assert spectral_arrays(pts[0].px, pts[0].py, j).lam < 1e-12
        assert {abs(pts[0].px), abs(pts[0].py)} <= {0.0, math.pi}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    a=st.floats(0.05, 1.0),
    b=st.floats(0.05, 1.0),
    t=st.floats(0.01, 0.99),
    signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3),
    order=st.permutations(range(3)),
)
def test_gapless_dirac_points_are_a_mirror_pair(a, b, t, signs, order):
    # |J| is a strict triangle (c between |a - b| and a + b), in any order and
    # with any signs
    c = abs(a - b) + t * (a + b - abs(a - b))
    mags = (a, b, c)
    j = Couplings(*(s * mags[k] for s, k in zip(signs, order)))
    assert classify_phase(j) is PhaseRegion.GAPLESS_B
    pts = dirac_points(j)
    assert len(pts) == 2
    assert abs(wrap_angle(pts[0].px + pts[1].px)) < 1e-12
    assert abs(wrap_angle(pts[0].py + pts[1].py)) < 1e-12
    for p in pts:
        assert spectral_arrays(p.px, p.py, j).lam <= 1e-12 * j.abs_max()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dirac_point_on_the_cut_is_fixed_by_minus_s(sign):
    # on the cut jx == jy the pair is K = (a, -a), which the reflection
    # -s: (px, py) -> (-py, -px) fixes; the quarter rule needs that bit for
    # bit, and K an ulp off it silently takes the half rule
    for jz in np.linspace(0.0005, 0.4995, 20000):
        j = sign * (1.0 - jz) / 2.0
        k, minus_k = dirac_points(Couplings(j, j, jz))
        assert k.px == -k.py
        assert (minus_k.px, minus_k.py) == (-k.px, -k.py)


def test_dispersion_locally_linear_at_interior_zeros(rng):
    j = Couplings(0.3, 0.35, 0.3)
    assert classify_phase(j) is PhaseRegion.GAPLESS_B
    for p in dirac_points(j):
        for _ in range(5):
            phi = rng.uniform(0, 2 * math.pi)
            u = (math.cos(phi), math.sin(phi))
            slopes = []
            for delta in (1e-3, 1e-4, 1e-5):
                q = Momentum(p.px + delta * u[0], p.py + delta * u[1])
                slopes.append(spectral_arrays(q.px, q.py, j).lam / delta)
            assert slopes[-1] > 0.05
            assert slopes[-1] == pytest.approx(slopes[-2], rel=2e-2)


def test_dispersion_quadratic_along_boundary_soft_direction():
    p0 = dirac_points(BOUNDARY)[0]
    u = (1 / math.sqrt(2), -1 / math.sqrt(2))
    ratios = []
    for delta in (1e-2, 1e-3, 1e-4):
        q = Momentum(p0.px + delta * u[0], p0.py + delta * u[1])
        ratios.append(spectral_arrays(q.px, q.py, BOUNDARY).lam / delta**2)
    assert ratios[-1] == pytest.approx(ratios[-2], rel=5e-2)
    assert 0.01 < ratios[-1] < 100.0


def test_boundary_classification_stable_along_trajectory():
    # along jx = jy = (1-jz)/2 the boundary sits exactly at jz = 0.5; the
    # floating-point expressions must classify it stably
    for jz in (0.5, 0.1 + 0.4, 1.0 - 0.5, 0.25 * 2.0):
        j = Couplings((1 - jz) / 2, (1 - jz) / 2, jz)
        assert classify_phase(j) is PhaseRegion.CRITICAL_BOUNDARY
    assert classify_phase(Couplings(0.26, 0.26, 0.48)) is PhaseRegion.GAPLESS_B
    assert classify_phase(Couplings(0.24, 0.24, 0.52)) is PhaseRegion.GAPPED_AZ
