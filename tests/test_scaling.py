import math
import os

import numpy as np
import pytest

from kitaev_bures.quadrature import GridSpec, QuadratureConvergenceError, integrate_bz_refined
from kitaev_bures.scaling import (
    GappedClassicalFit,
    LogDivergenceFit,
    PowerLawFit,
    RatioMap,
    crossover_contour,
    figure_of_merit_trajectory,
    fit_gapped_classical,
    fit_gapped_nonclassical,
    fit_log_divergence,
    fit_power_law,
    ratio_map,
)
from kitaev_bures.spectrum import Couplings, dirac_points
from kitaev_bures.thermal_metric import (
    ParameterIndex as P,
    ThermoPoint,
    tensor_thermodynamic,
    tensors_thermodynamic,
)

GAPPED = Couplings(0.1, 0.1, 0.8)
SYM = Couplings(1 / 3, 1 / 3, 1 / 3)


def samples_from(f, lo, hi, n=10):
    t = np.geomspace(lo, hi, n)
    return np.stack([t, f(t)], axis=1)


# ---------------------------------------------------------------------------
# each fit recovers its own synthetic model


def test_gapped_classical_fit_recovers_model():
    res = fit_gapped_classical(samples_from(lambda t: t * np.exp(-1.2 / t), 0.05, 0.2))
    assert isinstance(res.model, GappedClassicalFit)
    assert res.model.alpha == pytest.approx(1.0, abs=1e-10)
    assert res.model.gap == pytest.approx(1.2, abs=1e-10)
    assert res.r_squared == pytest.approx(1.0, abs=1e-12)
    constrained = fit_gapped_classical(
        samples_from(lambda t: t * np.exp(-1.2 / t), 0.05, 0.2), known_gap=1.2
    )
    assert constrained.model.alpha_constrained == pytest.approx(1.0, abs=1e-10)


def test_gapped_classical_window_warning():
    res = fit_gapped_classical(
        samples_from(lambda t: t * np.exp(-1.2 / t), 0.05, 0.9), known_gap=1.2
    )
    assert res.warnings and "gap/3" in res.warnings[0]


def test_log_divergence_fit_recovers_model():
    res = fit_log_divergence(samples_from(lambda t: 2.0 * np.log(1.0 / t) + 3.0, 1e-4, 1e-2))
    assert isinstance(res.model, LogDivergenceFit)
    assert res.model.a == pytest.approx(2.0, abs=1e-10)
    assert res.model.b == pytest.approx(3.0, abs=1e-10)
    assert res.r_squared == pytest.approx(1.0, abs=1e-12)


def test_power_law_fit_recovers_model():
    res = fit_power_law(samples_from(lambda t: 0.7 * t**-0.5, 1e-4, 1e-2))
    assert isinstance(res.model, PowerLawFit)
    assert res.model.exponent == pytest.approx(-0.5, abs=1e-10)
    assert res.model.prefactor == pytest.approx(0.7, rel=1e-10)


def test_gapped_nonclassical_fit_recovers_model():
    res = fit_gapped_nonclassical(
        samples_from(lambda t: -0.3 * t**2 * np.exp(-0.8 / t), 0.05, 0.2),
        gap=0.8,
        zero_temperature_value=0.42,
    )
    assert res.model.exponent == pytest.approx(2.0, abs=1e-10)
    assert res.model.coefficient == pytest.approx(0.3, rel=1e-8)
    assert res.model.offset == 0.42


def test_fit_validation_errors():
    good = samples_from(lambda t: t, 0.1, 0.2)
    with pytest.raises(ValueError):
        fit_power_law(good[:4])
    with pytest.raises(ValueError):
        fit_power_law(np.stack([good[:, 0], -good[:, 1]], axis=1))
    with pytest.raises(ValueError):
        fit_gapped_classical(np.stack([[-0.1, 0.2]] * 6))
    degenerate = np.stack([[0.1, 1.0]] * 6)
    with pytest.raises(ValueError):
        fit_log_divergence(degenerate)


def test_fit_whose_prefactor_overflows_is_a_value_error():
    # e^{-1.2/T} over T in [0.002, 0.004] is no power law: the line through
    # ln g against ln T has a slope of about 400 and an intercept of about
    # 2090, whose exponential overflows a float (an OverflowError, which the
    # CLI does not read as a failed fit)
    samples = samples_from(lambda t: np.exp(-1.2 / t), 0.002, 0.004)
    with pytest.raises(ValueError, match="overflows"):
        fit_power_law(samples)
    with pytest.raises(ValueError, match="overflows"):
        fit_gapped_nonclassical(samples, gap=0.1, zero_temperature_value=0.0)


# ---------------------------------------------------------------------------
# physics: the gapped exponents in their asymptotic window


def test_quasi_classical_exponents_asymptotic_window():
    """The T^alpha e^{-gap/T} ladder with alpha = (1, 0, -1).

    The law holds once T is small against every curvature scale of the
    dispersion.  At this coupling point the transverse couplings set the
    smallest one, s = 2 jx = 0.2 (the gap is 1.2), so the window
    [gap/30, gap/10] = [0.04, 0.12] is not asymptotic: there the exponents
    come out as bb +1.71, zz -0.62, xz -1.44.  Over [0.005, 0.015], below
    s/10, the ladder emerges cleanly; acceptance criterion 3 checks it over
    [s/30, s/10].
    """
    grid = GridSpec(base_n=128, target_rel_tol=1e-9)
    temps = np.geomspace(0.005, 0.015, 8)
    tensors = [
        tensor_thermodynamic(ThermoPoint.from_temperature(GAPPED, t), grid)
        for t in temps
    ]
    cases = [
        ("classical", P.BETA, P.BETA, 1.0),
        ("classical", P.BETA, P.JZ, 0.0),
        ("classical", P.BETA, P.JX, 0.0),
        ("classical", P.JZ, P.JZ, -1.0),
        ("classical", P.JX, P.JX, -1.0),
        ("classical", P.JX, P.JZ, -1.0),
    ]
    for part, mu, nu, alpha_expected in cases:
        vals = np.abs([t.element(part, mu, nu) for t in tensors])
        res = fit_gapped_classical(np.stack([temps, vals], axis=1), known_gap=1.2)
        assert res.model.alpha == pytest.approx(alpha_expected, abs=0.15)
        assert res.model.gap == pytest.approx(1.2, rel=0.01)


# ---------------------------------------------------------------------------
# ratio map and contour


def synthetic_map(n_jz=15, n_t=12):
    jz = np.linspace(0.48, 0.52, n_jz)
    ts = np.geomspace(0.002, 0.05, n_t)
    grid = ((np.abs(jz[None, :] - 0.5) + 1e-300) / ts[:, None]) ** 2
    return RatioMap(jz_values=jz, temperatures=ts, grid=grid)


def test_crossover_contour_on_constructed_map():
    rmap = synthetic_map()
    contour = crossover_contour(rmap, 1.0)
    assert contour.points.shape[0] >= 6
    d = np.abs(contour.points[:, 0] - 0.5)
    keep = d > 1e-9
    assert np.allclose(contour.points[keep, 1], d[keep], rtol=1e-9)
    assert contour.exponent == pytest.approx(1.0, abs=1e-6)


def test_crossover_contour_empty_outside_range():
    rmap = synthetic_map()
    contour = crossover_contour(rmap, 1e9)
    assert contour.points.shape[0] == 0
    assert contour.exponent is None


def test_ratio_map_parameterization_invariance():
    # identical physical cells through two different trajectory callables
    grid = GridSpec(base_n=32, target_rel_tol=1e-4, max_doublings=2, refine_levels=1)
    kw = dict(grid=grid, threads=2)
    a = ratio_map(figure_of_merit_trajectory, (0.6, 0.66), (0.5, 1.0), 8, **kw)
    offset = lambda u: figure_of_merit_trajectory(u + 0.0)
    b = ratio_map(offset, (0.6, 0.66), (0.5, 1.0), 8, **kw)
    assert np.array_equal(a.grid, b.grid)
    assert np.all(a.valid) and np.all(b.valid)
    assert np.all(a.grid >= 0.0)


def test_ratio_map_thread_count_does_not_change_values(monkeypatch):
    # unset and 0 give one worker per usable core (the CPU affinity where
    # the platform reports one, else the CPU count), never more than the
    # 8 columns; the pool is recorded, not replaced
    import kitaev_bures.scaling as scaling

    workers = []

    class Recording(scaling.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(scaling, "ThreadPoolExecutor", Recording)
    grid = GridSpec(base_n=32, target_rel_tol=1e-4, max_doublings=2, refine_levels=1)

    def run(threads):
        return ratio_map(figure_of_merit_trajectory, (0.62, 0.66), (0.5, 1.0), 8, grid=grid,
                         threads=threads).grid

    a = run(1)
    for threads in (4, None, 0):
        assert np.array_equal(a, run(threads))
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count()
    assert workers == [1, 4] + 2 * [min(usable, 8)]
    # the cap by columns, and the CPU count where no affinity is reported
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    run(None)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    run(0)
    assert workers[-2:] == [8, 3]
    # 0 is automatic, a negative count is refused rather than read as 0
    with pytest.raises(ValueError, match="threads must be unset or >= 0"):
        ratio_map(figure_of_merit_trajectory, (0.62, 0.66), (0.5, 1.0), 8, threads=-3)


def test_column_batched_map_matches_standalone_cells():
    """Each column is one temperature batch sharing one refinement geometry;
    every cell must still agree with its own standalone tensor.

    Both values are within the tolerance tol * s of the exact parts, s the
    larger part, so they differ by at most 2 tol s in each part, and the
    ratio r = c / nc by at most 2 tol max(|r|, 1) (1 + |r|).  The window
    holds refined near-critical columns (gap < 0.5 for jz < 0.625), where
    the batch geometry differs from a single cell's, and unrefined ones.
    """
    grid = GridSpec(base_n=32, target_rel_tol=1e-4, max_doublings=4, refine_levels=2)
    rmap = ratio_map(figure_of_merit_trajectory, (0.56, 0.70), (0.002, 0.05), 8,
                     grid=grid, threads=2)
    assert np.all(rmap.valid)
    els = [("c", P.JZ, P.JZ), ("nc", P.JZ, P.JZ)]
    for i, temp in enumerate(rmap.temperatures):
        for j, jz in enumerate(rmap.jz_values):
            tp = ThermoPoint.from_temperature(figure_of_merit_trajectory(float(jz)), float(temp))
            t = tensor_thermodynamic(tp, grid, elements=els)
            r = t.element("classical", P.JZ, P.JZ) / t.element("nonclassical", P.JZ, P.JZ)
            bound = 2.0 * grid.target_rel_tol * max(abs(r), 1.0) * (1.0 + abs(r))
            assert abs(rmap.grid[i, j] - r) <= bound


def test_ratio_map_failed_temperature_invalidates_only_its_cell():
    # under the column's shared geometry a 64-point grid doubled once
    # resolves every temperature of the column to 3.3e-6 or better but the
    # warmest, T = 0.3, only to 8e-6
    grid = GridSpec(base_n=64, max_doublings=1, target_rel_tol=5e-6, refine_levels=1)
    rmap = ratio_map(lambda jz: SYM, (0.3, 0.34), (0.002, 0.3), 8, grid=grid, threads=2)
    assert np.all(rmap.valid[:7]) and not np.any(rmap.valid[7])
    assert [cell for cell, _ in rmap.failures] == [(7, j) for j in range(8)]
    assert rmap.unconverged == tuple((7, j) for j in range(8))
    for _, reason in rmap.failures:
        assert "tolerance at T = 0.3 " in reason and "0.002" not in reason
    assert np.all(rmap.grid[7] == 0.0)
    # the converged cells keep the values of the failed batch's members
    points = [ThermoPoint.from_temperature(SYM, float(t)) for t in rmap.temperatures]
    with pytest.raises(QuadratureConvergenceError) as info:
        tensors_thermodynamic(points, grid, elements=[("c", P.JZ, P.JZ), ("nc", P.JZ, P.JZ)])
    for i, member in enumerate(info.value.members[:7]):
        r = member.element("classical", P.JZ, P.JZ) / member.element("nonclassical", P.JZ, P.JZ)
        assert np.all(rmap.grid[i] == r)


def test_ratio_map_failed_columns_leave_the_others_alone():
    # a trajectory that raises ValueError fails every cell of its column
    # with its reason; at jx = jy = 0 every theta_a vanishes, so nc:jz-jz
    # is exactly 0 and the ratio is refused
    grid = GridSpec(base_n=32, target_rel_tol=1e-4, max_doublings=2, refine_levels=1)
    jz = np.linspace(0.6, 0.66, 8)

    def trajectory(u):
        if u == jz[2]:
            raise ValueError("no coupling at this jz")
        if u == jz[5]:
            return Couplings(0.0, 0.0, u)
        return figure_of_merit_trajectory(u)

    rmap = ratio_map(trajectory, (0.6, 0.66), (0.5, 1.0), 8, grid=grid, threads=2)
    plain = ratio_map(figure_of_merit_trajectory, (0.6, 0.66), (0.5, 1.0), 8, grid=grid,
                      threads=2)
    reasons = dict(rmap.failures)
    assert sorted(reasons) == sorted((i, j) for i in range(8) for j in (2, 5))
    for i in range(8):
        assert reasons[i, 2] == "no coupling at this jz"
        assert reasons[i, 5] == "nonclassical element vanished"
    # every cell converged: the failed ones have no ratio, by input
    assert rmap.unconverged == ()
    assert np.all(rmap.grid[:, [2, 5]] == 0.0)
    kept = [j for j in range(8) if j not in (2, 5)]
    assert np.array_equal(rmap.grid[:, kept], plain.grid[:, kept])
    assert np.all(plain.grid > 0.0)


def test_ratio_map_validation():
    with pytest.raises(ValueError):
        ratio_map(figure_of_merit_trajectory, (0.48, 0.52), (0.002, 0.05), 4)
    with pytest.raises(ValueError):
        ratio_map(figure_of_merit_trajectory, (0.52, 0.48), (0.002, 0.05), 8)


# ---------------------------------------------------------------------------
# the piecewise thermal-ratio device


def test_piecewise_ratio_approximation_consistency():
    """Replacing tanh^2(lam beta / 2) by the piecewise profile
    min(1, (p/T)^2) around the dispersion zeros changes the fitted
    logarithmic slope by less than 10% at the symmetric gapless point."""
    from kitaev_bures.spectrum import spectral_arrays, wrap_angle

    j = Couplings(1 / 3, 1 / 3, 1 / 3)
    zeros = dirac_points(j)
    grid = GridSpec(base_n=128, target_rel_tol=1e-6, max_doublings=3)

    def value(temp, piecewise):
        beta = 1.0 / temp

        def f(px, py):
            fields = spectral_arrays(px, py, j)
            if piecewise:
                dist = np.full(np.shape(fields.lam), np.inf)
                for z in zeros:
                    dz = np.hypot(wrap_angle(px - z.px), wrap_angle(py - z.py))
                    dist = np.minimum(dist, dz)
                ratio = np.minimum(1.0, (dist / temp) ** 2)
            else:
                ratio = np.tanh(0.5 * beta * fields.lam) ** 2
            lam4 = fields.lam**4
            with np.errstate(divide="ignore", invalid="ignore"):
                v = ratio * fields.theta_z**2 / lam4
            return np.where(lam4 > 0, v, 0.0)

        # one disk at K stands for the +-K pair
        disk = ((zeros[0].px, zeros[0].py), None)
        res = integrate_bz_refined(f, disk, temp / 100.0, grid, radius=max(8.0 * temp, 0.3))
        return float(res.value) / (32 * math.pi**2)

    temps = np.geomspace(1e-3, 1e-2, 6)
    slope = {}
    for piecewise in (False, True):
        vals = np.array([value(t, piecewise) for t in temps])
        fit = fit_log_divergence(np.stack([temps, vals], axis=1))
        slope[piecewise] = fit.model.a
    assert slope[True] == pytest.approx(slope[False], rel=0.10)
