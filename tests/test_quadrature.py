import math
import tracemalloc

import numpy as np
import pytest

from helpers import full_zone_reference
from kitaev_bures.quadrature import (
    GridSpec,
    compensated_sum,
    integrate_bz,
    integrate_bz_refined,
)

FOUR_PI_SQ = 4 * math.pi**2
TIGHT = GridSpec(base_n=64, target_rel_tol=1e-13, max_doublings=5)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(base_n=8)
    with pytest.raises(ValueError):
        GridSpec(refine_radius_factor=0.0)
    with pytest.raises(ValueError):
        GridSpec(target_rel_tol=-1.0)


def test_constant_integrand():
    res = integrate_bz(lambda px, py: np.ones_like(px + py), TIGHT)
    assert res.converged
    assert res.value == pytest.approx(FOUR_PI_SQ, rel=1e-15)


def test_sin_squared():
    res = integrate_bz(lambda px, py: np.sin(px) ** 2 + 0 * py, TIGHT)
    assert res.value == pytest.approx(2 * math.pi**2, rel=1e-14)


def test_cos_cos_orthogonality():
    res = integrate_bz(lambda px, py: np.cos(px) * np.cos(py), TIGHT)
    assert abs(res.value) < 1e-14


def test_trig_polynomial_exactness():
    # e^{i k p} integrates exactly for |k| below the grid bandwidth
    grid = GridSpec(base_n=32, target_rel_tol=1e-13, max_doublings=1)
    for kx, ky in ((1, 0), (7, 5), (15, 15), (31, 2)):
        res = integrate_bz(
            lambda px, py, kx=kx, ky=ky: np.cos(kx * px) * np.cos(ky * py) + 2.0, grid
        )
        assert res.value == pytest.approx(2.0 * FOUR_PI_SQ, abs=5e-12)


def test_vector_valued_integrand():
    def f(px, py):
        return np.stack([np.ones_like(px + py), np.sin(px) ** 2 + 0 * py])

    res = integrate_bz(f, TIGHT)
    assert res.value.shape == (2,)
    assert res.value[0] == pytest.approx(FOUR_PI_SQ, rel=1e-14)
    assert res.value[1] == pytest.approx(2 * math.pi**2, rel=1e-14)


def test_refined_noop_without_singular_points():
    f = lambda px, py: np.exp(np.cos(px)) * np.cos(py) ** 2
    plain = integrate_bz(f, TIGHT)
    ref = integrate_bz_refined(f, [], 0.1, TIGHT)
    assert ref.value == plain.value  # identical code path, bit-identical


@pytest.mark.parametrize("width", [0.05, 0.2])
def test_refined_matches_plain_on_smooth_integrands(width):
    f = lambda px, py: np.exp(np.cos(px) + 0.5 * np.sin(px) * np.sin(py))
    plain = integrate_bz(f, TIGHT)
    ref = integrate_bz_refined(f, [(0.3, -1.1), (-2.0, 2.0)], width, TIGHT)
    assert ref.converged
    assert abs(ref.value - plain.value) / abs(plain.value) < 1e-12


def test_refined_near_singular_peak():
    # integrable peak of width 1e-3: the base rule alone cannot resolve it,
    # and the refinement disk must cover the whole 1/r^2 shoulder (radius
    # factor sized so factor * width stays O(0.3))
    w2 = 1e-6
    f = lambda px, py: 1.0 / (px**2 + py**2 + w2)

    def spec(levels):
        return GridSpec(
            base_n=128,
            target_rel_tol=1e-7,
            max_doublings=4,
            refine_levels=levels,
            refine_radius_factor=300.0,
        )

    exact_ref = integrate_bz_refined(f, [(0.0, 0.0)], 1e-3, spec(2))
    coarse = integrate_bz(f, GridSpec(base_n=128, target_rel_tol=1e-10, max_doublings=2))
    assert exact_ref.converged
    assert not coarse.converged
    # self-consistency across refinement levels
    for levels in (3, 4):
        finer = integrate_bz_refined(f, [(0.0, 0.0)], 1e-3, spec(levels))
        assert exact_ref.value == pytest.approx(finer.value, rel=1e-9)


def _peak_ladder(tol):
    # the integrand and refinement of test_refined_near_singular_peak: one
    # corner disk of radius 300 * 1e-3 = 0.3 and r_min = 1e-3 / 100
    f = lambda px, py: 1.0 / (px**2 + py**2 + 1e-6)
    grid = GridSpec(
        base_n=128, target_rel_tol=tol, max_doublings=4, refine_radius_factor=300.0
    )
    return f, grid, integrate_bz_refined(f, [(0.0, 0.0)], 1e-3, grid)


def _fixed_pair(f, grid):
    # the disk pair (refine_levels, refine_levels + 1) on the masked base
    # rule, assembled from the module's own pieces
    from kitaev_bures.quadrature import _bump, _corner_dist, _disk_integral

    radius, r_min = 0.3, 1e-5
    base = integrate_bz(
        lambda px, py: f(px, py) * (1.0 - _bump(_corner_dist(px, py, 0.0, 0.0), radius)),
        grid,
    )
    level = grid.refine_levels
    lo, n_lo = _disk_integral(f, (0.0, 0.0), radius, r_min, grid, level, None, True)
    hi, n_hi = _disk_integral(f, (0.0, 0.0), radius, r_min, grid, level + 1, None, True)
    return (
        base.value + 2.0 * hi,
        base.error_estimate + 2.0 * np.abs(hi - lo),
        base.evaluations + n_lo + n_hi,
    )


def test_disk_ladder_that_misses_gives_the_fixed_pair():
    # the base error alone exceeds 1e-9 of the value, so the early pair
    # (2, 3) misses its share and the disk climbs to (3, 4)
    f, grid, res = _peak_ladder(1e-9)
    value, err, evaluations = _fixed_pair(f, grid)
    assert not res.converged
    assert res.value == value and res.error_estimate == err
    assert res.evaluations > evaluations  # level 2 was evaluated as well


def test_disk_ladder_stops_early_within_its_error():
    f, grid, res = _peak_ladder(1e-7)
    value, err, evaluations = _fixed_pair(f, grid)
    assert res.converged
    assert res.evaluations < evaluations
    assert abs(res.value - value) <= res.error_estimate


def test_error_estimates_conservative(rng):
    # on smooth integrands, |I(n) - I(2n)| must bound the true error of the
    # returned value (vs a much finer reference) in at least 95% of trials
    wins = 0
    trials = 40
    for _ in range(trials):
        k1, k2 = rng.integers(1, 6, size=2)
        a, b, c = rng.normal(size=3)

        def f(px, py, k1=k1, k2=k2, a=a, b=b, c=c):
            return np.exp(a * np.cos(k1 * px) + b * np.sin(k1 * px) * np.sin(k2 * py)) + c

        res = integrate_bz(f, GridSpec(base_n=16, target_rel_tol=1e-8, max_doublings=2))
        ref = integrate_bz(f, GridSpec(base_n=256, target_rel_tol=1e-13, max_doublings=2))
        true_err = abs(res.value - ref.value)
        if true_err <= max(res.error_estimate, 1e-14 * abs(ref.value)):
            wins += 1
    assert wins >= int(0.95 * trials)


def test_nonconvergence_reported():
    # a sharp peak and its mirror image
    f = lambda px, py: 1.0 / ((px - 0.37) ** 2 + (py + 0.91) ** 2 + 1e-10) + 1.0 / (
        (px + 0.37) ** 2 + (py - 0.91) ** 2 + 1e-10
    )
    res = integrate_bz(f, GridSpec(base_n=16, target_rel_tol=1e-10, max_doublings=2))
    assert not res.converged


def test_deterministic_repeatability():
    f = lambda px, py: np.exp(np.cos(3 * px) - np.sin(px) * np.sin(2 * py))
    g = GridSpec(base_n=32, target_rel_tol=1e-10, max_doublings=3)
    a = integrate_bz(f, g)
    b = integrate_bz(f, g)
    assert a.value == b.value and a.error_estimate == b.error_estimate
    ra = integrate_bz_refined(f, [(0.5, 0.5)], 0.1, g)
    rb = integrate_bz_refined(f, [(0.5, 0.5)], 0.1, g)
    assert ra.value == rb.value


def test_compensated_sum_matches_fsum(rng):
    vals = rng.normal(size=200_001) * np.exp(rng.uniform(-20, 20, size=200_001))
    assert compensated_sum(vals) == pytest.approx(math.fsum(vals.tolist()), rel=1e-15)
    assert compensated_sum(np.array([])) == 0.0


def test_singular_point_dedup_and_momentum_objects():
    from kitaev_bures.spectrum import Momentum

    f = lambda px, py: np.exp(np.cos(px) + 0.5 * np.sin(px) * np.sin(py))
    plain = integrate_bz(f, TIGHT)
    # duplicated points (one wrapped by 2 pi) collapse to a single disk
    ref = integrate_bz_refined(
        f, [Momentum(0.3, -1.1), (0.3 + 2 * math.pi, -1.1)], 0.1, TIGHT
    )
    assert abs(ref.value - plain.value) / abs(plain.value) < 1e-12


def test_batched_integrals_match_standalone_bit_for_bit():
    # leading axes before the component axis index independent integrals:
    # each keeps the value, error and flag it gets alone on the same nodes,
    # although the smooth one converges doublings before the sharp one
    smooth = lambda px, py: np.stack(
        [np.exp(np.cos(px)) + 0 * py, 0.5 + np.sin(py) ** 2 + 0 * px]
    )
    sharp = lambda px, py: np.stack(
        [1.0 / (1.05 - np.cos(px) * np.cos(py)), np.cos(px) ** 2 + 0 * py]
    )
    batch = lambda px, py: np.stack([smooth(px, py), sharp(px, py)])
    grid = GridSpec(base_n=16, target_rel_tol=1e-10, max_doublings=4)
    res = integrate_bz(batch, grid)
    assert res.value.shape == (2, 2) and res.converged.shape == (2,)
    for k, f in enumerate((smooth, sharp)):
        alone = integrate_bz(f, grid)
        assert np.array_equal(res.value[k], alone.value)
        assert np.array_equal(res.error_estimate[k], alone.error_estimate)
        assert res.converged[k] == alone.converged
    assert res.evaluations == integrate_bz(sharp, grid).evaluations
    assert res.evaluations > integrate_bz(smooth, grid).evaluations
    # a tolerance only the smooth integral meets fails the sharp one alone
    tight = GridSpec(base_n=16, target_rel_tol=1e-12, max_doublings=1)
    mixed = integrate_bz(batch, tight)
    assert mixed.converged.tolist() == [True, False]
    # the refined rule judges each integral against its own largest component
    refined = integrate_bz_refined(batch, [(0.0, 0.0)], 0.05, grid)
    for k, f in enumerate((smooth, sharp)):
        alone = integrate_bz_refined(f, [(0.0, 0.0)], 0.05, grid)
        assert np.array_equal(refined.value[k], alone.value)
        assert refined.converged[k] == alone.converged


@pytest.mark.parametrize(
    "axis, level, blocks",
    [(0.4, 4, 3), (0.4, 3, 1), (None, 1, 1)],
)
def test_blocked_disk_sum_equals_compensated_sum(axis, level, blocks):
    from kitaev_bures.quadrature import (
        _BLOCK_VALUES,
        _SUM_CHUNK,
        _disk_integral,
        _disk_nodes,
        _needle_disk_nodes,
    )

    grid = GridSpec(angular_base=8 if axis is None else 64)
    center, radius, r_min = (0.3, -1.2), 0.3, 1e-5
    if axis is None:
        px, py, wt = _disk_nodes(center, radius, r_min, grid, level)
        assert px.size < _SUM_CHUNK
    else:
        px, py, wt = _needle_disk_nodes(center, axis, radius, r_min, grid, level)
        assert px.size > _SUM_CHUNK
    # two values per node: a block holds the whole sum chunks that fit in
    # the value budget
    block_nodes = _SUM_CHUNK * (_BLOCK_VALUES // (2 * _SUM_CHUNK))
    assert -(-px.size // block_nodes) == blocks

    def f(qx, qy):
        return np.stack(
            [np.exp(np.cos(qx) - np.sin(qx) * np.sin(qy)), 1.0 / (1.0 + qx * qx + qy * qy)]
        )

    got, n = _disk_integral(f, center, radius, r_min, grid, level, axis)
    vals = f(px, py)  # the whole disk at once
    assert n == px.size
    for c in range(2):
        assert got[c] == compensated_sum(vals[c] * wt)


def test_block_memory_does_not_grow_with_the_stack():
    # 16 stacked integrals on a 2048-point grid: 128-row blocks would hold
    # 128 * 2048 * 16 values (32 MiB per array); the value budget keeps a
    # block at 2 * 128 * 2048 values (4 MiB) whatever the stack
    ks = np.arange(1, 17)[:, None, None]

    def f(px, py):
        return np.cos(ks * px) * np.cos(py) + 2.0

    grid = GridSpec(base_n=1024, max_doublings=1, target_rel_tol=1e-10)
    tracemalloc.start()
    try:
        res = integrate_bz(f, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value.shape == (16,) and res.converged
    assert np.allclose(res.value, 2.0 * FOUR_PI_SQ, rtol=1e-13)
    assert peak < 16 * 2**20


def _even_pair(px, py):
    return np.stack(
        [np.exp(np.cos(px) + 0.5 * np.sin(px) * np.sin(py)), 1.0 / (1.2 - np.cos(px) * np.cos(py))]
    )


def test_odd_integrand_violates_the_contract():
    # the rules evaluate half the zone, so an odd part would be folded away
    # silently; the probe node catches it on every rule
    odd = lambda px, py: np.stack([np.cos(px) + 0 * py, np.sin(px) + 0.1 * np.sin(py)])
    grid = GridSpec(base_n=16, max_doublings=1)
    with pytest.raises(ValueError, match="even under p -> -p"):
        integrate_bz(odd, grid)
    with pytest.raises(ValueError, match="even under p -> -p"):
        integrate_bz_refined(odd, [(0.3, -1.1)], 0.05, grid)
    with pytest.raises(ValueError, match="even under p -> -p"):
        integrate_bz_refined(odd, [(0.0, 0.0)], 0.05, grid)


@pytest.mark.parametrize("base_n", [17, 24])
def test_half_grid_equals_full_grid(base_n):
    # odd and non-power-of-two axes: the self-mirror rows (-pi always, 0 for
    # even n) are picked by index; both levels are checked, the finer through
    # the value and the coarser through the error estimate
    grid = GridSpec(base_n=base_n, max_doublings=1, target_rel_tol=1e-13)
    res = integrate_bz(_even_pair, grid)

    def full(n):
        xs = -math.pi + (2.0 * math.pi / n) * np.arange(n)
        vals = _even_pair(xs[:, None], xs[None, :])
        return np.array([FOUR_PI_SQ * compensated_sum(v) / (n * n) for v in vals])

    fine, coarse = full(2 * base_n), full(base_n)
    # nested doublings: the coarse grid is a subgrid of the fine one, so the
    # nodes evaluated are exactly the fine half grid's
    assert res.evaluations == (base_n + 1) * 2 * base_n
    assert np.max(np.abs(res.value - fine)) <= 1e-14 * np.max(np.abs(fine))
    assert np.max(np.abs(res.error_estimate - np.abs(fine - coarse))) <= 1e-14 * np.max(
        np.abs(fine)
    )


@pytest.mark.parametrize(
    "given, closed, axes",
    [
        ([(math.pi, 0.0)], [(-math.pi, 0.0)], [None]),  # corner, polar half disk
        ([(0.0, 0.0)], [(0.0, 0.0)], [0.4]),  # corner, needle half grid
        ([(0.7, -1.9)], [(0.7, -1.9), (-0.7, 1.9)], [None, None]),  # +-K from K alone
        ([(0.7, -1.9), (-0.7, 1.9)], [(0.7, -1.9), (-0.7, 1.9)], [0.4, 0.4]),
    ],
    ids=["corner-polar", "corner-needle", "pair-closed", "pair-given"],
)
def test_half_disks_equal_full_disks(given, closed, axes):
    # an odd angular base would leave rings without their phi + pi mirrors;
    # the counts are made even, so the half-disk rule stays exact
    grid = GridSpec(
        base_n=32, max_doublings=1, refine_levels=1, angular_base=9, target_rel_tol=1.0
    )
    res = integrate_bz_refined(_even_pair, given, 0.05, grid, axes=axes[: len(given)])
    ref = full_zone_reference(_even_pair, closed, 0.05, grid, axes)
    assert np.max(np.abs(res.value - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_ring_angular_counts_are_even():
    from kitaev_bures.quadrature import _angular_count

    for base, cap in ((9, 8191), (64, 8192), (17, 101)):
        grid = GridSpec(angular_base=base, angular_cap=cap)
        for level in (1, 2, 4):
            for r in (1e-6, 1e-3, 0.1, 0.3):
                assert _angular_count(r, 0.3, grid, level) % 2 == 0
