import contextlib
import functools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import full_zone_reference, load_perfbench
from kitaev_bures.quadrature import (
    GridSpec,
    _zone_axis,
    compensated_sum,
    integrate_bz,
    integrate_bz_refined,
)

FOUR_PI_SQ = 4 * math.pi**2
TIGHT = GridSpec(base_n=64, target_rel_tol=1e-13, max_doublings=5)
# refinement disks (centre, axis): one on the zone corner (0, 0), its own
# mirror, and one at K = (0.3, -1.1), which stands for K and -K
CORNER = ((0.0, 0.0), None)
OFF_CORNER = ((0.3, -1.1), None)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(base_n=8)
    with pytest.raises(ValueError):
        GridSpec(target_rel_tol=-1.0)
    # level 0 is no ladder: the lowest highest pair is (1, 2)
    with pytest.raises(ValueError, match="refine_levels must be >= 1"):
        GridSpec(refine_levels=0)
    with pytest.raises(ValueError, match="max_doublings must be >= 1"):
        GridSpec(max_doublings=0)
    # the disk radius is the caller's, checked where it is used
    with pytest.raises(ValueError, match="radius must be positive"):
        integrate_bz_refined(_even_pair, OFF_CORNER, 5e-4, GridSpec(), radius=0.0)
    # and so is r_min, which must leave the log rule [r_min, radius / 2]
    with pytest.raises(ValueError, match="r_min"):
        integrate_bz_refined(_even_pair, OFF_CORNER, 0.2, GridSpec(), radius=0.4)


def test_constant_integrand():
    res = integrate_bz(lambda px, py: np.ones_like(px + py), TIGHT)
    assert res.converged
    assert res.value == pytest.approx(FOUR_PI_SQ, rel=1e-15)


def test_sin_squared():
    res = integrate_bz(lambda px, py: np.sin(px) ** 2 + 0 * py, TIGHT)
    assert res.value == pytest.approx(2 * math.pi**2, rel=1e-14)


def test_integrand_of_p_x_alone_broadcasts_over_its_block():
    # on band patches px is a (rows, 1) column and py a (1, cols) row, so an
    # integrand of p_x alone returns (rows, 1): the block broadcasts it to
    # (rows, cols), and it integrates as its full-shape twin does
    shapes = []

    def column(px, py):
        shapes.append(np.shape(px))
        return np.sin(px) ** 2

    res = integrate_bz(column, TIGHT)
    twin = integrate_bz(lambda px, py: np.sin(px) ** 2 + 0 * py, TIGHT)
    assert any(len(s) == 2 and s[1] == 1 for s in shapes)
    assert (res.value, res.error_estimate, res.evaluations) == (
        twin.value, twin.error_estimate, twin.evaluations
    )


def test_refined_mask_copies_a_read_only_integrand():
    # the partition mask scales the values near the disk in place: an
    # integrand that returns a read-only broadcast view is copied first, and
    # integrates as its twin that owns its values does
    def view(px, py):
        return np.broadcast_to(np.exp(np.cos(px)), np.broadcast(px, py).shape)

    grid = GridSpec(target_rel_tol=1e-10)
    res = integrate_bz_refined(view, CORNER, 5e-4, grid, radius=1.0)
    twin = integrate_bz_refined(
        lambda px, py: np.exp(np.cos(px)) + 0 * py, CORNER, 5e-4, grid, radius=1.0
    )
    assert res.converged
    assert (res.value, res.evaluations) == (twin.value, twin.evaluations)
    # 4 pi^2 I_0(1)
    i0 = math.fsum(0.25**k / math.factorial(k) ** 2 for k in range(20))
    assert res.value == pytest.approx(FOUR_PI_SQ * i0, rel=1e-10)


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


@pytest.mark.parametrize("width", [0.05, 0.2])
def test_refined_matches_plain_on_smooth_integrands(width):
    # a corner disk and a +-K pair 2.28 apart: radius 8 width, kept below
    # half of that
    f = lambda px, py: np.exp(np.cos(px) + 0.5 * np.sin(px) * np.sin(py))
    plain = integrate_bz(f, TIGHT)
    radius = min(8 * width, 0.95)
    for disk in (CORNER, OFF_CORNER):
        ref = integrate_bz_refined(f, disk, width / 100, TIGHT, radius=radius)
        assert ref.converged
        assert abs(ref.value - plain.value) / abs(plain.value) < 1e-12


def test_refined_near_singular_peak():
    # integrable peak of width 1e-3: the base rule alone cannot resolve it,
    # and the refinement disk must cover the whole 1/r^2 shoulder (radius
    # O(0.3), not a few widths)
    w2 = 1e-6
    f = lambda px, py: 1.0 / (px**2 + py**2 + w2)

    def spec(levels):
        return GridSpec(base_n=128, target_rel_tol=1e-7, max_doublings=4, refine_levels=levels)

    exact_ref = integrate_bz_refined(f, CORNER, 1e-5, spec(2), radius=0.3)
    coarse = integrate_bz(f, GridSpec(base_n=128, target_rel_tol=1e-10, max_doublings=2))
    assert exact_ref.converged
    assert not coarse.converged
    # self-consistency across refinement levels
    for levels in (3, 4):
        finer = integrate_bz_refined(f, CORNER, 1e-5, spec(levels), radius=0.3)
        assert exact_ref.value == pytest.approx(finer.value, rel=1e-9)


def _peak_ladder(tol):
    # the integrand and refinement of test_refined_near_singular_peak: one
    # corner disk of radius 0.3 and r_min = 1e-5
    f = lambda px, py: 1.0 / (px**2 + py**2 + 1e-6)
    grid = GridSpec(base_n=128, target_rel_tol=tol, max_doublings=4)
    return f, grid, integrate_bz_refined(f, CORNER, 1e-5, grid, radius=0.3)


def _fixed_pair(f, grid):
    # the disk pair (refine_levels, refine_levels + 1) on the masked base
    # rule, assembled from the module's own pieces: f is invariant under s
    # and the corner (0, 0) is fixed by it, so the disk is its quarter
    # sector (sector 1) and the masked base grid is quartered too; the mask
    # bumps the distance to the nearer of K and -K, one point at a corner
    from kitaev_bures.quadrature import _bump, _disk_integral, _probe, _ramp_width, _torus_dist

    radius, r_min = 0.3, 1e-5

    def masked(px, py):
        return f(px, py) * (1.0 - _bump(_torus_dist(px, py, 0.0, 0.0), radius))

    masked.feature_width = _ramp_width(radius)
    base = integrate_bz(masked, grid)
    level = grid.refine_levels
    lo, n_lo = _disk_integral(f, _probe(f)[0], (0.0, 0.0), radius, r_min, level, None, True, 1)
    hi, n_hi = _disk_integral(f, _probe(f)[0], (0.0, 0.0), radius, r_min, level + 1, None, True, 1)
    return (
        base.value + 2.0 * hi,
        base.error_estimate + 2.0 * np.abs(hi - lo),
        base.evaluations + n_lo + n_hi,
    )


def test_disk_ladder_that_misses_gives_the_fixed_pair():
    # the base error alone exceeds 1e-9 of the value, so the early pairs
    # (1, 2) and (2, 3) miss their share and the disk climbs to (3, 4)
    f, grid, res = _peak_ladder(1e-9)
    value, err, evaluations = _fixed_pair(f, grid)
    assert not res.converged
    assert res.value == value and res.error_estimate == err
    assert res.evaluations > evaluations  # levels 1 and 2 were evaluated as well


def test_disk_ladder_stops_early_within_its_error():
    f, grid, res = _peak_ladder(1e-7)
    value, err, evaluations = _fixed_pair(f, grid)
    assert res.converged
    assert res.evaluations < evaluations
    assert abs(res.value - value) <= res.error_estimate


def test_error_estimates_conservative(rng):
    # on smooth integrands, the reported error of the finer rung (|I(n) -
    # I(2n)|, times 2 r once the differences contract at a rate r < 1/2)
    # must bound the true error of the returned value (vs a much finer
    # reference) in at least 95% of trials
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


def _sin_power_exact(p):
    # the zone integral of |sin p_x|^p: 2 pi times 2 int_0^pi sin^p
    return 2 * math.pi * 2 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)


@pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("p", [3, 5])
def test_error_of_the_finer_rung_bounds_a_closed_form(p, tol):
    # |sin p_x|^p has a kink of order p at p_x = 0 and pi, so the trapezoid
    # differences contract algebraically, by 2^-(p + 1) per doubling: the
    # reported error 2 r d of the rung kept still bounds its true error
    res = integrate_bz(lambda px, py: np.abs(np.sin(px)) ** p + 0 * py, GridSpec(target_rel_tol=tol))
    assert res.converged
    assert abs(res.value - _sin_power_exact(p)) <= res.error_estimate


def _ladder_means(monkeypatch, f, grid):
    """The result of ``integrate_bz(f, grid)`` and the zone integral of
    each level its doublings reached, finest last."""
    from kitaev_bures import quadrature

    doubled, means = quadrature._doubled_mean, []

    def spy(f, mean, n, invariant):
        out = doubled(f, mean, n, invariant)
        means.append(FOUR_PI_SQ * out[0])
        return out

    monkeypatch.setattr(quadrature, "_doubled_mean", spy)
    res = integrate_bz(f, grid)
    monkeypatch.undo()
    return res, means


def _bessel_i0(a):
    terms, t = [], 1.0
    for k in range(1, 200):
        terms.append(t)
        t *= (a / 2) ** 2 / (k * k)
    return math.fsum(terms)


def test_smooth_ladder_stops_a_doubling_before_the_coarser_rungs_error(monkeypatch):
    # exp(a (cos p_x + cos p_y)) integrates to 4 pi^2 I0(a)^2, and the
    # trapezoid error falls like I_n(a) / I_0(a): at a = 40 the n = 32 and 64
    # rungs miss by 1.7e-5 and 3e-15 of the value.  The difference |cur -
    # prev| certifies n = 64 only on the doubling to 128; the contraction
    # rate certifies it on its own doubling
    a, tol = 40.0, 1e-8
    f = lambda px, py: np.exp(a * (np.cos(px) + np.cos(py)))
    exact = FOUR_PI_SQ * _bessel_i0(a) ** 2
    res, means = _ladder_means(monkeypatch, f, GridSpec(base_n=16, target_rel_tol=tol))
    _, ladder = _ladder_means(monkeypatch, f, GridSpec(base_n=16, target_rel_tol=1e-300))
    old_stop = next(
        k for k in range(1, len(ladder)) if abs(ladder[k] - ladder[k - 1]) <= tol * abs(ladder[k])
    )
    assert res.converged
    assert len(means) <= old_stop  # doublings taken, against old_stop + 1
    assert abs(res.value - exact) <= max(res.error_estimate, 1e-14 * exact)


def _synthetic_ladder(monkeypatch, steps, grid, width=None):
    """``integrate_bz`` of the constant integrand (rounding floor 1e-13 *
    4 pi^2), each doubling's mean replaced by the previous one plus the
    next of ``steps``; the integrand carries ``width`` as its
    feature_width.  Returns the result and the last difference."""
    from kitaev_bures import quadrature

    doubled, means = quadrature._doubled_mean, [1.0]
    steps = iter(steps)

    def spy(f, mean, n, invariant):
        _, nodes, fmax = doubled(f, mean, n, invariant)
        means.append(means[-1] + next(steps))
        return np.float64(means[-1]), nodes, fmax

    def f(px, py):
        return np.ones_like(px + py)

    if width is not None:
        f.feature_width = width
    monkeypatch.setattr(quadrature, "_doubled_mean", spy)
    return integrate_bz(f, grid), FOUR_PI_SQ * abs(means[-1] - means[-2])


@pytest.mark.parametrize(
    "rate, width, factor",
    [(0.6, None, 1.0), (0.25, None, 0.5), (0.25, 2 * math.pi / 256, 0.5), (0.25, math.pi / 256, 1.0)],
    ids=["not-halving", "contracting", "width-resolved", "width-unresolved"],
)
def test_ladder_reports_twice_its_rate_only_where_it_contracts(monkeypatch, rate, width, factor):
    # from n = 16 to 256, successive levels differ by rate^k.  At rate 0.6
    # the differences do not halve, so the last doubling reports its own
    # difference; at rate 1/4 it reports 2 (1/4) of it, unless the
    # integrand's feature_width is finer than the last grid's spacing
    grid = GridSpec(base_n=16, target_rel_tol=1e-300, max_doublings=4)
    res, last = _synthetic_ladder(monkeypatch, [rate**k for k in range(1, 5)], grid, width)
    assert not res.converged
    assert res.error_estimate == pytest.approx(factor * last, rel=1e-12)
    if factor == 1.0:
        assert res.error_estimate == last


def test_error_extrapolated_below_the_rounding_floor_is_no_convergence(monkeypatch):
    # the differences 4 pi^2 1e-3 and 4 pi^2 1e-9 contract at 1e-6, so the
    # second doubling reports 2e-6 of its difference, below the rounding
    # floor; the difference itself is far above it, and the error misses
    # the 1e-15 tolerance, so the integral has not converged
    grid = GridSpec(base_n=16, target_rel_tol=1e-15, max_doublings=2)
    res, last = _synthetic_ladder(monkeypatch, [1e-3, 1e-9], grid)
    assert res.error_estimate < 1e-13 * FOUR_PI_SQ < last
    assert not res.converged


def test_deterministic_repeatability():
    f = lambda px, py: np.exp(np.cos(3 * px) - np.sin(px) * np.sin(2 * py))
    g = GridSpec(base_n=32, target_rel_tol=1e-10, max_doublings=3)
    a = integrate_bz(f, g)
    b = integrate_bz(f, g)
    assert a.value == b.value and a.error_estimate == b.error_estimate
    disk = ((0.5, 0.5), None)
    ra = integrate_bz_refined(f, disk, 1e-3, g, radius=0.7)
    rb = integrate_bz_refined(f, disk, 1e-3, g, radius=0.7)
    assert ra.value == rb.value


def test_compensated_sum_matches_fsum(rng):
    vals = rng.normal(size=200_001) * np.exp(rng.uniform(-20, 20, size=200_001))
    assert compensated_sum(vals) == math.fsum(vals.tolist())
    assert compensated_sum(np.array([])) == 0.0
    # exact at any length: 2^17 ones between +-1e16, which an uncompensated
    # reduction of any chunk holding 1e16 loses
    ones = np.ones(1 << 17)
    ones[0], ones[-1] = 1e16, -1e16
    assert compensated_sum(ones) == (1 << 17) - 2


def _stacked(members):
    """One integrand stacking ``members`` (each with 2 components)."""
    return lambda px, py: np.stack([g(px, py) for g in members])


def _member(k):
    return lambda px, py: np.stack(
        [1.0 / (1.05 + 0.01 * k - np.cos(px) * np.cos(py)), np.exp(np.cos(px + py) / (k + 1.0))]
    )


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
    refined = integrate_bz_refined(batch, CORNER, 5e-4, grid, radius=0.4)
    for k, f in enumerate((smooth, sharp)):
        alone = integrate_bz_refined(f, CORNER, 5e-4, grid, radius=0.4)
        assert np.array_equal(refined.value[k], alone.value)
        assert refined.converged[k] == alone.converged
    # a 1024-point level spans several row blocks, and a stack of 8 gets an
    # eighth of the rows per block that one member gets alone: every
    # weighted row enters one fsum, so the blocking cannot change a bit
    from kitaev_bures.quadrature import _disk_integral

    members = [_member(k) for k in range(8)]
    deep = GridSpec(base_n=512, max_doublings=2, target_rel_tol=1e-14)
    res = integrate_bz(_stacked(members), deep)
    for k, f in enumerate(members):
        alone = integrate_bz(f, deep)
        assert np.array_equal(res.value[k], alone.value)
        assert np.array_equal(res.error_estimate[k], alone.error_estimate)
    # nor on either kind of level-4 disk
    for axis in (None, 0.4):
        stack, n = _disk_integral(_stacked(members), 16, (0.3, -1.2), 0.3, 1e-5, 4, axis)
        alone, n_alone = _disk_integral(members[5], 2, (0.3, -1.2), 0.3, 1e-5, 4, axis)
        assert n == n_alone and np.array_equal(stack[5], alone)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("axis", [None, 0.4], ids=["polar", "needle"])
def test_disk_memory_is_bounded_by_the_block_budget(axis):
    # 24 values per node on a level-4 disk (about 0.6 M needle nodes, or
    # 776 rings of 512 angles): only one block of rows is held at a time,
    # never the disk's nodes or a weighted copy of them
    from kitaev_bures.quadrature import _disk_integral

    def f(px, py):
        vals = np.cos(np.multiply.outer(np.arange(1, 25), px))
        vals *= np.cos(py)
        vals += 2.0
        return vals

    (value, n), peak = _traced_peak(
        lambda: _disk_integral(f, 24, (0.3, -1.2), 0.3, 2e-5, 4, axis)
    )
    assert value.shape == (24,) and n > 300_000
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_block_memory_does_not_grow_with_the_stack():
    # 16 stacked integrals on a 2048-point grid: 128-row blocks would hold
    # 128 * 2048 * 16 values (32 MiB per array); the value budget keeps a
    # block at 2 * 128 * 2048 values (4 MiB) whatever the stack
    ks = np.arange(1, 17)[:, None, None]

    def f(px, py):
        return np.cos(ks * px) * np.cos(py) + 2.0

    grid = GridSpec(base_n=1024, max_doublings=1, target_rel_tol=1e-10)
    res, peak = _traced_peak(lambda: integrate_bz(f, grid))
    assert res.value.shape == (16,) and res.converged
    assert np.allclose(res.value, 2.0 * FOUR_PI_SQ, rtol=1e-13)
    assert peak < 16 * 2**20


def _even_pair(px, py):
    return np.stack(
        [np.exp(np.cos(px) + 0.5 * np.sin(px) * np.sin(py)), 1.0 / (1.2 - np.cos(px) * np.cos(py))]
    )


def _sym_pair(px, py):
    # even, and invariant under p_x <-> p_y bit for bit: sums of two terms
    # and products of two factors do not depend on their order
    return np.stack(
        [
            np.exp((np.cos(px) + np.cos(py)) + 0.5 * (np.sin(px) * np.sin(py))),
            1.0 / (1.2 - np.cos(px) * np.cos(py)),
        ]
    )


def _half_rule(f):
    # f beside an integral that is even but not invariant under p_x <-> p_y:
    # the batch takes the half rule, and each integral keeps the value it
    # would get alone on the same nodes
    return lambda px, py: np.stack([f(px, py), _even_pair(px, py)])


def _full_grid(f, n):
    xs = -math.pi + (2.0 * math.pi / n) * np.arange(n)
    vals = f(xs[:, None], xs[None, :])
    return np.array([FOUR_PI_SQ * compensated_sum(v) / (n * n) for v in vals])


@pytest.mark.parametrize("base_n", [17, 24, 200])
def test_quarter_grid_equals_full_grid(base_n):
    # an integrand invariant under p_x <-> p_y is integrated from one node
    # per orbit of {e, -1, s, -s}; odd, non-power-of-two and multi-band
    # grids give the full grid's value and error at about a quarter of it
    grid = GridSpec(base_n=base_n, max_doublings=1, target_rel_tol=1e-13)
    res = integrate_bz(_sym_pair, grid)
    fine, coarse = _full_grid(_sym_pair, 2 * base_n), _full_grid(_sym_pair, base_n)
    assert np.max(np.abs(res.value - fine)) <= 1e-14 * np.max(np.abs(fine))
    assert np.max(np.abs(res.error_estimate - np.abs(fine - coarse))) <= 1e-14 * np.max(
        np.abs(fine)
    )
    half = integrate_bz(_half_rule(_sym_pair), grid)
    assert half.evaluations == (base_n + 1) * 2 * base_n
    assert res.evaluations <= 0.55 * half.evaluations


def _ridges(px, py):
    # _sym_pair beside three needle-shaped ridges 1 / (W + a + b^2): a
    # vanishes quadratically across a mirror line and b quadratically along
    # it at the ridge's centre, so a ridge is about W^(1/2) wide and W^(1/4)
    # long.  At (0, 0) and (-pi, -pi) the ridge lies on the line of s,
    # p_x = p_y; at +-(0.7, -0.7) on the line of -s, p_x = -p_y.  Even and
    # invariant under s bit for bit (sums of two terms, products of two
    # factors, and a - b = -(b - a) squared), and 2 pi-periodic
    cx, sx, cy, sy = np.cos(px), np.sin(px), np.cos(py), np.sin(py)
    across_s = (sx * cy - cx * sy) ** 2  # sin^2(p_x - p_y)
    across_minus_s = (sx * cy + cx * sy) ** 2  # sin^2(p_x + p_y)
    w, c = 1e-3, cx + cy
    ridges = [
        1.0 / (w + across_s + (2.0 - c) ** 2),
        1.0 / (w + across_s + (2.0 + c) ** 2),
        1.0 / (w + across_minus_s + (c - 2.0 * math.cos(0.7)) ** 4),
    ]
    return np.concatenate([_sym_pair(px, py), np.stack(ridges)])


@functools.lru_cache(maxsize=1)
def _ridges_plain():
    # the ridges' integrals by the plain trapezoid alone, to 1e-12
    res = integrate_bz(_ridges, GridSpec(base_n=256, max_doublings=3, target_rel_tol=1e-13))
    assert res.converged
    return res.value


@pytest.mark.parametrize(
    "disk, closed, ref_axis",
    [
        (((-math.pi, -math.pi), None), [(-math.pi, -math.pi)], None),
        (((-math.pi, -math.pi), 0.3), [(-math.pi, -math.pi)], math.pi / 4),
        (((0.0, 0.0), math.pi / 4), [(0.0, 0.0)], math.pi / 4),
        (((0.0, 0.0), 3 * math.pi / 4), [(0.0, 0.0)], 3 * math.pi / 4),
        (((0.0, 0.0), 0.3), [(0.0, 0.0)], math.pi / 4),
        (((0.7, -0.7), None), [(0.7, -0.7), (-0.7, 0.7)], None),
        (((0.7, -0.7), -math.pi / 4), [(0.7, -0.7), (-0.7, 0.7)], -math.pi / 4),
        (((0.7, -0.7), math.pi / 4), [(0.7, -0.7), (-0.7, 0.7)], math.pi / 4),
        (((0.7, -0.7), 0.3), [(0.7, -0.7), (-0.7, 0.7)], -math.pi / 4),
    ],
    ids=["corner-polar", "far-corner-needle", "corner-needle-along", "corner-needle-across",
         "corner-needle-oblique", "pair-polar", "pair-needle-along", "pair-needle-across",
         "pair-needle-oblique"],
)
def test_quarter_rule_matches_the_full_zone(disk, closed, ref_axis):
    # a corner is fixed by s and -s and integrates a quarter of its disk;
    # K = (a, -a) is fixed by -s and integrates half of its disk.  A needle
    # grid is laid along the mirror line and keeps the half across it: a
    # grid turned by a right angle is the same grid, so a soft axis along
    # or across the line matches its own full disk, and an oblique axis
    # the full disk on the mirror line.  The grid evaluates a quarter of
    # the zone.  The ridges make the disk rule's error depend on its frame:
    # the full disks on axes turned by pi / 8 move the reference by 5e-12
    # of its largest value, 500 times the bound below.  The reference
    # shares the disk rule, so the plain trapezoid checks the disk's nodes:
    # read anywhere but at their points modulo 2 pi, they would miss the
    # ridge the disk covers
    grid = GridSpec(base_n=32, max_doublings=1, refine_levels=1, target_rel_tol=1.0)
    res = integrate_bz_refined(_ridges, disk, 5e-4, grid, radius=0.4)
    ref = full_zone_reference(_ridges, closed, 5e-4, 0.4, grid, [ref_axis] * len(closed))
    assert np.max(np.abs(res.value - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.all(np.abs(res.value - _ridges_plain()) <= res.error_estimate)
    half = integrate_bz_refined(_half_rule(_sym_pair), disk, 5e-4, grid, radius=0.4)
    assert res.evaluations <= 0.55 * half.evaluations


# a +-K pair on the line of -s, p_x = -p_y, so an invariant integrand
# takes the quarter rule there (a centre off both lines is refused); a
# disk of radius 0.4 at it reaches past p_y = pi
ON_MINUS_S = (-2.8, 2.8)


@pytest.mark.parametrize(
    "f, disk",
    [
        (_sym_pair, ((-math.pi, -math.pi), None)),
        (_sym_pair, ((-math.pi, -math.pi), 0.4)),
        (_sym_pair, (ON_MINUS_S, None)),
        (_sym_pair, (ON_MINUS_S, 0.4)),
        (_even_pair, ((-math.pi, -math.pi), None)),
        (_even_pair, ((-math.pi, -math.pi), 0.4)),
        (_even_pair, ((0.3, -1.1), None)),
        (_even_pair, ((0.3, -1.1), 0.4)),
    ],
    ids=[f"{f}-{d}" for f in ("invariant", "even")
         for d in ("corner-polar", "corner-needle", "pair-polar", "pair-needle")],
)
def test_unwrapped_disk_nodes_give_the_wrapped_integral(f, disk):
    # disk nodes reach the integrand unwrapped, up to the radius outside
    # [-pi, pi)^2; for a 2 pi-periodic integrand that is the integral of the
    # same integrand read at the wrapped nodes
    from kitaev_bures.spectrum import wrap_angle

    lowest, farthest = [], []

    def bare(px, py):
        lowest.append(min(np.min(px), np.min(py)))
        farthest.append(max(np.max(np.abs(px)), np.max(np.abs(py))))
        return f(px, py)

    grid = GridSpec(base_n=32, max_doublings=1, refine_levels=1, target_rel_tol=1.0)
    got = integrate_bz_refined(bare, disk, 5e-4, grid, radius=0.4)
    wrapped = integrate_bz_refined(
        lambda px, py: f(wrap_angle(px), wrap_angle(py)), disk, 5e-4, grid, radius=0.4
    )
    if disk[0][0] == -math.pi:
        assert min(lowest) < -math.pi - 0.2
    elif disk[0] == ON_MINUS_S:
        # the half that the sector of -s keeps reaches past p_y = pi
        assert max(farthest) > math.pi + 0.05
    assert got.evaluations == wrapped.evaluations
    assert np.max(np.abs(got.value - wrapped.value)) <= 1e-14 * np.max(np.abs(wrapped.value))


def test_even_integrand_that_is_not_invariant_takes_the_half_rule():
    # the half rule written out: of the n grid the rows k <= -k mod n, of
    # the 2n grid the odd rows and the odd columns of the even rows, each
    # row summed in full and weighted 2 (1 on its own mirror), every row
    # sum in one math.fsum per integral
    n = 24
    res = integrate_bz(_even_pair, GridSpec(base_n=n, max_doublings=1, target_rel_tol=1e-13))

    def row_sums(m, rows, cols):
        xs = -math.pi + (2.0 * math.pi / m) * np.arange(m)
        weights = np.where(rows == (-rows) % m, 1.0, 2.0)
        return _even_pair(xs[rows][:, None], xs[cols][None, :]).sum(axis=-1) * weights

    k, k2 = np.arange(n), np.arange(2 * n)
    rows, rows2 = k[k <= (-k) % n], k2[k2 <= (-k2) % (2 * n)]
    odd = rows2 % 2 == 1
    coarse = np.array([math.fsum(r) for r in row_sums(n, rows, k)]) / float(n * n)
    new = np.concatenate(
        [row_sums(2 * n, rows2[odd], k2), row_sums(2 * n, rows2[~odd], k2[1::2])], axis=-1
    )
    fine = np.array(
        [math.fsum([float(n * n) * c] + r.tolist()) for c, r in zip(coarse, new)]
    ) / float(4 * n * n)
    assert np.array_equal(res.value, FOUR_PI_SQ * fine)
    assert np.array_equal(res.error_estimate, FOUR_PI_SQ * np.abs(fine - coarse))
    assert res.evaluations == rows.size * n + odd.sum() * 2 * n + (~odd).sum() * n


# disk centres fixed by neither s nor -s: a +-K pair off both lines
# p_x = +-p_y, and a corner that s maps onto another corner
UNFIXED = {
    "pair-polar": ((0.3, -1.1), None),
    "pair-needle": ((0.3, -1.1), 0.4),
    "corner": ((-math.pi, 0.0), None),
}


@pytest.mark.parametrize("disk", UNFIXED.values(), ids=UNFIXED.keys())
@pytest.mark.parametrize("traced", [False, True], ids=["bare", "traced"])
def test_integrand_not_invariant_takes_the_half_rule_on_an_unfixed_disk(disk, traced):
    # an integrand that is not invariant under s takes the half rule on
    # any disk; the base rule reads that from the masked integrand's output
    # alone (no legal mask zeroes both probe pairs, see
    # test_no_legal_disk_masks_every_probe_node), so the benchmark's
    # tracer, which wraps it, gets the same bits
    grid = GridSpec(base_n=32, max_doublings=1, refine_levels=1, target_rel_tol=1.0)
    f = _half_rule(_sym_pair)
    with load_perfbench("tracing").Tracer().installed() if traced else contextlib.nullcontext():
        res = integrate_bz_refined(f, disk, 5e-4, grid, radius=0.4)
    bare = integrate_bz_refined(f, disk, 5e-4, grid, radius=0.4)
    assert np.array_equal(res.value, bare.value)
    assert np.array_equal(res.error_estimate, bare.error_estimate)
    assert res.evaluations == bare.evaluations
    (cx, cy), axis = disk
    closed = [(cx, cy)] if cx == -math.pi else [(cx, cy), (-cx, -cy)]
    ref = full_zone_reference(f, closed, 5e-4, 0.4, grid, [axis] * len(closed))
    assert np.max(np.abs(res.value - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("axis", [None, 0.4], ids=["polar", "needle"])
@pytest.mark.parametrize("offset", [math.ulp(2.8), 3e-4], ids=["one-ulp", "below-r_min"])
def test_invariant_integrand_just_off_a_mirror_line_takes_the_half_rule(offset, axis):
    # the Dirac point of a coupling a few ulps off jx = jy lies a few ulps
    # off p_x = -p_y, where its integrand can match f(s p) = f(p) at the
    # probe nodes: s K then misses -K by less than r_min (5e-4), below what
    # the disk resolves, and the disk takes the half rule instead of being
    # refused.  The mask is then not closed under s, so the base rule takes
    # the mean of the masked f at p and s p, whose sum on the zone grid
    # (closed under s) is the masked f's; the quarter rule of the masked f
    # itself missed by 2.4e-5 of the value at the 3e-4 offset
    grid = GridSpec(base_n=32, max_doublings=1, refine_levels=1, target_rel_tol=1.0)
    cx, cy = -2.8, 2.8 + offset
    res = integrate_bz_refined(_sym_pair, ((cx, cy), axis), 5e-4, grid, radius=0.4)
    ref = full_zone_reference(_sym_pair, [(cx, cy), (-cx, -cy)], 5e-4, 0.4, grid, [axis] * 2)
    assert np.max(np.abs(res.value - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_no_legal_disk_masks_every_probe_node():
    # _probe calls f invariant when f(s p) = f(p) bit for bit at both
    # pairs (p0, s p0) and (q0, s q0).  The base rule probes the masked
    # f (1 - w), which is 0 where w is 1, within half the radius of the
    # centre or its mirror: a pair with both nodes there reads equal
    # whatever f is.  No legal disk holds all four nodes, so a pair with a
    # node outside always decides, where f (1 - w) differs as f does.  A
    # legal disk can hold one pair (below), so the premise left is that an
    # f that is not invariant differs at the other pair.  That is generic;
    # a thermal integrand a few ulps off the cut can match there, and is
    # then invariant to within rounding, which is all the quarter rule
    # needs.  A corner's radius is at most
    # pi, so its inner half is at most pi / 2.  A +-K disk's radius is at
    # most half the distance |2K| from K to -K: at every K on a grid of
    # step h some probe node misses the inner half by a slack, and the
    # slack changes by at most 1 + 1/2 per unit move of K (distances are
    # 1-Lipschitz, |2K| / 4 is 1/2-Lipschitz), so a slack above 1.5 h /
    # sqrt(2) at every node of the grid holds for every K
    from kitaev_bures.quadrature import _PROBE, _torus_dist

    (x0, y0), (x1, y1) = _PROBE
    px, py = np.array([x0, y0, x1, y1]), np.array([y0, x0, y1, x1])
    for cx, cy in [(0.0, 0.0), (0.0, -math.pi), (-math.pi, 0.0), (-math.pi, -math.pi)]:
        # the mask's distance, to the nearer of K and -K (the same corner);
        # the nearest miss: (0, 0) at radius pi, q0 0.089 outside
        near = np.minimum(_torus_dist(px, py, cx, cy), _torus_dist(px, py, -cx, -cy))
        assert np.max(near) > 0.5 * math.pi + 0.08
    k = _zone_axis(64)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    near = [_torus_dist(px, py, c[..., None], d[..., None]) for c, d in ((kx, ky), (-kx, -ky))]
    slack = np.max(np.minimum(*near), axis=-1) - 0.25 * _torus_dist(kx, ky, -kx, -ky)
    assert np.min(slack) > 1.5 * (k[1] - k[0]) / math.sqrt(2.0)
    # a +-K disk at (0.89, -0.89) of radius 1 (legal: |2K| = 2.52) holds
    # the pair (p0, s p0), which then reads equal, and leaves q0 outside
    kx, ky = np.array([0.89]), np.array([-0.89])
    near = np.minimum(_torus_dist(px, py, kx, ky), _torus_dist(px, py, -kx, -ky))
    assert 2.0 * 1.0 < _torus_dist(kx[0], ky[0], -kx[0], -ky[0])
    assert np.all(near[:2] < 0.5) and np.all(near[2:] > 0.5)


def _base_integrand(monkeypatch, f, disk, radius):
    # the masked integrand that the refined rule hands its base rule
    import kitaev_bures.quadrature as quadrature

    seen, base_rule = [], quadrature.integrate_bz
    monkeypatch.setattr(
        quadrature, "integrate_bz", lambda g, grid: seen.append(g) or base_rule(g, grid)
    )
    grid = GridSpec(base_n=32, max_doublings=1, refine_levels=1, target_rel_tol=1.0)
    integrate_bz_refined(f, disk, 1e-3, grid, radius=radius)
    return seen[0]


def _even_not_invariant(px, py):
    # even bit for bit, and not invariant under p_x <-> p_y: the half rule
    return 3.0 + np.cos(px) + 2.0 * np.cos(py)


def test_corner_mask_is_even_on_the_seam(monkeypatch):
    # the corner (-pi, 0) lies on the seam p_x = +-pi, which p and -p reach
    # from opposite sides.  The mask bumps the distance to the nearer of K
    # and -K (here the same corner), and -p is as far from K as p is from
    # -K, so the masked integrand is even bit for bit
    masked = _base_integrand(monkeypatch, _even_not_invariant, ((-math.pi, 0.0), None), 0.4)
    rng = np.random.default_rng(5)
    side = rng.uniform(0.0, 0.5, 400)
    px = np.where(np.arange(400) % 2, math.pi - side, side - math.pi)
    py = rng.uniform(-0.5, 0.5, 400)
    m, f = masked(px, py), _even_not_invariant(px, py)
    assert np.array_equal(m, masked(-px, -py))
    # nodes where the mask is 1, where it is 0, and between
    assert np.any(m == 0.0) and np.any(m == f) and np.any((m > 0.0) & (m < f))


def test_pair_mask_is_the_sum_of_two_bumps(monkeypatch):
    # a +-K disk's radius is at most half the distance from K to -K, so
    # the bumps at K and -K have disjoint supports, and the bump of the
    # distance to the nearer one is their sum bit for bit
    from kitaev_bures.quadrature import _bump, _torus_dist

    (cx, cy), radius = (0.3, -1.1), 1.1
    assert 2.0 * radius <= _torus_dist(cx, cy, -cx, -cy)
    masked = _base_integrand(monkeypatch, _even_not_invariant, ((cx, cy), None), radius)
    rng = np.random.default_rng(6)
    px, py = rng.uniform(-math.pi, math.pi, (2, 20000))
    w = _bump(_torus_dist(px, py, cx, cy), radius) + _bump(_torus_dist(px, py, -cx, -cy), radius)
    assert np.array_equal(masked(px, py), _even_not_invariant(px, py) * (1.0 - w))
    assert np.any(w == 1.0) and np.any((w > 0.0) & (w < 1.0))


def test_odd_integrand_violates_the_contract():
    # the rules evaluate half the zone, so an odd part would be folded away
    # silently; the probe node catches it on every rule
    odd = lambda px, py: np.stack([np.cos(px) + 0 * py, np.sin(px) + 0.1 * np.sin(py)])
    grid = GridSpec(base_n=16, max_doublings=1)
    with pytest.raises(ValueError, match="even under p -> -p"):
        integrate_bz(odd, grid)
    with pytest.raises(ValueError, match="even under p -> -p"):
        integrate_bz_refined(odd, OFF_CORNER, 5e-4, grid, radius=0.4)
    with pytest.raises(ValueError, match="even under p -> -p"):
        integrate_bz_refined(odd, CORNER, 5e-4, grid, radius=0.4)


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
    "disk, closed",
    [
        (((-math.pi, 0.0), None), [(-math.pi, 0.0)]),  # corner, polar half disk
        (((0.0, 0.0), 0.4), [(0.0, 0.0)]),  # corner, needle half grid
        (((0.7, -1.9), None), [(0.7, -1.9), (-0.7, 1.9)]),  # +-K, polar
        (((0.7, -1.9), 0.4), [(0.7, -1.9), (-0.7, 1.9)]),  # +-K, needle
    ],
    ids=["corner-polar", "corner-needle", "pair-closed", "pair-needle"],
)
def test_half_disks_equal_full_disks(disk, closed):
    # the half-disk rule keeps the first half of every ring's (even count
    # of) angles, and the rest are their phi + pi mirrors; the disk at K
    # counts once more for -K
    grid = GridSpec(base_n=32, max_doublings=1, refine_levels=1, target_rel_tol=1.0)
    res = integrate_bz_refined(_even_pair, disk, 5e-4, grid, radius=0.4)
    ref = full_zone_reference(_even_pair, closed, 5e-4, 0.4, grid, [disk[1]] * len(closed))
    assert np.max(np.abs(res.value - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the reference shares the disk rule, so a fault common to every disk
    # path passes the check above; the plain trapezoid shares none of it
    # and is exact to rounding on this analytic integrand.  Disks whose
    # nodes are shifted by pi miss it by 1.3e-2 of the largest value, 3 to
    # 25 times the reported error; the disks here miss it by 1.6e-5 to
    # 2.4e-4, within it
    plain = integrate_bz(_even_pair, GridSpec(base_n=128, max_doublings=1, target_rel_tol=1e-13))
    assert np.max(np.abs(res.value - plain.value)) <= np.max(res.error_estimate)


@pytest.mark.parametrize(
    "f, disk, radius, reason",
    [
        (_even_pair, ((0.1, -0.2), None), 0.4, "overlap"),
        (_even_pair, CORNER, 3.5, "overlap"),
        (_even_pair, ((0.3, 0.0), None), 0.4, "overlap"),
        (_even_pair, ((math.pi, 0.0), None), 0.4, "overlap"),
        *((_sym_pair, disk, 0.4, "fixes the disk centre") for disk in UNFIXED.values()),
        (_sym_pair, ((-2.8, 2.8 + 2e-3), None), 0.4, "fixes the disk centre"),
    ],
    ids=["near-own-mirror", "own-image", "off-corner", "unwrapped-corner",
         *(f"unfixed-{name}" for name in UNFIXED), "unfixed-beyond-r_min"],
)
def test_refined_refuses_a_geometry_it_cannot_integrate(f, disk, radius, reason):
    # the geometry is the caller's: a disk closer than twice the radius to
    # its mirror or to its own periodic image is refused, never capped or
    # snapped.  Only a centre in {0, -pi}^2 is its own mirror: (0.3, 0) and
    # the unwrapped corner (pi, 0) stand for a +-K pair 0.6 and 0 apart.
    # An integrand invariant under s has its features at K, s K, -K and
    # -s K, so a disk class {K, -K} that neither s nor -s fixes would leave
    # half of them unrefined: refused, never integrated by the half rule,
    # also where s K misses -K by just more than r_min (2.8e-3 against 1e-3)
    with pytest.raises(ValueError, match=reason):
        integrate_bz_refined(f, disk, 1e-3, GridSpec(), radius=radius)


def test_ring_angular_counts_are_even():
    # every ring of a level holds the same nphi = 64 * 2**(level - 1)
    # angles, a multiple of 4: a half disk keeps exactly half of every
    # ring's angles, and the reflections s and -s map the angle 2 pi k /
    # nphi onto the ring angles +-nphi / 4 - k, so the sectors they leave
    # are made of ring angles (a quarter of the disk at a corner, a half at K)
    from kitaev_bures.quadrature import _polar_disk

    def ones(px, py):
        return np.ones(np.broadcast(px, py).shape)

    for level in (1, 2, 4):
        nphi = 64 * 2 ** max(0, level - 1)
        for r_min in (1e-6, 1e-3):
            full = _polar_disk(ones, (0.0, 0.0), 0.3, r_min, level, False)
            half = _polar_disk(ones, (0.0, 0.0), 0.3, r_min, level, True)
            assert sum(p[1].size for p in full) == 2 * 24 * 2**level + 8
            for (_, _, _, ring), (_, _, _, half_ring) in zip(full, half):
                assert ring.size == nphi and 2 * half_ring.size == nphi
            for own_mirror, sector, part in ((True, 1, 4), (False, -1, 2)):
                folded = _polar_disk(ones, (0.0, 0.0), 0.3, r_min, level, own_mirror, sector)
                for (_, _, w, ring), (g, rings, w_fold, kept) in zip(full, folded):
                    # the kept angles, counted with their weights, are the
                    # disk's part: two on the mirror lines count half
                    assert kept.size == nphi // part + 1
                    scale = g(rings[:1, None], kept[None, :])[0]
                    assert np.sum(scale == 0.5) == 2 and np.sum(scale == 1.0) == kept.size - 2
                    assert scale.sum() == ring.size / part
                    assert np.array_equal(w_fold, 2.0 * w)


@pytest.mark.parametrize("invariant", [False, True], ids=["half", "quarter"])
@pytest.mark.parametrize(
    "n, first_mirror, nested",
    [(64, 0, False), (64, 0, True), (200, 0, True), (101, 100, False)],
    ids=["even", "even-nested", "multi-band-nested", "odd-L"],
)
def test_cached_zone_geometry_is_read_only_and_equals_a_fresh_build(
    n, first_mirror, nested, invariant
):
    # every integral on a grid level shares one index geometry: it must be
    # frozen, so no caller can corrupt the next integral's rule, and equal
    # bit for bit to the geometry built afresh
    from kitaev_bures.quadrature import _zone_geometry, _zone_patches

    cached = _zone_geometry(n, first_mirror, invariant, nested)
    assert _zone_geometry(n, first_mirror, invariant, nested) is cached
    fresh = _zone_geometry.__wrapped__(n, first_mirror, invariant, nested)
    bands, listed = cached
    assert (listed is None) == (not invariant)
    arrays = [a for band in bands for a in band] + list(listed or ())
    fresh_arrays = [a for band in fresh[0] for a in band] + list(fresh[1] or ())
    assert len(arrays) == len(fresh_arrays)
    for a, b in zip(arrays, fresh_arrays):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    # the patches bind these very arrays to the integrand and the axis
    xs = -math.pi + (2.0 * math.pi / n) * np.arange(n)
    patches = _zone_patches(_sym_pair, xs, first_mirror, invariant, nested)
    assert len(patches) == len(bands) + (listed is not None)
    for (_, rows, weights, cols), band in zip(patches, bands):
        assert rows is band[0] and weights is band[1] and cols is band[2]
