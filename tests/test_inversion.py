"""Inversion symmetry p -> -p: the premise of the half-zone rules and the
closed-form gap centre they need."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import full_zone_reference
from kitaev_bures.quadrature import GridSpec
from kitaev_bures.spectrum import (
    Couplings,
    Momentum,
    PhaseRegion,
    _gap_minimum,
    classify_phase,
    fermion_gap,
    spectral_arrays,
)
from kitaev_bures.thermal_metric import (
    CLASSICAL_PAIRS,
    NONCLASSICAL_PAIRS,
    ThermoPoint,
    _integrand,
    _minus_sech_sq_ratio,
    _refinement_plan,
    _tanh_sq_ratio,
    tensor_thermodynamic,
)

# gapped, gapless, critical (symmetric and generic) and negative couplings
COUPLINGS = [
    Couplings(0.1, 0.1, 0.8),
    Couplings(1 / 3, 1 / 3, 1 / 3),
    Couplings(0.25, 0.25, 0.5),
    Couplings(0.3, 0.2, 0.5),
    Couplings(0.255, 0.255, 0.49),
    Couplings(-0.3, 0.4, 0.35),
    Couplings(0.6, -0.1, -0.2),
    Couplings(-0.2, -0.25, -0.6),
]

angle = st.floats(-math.pi, math.pi, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    couplings=st.one_of(
        st.sampled_from(COUPLINGS),
        st.builds(Couplings, *[st.floats(-1.0, 1.0, allow_nan=False)] * 3),
    ),
    temperature=st.sampled_from([0.0, 0.002, 0.05, 1.0, 30.0]),
    correction=st.booleans(),
    px=angle,
    py=angle,
)
@example(Couplings(0.25, 0.25, 0.5), 0.0, False, math.pi, -math.pi)
def test_every_integrand_is_even(couplings, temperature, correction, px, py):
    # the premise of every half-zone rule: all 16 components, both kernels
    # (tanh^2 and the -sech^2 correction, which needs T > 0), T = 0 included
    if correction and temperature == 0.0:
        temperature = 0.01
    tp = ThermoPoint.from_temperature(couplings, temperature)
    kernel = _minus_sech_sq_ratio if correction else _tanh_sq_ratio
    f = _integrand([tp], list(CLASSICAL_PAIRS), list(NONCLASSICAL_PAIRS), kernel)
    vals = f(np.array([px, -px]), np.array([py, -py]))[0]
    at_p, at_minus_p = vals[:, 0], vals[:, 1]
    assert np.all(np.abs(at_p - at_minus_p) <= 1e-15 * np.abs(at_p))


def _same(a, b):
    d = (np.subtract(a, b) + math.pi) % (2.0 * math.pi) - math.pi
    return float(np.max(np.abs(d))) < 1e-8


TENSOR_PHASES = [
    (Couplings(0.1, 0.1, 0.8), 0.5),
    (Couplings(1 / 3, 1 / 3, 1 / 3), 0.01),
    (Couplings(0.25, 0.25, 0.5), 0.01),
    (Couplings(0.255, 0.255, 0.49), 0.002),
]


@pytest.mark.parametrize(
    "couplings, temperature", TENSOR_PHASES, ids=["gapped", "gapless", "critical", "near-critical"]
)
def test_refined_tensors_equal_full_zone_reference(couplings, temperature):
    # half grid, one disk per +-K pair and half corner disks against every
    # node of the same rule (one doubling, one disk level: the rule, not its
    # accuracy, is compared, so the tolerance admits any error estimate)
    grid = GridSpec(base_n=64, max_doublings=1, refine_levels=1, target_rel_tol=1.0)
    tp = ThermoPoint.from_temperature(couplings, temperature)
    t = tensor_thermodynamic(tp, grid)
    centres, axes, width, radius = _refinement_plan([tp])
    centres = [(c.px, c.py) for c in centres]
    # the plan's centre set is already closed under p -> -p
    assert all(any(_same((-c[0], -c[1]), q) for q in centres) for c in centres)
    f = _integrand([tp], list(CLASSICAL_PAIRS), list(NONCLASSICAL_PAIRS), _tanh_sq_ratio)
    ref = full_zone_reference(f, centres, width, radius, grid, axes)[0] / (32.0 * math.pi**2)
    got = np.array(
        [t.classical[mu, nu] for mu, nu in CLASSICAL_PAIRS]
        + [t.nonclassical[a, b] for a, b in NONCLASSICAL_PAIRS]
    )
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


GAPPED = [
    Couplings(0.2, 0.25, 0.6),
    Couplings(0.2, -0.25, 0.6),
    Couplings(0.6, 0.2, -0.25),
    Couplings(-0.25, 0.6, 0.2),
    Couplings(-0.2, -0.25, -0.6),
    Couplings(0.1, 0.1, 0.8),
    Couplings(-0.9, 0.3, 0.05),
    Couplings(0.05, -0.7, 0.1),
]

# the critical boundary in every dominant direction, with mixed signs: the
# gap closes at a corner, where lam is 0
CRITICAL = [
    Couplings(0.3, 0.2, 0.5),
    Couplings(-0.3, 0.2, 0.5),
    Couplings(0.5, 0.2, 0.3),
    Couplings(0.2, -0.5, 0.3),
    Couplings(-0.2, 0.3, -0.5),
    Couplings(-0.7, 0.45, -0.25),
]


@pytest.mark.parametrize(
    "couplings", GAPPED + CRITICAL, ids=lambda c: f"{c.jx},{c.jy},{c.jz}"
)
def test_gap_centre_is_the_exact_corner(couplings):
    # lam at the centre is the gap itself (0 on the boundary) and the centre
    # is its own mirror, so closing the centre set adds no second disk that
    # would cap the radius
    region = classify_phase(couplings)
    assert region.is_gapped or region is PhaseRegion.CRITICAL_BOUNDARY
    c = _gap_minimum(couplings)
    assert float(spectral_arrays(c.px, c.py, couplings).lam) == pytest.approx(
        fermion_gap(couplings), abs=1e-12
    )
    assert Momentum(-c.px, -c.py) == c
    if fermion_gap(couplings) < 0.5:  # refined: the plan uses this centre
        centres = _refinement_plan([ThermoPoint(couplings, 100.0)])[0]
        assert centres == [c]
