import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charpolylab.hyperbolic import (branch_profile_grid, hyp_dist, joukowsky,
                                    pseudo_dist, ray_point)
from oracles import branch_profile, branch_profile_row, mobius_to_zero


def random_disk_points(rng, n, rmax=0.95):
    r = rmax * np.sqrt(rng.random(n))
    th = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * th)


def test_hyp_dist_coincident():
    assert hyp_dist(0.0, 0.0) == 0.0


def test_hyp_dist_closed_form():
    assert hyp_dist(0.0, 0.5) == pytest.approx(math.log(3.0), abs=1e-15)


def test_hyp_dist_symmetry_and_triangle(rng):
    a, b, c = random_disk_points(rng, 3)
    assert hyp_dist(a, b) == pytest.approx(hyp_dist(b, a), abs=1e-14)
    assert hyp_dist(a, c) <= hyp_dist(a, b) + hyp_dist(b, c) + 1e-12


def test_hyp_dist_domain_error():
    with pytest.raises(ValueError):
        hyp_dist(1.0, 0.0)
    with pytest.raises(ValueError):
        hyp_dist(np.array([0.5, 0.2j]), np.array([[0.1], [1.0j]]))


def test_isometry_invariance(rng):
    pts = random_disk_points(rng, 3000).reshape(1000, 3)
    worst = 0.0
    for a, b, y in pts:
        d1 = hyp_dist(mobius_to_zero(y, a), mobius_to_zero(y, b))
        worst = max(worst, abs(d1 - hyp_dist(a, b)))
    assert worst < 1e-10


def test_pseudo_dist_examples():
    assert pseudo_dist(0.0, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert pseudo_dist(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)


_disk_point = st.builds(lambda r, t: r * np.exp(1j * t),
                        st.floats(0.0, 0.999), st.floats(-math.pi, math.pi))


@settings(max_examples=200, deadline=None)
@given(a=_disk_point, b=_disk_point, c=_disk_point, y=_disk_point)
def test_pseudo_dist_metric_property(a, b, c, y):
    d_ab = pseudo_dist(a, b)
    assert 0.0 <= d_ab < 1.0
    assert pseudo_dist(a, a) == 0.0
    assert d_ab == pytest.approx(pseudo_dist(b, a), rel=1e-12, abs=1e-15)
    assert pseudo_dist(a, c) <= d_ab + pseudo_dist(b, c) + 1e-12
    # disk automorphisms are isometries
    assert pseudo_dist(mobius_to_zero(y, a), mobius_to_zero(y, b)) == \
        pytest.approx(d_ab, rel=1e-9, abs=1e-12)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


_near_circle = st.builds(lambda k, t: (1.0 - k * 2.0 ** -53) * cmath.exp(1j * t),
                         st.integers(1, 8), st.floats(-math.pi, math.pi))
_pair = st.one_of(
    st.tuples(st.one_of(_disk_point, _near_circle, st.just(0j)),
              st.one_of(_disk_point, _near_circle)),
    # two points within a few ulps of the circle and of each other
    st.builds(lambda z, t: (z, z * cmath.exp(1j * t)), _near_circle,
              st.floats(-1e-13, 1e-13)))


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(_pair, min_size=1, max_size=6))
def test_hyp_dist_array_is_the_scalar_formula(pairs):
    # each entry of the broadcast hyp_dist is 2 atanh(pseudo_dist) bit for
    # bit, with the pairs (a, a) and (0, b) added; where the scalar formula
    # raises (a point rounded onto the circle, a distance rounded to 1, or
    # a denominator rounded to 0), an array holding that pair raises too
    pairs = pairs + [(a, a) for a, _ in pairs] + [(0j, b) for _, b in pairs]
    ok = []
    for a, b in pairs:
        try:
            ok.append((a, b, 2.0 * math.atanh(pseudo_dist(a, b))))
        except (ValueError, ZeroDivisionError):
            with pytest.raises((ValueError, ArithmeticError)):
                hyp_dist(np.array([0j, a]), np.array([0j, b]))
    if ok:
        a, b, ref = (np.array(col) for col in zip(*ok))
        assert _bits(hyp_dist(a, b)) == _bits(ref)
        at_zero = a == 0
        assert _bits(hyp_dist(0.0, b[at_zero])) == _bits(ref[at_zero])
        # matching_subset_sup evaluates each pair of its log-distance
        # tables once and mirrors it
        assert all(pseudo_dist(x, y) == pseudo_dist(y, x) for x, y, _ in ok)


def test_pseudo_equals_tanh_half_hyp(rng):
    for a, b in random_disk_points(rng, 400).reshape(200, 2):
        assert pseudo_dist(a, b) == pytest.approx(
            math.tanh(hyp_dist(a, b) / 2.0), abs=1e-12)


def test_mobius_fixed_point_and_identity(rng):
    y = 0.3 + 0.2j
    assert mobius_to_zero(y, y) == pytest.approx(0.0, abs=1e-16)
    z = 0.1 - 0.6j
    assert mobius_to_zero(0.0, z) == z


def test_mobius_preserves_disk(rng):
    for y, z in random_disk_points(rng, 2000).reshape(1000, 2):
        assert abs(mobius_to_zero(y, z)) < 1.0


def test_joukowsky_values():
    assert joukowsky(1j) == pytest.approx(0.0, abs=1e-16)
    assert joukowsky(np.exp(1j * math.pi / 3)).real == pytest.approx(0.5, abs=1e-15)
    assert abs(joukowsky(np.exp(1j * math.pi / 3)).imag) < 1e-15
    with pytest.raises(ValueError):
        joukowsky(0.0)


def test_joukowsky_distance_identity(rng):
    pts = random_disk_points(rng, 2000).reshape(1000, 2)
    for z, w in pts:
        if z == 0 or w == 0 or z == w:
            continue
        lhs = abs(joukowsky(z) - joukowsky(w))
        rhs = abs(z - w) * abs(1.0 - z * w) / (2.0 * abs(z * w))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_ray_points():
    assert ray_point(0) == 0.0
    assert ray_point(1) == pytest.approx(math.tanh(0.5), abs=1e-15)
    assert hyp_dist(ray_point(3), ray_point(7)) == pytest.approx(4.0, abs=1e-12)


def test_ray_spacing_sweep():
    # double precision caps the accuracy of zeta_j = tanh(j/2) at an absolute
    # error of ulp(1)/2 = 2^-53, i.e. a distance error floor ~ 2^-53 e^max(i,j);
    # zeta_39 rounds onto the unit circle, so the sweep stops at 37
    pts = [ray_point(j) for j in range(38)]
    for i in range(38):
        for j in range(38):
            floor = 2.0 ** -53 * math.exp(max(i, j))
            err = abs(hyp_dist(pts[i], pts[j]) - abs(i - j))
            assert err < max(1e-10, 2.0 * floor)


def test_branch_profile_antipodal():
    rec = branch_profile(10, 10, math.pi)
    assert rec["exact"] == pytest.approx(20.0, abs=1e-9)
    assert rec["approx"] == pytest.approx(20.0, abs=1e-12)
    assert rec["error"] == pytest.approx(0.0, abs=1e-9)


def test_branch_profile_same_ray():
    for h, j in [(5, 9), (12, 3), (7, 7)]:
        rec = branch_profile(h, j, 0.0)
        assert rec["exact"] == pytest.approx(abs(h - j), abs=1e-9)
        assert rec["error"] == pytest.approx(0.0, abs=1e-9)


def test_branch_profile_bounds_coarse():
    thetas = np.linspace(-math.pi, math.pi, 801)[1:-1]
    worst = 0.0
    worst_c = 0.0
    for h in range(0, 26, 5):
        for j in range(0, 26, 5):
            errors, refined = branch_profile_grid(h, j, thetas)
            worst = max(worst, float(np.abs(errors).max()))
            worst_c = max(worst_c, float(refined.max()))
    assert worst <= 1.0
    assert worst_c <= 10.0


def test_branch_profile_grid_matches_scalar(rng):
    thetas = rng.uniform(-math.pi, math.pi, 8)
    errors, _ = branch_profile_grid(4, 9, thetas)
    for th, err in zip(thetas, errors):
        assert branch_profile(4, 9, th)["error"] == pytest.approx(err, abs=1e-12)


def test_branch_profile_bound_stable_across_grids():
    def sweep(npts):
        thetas = np.linspace(-math.pi, math.pi, npts)[1:-1]
        return max(float(np.abs(branch_profile_grid(h, j, thetas)[0]).max())
                   for h in range(0, 26, 3) for j in range(0, 26, 3))

    coarse, fine = sweep(2001), sweep(4001)
    assert abs(fine - coarse) <= 0.1 * max(coarse, 0.1)


def test_branch_profile_grid_row_blocks_match_pairs():
    # branch-verify's sweep: one block call per h over j >= h, read for all
    # 676 pairs through the (h, j) symmetry; the pair calls and the blocks
    # both match the per-pair scalar reference bit for bit
    thetas = np.linspace(-math.pi, math.pi, 10001)[1:-1]
    blocks = [branch_profile_grid(h, np.arange(h, 26), thetas) for h in range(26)]
    for h in range(26):
        assert blocks[h][0].shape == blocks[h][1].shape == (26 - h, len(thetas))
        for j in range(26):
            lo, hi = min(h, j), max(h, j)
            ref_errors, ref_refined = branch_profile_row(h, j, thetas)
            errors, refined = branch_profile_grid(h, j, thetas)
            assert _bits(errors) == _bits(ref_errors), (h, j)
            assert _bits(refined) == _bits(ref_refined), (h, j)
            assert _bits(blocks[lo][0][hi - lo]) == _bits(ref_errors), (h, j)
            assert _bits(blocks[lo][1][hi - lo]) == _bits(ref_refined), (h, j)


_depth = st.floats(0.0, 30.0, allow_subnormal=False)


@settings(max_examples=100, deadline=None)
@given(h=_depth, j=_depth)
def test_branch_profile_grid_symmetric_in_h_and_j(h, j):
    thetas = np.linspace(-math.pi, math.pi, 2001)[1:-1]
    for a, b in zip(branch_profile_grid(h, j, thetas), branch_profile_grid(j, h, thetas)):
        assert _bits(a) == _bits(b)
    # a column of h against scalar j gives the per-pair rows too
    errors, refined = branch_profile_grid([h, j], j, thetas)
    for row, a in enumerate((h, j)):
        e1, r1 = branch_profile_grid(a, j, thetas)
        assert _bits(errors[row]) == _bits(e1) and _bits(refined[row]) == _bits(r1)
