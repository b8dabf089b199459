"""Nodal extraction and marching squares: vertex counts, segment measure, saddles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nodalab.grid import GridSample, ResolutionRule, sample_grid
from nodalab.nodal import _corner_reduce, extract_nodal, marching_squares
from nodalab.spectrum import DomainSpec, EigenMode, eval_mode, nodal_measure_exact

from nodal_boxes import sign_change_cells
from translates import cosine_sample

SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)


# --------------------------------------- reference: case-by-case segments

# pattern bit k set = corner k has value >= 0.
# corners: 0=(0,0) 1=(1,0) 2=(1,1) 3=(0,1); edges: 0=bottom 1=right 2=top 3=left.
_MS_CASES = {
    1: [(0, 3)], 14: [(0, 3)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(1, 3)], 12: [(1, 3)],
    6: [(0, 2)], 9: [(0, 2)],
}
_SADDLES = {5, 10}


def axis_pairs(values, axis, periodic):
    """(v0, v1) arrays of edge endpoint values along an axis; periodic axes roll."""
    if periodic:
        return values, np.roll(values, -1, axis=axis)
    lo = [slice(None)] * values.ndim
    hi = [slice(None)] * values.ndim
    lo[axis] = slice(0, values.shape[axis] - 1)
    hi[axis] = slice(1, values.shape[axis])
    return values[tuple(lo)], values[tuple(hi)]


def marching_squares_reference(sample):
    """Segments (s, 2, 2) and their total length, one full-grid scan per case."""
    v = sample.values
    per = sample.periodic
    a, d = axis_pairs(v, 1, per)         # a: (i, j), d: (i, j+1)
    a, b = axis_pairs(a, 0, per)         # b: (i+1, j)
    d, c = axis_pairs(d, 0, per)         # c: (i+1, j+1)
    pattern = (
        (a >= 0).astype(np.int8)
        + 2 * (b >= 0).astype(np.int8)
        + 4 * (c >= 0).astype(np.int8)
        + 8 * (d >= 0).astype(np.int8)
    )
    h0, h1 = sample.h
    segs = []

    def edge_points(ii, jj, edge):
        av, bv, cv, dv = a[ii, jj], b[ii, jj], c[ii, jj], d[ii, jj]
        with np.errstate(divide="ignore", invalid="ignore"):
            if edge == 0:
                t = av / (av - bv)
                return np.stack([(ii + t) * h0, jj * h1], axis=1)
            if edge == 1:
                t = bv / (bv - cv)
                return np.stack([(ii + 1.0) * h0, (jj + t) * h1], axis=1)
            if edge == 2:
                t = dv / (dv - cv)
                return np.stack([(ii + t) * h0, (jj + 1.0) * h1], axis=1)
            t = av / (av - dv)
            return np.stack([ii * h0, (jj + t) * h1], axis=1)

    for pat, pairs in _MS_CASES.items():
        ii, jj = np.nonzero(pattern == pat)
        if ii.size == 0:
            continue
        for e1, e2 in pairs:
            segs.append(np.stack([edge_points(ii, jj, e1), edge_points(ii, jj, e2)], axis=1))
    for pat in _SADDLES:
        ii, jj = np.nonzero(pattern == pat)
        if ii.size == 0:
            continue
        centers = np.stack([(ii + 0.5) * h0, (jj + 0.5) * h1], axis=1)
        plus = eval_mode(sample.mode, centers) >= 0
        # pattern 5 (+ corners on the main diagonal): center + joins them,
        # isolating corners 1 and 3; pattern 10 is the mirror image.
        if pat == 5:
            first = [(0, 1), (2, 3)]
            second = [(0, 3), (1, 2)]
        else:
            first = [(0, 3), (1, 2)]
            second = [(0, 1), (2, 3)]
        for mask, pairs in ((plus, first), (~plus, second)):
            si, sj = ii[mask], jj[mask]
            if si.size == 0:
                continue
            for e1, e2 in pairs:
                segs.append(np.stack([edge_points(si, sj, e1), edge_points(si, sj, e2)], axis=1))
    if not segs:
        return np.empty((0, 2, 2)), 0.0
    segments = np.concatenate(segs, axis=0)
    lengths = np.linalg.norm(segments[:, 1] - segments[:, 0], axis=1)
    return segments, float(lengths.sum())


TORUS2 = DomainSpec.torus((1.0, 1.0))


@st.composite
def contour_samples(draw):
    """Torus modes and zero-index axes, irrational alpha, a Dirichlet box, nodal
    lines on grid nodes, odd-N grids with cell-centre saddles, random values with
    exact zeros."""
    family = draw(st.sampled_from(
        ("torus", "zero_axis", "irrational", "box", "on_grid", "odd_saddle", "random")
    ))
    m = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    ppw = draw(st.sampled_from((4.0, 6.0, 9.0, 16.0)))
    if family == "zero_axis":
        zero = draw(st.integers(0, 1))
        m = tuple(0 if j == zero else m[j] for j in range(2))
    if family in ("torus", "zero_axis"):
        return sample_grid(EigenMode(TORUS2, m), ResolutionRule(ppw))
    if family == "irrational":
        return sample_grid(EigenMode(DomainSpec.torus((1.0, SQRT2)), m), ResolutionRule(ppw))
    if family == "box":
        return sample_grid(EigenMode(DomainSpec.box((1.0, SQRT3)), m), ResolutionRule(ppw))
    if family == "random":
        dom = draw(st.sampled_from((TORUS2, DomainSpec.box((1.0, 1.0)))))
        shape = (draw(st.integers(2, 24)), draw(st.integers(2, 24)))
        h = tuple(L / (n if dom.periodic else n - 1) for L, n in zip(dom.lengths, shape))
        values = draw(arrays(np.float64, shape, elements=st.one_of(
            st.just(0.0), st.sampled_from((-1.0, 1.0)), st.floats(-10.0, 10.0, width=32),
        )))
        return GridSample(EigenMode(dom, m), h, shape, values)
    if family == "on_grid":
        # 2m divides N on both axes: every zero line is a grid line
        n = 8 * math.lcm(*m) * draw(st.integers(1, 2))
    else:
        # odd N: a line l N / (2 m) steps from the seam with l N / m odd lies mid-cell,
        # and two such lines cross at a cell centre
        n = 2 * draw(st.integers(2 * max(m), 24)) + 1
    rule = ResolutionRule(4.0, h_max=2 * math.pi / (n - 0.5), min_points_per_axis=2)
    s = sample_grid(EigenMode(TORUS2, m), rule)
    assert s.shape == (n, n)
    return s


@given(contour_samples())
def test_length_is_bitwise_the_case_by_case_reference(sample):
    assert marching_squares(sample) == marching_squares_reference(sample)[1]


def test_interval_vertices_are_the_zeros():
    k = 10
    mode = EigenMode(DomainSpec.interval(), (k,))
    nod = extract_nodal(sample_grid(mode))
    assert nod.vertices.shape == (k + 1, 1)
    got = np.sort(nod.vertices[:, 0])
    np.testing.assert_allclose(got, np.arange(k + 1) * math.pi / k, atol=1e-12)
    assert nod.vertices.shape[0] > 0


def test_torus_circle_cosine_vertex_count():
    # the translate puts no zero on the seam
    mode = EigenMode(DomainSpec.torus((1.0,)), (1,))
    nod = extract_nodal(cosine_sample(mode, ("cos",), ResolutionRule()))
    assert nod.vertices.shape[0] == 2
    got = np.sort(nod.vertices[:, 0])
    np.testing.assert_allclose(got, [math.pi / 2, 3 * math.pi / 2], atol=5e-3)


def test_segment_measure_matches_exact_torus():
    # segments under-count by O(h) per line crossing (corners get cut at the
    # 4mn crossings), so the error window is one-sided: small deficit, no excess;
    # ppw 47 leaves all but the seam's zero lines off grid
    for m, ppw in [((3, 4), 48.0), ((5, 5), 47.0), ((1, 6), 47.0)]:
        mode = EigenMode(DomainSpec.torus((1.0, 1.0)), m)
        length = marching_squares(sample_grid(mode, ResolutionRule(points_per_wavelength=ppw)))
        exact = nodal_measure_exact(mode)
        rel = (length - exact) / exact
        assert -0.04 < rel < 0.005


def test_segment_measure_deficit_shrinks_with_h():
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (3, 4))
    exact = nodal_measure_exact(mode)
    errs = []
    for ppw in (24.0, 48.0, 96.0):
        length = marching_squares(sample_grid(mode, ResolutionRule(points_per_wavelength=ppw)))
        errs.append(abs(length - exact))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.6 * errs[0]


def test_weighted_torus_segment_measure():
    # alpha = (1, 2): the second axis has period pi and zero spacing pi/(2m)
    mode = EigenMode(DomainSpec.torus((1.0, 2.0)), (2, 3))
    length = marching_squares(sample_grid(mode, ResolutionRule(points_per_wavelength=48.0)))
    exact = nodal_measure_exact(mode)
    assert exact == pytest.approx((2 * 2) * math.pi + (2 * 3) * 2 * math.pi, rel=1e-12)
    rel = (length - exact) / exact
    assert -0.04 < rel < 0.005


def test_on_grid_lines_reconstruct_exactly():
    # one zero-line family, every line exactly on grid, no crossings:
    # each line must be emitted exactly once at full length
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (4, 0))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0, h_max=2 * math.pi / 160))
    assert s.shape == (160, 160)
    length = marching_squares(s)
    exact = nodal_measure_exact(mode)
    assert exact == pytest.approx(8 * 2 * math.pi, rel=1e-12)
    assert abs(length - exact) / exact < 1e-12


def test_on_grid_crossings_stay_close():
    # both families on grid: crossings sit exactly on grid corners, the
    # degenerate cells contribute O(h) length error but nothing is dropped
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (4, 5))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0, h_max=2 * math.pi / 160))
    assert s.shape == (160, 160)
    length = marching_squares(s)
    exact = nodal_measure_exact(mode)
    assert abs(length - exact) / exact < 0.05


def test_saddles_resolved_by_center_sign():
    # odd N leaves the line crossings at (pi, *) off grid: corner signs alternate
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (1, 1))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=4.0, h_max=2 * math.pi / 21))
    assert s.shape == (21, 21)
    v = s.values
    pos = v >= 0
    a = pos
    d = np.roll(pos, -1, axis=1)
    b = np.roll(a, -1, axis=0)
    c = np.roll(d, -1, axis=0)
    pattern = a * 1 + b * 2 + c * 4 + d * 8
    assert np.isin(pattern, (5, 10)).any()
    length = marching_squares(s)
    exact = nodal_measure_exact(mode)
    rel = (length - exact) / exact
    assert -0.06 < rel < 0.005


def test_segment_endpoints_lie_on_nodal_set():
    # ppw 23: zero lines off grid
    mode = EigenMode(DomainSpec.torus((1.0, 1.0)), (2, 3))
    segments, _ = marching_squares_reference(sample_grid(mode, ResolutionRule(points_per_wavelength=23.0)))
    ends = segments.reshape(-1, 2)
    residual = np.abs(eval_mode(mode, ends))
    # linear interpolation of a factor over one grid step: O((m h)^2) residual
    assert residual.max() < 5e-3


def test_cells_flag_every_sign_change():
    # the cells nodal box counting marks, computed from the sample's signs
    mode = EigenMode(DomainSpec.box((1.0, 1.0)), (3, 2))
    s = sample_grid(mode, ResolutionRule(points_per_wavelength=16.0))
    flagged = np.zeros((s.shape[0] - 1, s.shape[1] - 1), dtype=bool)
    flagged[tuple(sign_change_cells(s).T)] = True
    v = s.values
    corners = np.stack([v[:-1, :-1], v[1:, :-1], v[:-1, 1:], v[1:, 1:]])
    has_change = ~((corners > 0).all(axis=0) | (corners < 0).all(axis=0))
    assert np.array_equal(flagged, has_change)


# ------------------------------- references: rolled copies on periodic axes


def corner_reduce_reference(values, periodic, op):
    """Reduction over the cell corners from rolled copies, one axis at a time."""
    out = values
    for axis in range(values.ndim):
        out = op(*axis_pairs(out, axis, periodic))
    return out


def edge_vertices_reference(sample):
    """Exact zeros and edge crossings, the far edge ends taken from rolled copies."""
    v = sample.values.reshape(sample.shape)
    n = sample.n
    chunks = []
    zero_idx = np.nonzero(v == 0.0)
    if zero_idx[0].size:
        chunks.append(np.stack([zero_idx[j] * sample.h[j] for j in range(n)], axis=1))
    for axis in range(n):
        v0, v1 = axis_pairs(v, axis, sample.periodic)
        idx = np.nonzero(v0 * v1 < 0.0)
        if idx[0].size == 0:
            continue
        t = v0[idx] / (v0[idx] - v1[idx])
        pts = np.stack([idx[j].astype(float) for j in range(n)], axis=1)
        pts[:, axis] += t
        chunks.append(pts * np.asarray(sample.h))
    if not chunks:
        return np.empty((0, n))
    return np.concatenate(chunks, axis=0)


def grid_shapes(low):
    """Shapes of 1 to 3 axes with ``low`` to 7 points each."""
    return st.lists(st.integers(low, 7), min_size=1, max_size=3).map(tuple)


@given(st.data(), grid_shapes(1), st.booleans(), st.booleans())
def test_corner_reduce_is_bitwise_the_rolled_reference(data, shape, periodic, boolean):
    if boolean:
        values, ops = data.draw(arrays(bool, shape)), (np.logical_and, np.logical_or)
    else:
        values, ops = data.draw(arrays(np.float64, shape)), (np.minimum, np.maximum)
    for op in ops:
        got = _corner_reduce(values, periodic, op)
        ref = corner_reduce_reference(values, periodic, op)
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert got.tobytes() == ref.tobytes()


@given(st.data(), grid_shapes(2), st.booleans())
def test_edge_vertices_are_bitwise_the_rolled_reference(data, shape, periodic):
    alpha = (1.0,) * len(shape)
    dom = DomainSpec.torus(alpha) if periodic else DomainSpec.box(alpha)
    h = tuple(L / (n if periodic else n - 1) for L, n in zip(dom.lengths, shape))
    values = data.draw(arrays(np.float64, shape, elements=st.one_of(
        st.just(0.0), st.sampled_from((-1.0, 1.0)), st.floats(-10.0, 10.0, width=32),
    )))
    sample = GridSample(EigenMode(dom, (1,) * len(shape)), h, shape, values)
    got = extract_nodal(sample).vertices
    ref = edge_vertices_reference(sample)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_tiny_opposite_values_cross_though_their_product_rounds_to_zero():
    # 2**-537 * -(2**-538) = -(2**-1075) rounds to -0.0, so a test of v0 * v1 < 0
    # misses this sign change; the sign masks see it
    a, b = 2.0**-537, -(2.0**-538)
    assert a * b == 0.0 and math.copysign(1.0, a * b) == -1.0
    dom = DomainSpec.box((1.0, 1.0))
    h = tuple(dom.lengths)  # two points per axis
    sample = GridSample(EigenMode(dom, (1, 1)), h, (2, 2), np.array([[a, a], [b, b]]))
    assert edge_vertices_reference(sample).shape == (0, 2)
    t = a / (a - b)
    assert 0.0 < t < 1.0
    expect = np.array([[t, 0.0], [t, 1.0]]) * np.asarray(h)
    got = extract_nodal(sample).vertices
    assert got.tobytes() == expect.tobytes()
