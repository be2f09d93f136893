import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from isoflow import (DomainMask, Field, Grid, GridError, Kernel, Medium, SolverConfig,
                     Stencil, convolve_direct, convolve_fft, discretize, integrate,
                     lp_local_distance, lyapunov_F, picard_solve, read_snapshot, run,
                     step_euler, step_exponential, steady_state_nullspace,
                     stencil_second_moment, write_snapshot)
from isoflow import grids
from isoflow.grids import _Operator, masked_exchange_matrix


def brute_convolve_zero_extend(values, stencil):
    # literal loop over nodes and offsets; the oracle for the engine
    out = np.zeros_like(values)
    shape = values.shape
    for idx in np.ndindex(shape):
        acc = 0.0
        for off, w in zip(stencil.offsets, stencil.weights):
            src = tuple(i - int(o) for i, o in zip(idx, off))
            if all(0 <= s < n for s, n in zip(src, shape)):
                acc += w * values[src]
        out[idx] = acc
    return out


class TestGrid:
    def test_origin_is_a_node(self):
        g = Grid(1, 10.0, 201)
        assert g.axis()[g.origin_index[0]] == 0.0
        g2 = Grid(2, 3.0, 21)
        assert g2.radius()[g2.origin_index] == 0.0

    def test_spacing(self):
        assert Grid(1, 1.0, 201).spacing == pytest.approx(0.01)

    def test_rejects_even_or_tiny_m(self):
        with pytest.raises(GridError):
            Grid(1, 1.0, 200)
        with pytest.raises(GridError):
            Grid(1, 1.0, 1)
        with pytest.raises(GridError):
            Grid(3, 1.0, 21)

    @pytest.mark.parametrize("half_extent", [math.nan, math.inf])
    def test_rejects_non_finite_half_extent(self, half_extent):
        with pytest.raises(GridError, match="finite"):
            Grid(1, half_extent, 41)

    @pytest.mark.parametrize("points", [41.7, math.nan, math.inf, -math.inf])
    def test_rejects_non_integral_points_per_axis(self, points):
        with pytest.raises(GridError, match="integer"):
            Grid(1, 1.0, points)

    def test_axis_negation_symmetric(self):
        ax = Grid(1, 7.0, 141).axis()
        assert np.array_equal(ax, -ax[::-1])


class TestField:
    def test_rejects_nan(self):
        g = Grid(1, 1.0, 11)
        vals = np.zeros(11)
        vals[3] = np.nan
        with pytest.raises(GridError):
            Field(g, vals)

    def test_no_copy_of_int_array(self):
        g = Grid(1, 1.0, 5)
        f = Field(g, np.arange(5), copy=False)
        assert f.values.dtype == float
        np.testing.assert_array_equal(f.values, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_shape_mismatch(self):
        with pytest.raises(GridError):
            Field(Grid(1, 1.0, 11), np.zeros(12))

    def test_from_function_2d(self):
        g = Grid(2, 2.0, 21)
        f = Field.from_function(g, lambda x, y: x + 2 * y)
        assert f.values[g.origin_index] == 0.0
        assert f.at_origin() == 0.0


class TestConvolveDirect:
    def test_constant_reproduced_in_interior(self):
        g = Grid(1, 10.0, 401)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        out = convolve_direct(Field.constant(g, 3.7), s)
        hw = int(s.halfwidths[0])
        interior = out.values[hw:-hw]
        np.testing.assert_allclose(interior, 3.7, rtol=1e-13)

    def test_impulse_response_is_stencil(self):
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.uniform_ball(1.0), g.spacing)
        vals = np.zeros(g.shape)
        c = g.origin_index[0]
        vals[c] = 1.0
        out = convolve_direct(Field(g, vals), s)
        for off, w in zip(s.offsets, s.weights):
            assert out.values[c + int(off[0])] == pytest.approx(w)

    def test_quadratic_gap_at_origin_equals_moment(self):
        # direct-summation oracle for the quadratic identity at one node
        g = Grid(1, 10.0, 201)
        s = discretize(Kernel.uniform_ball(1.0), g.spacing)
        q = Field(g, g.radius() ** 2)
        gap = convolve_direct(q, s).at_origin() - q.at_origin()
        assert gap == pytest.approx(stencil_second_moment(s), rel=1e-12)

    def test_matches_brute_force_1d(self):
        g = Grid(1, 2.0, 17)
        s = discretize(Kernel.uniform_ball(0.7), g.spacing)
        rng = np.random.default_rng(5)
        f = Field(g, rng.standard_normal(g.shape))
        np.testing.assert_allclose(convolve_direct(f, s).values,
                                   brute_convolve_zero_extend(f.values, s),
                                   atol=1e-14)

    def test_matches_brute_force_2d(self):
        g = Grid(2, 1.0, 9)
        s = discretize(Kernel.uniform_ball(0.5, dim=2), g.spacing)
        rng = np.random.default_rng(6)
        f = Field(g, rng.standard_normal(g.shape))
        np.testing.assert_allclose(convolve_direct(f, s).values,
                                   brute_convolve_zero_extend(f.values, s),
                                   atol=1e-14)

    def test_monotone_in_input(self):
        g = Grid(1, 5.0, 81)
        s = discretize(Kernel.gaussian(0.8), g.spacing)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(g.shape)
        ggt = f + np.abs(rng.standard_normal(g.shape))
        cf = convolve_direct(Field(g, f), s).values
        cg = convolve_direct(Field(g, ggt), s).values
        assert np.all(cg >= cf - 1e-14)

    def test_masked_restriction(self):
        g = Grid(1, 5.0, 81)
        s = discretize(Kernel.uniform_ball(0.5), g.spacing)
        mask = DomainMask(g, 3.0)
        f = Field.constant(g, 2.0)
        out = convolve_direct(f, s, boundary="mask", mask=mask)
        assert np.all(out.values[~mask.inside] == 0.0)
        # deep inside the mask the renormalized stencil reproduces constants
        deep = np.abs(g.axis()) <= 2.0
        np.testing.assert_allclose(out.values[deep], 2.0, rtol=1e-13)

    def test_masked_operator_matrix_symmetric(self):
        g = Grid(1, 4.0, 33)
        s = discretize(Kernel.uniform_ball(1.0), g.spacing)
        W = masked_exchange_matrix(s, DomainMask(g, 3.0)).toarray()
        assert np.array_equal(W, W.T)
        assert np.all(W.diagonal() == 0.0)

    def test_stencil_wider_than_grid_rejected(self):
        g = Grid(1, 2.0, 11)
        s = discretize(Kernel.gaussian(1.0), g.spacing)
        with pytest.raises(GridError):
            convolve_direct(Field.zeros(g), s)


@pytest.mark.parametrize("dim, band", [(1, None), (2, None), (2, (0.6, 1.0))],
                         ids=["1", "2", "2-split"])
def test_pair_matrix_with_self_pairs_is_direct_convolution(dim, band):
    # with the self weight on the diagonal, masked_exchange_matrix is J* in
    # mask mode, at the mask nodes
    g = Grid(1, 5.0, 81) if dim == 1 else Grid(2, 2.0, 21)
    s = discretize(Kernel.gaussian(0.5, dim=dim), g.spacing, trunc_tol=1e-8)
    mask = DomainMask(g, 0.8 * g.half_extent, exclude_band=band)
    u = Field(g, np.random.default_rng(9).standard_normal(g.shape))
    W = masked_exchange_matrix(s, mask).toarray()
    W[np.diag_indices(mask.n_nodes)] = s.self_weight()
    want = convolve_direct(u, s, boundary="mask", mask=mask).values[mask.inside]
    assert np.max(np.abs(W @ u.values[mask.inside] - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("call", [
    lambda u, s, boundary, mask: convolve_direct(u, s, boundary, mask),
    lambda u, s, boundary, mask: lyapunov_F(u, s, boundary, mask),
    lambda u, s, boundary, mask: step_euler(u, Medium.constant(1.0), s, 0.1, boundary, mask),
    lambda u, s, boundary, mask: step_exponential(u, Medium.constant(1.0), s, 0.1,
                                                  boundary, mask),
], ids=["convolve_direct", "lyapunov_F", "step_euler", "step_exponential"])
@pytest.mark.parametrize("case", ["no-mask", "other-grid", "zero-extend-with-mask",
                                  "unknown-mode"])
def test_mask_must_live_on_the_field_grid(call, case):
    # every public (boundary, mask) pair is read by grids._domain, so each
    # caller rejects the same bad pairs with the same GridError
    g = Grid(1, 5.0, 51)
    s = discretize(Kernel.gaussian(0.5), g.spacing)
    boundary, mask, match = {
        "no-mask": ("mask", None, "same grid"),
        "other-grid": ("mask", DomainMask(Grid(1, 5.0, 41), 3.0), "same grid"),
        "zero-extend-with-mask": ("zero-extend", DomainMask(g, 3.0), "takes no mask"),
        "unknown-mode": ("neumann", None, "unknown boundary mode"),
    }[case]
    with pytest.raises(GridError, match=match):
        call(Field.zeros(g), s, boundary, mask)


_ONE = Medium.constant(1.0)


@pytest.mark.parametrize("call", [
    lambda u, s, mask: convolve_direct(u, s),
    lambda u, s, mask: convolve_fft(u, s),
    lambda u, s, mask: lyapunov_F(u, s),
    lambda u, s, mask: lyapunov_F(u, s, "mask", mask),
    lambda u, s, mask: step_euler(u, _ONE, s, 0.1),
    lambda u, s, mask: step_exponential(u, _ONE, s, 0.1),
    lambda u, s, mask: run(u, _ONE, s, SolverConfig(dt=0.1, t_end=0.1)),
    lambda u, s, mask: picard_solve(u, _ONE, s, 0.1),
    lambda u, s, mask: steady_state_nullspace(s, mask),
    lambda u, s, mask: masked_exchange_matrix(s, mask),
], ids=["convolve_direct", "convolve_fft", "lyapunov_F", "lyapunov_F-mask", "step_euler",
        "step_exponential", "run", "picard_solve", "steady_state_nullspace",
        "masked_exchange_matrix"])
@pytest.mark.parametrize("misfit", ["2-d", "double-spacing", "radius-above-2L",
                                    "halfwidth-above-M-1"])
def test_stencil_must_fit_its_grid(call, misfit):
    # a stencil of another dimension, spacing or reach is another operator:
    # the operator and the pair loop that apply it raise, whoever calls them
    g = Grid(1, 5.0, 41)
    h, fits = g.spacing, discretize(Kernel.gaussian(0.5), g.spacing)
    s, match = {
        "2-d": (discretize(Kernel.gaussian(0.5, dim=2), h), "dimensions differ"),
        "double-spacing": (discretize(Kernel.gaussian(0.5), 2 * h), "spacing"),
        "radius-above-2L": (Stencil(fits.offsets, fits.weights, h, 10.5, True, 1),
                            "truncation radius"),
        "halfwidth-above-M-1": (Stencil([[-41], [0], [41]], [0.25, 0.5, 0.25], h,
                                        fits.truncation_radius, True, 1), "wider"),
    }[misfit]
    u = Field.from_function(g, lambda x: np.exp(-x * x))
    with pytest.raises(GridError, match=match):
        call(u, s, DomainMask(g, 3.0))


_FAMILIES = ("gaussian", "laplace", "uniform-ball", "tabulated")


def _grid_and_stencil(dim, M, family, K):
    """Unit-spacing grid of M nodes per axis and a ``family`` stencil of
    halfwidth K (K <= M - 2 for the Gaussian and Laplace families)."""
    g = Grid(dim, (M - 1) / 2.0, M)
    tol = 1e-10
    if family == "uniform-ball":
        kernel = Kernel.uniform_ball(K, dim=dim)
    elif family == "tabulated":
        # the tent J(r) = c (1 - r/K), with unit mass
        c = 1.0 / K if dim == 1 else 3.0 / (math.pi * K * K)
        kernel = Kernel.tabulated([0.0, float(K)], [c, 0.0], dim=dim)
    else:
        # truncation radius K + 1/2, which floors to halfwidth K
        unit = getattr(Kernel, family)(1.0, dim=dim).truncation_radius(tol)
        kernel = getattr(Kernel, family)((K + 0.5) / unit, dim=dim)
    s = discretize(kernel, g.spacing, trunc_tol=tol)
    assert s.halfwidths.tolist() == [K] * dim
    return g, s


def _assert_fft_matches_direct(g, s, seed):
    f = Field(g, np.random.default_rng(seed).standard_normal(g.shape))
    d = convolve_direct(f, s).values
    ff = convolve_fft(f, s).values
    assert np.max(np.abs(d - ff)) <= 1e-10 * np.max(np.abs(d))


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len
    assert all(grids._next_fast_len(n) == next_fast_len(n, real=True)
               for n in range(1, 10_001))


class TestConvolveFFT:
    @pytest.mark.parametrize("kernel", [Kernel.gaussian(1.0), Kernel.laplace(0.4),
                                        Kernel.uniform_ball(1.0)])
    @pytest.mark.parametrize("M", [33, 129, 257])
    def test_oracle_equivalence_1d(self, kernel, M):
        g = Grid(1, 5.0, M)
        s = discretize(kernel, g.spacing, trunc_tol=1e-10)
        rng = np.random.default_rng(M)
        for _ in range(5):
            f = Field(g, rng.standard_normal(g.shape))
            d = convolve_direct(f, s).values
            ff = convolve_fft(f, s).values
            assert np.max(np.abs(d - ff)) <= 1e-10 * max(np.max(np.abs(d)), 1e-30)

    def test_oracle_equivalence_2d(self):
        g = Grid(2, 3.0, 65)
        s = discretize(Kernel.gaussian(0.7, dim=2), g.spacing, trunc_tol=1e-10)
        rng = np.random.default_rng(11)
        f = Field(g, rng.standard_normal(g.shape))
        d = convolve_direct(f, s).values
        ff = convolve_fft(f, s).values
        assert np.max(np.abs(d - ff)) <= 1e-10 * np.max(np.abs(d))

    def test_delta_gives_stencil(self):
        g = Grid(1, 5.0, 41)
        s = discretize(Kernel.uniform_ball(1.0), g.spacing)
        vals = np.zeros(g.shape)
        c = g.origin_index[0]
        vals[c] = 1.0
        out = convolve_fft(Field(g, vals), s)
        for off, w in zip(s.offsets, s.weights):
            assert out.values[c + int(off[0])] == pytest.approx(w, abs=1e-14)

    def test_constant_interior(self):
        g = Grid(1, 10.0, 201)
        s = discretize(Kernel.laplace(0.5), g.spacing, trunc_tol=1e-10)
        out = convolve_fft(Field.constant(g, 1.5), s)
        hw = int(s.halfwidths[0])
        np.testing.assert_allclose(out.values[hw:-hw], 1.5, rtol=1e-12)

    @pytest.mark.parametrize("family", ["uniform-ball", "tabulated"])
    @pytest.mark.parametrize("dim, M, K", [(1, 3, 2), (1, 41, 4), (1, 41, 40),
                                           (2, 21, 4), (2, 41, 19), (2, 41, 40)])
    def test_padding_with_no_spare_node(self, dim, M, K, family):
        # n + K is 5-smooth, so the padding is exactly the n + K that no
        # wrapped source can reach: one node less would put K onto the data
        g, s = _grid_and_stencil(dim, M, family, K)
        assert _Operator(g, s).plan[0] == (M + K,) * dim
        _assert_fft_matches_direct(g, s, seed=K)

    @given(case=st.tuples(st.sampled_from([1, 2]), st.integers(1, 20),
                          st.sampled_from(_FAMILIES), st.integers(0, 2 ** 32 - 1),
                          st.floats(0.0, 1.0)))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_fft_matches_direct_property(self, case):
        dim, half_m, family, seed, reach = case
        M = 2 * half_m + 1
        # a Gaussian or Laplace reach is a root-finder result, so it stops
        # one node short of the grid-size limit that the other two hit
        widest = M - 1 if family in ("uniform-ball", "tabulated") else M - 2
        g, s = _grid_and_stencil(dim, M, family, max(1, round(reach * widest)))
        _assert_fft_matches_direct(g, s, seed)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_row_buffer_reuse_is_invisible(self, dim):
        g, s = _grid_and_stencil(dim, 21, "gaussian", 6)
        op = _Operator(g, s)
        rng = np.random.default_rng(dim)
        a, b = rng.standard_normal(g.shape), 1e3 * rng.standard_normal(g.shape)
        a_before = a.copy()
        first = op.convolve(a).copy()
        op.convolve(b)
        out = op.convolve(a)
        np.testing.assert_array_equal(out, first)
        np.testing.assert_array_equal(a, a_before)
        assert not np.shares_memory(out, op.plan[2])
        out[...] = np.nan
        np.testing.assert_array_equal(op.convolve(a), first)

    @pytest.mark.parametrize("dim, M", [(1, 41), (1, 2001), (2, 41), (2, 201)])
    def test_batch_is_stacked_single_fields_bitwise(self, dim, M):
        # leading axes are a batch, each field convolved as if alone
        g = Grid(dim, 4.0, M)
        s = discretize(Kernel.gaussian(0.6, dim=dim), g.spacing, trunc_tol=1e-8)
        op = _Operator(g, s)
        batch = np.random.default_rng(M).standard_normal((2, 3) + g.shape)
        out = op.convolve(batch)
        assert out.shape == batch.shape
        for i in np.ndindex(2, 3):
            np.testing.assert_array_equal(out[i], op.convolve(batch[i]))


class TestIntegrate:
    def test_constant_exact(self):
        g = Grid(1, 1.0, 201)
        assert integrate(Field.constant(g, 1.0)) == pytest.approx(2.0, abs=1e-15)

    def test_raw_midpoint_value_documented(self):
        # without the endpoint halving a constant integrates to 2*M/(M-1)
        g = Grid(1, 1.0, 201)
        raw = g.spacing * np.sum(np.ones(g.shape))
        assert raw == pytest.approx(2.0 * 201 / 200)

    def test_gaussian_density_erf_oracle(self):
        g = Grid(1, 8.0, 201)
        f = Field.from_function(
            g, lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi))
        exact = special.erf(8.0 / math.sqrt(2.0))
        assert integrate(f) == pytest.approx(exact, abs=1e-6)

    def test_odd_function_zero(self):
        g = Grid(1, 3.0, 151)
        f = Field.from_function(g, lambda x: x ** 3)
        assert integrate(f) == pytest.approx(0.0, abs=1e-13)

    def test_constant_exact_2d(self):
        g = Grid(2, 1.0, 41)
        assert integrate(Field.constant(g, 2.0)) == pytest.approx(8.0, rel=1e-13)


class TestLpLocal:
    def test_constant_is_zero(self):
        g = Grid(1, 5.0, 101)
        assert lp_local_distance(Field.constant(g, 2.0), 2.0, 2.0, 3.0) == 0.0

    def test_offset_constant_p1_ball_volume(self):
        g = Grid(1, 5.0, 101)
        f = Field.constant(g, 3.0)
        r = 2.0  # node-aligned radius: rim nodes take half weight
        assert lp_local_distance(f, 2.0, 1.0, r) == pytest.approx(2 * r, rel=1e-12)

    def test_linear_p2_closed_form(self):
        g = Grid(1, 5.0, 2001)
        f = Field.from_function(g, lambda x: 1.0 + x)
        r = 2.0
        expected = math.sqrt(2 * r ** 3 / 3)
        assert lp_local_distance(f, 1.0, 2.0, r) == pytest.approx(expected, rel=1e-5)

    def test_large_p_tends_to_the_sup_norm(self):
        # every |f - c|^p underflows to 0 at p = 1e300; the limit is max |f - c|
        g = Grid(1, 4.0, 41)
        f = Field.from_function(g, lambda x: 0.5 * np.exp(-x * x))
        assert lp_local_distance(f, 0.0, 1e300, 4.0) == pytest.approx(0.5, rel=1e-12)

    def test_p_below_one_rejected(self):
        g = Grid(1, 1.0, 11)
        with pytest.raises(GridError):
            lp_local_distance(Field.zeros(g), 0.0, 0.5, 1.0)

    @pytest.mark.parametrize("p, radius", [(math.nan, 1.0), (math.inf, 1.0),
                                           (2.0, math.nan), (2.0, -1.0)],
                             ids=["p-nan", "p-inf", "radius-nan", "radius-negative"])
    def test_non_finite_or_nonpositive_probe_rejected(self, p, radius):
        g = Grid(1, 1.0, 11)
        with pytest.raises(GridError):
            lp_local_distance(Field.zeros(g), 0.0, p, radius)


class TestDomainMask:
    def test_radius_bounds(self):
        g = Grid(1, 2.0, 21)
        with pytest.raises(GridError):
            DomainMask(g, 3.0)

    def test_split_components_1d(self):
        g = Grid(1, 4.0, 41)
        mask = DomainMask(g, 3.6, exclude_band=(1.2, 2.0))
        ax = np.abs(g.axis())
        assert not mask.inside[(ax > 1.2) & (ax < 2.0)].any()
        assert mask.inside[ax <= 1.2].all()


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        g = Grid(2, 3.0, 21)
        rng = np.random.default_rng(2)
        f = Field(g, rng.standard_normal(g.shape))
        path = tmp_path / "snap.isof"
        write_snapshot(path, f, 1.25)
        f2, t = read_snapshot(path)
        assert t == 1.25
        assert f2.grid == g
        np.testing.assert_array_equal(f2.values, f.values)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_every_truncated_prefix_rejected(self, tmp_path, dim):
        g = Grid(dim, 1.0, 3)
        path = tmp_path / "snap.isof"
        write_snapshot(path, Field.constant(g, 0.5), 0.25)
        blob = path.read_bytes()
        cut = tmp_path / "cut.isof"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(GridError, match="byte offset"):
                read_snapshot(cut)

    def test_trailing_bytes_rejected(self, tmp_path):
        g = Grid(1, 1.0, 3)
        path = tmp_path / "snap.isof"
        write_snapshot(path, Field.zeros(g), 0.0)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(GridError, match="3 trailing bytes after byte offset 56"):
            read_snapshot(path)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.isof"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(GridError, match="magic"):
            read_snapshot(path)

    def test_header_layout(self, tmp_path):
        g = Grid(1, 2.0, 11)
        path = tmp_path / "snap.isof"
        write_snapshot(path, Field.zeros(g), 0.5)
        blob = path.read_bytes()
        assert blob[:4] == b"ISOF"
        assert len(blob) == 4 + 4 + 4 + 4 + 8 + 8 + 8 * 11
