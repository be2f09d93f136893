"""Uniform tensor grids, scalar fields, quadrature, and the convolution engine."""

import math
import struct
from functools import cached_property

import numpy as np


class GridError(ValueError):
    """Invalid grid, field, or convolution request."""


class Grid:
    """Origin-centered uniform tensor grid on [-L, L]^dim.

    ``points_per_axis`` is odd so the origin is a node; node coordinates are
    built as integer multiples of the spacing, which keeps the axis exactly
    symmetric under negation.
    """

    def __init__(self, dim, half_extent, points_per_axis):
        if dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {dim}")
        if not 0 < half_extent < math.inf:
            raise GridError(f"half_extent must be positive and finite, got {half_extent!r}")
        if not math.isfinite(dim * half_extent * half_extent):   # ** would raise
            raise GridError(f"half_extent {half_extent!r}: the squared radius overflows")
        if not float(points_per_axis).is_integer():
            raise GridError(f"points_per_axis must be an integer, got {points_per_axis!r}")
        points_per_axis = int(points_per_axis)
        if points_per_axis < 3 or points_per_axis % 2 == 0:
            raise GridError("points_per_axis must be odd and at least 3")
        self.dim = int(dim)
        self.half_extent = float(half_extent)
        self.points_per_axis = points_per_axis

    @property
    def spacing(self):
        return 2.0 * self.half_extent / (self.points_per_axis - 1)

    @property
    def shape(self):
        return (self.points_per_axis,) * self.dim

    @property
    def n_nodes(self):
        return self.points_per_axis ** self.dim

    @property
    def origin_index(self):
        c = (self.points_per_axis - 1) // 2
        return (c,) * self.dim

    def axis(self):
        c = (self.points_per_axis - 1) // 2
        return (np.arange(self.points_per_axis) - c) * self.spacing

    def coords(self):
        """Broadcastable coordinate arrays, one per axis."""
        ax = self.axis()
        if self.dim == 1:
            return (ax,)
        return np.meshgrid(ax, ax, indexing="ij", sparse=True)

    def radius(self):
        """|x| at every node."""
        cs = self.coords()
        r2 = sum(np.asarray(c) ** 2 for c in cs)
        return np.sqrt(np.broadcast_to(r2, self.shape))

    def __eq__(self, other):
        return (isinstance(other, Grid)
                and self.dim == other.dim
                and self.half_extent == other.half_extent
                and self.points_per_axis == other.points_per_axis)

    def __hash__(self):
        return hash((self.dim, self.half_extent, self.points_per_axis))

    def __repr__(self):
        return f"Grid(dim={self.dim}, L={self.half_extent}, M={self.points_per_axis})"


class Field:
    """Scalar samples on a grid. Values are finite after every public operation."""

    def __init__(self, grid, values, copy=True):
        values = np.array(values, dtype=float) if copy else np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise GridError(f"values shape {values.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise GridError("field values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def constant(cls, grid, c):
        return cls(grid, np.full(grid.shape, float(c)), copy=False)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape), copy=False)

    @classmethod
    def from_function(cls, grid, fn):
        """Sample ``fn(*coords)`` over the grid."""
        vals = np.broadcast_to(np.asarray(fn(*grid.coords()), dtype=float), grid.shape)
        return cls(grid, vals)

    def copy(self):
        return Field(self.grid, self.values, copy=True)

    def max(self):
        return float(self.values.max())

    def min(self):
        return float(self.values.min())

    def at_origin(self):
        return float(self.values[self.grid.origin_index])

    def __repr__(self):
        return f"Field({self.grid!r}, range=[{self.min():.4g}, {self.max():.4g}])"


class DomainMask:
    """Nodes with |x| <= radius are interior; optionally an open radial band
    (a, b) is excluded, which splits the interior into several components."""

    def __init__(self, grid, radius, exclude_band=None):
        if radius > grid.half_extent * (1 + 1e-12):
            raise GridError(f"mask_radius {radius:g} exceeds half_extent {grid.half_extent:g}")
        self.grid = grid
        self.radius = float(radius)
        self.exclude_band = None
        r = grid.radius()
        inside = r <= self.radius * (1 + 1e-12)
        if exclude_band is not None:
            a, b = float(exclude_band[0]), float(exclude_band[1])
            if not 0.0 <= a < b:
                raise GridError("exclude_band must satisfy 0 <= a < b")
            self.exclude_band = (a, b)
            inside &= ~((r > a) & (r < b))
        if not np.any(inside):
            raise GridError("mask has an empty interior")
        self.inside = inside
        self.inside.setflags(write=False)

    @property
    def n_nodes(self):
        return int(np.count_nonzero(self.inside))

    def indicator(self):
        return self.inside.astype(float)

    def __repr__(self):
        return f"DomainMask(r={self.radius}, band={self.exclude_band}, n={self.n_nodes})"


# ---------------------------------------------------------------------------
# convolution engine


def _slice_pair(shape, offset):
    """Slices (dst, src) so that dst[x] pairs with src[x - offset]."""
    dst, src = [], []
    for n, k in zip(shape, offset):
        k = int(k)
        if k >= 0:
            dst.append(slice(k, n))
            src.append(slice(0, n - k))
        else:
            dst.append(slice(0, n + k))
            src.append(slice(-k, n))
    return tuple(dst), tuple(src)


def _check_stencil_fits(grid, stencil):
    if stencil.dim != grid.dim:
        raise GridError("stencil and grid dimensions differ")
    if not np.isclose(stencil.spacing, grid.spacing, rtol=1e-9, atol=0.0):
        raise GridError(
            f"stencil spacing {stencil.spacing:g} does not match grid spacing {grid.spacing:g}")
    if stencil.truncation_radius > 2.0 * grid.half_extent * (1 + 1e-12):
        raise GridError(f"stencil truncation radius {stencil.truncation_radius:.3g} "
                        f"exceeds the grid size 2L={2 * grid.half_extent:g}")
    if np.any(stencil.halfwidths > grid.points_per_axis - 1):
        raise GridError("stencil is wider than the grid")


def _domain(grid, boundary, mask):
    """The domain of a public ``(boundary, mask)`` pair: ``mask`` under
    "mask", None (the whole zero-extended grid) under "zero-extend". The
    only reader of such a pair; below it the mask alone is the domain."""
    if boundary == "zero-extend":
        if mask is not None:
            raise GridError('zero-extend boundary takes no mask; pass boundary="mask"')
        return None
    if boundary == "mask":
        if mask is None or mask.grid != grid:
            raise GridError("mask boundary mode needs a DomainMask on the same grid")
        return mask
    raise GridError(f"unknown boundary mode {boundary!r}")


def _convolve_zero_extend(values, stencil):
    out = np.zeros_like(values)
    for offset, w in zip(stencil.offsets, stencil.weights):
        dst, src = _slice_pair(values.shape, offset)
        out[dst] += w * values[src]
    return out


def convolve_direct(f, stencil, boundary="zero-extend", mask=None):
    """Discrete convolution sum w_k f(x - k h).

    ``zero-extend`` treats out-of-grid samples as zero. ``mask`` restricts the
    exchange to mask-interior nodes: the output at interior x is
    sum over interior y of w(x - y) f(y), and zero outside the mask.
    """
    chi = _Operator(f.grid, stencil, _domain(f.grid, boundary, mask)).chi
    return Field(f.grid, _convolve_zero_extend(f.values * chi, stencil) * chi, copy=False)


def _next_fast_len(n):
    """The smallest 5-smooth integer >= n: a length numpy's FFT handles fast."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _fft_plan(shape, stencil):
    """Padded shape, kernel transform and row buffer of zero-extend FFT
    convolution. An axis of n nodes and halfwidth K pads to the shortest
    5-smooth P >= n + K, which keeps every wrapped source x - k, |k| <= K,
    off the n data nodes. The kernel is transformed along the last axis, then
    along axis 0; the row buffer is the data rows, padded on the last axis."""
    hw = stencil.halfwidths
    pad_shape = tuple(_next_fast_len(n + int(w)) for n, w in zip(shape, hw))
    karr = np.zeros(pad_shape)
    idx = tuple((stencil.offsets[:, d]) % pad_shape[d] for d in range(len(shape)))
    np.add.at(karr, idx, stencil.weights)
    return pad_shape, np.fft.rfftn(karr), np.zeros(shape[:-1] + pad_shape[-1:])


class _Operator:
    """The runtime J* of one run, built once and shared by its stepper and
    every record: the FFT plan, the domain indicator chi (``mask``, or all
    ones when ``mask`` is None: zero-extend) and the in-domain kernel mass
    kappa = chi J*chi. A stencil that does not fit ``grid`` raises GridError."""

    def __init__(self, grid, stencil, mask=None):
        _check_stencil_fits(grid, stencil)
        self.grid, self.stencil, self.mask = grid, stencil, mask
        self.chi = np.ones(grid.shape) if mask is None else mask.indicator()

    @cached_property
    def plan(self):
        return _fft_plan(self.grid.shape, self.stencil)

    def convolve(self, values):
        """Zero-extend sum w_k values(x - k) over the last grid.dim axes, each
        field of a leading batch bit for bit as if alone, by real FFTs that
        skip the zero padding: ``values`` is copied into the row buffer (a
        batch into its own), whose padding is never written, and its rows are
        rfft'd; in 2-D they are fft'd along axis -2 at length P_0, multiplied
        by khat and ifft'd, and only the first n_0 rows are irfft'd. The
        result is a fresh array."""
        pad_shape, khat, rows = self.plan
        if values.ndim > self.grid.dim:
            rows = np.zeros(values.shape[:-1] + pad_shape[-1:])
        rows[..., :values.shape[-1]] = values
        spec = np.fft.rfft(rows)
        if self.grid.dim == 2:
            spec = np.fft.fft(spec, n=pad_shape[0], axis=-2)
            spec *= khat
            # in place: a fresh array here costs a 2-D step about a third more
            spec = np.fft.ifft(spec, axis=-2, out=spec)[..., :values.shape[-2], :]
        else:
            spec *= khat
        return np.fft.irfft(spec, n=pad_shape[-1])[..., :values.shape[-1]]

    @cached_property
    def kappa(self):
        return self.chi * self.convolve(self.chi)


def convolve_fft(f, stencil):
    """Zero-extend convolution through zero-padded real FFTs.

    Matches convolve_direct within 1e-10 relative on the max norm.
    """
    conv = _Operator(f.grid, stencil).convolve(f.values)
    return Field(f.grid, np.ascontiguousarray(conv), copy=False)


# ---------------------------------------------------------------------------
# quadrature


def box_quad_weights(grid):
    """Trapezoid-style weights: endpoint nodes carry half weight per axis, so
    constants integrate exactly over the box."""
    w_axis = np.ones(grid.points_per_axis)
    w_axis[0] = 0.5
    w_axis[-1] = 0.5
    if grid.dim == 1:
        return w_axis.copy()
    return np.outer(w_axis, w_axis)


def integrate(f):
    """Quadrature of f over the grid box."""
    h = f.grid.spacing
    return float(h ** f.grid.dim * np.sum(f.values * box_quad_weights(f.grid)))


def ball_quad_weights(grid, radius):
    """Midpoint weights over the ball |x| <= radius, halved exactly on nodes
    that land on the rim (so 1-d ball volumes come out exact)."""
    r = grid.radius()
    w = (r <= radius * (1 + 1e-12)).astype(float)
    on_rim = np.isclose(r, radius, rtol=1e-12, atol=1e-12 * max(1.0, radius))
    w[on_rim & (w > 0)] = 0.5
    return w


def _lp_ball(grid, p, radius):
    """Ball weights of lp_local_distance at ``radius``, once ``p`` and
    ``radius`` are checked: a run computes them once for all its records."""
    if not 1 <= p < math.inf:
        raise GridError(f"lp_p must be finite and at least 1, got {p!r}")
    if not 0 < radius < math.inf:
        raise GridError(f"lp_radius must be finite and positive, got {radius!r}")
    if radius > grid.half_extent * (1 + 1e-12):
        raise GridError(f"lp_radius {radius:g} exceeds half_extent {grid.half_extent:g}")
    return ball_quad_weights(grid, radius)


@np.errstate(over="ignore")   # an overflowing sum is summed again, scaled
def _lp_local(f, c, p, ball):
    """lp_local_distance on the ball weights ``ball`` from _lp_ball. Where
    the direct sum underflows to 0 or overflows (a large p or a large
    |f - c|), |f - c| is first divided by its largest value on the ball:
    the same norm, with neither."""
    vol = f.grid.spacing ** f.grid.dim
    gap = np.abs(f.values - c)
    total = vol * np.sum(ball * gap ** p)
    if not 0 < total < math.inf:
        top = float(np.max(gap, where=ball > 0, initial=0.0))
        if 0 < top < math.inf:
            return top * float((vol * np.sum(ball * (gap / top) ** p)) ** (1.0 / p))
    return float(total ** (1.0 / p))


def lp_local_distance(f, c, p, radius):
    """Local L^p distance (integral over |x| <= radius of |f - c|^p)^(1/p)."""
    return _lp_local(f, c, p, _lp_ball(f.grid, p, radius))


# ---------------------------------------------------------------------------
# masked operator assembly

# Largest pair count (mask nodes x stencil offsets) whose exchange is stored:
# masked_exchange_matrix raises above it, and a 1-D exchange stepper sweeps.
PAIR_CAP = 20_000_000


def _flat_shifts(offsets, shape):
    """Flat row-major index shift of each offset on a grid of ``shape``."""
    return offsets @ np.array([math.prod(shape[d + 1:]) for d in range(len(shape))])


def _mask_pairs(stencil, mask):
    """(rows, cols, weights) of every pair of distinct mask nodes within
    stencil reach, the nodes numbered row-major: W[rows, cols] = weights,
    one offset at a time, each ordered pair once."""
    _check_stencil_fits(mask.grid, stencil)
    inside = mask.inside
    number = np.zeros(inside.shape, dtype=int)
    number[inside] = np.arange(mask.n_nodes)
    # seeded empty: an origin-only stencil has no pair
    rows, cols, data = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)], [np.empty(0)]
    for offset, w in zip(stencil.offsets, stencil.weights):
        if np.any(offset != 0):
            dst, src = _slice_pair(inside.shape, offset)
            ok = inside[dst] & inside[src]
            rows.append(number[dst][ok])
            cols.append(number[src][ok])
            data.append(np.full(np.count_nonzero(ok), w))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(data)


def masked_exchange_matrix(stencil, mask):
    """Symmetric pair-weight matrix over mask nodes.

    W[i, j] = w(x_i - x_j) for distinct interior nodes within stencil reach;
    the diagonal is zero (the self weight is reported separately by the
    stencil). These are the pairs a masked run exchanges over, restricted
    to mask nodes. Raises when the assembly would exceed ``PAIR_CAP``
    entries. A CSR matrix with sorted columns.
    """
    est = mask.n_nodes * len(stencil)
    if est > PAIR_CAP:
        raise GridError(f"masked operator too large to materialize ({est} > {PAIR_CAP})")
    rows, cols, weights = _mask_pairs(stencil, mask)
    from scipy import sparse   # here, so only a caller of this function loads it
    return sparse.csr_matrix((weights, (rows, cols)), shape=(mask.n_nodes, mask.n_nodes))


# ---------------------------------------------------------------------------
# binary snapshots

_SNAP_MAGIC = b"ISOF"
_SNAP_VERSION = 1


def write_snapshot(path, field, t):
    """Write a field snapshot: magic, version, dim, M per axis, L per axis,
    time, then row-major float64 values, all little-endian."""
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _SNAP_MAGIC, _SNAP_VERSION, grid.dim))
        fh.write(struct.pack(f"<{grid.dim}I", *([grid.points_per_axis] * grid.dim)))
        fh.write(struct.pack(f"<{grid.dim}d", *([grid.half_extent] * grid.dim)))
        fh.write(struct.pack("<d", float(t)))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_snapshot(path):
    """Read a snapshot written by :func:`write_snapshot`; returns (field, t).

    A short, overlong or malformed file raises GridError naming the byte offset.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(size):
        nonlocal pos
        if pos + size > len(data):
            raise GridError(f"truncated snapshot: {size} bytes needed at byte offset "
                            f"{pos}, file ends at {len(data)}")
        pos += size
        return data[pos - size:pos]

    magic, version, dim = struct.unpack("<4sII", take(12))
    if magic != _SNAP_MAGIC:
        raise GridError(f"not a snapshot file: bad magic {magic!r} at byte offset 0")
    if version != _SNAP_VERSION:
        raise GridError(f"unsupported snapshot version {version} at byte offset 4")
    if dim not in (1, 2):
        raise GridError(f"bad snapshot dimension {dim} at byte offset 8")
    ms = struct.unpack(f"<{dim}I", take(4 * dim))
    ls = struct.unpack(f"<{dim}d", take(8 * dim))
    if len(set(ms)) != 1 or len(set(ls)) != 1:
        raise GridError("snapshot axes disagree; only cubic grids are supported")
    (t,) = struct.unpack("<d", take(8))
    grid = Grid(dim, ls[0], ms[0])
    values = np.frombuffer(take(8 * grid.n_nodes), dtype="<f8").reshape(grid.shape)
    if pos != len(data):
        raise GridError(f"{len(data) - pos} trailing bytes after byte offset {pos}")
    return Field(grid, values), t
