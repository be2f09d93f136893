"""Radial convolution kernels, their exact moments, and grid stencils."""

import math
import numbers

import numpy as np

_SUPPORTED_DIMS = (1, 2)

# Surface area of the unit sphere in R^N for N = 1, 2.
_OMEGA = {1: 2.0, 2: 2.0 * math.pi}

# domain -> (its test, written so that NaN fails too; the wording of its error)
_DOMAINS = {
    "finite": (math.isfinite, "a finite {}"),
    "positive": (lambda v: 0 < v < math.inf, "a finite {} > 0"),
    "nonnegative": (lambda v: 0 <= v < math.inf, "a finite {} >= 0"),
}

# family -> {param: (type if required, else default; domain or None)}
FAMILIES = {
    "gaussian": {"sigma": (float, "positive")},
    "laplace": {"scale": (float, "positive")},
    "uniform-ball": {"radius": (float, "positive")},
    "tabulated": {"radii": (list, None), "values": (list, None)},
}


class KernelError(ValueError):
    """Invalid kernel parameters or failed kernel validation."""


def _bisect(pred, lo, hi):
    """Where ``pred`` turns true on [lo, hi], to the last float: pred(lo) is
    false, pred(hi) true, and the bracket halves until its midpoint equals an
    end. Returns the end at which ``pred`` holds."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if pred(mid):
            hi = mid
        else:
            lo = mid


def check_params(kind, table, family, params, error):
    """``params`` of ``family`` checked against ``table`` (shaped as FAMILIES),
    with defaults filled in. A fault raises ``error(message, key)``, where key
    is "family" for an unknown family, None for a missing or extra parameter,
    and the parameter's name for a value outside its domain, a value that is
    not a real number included."""
    if family not in table:
        raise error(f"unknown {kind} family {family!r}", "family")
    schema = table[family]
    missing = sorted(k for k, (d, _) in schema.items() if isinstance(d, type) and k not in params)
    extra = sorted(set(params) - set(schema))
    if missing:
        raise error(f"{kind} family {family!r} missing parameter(s) {missing}", None)
    if extra:
        raise error(f"{kind} family {family!r} does not take {extra}", None)
    full = {**{k: d for k, (d, _) in schema.items() if not isinstance(d, type)}, **params}
    for key, (_, domain) in schema.items():
        value = full[key]
        if domain is not None and not (isinstance(value, numbers.Real)
                                       and _DOMAINS[domain][0](value)):
            raise error(f"{kind} family {family!r} needs "
                        f"{_DOMAINS[domain][1].format(key)}, got {value!r}", key)
    return full


class Kernel:
    """A radial probability density with unit mass, zero mean and finite
    second moment.

    Families and their parameters are those of FAMILIES; a ``tabulated``
    kernel (piecewise-linear radial samples) has unit mass within ``mass_tol``.
    Instances are immutable and safe to share across threads.
    """

    def __init__(self, family, dim, *, mass_tol=1e-6, **params):
        if dim not in _SUPPORTED_DIMS:
            raise KernelError(f"dim must be one of {_SUPPORTED_DIMS}, got {dim}")
        self.family = family
        self.dim = int(dim)
        self.params = check_params("kernel", FAMILIES, family, params,
                                   lambda message, _: KernelError(message))
        if family == "tabulated":
            self._init_tabulated(mass_tol)

    # -- constructors -----------------------------------------------------

    @classmethod
    def gaussian(cls, sigma, dim=1):
        return cls("gaussian", dim, sigma=float(sigma))

    @classmethod
    def laplace(cls, scale, dim=1):
        return cls("laplace", dim, scale=float(scale))

    @classmethod
    def uniform_ball(cls, radius, dim=1):
        return cls("uniform-ball", dim, radius=float(radius))

    @classmethod
    def tabulated(cls, radii, values, dim=1, mass_tol=1e-6):
        return cls("tabulated", dim, radii=np.asarray(radii, dtype=float),
                   values=np.asarray(values, dtype=float), mass_tol=float(mass_tol))

    def _init_tabulated(self, tol):
        r = np.asarray(self.params["radii"], dtype=float)
        v = np.asarray(self.params["values"], dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise KernelError("tabulated kernel needs matching 1-d radii/values")
        if r[0] != 0.0 or np.any(np.diff(r) <= 0):
            raise KernelError("tabulated radii must start at 0 and increase")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise KernelError("tabulated values must be finite and nonnegative")
        self._tab_r = r
        self._tab_v = v
        self._tab_r.setflags(write=False)
        self._tab_v.setflags(write=False)
        mass = self._tab_moment(self.dim - 1) * _OMEGA[self.dim]
        if not abs(mass - 1.0) <= tol:   # a NaN mass fails too
            raise KernelError(
                f"tabulated kernel mass {mass:.8g} deviates from 1 by more than {tol:g}")

    # -- evaluation --------------------------------------------------------

    def eval_radius(self, r):
        """Density value at radius ``r`` (scalar or array)."""
        r = np.asarray(r, dtype=float)
        if self.family == "gaussian":
            s = self.params["sigma"]
            norm = (2.0 * math.pi) ** (self.dim / 2.0) * s ** self.dim
            return np.exp(-0.5 * (r / s) ** 2) / norm
        if self.family == "laplace":
            b = self.params["scale"]
            norm = _OMEGA[self.dim] * b ** self.dim * math.gamma(self.dim)
            return np.exp(-r / b) / norm
        if self.family == "uniform-ball":
            R = self.params["radius"]
            vol = 2.0 * R if self.dim == 1 else math.pi * R * R
            inside = (r < R).astype(float)
            # midpoint convention at the jump: half density exactly on the rim
            on_rim = np.isclose(r, R, rtol=1e-12, atol=1e-12 * max(1.0, R))
            return (inside + 0.5 * (on_rim & ~(r < R))) / vol
        # tabulated: linear interpolation in radius, zero beyond the table
        return np.interp(r, self._tab_r, self._tab_v, right=0.0)

    def eval(self, x):
        """Density at point(s) ``x``.

        ``x`` may be a scalar (dim 1), an array of scalars (dim 1), or an
        array whose last axis has length ``dim``.
        """
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise KernelError("eval requires finite points")
        if self.dim == 1 and (x.ndim == 0 or x.shape[-1] != 1):
            r = np.abs(x)
        else:
            r = np.sqrt(np.sum(x * x, axis=-1))
        return self.eval_radius(r)

    # -- moments -----------------------------------------------------------

    def moments(self):
        """Return (mass, mean, second_moment) with closed forms where known.

        The second moment is the total one, integral of |s|^2 J(s) ds.
        """
        dim = self.dim
        mean = np.zeros(dim)
        if self.family == "gaussian":
            return 1.0, mean, dim * self.params["sigma"] ** 2
        if self.family == "laplace":
            b = self.params["scale"]
            # Gamma(N+2)/Gamma(N) = N(N+1)
            return 1.0, mean, dim * (dim + 1) * b * b
        if self.family == "uniform-ball":
            R = self.params["radius"]
            second = R * R / 3.0 if dim == 1 else R * R / 2.0
            return 1.0, mean, second
        mass = self._tab_moment(dim - 1) * _OMEGA[dim]
        second = self._tab_moment(dim + 1) * _OMEGA[dim]
        return mass, mean, second

    def second_moment(self):
        return self.moments()[2]

    # -- tails -------------------------------------------------------------

    def outside_mass(self, R):
        """Continuous-form mass beyond radius ``R``."""
        if R <= 0:
            return 1.0
        if self.family == "gaussian":
            s = self.params["sigma"]
            if self.dim == 1:
                return math.erfc(R / (s * math.sqrt(2.0)))
            r = R / s
            return float(math.exp(-0.5 * r * r))   # r ** 2 raises where r * r is inf
        if self.family == "laplace":
            b = self.params["scale"]
            if self.dim == 1:
                return float(math.exp(-R / b))
            return float((1.0 + R / b) * math.exp(-R / b))
        if self.family == "uniform-ball":
            Rb = self.params["radius"]
            if R >= Rb:
                return 0.0
            frac = R / Rb if self.dim == 1 else (R / Rb) ** 2
            return 1.0 - frac
        inside = self._tab_moment(self.dim - 1, R) * _OMEGA[self.dim]
        mass = self._tab_moment(self.dim - 1) * _OMEGA[self.dim]
        return max(0.0, mass - inside)

    @np.errstate(over="ignore", invalid="ignore")   # a moment that overflows is inf or NaN
    def _tab_moment(self, power, R=math.inf):
        """Exact integral of r^power * J(r) over the piecewise-linear table,
        up to radius ``R``."""
        r, v = self._tab_r, self._tab_v
        total = 0.0
        for r0, r1, v0, v1 in zip(r[:-1], r[1:], v[:-1], v[1:]):
            if r0 >= R:
                break
            hi = min(r1, R)
            # J = a + b*r on the segment
            b = (v1 - v0) / (r1 - r0)
            a = v0 - b * r0
            m = power
            total += a * (hi ** (m + 1) - r0 ** (m + 1)) / (m + 1)
            total += b * (hi ** (m + 2) - r0 ** (m + 2)) / (m + 2)
        return total

    def truncation_radius(self, trunc_tol):
        """Smallest radius whose exterior carries at most ``trunc_tol`` mass."""
        if not 0.0 < trunc_tol < 1.0:
            raise KernelError("trunc_tol must lie in (0, 1)")
        if self.family == "uniform-ball":
            return self.params["radius"]
        if self.family == "tabulated":
            return float(self._tab_r[-1])
        hi = 1.0
        while self.outside_mass(hi) > trunc_tol:
            hi *= 2.0
            if hi > 1e9:
                raise KernelError("kernel tail does not reach trunc_tol")
        return _bisect(lambda R: self.outside_mass(R) <= trunc_tol, 0.0, hi)

    def __repr__(self):
        return f"Kernel({self.family}, dim={self.dim}, {self.params})"


class Stencil:
    """Discrete carrier of a kernel on a uniform grid.

    ``offsets`` is an integer array of shape (n, dim); ``weights`` are the
    quadrature-weighted kernel samples h^N * J(offset*h), optionally
    renormalized to unit sum. Weights are symmetric under offset negation by
    construction. Immutable after construction.
    """

    def __init__(self, offsets, weights, spacing, truncation_radius, renormalized, dim):
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        self.spacing = float(spacing)
        self.truncation_radius = float(truncation_radius)
        self.renormalized = bool(renormalized)
        self.dim = int(dim)
        self.offsets.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def halfwidths(self):
        """Maximum |offset| per axis, in cells."""
        return np.max(np.abs(self.offsets), axis=0)

    def self_weight(self):
        """Weight attached to the zero offset (0 if absent)."""
        at_zero = np.all(self.offsets == 0, axis=1)
        if not np.any(at_zero):
            return 0.0
        return float(self.weights[at_zero][0])

    def weight_sum(self):
        return float(np.sum(self.weights))

    def __len__(self):
        return self.offsets.shape[0]

    def __repr__(self):
        return (f"Stencil(n={len(self)}, h={self.spacing}, "
                f"R={self.truncation_radius:.4g}, renorm={self.renormalized})")


@np.errstate(over="ignore", divide="ignore", invalid="ignore")   # non-finite weights raise
def discretize(kernel, spacing, policy="renormalize", trunc_tol=1e-12, max_offsets=4_000_000):
    """Sample a kernel onto the integer lattice with midpoint quadrature.

    Offsets cover the ball outside which the kernel carries at most
    ``trunc_tol`` mass. Weights are h^N * J(offset*h); under the
    ``renormalize`` policy they are rescaled to sum to exactly 1.
    """
    if spacing <= 0:
        raise KernelError("spacing must be positive")
    if policy not in ("renormalize", "raw"):
        raise KernelError(f"unknown discretization policy {policy!r}")
    R = kernel.truncation_radius(trunc_tol)
    h = float(spacing)
    cells = R / h + 1e-9   # inf when R/h overflows
    dim = kernel.dim
    count = (2 * math.floor(cells) + 1) ** dim if cells < max_offsets else math.inf
    if count > max_offsets:
        raise KernelError(
            f"stencil would need {count} offsets (cap {max_offsets}); "
            "use a coarser truncation tolerance or larger spacing")
    K = math.floor(cells)
    axis = np.arange(-K, K + 1, dtype=np.int64)
    if dim == 1:
        offsets = axis[:, None]
    else:
        a, b = np.meshgrid(axis, axis, indexing="ij")
        offsets = np.stack([a.ravel(), b.ravel()], axis=1)
    radii = np.sqrt(np.sum((offsets * h) ** 2, axis=1))
    keep = radii <= R + 1e-12 * max(1.0, R)
    offsets = offsets[keep]
    radii = radii[keep]
    if len(offsets) == 1:
        raise KernelError(
            f"stencil keeps only the origin (truncation radius {R:.3g}, spacing {h:g}): "
            "J* would be the identity; use a finer spacing")
    weights = (h ** dim) * kernel.eval_radius(radii)
    total = weights.sum()
    if not math.isfinite(total):
        raise KernelError(f"stencil weights at spacing {h:g} are not finite, or their "
                          "sum overflows")
    if policy == "renormalize":
        if total <= 0:
            raise KernelError("stencil weights sum to zero; spacing too coarse")
        weights = weights / total
        # absorb the rounding residue into the center so the sum is exactly 1
        center = int(np.flatnonzero(np.all(offsets == 0, axis=1))[0])
        weights[center] += 1.0 - weights.sum()
    return Stencil(offsets, weights, h, R, policy == "renormalize", dim)


def stencil_second_moment(stencil):
    """Discrete counterpart of the kernel second moment: sum w_k |k*h|^2."""
    r2 = np.sum((stencil.offsets * stencil.spacing) ** 2, axis=1)
    return float(np.sum(stencil.weights * r2))
