"""Medium densities rho(x): built-in families, integrability classification,
decay floors, floor approximants, and weighted means."""

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import _rho_weights
from .grids import Field
from .kernels import _OMEGA, _SUPPORTED_DIMS, _bisect, check_params

# family -> params, shaped as kernels.FAMILIES; the custom and floored media
# are built from a callable or a base medium instead
FAMILIES = {
    "constant": {"value": (float, "positive")},
    "power-decay": {"amplitude": (float, "positive"), "exponent": (float, "nonnegative")},
    "gaussian-decay": {"amplitude": (float, "positive"), "sigma": (float, "positive")},
    "exponential-decay": {"amplitude": (float, "positive"), "scale": (float, "positive")},
}


class MediumError(ValueError):
    """Invalid medium parameters or an ill-posed medium query."""


class Medium:
    """A positive continuous density rho(x).

    Families: ``constant(c)``, ``power-decay`` rho = a/(1+|x|^beta),
    ``gaussian-decay`` a*exp(-|x|^2/(2 sigma^2)), ``exponential-decay``
    a*exp(-|x|/b), ``custom`` (callable with a declared tail class), and
    ``floored`` wrappers produced by :func:`floor`. Immutable after
    construction.
    """

    def __init__(self, family, dim, params=None, fn=None, base=None, alpha=None,
                 tail="unknown", total_mass=None):
        if dim not in _SUPPORTED_DIMS:
            raise MediumError(f"dim must be one of {_SUPPORTED_DIMS}, got {dim}")
        self.family = family
        self.dim = int(dim)
        self.params = {} if family in ("custom", "floored") else check_params(
            "medium", FAMILIES, family, params or {}, lambda message, _: MediumError(message))
        self._fn = fn
        self.base = base
        self.alpha = alpha
        self.tail = tail
        self._total_mass = total_mass

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, dim=1):
        return cls("constant", dim, {"value": float(value)})

    @classmethod
    def power_decay(cls, amplitude, exponent, dim=1):
        return cls("power-decay", dim, {"amplitude": float(amplitude),
                                        "exponent": float(exponent)})

    @classmethod
    def gaussian_decay(cls, amplitude, sigma, dim=1):
        return cls("gaussian-decay", dim, {"amplitude": float(amplitude),
                                           "sigma": float(sigma)})

    @classmethod
    def exponential_decay(cls, amplitude, scale, dim=1):
        return cls("exponential-decay", dim, {"amplitude": float(amplitude),
                                              "scale": float(scale)})

    @classmethod
    def custom(cls, fn, dim=1, tail="unknown", total_mass=None):
        """Wrap an arbitrary positive density.

        ``tail`` declares the integrability class ("integrable",
        "nonintegrable" or "unknown"); asymptotics are never inferred from
        samples.
        """
        if tail not in ("integrable", "nonintegrable", "unknown"):
            raise MediumError(f"unknown tail class {tail!r}")
        return cls("custom", dim, fn=fn, tail=tail, total_mass=total_mass)

    # -- evaluation --------------------------------------------------------

    def rho_of_radius(self, r):
        r = np.asarray(r, dtype=float)
        if self.family == "constant":
            return np.full_like(r, self.params["value"])
        if self.family == "power-decay":
            a, beta = self.params["amplitude"], self.params["exponent"]
            return a / (1.0 + r ** beta)
        if self.family == "gaussian-decay":
            a, s = self.params["amplitude"], self.params["sigma"]
            return a * np.exp(-0.5 * (r / s) ** 2)
        if self.family == "exponential-decay":
            a, b = self.params["amplitude"], self.params["scale"]
            return a * np.exp(-r / b)
        if self.family == "floored":
            return np.maximum(self.base.rho_of_radius(r), self.alpha)
        raise MediumError(f"{self.family} medium is not radial-evaluable")

    def eval_points(self, points):
        """Density at points given as an array of shape (n, dim)."""
        return self._density(*np.atleast_2d(np.asarray(points, dtype=float)).T)

    def sample(self, grid):
        """Density values on every grid node."""
        return np.broadcast_to(self._density(*grid.coords()), grid.shape).copy()

    def _density(self, *coords):
        """rho at broadcastable coordinate arrays, one per axis of the medium:
        the one evaluator behind sample and eval_points. A floored medium
        floors its base before the positivity check."""
        if len(coords) != self.dim:
            raise MediumError(f"{self!r} cannot be evaluated at {len(coords)}-d points")
        base, alpha = (self.base, self.alpha) if self.family == "floored" else (self, None)
        if base.family == "custom":
            vals = np.asarray(base._fn(*coords), dtype=float)
        else:
            vals = base.rho_of_radius(np.sqrt(sum(np.asarray(c) ** 2 for c in coords)))
        if alpha is not None:
            vals = np.maximum(vals, alpha)
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise MediumError(f"{self!r}: density must be finite and strictly positive")
        return vals

    def field(self, grid):
        return Field(grid, self.sample(grid), copy=False)

    def __repr__(self):
        if self.family == "floored":
            return f"Medium(floored({self.base!r}, alpha={self.alpha}))"
        return f"Medium({self.family}, dim={self.dim}, {self.params})"


def floor(medium, alpha):
    """The medium x -> max(rho(x), alpha), used to lift degenerate tails."""
    if not 0 < alpha < math.inf:
        raise MediumError(f"floor level alpha must be positive and finite, got {alpha!r}")
    if medium.family == "floored":
        medium = medium.base
    return Medium("floored", medium.dim, base=medium, alpha=float(alpha))


def default_alpha(medium, n):
    """Default floor sequence: rho(0) * 2^-n, strictly decreasing to zero."""
    rho0 = float(medium.eval_points(np.zeros((1, medium.dim)))[0])
    return rho0 * 2.0 ** (-n)


@dataclass(frozen=True)
class MediumClassification:
    """Integrability verdict, total mass, and the admissible decay floor.

    ``integrable`` is None when the class is unknown (undeclared custom
    media); ``decay_floor`` is an (eta, gamma) pair with gamma <= 2 such that
    rho(x) >= eta / (1 + |x|^gamma), or None when no such floor exists.
    """
    integrable: bool | None
    total_mass: float | None
    decay_floor: tuple[float, float] | None


def classify(medium):
    """Closed-form integrability classification for built-in families."""
    dim = medium.dim
    fam = medium.family
    if fam == "constant":
        c = medium.params["value"]
        return MediumClassification(False, math.inf, (c, 0.0))
    if fam == "power-decay":
        a, beta = medium.params["amplitude"], medium.params["exponent"]
        # integral of a/(1+r^beta) over R^dim; finite iff beta > dim
        mass = (_OMEGA[dim] * a * (math.pi / beta) / math.sin(math.pi * dim / beta)
                if beta > dim else math.inf)
        floor_pair = (a, beta) if beta <= 2.0 else None
        return MediumClassification(beta > dim, mass, floor_pair)
    if fam == "gaussian-decay":
        a, s = medium.params["amplitude"], medium.params["sigma"]
        # math.prod: a product that overflows is inf, where s ** dim raises
        mass = a * (2.0 * math.pi) ** (dim / 2.0) * math.prod((s,) * dim)
        return MediumClassification(True, mass, None)
    if fam == "exponential-decay":
        a, b = medium.params["amplitude"], medium.params["scale"]
        mass = a * _OMEGA[dim] * math.prod((b,) * dim) * math.gamma(dim)
        return MediumClassification(True, mass, None)
    if fam == "floored":
        base_cls = classify(medium.base)
        floor_pair = base_cls.decay_floor
        if floor_pair is None or floor_pair[0] < medium.alpha:
            floor_pair = (medium.alpha, 0.0)
        return MediumClassification(False, math.inf, floor_pair)
    if fam == "custom":
        if medium.tail == "unknown":
            return MediumClassification(None, None, None)
        if medium.tail == "nonintegrable":
            return MediumClassification(False, math.inf, None)
        return MediumClassification(True, medium._total_mass, None)
    raise MediumError(f"cannot classify medium family {fam!r}")


def quadratic_growth_constant(medium):
    """Largest eta2 with rho(x)(1 + |x|^2) >= eta2 everywhere, derived from the
    classified decay floor.

    A floor eta/(1+|x|^gamma) with gamma < 2 gives eta2 = eta * m_gamma where
    m_gamma = min over r >= 0 of (1+r^2)/(1+r^gamma); m_2 = 1, m_0 = 1/2.
    """
    cls = classify(medium)
    if cls.decay_floor is None:
        raise MediumError("medium reports no decay floor with gamma <= 2")
    eta, gamma = cls.decay_floor
    if gamma >= 2.0:
        return eta
    if gamma == 0.0:
        return 0.5 * eta
    # interior minimum of (1+r^2)/(1+r^gamma): root of 2r(1+r^g) = g r^(g-1)(1+r^2)
    g = gamma

    def d(r):
        return 2.0 * r * (1.0 + r ** g) - g * r ** (g - 1.0) * (1.0 + r * r)

    r_star = _bisect(lambda r: d(r) > 0, 1e-12, 1.0)
    m = (1.0 + r_star ** 2) / (1.0 + r_star ** g)
    return eta * m


def weighted_mean(medium, u0):
    """Mean of u0 with respect to rho over the grid box.

    Returns (E, tail_bound) where the bound is sup|u0| times the off-box rho
    mass over the on-box mass, the truncation budget for tests.
    """
    cls = classify(medium)
    if cls.integrable is not True:
        raise MediumError("E_rho undefined: the medium is not integrable")
    grid = u0.grid
    w = _rho_weights(grid, medium.sample(grid))
    on_box = grid.spacing ** grid.dim * float(np.sum(w))
    if on_box <= 0:
        raise MediumError("degenerate on-box medium mass")
    # the expression of a run's distance target, so E equals it bit for bit
    E = np.sum(w * u0.values) / float(np.sum(w))
    if cls.total_mass is None or not math.isfinite(cls.total_mass):
        tail = math.inf
    else:
        off_box = max(0.0, cls.total_mass - on_box)
        tail = float(np.max(np.abs(u0.values))) * off_box / on_box
    return float(E), float(tail)
