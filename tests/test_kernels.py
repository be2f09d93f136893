import math

import numpy as np
import pytest
from scipy import special

from isoflow import Kernel, KernelError, discretize, stencil_second_moment


def brute_second_moment(stencil):
    # independent accumulation, plain python loop
    total = 0.0
    for off, w in zip(stencil.offsets, stencil.weights):
        r2 = sum((float(o) * stencil.spacing) ** 2 for o in off)
        total += w * r2
    return total


class TestEval:
    def test_gaussian_at_zero(self):
        k = Kernel.gaussian(1.0)
        assert k.eval(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_uniform_ball_values(self):
        k = Kernel.uniform_ball(1.0)
        assert k.eval(0.5) == pytest.approx(0.5)
        assert k.eval(1.5) == 0.0
        # midpoint convention exactly on the rim
        assert k.eval(1.0) == pytest.approx(0.25)

    def test_laplace_at_zero(self):
        assert Kernel.laplace(1.0).eval(0.0) == pytest.approx(0.5)

    def test_radial_symmetry_1d(self):
        k = Kernel.gaussian(0.7)
        xs = np.linspace(0.1, 3.0, 17)
        assert np.array_equal(k.eval(xs), k.eval(-xs))

    def test_radial_symmetry_2d_rotations(self):
        k = Kernel.laplace(0.8, dim=2)
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((50, 2))
        base = k.eval(pts)
        for theta in (0.3, 1.1, 2.5):
            R = np.array([[np.cos(theta), -np.sin(theta)],
                          [np.sin(theta), np.cos(theta)]])
            rotated = k.eval(pts @ R.T)
            np.testing.assert_allclose(rotated, base, rtol=1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(KernelError):
            Kernel.gaussian(-1.0)
        with pytest.raises(KernelError):
            Kernel.uniform_ball(0.0)
        with pytest.raises(KernelError):
            Kernel.laplace(0.0)

    @pytest.mark.parametrize("make", [Kernel.gaussian, Kernel.laplace, Kernel.uniform_ball])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, make, value):
        with pytest.raises(KernelError, match="finite"):
            make(value)


class TestMoments:
    @pytest.mark.parametrize("kernel,second", [
        (Kernel.gaussian(1.0), 1.0),
        (Kernel.uniform_ball(1.0), 1.0 / 3.0),
        (Kernel.laplace(1.0), 2.0),
        (Kernel.gaussian(2.0), 4.0),
    ])
    def test_closed_forms_1d(self, kernel, second):
        mass, mean, v = kernel.moments()
        assert mass == pytest.approx(1.0)
        assert np.all(mean == 0.0)
        assert v == pytest.approx(second, rel=1e-12)

    @pytest.mark.parametrize("kernel,second", [
        (Kernel.gaussian(1.0, dim=2), 2.0),
        (Kernel.uniform_ball(1.0, dim=2), 0.5),
        (Kernel.laplace(1.0, dim=2), 6.0),
    ])
    def test_closed_forms_2d(self, kernel, second):
        mass, mean, v = kernel.moments()
        assert mass == pytest.approx(1.0)
        assert v == pytest.approx(second, rel=1e-12)

    def test_2d_moments_against_quadrature(self):
        # brute polar quadrature as an independent oracle
        from scipy import integrate
        for kern in (Kernel.gaussian(1.3, dim=2), Kernel.laplace(0.9, dim=2)):
            mass_q = 2 * math.pi * integrate.quad(
                lambda r: r * kern.eval_radius(r), 0, 60)[0]
            v_q = 2 * math.pi * integrate.quad(
                lambda r: r ** 3 * kern.eval_radius(r), 0, 60)[0]
            assert kern.moments()[0] == pytest.approx(mass_q, rel=1e-9)
            assert kern.moments()[2] == pytest.approx(v_q, rel=1e-9)

    def test_tabulated_matches_sampled_family(self):
        base = Kernel.laplace(1.0)
        radii = np.linspace(0.0, 40.0, 20001)
        tab = Kernel.tabulated(radii, base.eval_radius(radii), mass_tol=1e-5)
        mass, _, v = tab.moments()
        assert mass == pytest.approx(1.0, abs=1e-5)
        assert v == pytest.approx(2.0, rel=1e-4)

    def test_tabulated_bad_mass_rejected(self):
        with pytest.raises(KernelError, match="mass"):
            Kernel.tabulated([0.0, 1.0], [1.0, 1.0])


class TestTruncation:
    def test_gaussian_truncation_radius_erfc_oracle(self):
        k = Kernel.gaussian(1.0)
        R = k.truncation_radius(1e-12)
        assert R >= 7.0
        # erfc oracle: the reported radius carries exactly the target tail
        assert special.erfc(R / math.sqrt(2.0)) == pytest.approx(1e-12, rel=1e-6)

    def test_uniform_truncation_is_support(self):
        assert Kernel.uniform_ball(2.5).truncation_radius(1e-12) == 2.5

    def test_outside_mass_monotone(self):
        k = Kernel.laplace(1.0, dim=2)
        rs = np.linspace(0.5, 20, 40)
        masses = [k.outside_mass(r) for r in rs]
        assert all(a >= b for a, b in zip(masses, masses[1:]))


class TestDiscretize:
    def test_uniform_ball_half_spacing(self):
        # hand-computable midpoint quadrature of the constant density
        s = discretize(Kernel.uniform_ball(1.0), 0.5, policy="raw")
        assert sorted(s.offsets.ravel().tolist()) == [-2, -1, 0, 1, 2]
        interior = s.weights[np.abs(s.offsets.ravel()) < 2]
        rim = s.weights[np.abs(s.offsets.ravel()) == 2]
        np.testing.assert_allclose(interior, 0.25)
        np.testing.assert_allclose(rim, 0.125)
        s_renorm = discretize(Kernel.uniform_ball(1.0), 0.5)
        assert s_renorm.weight_sum() == 1.0

    def test_gaussian_truncation_radius_seven_sigma(self):
        s = discretize(Kernel.gaussian(1.0), 0.1, trunc_tol=1e-12)
        assert s.truncation_radius >= 7.0

    @pytest.mark.parametrize("kernel", [
        Kernel.gaussian(1.0), Kernel.laplace(1.0), Kernel.uniform_ball(1.0),
        Kernel.gaussian(0.8, dim=2),
    ])
    def test_renormalized_sum_exact(self, kernel):
        s = discretize(kernel, 0.1)
        assert s.weight_sum() == 1.0

    def test_raw_mass_near_one(self):
        s = discretize(Kernel.gaussian(1.0), 0.25, policy="raw", trunc_tol=1e-10)
        assert 1.0 - 1e-9 < s.weight_sum() <= 1.0 + 1e-12

    def test_weights_nonnegative_and_negation_symmetric(self):
        for kern in (Kernel.gaussian(1.0, dim=2), Kernel.laplace(1.0)):
            s = discretize(kern, 0.2, trunc_tol=1e-10)
            assert np.all(s.weights >= 0)
            lookup = {tuple(o): w for o, w in zip(s.offsets, s.weights)}
            for off, w in lookup.items():
                neg = tuple(-o for o in off)
                assert lookup[neg] == w  # bitwise equal

    def test_offset_cap_error(self):
        with pytest.raises(KernelError, match="coarser"):
            discretize(Kernel.gaussian(1.0), 1e-5, max_offsets=1000)

    def test_bad_policy_and_spacing(self):
        with pytest.raises(KernelError):
            discretize(Kernel.gaussian(1.0), -0.1)
        with pytest.raises(KernelError):
            discretize(Kernel.gaussian(1.0), 0.1, policy="clip")


class TestSecondMoment:
    def test_delta_stencil_is_zero(self):
        s = discretize(Kernel.uniform_ball(0.4), 1.0)
        assert len(s) == 1
        assert stencil_second_moment(s) == 0.0

    def test_matches_brute_force(self):
        s = discretize(Kernel.gaussian(1.0, dim=2), 0.25, trunc_tol=1e-8)
        assert stencil_second_moment(s) == pytest.approx(brute_second_moment(s),
                                                         rel=1e-12)

    def test_uniform_ball_second_order_in_h(self):
        # (compare against moments() at h in {0.1, 0.05, 0.025})
        V = Kernel.uniform_ball(1.0).second_moment()
        errs = [abs(stencil_second_moment(discretize(Kernel.uniform_ball(1.0), h)) - V)
                for h in (0.1, 0.05, 0.025)]
        assert errs[0] > errs[1] > errs[2]
        for a, b in zip(errs, errs[1:]):
            assert math.log2(a / b) == pytest.approx(2.0, abs=0.05)

    def test_gaussian_sigma2_fine_h(self):
        s = discretize(Kernel.gaussian(2.0), 0.1)
        assert stencil_second_moment(s) == pytest.approx(4.0, rel=1e-10)

    def test_laplace_refinement_monotone(self):
        V = Kernel.laplace(1.0).second_moment()
        errs = [abs(stencil_second_moment(discretize(Kernel.laplace(1.0), h,
                                                     trunc_tol=1e-14)) - V)
                for h in (0.2, 0.1, 0.05)]
        assert errs[0] > errs[1] > errs[2]
