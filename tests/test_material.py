"""Nearly incompressible neo-Hookean material model and calibration."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pneusoft import material

from conftest import lagrangian_tensor, rotation

PARAMS = material.HyperelasticParams(c10=0.24)


def _random_gradients(n, seed, spread=0.3):
    """Seeded deformation gradients with det in [0.8, 1.2]."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        f = np.eye(3) + spread * rng.standard_normal((3, 3))
        if 0.8 <= np.linalg.det(f) <= 1.2:
            out.append(f)
    return np.array(out)


def test_params_validation():
    with pytest.raises(ValueError):
        material.HyperelasticParams(c10=0.0)
    with pytest.raises(ValueError):
        material.HyperelasticParams(c10=-0.1)
    with pytest.raises(ValueError):
        material.HyperelasticParams(c10=0.24, kappa=0.24 * 99.0)
    p = material.HyperelasticParams(c10=0.24)
    assert p.kappa == pytest.approx(240.0, rel=1e-15)
    assert material.DEFAULT_C10 == 0.24
    assert material.MIN_KAPPA_RATIO == 100.0


def _i1bar(f):
    """First invariant of the isochoric C, J^(-2/3) tr(F^T F)."""
    return np.linalg.det(f) ** (-2.0 / 3.0) * np.einsum("...ij,...ij->...", f, f)


@pytest.mark.parametrize("func", [
    material.strain_energy, material.cauchy_stress, material.pk2_stress,
    material.lagrangian_tangent,
], ids=lambda func: func.__name__)
def test_constitutive_input_validation(func):
    with pytest.raises(material.InvalidDeformation):
        func(PARAMS, np.zeros((3, 3)))
    with pytest.raises(material.InvalidDeformation):
        func(PARAMS, -np.eye(3))
    with pytest.raises(ValueError):
        func(PARAMS, np.eye(2))
    # a 4 x 3 "gradient" is not a stack of 3 x 3 ones
    with pytest.raises(ValueError, match=r"\(\.\.\., 3, 3\)"):
        func(PARAMS, np.vstack([np.eye(3), [[0.1, 0.2, 0.3]]]))


@pytest.mark.parametrize("shape", [(), (7,), (5, 4)], ids=str)
def test_kinematics_match_linear_algebra(shape):
    # J, C^-1 and I1, written out on the components of F, agree with
    # LAPACK on every stack shape the kernels pass: C^-1 as returned by
    # the tangent, J and I1 through the energy at two penalty ratios
    n = math.prod(shape)
    fs = _random_gradients(n, seed=20 + n).reshape(shape + (3, 3))
    c = fs.swapaxes(-1, -2) @ fs
    want = np.linalg.inv(c)
    cinv = material.lagrangian_tangent(PARAMS, fs)[1]
    assert cinv.shape == fs.shape
    assert np.all(np.abs(cinv - want).max(axis=(-2, -1))
                  <= 1e-13 * np.abs(want).max(axis=(-2, -1)))
    j, i1 = np.linalg.det(fs), np.trace(c, axis1=-2, axis2=-1)
    for params in (PARAMS, material.HyperelasticParams(c10=0.24, kappa=24.0)):
        w = material.strain_energy(params, fs)
        ref = (params.c10 * (j ** (-2.0 / 3.0) * i1 - 3.0)
               + 0.5 * params.kappa * (j - 1.0) ** 2)
        assert np.shape(w) == shape
        assert np.all(np.abs(w - ref) <= 1e-13 * ref)


def test_energy_reference_and_simple_states():
    assert material.strain_energy(PARAMS, np.eye(3)) == 0.0
    assert np.allclose(material.cauchy_stress(PARAMS, np.eye(3)), 0.0,
                       atol=1e-15)

    # isochoric uniaxial stretch lambda = 2: i1bar = 4 + 2/2 = 5
    f = np.diag([2.0, 2.0 ** -0.5, 2.0 ** -0.5])
    assert material.strain_energy(PARAMS, f) == pytest.approx(0.48, rel=1e-12)

    # simple shear gamma = 1 is isochoric with i1bar = 4
    f = np.eye(3)
    f[0, 1] = 1.0
    assert material.strain_energy(PARAMS, f) == pytest.approx(0.24, rel=1e-12)


def test_rotation_is_stress_free():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        q = rotation(rng.standard_normal(3), rng.uniform(0.1, 3.0))
        assert _i1bar(q) >= 3.0 - 1e-12
        assert abs(material.strain_energy(PARAMS, q)) < 1e-12
        assert np.all(np.abs(material.cauchy_stress(PARAMS, q)) < 1e-10)


def test_i1bar_lower_bound():
    fs = _random_gradients(200, seed=5)
    assert np.all(_i1bar(fs) >= 3.0 - 1e-12)


def test_isotropy_and_objectivity():
    fs = _random_gradients(30, seed=6)
    rng = np.random.default_rng(7)
    for f in fs:
        q = rotation(rng.standard_normal(3), rng.uniform(0.1, 3.0))
        w = material.strain_energy(PARAMS, f)
        # material isotropy: rotating the reference does not change energy
        w_iso = material.strain_energy(PARAMS, f @ q)
        assert w_iso == pytest.approx(w, rel=1e-12, abs=1e-14)
        # frame indifference: superposed rotation conjugates the stress
        sig = material.cauchy_stress(PARAMS, f)
        sig_rot = material.cauchy_stress(PARAMS, q @ f)
        assert np.allclose(sig_rot, q @ sig @ q.T, rtol=1e-10, atol=1e-12)


def test_uniaxial_stress_near_incompressible_target():
    # lateral stretch solved so the transverse stress vanishes; the
    # incompressible-limit value at lambda = 2 is 2*c10*(4 - 1/2) = 1.68
    def lateral_residual(t):
        return material.cauchy_stress(PARAMS, np.diag([2.0, t, t]))[1, 1]

    t = brentq(lateral_residual, 0.3, 1.5, xtol=1e-14)
    sigma = material.cauchy_stress(PARAMS, np.diag([2.0, t, t]))
    assert abs(sigma[0, 0] - 1.68) / 1.68 < 0.01
    assert abs(sigma[1, 1]) < 1e-10
    assert abs(sigma[2, 2]) < 1e-10


def test_uniaxial_converges_with_penalty_ratio():
    # stiffer volumetric penalty drives the axial stress to the limit
    def axial_stress(ratio):
        params = material.HyperelasticParams(c10=0.24, kappa=0.24 * ratio)

        def lateral_residual(t):
            return material.cauchy_stress(params, np.diag([2.0, t, t]))[1, 1]

        t = brentq(lateral_residual, 0.3, 1.5, xtol=1e-14)
        return material.cauchy_stress(params, np.diag([2.0, t, t]))[0, 0]

    ratios = (100.0, 316.0, 1000.0, 3162.0, 10000.0, 100000.0)
    errors = [abs(axial_stress(r) - 1.68) / 1.68 for r in ratios]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[2] < 0.01


def test_cauchy_stress_is_energy_gradient():
    fs = _random_gradients(100, seed=20260814)
    h = 1e-6
    p_fd = np.zeros_like(fs)
    for i in range(3):
        for j in range(3):
            fp = fs.copy()
            fm = fs.copy()
            fp[:, i, j] += h
            fm[:, i, j] -= h
            wp = material.strain_energy(PARAMS, fp)
            wm = material.strain_energy(PARAMS, fm)
            p_fd[:, i, j] = (wp - wm) / (2.0 * h)

    p = fs @ material.pk2_stress(PARAMS, fs)
    sig = material.cauchy_stress(PARAMS, fs)
    sig_fd = np.einsum("nij,nkj->nik", p_fd, fs) / np.linalg.det(fs)[:, None, None]
    scale = np.abs(sig).max(axis=(1, 2)) + 1e-30
    assert np.max(np.abs(p - p_fd).max(axis=(1, 2)) / scale) < 1e-6
    assert np.max(np.abs(sig - sig_fd).max(axis=(1, 2)) / scale) < 1e-6


def test_stress_measures_are_consistent():
    fs = _random_gradients(50, seed=9)
    s = material.pk2_stress(PARAMS, fs)
    sig = material.cauchy_stress(PARAMS, fs)
    push = np.einsum("nij,njk,nlk->nil", fs, s, fs) / np.linalg.det(fs)[:, None, None]
    assert np.allclose(sig, push, rtol=1e-10, atol=1e-12)
    # both stress tensors are symmetric
    assert np.allclose(s, np.swapaxes(s, 1, 2), rtol=1e-10, atol=1e-12)
    assert np.allclose(sig, np.swapaxes(sig, 1, 2), rtol=1e-10, atol=1e-12)


def test_tangent_matches_stress_differences():
    fs = _random_gradients(100, seed=10)
    rng = np.random.default_rng(13)
    dfs = rng.standard_normal(fs.shape)
    dfs /= np.linalg.norm(dfs, axis=(1, 2))[:, None, None]
    h = 1e-5
    cc = lagrangian_tensor(*material.lagrangian_tangent(PARAMS, fs)[1:])
    dc = (np.einsum("nki,nkj->nij", dfs, fs)
          + np.einsum("nki,nkj->nij", fs, dfs))
    ds_pred = 0.5 * np.einsum("nijkl,nkl->nij", cc, dc)
    ds_fd = (material.pk2_stress(PARAMS, fs + h * dfs)
             - material.pk2_stress(PARAMS, fs - h * dfs)) / (2.0 * h)
    scale = np.abs(ds_fd).max(axis=(1, 2)) + 1e-30
    assert np.max(np.abs(ds_pred - ds_fd).max(axis=(1, 2)) / scale) < 1e-6


def test_tangent_symmetries_and_alias():
    fs = _random_gradients(10, seed=14)
    s, cinv, moduli = material.lagrangian_tangent(PARAMS, fs)
    assert np.array_equal(s, material.pk2_stress(PARAMS, fs))
    assert np.allclose(cinv, np.linalg.inv(fs.swapaxes(1, 2) @ fs),
                       rtol=1e-12, atol=1e-14)
    assert all(m.shape == (len(fs),) for m in moduli)
    cc = lagrangian_tensor(cinv, moduli)
    assert np.allclose(cc, np.einsum("nijkl->njikl", cc),
                       rtol=1e-10, atol=1e-12)
    assert np.allclose(cc, np.einsum("nijkl->nijlk", cc),
                       rtol=1e-10, atol=1e-12)
    assert np.allclose(cc, np.einsum("nijkl->nklij", cc),
                       rtol=1e-10, atol=1e-12)


def test_rigid_increment_rotates_stress():
    # dF = Omega F gives dC = 0, so the tangent term drops out and the
    # nominal stress increment is the pure rotation Omega P
    fs = _random_gradients(20, seed=15)
    rng = np.random.default_rng(16)
    s = material.pk2_stress(PARAMS, fs)
    p = fs @ s
    cc = lagrangian_tensor(*material.lagrangian_tangent(PARAMS, fs)[1:])
    for n in range(len(fs)):
        w = rng.standard_normal(3)
        omega = np.array([[0.0, -w[2], w[1]],
                          [w[2], 0.0, -w[0]],
                          [-w[1], w[0], 0.0]])
        df = omega @ fs[n]
        dc = df.T @ fs[n] + fs[n].T @ df
        ds = 0.5 * np.einsum("ijkl,kl->ij", cc[n], dc)
        dp = df @ s[n] + fs[n] @ ds
        expected = omega @ p[n]
        assert np.allclose(dp, expected, rtol=1e-9, atol=1e-10)


def _cylinder_expansion(c10, pressures):
    """Closed-form thick-wall inflation used as a calibration target."""
    from pneusoft import verify

    return np.array([
        verify.cylinder_inner_radius_mm(p, c10_mpa=c10) - 5.0
        for p in pressures
    ])


def test_cylinder_inverse_reaches_past_four_bore_radii():
    # a 10 mm tube with a 4 mm wall: the closed form passes 688 kPa at a
    # 4 mm bore and tends to 2 c10 ln(5) = 772.53 kPa as the bore grows
    from pneusoft import geometry, verify

    spec = geometry.ActuatorSpec(kind="tube", width=10.0, wall=4.0)
    for p in (700.0, 770.0):
        a = verify.cylinder_inner_radius_mm(p, spec, 0.24)
        assert a > 4.0
        assert verify.cylinder_pressure_kpa(a, spec, 0.24) == pytest.approx(
            p, rel=1e-12)
    with pytest.raises(ValueError, match=r"772\.6 kPa: it tends to .* = "
                                         r"772\.53 kPa"):
        verify.cylinder_inner_radius_mm(772.6, spec, 0.24)
    # a NaN radius or c10 used to come back as a nan pressure or radius
    with pytest.raises(ValueError, match="deformed inner radius .* got nan"):
        verify.cylinder_pressure_kpa(math.nan, spec, 0.24)
    with pytest.raises(ValueError, match="c10_mpa"):
        verify.cylinder_inner_radius_mm(10.0, spec, math.nan)


def test_calibrate_recovers_generating_constant():
    pressures = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    observed = _cylinder_expansion(0.30, pressures)
    fit = material.calibrate_c10(pressures, observed, _cylinder_expansion)
    assert abs(fit - 0.30) < 0.003


def test_calibrate_single_point_zero_residual():
    pressures = np.array([30.0])
    observed = _cylinder_expansion(0.30, pressures)
    fit = material.calibrate_c10(pressures, observed, _cylinder_expansion)
    residual = _cylinder_expansion(fit, pressures) - observed
    # residual floor is set by the scalar-search tolerance, not the model
    assert abs(residual[0]) < 1e-4
    assert abs(fit - 0.30) < 0.003


def test_calibrate_warns_at_bound():
    # data generated outside the search interval pins the fit to a bound
    def linear_model(c10, pressures):
        return np.asarray(pressures) / c10

    pressures = np.array([10.0, 20.0, 30.0])
    observed = linear_model(5.0, pressures)
    with pytest.warns(UserWarning):
        fit = material.calibrate_c10(pressures, observed, linear_model)
    assert fit == pytest.approx(2.0, rel=1e-2)


def test_calibrate_input_validation():
    with pytest.raises(ValueError):
        material.calibrate_c10([], [], _cylinder_expansion)
    with pytest.raises(ValueError):
        material.calibrate_c10([10.0, 20.0], [0.1], _cylinder_expansion)
    with pytest.raises(ValueError):
        material.calibrate_c10([10.0], [np.nan], _cylinder_expansion)
    with pytest.raises(ValueError):
        material.calibrate_c10([10.0], _cylinder_expansion(0.3, [10.0]),
                               _cylinder_expansion, bounds=(0.5, 0.1))
