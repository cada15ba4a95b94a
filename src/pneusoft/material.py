"""Nearly incompressible Neo-Hookean material for silicone actuator walls.

Energy density (mm-N-MPa units):

    W = c10 * (I1bar - 3) + kappa / 2 * (J - 1)**2

with I1bar the first invariant of the isochoric right Cauchy-Green
tensor and J = det F.  The volumetric term is a penalty that enforces
near-incompressibility; by default kappa = 1000 * c10.

Every constitutive function takes stacked deformation gradients F of
shape (..., 3, 3), returns correspondingly stacked results and checks F
in ``_kinematics``: ValueError for another shape, InvalidDeformation
for det F <= 0.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .checks import check_fields

DEFAULT_C10 = 0.24        # MPa, cast silicone used for all actuators
DEFAULT_KAPPA_RATIO = 1000.0
MIN_KAPPA_RATIO = 100.0

_EYE = np.eye(3)


class InvalidDeformation(ValueError):
    """Raised when a deformation gradient has non-positive det F."""


@dataclass(frozen=True)
class HyperelasticParams:
    """Material constants: shear-like coefficient c10 and bulk penalty kappa.

    kappa defaults to 1000 * c10.  Ratios below 100 are rejected because
    the volumetric coupling would no longer approximate incompressibility.
    """

    c10: float
    kappa: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        check_fields(self, positive="c10 kappa")
        if self.kappa is None:
            object.__setattr__(self, "kappa", DEFAULT_KAPPA_RATIO * self.c10)
        if self.kappa / self.c10 < MIN_KAPPA_RATIO:
            raise ValueError(
                f"kappa/c10 = {self.kappa / self.c10:.3g} is below the "
                f"minimum ratio {MIN_KAPPA_RATIO:g}"
            )


def strain_energy(params, f):
    """Energy density W >= 0 of stacked gradients, zero exactly at the identity."""
    j, _, i1 = _kinematics(f)
    return (params.c10 * (j ** (-2.0 / 3.0) * i1 - 3.0)
            + 0.5 * params.kappa * (j - 1.0) ** 2)


def cauchy_stress(params, f):
    """Cauchy stress, symmetric, (..., 3, 3).

    Deviatoric part 2*c10/J^(5/3) * dev(B) plus pressure kappa*(J-1)*I.
    """
    f, j = np.asarray(f, dtype=float), _kinematics(f)[0]
    b = np.einsum("...ik,...jk->...ij", f, f)
    dev_b = b - (np.einsum("...ii->...", b) / 3.0)[..., None, None] * _EYE
    sig = 2.0 * params.c10 * j[..., None, None] ** (-5.0 / 3.0) * dev_b
    return sig + (params.kappa * (j - 1.0))[..., None, None] * _EYE


def _kinematics(f):
    """(J, C^-1, I1) of stacked gradients; ValueError unless their shape
    is (..., 3, 3), InvalidDeformation unless J > 0.

    J is the cofactor expansion of det F along its first row, and C^-1
    the cofactor matrix of the symmetric C over det C = J^2, all written
    out on the nine component arrays of F.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-2:] != (3, 3):
        raise ValueError(f"deformation gradient must be (..., 3, 3), got {f.shape}")
    # one contiguous (9, n) copy, so that every component is a flat array
    f00, f01, f02, f10, f11, f12, f20, f21, f22 = \
        f.reshape(-1, 9).T.copy().reshape((9,) + f.shape[:-2])
    # pairing the terms as (0 + 2) + 1, as numpy's einsum sums a row of
    # three, gives det F bit for bit as einsum(f0, cross(f1, f2)) does
    j = (f00 * (f11 * f22 - f12 * f21) + f02 * (f10 * f21 - f11 * f20)
         + f01 * (f12 * f20 - f10 * f22))
    if np.any(j <= 0.0):
        raise InvalidDeformation(f"det F must be positive, min is {np.min(j):.3g}")
    c00 = f00 * f00 + f10 * f10 + f20 * f20
    c11 = f01 * f01 + f11 * f11 + f21 * f21
    c22 = f02 * f02 + f12 * f12 + f22 * f22
    c01 = f00 * f01 + f10 * f11 + f20 * f21
    c02 = f00 * f02 + f10 * f12 + f20 * f22
    c12 = f01 * f02 + f11 * f12 + f21 * f22
    jj = j * j
    cinv = np.empty(f.shape)
    cinv[..., 0, 0] = (c11 * c22 - c12 * c12) / jj
    cinv[..., 1, 1] = (c00 * c22 - c02 * c02) / jj
    cinv[..., 2, 2] = (c00 * c11 - c01 * c01) / jj
    cinv[..., 0, 1] = cinv[..., 1, 0] = (c02 * c12 - c01 * c22) / jj
    cinv[..., 0, 2] = cinv[..., 2, 0] = (c01 * c12 - c02 * c11) / jj
    cinv[..., 1, 2] = cinv[..., 2, 1] = (c01 * c02 - c00 * c12) / jj
    return j, cinv, c00 + c11 + c22


def _pk2(params, j, cinv, i1):
    s = 2.0 * params.c10 * (j ** (-2.0 / 3.0))[..., None, None] * (
        _EYE - (i1 / 3.0)[..., None, None] * cinv)
    s += (params.kappa * (j - 1.0) * j)[..., None, None] * cinv
    return s


def pk2_stress(params, f):
    """Second Piola-Kirchhoff stress from stacked gradients (..., 3, 3)."""
    return _pk2(params, *_kinematics(f))


def lagrangian_tangent(params, f):
    """(S, C^-1, (a, b, c)) from one evaluation of J, C^-1 and I1.

    S is exactly ``pk2_stress``.  The Lagrangian elasticity tensor
    2 dS/dC of this energy is

        CC = a C^-1 (x) C^-1 - b (I (x) C^-1 + C^-1 (x) I) + c C^-1 (.) C^-1

    with (C^-1 (.) C^-1)_IJKL = (C^-1_IK C^-1_JL + C^-1_IL C^-1_JK) / 2 and
    the three moduli, each of the shape of J,

        b = 4 c10 / 3 J^(-2/3),
        a = b I1 / 3 + kappa J (2 J - 1),
        c = b I1 - 2 kappa J (J - 1),

    so the solver contracts them without forming the 81 entries of CC.
    """
    j, cinv, i1 = _kinematics(f)
    b = (4.0 * params.c10 / 3.0) * j ** (-2.0 / 3.0)
    a = b * i1 / 3.0 + params.kappa * j * (2.0 * j - 1.0)
    c = b * i1 - 2.0 * params.kappa * j * (j - 1.0)
    return _pk2(params, j, cinv, i1), cinv, (a, b, c)


def calibrate_c10(pressures, displacements, forward_model,
                  bounds=(0.01, 2.0), xatol=2.5e-4):
    """Fit c10 to pressure-displacement observations.

    ``forward_model(c10, pressures)`` must return predicted displacements
    for the observation pressures.  The sum of squared residuals is
    minimized by bounded scalar search; the bracket is tightened below
    1e-3 MPa.  Hitting either search bound raises a warning because the
    optimum then sits outside the trusted range.
    """
    p = np.atleast_1d(np.asarray(pressures, dtype=float))
    d = np.atleast_1d(np.asarray(displacements, dtype=float))
    if p.size == 0 or d.size == 0:
        raise ValueError("calibration needs at least one observation")
    if p.shape != d.shape:
        raise ValueError(f"pressure/displacement shape mismatch: {p.shape} vs {d.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(d))):
        raise ValueError("observations must be finite")

    def sse(c10):
        r = np.asarray(forward_model(c10, p), dtype=float) - d
        return float(np.dot(r.ravel(), r.ravel()))

    res = minimize_scalar(sse, bounds=bounds, method="bounded",
                          options={"xatol": xatol})
    c10 = float(res.x)
    margin = max(4.0 * xatol, 1e-3)
    if c10 - bounds[0] < margin or bounds[1] - c10 < margin:
        warnings.warn(
            f"calibrated c10 = {c10:.4g} MPa sits at a search bound "
            f"{bounds}; widen the bounds or check the data",
            stacklevel=2,
        )
    return c10
