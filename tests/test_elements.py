"""Quadrature rules and shape functions for the quadratic elements."""

import math

import numpy as np

from pneusoft import elements

# natural coordinates of the ten tetrahedron nodes (corners then the
# midpoints of edges (0,1),(1,2),(0,2),(0,3),(1,3),(2,3))
TET10_NATURAL = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.5, 0.0, 0.0],
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.0],
    [0.0, 0.0, 0.5],
    [0.5, 0.0, 0.5],
    [0.0, 0.5, 0.5],
])

TRI6_NATURAL = np.array([
    [0.0, 0.0],
    [1.0, 0.0],
    [0.0, 1.0],
    [0.5, 0.0],
    [0.5, 0.5],
    [0.0, 0.5],
])


def _tet_monomial_integral(a, b, c):
    # exact integral of xi^a eta^b zeta^c over the reference tetrahedron
    return (math.factorial(a) * math.factorial(b) * math.factorial(c)
            / math.factorial(a + b + c + 3))


def _tri_monomial_integral(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_tet_quadrature_integrates_quadratics_exactly():
    pts, wts = elements.tet_quadrature()
    assert pts.shape == (4, 3)
    assert wts.shape == (4,)
    assert abs(wts.sum() - 1.0 / 6.0) < 1e-15
    for a in range(3):
        for b in range(3 - a):
            for c in range(3 - a - b):
                approx = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b
                                * pts[:, 2] ** c)
                exact = _tet_monomial_integral(a, b, c)
                assert abs(approx - exact) < 1e-15, (a, b, c)


def test_tri_quadrature_integrates_quartics_exactly():
    pts, wts = elements.tri_quadrature()
    assert pts.shape == (6, 2)
    assert abs(wts.sum() - 0.5) < 1e-15
    for a in range(5):
        for b in range(5 - a):
            approx = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
            exact = _tri_monomial_integral(a, b)
            assert abs(approx - exact) < 1e-15, (a, b)


def test_tet10_shapes_interpolate():
    vals = elements.tet10_shape(TET10_NATURAL)
    assert np.allclose(vals, np.eye(10), atol=1e-14)
    rng = np.random.default_rng(3)
    pts = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=50)[:, :3]
    vals = elements.tet10_shape(pts)
    assert np.allclose(vals.sum(axis=-1), 1.0, atol=1e-14)
    grads = elements.tet10_shape_grad(pts)
    assert np.allclose(grads.sum(axis=-2), 0.0, atol=1e-13)


def test_tri6_shapes_interpolate():
    vals = elements.tri6_shape(TRI6_NATURAL)
    assert np.allclose(vals, np.eye(6), atol=1e-14)
    rng = np.random.default_rng(4)
    pts = rng.dirichlet((1.0, 1.0, 1.0), size=50)[:, :2]
    vals = elements.tri6_shape(pts)
    assert np.allclose(vals.sum(axis=-1), 1.0, atol=1e-14)
    grads = elements.tri6_shape_grad(pts)
    assert np.allclose(grads.sum(axis=-2), 0.0, atol=1e-13)


def test_tet10_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    pts = rng.dirichlet((2.0, 2.0, 2.0, 2.0), size=20)[:, :3]
    grads = elements.tet10_shape_grad(pts)
    h = 1e-6
    for axis in range(3):
        dp = np.zeros(3)
        dp[axis] = h
        fd = (elements.tet10_shape(pts + dp)
              - elements.tet10_shape(pts - dp)) / (2.0 * h)
        assert np.allclose(grads[..., axis], fd, atol=1e-8)


def test_tri6_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    pts = rng.dirichlet((2.0, 2.0, 2.0), size=20)[:, :2]
    grads = elements.tri6_shape_grad(pts)
    h = 1e-6
    for axis in range(2):
        dp = np.zeros(2)
        dp[axis] = h
        fd = (elements.tri6_shape(pts + dp)
              - elements.tri6_shape(pts - dp)) / (2.0 * h)
        assert np.allclose(grads[..., axis], fd, atol=1e-8)
