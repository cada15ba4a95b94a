"""Quadrature rules and the quadratic basis of the simplex elements."""

import math

import numpy as np
import pytest

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


# (mid-node edges, natural node coordinates, seeds of the interpolation
# and finite-difference draws) of each element
SIMPLICES = pytest.mark.parametrize("edges, natural, seeds", [
    (elements.TET10_EDGES, TET10_NATURAL, (3, 11)),
    (elements.TRI6_EDGES, TRI6_NATURAL, (4, 12)),
], ids=["tet10", "tri6"])


@SIMPLICES
def test_p2_basis_interpolates(edges, natural, seeds):
    d = natural.shape[1]
    vals, _ = elements.p2_basis(natural, edges)
    assert np.allclose(vals, np.eye(len(natural)), atol=1e-14)
    rng = np.random.default_rng(seeds[0])
    pts = rng.dirichlet(np.ones(d + 1), size=50)[:, :d]
    vals, grads = elements.p2_basis(pts, edges)
    assert np.allclose(vals.sum(axis=-1), 1.0, atol=1e-14)
    assert np.allclose(grads.sum(axis=-2), 0.0, atol=1e-13)


@SIMPLICES
def test_p2_basis_gradients_match_finite_differences(edges, natural, seeds):
    d = natural.shape[1]
    rng = np.random.default_rng(seeds[1])
    pts = rng.dirichlet(np.full(d + 1, 2.0), size=20)[:, :d]
    _, grads = elements.p2_basis(pts, edges)
    h = 1e-6
    for axis in range(d):
        dp = np.zeros(d)
        dp[axis] = h
        fd = (elements.p2_basis(pts + dp, edges)[0]
              - elements.p2_basis(pts - dp, edges)[0]) / (2.0 * h)
        assert np.allclose(grads[..., axis], fd, atol=1e-8)


def test_quadrature_tables_are_the_read_only_basis_at_the_rules():
    qp, w = elements.tet_quadrature()
    assert np.array_equal(elements.TET_QP, qp) and np.array_equal(elements.TET_W, w)
    _, dn = elements.p2_basis(qp, elements.TET10_EDGES)
    assert np.array_equal(elements.TET_DN, dn)
    qp, w = elements.tri_quadrature()
    assert np.array_equal(elements.TRI_QP, qp) and np.array_equal(elements.TRI_W, w)
    n, dn = elements.p2_basis(qp, elements.TRI6_EDGES)
    assert np.array_equal(elements.TRI_N, n) and np.array_equal(elements.TRI_DN, dn)
    tables = (elements.TET_QP, elements.TET_W, elements.TET_DN, elements.TRI_QP,
              elements.TRI_W, elements.TRI_N, elements.TRI_DN)
    assert not any(t.flags.writeable for t in tables)


def test_tri6_tangents_are_the_basis_gradients_and_their_cross_product():
    # the tangents dX/d(xi, eta) = sum_a X_a dN_a/d(xi, eta) and the area
    # vectors t0 x t1, on distorted faces and on an empty face set
    rng = np.random.default_rng(6)
    xf = rng.standard_normal((7, 6, 3))
    t, nvec = elements.tri6_tangents(xf)
    want = np.einsum("fam,qad->fqmd", xf, elements.TRI_DN)
    assert t.shape == want.shape
    assert np.max(np.abs(t - want)) <= 1e-14 * np.max(np.abs(want))
    cross = np.cross(want[..., 0], want[..., 1])
    assert np.max(np.abs(nvec - cross)) <= 1e-14 * np.max(np.abs(cross))
    t, nvec = elements.tri6_tangents(np.empty((0, 6, 3)))
    n_q = len(elements.TRI_W)
    assert t.shape == (0, n_q, 3, 2) and nvec.shape == (0, n_q, 3)
