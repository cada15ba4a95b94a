"""Shape functions and quadrature for 10-node tetrahedra and 6-node triangles.

Node ordering follows the common convention: corner nodes first, then
mid-edge nodes.  For the tetrahedron the mid-edge nodes sit on edges
(0,1), (1,2), (0,2), (0,3), (1,3), (2,3); for the triangle on edges
(0,1), (1,2), (2,0).  Mid-edge nodes are placed at geometric midpoints,
so element edges are straight and the reference-to-physical map of a
well-shaped element has constant Jacobian.  ``tet10_jacobian`` and
``tri6_tangents`` evaluate that map at the quadrature points for the
solver and the mesh checks alike.
"""

import numpy as np

# corner pairs of the mid-nodes, in local node order after the corners
TET10_EDGES = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3))
TRI6_EDGES = ((0, 1), (1, 2), (2, 0))

def tet10_shape(points):
    """Shape functions at natural coordinates ``points`` (n, 3) -> (n, 10)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xi, eta, zeta = pts[:, 0], pts[:, 1], pts[:, 2]
    l1 = 1.0 - xi - eta - zeta
    l2, l3, l4 = xi, eta, zeta
    n = np.empty((pts.shape[0], 10))
    n[:, 0] = l1 * (2.0 * l1 - 1.0)
    n[:, 1] = l2 * (2.0 * l2 - 1.0)
    n[:, 2] = l3 * (2.0 * l3 - 1.0)
    n[:, 3] = l4 * (2.0 * l4 - 1.0)
    n[:, 4] = 4.0 * l1 * l2
    n[:, 5] = 4.0 * l2 * l3
    n[:, 6] = 4.0 * l1 * l3
    n[:, 7] = 4.0 * l1 * l4
    n[:, 8] = 4.0 * l2 * l4
    n[:, 9] = 4.0 * l3 * l4
    return n


def tet10_shape_grad(points):
    """Shape function gradients d N / d (xi, eta, zeta) -> (n, 10, 3)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xi, eta, zeta = pts[:, 0], pts[:, 1], pts[:, 2]
    l1 = 1.0 - xi - eta - zeta
    l2, l3, l4 = xi, eta, zeta
    dl = np.array([[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    g = np.empty((pts.shape[0], 10, 3))
    lam = (l1, l2, l3, l4)
    for i in range(4):
        g[:, i, :] = (4.0 * lam[i] - 1.0)[:, None] * dl[i]
    for k, (a, b) in enumerate(TET10_EDGES):
        g[:, 4 + k, :] = 4.0 * (lam[b][:, None] * dl[a] + lam[a][:, None] * dl[b])
    return g


def tri6_shape(points):
    """Shape functions on the unit triangle, (n, 2) -> (n, 6)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xi, eta = pts[:, 0], pts[:, 1]
    l1 = 1.0 - xi - eta
    l2, l3 = xi, eta
    n = np.empty((pts.shape[0], 6))
    n[:, 0] = l1 * (2.0 * l1 - 1.0)
    n[:, 1] = l2 * (2.0 * l2 - 1.0)
    n[:, 2] = l3 * (2.0 * l3 - 1.0)
    n[:, 3] = 4.0 * l1 * l2
    n[:, 4] = 4.0 * l2 * l3
    n[:, 5] = 4.0 * l3 * l1
    return n


def tri6_shape_grad(points):
    """Gradients d N / d (xi, eta) on the unit triangle -> (n, 6, 2)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xi, eta = pts[:, 0], pts[:, 1]
    l1 = 1.0 - xi - eta
    l2, l3 = xi, eta
    dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    g = np.empty((pts.shape[0], 6, 2))
    lam = (l1, l2, l3)
    for i in range(3):
        g[:, i, :] = (4.0 * lam[i] - 1.0)[:, None] * dl[i]
    for k, (a, b) in enumerate(TRI6_EDGES):
        g[:, 3 + k, :] = 4.0 * (lam[b][:, None] * dl[a] + lam[a][:, None] * dl[b])
    return g


def tet_quadrature():
    """4-point rule on the unit tet, exact through degree 2.

    Weights sum to the reference volume 1/6.
    """
    a = 0.5854101966249685
    b = 0.1381966011250105
    pts = np.array([[a, b, b], [b, a, b], [b, b, a], [b, b, b]])
    w = np.full(4, 1.0 / 24.0)
    return pts, w


def tri_quadrature():
    """6-point rule on the unit triangle, exact through degree 4.

    Weights sum to the reference area 1/2.  Degree 4 keeps the discrete
    resultant and moment of a closed pressurized surface exactly zero for
    quadratic faces.
    """
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts = np.array([
        [a1, a1], [1.0 - 2.0 * a1, a1], [a1, 1.0 - 2.0 * a1],
        [a2, a2], [1.0 - 2.0 * a2, a2], [a2, 1.0 - 2.0 * a2],
    ])
    w = np.array([w1, w1, w1, w2, w2, w2]) * 0.5
    return pts, w


_TET_DN = tet10_shape_grad(tet_quadrature()[0])            # (q, 10, 3)
_TRI_DN = tri6_shape_grad(tri_quadrature()[0])             # (q, 6, 2)


def tet10_jacobian(xe):
    """Jacobians J_md = dX_m / dxi_d of tet10 elements with node
    coordinates ``xe`` (M, 10, 3) at the ``tet_quadrature`` points,
    (M, q, 3, 3)."""
    return np.einsum("eam,qad->eqmd", xe, _TET_DN)


def tri6_tangents(xf):
    """Tangents dX/d(xi, eta) (K, q, 3, 2) of TRI6 faces with node
    coordinates ``xf`` (K, 6, 3) at the ``tri_quadrature`` points, and
    their cross products, the area vectors (K, q, 3)."""
    t = np.einsum("fam,qad->fqmd", xf, _TRI_DN)
    return t, np.cross(t[..., 0], t[..., 1])
