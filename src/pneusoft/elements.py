"""Shape functions and quadrature for 10-node tetrahedra and 6-node triangles.

Node ordering follows the common convention: corner nodes first, then
mid-edge nodes.  For the tetrahedron the mid-edge nodes sit on edges
(0,1), (1,2), (0,2), (0,3), (1,3), (2,3); for the triangle on edges
(0,1), (1,2), (2,0).  Mid-edge nodes are placed at geometric midpoints,
so element edges are straight and the reference-to-physical map of a
well-shaped element has constant Jacobian.

``p2_basis`` is the one quadratic basis of both elements.  Its tables at
the quadrature points (``TET_QP``, ``TET_W``, ``TET_DN`` and ``TRI_QP``,
``TRI_W``, ``TRI_N``, ``TRI_DN``) are built once at import and read-only;
``tet10_jacobian`` and ``tri6_tangents`` evaluate the reference-to-physical
map with them for the solver and the mesh checks alike.
"""

import numpy as np

# corner pairs of the mid-nodes, in local node order after the corners
TET10_EDGES = ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3))
TRI6_EDGES = ((0, 1), (1, 2), (2, 0))


def p2_basis(points, edges):
    """Quadratic Lagrange basis on the unit simplex at natural coordinates
    ``points`` (n, d): values N (n, m) and gradients dN/dxi (n, m, d),
    m = d + 1 + len(edges).  With the barycentric coordinates
    L = (1 - sum xi, xi), corner a has L_a (2 L_a - 1) and the mid-node of
    edge (a, b) has 4 L_a L_b."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts.shape[1]
    l0 = 1.0
    for x in pts.T:                 # 1 - xi - eta - zeta in this order, not sum()
        l0 = l0 - x
    lam = (l0, *pts.T)
    dl = np.vstack([-np.ones(d), np.eye(d)])
    n = np.empty((len(pts), d + 1 + len(edges)))
    g = np.empty(n.shape + (d,))
    for i, li in enumerate(lam):
        n[:, i] = li * (2.0 * li - 1.0)
        g[:, i] = (4.0 * li - 1.0)[:, None] * dl[i]
    for k, (a, b) in enumerate(edges, start=d + 1):
        n[:, k] = 4.0 * lam[a] * lam[b]
        g[:, k] = 4.0 * (lam[b][:, None] * dl[a] + lam[a][:, None] * dl[b])
    return n, g


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


# the basis at the quadrature points, built once for every module
TET_QP, TET_W = tet_quadrature()                   # (q, 3), (q,)
_, TET_DN = p2_basis(TET_QP, TET10_EDGES)          # (q, 10, 3)
TRI_QP, TRI_W = tri_quadrature()                   # (q, 2), (q,)
TRI_N, TRI_DN = p2_basis(TRI_QP, TRI6_EDGES)       # (q, 6), (q, 6, 2)
# TRI_DN laid out [a, (q, d)], so the face tangents are one matmul
_TRI_DN_COLS = TRI_DN.transpose(1, 0, 2).reshape(TRI_DN.shape[1], -1)
for _table in (TET_QP, TET_W, TET_DN, TRI_QP, TRI_W, TRI_N, TRI_DN,
               _TRI_DN_COLS):
    _table.flags.writeable = False


def tet10_jacobian(xe):
    """Jacobians J_md = dX_m / dxi_d of tet10 elements with node
    coordinates ``xe`` (M, 10, 3) at the ``tet_quadrature`` points,
    (M, q, 3, 3)."""
    return np.einsum("eam,qad->eqmd", xe, TET_DN)


def tri6_tangents(xf):
    """Tangents dX/d(xi, eta) (K, q, 3, 2) of TRI6 faces with node
    coordinates ``xf`` (K, 6, 3) at the ``tri_quadrature`` points, and
    their cross products, the area vectors (K, q, 3)."""
    t = (xf.swapaxes(1, 2) @ _TRI_DN_COLS).reshape(
        len(xf), 3, len(TRI_W), 2).swapaxes(1, 2)
    (a0, b0), (a1, b1), (a2, b2) = np.moveaxis(t, (-2, -1), (0, 1))
    nvec = np.empty(t.shape[:-1])
    nvec[..., 0] = a1 * b2 - a2 * b1
    nvec[..., 1] = a2 * b0 - a0 * b2
    nvec[..., 2] = a0 * b1 - a1 * b0
    return t, nvec
