"""Total-Lagrangian finite element solver for pressurized actuators.

Displacement-based quadratic tets, 4-point quadrature, Neo-Hookean
material, and a follower pressure load integrated on the deformed cavity
surface.  The Newton linearization carries both the material/geometric
stiffness and the unsymmetric pressure load stiffness, so convergence
near the solution is quadratic.  The ramp steps from one uniform load
station to the next.  Each trial step gets one Newton attempt, started
from the quadratic extrapolation of the last three accepted states (the
secant while fewer exist) with the supported DOFs set to their
prescribed values.  Newton accepts a state only when both the residual
and the last correction are small, and it discards a chord step (one
with a reused factor) that does not contract, so the answer is bounded
and not just balanced.  A step that fails to converge, inverts an
element or meets a singular factor is halved, down to 1/32 of the
station spacing, and the step doubles again after each success without
passing the next station.

One rule saves factors where the first Newton step overshoots along a
soft bending mode.  The first fresh factor of a trial step is built from
the element tangent alone, without the load stiffness, on the first
increment and after an increment that started from the parabola (three
accepted states) and discarded a chord; every other factor is the full
tangent.  The one-chamber bending1 half finger at 10 mm, where every
parabola increment discards its first chord, then takes 25 LUs over 10
stations instead of 33, and the bending1 half at 5 mm 128 instead of
151.  The gate on the parabola keeps the discards of the start-up
increments, which the constant and the secant predict, from unloading
the next: on the bending2 half at 4 mm those discard chords too, and a
load-free first step there discards again at every later increment (125
LUs instead of 73).  A state is still accepted only by the residual and
correction tests, so the rule changes the path and not the tolerance of
the answer.

One ``Model`` per solve owns the discretization, including the free-DOF
numbering and one sparsity pattern on it: the CSC structure of the free
DOF pairs that share a tet, built with scipy's sparse algebra from the
node adjacency, and the position in its data of every entry of the
element and face matrices, found by one search.  Entries on a
constrained DOF go to one extra slot past the data, which is dropped, so
the matrices are the free-DOF block Newton factors and no sparse
structure is built or sliced per iteration.  Both stiffness layers add
into the data by ``np.add.at`` at those positions, the tangent ``_BLOCK``
tets at a time, so its temporaries scale with the block, not the mesh.
The solve allocates one data array for its Newton matrices: each fresh
factor zeroes it and adds the tangent and the load stiffness at -p.

The solve's Model numbers its free DOFs in fill order: the minimum-degree
ordering of A^T + A, which depends on the sparsity pattern alone, is
computed once when the pattern is built, so every tangent is assembled
already ordered and SuperLU factors it as it comes, in symmetric mode
with no pivoting and no relaxed supernodes.  That suits the nearly
symmetric tangents of closed cavities (43-55 % less L+U fill than COLAMD
on the pocket and bending tangents).  The tangent is unsymmetric in
general and can turn indefinite near an instability, so each solve with
that factor is checked: when SuperLU rejects the matrix or the
back-solve's normwise backward error exceeds ``_BACKWARD_TOL``, the block
is refactored with COLAMD and partial pivoting.  Each increment record of
a Solution counts its factorizations and these fallbacks.

Units: mm, N, MPa internally; pressures cross the API in kPa.
"""

import logging
import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spilu, splu

from . import material as mat
from .checks import check_fields
from .elements import TET_DN, TET_W, TRI_DN, TRI_N, TRI_W, tet10_jacobian, tri6_tangents

log = logging.getLogger("pneusoft.fea")

KPA_TO_MPA = 1e-3
REL_TOL = 1e-6
ABS_TOL = 1e-10          # newtons
MAX_NEWTON_ITERS = 30
MAX_BISECTIONS = 5
DIVERGENCE_FACTOR = 1e6
# the most load stations a LoadCase allows; the Solution keeps one
# displacement array per station (criterion 9 uses 60)
MAX_INCREMENTS = 1000
# the fast factorization of the free-DOF tangent, whose DOFs the Model
# numbers in fill order (relax=1: no relaxed supernodes, which would store
# explicit zeros); the incomplete factor that yields that order, SuperLU's
# minimum degree on A^T + A, dropping every off-diagonal entry; and the
# normwise backward error of a back-solve above which the COLAMD/partial-
# pivoting fallback runs
_FAST_LU = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1,
                options=dict(SymmetricMode=True))
_FILL_ORDER = dict(_FAST_LU, permc_spec="MMD_AT_PLUS_A", drop_tol=1.0,
                   fill_factor=1.0)
_BACKWARD_TOL = 1e-12
# an accepted state's last Newton correction is at most this times ||u||;
# a chord correction (reused factor) that does not shrink below this
# times the previous one is discarded and solved with a fresh factor
_CORRECTION_TOL = 1e-8
_CHORD_CONTRACTION = 0.25

_EYE = np.eye(3)


class StepRejected(RuntimeError):
    """Internal signal: the trial increment left the admissible range."""


class SolveError(RuntimeError):
    """Raised when bisection bottoms out without convergence."""


@dataclass(frozen=True)
class LoadCase:
    """Pressure ramp on one face set with homogeneous supports.

    ``increments`` is the number of uniform load stations the ramp lands
    on: the Solution has a row at every k / increments of the target,
    plus a row per bisected sub-step between stations.  ``extra_fixed``
    lists (node_set, axis) pairs pinning single components, e.g.
    ("end0", "z"); the main ``fixed_set`` pins all three.  Either may be
    None when the case needs no such support.
    """

    target_pressure_kpa: float
    increments: int = 10
    fixed_set: str = "fixed"
    pressure_set: str = "cavity"
    extra_fixed: tuple = ()

    def __post_init__(self):
        check_fields(self, finite="target_pressure_kpa")
        if self.target_pressure_kpa < 0:
            raise ValueError("vacuum loading is not supported; "
                             f"got {self.target_pressure_kpa} kPa")
        if not isinstance(self.increments, numbers.Integral) or \
                not 1 <= self.increments <= MAX_INCREMENTS:
            raise ValueError("increments must be an integer in "
                             f"1..{MAX_INCREMENTS}, got {self.increments!r}")


@dataclass
class Solution:
    """Accepted increments of a pressure ramp, first entry always 0 kPa."""

    pressures_kpa: np.ndarray
    displacements: list
    log: list = field(default_factory=list)

    @property
    def n_increments(self):
        return len(self.displacements)

    def final_u(self):
        return self.displacements[-1]


# ---------------------------------------------------------------- kernels

_AX3 = np.arange(3)
# tets per block of the element tangent kernel, and elements per block of
# the search for tet and face positions.  32-128 time alike; at 32 a
# block's temporaries (about 0.5 MB) mostly fit the heap memory that the
# LUs between tangents leave mapped: a bend-ramp tangent in a solve takes
# 130-150 minor page faults, against about 360 at 64
_BLOCK = 32
_TRI_WN = TRI_W[:, None] * TRI_N                           # (q, 6)
_TRI_DN_PERP = np.stack([TRI_DN[..., 1], -TRI_DN[..., 0]], axis=-1)  # (q, 6, 2)
# eps_ijm laid out [j, (i, m)]
_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _m in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI_CIVITA[_j, _i, _m], _LEVI_CIVITA[_m, _i, _j] = 1.0, -1.0
_LEVI_CIVITA = _LEVI_CIVITA.reshape(3, 9)


class Model:
    """The discretization of one mesh, passed to the layer functions as
    ``model=``; without it they build their own.

    ``free`` (3N,) marks the DOFs the model numbers (all when None).
    The stiffness matrices are (n_dof, n_dof) on those DOFs, in model
    order: ``dofs`` holds the index 3 * node + axis of each, and
    ``number`` gives each DOF its position in ``dofs``, -1 to the others.
    ``Model(mesh)`` keeps node order, so its matrices line up with
    node-ordered (3N,) vectors.  With a mask the order is the fill order
    of SuperLU's minimum degree on A^T + A, which the solver's factors
    then take as it comes; it is read off an incomplete factor of a
    diagonally dominant matrix on the node-ordered pattern, once.

    Construction computes the reference tet data at the quadrature
    points: ``dndx`` = dN_a/dX (M, q, 10, 3), ``detjw`` = w det J (M, q)
    and ``wdndx`` = w dN_a/dX_K laid out (M, a, (q, K)).  The rest is
    built on first use, so force and energy calls need only those: the
    order, the CSC structure (``indptr``, ``indices``) on the numbered
    DOF pairs that share a tet and ``tet_pos``, the position in its data
    of every entry of the element matrices laid out (M, (a, i), (b, k)),
    all at once; and each face set's data, ``face_pos`` the same table
    for its face matrices, on its own.  The structure is the node
    adjacency (boolean tet-node incidence times its transpose) in 3 x 3
    DOF blocks, sliced to the numbered DOFs and permuted into model
    order; ``_positions`` finds the tet and face positions, stored in
    the integer type of ``indices``, without keeping its keys.
    """

    def __init__(self, mesh, free=None):
        self.mesh = mesh
        jac = tet10_jacobian(mesh.nodes[mesh.tets])        # (M, q, 3, 3)
        det = np.linalg.det(jac)
        if np.any(det <= 0.0):
            bad = int(np.argwhere(np.any(det <= 0.0, axis=1))[0, 0])
            raise ValueError(f"element {bad} has non-positive reference "
                             f"Jacobian; mesh is inverted")
        inv = np.linalg.inv(jac)                           # (M, q, 3, 3)
        self.dndx = np.einsum("qad,eqdm->eqam", TET_DN, inv)
        self.detjw = det * TET_W
        self.wdndx = (self.dndx * self.detjw[..., None, None]).transpose(
            0, 2, 1, 3).reshape(len(mesh.tets), 10, 3 * len(TET_W))
        self.free = np.ones(3 * mesh.n_nodes, bool) if free is None else free
        self.n_dof = int(np.count_nonzero(self.free))
        self._fill_order = free is not None
        self._faces = {}
        self._face_pos = {}

    @cached_property
    def _pattern(self):
        """(dofs, number, indptr, indices, tet_pos), built together on
        first use from the boolean pattern of the numbered DOF pairs on
        adjacent nodes, permuted into the fill order with a mask."""
        tets = self.mesh.tets
        inc = sparse.csr_matrix(
            (np.ones(tets.size, bool), tets.ravel(),
             np.arange(0, tets.size + 1, tets.shape[1])),
            shape=(len(tets), self.mesh.n_nodes))
        a = sparse.kron(inc.T @ inc, np.ones((3, 3), bool)).tocsr()
        dofs = np.flatnonzero(self.free)
        number = np.where(self.free, np.cumsum(self.free) - 1, -1)
        a = a[dofs][:, dofs]
        if self._fill_order:
            order = np.argsort(_fill_rank(a))
            dofs = dofs[order]
            number[dofs] = np.arange(self.n_dof)
            a = a[order][:, order]
        a = a.tocsc()
        a.sort_indices()
        idx = np.int32 if max(a.nnz, self.n_dof) < 2 ** 31 else np.int64
        indptr, indices = (x.astype(idx, copy=False)
                           for x in (a.indptr, a.indices))
        del a                               # its data, before the search
        return (dofs, number, indptr, indices,
                _positions(indptr, indices, number, tets))

    dofs = property(lambda self: self._pattern[0], doc="The index 3 * node "
                    "+ axis of each model DOF, in model order.")
    number = property(lambda self: self._pattern[1])
    indptr = property(lambda self: self._pattern[2])
    indices = property(lambda self: self._pattern[3])
    tet_pos = property(lambda self: self._pattern[4])

    def def_grad(self, u):
        """Deformation gradients at the quadrature points, (M, q, 3, 3)."""
        return u[self.mesh.tets].swapaxes(1, 2)[:, None] @ self.dndx + _EYE

    def faces(self, name):
        """(TRI6 connectivity, reference area density) of face set ``name``."""
        if name not in self._faces:
            faces = self.mesh.face_set(name)
            _, nvec = tri6_tangents(self.mesh.nodes[faces])
            self._faces[name] = faces, np.linalg.norm(nvec, axis=2)
        return self._faces[name]

    def face_pos(self, name):
        """The data position of every entry of the face matrices of face
        set ``name``, laid out (K, (a, i), (b, k)) and flattened as
        ``tet_pos`` is, K * 324 entries; a pair with a constrained DOF
        goes to position nnz.

        Raises ValueError for a free DOF pair outside the sparsity
        pattern, whose entries would otherwise be lost.
        """
        if name not in self._face_pos:
            self._face_pos[name] = _positions(
                self.indptr, self.indices, self.number, self.faces(name)[0])
        return self._face_pos[name]

    def _matrix(self, data):
        """The (n_dof, n_dof) CSC matrix on the first nnz entries of
        ``data`` (length nnz + 1; the last entry collects the pairs with a
        constrained DOF), sharing its memory."""
        return sparse.csc_matrix((data[:-1], self.indices, self.indptr),
                                 shape=(self.n_dof, self.n_dof))


def _positions(indptr, indices, number, conn):
    """The data positions in the CSC structure (``indptr``, ``indices``)
    of the entries of the element matrices on nodes ``conn`` (K, m),
    laid out (K, (a, i), (b, k)) and flattened, in the integer type of
    ``indices``; a pair with a DOF that ``number`` maps to -1 goes to
    position nnz.  The keys column * n + row of the stored entries are
    rebuilt for the search, ``_BLOCK`` elements at a time.

    Raises ValueError for a numbered DOF pair outside the structure."""
    n, nnz = len(indptr) - 1, len(indices)
    # the stored keys and, at position nnz, the constrained key n**2
    stored = np.repeat(np.arange(n + 1) * n, np.diff(indptr, append=nnz + 1))
    stored[:nnz] += indices
    width = 3 * conn.shape[1]
    pos = np.empty((len(conn), width ** 2), indices.dtype)
    for lo in range(0, len(conn), _BLOCK):
        col = number[3 * conn[lo:lo + _BLOCK, :, None] + _AX3].reshape(
            -1, 1, width)
        row = col.swapaxes(1, 2)
        keys = (col * n + row).ravel()
        keys[((col < 0) | (row < 0)).ravel()] = n * n
        found = np.searchsorted(stored, keys)
        if not np.array_equal(stored[found], keys):
            raise ValueError("element node pairs fall outside the sparsity "
                             "pattern of the tets; every face must lie on "
                             "a tet")
        pos[lo:lo + _BLOCK] = found.reshape(-1, width ** 2)
    return pos.ravel()


def _fill_rank(pattern):
    """rank[j], the place of DOF j in SuperLU's minimum-degree order of
    A^T + A on the boolean (n, n) ``pattern``.  That order depends on the
    pattern alone, so the one read off an incomplete factor of a
    diagonally dominant matrix on it is the one the fast LU would
    compute for every tangent."""
    a = sparse.csc_matrix(pattern, dtype=float)
    a.setdiag(a.shape[0])
    return spilu(a, **_FILL_ORDER).perm_c.astype(np.int64)


def _node_sum(conn, values, n_nodes):
    """(N, 3) sums over the nodes ``conn`` (K, m) of ``values`` (K, m, 3)."""
    idx = (3 * conn[..., None] + _AX3).ravel()
    return np.bincount(idx, weights=values.ravel(),
                       minlength=3 * n_nodes).reshape(-1, 3)


def total_strain_energy(mesh, params, u, *, model=None):
    """Integral of the energy density over the reference solid, in mJ."""
    model = model or Model(mesh)
    w = mat.strain_energy(params, model.def_grad(u))
    return float(np.einsum("eq,eq->", w, model.detjw))


def internal_force(mesh, params, u, *, model=None):
    """Nodal internal force (N, 3); the gradient of the strain energy."""
    model = model or Model(mesh)
    f = model.def_grad(u)
    p1 = f @ mat.pk2_stress(params, f)
    # f[a, i] = w dN_a/dX_K P_iK, summed over the quadrature points and K
    fe = model.wdndx @ p1.swapaxes(-1, -2).reshape(len(f), -1, 3)
    return _node_sum(mesh.tets, fe, mesh.n_nodes)


def tangent_stiffness(mesh, params, u, *, model=None, add_to=None):
    """Sparse consistent tangent d f_int / d u on the model's DOFs,
    (n_dof, n_dof) CSC; (3N, 3N) for ``Model(mesh)``.

    With g_a = F^-T dN_a/dX, h_a = F dN_a/dX and the moduli (a, b, c) of
    ``material.lagrangian_tangent``, the element matrices are

        K[a i, b k] = sum_q w [ a g_ai g_bk - b (h_ai g_bk + g_ai h_bk)
                                + c/2 g_bi g_ak
                                + d_ik dN_a/dX . (c/2 C^-1 + S) . dN_b/dX ].

    The material is evaluated once at every quadrature point.  The
    element matrices are then built ``_BLOCK`` tets at a time in one
    reused workspace, each term a batched matrix product over the block
    with the quadrature points as the inner dimension, and each block is
    added into the model's fixed sparsity pattern by ``np.add.at`` before
    the next is built, so no temporary holds the 900 entries of every
    element and the matrix always has the same structure.  The adds run
    in element order whatever the block size, so equal element matrices
    give bitwise equal data.

    The data is a fresh array unless ``add_to``, a float array of length
    nnz + 1 on the model's pattern, is given: the element matrices are
    then added into it (its last entry collects the pairs with a
    constrained DOF) and the returned matrix shares its memory.
    """
    model = model or Model(mesh)
    f = model.def_grad(u)
    s, cinv, (ma, mb, mc) = mat.lagrangian_tangent(params, f)
    n_q = model.detjw.shape[1]
    ft = f.swapaxes(-1, -2)
    hc = 0.5 * mc
    wa, wb, wc = ((model.detjw * m)[..., None, None] for m in (ma, mb, hc))
    data = np.zeros(len(model.indices) + 1) if add_to is None else add_to
    pos = model.tet_pos
    work = np.empty((min(_BLOCK, len(f)), 30, 30))

    def rows(x):                                           # [(a, i), q]
        return x.transpose(0, 2, 3, 1).reshape(len(x), 30, -1)

    for lo in range(0, len(f), _BLOCK):
        e = slice(lo, lo + _BLOCK)
        dndx = model.dndx[e]
        g = dndx @ (cinv[e] @ ft[e])                       # [q, a, i]
        h = dndx @ ft[e]
        n_e = len(g)
        left = rows(np.concatenate([wa[e] * g - wb[e] * h, -wb[e] * g], axis=1))
        right = np.concatenate([g, h], axis=1).reshape(n_e, 2 * n_q, 30)
        ke = np.matmul(left, right, out=work[:n_e])
        ke5 = ke.reshape(n_e, 10, 3, 10, 3)
        # the c/2 g_bi g_ak term comes out as [(a, k), (b, i)]
        ke5 += (rows(wc[e] * g) @ g.reshape(n_e, n_q, 30)).reshape(
            n_e, 10, 3, 10, 3).transpose(0, 1, 4, 3, 2)
        sc = s[e] + hc[e, ..., None, None] * cinv[e]
        kg = model.wdndx[e] @ (sc @ dndx.swapaxes(-1, -2)).reshape(
            n_e, 3 * n_q, 10)
        for i in range(3):
            ke5[:, :, i, :, i] += kg
        np.add.at(data, pos[900 * lo:900 * (lo + n_e)], ke.ravel())
    return model._matrix(data)


def _deformed_tangents(model, face_set, u):
    """(faces, tangents, area vectors) of the deformed face set."""
    faces, ref_norm = model.faces(face_set)
    t, nvec = tri6_tangents((model.mesh.nodes + u)[faces])
    if np.any(np.linalg.norm(nvec, axis=2) < 1e-9 * ref_norm):
        raise StepRejected("pressure face degenerated to zero area")
    return faces, t, nvec


def pressure_force(mesh, pressure_kpa, u, face_set="cavity", *, model=None):
    """Follower load: nodal forces of ``pressure_kpa`` acting on the
    deformed face set, pushing the wall out of the cavity."""
    model = model or Model(mesh)
    faces, _, nvec = _deformed_tangents(model, face_set, u)
    p = KPA_TO_MPA * pressure_kpa
    fe = -p * np.einsum("qa,fqi->fai", _TRI_WN, nvec)
    return _node_sum(faces, fe, mesh.n_nodes)


def pressure_stiffness(mesh, pressure_kpa, u, face_set="cavity", *,
                       model=None, add_to=None):
    """Sparse d f_pressure / d u on the model's DOFs and the pattern of
    ``tangent_stiffness``; the load stiffness is unsymmetric.  With n =
    t0 x t1, dn = sum_b v_b x du_b for v_b = dN_b/deta t0 - dN_b/dxi t1,
    so K[a i, b m] = -p (V_ab x e_m)_i = -p eps_ijm V_ab,j with
    V_ab = sum_q w N_a v_b.

    The face matrices are added at ``model.face_pos`` by ``np.add.at``,
    in face order, into a fresh array unless ``add_to`` is given, as
    ``tangent_stiffness`` takes it.  The matrix is linear in the
    pressure and only ``-p`` carries its sign, so the call at
    ``-pressure_kpa`` gives bitwise the negated data.
    """
    model = model or Model(mesh)
    _, t, _ = _deformed_tangents(model, face_set, u)
    p = KPA_TO_MPA * pressure_kpa
    vab = np.einsum("qa,qbd,fqkd->fabk", _TRI_WN, _TRI_DN_PERP, t, optimize=True)
    # -p eps_ijm V_j sits at [f, a, b, (i, m)]
    ke = (vab.reshape(-1, 3) @ (-p * _LEVI_CIVITA)).reshape(
        len(t), 6, 6, 3, 3).transpose(0, 1, 3, 2, 4)
    data = np.zeros(len(model.indices) + 1) if add_to is None else add_to
    np.add.at(data, model.face_pos(face_set), ke.ravel())
    return model._matrix(data)


# ----------------------------------------------------------------- solver

_AXIS = {"x": 0, "y": 1, "z": 2}


def _fixed_mask(mesh, case):
    mask = np.zeros((mesh.n_nodes, 3), dtype=bool)
    if case.fixed_set:
        mask[mesh.node_set(case.fixed_set)] = True
    for name, axis in case.extra_fixed:
        mask[mesh.node_set(name), _AXIS[axis]] = True
    return mask


_RIGID_MODES = ("x", "y", "z", "rot-x", "rot-y", "rot-z")


def _check_supports(mesh, mask):
    """Raise SolveError when the constrained DOFs ``mask`` leave nothing
    to solve or the tangent singular: a rigid-body mode free, or a free
    DOF of a node that no tet uses."""
    if mask.all():
        raise SolveError("load case constrains every DOF; there is nothing "
                         "to solve")
    unused = np.bincount(mesh.tets.ravel(), minlength=mesh.n_nodes) == 0
    orphans = np.flatnonzero(unused & ~mask.all(axis=1))
    if orphans.size:
        raise SolveError(f"nodes {orphans[:10].tolist()} belong to no element "
                         "but are not fully constrained; the tangent is singular")
    # linearized rigid modes, rotations about the centroid in units of the
    # body size so that all six have unit scale
    x = mesh.nodes - mesh.nodes.mean(axis=0)
    x /= max(float(np.max(np.abs(x))), 1e-300)
    modes = np.empty((mesh.n_nodes, 3, 6))
    modes[:, :, :3] = _EYE
    for axis in range(3):
        modes[:, :, 3 + axis] = np.cross(_EYE[axis], x)
    restricted = modes[mask]                               # (constrained, 6)
    lam, vec = np.linalg.eigh(restricted.T @ restricted)
    null = vec[:, lam <= 1e-12 * max(lam[-1], 0.0)]
    if null.shape[1]:
        weight = np.linalg.norm(null, axis=1)
        names = [m for m, w in zip(_RIGID_MODES, weight) if w > 1e-3]
        raise SolveError("load case leaves the body unconstrained in the "
                         f"rigid-body modes {', '.join(names)}; the tangent "
                         "is singular")


def _fallback_factor(kff, stats, cause):
    """COLAMD factor of ``kff`` with partial pivoting, after the fast
    factor failed for ``cause``; counted and logged."""
    log.info("refactor with COLAMD and partial pivoting: %s", cause)
    stats["factorizations"] += 1
    stats["fallbacks"] += 1
    try:
        return splu(kff)
    except RuntimeError as exc:        # exactly singular factor
        raise StepRejected(f"tangent factorization failed: {exc}") from None


def _newton(params, model, face_set, pressure_kpa, u0, stats, data,
            unload_first):
    """Solve one pressure level from ``u0``, whose supported DOFs already
    hold their prescribed values; returns (u, iterations, residual
    history, correction).  ``data``, a float array of length nnz + 1 that
    the solve allocates once, holds the matrix of each fresh factor: it
    is zeroed, and the tangent and the load stiffness at -p are added
    into it through ``add_to``: exactly the tangent minus the load
    stiffness.  With ``unload_first`` the first fresh factor skips the
    load stiffness, so its first step is a modified-Newton step on the
    element tangent alone; every later factor is the full tangent.
    ``solve`` sets it on the first increment and after an increment that
    started from the parabola and discarded a chord: a load-free first
    step from the secant sustains its own discards (see the module
    docstring).  The acceptance tests below are the same either way, so
    the flag changes the path to a state, not which states are accepted.

    A state is accepted when its residual passes the ``REL_TOL`` test
    *and* the Newton correction that produced it has ||du|| <=
    ``_CORRECTION_TOL`` ||u||, so every call takes at least one step;
    ``correction`` is that last ||du|| / ||u||.  The residual alone does
    not bound the answer: the softest tangent mode of a bending finger
    is the bending the angle measures, so a small residual can still
    leave a large error in it.  Nor does the correction, the size of
    the last step: without the stall rule, bending1 at 5 mm accepted a
    correction of 7e-9 with its angle 1.3e-6 degrees off a tight solve.
    The bound comes from the two tests and the stall rule together.

    The factorized tangent, the model's free-DOF block, is reused across
    iterations (chord steps) and rebuilt when the residual stalls above
    0.3 times the previous one (the stall rule).  A chord correction
    that does not shrink to ``_CHORD_CONTRACTION`` times the previous
    correction is discarded and solved again with a factor at the same
    ``u``, so no residual is spent on it.  The old factor is released
    before the next is built.  Residuals are read and corrections
    written through ``model.dofs``, in the model's order.  ``stats``
    counts the discarded chords and the factors built without the load
    stiffness.

    Each factorization first tries ``_FAST_LU`` (the model's fill order
    taken as it comes, symmetric mode, no pivoting, no relaxed
    supernodes).  If SuperLU raises, or a back-solve K du = -r with that
    factor has ||K du + r|| > ``_BACKWARD_TOL`` (||K||_1 ||du|| + ||r||),
    the tangent is refactored by ``splu(kff)`` (COLAMD, partial
    pivoting) and the step solved again.  The bound scales with the
    matrix, not with the residual alone, which vanishes near
    convergence.  ``stats`` counts the factorizations and fallbacks.
    """
    mesh, dofs = model.mesh, model.dofs
    u = u0.copy()
    history = []
    first = None
    kff = lu = None
    correction = dnorm = math.inf
    for it in range(MAX_NEWTON_ITERS):
        try:
            fint = internal_force(mesh, params, u, model=model)
            fext = (pressure_force(mesh, pressure_kpa, u, face_set, model=model)
                    if pressure_kpa > 0.0 else np.zeros_like(fint))
        except mat.InvalidDeformation as exc:
            raise StepRejected(str(exc)) from None
        resid = (fint - fext).reshape(-1)[dofs]
        rnorm = float(np.linalg.norm(resid))
        fnorm = float(np.linalg.norm(fext.reshape(-1)[dofs]))
        if rnorm <= max(REL_TOL * fnorm, ABS_TOL) and \
                correction <= _CORRECTION_TOL:
            history.append(rnorm)
            return u, it, history, correction
        if first is None:
            first = max(rnorm, ABS_TOL)
        elif rnorm > DIVERGENCE_FACTOR * first:
            raise StepRejected(f"Newton diverged, residual {rnorm:.3e}")
        # the stall rule, which is part of the bound on the answer
        fresh = lu is None or rnorm > 0.3 * history[-1]
        history.append(rnorm)
        limit = _CHORD_CONTRACTION * dnorm
        while True:
            if fresh:
                kff = lu = None            # free the old factor first
                data[:] = 0.0
                kff = tangent_stiffness(mesh, params, u, model=model,
                                        add_to=data)
                if pressure_kpa > 0.0:
                    if unload_first:
                        stats["unloaded_factors"] += 1
                    else:
                        # exact: ke(-p) is -ke(p) bitwise, x + (-y) is x - y
                        pressure_stiffness(mesh, -pressure_kpa, u, face_set,
                                           model=model, add_to=data)
                unload_first = False
                stats["factorizations"] += 1
                try:
                    lu = splu(kff, **_FAST_LU)
                    knorm = float(np.add.reduceat(             # ||K_ff||_1
                        np.abs(kff.data), kff.indptr[:-1]).max())
                except RuntimeError as exc:
                    lu, knorm = _fallback_factor(
                        kff, stats, f"fast factorization failed: {exc}"), None
            du = lu.solve(-resid)
            dnorm = float(np.linalg.norm(du))
            if knorm is not None:
                err = float(np.linalg.norm(kff @ du + resid))
                bound = _BACKWARD_TOL * (knorm * dnorm + rnorm)
                if not err <= bound:                   # NaN fails too
                    lu = None
                    lu, knorm = _fallback_factor(
                        kff, stats, f"back-solve residual {err:.3e} exceeds "
                        f"the backward-error bound {bound:.3e}"), None
                    du = lu.solve(-resid)
                    dnorm = float(np.linalg.norm(du))
            if fresh or dnorm <= limit:
                break
            stats["discarded_chords"] += 1
            fresh = True
        u.reshape(-1)[dofs] += du
        correction = dnorm / max(float(np.linalg.norm(u)), 1e-300)
    raise StepRejected(f"no convergence in {MAX_NEWTON_ITERS} Newton iterations")


def _extrapolate(states, t):
    """The Lagrange polynomial through the accepted ``states`` (t_i, u_i)
    at ``t``: the one state itself, the secant or the parabola."""
    return sum(math.prod((t - tj) / (ti - tj) for tj, _ in states if tj != ti)
               * ui for ti, ui in states)


def solve(mesh, params, case, prescribed=None):
    """Ramp the pressure of ``case`` from zero to its target.

    ``prescribed`` optionally carries (mask, values) for inhomogeneous
    supports: boolean (N, 3) and target displacements, ramped with the
    load.  Each trial step makes one Newton attempt, started from the
    quadratic extrapolation of the last three accepted states (the
    secant while only two exist, the reference state counting as one);
    a rejected attempt halves the step.  Returns a Solution whose first
    increment is the reference state and which has a row at every
    station of ``case``.  Raises SolveError when the supports constrain
    every DOF or leave a rigid-body mode or an element-free node
    unconstrained, or when an increment cannot be converged even after
    ``MAX_BISECTIONS`` halvings.  Accepted increments, bisections and
    factorization fallbacks are logged at INFO on ``pneusoft.fea``.  Each
    ``Solution.log`` record holds the pressure, the Newton iterations and
    residuals of the accepted increment, its ``correction`` ||du|| / ||u||
    (the size of its last Newton step, 0.0 for the reference state), and
    four counts of the work spent on it, rejected attempts included:
    ``factorizations``, ``fallbacks``, ``discarded_chords`` (chord steps
    thrown away for not contracting) and ``unloaded_factors`` (fresh
    factors built without the load stiffness).  The first factor of each
    trial step leaves the load stiffness out on the first increment,
    bisected retries included, and when the last accepted increment
    started from the parabola and its ``discarded_chords`` is nonzero; no
    other state carries from one increment to the next.
    """
    mask = _fixed_mask(mesh, case)
    values = np.zeros((mesh.n_nodes, 3))
    if prescribed is not None:
        pmask, pvalues = prescribed
        mask = mask | pmask
        values = np.where(pmask, pvalues, values)
    # before _check_supports, so that an inverted mesh is reported as such
    model = Model(mesh, ~mask.reshape(-1))
    _check_supports(mesh, mask)

    u = np.zeros((mesh.n_nodes, 3))
    stats = dict.fromkeys(("factorizations", "fallbacks", "discarded_chords",
                           "unloaded_factors"), 0)
    sol = Solution(pressures_kpa=np.zeros(1), displacements=[u.copy()])
    sol.log.append({"pressure_kpa": 0.0, "iterations": 0, "residuals": [],
                    "correction": 0.0, **stats})
    if case.target_pressure_kpa == 0.0 and prescribed is None:
        return sol

    # the Newton matrix of every fresh factor of the solve
    data = np.empty(len(model.indices) + 1)
    target = case.target_pressure_kpa
    dt0 = 1.0 / case.increments
    floor = dt0 / 2 ** MAX_BISECTIONS
    t, dt = 0.0, dt0
    # the last three accepted (t, u): a quadratic predictor starts Newton
    # far closer to the answer than the secant on a smooth ramp
    states = deque([(t, u)], maxlen=3)
    pressures = [0.0]
    for k in range(1, case.increments + 1):
        station = k / case.increments
        while t < station:
            # land on the station exactly rather than a rounding short of it
            trial = station if t + dt >= station - 1e-12 else t + dt
            dt = trial - t
            guess = _extrapolate(states, trial)
            # the first increment, or one after an increment that started
            # from the parabola (the third or later) and discarded a chord
            unload = len(sol.log) == 1 or (
                len(sol.log) > 3 and sol.log[-1]["discarded_chords"] > 0)
            try:
                un, iters, hist, correction = _newton(
                    params, model, case.pressure_set, trial * target,
                    np.where(mask, trial * values, guess), stats, data,
                    unload)
            except StepRejected as exc:
                dt *= 0.5
                if dt < floor - 1e-15:
                    raise SolveError(
                        f"increment at {trial * target:.4g} kPa failed after "
                        f"{MAX_BISECTIONS} bisections: {exc}") from exc
                log.info("bisect at %.4g kPa: %s; retry with dt=%.4g",
                         trial * target, exc, dt)
                continue
            t, u = trial, un
            states.append((t, u))
            pressures.append(t * target)
            sol.displacements.append(u.copy())
            sol.log.append({"pressure_kpa": t * target, "iterations": iters,
                            "residuals": hist, "correction": correction,
                            **stats})
            stats = dict.fromkeys(stats, 0)
            log.info("p=%9.3f kPa  iters=%d  resid=%.3e  correction=%.1e",
                     t * target, iters, hist[-1], correction)
            dt *= 2.0
    sol.pressures_kpa = np.asarray(pressures)
    return sol


# ----------------------------------------------------------- measurements

TIP_SETS = ("tip", "end1")  # the measured end: the first of these a mesh has
# a tube slice in plane strain: ends held in z, x-axis nodes in y, y-axis in x
TUBE_SUPPORTS = (("end0", "z"), ("end1", "z"), ("xaxis", "y"), ("yaxis", "x"))


def tip_set(mesh):
    """Node ids of the measured end, the ``tip`` set or else ``end1``;
    KeyError naming both when the mesh has neither."""
    for name in TIP_SETS:
        if name in mesh.node_sets:
            return mesh.node_sets[name]
    raise KeyError("the mesh has neither a 'tip' nor an 'end1' node set to "
                   "measure; add one to the mesh file")


def measure_elongation(mesh, solution):
    """Axial (z) displacement of the free-end centroid per increment, mm."""
    ids = tip_set(mesh)
    return np.array([float(np.mean(u[ids, 2])) for u in solution.displacements])


def _plane_normal(coords):
    c = coords - coords.mean(axis=0)
    _, svals, vt = np.linalg.svd(c, full_matrices=False)
    if svals[1] < 1e-9 * max(svals[0], 1e-30):
        raise ValueError("end-face nodes are collinear; plane normal "
                         "is not defined")
    return vt[2]


def measure_bend_angle(mesh, solution):
    """Tip-plane rotation per increment, degrees in [0, 180).

    The normal of the best-fit plane through the free-end nodes is
    tracked with sign continuity across increments, so angles beyond 90
    degrees are reported correctly.
    """
    ids = tip_set(mesh)
    ref = _plane_normal(mesh.nodes[ids])
    prev = ref
    angles = []
    for u in solution.displacements:
        n = _plane_normal(mesh.nodes[ids] + u[ids])
        if np.dot(n, prev) < 0.0:
            n = -n
        prev = n
        cosang = float(np.clip(np.dot(n, ref), -1.0, 1.0))
        angles.append(math.degrees(math.acos(cosang)))
    return np.array(angles)


def measure_max_displacement(solution):
    """Largest nodal displacement magnitude per increment, mm."""
    return np.array([float(np.max(np.linalg.norm(u, axis=1)))
                     for u in solution.displacements])


def measure_radial_expansion(mesh, solution):
    """Mean radial (xy) displacement of the ``inner`` set per increment, mm."""
    ids = mesh.node_set("inner")
    x = mesh.nodes[ids, :2]
    r0 = np.linalg.norm(x, axis=1)
    return np.array([float(np.mean(np.linalg.norm(x + u[ids, :2], axis=1) - r0))
                     for u in solution.displacements])


def solution_table(mesh, solution):
    """Rows of (increment, pressure_kPa, elongation_mm, bend_angle_deg,
    max_displacement_mm) for CSV export."""
    elo = measure_elongation(mesh, solution)
    bend = measure_bend_angle(mesh, solution)
    disp = measure_max_displacement(solution)
    return [(i, float(p), elo[i], bend[i], disp[i])
            for i, p in enumerate(solution.pressures_kpa)]


def write_solution_csv(mesh, solution, path):
    """Write ``solution_table`` as CSV to ``path``; returns its rows."""
    rows = solution_table(mesh, solution)
    np.savetxt(path, rows, fmt="%.6g", delimiter=",", comments="",
               header="increment,pressure_kPa,elongation_mm,bend_angle_deg,"
                      "max_displacement_mm")
    return rows
