"""Total-Lagrangian kernels: forces, tangents, pressure loads, solver."""

import ast
import logging
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spilu, splu

from pneusoft import fea, geometry, material
from pneusoft import mesh as meshmod

from conftest import (coarse_mesh, fully_clamped, lagrangian_tensor, rotation,
                      with_orphan_node)

PARAMS = material.HyperelasticParams(c10=0.24)


@pytest.fixture(scope="module")
def bend_ramp_mesh():
    # the bending2 half of perfbench's bend-ramp workload
    return coarse_mesh("bending2", 8.0, symmetric_half=True)


def _square_face_mesh():
    """Two TRI6 faces tiling the unit square at z = 0, wound +z."""
    nodes = np.array([[x, y, 0.0]
                      for y in (0.0, 0.5, 1.0) for x in (0.0, 0.5, 1.0)])
    faces = np.array([[0, 2, 8, 1, 5, 4],
                      [0, 8, 6, 4, 7, 3]], dtype=np.int64)
    return meshmod.Mesh(nodes=nodes,
                        tets=np.empty((0, 10), dtype=np.int64),
                        node_sets={"edge": np.array([0, 1, 2])},
                        face_sets={"cavity": faces})


def _random_displacement(mesh, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    grad = scale * rng.standard_normal((3, 3))
    u = mesh.nodes @ grad.T
    u += scale * np.sin(mesh.nodes / 3.0 + rng.standard_normal(3))
    return u


def test_internal_force_vanishes_at_reference(small_cube):
    f = fea.internal_force(small_cube, PARAMS, np.zeros((small_cube.n_nodes, 3)))
    assert np.all(f == 0.0)


def test_internal_force_vanishes_for_rigid_motion(small_cube):
    char = PARAMS.c10 * 1.0  # stress scale times face area, N
    u = np.tile([0.3, -0.2, 0.5], (small_cube.n_nodes, 1))
    f = fea.internal_force(small_cube, PARAMS, u)
    assert np.max(np.abs(f)) < 1e-10 * char
    r = rotation([1.0, 2.0, 0.5], 0.7)
    u = small_cube.nodes @ r.T - small_cube.nodes
    f = fea.internal_force(small_cube, PARAMS, u)
    assert np.max(np.abs(f)) < 1e-9 * char


def _reference_tangent(mesh, u):
    """Dense tangent summed one element at a time from the 6-index
    einsum formula, K = int dN (F C F + S I) dN."""
    model = fea.Model(mesh)
    k = np.zeros((3 * mesh.n_nodes, 3 * mesh.n_nodes))
    for conn, dndx, detjw in zip(mesh.tets, model.dndx, model.detjw):
        f = np.eye(3) + np.einsum("am,qaj->qmj", u[conn], dndx)
        s = material.pk2_stress(PARAMS, f)
        cc = lagrangian_tensor(*material.lagrangian_tangent(PARAMS, f)[1:])
        fcf = np.einsum("qiJ,qJKLM,qkL->qiKkM", f, cc, f)
        ke = np.einsum("qaK,qiKkM,qbM,q->aibk", dndx, fcf, dndx, detjw)
        kgeo = np.einsum("qaJ,qJL,qbL,q->ab", dndx, s, dndx, detjw)
        ke += kgeo[:, None, :, None] * np.eye(3)[None, :, None, :]
        dof = (3 * conn[:, None] + np.arange(3)).ravel()
        np.add.at(k, (dof[:, None], dof[None, :]), ke.reshape(30, 30))
    return k


@pytest.mark.parametrize("name", ["small_cube", "pocket_coarse"])
def test_tangent_matches_elementwise_reference(name, request):
    mesh = request.getfixturevalue(name)
    u = _random_displacement(mesh, 7)
    kt = fea.tangent_stiffness(mesh, PARAMS, u)
    assert kt.format == "csc" and kt.shape == (3 * mesh.n_nodes,) * 2
    assert kt.has_canonical_format              # sorted, no duplicates
    diff = _reference_tangent(mesh, u)
    scale = np.max(np.abs(diff))
    coo = kt.tocoo()
    diff[coo.row, coo.col] -= coo.data          # each position stored once
    assert np.max(np.abs(diff)) < 1e-12 * scale


def test_tangent_blocks_assemble_bitwise_equal(pocket_coarse, monkeypatch):
    # the adds into each entry run in element order whatever the block
    # size, so one tet per block, a ragged last block and one block for
    # the whole mesh give the same bits
    model = fea.Model(pocket_coarse)
    u = _random_displacement(pocket_coarse, 11)
    want = fea.tangent_stiffness(pocket_coarse, PARAMS, u, model=model).data
    for block in (1, 7, 64, len(pocket_coarse.tets) + 1):
        monkeypatch.setattr(fea, "_BLOCK", block)
        got = fea.tangent_stiffness(pocket_coarse, PARAMS, u, model=model)
        assert np.array_equal(got.data, want), block


def test_tangent_holds_no_array_per_element_matrix_entry():
    # with the pattern built, one tangent call peaks below a single
    # float64 array of the 900 entries of every element matrix
    mesh = coarse_mesh("tube", 1.5)
    assert len(mesh.tets) >= 1000
    model = fea.Model(mesh)
    model.tet_pos, model.indptr                     # build the pattern
    u = _random_displacement(mesh, 2, scale=0.01)
    tracemalloc.start()
    try:
        fea.tangent_stiffness(mesh, PARAMS, u, model=model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 900 * 8 * len(mesh.tets)


class _Stop(Exception):
    pass


def _accumulated(mesh, u, pressure_kpa, model):
    """The Newton matrix on ``model`` as the solve builds it: the tangent
    and then the load stiffness at -p added into one zeroed array."""
    data = np.zeros(len(model.indices) + 1)
    fea.tangent_stiffness(mesh, PARAMS, u, model=model, add_to=data)
    return fea.pressure_stiffness(mesh, -pressure_kpa, u, model=model,
                                  add_to=data)


def test_newton_factors_free_block_of_pattern(pocket_coarse, monkeypatch):
    # the matrix Newton factors equals the free-DOF block of the full
    # model's matrix accumulated the same way at the same state, taken in
    # the order of the solve's model
    seen = {}
    tangent = fea.tangent_stiffness

    def record(mesh, params, u, **kwargs):
        seen["u"], seen["dofs"] = u.copy(), kwargs["model"].dofs
        return tangent(mesh, params, u, **kwargs)

    def stop(kff, **kwargs):
        seen["kff"] = kff
        raise _Stop

    monkeypatch.setattr(fea, "tangent_stiffness", record)
    monkeypatch.setattr(fea, "splu", stop)
    case = fea.LoadCase(target_pressure_kpa=20.0, increments=1)
    with pytest.raises(_Stop):
        fea.solve(pocket_coarse, PARAMS, case)
    full, u, dofs = fea.Model(pocket_coarse), seen["u"], seen["dofs"]
    fixed = 3 * pocket_coarse.node_set("fixed")[:, None] + np.arange(3)
    assert np.array_equal(np.sort(dofs), np.setdiff1d(
        np.arange(3 * pocket_coarse.n_nodes), fixed))
    monkeypatch.setattr(fea, "tangent_stiffness", tangent)
    want = _accumulated(pocket_coarse, u, 20.0, full).tocsr()[dofs][:, dofs]
    got = seen["kff"]
    assert got.format == "csc" and got.has_sorted_indices
    assert got.shape == want.shape
    assert abs(got - want).max() == 0.0


@pytest.mark.parametrize("name", ["pocket_coarse", "bend_ramp_mesh"])
def test_load_stiffness_adds_in_with_its_sign(name, request):
    # the call at -p is bitwise the negation of the call at p, so adding
    # it is the subtraction; entry by entry in face order it differs from
    # the sparse T - K_p, summed per entry first, in the last bits only
    mesh = request.getfixturevalue(name)
    model = fea.Model(mesh)
    u = _random_displacement(mesh, 6, scale=0.01)
    kp = fea.pressure_stiffness(mesh, 20.0, u, model=model)
    neg = fea.pressure_stiffness(mesh, -20.0, u, model=model)
    assert np.array_equal(neg.data, -kp.data)
    got = _accumulated(mesh, u, 20.0, model)
    want = fea.tangent_stiffness(mesh, PARAMS, u, model=model) - kp
    assert abs(got - want).max() <= 1e-15 * abs(want).max()


def test_free_dof_model_gives_the_free_block(bend_ramp_mesh):
    # the half bending2 cavity touches the x-pinned symx plane, so some
    # load-stiffness pairs have a constrained DOF and are dropped
    mesh = bend_ramp_mesh
    mask = np.zeros((mesh.n_nodes, 3), dtype=bool)
    mask[mesh.node_set("fixed")] = True
    mask[mesh.node_set("symx"), 0] = True
    free = ~mask.reshape(-1)
    model, full = fea.Model(mesh, free), fea.Model(mesh)
    assert np.array_equal(model.free, free)
    assert model.n_dof == np.count_nonzero(free)
    assert np.array_equal(np.sort(model.dofs), np.flatnonzero(free))
    for m in (full, model):                         # node and fill order
        # the stored entries are exactly the numbered DOF pairs that
        # share a tet, each once and sorted within its column
        pairs = set()
        for tet in mesh.tets:
            dof = [d for d in m.number[3 * tet[:, None] + np.arange(3)].ravel()
                   if d >= 0]
            pairs.update((c, r) for c in dof for r in dof)
        col = np.repeat(np.arange(m.n_dof), np.diff(m.indptr))
        assert set(zip(col.tolist(), m.indices.tolist())) == pairs
        assert np.all(np.diff(col * m.n_dof + m.indices) > 0)
    assert model.face_pos("cavity").max() == len(model.indices)
    u = _random_displacement(mesh, 5, scale=0.01)
    for layer, args in ((fea.tangent_stiffness, (PARAMS, u)),
                        (fea.pressure_stiffness, (30.0, u))):
        got = layer(mesh, *args, model=model)
        want = layer(mesh, *args, model=full).tocsr()[model.dofs][:, model.dofs]
        want = want.tocsc()
        assert got.format == "csc" and got.has_canonical_format
        assert got.shape == want.shape
        for g, w in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)):
            assert np.array_equal(g, w), layer.__name__


def test_model_numbers_a_mask_in_fill_order_once(pocket_coarse, monkeypatch):
    # Model(mesh) keeps node order; a mask's DOFs are numbered in fill
    # order, and the ordering runs once per model
    orders = []

    def count(a, **kwargs):
        orders.append(kwargs["permc_spec"])
        return spilu(a, **kwargs)

    monkeypatch.setattr(fea, "spilu", count)
    u = _random_displacement(pocket_coarse, 4)
    n = 3 * pocket_coarse.n_nodes
    full = fea.Model(pocket_coarse)
    fea.tangent_stiffness(pocket_coarse, PARAMS, u, model=full)
    assert np.array_equal(full.dofs, np.arange(n))
    assert np.array_equal(full.number, np.arange(n))
    assert orders == []
    free = np.ones(n, bool)
    free[3 * pocket_coarse.node_set("fixed")] = False
    model = fea.Model(pocket_coarse, free)
    for _ in range(2):
        fea.tangent_stiffness(pocket_coarse, PARAMS, u, model=model)
        fea.pressure_stiffness(pocket_coarse, 30.0, u, model=model)
    assert orders == ["MMD_AT_PLUS_A"]
    assert np.array_equal(np.sort(model.dofs), np.flatnonzero(free))
    assert not np.array_equal(model.dofs, np.flatnonzero(free))
    assert np.array_equal(model.number[model.dofs], np.arange(model.n_dof))
    assert np.all(model.number[~free] == -1)


def test_force_and_energy_calls_build_no_pattern(pocket_coarse):
    # the sparsity pattern is built on the first stiffness call only
    model = fea.Model(pocket_coarse)
    u = _random_displacement(pocket_coarse, 3)
    fea.internal_force(pocket_coarse, PARAMS, u, model=model)
    fea.pressure_force(pocket_coarse, 30.0, u, model=model)
    fea.total_strain_energy(pocket_coarse, PARAMS, u, model=model)
    pattern = {"_pattern"}
    assert not pattern & set(vars(model))
    fea.tangent_stiffness(pocket_coarse, PARAMS, u, model=model)
    assert pattern <= set(vars(model))


def test_pressure_faces_outside_tet_pattern_rejected(pocket_coarse):
    face = pocket_coarse.face_set("cavity")[0].copy()
    # a node that shares no tet with the rest of the face
    dist = np.linalg.norm(pocket_coarse.nodes - pocket_coarse.nodes[face[1]],
                          axis=1)
    far = int(np.argmax(dist))
    assert not np.any(np.isin(pocket_coarse.tets, [far]).any(axis=1)
                      & np.isin(pocket_coarse.tets, [face[1]]).any(axis=1))
    face[0] = far
    m = meshmod.Mesh(nodes=pocket_coarse.nodes, tets=pocket_coarse.tets,
                     node_sets=pocket_coarse.node_sets,
                     face_sets={"bad": face[None, :]})
    u = np.zeros((m.n_nodes, 3))
    with pytest.raises(ValueError, match="sparsity pattern"):
        fea.pressure_stiffness(m, 10.0, u, face_set="bad")
    case = fea.LoadCase(target_pressure_kpa=10.0, pressure_set="bad")
    with pytest.raises(ValueError, match="sparsity pattern"):
        fea.solve(m, PARAMS, case)


def test_model_and_mesh_only_calls_agree(pocket_coarse):
    # a passed Model and the one each call builds from the mesh give
    # identical results
    model = fea.Model(pocket_coarse)
    u = _random_displacement(pocket_coarse, 3)
    for layer, args in ((fea.total_strain_energy, (PARAMS, u)),
                        (fea.internal_force, (PARAMS, u)),
                        (fea.tangent_stiffness, (PARAMS, u)),
                        (fea.pressure_force, (30.0, u)),
                        (fea.pressure_stiffness, (30.0, u))):
        got = layer(pocket_coarse, *args, model=model)
        want = layer(pocket_coarse, *args)
        if sparse.issparse(want):
            got = (got.indptr, got.indices, got.data)
            want = (want.indptr, want.indices, want.data)
        else:
            got, want = (got,), (want,)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), layer.__name__


def test_no_private_names_across_modules():
    # every pneusoft module, under each alias it is imported as, is reached
    # from the other modules, the tests and the benchmark only through its
    # public names
    root = Path(__file__).resolve().parent.parent
    modules = ("fea|material|mat|mesh|meshmod|geometry|verify|config|cfgmod"
               "|pneumatics|pneu|robots|cli|elements")
    private = re.compile(rf"(?<![\w.])({modules})\._[A-Za-z]"
                         r"|^from \S+ import .*\b_[A-Za-z]")
    files = [p for d in ("src/pneusoft", "tests", "perfbench")
             for p in sorted((root / d).glob("*.py"))]
    hits = [f"{p.name}:{n}: {line.strip()}" for p in files
            for n, line in enumerate(p.read_text().splitlines(), 1)
            if private.search(line)]
    assert not hits


def test_package_imports_only_stdlib_numpy_and_scipy():
    # the dependency rule: nothing beyond the standard library, numpy and scipy
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    src = Path(__file__).resolve().parent.parent / "src" / "pneusoft"
    hits = []
    for p in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            hits += [f"{p.name}:{node.lineno}: {name}" for name in names
                     if name.split(".")[0] not in allowed]
    assert not hits


def test_reference_tangent_spectrum(small_cube):
    kt = fea.tangent_stiffness(
        small_cube, PARAMS, np.zeros((small_cube.n_nodes, 3))).toarray()
    asym = np.max(np.abs(kt - kt.T))
    assert asym < 1e-9 * np.max(np.abs(kt))
    eig = np.linalg.eigvalsh(0.5 * (kt + kt.T))
    top = eig[-1]
    # six rigid modes and nothing else in the nullspace
    assert np.all(eig[:6] < 1e-8 * top)
    assert eig[6] > 1e-6 * top
    assert eig[0] > -1e-9 * top


def test_constrained_tangent_is_positive_definite(small_cube):
    kt = fea.tangent_stiffness(
        small_cube, PARAMS, np.zeros((small_cube.n_nodes, 3))).toarray()
    mask = np.zeros((small_cube.n_nodes, 3), dtype=bool)
    mask[small_cube.node_set("fixed")] = True
    free = ~mask.reshape(-1)
    eig = np.linalg.eigvalsh(kt[np.ix_(free, free)])
    assert eig[0] > 1e-10 * eig[-1]


def test_pressure_force_on_unit_square():
    m = _square_face_mesh()
    u = np.zeros((9, 3))
    f = fea.pressure_force(m, 10.0, u)
    # 10 kPa on 1 mm^2, pushing against the stored +z winding
    assert np.allclose(f.sum(axis=0), [0.0, 0.0, -0.01], atol=1e-14)
    assert np.all(fea.pressure_force(m, 0.0, u) == 0.0)


def test_pressure_load_is_a_follower(small_cube):
    # rotate the square; the resultant rotates with it
    m = _square_face_mesh()
    r = rotation([1.0, 0.0, 0.0], np.deg2rad(40.0))
    u = m.nodes @ r.T - m.nodes
    f = fea.pressure_force(m, 10.0, u)
    assert np.allclose(f.sum(axis=0), r @ [0.0, 0.0, -0.01], atol=1e-14)


def test_pressure_face_degeneracy_rejected():
    m = _square_face_mesh()
    u = np.zeros((9, 3))
    u[:, 0] = -m.nodes[:, 0]  # collapse the square onto a line
    with pytest.raises(fea.StepRejected, match="degenerated"):
        fea.pressure_force(m, 10.0, u)


def test_load_case_validation():
    with pytest.raises(ValueError, match="vacuum"):
        fea.LoadCase(target_pressure_kpa=-5.0)
    with pytest.raises(ValueError, match="increments"):
        fea.LoadCase(target_pressure_kpa=5.0, increments=0)
    with pytest.raises(ValueError, match="increments"):
        fea.LoadCase(target_pressure_kpa=5.0, increments=fea.MAX_INCREMENTS + 1)
    with pytest.raises(ValueError, match="increments must be an integer"):
        fea.LoadCase(target_pressure_kpa=10.0, increments=2.5)
    assert fea.LoadCase(5.0, increments=fea.MAX_INCREMENTS).increments \
        == fea.MAX_INCREMENTS
    for target in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            fea.LoadCase(target_pressure_kpa=target)


def test_solve_zero_target_returns_reference(pocket_coarse):
    sol = fea.solve(pocket_coarse, PARAMS,
                    fea.LoadCase(target_pressure_kpa=0.0))
    assert sol.n_increments == 1
    assert sol.pressures_kpa[0] == 0.0
    assert np.all(sol.final_u() == 0.0)


def test_solve_rejects_unconstrained_case(pocket_coarse):
    case = fea.LoadCase(target_pressure_kpa=10.0, fixed_set=None)
    with pytest.raises(fea.SolveError, match="unconstrained"):
        fea.solve(pocket_coarse, PARAMS, case)


def test_solve_rejects_fully_constrained_case(pocket_coarse, monkeypatch):
    # refused before the sparsity pattern, which would have no DOFs
    def no_pattern(*args):
        raise AssertionError("built the pattern of a fully constrained case")

    monkeypatch.setattr(fea, "_fill_rank", no_pattern)
    case = fea.LoadCase(target_pressure_kpa=10.0, increments=1)
    with pytest.raises(fea.SolveError, match="constrains every DOF"):
        fea.solve(fully_clamped(pocket_coarse), PARAMS, case)


def test_solve_rejects_free_rigid_modes(small_cube):
    # z pinned at one end and prescribed at the other leaves the body
    # free to slide in x and y and to spin about z
    case = fea.LoadCase(target_pressure_kpa=0.0, fixed_set=None,
                        pressure_set=None, extra_fixed=(("fixed", "z"),))
    pmask = np.zeros((small_cube.n_nodes, 3), dtype=bool)
    pmask[small_cube.node_set("tip"), 2] = True
    with pytest.raises(fea.SolveError,
                       match=r"unconstrained in the rigid-body modes "
                             r"x, y, rot-z;"):
        fea.solve(small_cube, PARAMS, case,
                  prescribed=(pmask, np.where(pmask, 0.1, 0.0)))


def test_solve_rejects_orphan_node(pocket_coarse):
    m = with_orphan_node(pocket_coarse)
    case = fea.LoadCase(target_pressure_kpa=10.0, increments=1)
    with pytest.raises(fea.SolveError,
                       match=rf"nodes \[{pocket_coarse.n_nodes}\] belong to no element"):
        fea.solve(m, PARAMS, case)


def test_singular_factor_ends_in_solve_error(pocket_coarse, monkeypatch):
    def singular(k, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fea, "splu", singular)
    case = fea.LoadCase(target_pressure_kpa=10.0, increments=1)
    with pytest.raises(fea.SolveError, match="exactly singular"):
        fea.solve(pocket_coarse, PARAMS, case)


POCKET_RAMP = fea.LoadCase(target_pressure_kpa=20.0, increments=2)


@pytest.fixture(scope="module")
def pocket_ramp(pocket_coarse):
    return fea.solve(pocket_coarse, PARAMS, POCKET_RAMP)


# the one-chamber bending1 half finger of perfbench's cli-ramp workload,
# where every increment discards a chord
CLI_RAMP = fea.LoadCase(target_pressure_kpa=60.0, increments=10,
                        extra_fixed=(("symx", "x"),))


@pytest.fixture(scope="module")
def cli_ramp_mesh():
    return coarse_mesh("bending1", 10.0, symmetric_half=True, chambers=1,
                       length=24.0)


def test_solution_depends_on_pressure_over_c10(pocket_coarse, pocket_ramp):
    # at a fixed kappa/c10 the energy is c10 times a function of F, so
    # scaling c10 and the pressure together leaves every station in place
    lam = 1.37
    sol = fea.solve(pocket_coarse,
                    material.HyperelasticParams(c10=lam * PARAMS.c10),
                    fea.LoadCase(target_pressure_kpa=lam * 20.0, increments=2))
    assert np.allclose(sol.pressures_kpa, lam * pocket_ramp.pressures_kpa,
                       rtol=1e-15, atol=0.0)
    assert len(sol.displacements) == len(pocket_ramp.displacements)
    for u, ref in zip(sol.displacements, pocket_ramp.displacements):
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert ([rec["factorizations"] for rec in sol.log]
            == [rec["factorizations"] for rec in pocket_ramp.log])


def _patch_fast_splu(monkeypatch, fast):
    """Route the splu calls that carry SuperLU options through ``fast``."""
    def call(k, **kwargs):
        return fast(k, **kwargs) if kwargs else splu(k)

    monkeypatch.setattr(fea, "splu", call)


def _assert_same_solution(sol, ref):
    assert np.allclose(sol.pressures_kpa, ref.pressures_kpa)
    scale = np.max(np.abs(ref.final_u()))
    assert np.max(np.abs(sol.final_u() - ref.final_u())) < fea.REL_TOL * scale


def test_fast_factor_solve_matches_partial_pivoting(pocket_coarse, monkeypatch):
    calls = []

    def spy(k, **kwargs):
        lu = splu(k, **kwargs)
        calls.append((k, kwargs, lu))
        return lu

    monkeypatch.setattr(fea, "splu", spy)
    sol = fea.solve(pocket_coarse, PARAMS, POCKET_RAMP)
    assert all(kwargs for _, kwargs, _ in calls)
    assert sum(rec["factorizations"] for rec in sol.log) == len(calls)
    assert all(rec["fallbacks"] == 0 for rec in sol.log)
    kff, kwargs, lu = calls[-1]
    b = np.random.default_rng(3).standard_normal(kff.shape[0])
    want = splu(kff).solve(b)
    assert np.linalg.norm(lu.solve(b) - want) < 1e-10 * np.linalg.norm(want)
    # without relaxed supernodes the factor stores no padding zeros
    relaxed = {k: v for k, v in kwargs.items() if k != "relax"}
    assert lu.nnz < splu(kff, **relaxed).nnz


def test_newton_factors_in_the_model_order(pocket_coarse, monkeypatch):
    # the model's DOFs are already in fill order, so no factor of a solve
    # orders them again
    specs = []

    def spy(k, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(k, **kwargs)

    monkeypatch.setattr(fea, "splu", spy)
    sol = fea.solve(pocket_coarse, PARAMS, POCKET_RAMP)
    assert len(specs) == sum(rec["factorizations"] for rec in sol.log) > 0
    assert set(specs) == {"NATURAL"}


def _spy_layers(monkeypatch, call):
    """Route fea.tangent_stiffness and fea.pressure_stiffness through
    ``call(layer, args, kwargs)``."""
    for name in ("tangent_stiffness", "pressure_stiffness"):
        layer = getattr(fea, name)

        def spy(*args, layer=layer, **kwargs):
            return call(layer, args, kwargs)

        monkeypatch.setattr(fea, name, spy)


def test_newton_calls_each_stiffness_layer_once_per_fresh_factor(
        pocket_coarse, cli_ramp_mesh, monkeypatch):
    # Newton reaches both layers through the module, once per fresh
    # factor, so wrapping them (as perfbench's spans do) sees every call;
    # a factor built without the load stiffness calls the tangent alone
    calls = []

    def count(layer, args, kwargs):
        calls.append(layer.__name__)
        return layer(*args, **kwargs)

    _spy_layers(monkeypatch, count)
    for mesh, case in ((pocket_coarse, POCKET_RAMP), (cli_ramp_mesh, CLI_RAMP)):
        calls.clear()
        sol = fea.solve(mesh, PARAMS, case)
        fresh = sum(rec["factorizations"] - rec["fallbacks"] for rec in sol.log)
        unloaded = sum(rec["unloaded_factors"] for rec in sol.log)
        assert fresh > 2
        assert (unloaded > 0) == (mesh is cli_ramp_mesh)
        factors = " ".join(calls).replace(
            "tangent_stiffness pressure_stiffness", "full").split()
        assert factors.count("full") == fresh - unloaded
        assert factors.count("tangent_stiffness") == unloaded
        assert len(factors) == fresh
    # a call without Newton's array gets a matrix of its own
    model = fea.Model(pocket_coarse)
    u = _random_displacement(pocket_coarse, 8)
    for layer, args in ((fea.tangent_stiffness, (PARAMS, u)),
                        (fea.pressure_stiffness, (30.0, u))):
        a = layer(pocket_coarse, *args, model=model)
        b = layer(pocket_coarse, *args, model=model)
        assert not np.shares_memory(a.data, b.data)
        assert np.array_equal(a.data, b.data)


def test_newton_assembly_allocates_no_matrix_after_the_first_factor(
        pocket_coarse, monkeypatch):
    # every fresh factor of a solve is assembled in the one array the
    # solve allocates: after the first factor, neither stiffness layer
    # allocates as much as an array of nnz float64 entries
    peaks = []

    def trace(layer, args, kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = layer(*args, **kwargs)
        peaks.append((layer.__name__, tracemalloc.get_traced_memory()[1] - base,
                      8 * len(kwargs["model"].indices)))
        return out

    _spy_layers(monkeypatch, trace)
    tracemalloc.start()
    try:
        fea.solve(pocket_coarse, PARAMS, POCKET_RAMP)
    finally:
        tracemalloc.stop()
    assert len(peaks) > 4
    for name, peak, matrix in peaks[2:]:
        assert peak < matrix, name


def _array_bytes(obj, seen):
    """Bytes of the numpy arrays reachable from ``obj`` through dicts,
    lists and tuples, each array counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if not isinstance(obj, (list, tuple)):
        return 0
    return sum(_array_bytes(x, seen) for x in obj)


def test_solved_model_keeps_no_key_array(pocket_coarse, monkeypatch):
    # after a solve the Model holds its reference data, DOF maps, CSC
    # structure, scatter positions and face data, and no array of keys;
    # face positions still resolve for any face set and refuse a face
    # off the tet pattern
    tets = pocket_coarse.tets
    bad = pocket_coarse.face_set("cavity")[:1].copy()
    bad[0, 0] = int(np.argmax(np.linalg.norm(
        pocket_coarse.nodes - pocket_coarse.nodes[bad[0, 1]], axis=1)))
    mesh = meshmod.Mesh(nodes=pocket_coarse.nodes, tets=tets,
                        node_sets=pocket_coarse.node_sets,
                        face_sets={"cavity": pocket_coarse.face_set("cavity"),
                                   "tets": tets[::5][:, [0, 1, 2, 4, 5, 6]],
                                   "bad": bad})
    models = []

    def record(layer, args, kwargs):
        models.append(kwargs["model"])
        return layer(*args, **kwargs)

    _spy_layers(monkeypatch, record)
    fea.solve(mesh, PARAMS, POCKET_RAMP)
    model = models[0]
    assert all(m is model for m in models)
    m, n3, n, nnz = len(tets), 3 * mesh.n_nodes, model.n_dof, len(model.indices)
    n_q, k = model.detjw.shape[1], len(mesh.face_set("cavity"))
    budget = (m * n_q * (2 * 30 + 1) * 8             # dndx, wdndx, detjw
              + n3 * (1 + 8) + n * 8                 # free, number, dofs
              + (n + 1 + nnz + 900 * m) * 4          # indptr, indices, tet_pos
              + k * (6 + model.faces("cavity")[1].shape[1]) * 8
              + 324 * k * 4)                         # face_pos
    total = _array_bytes({key: value for key, value in vars(model).items()
                          if key != "mesh"}, set())
    assert total <= budget < total + 8 * nnz
    for name in ("cavity", "tets"):
        faces = mesh.face_set(name)
        pos = model.face_pos(name).reshape(len(faces), 18, 18)
        dof = model.number[3 * faces[..., None] + np.arange(3)].reshape(
            len(faces), 1, 18)
        col, row = np.broadcast_arrays(dof, dof.swapaxes(1, 2))
        free = (col >= 0) & (row >= 0)
        assert np.all(pos[~free] == nnz)
        pos, col, row = pos[free], col[free], row[free]
        assert np.all(model.indices[pos] == row), name
        assert np.all((model.indptr[col] <= pos) & (pos < model.indptr[col + 1]))
    with pytest.raises(ValueError, match="sparsity pattern"):
        model.face_pos("bad")


def test_fill_order_keeps_the_minimum_degree_fill(bend_ramp_mesh,
                                                  monkeypatch):
    # the first bend-ramp tangent factored in the model's order has the
    # fill of SuperLU's minimum degree on the node-ordered free block
    mesh = bend_ramp_mesh
    seen = {}

    def first(k, **kwargs):
        seen["kff"], seen["nnz"] = k, splu(k, **kwargs).nnz
        raise _Stop

    monkeypatch.setattr(fea, "splu", first)
    case = fea.LoadCase(target_pressure_kpa=60.0, increments=60,
                        extra_fixed=(("symx", "x"),))
    with pytest.raises(_Stop):
        fea.solve(mesh, PARAMS, case)
    free = np.ones((mesh.n_nodes, 3), bool)
    free[mesh.node_set("fixed")] = False
    free[mesh.node_set("symx"), 0] = False
    back = np.argsort(fea.Model(mesh, free.reshape(-1)).dofs)
    node_block = seen["kff"][back][:, back]
    mmd = splu(node_block, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               relax=1, options=dict(SymmetricMode=True))
    assert seen["nnz"] == mmd.nnz == 641_524


# station angles in degrees of CLI_RAMP with every factor the full
# tangent, before a first factor could leave out the load stiffness
CLI_RAMP_ANGLES = (
    0.0, 0.5958248117112369, 1.1551828997296583,
    1.6806800782112004, 2.1747920539926975, 2.639790851493019,
    3.077721755302243, 3.490409245630935, 3.879477129984379,
    4.246374219331295, 4.592396705524997,
)


def test_load_free_first_factor_saves_factors_on_the_finger(
        cli_ramp_mesh, pocket_coarse):
    sol = fea.solve(cli_ramp_mesh, PARAMS, CLI_RAMP)
    # 33 when every factor carries the load stiffness
    assert sum(rec["factorizations"] for rec in sol.log) <= 27
    assert sum(rec["unloaded_factors"] for rec in sol.log) > 0
    angles = fea.measure_bend_angle(cli_ramp_mesh, sol)
    assert np.max(np.abs(angles - CLI_RAMP_ANGLES)) <= 1e-8
    # the pocket discards no chord, so every factor carries the load
    sol = fea.solve(pocket_coarse, PARAMS,
                    fea.LoadCase(target_pressure_kpa=20.0, increments=5))
    assert all(rec["unloaded_factors"] == 0 for rec in sol.log)


def test_accepted_states_bound_their_correction(pocket_ramp):
    assert pocket_ramp.log[0]["correction"] == 0.0
    for rec in pocket_ramp.log[1:]:
        assert rec["iterations"] >= 1
        assert 0.0 < rec["correction"] <= 1e-8


@pytest.mark.parametrize("error", [1e-3, np.nan])
def test_inaccurate_fast_solve_falls_back(pocket_coarse, pocket_ramp,
                                          monkeypatch, caplog, error):
    class Perturbed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            return self.lu.solve(rhs) * (1.0 + error)

    _patch_fast_splu(monkeypatch, lambda k, **kw: Perturbed(splu(k, **kw)))
    with caplog.at_level(logging.INFO, logger="pneusoft.fea"):
        sol = fea.solve(pocket_coarse, PARAMS, POCKET_RAMP)
    _assert_same_solution(sol, pocket_ramp)
    for rec in sol.log[1:]:
        assert rec["fallbacks"] >= 1
        assert rec["factorizations"] == 2 * rec["fallbacks"]
    messages = [r.getMessage() for r in caplog.records if "COLAMD" in r.getMessage()]
    assert len(messages) == sum(rec["fallbacks"] for rec in sol.log)
    assert all("back-solve residual" in m for m in messages)


def test_failed_fast_factor_falls_back(pocket_coarse, pocket_ramp, monkeypatch,
                                       caplog):
    def fail(k, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    _patch_fast_splu(monkeypatch, fail)
    with caplog.at_level(logging.INFO, logger="pneusoft.fea"):
        sol = fea.solve(pocket_coarse, PARAMS, POCKET_RAMP)
    _assert_same_solution(sol, pocket_ramp)
    # each factorization is a failed fast attempt plus its fallback
    assert [(rec["factorizations"], rec["fallbacks"]) for rec in sol.log] == [
        (2 * rec["factorizations"], rec["factorizations"])
        for rec in pocket_ramp.log]
    assert any("fast factorization failed: Factor is exactly singular"
               in r.getMessage() for r in caplog.records)


def test_bisections_are_logged(pocket_coarse, caplog):
    case = fea.LoadCase(target_pressure_kpa=1e5, increments=1)
    with caplog.at_level(logging.INFO, logger="pneusoft.fea"):
        with pytest.raises(fea.SolveError):
            fea.solve(pocket_coarse, PARAMS, case)
    bisections = [r.getMessage() for r in caplog.records
                  if r.name == "pneusoft.fea" and "bisect" in r.getMessage()]
    assert bisections
    assert all("det F must be positive" in m for m in bisections)


@pytest.mark.parametrize("target, increments", [(90.0, 6), (100.0, 4)])
def test_bisected_ramp_lands_on_every_station(target, increments):
    # the one-chamber bending1 half finger bisects on its way to these
    # overloads; every station must still be a row of the solution
    mesh = coarse_mesh("bending1", 10.0, symmetric_half=True, chambers=1,
                       length=24.0)
    case = fea.LoadCase(target_pressure_kpa=target, increments=increments,
                        extra_fixed=(("symx", "x"),))
    sol = fea.solve(mesh, PARAMS, case)
    assert sol.n_increments > case.increments + 1
    assert np.all(np.diff(sol.pressures_kpa) > 0.0)
    stations = target * np.arange(case.increments + 1) / case.increments
    landed = np.isclose(sol.pressures_kpa[:, None], stations, rtol=1e-9,
                        atol=0.0).any(axis=0)
    assert landed.all(), f"stations {stations[~landed]} kPa were skipped"
    if target == 100.0:
        # one Newton attempt per trial step takes 51 LUs here; retrying a
        # rejected step from the last accepted state before bisecting
        # takes 74
        assert sum(r["factorizations"] for r in sol.log) < 60


def test_solve_missing_sets_raise(pocket_coarse):
    case = fea.LoadCase(target_pressure_kpa=10.0, pressure_set="nope")
    with pytest.raises(KeyError, match="face set"):
        fea.solve(pocket_coarse, PARAMS, case)
    case = fea.LoadCase(target_pressure_kpa=10.0, fixed_set="nope")
    with pytest.raises(KeyError, match="node set"):
        fea.solve(pocket_coarse, PARAMS, case)


def test_solve_rejects_inverted_mesh():
    # corners in negative orientation, then the midpoints of edges
    # (0,1), (1,2), (0,2), (0,3), (1,3), (2,3)
    nodes = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0], [0.0, 0.5, 0.0], [0.5, 0.5, 0.0],
                      [0.5, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.5],
                      [0.5, 0.0, 0.5]])
    m = meshmod.Mesh(nodes=nodes, tets=np.arange(10).reshape(1, 10),
                     node_sets={"fixed": np.array([0])}, face_sets={})
    with pytest.raises(ValueError, match="inverted"):
        fea.solve(m, PARAMS, fea.LoadCase(target_pressure_kpa=0.0))


def test_measurements_on_synthetic_motions(pocket_coarse):
    n = pocket_coarse.n_nodes
    shift = np.tile([0.3, -0.4, 1.2], (n, 1))
    sol = fea.Solution(pressures_kpa=np.array([0.0, 1.0]),
                       displacements=[np.zeros((n, 3)), shift])
    elong = fea.measure_elongation(pocket_coarse, sol)
    assert np.allclose(elong, [0.0, 1.2], atol=1e-12)
    maxd = fea.measure_max_displacement(sol)
    assert np.allclose(maxd, [0.0, 1.3], atol=1e-12)
    bend = fea.measure_bend_angle(pocket_coarse, sol)
    assert np.allclose(bend, [0.0, 0.0], atol=1e-9)

    r = rotation([1.0, 0.0, 0.0], np.deg2rad(30.0))
    rotated = pocket_coarse.nodes @ r.T - pocket_coarse.nodes
    sol = fea.Solution(pressures_kpa=np.array([0.0, 1.0]),
                       displacements=[np.zeros((n, 3)), rotated])
    bend = fea.measure_bend_angle(pocket_coarse, sol)
    assert bend[1] == pytest.approx(30.0, abs=1e-6)


def test_bend_angle_rejects_collinear_set():
    m = _square_face_mesh()
    sol = fea.Solution(pressures_kpa=np.zeros(1),
                       displacements=[np.zeros((9, 3))])
    with pytest.raises(ValueError, match="collinear"):
        fea.measure_bend_angle(m, sol, node_set="edge")


def test_radial_expansion_on_synthetic_motion():
    m = coarse_mesh("tube", 2.5)
    n = m.n_nodes
    radial = np.zeros((n, 3))
    r = np.linalg.norm(m.nodes[:, :2], axis=1)
    radial[:, :2] = 0.1 * m.nodes[:, :2] / r[:, None]
    sol = fea.Solution(pressures_kpa=np.array([0.0, 1.0]),
                       displacements=[np.zeros((n, 3)), radial])
    exp = fea.measure_radial_expansion(m, sol)
    assert np.allclose(exp, [0.0, 0.1], atol=1e-12)


def test_solution_table_and_csv(tmp_path, pocket_coarse):
    n = pocket_coarse.n_nodes
    sol = fea.Solution(pressures_kpa=np.array([0.0]),
                       displacements=[np.zeros((n, 3))])
    rows = fea.solution_table(pocket_coarse, sol)
    assert rows == [(0, 0.0, 0.0, 0.0, 0.0)]
    path = tmp_path / "out.csv"
    fea.write_solution_csv(pocket_coarse, sol, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("increment,pressure_kPa,elongation_mm,"
                        "bend_angle_deg,max_displacement_mm")
    assert len(lines) == 2


def test_solution_under_rotated_frame():
    # solving in a rotated frame rotates the answer and nothing else
    m = coarse_mesh("pocket", 2.5)
    r = rotation([0.3, 1.0, 0.2], 0.9)
    m_rot = meshmod.Mesh(nodes=m.nodes @ r.T, tets=m.tets,
                         node_sets=m.node_sets, face_sets=m.face_sets)
    case = fea.LoadCase(target_pressure_kpa=20.0, increments=4)
    sol = fea.solve(m, PARAMS, case)
    sol_rot = fea.solve(m_rot, PARAMS, case)
    assert sol.n_increments == sol_rot.n_increments
    for u, u_rot in zip(sol.displacements[1:], sol_rot.displacements[1:]):
        a, b = np.linalg.norm(u), np.linalg.norm(u_rot)
        assert abs(a - b) <= 1e-8 * max(a, 1e-12)
        # displacement fields match after rotating back
        assert np.linalg.norm(u_rot - u @ r.T) <= 1e-6 * max(a, 1e-12)
