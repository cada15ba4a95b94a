"""Parametric actuator meshing: archetypes, sets, validation."""

import math

import numpy as np
import pytest

from pneusoft import geometry, mesh as meshmod

from conftest import coarse_mesh


def test_kind_defaults_fill_missing_dimensions():
    s1 = geometry.ActuatorSpec(kind="bending1")
    assert (s1.length, s1.width, s1.height) == (92.0, 15.0, 13.0)
    assert (s1.wall, s1.strain_wall, s1.chambers) == (2.0, 3.0, 9)
    s2 = geometry.ActuatorSpec(kind="bending2")
    assert (s2.length, s2.width, s2.height) == (70.0, 20.0, 24.0)
    assert (s2.wall, s2.strain_wall, s2.chambers) == (4.0, 5.0, 4)
    lin = geometry.ActuatorSpec(kind="linear")
    assert (lin.length, lin.width, lin.height) == (80.0, 16.0, 16.0)
    tube = geometry.ActuatorSpec(kind="tube")
    assert (tube.width, tube.wall, tube.length) == (20.0, 5.0, 2.0)
    # explicit values win over the kind defaults
    assert geometry.ActuatorSpec(kind="bending2", wall=3.0).wall == 3.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        geometry.ActuatorSpec(kind="octopus")


def test_chamber_pitch():
    spec = geometry.ActuatorSpec(kind="bending2")
    # chamber cells tile length minus the two end walls
    assert spec.chamber_pitch() == pytest.approx((70.0 - 8.0 + 2.0) / 4.0)


def test_generate_rejects_bad_dimensions():
    # the spec checks its fields when it is built, before any consumer
    cases = [
        (dict(kind="linear", wall=0.0), "wall"),
        (dict(kind="linear", length=-5.0), "length"),
        (dict(kind="bending1", chambers=0), "chamber"),
        (dict(kind="linear", bellows_depth=-1.0), "bellows"),
        (dict(kind="pocket", element_size=-1.0), "element_size"),
        # non-finite values would mesh or fail far from their cause
        (dict(kind="cube", element_size=math.inf), "element_size"),
        (dict(kind="linear", length=math.nan), "length"),
        (dict(kind="bending1", wall=math.inf), "wall"),
        (dict(kind="bending1", gap=math.nan), "gap"),
        (dict(kind="linear", bellows_depth=math.inf), "bellows_depth"),
    ]
    for kwargs, match in cases:
        with pytest.raises(ValueError, match=match):
            geometry.ActuatorSpec(**kwargs)


def test_generate_rejects_walls_thicker_than_body():
    spec = geometry.ActuatorSpec(kind="bending2", wall=10.0)
    with pytest.raises(ValueError):
        geometry.generate_mesh(spec)
    spec = geometry.ActuatorSpec(kind="linear", wall=8.0)
    with pytest.raises(ValueError):
        geometry.generate_mesh(spec)


def test_tube_has_no_half_model():
    with pytest.raises(ValueError, match="half"):
        geometry.ActuatorSpec(kind="tube", symmetric_half=True)


def test_coarse_element_size_warns():
    spec = geometry.ActuatorSpec(kind="pocket", element_size=2.5)
    with pytest.warns(UserWarning, match="exceeds half"):
        geometry.generate_mesh(spec)


def test_default_element_size_is_half_min_feature():
    assert geometry.ActuatorSpec(kind="pocket").element_size == 1.0
    assert geometry.ActuatorSpec(kind="bending1").element_size == 1.0
    assert geometry.ActuatorSpec(kind="bending2").element_size == 2.0
    assert geometry.ActuatorSpec(kind="tube").element_size == 2.5


def test_box_kind_node_and_face_sets():
    m = coarse_mesh("pocket", 2.0)
    assert {"fixed", "tip"} <= set(m.node_sets)
    assert "cavity" in m.face_sets
    assert np.allclose(m.nodes[m.node_set("fixed"), 2], 0.0)
    assert np.allclose(m.nodes[m.node_set("tip"), 2], 10.0)
    # the solid cube has no cavity
    cube = coarse_mesh("cube", 0.5)
    assert cube.face_sets == {}


def test_symmetric_half_sets():
    full = coarse_mesh("bending2", 4.0)
    half = coarse_mesh("bending2", 4.0, symmetric_half=True)
    assert "symx" in half.node_sets
    assert np.allclose(np.abs(half.nodes[half.node_set("symx"), 0]), 0.0,
                       atol=1e-12)
    assert half.n_nodes < full.n_nodes
    assert np.all(half.nodes[:, 0] >= -1e-12)


def test_tube_sets_and_radii():
    m = coarse_mesh("tube", 2.5)
    assert {"end0", "end1", "inner", "xaxis", "yaxis"} <= set(m.node_sets)
    inner = m.nodes[m.node_set("inner")]
    r = np.hypot(inner[:, 0], inner[:, 1])
    # corners on the circle, straight-edge midpoints on the chords
    assert r.max() == pytest.approx(5.0, abs=1e-9)
    assert np.all(r > 5.0 * np.cos(np.pi / 8.0) - 1e-9)
    assert np.all(r <= 5.0 + 1e-9)
    assert np.allclose(m.nodes[m.node_set("end0"), 2], 0.0)
    assert np.allclose(m.nodes[m.node_set("end1"), 2], 2.0)
    assert np.allclose(m.nodes[m.node_set("xaxis"), 1], 0.0, atol=1e-9)
    assert np.allclose(m.nodes[m.node_set("yaxis"), 0], 0.0, atol=1e-9)
    assert "cavity" in m.face_sets
    outer = np.hypot(m.nodes[:, 0], m.nodes[:, 1])
    assert outer.max() == pytest.approx(10.0, abs=1e-9)


def test_bending2_fine_mesh_is_valid():
    # wall 4 mm at 1 mm elements: every jacobian strictly positive
    spec = geometry.ActuatorSpec(kind="bending2", wall=4.0, element_size=1.0)
    m = geometry.generate_mesh(spec)
    det = meshmod.element_jacobians(m)
    assert np.all(det > 0.0)
    q = meshmod.mesh_quality(m)
    assert q.n_inverted == 0 and q.n_poor == 0


@pytest.mark.parametrize("kind, size, half", [("pocket", 2.0, False),
                                              ("pocket", 1.95, True),
                                              ("bending2", 8.0, True),
                                              ("tube", 2.5, False)])
def test_node_cap_refuses_oversized_specs(kind, size, half, monkeypatch):
    # the cap bounds the half-spaced grid the mesher allocates, which
    # holds every node: a cap at its size meshes, and one point less
    # refuses, as does any cap below the node count (2405 for the half
    # pocket at 1.95 mm).  A box kind's half-grid coordinates on each
    # axis are those of its nodes; the tube's nodes fill its grid.
    m = coarse_mesh(kind, size, symmetric_half=half)
    grid = m.n_nodes if kind == "tube" else math.prod(
        len(np.unique(m.nodes[:, ax])) for ax in range(3))
    monkeypatch.setattr(geometry, "MAX_MESH_NODES", grid)
    assert coarse_mesh(kind, size, symmetric_half=half).n_nodes == m.n_nodes
    for cap in (grid - 1, m.n_nodes - 1):
        monkeypatch.setattr(geometry, "MAX_MESH_NODES", cap)
        with pytest.raises(ValueError, match=f"the {kind} spec .* mesh nodes"):
            coarse_mesh(kind, size, symmetric_half=half)


def test_generation_is_deterministic(tmp_path):
    a = coarse_mesh("bending1", 4.0)
    b = coarse_mesh("bending1", 4.0)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.tets, b.tets)
    pa, pb = tmp_path / "a.msh", tmp_path / "b.msh"
    meshmod.save_mesh(a, pa)
    meshmod.save_mesh(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_cavity_face_sets_close():
    # a watertight pressure surface: area-weighted normals cancel
    for kind, size in (("pocket", 1.0), ("linear", 2.0),
                       ("bending1", 2.0), ("bending2", 2.0)):
        m = coarse_mesh(kind, size)
        total, area = meshmod.face_normal_sum(m, "cavity")
        assert area > 0.0
        assert np.linalg.norm(total) < 1e-8 * area, kind


def test_tube_cavity_closes_in_plane():
    # the tube cavity is the inner wall only; closure holds in x and y
    m = coarse_mesh("tube", 2.5)
    total, area = meshmod.face_normal_sum(m, "cavity")
    assert area > 0.0
    assert abs(total[0]) < 1e-8 * area
    assert abs(total[1]) < 1e-8 * area
