"""Mesh container, tet10 numbering, quality metrics and mesh file IO."""

import numpy as np
import pytest

from pneusoft import elements, geometry, mesh as meshmod

from conftest import coarse_mesh

# regular one-cell reference tet, corners then exact edge midpoints
_TET_CORNERS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
_TET_NODES = np.vstack([
    _TET_CORNERS,
    [0.5 * (_TET_CORNERS[i] + _TET_CORNERS[j])
     for i, j in elements.TET10_EDGES],
])


def _single_tet_mesh(conn):
    return meshmod.Mesh(nodes=_TET_NODES.copy(),
                        tets=np.array([conn], dtype=np.int64),
                        node_sets={}, face_sets={})


def test_counting_oracle_for_cube_grid():
    # n cells per side: (n+1)^3 corners, 3n(n+1)^2 + 3n^2(n+1) + n^3 edge
    # midpoints (cube edges, face diagonals, body diagonals), 6n^3 tets
    for n, size in ((1, 1.0), (2, 0.5)):
        m = coarse_mesh("cube", size)
        expected_nodes = ((n + 1) ** 3 + 3 * n * (n + 1) ** 2
                          + 3 * n * n * (n + 1) + n ** 3)
        assert m.n_nodes == expected_nodes
        assert m.n_elements == 6 * n ** 3


def test_mesh_set_accessors():
    m = coarse_mesh("cube", 0.5)
    assert m.node_set("fixed").size > 0
    with pytest.raises(KeyError, match="available"):
        m.node_set("nope")
    with pytest.raises(KeyError, match="available"):
        m.face_set("cavity")


@pytest.mark.parametrize("kind, size, half", [
    ("tube", 2.5, False),          # the theta seam closes the ring
    ("bending2", 4.0, True),
    ("linear", 4.0, False),        # with bellows rings
    ("pocket", 2.5, False),
])
def test_tet10_mid_nodes_are_shared_edge_midpoints(kind, size, half):
    m = coarse_mesh(kind, size, symmetric_half=half)
    ends = m.tets[:, elements.TET10_EDGES]         # (M, 6, 2)
    mids = m.tets[:, 4:]
    assert np.array_equal(m.nodes[mids], 0.5 * (m.nodes[ends[..., 0]]
                                                 + m.nodes[ends[..., 1]]))
    # one mid-node id per distinct corner pair, and no id on two pairs
    pairs, pair = np.unique(np.sort(ends.reshape(-1, 2), axis=1), axis=0,
                            return_inverse=True)
    pair_mid = np.unique(np.column_stack([pair.ravel(), mids.ravel()]), axis=0)
    assert len(pair_mid) == len(pairs) == len(np.unique(mids))
    assert np.intersect1d(mids, m.tets[:, :4]).size == 0
    assert len(np.unique(m.nodes, axis=0)) == m.n_nodes


def test_quality_of_straight_tet():
    m = _single_tet_mesh(np.arange(10))
    q = meshmod.mesh_quality(m)
    assert q.n_elements == 1
    assert q.min_jacobian_ratio == pytest.approx(1.0, abs=1e-12)
    assert q.n_inverted == 0
    assert q.n_poor == 0
    assert 0.0 < q.min_dihedral_deg < 90.0


def test_quality_flags_inverted_tet():
    # corners reordered to flip orientation, midpoints remapped to match
    m = _single_tet_mesh([0, 2, 1, 3, 6, 5, 4, 7, 9, 8])
    q = meshmod.mesh_quality(m)
    assert q.n_inverted == 1
    assert q.min_jacobian_ratio < 0.0


def test_quality_of_empty_mesh():
    m = meshmod.Mesh(nodes=np.empty((0, 3)),
                     tets=np.empty((0, 10), dtype=np.int64),
                     node_sets={}, face_sets={})
    q = meshmod.mesh_quality(m)
    assert (q.n_elements, q.min_jacobian_ratio, q.min_dihedral_deg) \
        == (0, 1.0, 180.0)
    assert q.n_inverted == 0 and q.n_poor == 0


def test_generated_meshes_are_clean():
    for kind, size in (("pocket", 1.0), ("bending1", 1.0)):
        m = coarse_mesh(kind, size)
        q = meshmod.mesh_quality(m)
        assert q.n_inverted == 0, kind
        assert q.n_poor == 0, kind
        assert q.min_jacobian_ratio > meshmod.POOR_JACOBIAN_RATIO


def test_refinement_multiplies_element_count():
    coarse = coarse_mesh("cube", 0.5)
    fine = coarse_mesh("cube", 0.25)
    assert fine.n_elements == 8 * coarse.n_elements


def test_element_jacobians_shape_and_scale(small_cube):
    det = meshmod.element_jacobians(small_cube)
    assert det.shape == (small_cube.n_elements, 4)
    assert np.all(det > 0.0)
    # quadrature-weighted dets integrate to the 1 mm^3 cube volume
    _, wts = elements.tet_quadrature()
    volume = float(np.einsum("eq,q->", det, wts))
    assert volume == pytest.approx(1.0, rel=1e-12)


def test_save_load_round_trip(tmp_path, pocket_coarse):
    path = tmp_path / "pocket.msh"
    meshmod.save_mesh(pocket_coarse, path)
    loaded = meshmod.load_mesh(path)
    assert np.array_equal(loaded.nodes, pocket_coarse.nodes)
    assert np.array_equal(loaded.tets, pocket_coarse.tets)
    assert sorted(loaded.node_sets) == sorted(pocket_coarse.node_sets)
    for name, ids in pocket_coarse.node_sets.items():
        assert np.array_equal(loaded.node_sets[name], ids)
    for name, faces in pocket_coarse.face_sets.items():
        assert np.array_equal(loaded.face_sets[name], faces)
    # second save of the loaded mesh is byte identical
    path2 = tmp_path / "pocket2.msh"
    meshmod.save_mesh(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_is_deterministic(tmp_path, small_cube):
    a, b = tmp_path / "a.msh", tmp_path / "b.msh"
    meshmod.save_mesh(small_cube, a)
    meshmod.save_mesh(small_cube, b)
    assert a.read_bytes() == b.read_bytes()


def _load_text(tmp_path, text):
    path = tmp_path / "bad.msh"
    path.write_text(text)
    return meshmod.load_mesh(path)


VALID_SMALL = """pneusoft-mesh v1
nodes 3
0 0 0 0
1 1 0 0
2 0 1 0
tet10 0
nodeset a 2
0
1
"""


def test_load_small_valid_file(tmp_path):
    m = _load_text(tmp_path, VALID_SMALL)
    assert m.n_nodes == 3
    assert m.n_elements == 0
    assert np.array_equal(m.node_set("a"), [0, 1])
    # quality metrics tolerate the empty element block
    assert meshmod.mesh_quality(m).n_elements == 0


def test_load_ignores_comments_and_blanks(tmp_path):
    text = VALID_SMALL.replace("nodes 3", "# preamble\n\nnodes 3   # count")
    m = _load_text(tmp_path, text)
    assert m.n_nodes == 3


@pytest.mark.parametrize("mutate, match", [
    (lambda t: t.replace("pneusoft-mesh v1", "pneusoft-mesh v2"),
     r"line 1: bad header"),
    (lambda t: t.replace("1 1 0 0", "2 1 0 0"),
     r"line 4: node id 2 out of order"),
    (lambda t: t.replace("1 1 0 0", "1 nan 0 0"),
     r"line 4: non-finite coordinate"),
    (lambda t: t.replace("1 1 0 0", "1 inf 0 0"),
     r"line 4: non-finite coordinate"),
    (lambda t: t.replace("1 1 0 0", "1 1 0"),
     r"line 4: node lines need"),
    (lambda t: t.replace("1 1 0 0", "1 x 0 0"),
     r"line 4: could not convert string to float: 'x'"),
    (lambda t: t.replace("1 1 0 0", "one 1 0 0"),
     r"line 4: invalid literal for int\(\) with base 10: 'one'"),
    (lambda t: t.replace("tet10 0", "tet10 1\n0 1 2 3 0 0 0 0 0 0"),
     r"line 7: node id 3 outside 0\.\.2"),
    (lambda t: t.replace("tet10 0", "tet10 1\n0 1 2 0 0 0 0 0 0"),
     r"line 7: expected 10 fields"),
    (lambda t: t.replace("nodeset a 2\n0\n1\n",
                         "nodeset a 1\n0\nnodeset a 1\n1\n"),
     r"duplicate nodeset 'a'"),
    (lambda t: t.replace("nodeset a 2", "nodeset a"),
     r"expected 'nodeset\|faceset"),
    (lambda t: t.replace("nodeset a 2\n0\n1\n", "nodeset a 1\n9\n"),
     r"node id 9 outside"),
    (lambda t: t[:t.index("1 1 0 0")],
     r"unexpected end of file"),
    # impossible counts are refused before any array is allocated
    (lambda t: t.replace("nodes 3", "nodes 100000000000"),
     r"line 2: unexpected end of file: nodes declares 100000000000 entries, "
     r"lines left: 7$"),
    (lambda t: t.replace("nodes 3", "nodes -3"),
     r"line 2: nodes count '-3' is not a non-negative integer"),
    (lambda t: t.replace("nodes 3", "nodes abc"),
     r"line 2: nodes count 'abc' is not a non-negative integer"),
    (lambda t: t.replace("tet10 0", "tet10 100000000000"),
     r"line 6: unexpected end of file: tet10 declares 100000000000 entries, "
     r"lines left: 3$"),
    (lambda t: t.replace("nodeset a 2", "nodeset a 100000000000"),
     r"line 7: unexpected end of file: nodeset 'a' declares 100000000000 "
     r"entries, lines left: 2$"),
    (lambda t: t.replace("nodeset a 2", "nodeset a -1"),
     r"line 7: nodeset 'a' count '-1' is not a non-negative integer"),
])
def test_load_rejects_malformed_files(tmp_path, mutate, match):
    with pytest.raises(meshmod.MeshFormatError, match=match):
        _load_text(tmp_path, mutate(VALID_SMALL))


def test_format_error_is_value_error():
    assert issubclass(meshmod.MeshFormatError, ValueError)
