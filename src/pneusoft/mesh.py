"""Mesh container, quality metrics and ASCII I/O.

The on-disk format is a line-oriented ASCII file:

    pneusoft-mesh v1
    nodes <N>
    <id> <x> <y> <z>          (N lines, ids dense 0..N-1 in order)
    tet10 <M>
    <10 node ids>             (M lines)
    nodeset <name> <K>
    <id>                      (K lines)
    faceset <name> <K>
    <6 node ids>              (K lines)

'#' starts a comment, blank lines are ignored, line endings are LF.
Coordinates are written with 17 significant digits so a load/save cycle
reproduces the file byte for byte.
"""

from dataclasses import dataclass, field

import numpy as np

from .elements import TRI_W, tet10_jacobian, tri6_tangents

FORMAT_HEADER = "pneusoft-mesh v1"
POOR_JACOBIAN_RATIO = 0.05


class MeshFormatError(ValueError):
    """Malformed mesh file; message carries the 1-based line number."""


@dataclass
class Mesh:
    """Nodes, 10-node tets and named node/face sets.

    ``face_sets`` store 6-node triangles (three corners, then mid-edge
    nodes) oriented so the right-hand normal points out of the solid.
    """

    nodes: np.ndarray
    tets: np.ndarray
    node_sets: dict = field(default_factory=dict)
    face_sets: dict = field(default_factory=dict)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.tets.shape[0]

    def node_set(self, name):
        if name not in self.node_sets:
            raise KeyError(f"mesh has no node set {name!r}; "
                           f"available: {sorted(self.node_sets)}")
        return self.node_sets[name]

    def face_set(self, name):
        if name not in self.face_sets:
            raise KeyError(f"mesh has no face set {name!r}; "
                           f"available: {sorted(self.face_sets)}")
        return self.face_sets[name]


def element_jacobians(mesh):
    """det of the reference-to-physical map at each quadrature point, (M, 4)."""
    return np.linalg.det(tet10_jacobian(mesh.nodes[mesh.tets]))


@dataclass(frozen=True)
class MeshQuality:
    n_nodes: int
    n_elements: int
    min_jacobian_ratio: float
    min_dihedral_deg: float
    n_inverted: int
    n_poor: int


def mesh_quality(mesh):
    """Per-mesh quality summary; inverted elements show up as ratio <= 0."""
    if mesh.n_elements == 0:
        return MeshQuality(mesh.n_nodes, 0, 1.0, 180.0, 0, 0)
    det = element_jacobians(mesh)
    ref = np.max(np.abs(det), axis=1)
    ratio = np.min(det, axis=1) / ref
    inverted = int(np.sum(np.any(det <= 0.0, axis=1)))
    poor = int(np.sum(ratio < POOR_JACOBIAN_RATIO))

    x = mesh.nodes[mesh.tets[:, :4]]               # corner coords (M, 4, 3)
    faces = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    v1 = x[:, faces[:, 1]] - x[:, faces[:, 0]]
    v2 = x[:, faces[:, 2]] - x[:, faces[:, 0]]
    n = np.cross(v1, v2)
    n /= np.linalg.norm(n, axis=2, keepdims=True)
    # the six face pairs share the six edges of the tet
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    min_dih = 180.0
    for a, b in pairs:
        cosang = np.clip(np.einsum("ei,ei->e", n[:, a], n[:, b]), -1.0, 1.0)
        dih = 180.0 - np.degrees(np.arccos(cosang))
        min_dih = min(min_dih, float(np.min(dih)))
    return MeshQuality(mesh.n_nodes, mesh.n_elements,
                       float(np.min(ratio)), min_dih, inverted, poor)


def face_normal_sum(mesh, name):
    """Area-weighted normal sum and total area of a face set.

    Uses the same quadrature as the pressure load, so a closed cavity
    returns a sum that vanishes to round-off.
    """
    _, nvec = tri6_tangents(mesh.nodes[mesh.face_set(name)])   # (K, q, 3)
    total = np.einsum("fqi,q->i", nvec, TRI_W)
    area = float(np.einsum("fq,q->", np.linalg.norm(nvec, axis=2), TRI_W))
    return total, area


def _fmt(x):
    return format(float(x), ".17g")


def save_mesh(mesh, path):
    """Write the ASCII format; deterministic bytes for a given mesh."""
    lines = [FORMAT_HEADER]
    lines.append(f"nodes {mesh.n_nodes}")
    for i, (x, y, z) in enumerate(mesh.nodes):
        lines.append(f"{i} {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    lines.append(f"tet10 {mesh.n_elements}")
    for conn in mesh.tets:
        lines.append(" ".join(str(int(c)) for c in conn))
    for name, ids in mesh.node_sets.items():
        lines.append(f"nodeset {name} {len(ids)}")
        for i in ids:
            lines.append(str(int(i)))
    for name, faces in mesh.face_sets.items():
        lines.append(f"faceset {name} {len(faces)}")
        for conn in faces:
            lines.append(" ".join(str(int(c)) for c in conn))
    data = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def _parse_ints(parts, count, lineno, what):
    if len(parts) != count:
        raise MeshFormatError(f"line {lineno}: expected {count} fields for {what}, "
                              f"got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise MeshFormatError(f"line {lineno}: {exc}") from None


def load_mesh(path):
    """Parse the ASCII format, validating ids against the node count."""
    with open(path, "rb") as fh:
        raw = fh.read().decode("ascii")
    # strip comments, remember original line numbers
    content = []
    for lineno, line in enumerate(raw.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            content.append((lineno, stripped))
    pos = 0

    def next_line(expect=None):
        nonlocal pos
        if pos >= len(content):
            raise MeshFormatError(f"unexpected end of file, expected {expect or 'more data'}")
        item = content[pos]
        pos += 1
        return item

    def read_count(text, lineno, what):
        # checked before any allocation: each entry takes one of the lines left
        if not text.isdigit():
            raise MeshFormatError(f"line {lineno}: {what} count {text!r} is "
                                  "not a non-negative integer")
        count, left = int(text), len(content) - pos
        if count > left:
            raise MeshFormatError(
                f"line {lineno}: unexpected end of file: {what} declares "
                f"{count} entries, lines left: {left}")
        return count

    lineno, header = next_line("header")
    if header != FORMAT_HEADER:
        raise MeshFormatError(f"line {lineno}: bad header {header!r}, "
                              f"expected {FORMAT_HEADER!r}")

    lineno, decl = next_line("nodes block")
    parts = decl.split()
    if len(parts) != 2 or parts[0] != "nodes":
        raise MeshFormatError(f"line {lineno}: expected 'nodes <N>', got {decl!r}")
    n_nodes = read_count(parts[1], lineno, "nodes")
    nodes = np.empty((n_nodes, 3))
    for i in range(n_nodes):
        lineno, line = next_line("node line")
        parts = line.split()
        if len(parts) != 4:
            raise MeshFormatError(f"line {lineno}: node lines need 'id x y z'")
        try:
            node_id, xyz = int(parts[0]), [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise MeshFormatError(f"line {lineno}: {exc}") from None
        if node_id != i:
            raise MeshFormatError(f"line {lineno}: node id {parts[0]} out of order, "
                                  f"expected {i}")
        nodes[i] = xyz
        if not np.all(np.isfinite(nodes[i])):
            raise MeshFormatError(f"line {lineno}: non-finite coordinate")

    def check_ids(ids, lineno):
        for v in ids:
            if v < 0 or v >= n_nodes:
                raise MeshFormatError(
                    f"line {lineno}: node id {v} outside 0..{n_nodes - 1}")

    lineno, decl = next_line("tet10 block")
    parts = decl.split()
    if len(parts) != 2 or parts[0] != "tet10":
        raise MeshFormatError(f"line {lineno}: expected 'tet10 <M>', got {decl!r}")
    n_elems = read_count(parts[1], lineno, "tet10")
    tets = np.empty((n_elems, 10), dtype=np.int64)
    for i in range(n_elems):
        lineno, line = next_line("element line")
        ids = _parse_ints(line.split(), 10, lineno, "a tet10 element")
        check_ids(ids, lineno)
        tets[i] = ids

    node_sets, face_sets = {}, {}
    while pos < len(content):
        lineno, decl = next_line()
        parts = decl.split()
        if len(parts) != 3 or parts[0] not in ("nodeset", "faceset"):
            raise MeshFormatError(f"line {lineno}: expected 'nodeset|faceset "
                                  f"<name> <K>', got {decl!r}")
        kind, name = parts[0], parts[1]
        count = read_count(parts[2], lineno, f"{kind} {name!r}")
        target = node_sets if kind == "nodeset" else face_sets
        if name in target:
            raise MeshFormatError(f"line {lineno}: duplicate {kind} {name!r}")
        rows = []
        for _ in range(count):
            lineno, line = next_line(f"{kind} entry")
            width = 1 if kind == "nodeset" else 6
            ids = _parse_ints(line.split(), width, lineno, f"a {kind} entry")
            check_ids(ids, lineno)
            rows.append(ids[0] if kind == "nodeset" else ids)
        if kind == "nodeset":
            target[name] = np.asarray(rows, dtype=np.int64)
        else:
            target[name] = np.asarray(rows, dtype=np.int64).reshape(count, 6)

    return Mesh(nodes=nodes, tets=tets, node_sets=node_sets, face_sets=face_sets)
