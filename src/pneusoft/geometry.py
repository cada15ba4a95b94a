"""Parametric actuator solids and their structured tet meshes.

Every mesh comes from a structured grid of cells fitted to the solid:
grid lines sit on every material boundary, each solid cell splits into
six tets that share face diagonals with their neighbors, and mid-edge
nodes are inserted at straight-edge midpoints.  The same machinery
drives three actuator archetypes and three test fixtures:

    linear    square bellows tube, elongates under pressure
    bending1  long thin-walled chambered bender on a strain-limiting
              base layer, large tip angles at moderate pressure
    bending2  same topology with 4 mm walls, shorter and stockier,
              trades angle for stance stiffness
    cube      solid block (patch and counting tests)
    pocket    block with a sealed internal chamber (closed-cavity tests)
    tube      open thick-walled cylinder (inflation benchmark)

Node sets: "fixed" and "tip" on the axial end planes for box kinds
(plus "symx" on half models); "end0", "end1", "inner", "xaxis",
"yaxis" for the tube.  Face set "cavity" holds the pressurized
surface, oriented out of the solid.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, promote_to_tet10

KINDS = ("linear", "bending1", "bending2", "cube", "pocket", "tube")
# generate_mesh refuses specs estimated above this many nodes, which
# would take about 0.5 GB to mesh and far more to solve (bending2 at
# 1 mm has 215 k nodes)
MAX_MESH_NODES = 1_000_000

# six tets per cell, all sharing the (0,0,0)-(1,1,1) diagonal,
# positively oriented
_KUHN_TETS = (
    ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)),
    ((0, 0, 0), (1, 0, 0), (1, 1, 1), (1, 0, 1)),
    ((0, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, 0)),
    ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)),
    ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)),
    ((0, 0, 0), (0, 0, 1), (1, 1, 1), (0, 1, 1)),
)

# boundary-quad triangles per (axis, side), outward oriented, matching
# the diagonals the tet split induces on cell faces
_FACE_TRIS = {
    (0, 0): (((0, 0, 0), (0, 1, 1), (0, 1, 0)), ((0, 0, 0), (0, 0, 1), (0, 1, 1))),
    (0, 1): (((1, 0, 0), (1, 1, 0), (1, 1, 1)), ((1, 0, 0), (1, 1, 1), (1, 0, 1))),
    (1, 0): (((0, 0, 0), (1, 0, 0), (1, 0, 1)), ((0, 0, 0), (1, 0, 1), (0, 0, 1))),
    (1, 1): (((0, 1, 0), (1, 1, 1), (1, 1, 0)), ((0, 1, 0), (0, 1, 1), (1, 1, 1))),
    (2, 0): (((0, 0, 0), (1, 1, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0), (1, 1, 0))),
    (2, 1): (((0, 0, 1), (1, 0, 1), (1, 1, 1)), ((0, 0, 1), (1, 1, 1), (0, 1, 1))),
}

SOLID, CAVITY, OUTSIDE = 1, 2, 0


@dataclass(frozen=True)
class ActuatorSpec:
    """Parametric description of one actuator or fixture solid.

    Lengths in mm.  ``width``/``height`` are the outer cross-section
    (width doubles as outer diameter for ``tube``); ``wall`` is the
    side, top and chamber-divider wall, ``strain_wall`` the thicker
    bottom layer that resists stretching in the bending kinds,
    ``cap``/``inlet_wall`` seal the linear chamber at the ends.  The
    bending kinds carry ``chambers`` pressurized lobes separated by
    ``gap`` wide air slots above the base layer.  The bellows of the
    linear kind are reinforcement rings: ``bellows_count`` bands where
    the outer cross-section grows by ``bellows_depth``.
    ``symmetric_half`` meshes only x >= 0 and adds a "symx" node set
    (box kinds are mirror-symmetric, so half models halve solve cost).
    ``element_size`` defaults to half the thinnest feature.
    """

    kind: str
    length: float = None
    width: float = None
    height: float = None
    wall: float = None
    strain_wall: float = None
    cap: float = None
    inlet_wall: float = None
    chambers: int = None
    gap: float = None
    bellows_count: int = None
    bellows_depth: float = None
    symmetric_half: bool = False
    element_size: float = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown actuator kind {self.kind!r}, "
                             f"expected one of {KINDS}")
        defaults = _KIND_DEFAULTS[self.kind]
        for name, value in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.element_size is None:
            object.__setattr__(self, "element_size", self.min_feature() / 2.0)

    def min_feature(self):
        """Thinnest geometric feature, the element-size yardstick."""
        if self.kind == "cube":
            return self.width
        if self.kind == "tube":
            return self.wall
        if self.kind in ("bending1", "bending2"):
            return min(self.wall, self.strain_wall)
        return min(self.wall, self.cap, self.inlet_wall, self.strain_wall)

    def chamber_pitch(self):
        """Length of one chamber plus one slot for the bending kinds."""
        if self.chambers < 1:
            raise ValueError(f"{self.kind!r} spec has no chambers")
        span = self.length - 2.0 * self.wall + self.gap
        return span / self.chambers


# archetype dimensions are calibrated so the bending kinds hit their
# reference tip angles at 60 kPa with the default material
_BASE_DEFAULTS = dict(chambers=0, gap=0.0, bellows_count=0, bellows_depth=0.0)

_KIND_DEFAULTS = {
    "linear": dict(length=80.0, width=16.0, height=16.0, wall=2.0,
                   strain_wall=2.0, cap=2.0, inlet_wall=2.0,
                   bellows_count=4, bellows_depth=1.5),
    "bending1": dict(length=92.0, width=15.0, height=13.0, wall=2.0,
                     strain_wall=3.0, cap=2.0, inlet_wall=2.0,
                     chambers=9, gap=2.0),
    "bending2": dict(length=70.0, width=20.0, height=24.0, wall=4.0,
                     strain_wall=5.0, cap=4.0, inlet_wall=4.0,
                     chambers=4, gap=2.0),
    "cube": dict(length=1.0, width=1.0, height=1.0, wall=1.0,
                 strain_wall=1.0, cap=1.0, inlet_wall=1.0),
    "pocket": dict(length=10.0, width=10.0, height=10.0, wall=2.0,
                   strain_wall=2.0, cap=2.0, inlet_wall=2.0),
    "tube": dict(length=2.0, width=20.0, wall=5.0, height=20.0,
                 strain_wall=5.0, cap=5.0, inlet_wall=5.0),
}
for _d in _KIND_DEFAULTS.values():
    for _k, _v in _BASE_DEFAULTS.items():
        _d.setdefault(_k, _v)


def _axis_lines(breaks, h):
    """Grid coordinates with every break on a line and spacing <= h."""
    breaks = sorted(set(float(b) for b in breaks))
    pts = [breaks[0]]
    for b0, b1 in zip(breaks, breaks[1:]):
        n = max(1, math.ceil((b1 - b0) / h - 1e-9))
        pts.extend(np.linspace(b0, b1, n + 1)[1:])
    return np.asarray(pts)


def _structured_tets(points, cells, periodic_theta=False):
    """Tets, face records and bookkeeping for a classified cell grid.

    ``points`` is (n0, n1, n2, 3); ``cells`` the (n0-1, n1-1|n1, n2-1)
    classification.  With ``periodic_theta`` axis 1 wraps: cells use all
    n1 point columns and column n1 connects back to column 0.

    Returns (mesh_nodes, tets10, edge_mid, grid_to_node, face_records)
    where face_records are (axis, side, neighbor_class, tri6) tuples and
    ``grid_to_node`` maps flat grid-point ids to mesh node ids (-1 where
    unused).
    """
    n0, n1, n2 = points.shape[:3]

    def pid(i, j, k):
        return (i * n1 + (j % n1 if periodic_theta else j)) * n2 + k

    solid = np.argwhere(cells == SOLID)
    if solid.size == 0:
        raise ValueError("solid region is empty; check the spec dimensions")

    corner = np.empty((len(solid), 6, 4), dtype=np.int64)
    for t, tet in enumerate(_KUHN_TETS):
        for v, (dx, dy, dz) in enumerate(tet):
            corner[:, t, v] = pid(solid[:, 0] + dx, solid[:, 1] + dy,
                                  solid[:, 2] + dz)
    corner = corner.reshape(-1, 4)

    used = np.unique(corner)
    grid_to_node = np.full(n0 * n1 * n2, -1, dtype=np.int64)
    grid_to_node[used] = np.arange(len(used))
    nodes = points.reshape(-1, 3)[used]
    tets4 = grid_to_node[corner]
    nodes, tets10, edge_mid = promote_to_tet10(nodes, tets4)

    def neighbor_class(ci, cj, ck, axis, side):
        step = 1 if side == 1 else -1
        ni, nj, nk = ci, cj, ck
        if axis == 0:
            ni += step
        elif axis == 1:
            nj += step
        else:
            nk += step
        if axis == 1 and periodic_theta:
            nj %= cells.shape[1]
        if not (0 <= ni < cells.shape[0] and 0 <= nj < cells.shape[1]
                and 0 <= nk < cells.shape[2]):
            return OUTSIDE
        return int(cells[ni, nj, nk])

    def face_tri6(tri_offsets, ci, cj, ck):
        ids = [int(grid_to_node[pid(ci + dx, cj + dy, ck + dz)])
               for dx, dy, dz in tri_offsets]
        a, b, c = ids
        return (a, b, c,
                edge_mid[(min(a, b), max(a, b))],
                edge_mid[(min(b, c), max(b, c))],
                edge_mid[(min(c, a), max(c, a))])

    face_records = []
    for ci, cj, ck in solid:
        for (axis, side), tris in _FACE_TRIS.items():
            ncls = neighbor_class(ci, cj, ck, axis, side)
            if ncls == SOLID:
                continue
            for tri in tris:
                face_records.append((axis, side, ncls,
                                     face_tri6(tri, int(ci), int(cj), int(ck))))
    return nodes, tets10, edge_mid, grid_to_node, face_records


def _corner_set(grid_ids, grid_to_node, edge_mid):
    """Mesh node set from grid point ids: corners plus spanned mid-nodes."""
    corners = grid_to_node[grid_ids]
    corners = set(int(c) for c in corners if c >= 0)
    mids = [m for (a, b), m in edge_mid.items() if a in corners and b in corners]
    return np.array(sorted(corners | set(mids)), dtype=np.int64)


def _check_element_size(spec):
    limit = spec.min_feature() / 2.0
    if spec.element_size > limit + 1e-12:
        warnings.warn(
            f"element_size {spec.element_size:g} mm exceeds half the thinnest "
            f"feature ({limit:g} mm); proceeding with a coarse mesh",
            stacklevel=3,
        )


def _solid_cavity_boxes(spec):
    """Axis-aligned box lists (solid union minus cavity union) per kind."""
    w2, L = spec.width / 2.0, spec.length
    if spec.kind == "cube":
        h2 = spec.height / 2.0
        return [((-w2, w2), (-h2, h2), (0.0, L))], []

    if spec.kind in ("linear", "pocket"):
        h2 = spec.height / 2.0
        cav = ((-w2 + spec.wall, w2 - spec.wall),
               (-h2 + spec.strain_wall, h2 - spec.wall),
               (spec.inlet_wall, L - spec.cap))
        if any(b1 <= b0 for b0, b1 in cav):
            raise ValueError(f"chamber of {spec.kind!r} spec has non-positive "
                             f"extent; walls too thick for the cross-section")
        solid = [((-w2, w2), (-h2, h2), (0.0, L))]
        if spec.bellows_count > 0:
            ring = spec.bellows_depth
            nb = 2 * spec.bellows_count + 1
            bw = (cav[2][1] - cav[2][0]) / nb
            for m in range(1, nb, 2):
                z0 = cav[2][0] + m * bw
                solid.append(((-w2 - ring, w2 + ring), (-h2 - ring, h2 + ring),
                              (z0, z0 + bw)))
        return solid, [cav]

    # bending kinds: strain-limiting base slab of height strain_wall,
    # topped by `chambers` pressurized lobes separated by air slots
    w, b, H = spec.wall, spec.strain_wall, spec.height
    pitch = spec.chamber_pitch()
    c = pitch - spec.gap
    if c <= 2.0 * w or H - w <= b or w2 <= w:
        raise ValueError(f"{spec.kind!r} spec leaves no room for chambers; "
                         f"reduce walls or enlarge the body")
    solid = [((-w2, w2), (0.0, b), (0.0, L))]
    cavities = []
    for i in range(spec.chambers):
        z0 = w + i * pitch
        solid.append(((-w2, w2), (b, H), (z0, z0 + c)))
        cavities.append(((-w2 + w, w2 - w), (b, H - w),
                         (z0 + w, z0 + c - w)))
    return solid, cavities


def _box_layout(spec):
    """Solid and cavity boxes of a box kind, clipped to x >= 0 on half
    models, and the grid breaks of each axis."""
    solid_boxes, cavity_boxes = _solid_cavity_boxes(spec)
    if spec.symmetric_half:
        def clip(boxes):
            return [((max(bx[0], 0.0), bx[1]), by, bz)
                    for bx, by, bz in boxes if bx[1] > 0.0]
        solid_boxes, cavity_boxes = clip(solid_boxes), clip(cavity_boxes)

    breaks = [set(), set(), set()]
    for box in solid_boxes + cavity_boxes:
        for ax in range(3):
            breaks[ax].update(box[ax])
    return solid_boxes, cavity_boxes, [sorted(br) for br in breaks]


def _box_mesh(spec):
    solid_boxes, cavity_boxes, breaks = _box_layout(spec)
    xs, ys, zs = (_axis_lines(br, spec.element_size) for br in breaks)

    cxg, cyg, czg = np.meshgrid(0.5 * (xs[:-1] + xs[1:]),
                                0.5 * (ys[:-1] + ys[1:]),
                                0.5 * (zs[:-1] + zs[1:]), indexing="ij")

    def inside_any(boxes):
        mask = np.zeros(cxg.shape, dtype=bool)
        for (x0, x1), (y0, y1), (z0, z1) in boxes:
            mask |= ((cxg > x0) & (cxg < x1) & (cyg > y0) & (cyg < y1)
                     & (czg > z0) & (czg < z1))
        return mask

    cells = np.full(cxg.shape, OUTSIDE, dtype=np.int8)
    cells[inside_any(solid_boxes)] = SOLID
    cells[inside_any(cavity_boxes)] = CAVITY

    pts = np.empty((len(xs), len(ys), len(zs), 3))
    pts[..., 0] = xs[:, None, None]
    pts[..., 1] = ys[None, :, None]
    pts[..., 2] = zs[None, None, :]

    nodes, tets, edge_mid, g2n, recs = _structured_tets(pts, cells)

    cavity = [tri for axis, side, ncls, tri in recs if ncls == CAVITY]
    n1, n2 = len(ys), len(zs)
    flat = np.arange(len(xs) * n1 * n2).reshape(len(xs), n1, n2)
    node_sets = {
        "fixed": _corner_set(flat[:, :, 0].ravel(), g2n, edge_mid),
        "tip": _corner_set(flat[:, :, -1].ravel(), g2n, edge_mid),
    }
    if spec.symmetric_half:
        node_sets["symx"] = _corner_set(flat[0].ravel(), g2n, edge_mid)
    face_sets = {}
    if cavity:
        face_sets["cavity"] = np.asarray(cavity, dtype=np.int64)
    return Mesh(nodes=nodes, tets=tets, node_sets=node_sets, face_sets=face_sets)


def _tube_mesh(spec):
    r_out = spec.width / 2.0
    r_in = r_out - spec.wall
    if r_in <= 0:
        raise ValueError("tube wall thickness consumes the whole radius")
    es = spec.element_size
    rs = _axis_lines([r_in, r_out], es)
    zs = _axis_lines([0.0, spec.length], es)
    n_theta = max(8, 4 * math.ceil(math.pi * (r_in + r_out) / (4.0 * es)))
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)

    pts = np.empty((len(rs), n_theta, len(zs), 3))
    pts[..., 0] = rs[:, None, None] * np.cos(theta)[None, :, None]
    pts[..., 1] = rs[:, None, None] * np.sin(theta)[None, :, None]
    pts[..., 2] = zs[None, None, :]

    cells = np.full((len(rs) - 1, n_theta, len(zs) - 1), SOLID, dtype=np.int8)
    nodes, tets, edge_mid, g2n, recs = _structured_tets(
        pts, cells, periodic_theta=True)

    cavity = [tri for axis, side, ncls, tri in recs
              if ncls == OUTSIDE and axis == 0 and side == 0]
    flat = np.arange(len(rs) * n_theta * len(zs)).reshape(
        len(rs), n_theta, len(zs))
    q = n_theta // 4
    node_sets = {
        "end0": _corner_set(flat[:, :, 0].ravel(), g2n, edge_mid),
        "end1": _corner_set(flat[:, :, -1].ravel(), g2n, edge_mid),
        "inner": _corner_set(flat[0].ravel(), g2n, edge_mid),
        "xaxis": _corner_set(flat[:, [0, 2 * q], :].ravel(), g2n, edge_mid),
        "yaxis": _corner_set(flat[:, [q, 3 * q], :].ravel(), g2n, edge_mid),
    }
    face_sets = {"cavity": np.asarray(cavity, dtype=np.int64)}
    return Mesh(nodes=nodes, tets=tets, node_sets=node_sets, face_sets=face_sets)


def _estimated_nodes(spec):
    """About 8 tet10 nodes per point of the structured grid of ``spec``,
    counted without building it; inf for a vanishing element size."""
    h = spec.element_size
    if spec.kind == "tube":
        r_out = spec.width / 2.0
        r_in = r_out - spec.wall
        axes = ([r_in, r_out], [0.0, spec.length])
        points = max(8.0, math.pi * (r_in + r_out) / h)    # theta lines
    else:
        axes = _box_layout(spec)[2]
        points = 1.0
    for br in axes:
        points *= 1.0 + sum(max(1.0, (b1 - b0) / h)
                            for b0, b1 in zip(br, br[1:]))
    return 8.0 * points


def generate_mesh(spec):
    """Structured quadratic-tet mesh for an ActuatorSpec.

    Deterministic: equal specs give byte-identical meshes.  Warns when
    ``element_size`` exceeds half the thinnest feature but still meshes.
    Raises ValueError, before allocating anything, when the mesh would
    have more than about ``MAX_MESH_NODES`` nodes.
    """
    for name in ("length", "width", "height", "wall", "strain_wall",
                 "cap", "inlet_wall", "element_size"):
        v = getattr(spec, name)
        if v is not None and not (math.isfinite(v) and v > 0):
            raise ValueError(f"spec.{name} must be positive and finite, got {v}")
    for name in ("gap", "bellows_depth"):
        v = getattr(spec, name)
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"spec.{name} must be non-negative and finite, got {v}")
    if spec.bellows_count < 0:
        raise ValueError("bellows_count must be non-negative")
    if spec.kind in ("bending1", "bending2") and spec.chambers < 1:
        raise ValueError("bending kinds need at least one chamber")
    if spec.kind == "tube" and spec.symmetric_half:
        raise ValueError("symmetric_half applies to box kinds only")
    _check_element_size(spec)
    nodes = _estimated_nodes(spec)
    if nodes > MAX_MESH_NODES:
        raise ValueError(f"element_size {spec.element_size:g} mm asks for "
                         f"about {nodes:.3g} mesh nodes, more than the "
                         f"{MAX_MESH_NODES} allowed; enlarge element_size")
    if spec.kind == "tube":
        return _tube_mesh(spec)
    return _box_mesh(spec)
