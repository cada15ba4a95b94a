"""Parametric actuator solids and their structured tet meshes.

Every mesh comes from a structured grid of cells fitted to the solid:
grid lines sit on every material boundary, and each solid cell splits
into six tets that share face diagonals with their neighbors.  A tet
edge runs from a grid point p to p + d with d in {0,1}^3, so every
tet10 node is a point of the half-spaced grid: 2p for a corner, 2p + d
for a straight-edge midpoint, whose ends are h // 2 and (h + 1) // 2
(theta wraps on the tube).  Tets, boundary TRI6 faces and node sets
are index arithmetic on that grid; corners are numbered in grid order,
then mid-nodes by the (min, max) ids of their ends.  The same machinery
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

from .elements import TET10_EDGES, TRI6_EDGES
from .mesh import Mesh

KINDS = ("linear", "bending1", "bending2", "cube", "pocket", "tube")
# generate_mesh refuses specs whose half-spaced grid, an upper bound on
# the node count, has more points than this: about 0.5 GB to mesh and
# far more to solve (bending2 at 1 mm has 215 k nodes)
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


def _half_offsets(corners, edges):
    """Half-grid offsets of the corners, then of the mid-nodes on ``edges``."""
    c = np.asarray(corners)
    mids = [c[..., [a], :] + c[..., [b], :] for a, b in edges]
    return np.concatenate([2 * c] + mids, axis=-2)


# (6 * 10, 3) offsets of the tet10 nodes of a cell, (12, 6, 3) of the TRI6
# nodes of its boundary triangles and (6, 3) of its neighbors, face-key order
_TET_HALF = _half_offsets(_KUHN_TETS, TET10_EDGES).reshape(-1, 3)
_FACE_HALF = _half_offsets(list(_FACE_TRIS.values()), TRI6_EDGES).reshape(-1, 6, 3)
_FACE_KEYS = np.array(list(_FACE_TRIS))
_FACE_STEPS = np.eye(3, dtype=np.int64)[_FACE_KEYS[:, 0]] * (2 * _FACE_KEYS[:, 1:] - 1)

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

    Every field is checked here, so a spec that exists is valid input
    for the mesher, the closed forms and calibration; only the layout
    checks that need the solid and cavity boxes are left to the mesher.
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
        for name in ("length", "width", "height", "wall", "strain_wall",
                     "cap", "inlet_wall", "element_size"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"spec.{name} must be positive and finite, got {v}")
        for name in ("gap", "bellows_depth"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"spec.{name} must be non-negative and finite, got {v}")
        if self.bellows_count < 0:
            raise ValueError("bellows_count must be non-negative")
        if self.kind in ("bending1", "bending2") and self.chambers < 1:
            raise ValueError("bending kinds need at least one chamber")
        if self.kind == "tube" and self.symmetric_half:
            raise ValueError("symmetric_half applies to box kinds only")
        if self.kind == "tube" and self.wall >= self.width / 2.0:
            raise ValueError("tube wall thickness consumes the whole radius")

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


def _refuse_over_cap(spec, points):
    """Raise unless ``points``, the number of points of the half-spaced
    grid or a lower bound on it, fits under MAX_MESH_NODES."""
    if not points <= MAX_MESH_NODES:
        raise ValueError(f"the {spec.kind} spec needs a grid of at least "
                         f"{points:.6g} points, more than the {MAX_MESH_NODES} "
                         "mesh nodes allowed; enlarge element_size or lower "
                         "the bellows or chamber count")


def _grid_steps(spec, breaks):
    """Steps between consecutive sorted ``breaks``: every break on a grid
    line and spacing <= element_size, so the axis has 1 + sum(steps)
    lines and 2 * sum(steps) + 1 points of the half-spaced grid."""
    ratios = [(b1 - b0) / spec.element_size for b0, b1 in zip(breaks, breaks[1:])]
    _refuse_over_cap(spec, sum(ratios))            # before math.ceil(inf)
    return [max(1, math.ceil(r - 1e-9)) for r in ratios]


def _axis_lines(breaks, steps):
    """Grid coordinates with ``steps`` equal steps between consecutive breaks."""
    pts = [breaks[0]]
    for b0, b1, n in zip(breaks, breaks[1:], steps):
        pts.extend(np.linspace(b0, b1, n + 1)[1:])
    return np.asarray(pts)


def _structured_tets(points, cells, periodic_theta=False):
    """Tet10 mesh of the solid cells of a classified grid, numbered on
    the half-spaced grid.

    ``points`` is (n0, n1, n2, 3); ``cells`` the (n0-1, n1-1|n1, n2-1)
    classification.  With ``periodic_theta`` axis 1 wraps: cells use all
    n1 point columns and column n1 connects back to column 0.

    Returns (nodes, tets10, half, faces, tags).  ``half`` holds the
    node id of each point of the half-spaced grid (-1 where unused);
    ``faces`` are the TRI6 boundary faces of the solid, in cell,
    face-key and triangle order, and ``tags`` their (axis, side,
    neighbor class) rows.
    """
    n0, n1, n2 = points.shape[:3]
    shape = (2 * n0 - 1, 2 * n1 if periodic_theta else 2 * n1 - 1, 2 * n2 - 1)
    solid = np.argwhere(cells == SOLID)
    if solid.size == 0:
        raise ValueError("solid region is empty; check the spec dimensions")

    def at(cell, offsets):
        """Index of the half-grid points 2 * cell + offsets."""
        h = 2 * cell[:, None, :] + offsets
        h[..., 1] %= shape[1]                      # a no-op unless periodic
        return tuple(np.moveaxis(h, -1, 0))

    tet_at = at(solid, _TET_HALF)                          # (S, 6 * 10)
    half = np.full(shape, -1, dtype=np.int64)
    half[tet_at] = 0
    # each used point h, in grid order, is the midpoint of grid points
    # h // 2 and (h + 1) // 2, a corner where they coincide
    h = np.argwhere(half == 0)
    lo, hi = h // 2, (h + 1) // 2
    hi[:, 1] %= n1
    corner = np.all(lo == hi, axis=1)
    n_corner = int(corner.sum())
    half[tuple(h[corner].T)] = np.arange(n_corner)
    # mid-nodes follow, by the (min, max) node ids of their ends
    a, b = half[tuple(2 * lo[~corner].T)], half[tuple(2 * hi[~corner].T)]
    a, b = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((b, a))
    half[tuple(h[~corner][order].T)] = np.arange(n_corner, len(h))
    nodes = points[tuple(lo[corner].T)]
    nodes = np.vstack([nodes, 0.5 * (nodes[a[order]] + nodes[b[order]])])
    tets = half[tet_at].reshape(-1, 10)

    # class of the neighbor across each cell face, OUTSIDE beyond the grid
    padded = np.pad(cells, 1, constant_values=OUTSIDE)
    if periodic_theta:
        padded[:, 0], padded[:, -1] = padded[:, -2], padded[:, 1]
    neighbor = padded[tuple(np.moveaxis(solid[:, None] + 1 + _FACE_STEPS, -1, 0))]
    cell, tri = np.nonzero(np.repeat(neighbor != SOLID, 2, axis=1))
    faces = half[at(solid[cell], _FACE_HALF[tri])]
    tags = np.column_stack([_FACE_KEYS[tri // 2], neighbor[cell, tri // 2]])
    return nodes, tets, half, faces, tags


def _node_set(half_ids):
    """Sorted node ids of a slice of the half-grid node map."""
    return np.sort(half_ids[half_ids >= 0])


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
            # each band adds two z lines to a grid at least 5 x 7 points
            # across: refuse a count the grid cannot hold before one box
            # per band is listed
            _refuse_over_cap(spec, 64.0 * spec.bellows_count)
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
    _refuse_over_cap(spec, 64.0 * spec.chambers)   # as for the bellows bands
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
    steps = [_grid_steps(spec, br) for br in breaks]
    _refuse_over_cap(spec, math.prod(2 * sum(st) + 1 for st in steps))
    xs, ys, zs = (_axis_lines(br, st) for br, st in zip(breaks, steps))

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

    nodes, tets, half, faces, tags = _structured_tets(pts, cells)

    cavity = faces[tags[:, 2] == CAVITY]
    node_sets = {"fixed": _node_set(half[:, :, 0]),
                 "tip": _node_set(half[:, :, -1])}
    if spec.symmetric_half:
        node_sets["symx"] = _node_set(half[0])
    face_sets = {"cavity": cavity} if len(cavity) else {}
    return Mesh(nodes=nodes, tets=tets, node_sets=node_sets, face_sets=face_sets)


def _tube_mesh(spec):
    r_out = spec.width / 2.0
    r_in = r_out - spec.wall
    breaks = ([r_in, r_out], [0.0, spec.length])
    steps = [_grid_steps(spec, br) for br in breaks]
    quarter = math.pi * (r_in + r_out) / (4.0 * spec.element_size)
    _refuse_over_cap(spec, quarter)                # before math.ceil(inf)
    n_theta = max(8, 4 * math.ceil(quarter))
    # theta wraps: 2 * n_theta points of the half-spaced grid
    _refuse_over_cap(spec, 2 * n_theta * math.prod(2 * sum(st) + 1 for st in steps))
    rs, zs = (_axis_lines(br, st) for br, st in zip(breaks, steps))
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)

    pts = np.empty((len(rs), n_theta, len(zs), 3))
    pts[..., 0] = rs[:, None, None] * np.cos(theta)[None, :, None]
    pts[..., 1] = rs[:, None, None] * np.sin(theta)[None, :, None]
    pts[..., 2] = zs[None, None, :]

    cells = np.full((len(rs) - 1, n_theta, len(zs) - 1), SOLID, dtype=np.int8)
    nodes, tets, half, faces, tags = _structured_tets(
        pts, cells, periodic_theta=True)

    # the bore: faces on the inner radius (axis 0, side 0)
    cavity = faces[np.all(tags == (0, 0, OUTSIDE), axis=1)]
    q = n_theta // 2                       # a quarter turn on the half grid
    node_sets = {
        "end0": _node_set(half[:, :, 0]),
        "end1": _node_set(half[:, :, -1]),
        "inner": _node_set(half[0]),
        "xaxis": _node_set(half[:, [0, 2 * q], :]),
        "yaxis": _node_set(half[:, [q, 3 * q], :]),
    }
    face_sets = {"cavity": cavity}
    return Mesh(nodes=nodes, tets=tets, node_sets=node_sets, face_sets=face_sets)


def generate_mesh(spec):
    """Structured quadratic-tet mesh for an ActuatorSpec.

    Deterministic: equal specs give byte-identical meshes.  Warns when
    ``element_size`` exceeds half the thinnest feature but still meshes.
    Raises ValueError, before allocating the grid, when its half-spaced
    grid, which holds every node, has more than ``MAX_MESH_NODES`` points.
    """
    _check_element_size(spec)
    if spec.kind == "tube":
        return _tube_mesh(spec)
    return _box_mesh(spec)
