"""Tetrahedral meshes for the junction body and the thin physical domain.

Both domains are a cube with up to three circular openings continued by
straight or radius-profiled tubes.  Each cube face is meshed as a
structured polar disk blended outward into the square rim, so the three
tube openings share their triangulation with the cube surface and the
whole mesh is conforming by construction.  The cube interior is filled
with scaled copies of its surface (onion shells), tubes are extruded
station by station, and every prism is cut into three tetrahedra with
the min-vertex rule so neighbouring prisms agree on quad diagonals,
each positively oriented by its layout triangle and its extrusion.
Node ids and boundary tags are each derived once, when the mesh is
built: the boundary from the faces whose nodes all lie on the
builder's surface, without matching the interior faces.  The layout
that fixes the order of the tetrahedra is recorded with the mesh, for
``LayoutSeed``.  A mesh keeps no face adjacency: that is walk state,
derived by the locator of the one mesh that is walked, the junction's
(``fem3d.PointLocator``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TRANSVERSE_AXES, ProblemSpec

_KEY_SCALE = 1e10

# Relabelings that bring the minimal global vertex of a prism
# (b0,b1,b2,t0,t1,t2) to slot 0 while preserving the vertical pairing.
_PRISM_PERMS = np.array([
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 4, 5, 0, 1, 2],
    [4, 5, 3, 1, 2, 0],
    [5, 3, 4, 2, 0, 1],
], dtype=np.int64)

# Tets of a relabelled prism by 2 * reversed + (pattern A, the quad
# diagonals through slot 1); a reversed tet swaps its first two vertices.
_TET_PATTERNS = np.array([[[0, 1, 2, 4], [0, 4, 2, 5], [0, 4, 5, 3]],
                          [[0, 1, 2, 5], [0, 1, 5, 4], [0, 4, 5, 3]]])
_TET_PATTERNS = np.concatenate(
    [_TET_PATTERNS, _TET_PATTERNS[..., [1, 0, 2, 3]]]).reshape(4, 12)

# Vertices of the face opposite each vertex of a tet, ordered so that
# the face normal points out of the tet.
_FACES = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])

# Vertex pairs of the six edges of a tet.
_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])

# Codes of the faces with no tet across them, in ``TetMesh.boundary_codes``
# and in the boundary slots of a locator's face adjacency.
OTHER, END, LATERAL = -1, -2, -3

# Points per block of every pass over a mesh's tets: quadrature points
# of a load or a norm, tet vertices of a geometry, face or edge pass.
# A pass holds its output and one block of transients.
BLOCK_POINTS = 32_768


@dataclass
class Station:
    """One tube cross-section: axial position and its disk node ids."""

    x: float
    nodes: np.ndarray


@dataclass
class TetMesh:
    """Conforming tetrahedral mesh with tagged boundary triangles.

    ``stations[edge]`` lists tube cross-sections in axial order; their
    node arrays follow the layout of ``disk_tris`` so cross-section
    integrals reuse one template triangulation.

    ``boundary_codes`` holds the code of each boundary face's tag,
    ``END`` (``end*``), ``LATERAL`` (``lateral*``) or ``OTHER``, in the
    order of ``_boundary_faces``.  The mesh keeps no face adjacency: the
    locator of the one walked mesh derives it (``fem3d.PointLocator``).

    ``volumes`` are the signed tet volumes, measured once when the mesh
    is made by ``tet_volumes``.  The mesh keeps no barycentric gradients:
    a pass that reads them computes them block by block
    (``tet_gradients``).
    """

    nodes: np.ndarray
    tets: np.ndarray
    boundary: dict
    stations: dict
    disk_tris: np.ndarray
    meta: dict = field(default_factory=dict)
    boundary_codes: np.ndarray = None
    volumes: np.ndarray = field(init=False)

    def __post_init__(self):
        self.volumes = tet_volumes(self.nodes, self.tets)

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_tets(self):
        return self.tets.shape[0]

    def volume(self):
        return float(self.volumes.sum())

    def boundary_area(self, tag):
        tri = self.boundary[tag]
        p = self.nodes[tri]
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        return float(0.5 * np.linalg.norm(n, axis=1).sum())


def split_prisms(bottom, top, orient):
    """Cut prisms into positively oriented tets, consistently across
    shared quad faces.

    Every quad face receives the diagonal through its smallest global
    vertex id, which neighbouring prisms pick identically.  ``orient``
    is +1 per prism whose bottom winds counter-clockwise seen from its
    top, else -1; a pattern tet has that sign, or the other when the
    smallest vertex is on top, and is reversed where negative.  The
    tets are int32, as a mesh keeps them.
    """

    prisms = np.concatenate([bottom, top], axis=1).astype(np.int32)
    low = np.argmin(prisms, axis=1)
    v = np.take_along_axis(prisms, _PRISM_PERMS[low], axis=1)
    use_a = np.minimum(v[:, 1], v[:, 5]) < np.minimum(v[:, 2], v[:, 4])
    negative = (low >= 3) != (np.asarray(orient) < 0)
    pattern = _TET_PATTERNS[2 * negative + use_a]
    return np.take_along_axis(v, pattern, axis=1).reshape(-1, 4)


def _prism_signs(tris, segments, axis, direction):
    """``split_prisms``' orient over a ``_ring_triangles`` layout in the
    plane TRANSVERSE_AXES[axis] = (a, b) extruded along direction *
    e_axis: the fan (first) winds counter-clockwise in (a, b), the bands
    clockwise, and e_a x e_b = (-1)^axis e_axis."""
    wind = np.where(np.arange(len(tris)) < segments, 1, -1)
    return wind * (-1) ** axis * direction


def tet_blocks(count, per_tet=4):
    """Slices that cut ``count`` tets into blocks of ``BLOCK_POINTS``
    points at ``per_tet`` points per tet.

    A block holds two tets at least, and a lone last tet joins the block
    before it: the contractions of a one-tet block would be matrix-vector
    products, rounded differently from the matrix products of the others.
    """
    step = max(2, BLOCK_POINTS // per_tet)
    starts = list(range(0, max(count - 1, 1), step)) if count else []
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def _edge_vectors(nodes, tets):
    """Edge vectors e_k = x_k - x_0 of tets, shape (coordinate, edge, tet)."""
    x = np.take(nodes.T, tets.T, axis=1)
    return x[:, 1:] - x[:, :1]


def _cross(a, b, out, tmp):
    """The components of a x b into ``out``, each one product-difference
    over the tets at once."""
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        np.multiply(a[k1], b[k2], out=out[k])
        np.multiply(a[k2], b[k1], out=tmp)
        out[k] -= tmp


def _triple(e, cof):
    """Six times the signed volumes: e_1 . cof, for the cofactor row
    ``cof`` = e_2 x e_3."""
    return e[0, 0] * cof[0] + e[1, 0] * cof[1] + e[2, 0] * cof[2]


def tet_volumes(nodes, tets):
    """Signed volumes of tets, the triple product e_1 . (e_2 x e_3) / 6 of
    the edge vectors e_k = x_k - x_0, in ``tet_gradients``' arithmetic
    and so bitwise the determinant that it returns, over 6, without the
    gradients."""
    n = tets.shape[0]
    volumes = np.empty(n)
    for blk in tet_blocks(n):
        e = _edge_vectors(nodes, tets[blk])
        cof = np.empty((3, e.shape[2]))
        _cross(e[:, 1], e[:, 2], cof, np.empty(e.shape[2]))
        np.divide(_triple(e, cof), 6.0, out=volumes[blk])
    return volumes


def tet_gradients(nodes, tets, out):
    """Gradients of the four barycentric coordinates of a block of tets
    into ``out``, shape (vertex, coordinate, tet); returns six times the
    signed volumes.

    In closed form from the edge vectors e_k = x_k - x_0: the gradients
    of the coordinates 1-3 are the cofactor rows (e_2 x e_3, e_3 x e_1,
    e_1 x e_2) over the triple product e_1 . (e_2 x e_3); that of
    coordinate 0 is minus their sum.  Each component is one
    product-difference over the block at once, elementwise, so a tet's
    gradients do not depend on the block it comes in.
    """
    e = _edge_vectors(nodes, tets)
    tmp = np.empty(e.shape[2])
    for j in range(3):
        _cross(e[:, (j + 1) % 3], e[:, (j + 2) % 3], out[1 + j], tmp)
    det = _triple(e, out[1])
    out[1:] /= det
    np.add(out[1], out[2], out=out[0])
    out[0] += out[3]
    np.negative(out[0], out=out[0])
    return det


def disk_layout(rings, segments):
    """Unit-disk template: node offsets and triangles, center first."""

    theta = 2.0 * math.pi * np.arange(segments) / segments
    ring_uv = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    uv = [np.zeros((1, 2))]
    for j in range(1, rings + 1):
        uv.append(ring_uv * (j / rings))
    uv = np.concatenate(uv, axis=0)
    tris = _ring_triangles(rings, segments)
    return uv, tris


def _ring_triangles(rings, segments):
    tris = []
    nxt = np.roll(np.arange(segments), -1)
    first = 1 + np.arange(segments)
    for m in range(segments):
        tris.append([0, first[m], first[nxt[m]]])
    for j in range(1, rings):
        a = 1 + (j - 1) * segments + np.arange(segments)
        b = 1 + (j - 1) * segments + nxt
        c = 1 + j * segments + nxt
        d = 1 + j * segments + np.arange(segments)
        for m in range(segments):
            tris.append([a[m], b[m], c[m]])
            tris.append([a[m], c[m], d[m]])
    return np.array(tris, dtype=np.int64)


def _square_rim(theta, half):
    c, s = np.cos(theta), np.sin(theta)
    denom = np.maximum(np.abs(c), np.abs(s))
    return np.stack([c / denom, s / denom], axis=1) * half


def face_layout(half, radius, rings, blend, segments):
    """Cube-face template: polar disk continued into the square rim.

    Returns in-plane points (disk nodes first) and the triangulation of
    the whole face; the first ``1 + rings*segments`` nodes are the tube
    opening in ``disk_layout`` order.
    """

    theta = 2.0 * math.pi * np.arange(segments) / segments
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1) * radius
    rim = _square_rim(theta, half)
    uv_disk, _ = disk_layout(rings, segments)
    pts = [uv_disk * radius]
    for t in range(1, blend + 1):
        s = t / blend
        pts.append((1.0 - s) * circle + s * rim)
    pts = np.concatenate(pts, axis=0)
    tris = _ring_triangles(rings + blend, segments)
    return pts, tris


def _face_to_space(uv, axis, sign, half):
    a, b = TRANSVERSE_AXES[axis]
    out = np.empty((uv.shape[0], 3))
    out[:, axis] = sign * half
    out[:, a] = uv[:, 0]
    out[:, b] = uv[:, 1]
    return out


def _tube_sections(uv_disk, axis, xs, radii):
    """The disk nodes of tube stations at axial positions xs with radii,
    shape (stations, disk nodes, 3)."""
    a, b = TRANSVERSE_AXES[axis]
    r = np.asarray(radii, dtype=float)[:, None]
    out = np.empty((r.size, uv_disk.shape[0], 3))
    out[:, :, axis] = np.asarray(xs, dtype=float)[:, None]
    out[:, :, a] = uv_disk[:, 0] * r
    out[:, :, b] = uv_disk[:, 1] * r
    return out


def graded_stations(start, end, fine, fine_until, cap):
    """Axial stations: ``fine`` spacing, then steps growing 30% to ``cap``."""

    xs = [start]
    step = fine
    while xs[-1] < end - 0.5 * step:
        if xs[-1] >= fine_until:
            step = min(step * 1.3, cap)
        xs.append(min(xs[-1] + step, end))
    xs[-1] = end
    return np.array(xs)


def snap_stations(xs, forced):
    """A station on each forced plane strictly inside the span.

    The nearest station moves onto the plane if it lies within 0.45 of
    its smaller neighbouring gap; otherwise a station is inserted.  The
    two ends and a station on a forced plane are pinned: a later plane
    never moves them but is inserted beside them, so every forced plane
    keeps its own station, however close two of them lie.
    """

    xs = np.array(xs, dtype=float)
    pinned = np.zeros(xs.size, dtype=bool)
    pinned[[0, -1]] = True
    for xf in forced:
        if xf <= xs[0] or xf >= xs[-1]:
            continue
        k = int(np.argmin(np.abs(xs - xf)))
        if not pinned[k] and abs(xs[k] - xf) <= 0.45 * min(
                xs[k + 1] - xs[k], xs[k] - xs[k - 1]):
            xs[k] = xf
            pinned[k] = True
        elif xs[k] != xf:
            at = int(np.searchsorted(xs, xf))
            xs = np.insert(xs, at, xf)
            pinned = np.insert(pinned, at, True)
    return xs


def _merge_coincident(pts):
    """Ids of the points, equal points (to 1e-10) sharing one, numbered
    in order of first occurrence; and the distinct points in that order."""
    key = np.round(pts * _KEY_SCALE).astype(np.int64)
    _, first, inverse = np.unique(key, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse.ravel()], pts[first[order]]


class _DomainBuilder:
    """Cube with tagged tube openings, filled and extruded.  Only the
    cube faces share nodes; every other node is new."""

    def __init__(self, half, radii, rings, blend, segments, shells):
        self.half = half
        self.radii = radii
        self.rings = rings
        self.blend = blend
        self.segments = segments
        self.shells = shells
        self.coords = []
        self.num_nodes = 0
        self.tets = []
        self.stations = {}
        self.uv_disk, self.disk_tris = disk_layout(rings, segments)
        self.n_disk = self.uv_disk.shape[0]
        self.max_radius = 0.0
        self.face_radii = []
        self.tube_tets = {}
        self.station_r = {}
        # ids of the nodes on the domain's surface, those of boundary faces
        self.surface = []
        self._build_box()

    def _fresh(self, pts):
        ids = self.num_nodes + np.arange(len(pts))
        self.coords.append(pts)
        self.num_nodes += len(pts)
        return ids

    def _build_box(self):
        faces, orient = [], []
        for axis in range(3):
            for sign in (1, -1):
                radius = self.radii[axis] if sign > 0 else 0.5 * self.half
                self.face_radii.append(radius)
                uv, tris = face_layout(self.half, radius, self.rings,
                                       self.blend, self.segments)
                faces.append(_face_to_space(uv, axis, sign, self.half))
                # shells and cone go inward, against sign * e_axis
                orient.append(_prism_signs(tris, self.segments, axis, -sign))
        orient = np.concatenate(orient)
        ids, surface = _merge_coincident(np.concatenate(faces, axis=0))
        ids = ids.reshape(6, -1)
        self._face_ids = ids[::2]
        # the six faces share one layout, whose triangles use every node
        surf_tris = ids[:, tris].reshape(-1, 3)
        shell_ids = [self._fresh(surface)]
        self.surface.append(shell_ids[0])
        for t in range(1, self.shells):
            tau = 1.0 - t / self.shells
            shell_ids.append(self._fresh(surface * tau))
        center = self._fresh(np.zeros((1, 3)))[0]

        for t in range(self.shells - 1):
            bot = shell_ids[t][surf_tris]
            top = shell_ids[t + 1][surf_tris]
            self.tets.append(split_prisms(bot, top, orient))
        # the cone extrudes the innermost shell inward, as the shells do
        inner = shell_ids[-1][surf_tris]
        inner = np.where((orient < 0)[:, None], inner[:, [1, 0, 2]], inner)
        cone = np.concatenate(
            [inner, np.full((inner.shape[0], 1), center, dtype=np.int64)],
            axis=1)
        self.tets.append(cone)

    def extrude_tube(self, axis, xs, radius_fn):
        """Stations at xs[1:] beyond the face's disk at xs[0], all at
        once: their nodes station by station, and their prisms' tets
        station by station from one ``split_prisms``."""
        ids = self._face_ids[axis][:self.n_disk]
        xs = np.asarray(xs, dtype=float)
        radii = [float(radius_fn(float(x))) for x in xs[1:]]
        self.tube_tets[axis] = sum(len(t) for t in self.tets)
        self.station_r[axis] = [self.radii[axis]] + radii
        self.max_radius = max(self.max_radius, *self.station_r[axis])
        pts = _tube_sections(self.uv_disk, axis, xs[1:], radii)
        rings = self._fresh(pts.reshape(-1, 3)).reshape(len(radii), -1)
        # each station's outer ring, and the whole end disk
        self.surface += [rings[:, -self.segments:], rings[-1]]
        self.stations[axis] = [Station(float(xs[0]), ids)] + [
            Station(float(x), cur) for x, cur in zip(xs[1:], rings)]
        tris = np.concatenate([ids[None], rings])[:, self.disk_tris]
        orient = _prism_signs(self.disk_tris, self.segments, axis, 1)
        self.tets.append(split_prisms(tris[:-1].reshape(-1, 3),
                                      tris[1:].reshape(-1, 3),
                                      np.tile(orient, len(radii))))

    def finish(self, end_planes, meta):
        """The mesh, with the layout that ``LayoutSeed`` reads in its
        ``meta``."""
        meta.update(
            segments=self.segments, rings=self.rings, blend=self.blend,
            shells=self.shells, half=self.half,
            face_radii=list(self.face_radii),
            sagitta=sagitta(self.max_radius, self.segments),
            **_tube_layout(self.stations, self.station_r, self.tube_tets))
        # the builder's pieces go as they are joined
        nodes = np.concatenate(self.coords, axis=0)
        tets = np.concatenate(self.tets, axis=0, dtype=np.int32)
        self.coords.clear()
        self.tets.clear()
        faces = _boundary_faces(tets, self.num_nodes, self.surface)
        boundary, codes = _tag_boundary(nodes, faces, self.half, end_planes)
        return TetMesh(nodes=nodes, tets=tets,
                       boundary=boundary, stations=self.stations,
                       disk_tris=self.disk_tris, meta=meta,
                       boundary_codes=codes)


def _tube_layout(stations, radii, first_tets):
    """The tubes' part of a mesh's layout: per tube, its first tet and
    the axial positions and radii of its stations."""
    return {"tube_tets": dict(first_tets),
            "station_x": {a: np.array([st.x for st in sts])
                          for a, sts in stations.items()},
            "station_r": {a: np.array(radii[a], dtype=float)
                          for a in stations}}


# In-plane axes of each face and tube axis, as rows.
_TRANSVERSE = np.array([TRANSVERSE_AXES[a] for a in range(3)])


class LayoutSeed:
    """The tet at the middle of the prism that holds each point, found
    by arithmetic on the box layout a builder records in ``TetMesh.meta``
    (the junction's and the thin domain's; a standalone tube has none,
    and is refused with ``ValueError``).

    The builders append tets in a fixed order: the prisms of the onion
    shells (shell by shell, face by face, triangle by triangle of the
    face layout), then the cone from the innermost shell to the centre
    (one tet per triangle), then each tube's prisms station by station.
    Each prism is three consecutive tets, the middle one a face step
    from the other two.

    Every cell boundary of that layout is flat, so a point's cell is
    exact up to rounding on a boundary.  A point takes the face of its
    largest |coordinate|.  That coordinate, its max-norm, gives its
    shell, since the shells are scaled copies of the cube surface; past
    the half-width on a face with a tube, it gives the station interval
    along that tube instead.  (This places a tube point exactly where
    the tube's radius is below its distance from the centre, as
    everywhere in a junction mesh, whose radii are h_i(0) < ell.)  The
    point's position on the face layout, by projection along the ray
    from the centre, or in the tube's unit disk, at the radius
    interpolated in the interval, then gives its triangle: the angle
    gives the segment between two of the layout's rays, and the count of
    the chords and quad diagonals between those rays' nodes that the
    point lies beyond gives the ring band and the quad's triangle.  One
    pass does this for all points: one ``searchsorted`` of a key that
    orders the shells and intervals of all faces, and one product with
    the coefficients of those lines.  A point outside the mesh gets the
    cell its clipped indices give, its max-norm clipped to its face's
    rows; the walk of ``fem3d.PointLocator`` goes on from any seed.
    """

    def __init__(self, meta):
        if "shells" not in meta:
            raise ValueError("the mesh has no box layout to seed from")
        segments, rings = meta["segments"], meta["rings"]
        bands = rings + meta["blend"]
        layouts = [face_layout(meta["half"], r, rings, meta["blend"],
                               segments)[0] for r in meta["face_radii"]]
        disk = len(layouts) * segments  # the tubes' first row of lines
        layouts.append(disk_layout(rings, segments)[0])
        self.lines = np.concatenate(
            [_cell_lines(pts, segments, bands) for pts in layouts])
        # segment of the angle phi in [-pi, pi] by the whole part of
        # (phi + pi) segments / 2 pi: ray 0 is at angle 0
        self.turn = 0.5 * segments / math.pi
        self.segment = (np.arange(segments + 1) + segments // 2) % segments
        # triangle tri_a + tri_b * segment by the count of lines crossed:
        # none in the fan, 2k - 1 past chord k, 2k past its diagonal
        count = np.arange(2 * bands - 1)
        self.tri_a = np.where(count % 2 == 1, segments * count,
                              segments * (count - 1) + 1)
        self.tri_a[0] = 0
        self.tri_b = np.where(count > 0, 2, 1)
        # Cell rows (start key, first tet, tets per triangle, first row
        # of lines, and r0, x0, slope of the radius r0 + (x - x0) slope
        # that scales a point into its layout), after a placeholder, so
        # that the count of rows starting below a key is the key's row.
        span = 4.0 * (1.0 + max(float(x[-1])
                                for x in meta["station_x"].values()))
        rows = np.array([(-np.inf, 0, 0, 0, 1.0, 0.0, 0.0), *_box_rows(
            meta, span, bands, 3 * segments * (2 * rings - 1), disk)])
        self.block = span * np.arange(6)
        # every station is below span / 4, so each face's rows have keys
        # below face * span + span / 4
        self.reach = 0.25 * span
        self.transverse = _TRANSVERSE[np.arange(6) % 3]
        self.keys = rows[1:, 0]
        self.cell = rows[:, 1:4].astype(np.intp)
        self.radius = rows[:, 4:]
        self.floor = 1e-12 * min(
            1.0, *(r.min() for r in meta["station_r"].values()))

    def __call__(self, points):
        """Seed tet of each point, shape (points,)."""
        points = np.asarray(points, dtype=float)
        # the face of the largest of the six coordinates +-x_i, in the
        # order +x, +y, +z, -x, -y, -z; the largest is the norm
        both = np.concatenate((points, -points), axis=1)
        face = both.argmax(axis=1)
        flat = both.ravel()
        at = np.arange(0, flat.size, 6)
        # clipped to the face's own rows: a point far past a tube end is
        # seeded beyond that end, not in the next face's cells
        x = np.minimum(flat[at + face], self.reach)
        row = self.keys.searchsorted(x + self.block[face], "left")
        uv = flat[at[:, None] + self.transverse[face]]
        cell, radius = self.cell[row], self.radius[row]
        radius = radius[:, 0] + (x - radius[:, 1]) * radius[:, 2]
        uv /= np.maximum(radius, self.floor)[:, None]
        phi = np.arctan2(uv[:, 1], uv[:, 0]) + math.pi
        seg = self.segment[(phi * self.turn).astype(np.intp)]
        lines = np.einsum("nd,ndk->nk", uv, self.lines[cell[:, 2] + seg])
        crossed = (lines > 1.0).sum(axis=1)
        tri = self.tri_a[crossed] + self.tri_b[crossed] * seg
        return cell[:, 0] + cell[:, 1] * tri


def _box_rows(meta, span, bands, interval_tets, disk):
    """Cell rows of a box mesh, keyed by face * span + max-norm: per face
    of ``LayoutSeed``'s order, its cone tets, its shells from the inside
    out, and on a face with a tube that tube's station intervals."""
    segments, shells = meta["segments"], meta["shells"]
    half = float(meta["half"])
    face_tris = segments * (2 * bands - 1)
    rows = []
    for b in range(6):
        axis = b % 3
        face = 2 * axis + (b >= 3)  # the builder's order: +x, -x, +y, ...
        lines = face * segments
        start = (b - 0.5) * span if b else -np.inf
        rows.append((start, (shells - 1) * 18 * face_tris + face * face_tris,
                     1, lines, 0.0, 0.0, 1.0 / half))
        for t in range(shells - 2, -1, -1):
            rows.append((b * span + (1.0 - (t + 1) / shells) * half,
                         t * 18 * face_tris + 3 * face * face_tris + 1,
                         3, lines, 0.0, 0.0, 1.0 / half))
        if b < 3 and axis in meta["station_x"]:
            rows += _interval_rows(meta, axis, b * span, interval_tets,
                                   disk)
    return rows


def _interval_rows(meta, axis, offset, interval_tets, disk):
    """Cell rows of the station intervals of one tube, keyed by
    x + offset."""
    x, r = meta["station_x"][axis], meta["station_r"][axis]
    slope = np.diff(r) / np.diff(x)
    first = meta["tube_tets"][axis] + 1
    keys = x[:-1] + offset
    return [(keys[k], first + k * interval_tets, 3, disk, r[k], x[k],
             slope[k]) for k in range(len(x) - 1)]


def _cell_lines(pts, segments, bands):
    """Coefficients (cu, cv) per ray m of the lines of a polar layout's
    cells between rays m and m + 1, such that a point (u, v) of that
    wedge is beyond a line where cu u + cv v > 1: the chord between the
    two rays' nodes of ring k, then the diagonal of the band quad from
    ring k on ray m to ring k + 1 on ray m + 1, for k = 1 ... bands - 1.
    Rings past the layout's last have no lines, coefficients 0.

    The point is alpha ray_m + beta ray_m+1, and it is beyond the line
    through the nodes at radii rho_a on ray m and rho_b on ray m + 1
    where alpha / rho_a + beta / rho_b > 1.
    """
    rings = (len(pts) - 1) // segments
    rho = np.hypot(*pts[1:].T).reshape(rings, segments)
    ray = pts[1:1 + segments] / rho[0][:, None]
    ray = np.vstack([ray, ray[:1]]) / math.sin(2.0 * math.pi / segments)
    c0, s0 = ray[:-1].T
    c1, s1 = ray[1:].T
    inv = 1.0 / rho
    out = np.zeros((segments, 2, 2 * (bands - 1)))
    for k in range(1, min(bands, rings)):
        for col, kb in ((2 * k - 2, k), (2 * k - 1, k + 1)):
            ia, ib = inv[k - 1], np.roll(inv[kb - 1], -1)
            out[:, 0, col] = s1 * ia - s0 * ib
            out[:, 1, col] = c0 * ib - c1 * ia
    return out


def face_keys(faces, num_nodes):
    """One int64 key per triangle, (lo*n + mid)*n + hi of its vertices;
    a mesh of 2**21 nodes or more is refused, since n**3 overflows."""
    n = int(num_nodes)
    if n >= 1 << 21:
        raise ValueError(f"face keys overflow int64: {n} nodes, the limit "
                         f"is {(1 << 21) - 1} nodes at any tet count")
    f = np.asarray(faces, dtype=np.int64)
    a, b, c = f[..., 0], f[..., 1], f[..., 2]
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    return (lo * n + (a + b + c - lo - hi)) * n + hi


def _run_starts(key, order):
    """Whether each key of the sorted order ``key[order]`` starts a run
    of equal keys, compared block by block through ``order``, so that
    no sorted copy of the keys is made."""
    first = np.empty(order.size, dtype=bool)
    first[:1] = True
    for lo in range(1, order.size, BLOCK_POINTS):
        hi = min(lo + BLOCK_POINTS, order.size)
        np.not_equal(key.take(order[lo:hi]), key.take(order[lo - 1:hi - 1]),
                     out=first[lo:hi])
    return first


def face_adjacency(tets, num_nodes):
    """Tet across each face of each tet, ``OTHER`` where there is none.

    Faces are matched by their keys, built block by block; column ``v``
    is the face opposite vertex ``v``.  The pass holds the int64 keys
    and their sort order, 16 bytes a face, and the adjacency.
    """
    key = np.empty((tets.shape[0], 4), dtype=np.int64)
    for blk in tet_blocks(tets.shape[0]):
        key[blk] = face_keys(tets[blk][:, _FACES], num_nodes)
    key = key.ravel()
    order = np.argsort(key, kind="stable")
    # sorted positions whose key repeats at the next position
    twin = np.flatnonzero(~_run_starts(key, order)[1:])
    del key
    adjacent = np.full(order.size, OTHER, dtype=np.int32)
    first, second = order[twin], order[twin + 1]
    adjacent[first] = second // 4
    adjacent[second] = first // 4
    return adjacent.reshape(-1, 4)


def tet_edges(tets, num_nodes):
    """The mesh's edges as rows (a, b), a < b, in increasing order, and
    the row of each tet's six edges (``_EDGES``) in that list.

    Each of the S = 6 * tets edge slots gets one int64 key, its edge key
    a*n + b shifted left past the slot's number, which fills the low
    bits.  One in-place sort of these keys orders the edges and carries
    each slot with its edge, so no argsort order is made (an argsort of
    the edge keys takes about twice as long), and equal edges are
    numbered block by block through the sorted keys.  The pass holds the
    keys and the slots' edge numbers, 72 bytes per tet.  The edge rows
    are int32 where node ids fit.  A key needs n**2 << bits < 2**63,
    bits those of the slot numbers: about 0.55M nodes at 5 tets a node;
    a larger mesh is refused before any key is made.
    """
    n = int(num_nodes)
    size = 6 * tets.shape[0]
    bits = max(size - 1, 1).bit_length()
    if (n * n) << bits >= 1 << 63:
        limit = math.isqrt(((1 << 63) - 1) >> bits)
        raise ValueError(f"edge keys overflow int64: {n} nodes and "
                         f"{tets.shape[0]} tets, the limit is {limit} nodes "
                         f"at {tets.shape[0]} tets")
    key = np.empty((tets.shape[0], 6), dtype=np.int64)
    for blk in tet_blocks(tets.shape[0]):
        pair = tets[blk][:, _EDGES].astype(np.int64)
        edge = pair.min(axis=2) * n + pair.max(axis=2)
        slot = np.arange(6 * blk.start, 6 * blk.stop).reshape(-1, 6)
        np.bitwise_or(edge << bits, slot, out=key[blk])
    key = key.ravel()
    key.sort()
    index = np.empty(size, dtype=np.int32)
    unique, count, last = [], 0, -1
    for lo in range(0, size, BLOCK_POINTS):
        blk = slice(lo, lo + BLOCK_POINTS)
        edge = key[blk] >> bits
        first = np.empty(edge.size, dtype=bool)
        first[0] = edge[0] != last
        np.not_equal(edge[1:], edge[:-1], out=first[1:])
        number = np.cumsum(first, dtype=np.int32)
        number += count - 1
        index[key[blk] & ((1 << bits) - 1)] = number
        unique.append(edge[first])
        count, last = int(number[-1]) + 1, edge[-1]
    del key
    unique = np.concatenate(unique) if unique else np.empty(0, np.int64)
    edges = np.empty((unique.size, 2),
                     dtype=np.int32 if n <= 1 << 31 else np.int64)
    np.divmod(unique, n, out=(edges[:, 0], edges[:, 1]))
    return edges, index.reshape(-1, 6)


def _boundary_faces(tets, num_nodes, surface):
    """Outward faces with no tet across, int64 node ids, in the order of
    their slots in the transposed ``face_adjacency``: by face of
    ``_FACES``, then by tet.

    Only the faces whose three nodes are among the ``surface`` node ids
    (arrays of them, which must hold every node of the boundary) are
    keyed: a face listed once among them is on the boundary, one listed
    twice is interior.
    """
    on_surface = np.zeros(num_nodes, dtype=bool)
    for ids in surface:
        on_surface[ids] = True
    hit = on_surface[tets]
    side, tet = np.nonzero([hit[:, f].all(axis=1) for f in _FACES])
    faces = tets[tet[:, None], _FACES[side]].astype(np.int64)
    _, inverse, count = np.unique(face_keys(faces, num_nodes),
                                  return_inverse=True, return_counts=True)
    return faces[count[inverse] == 1]


def _tag_boundary(nodes, faces, half, end_planes):
    """Boundary tags of a box mesh's boundary faces, and the code of
    each face."""
    cent = nodes[faces].mean(axis=1)
    code = np.full(faces.shape[0], OTHER, dtype=np.int32)
    tags = {}
    tol = 1e-9 * max(1.0, half)
    for axis, x_end in end_planes.items():
        on_end = np.abs(cent[:, axis] - x_end) < tol
        tags[f"end_{axis}"] = faces[on_end]
        code[on_end] = END
        lateral = (code == OTHER) & (cent[:, axis] > half + tol)
        tags[f"lateral_{axis}"] = faces[lateral]
        code[lateral] = LATERAL
    tags["wall"] = faces[code == OTHER]
    return tags, code


def sagitta(radius, segments):
    """Widest gap between a circle and its inscribed ``segments``-gon."""
    return radius * (1.0 - math.cos(math.pi / segments))


def _layout_params(refine):
    segments = 8 * max(3, round(6.0 * refine))
    rings = max(3, round(4.0 * refine))
    blend = max(2, round(3.0 * refine))
    shells = rings + blend
    return segments, rings, blend, shells


def build_junction_mesh(spec: ProblemSpec, R=None, refine=None):
    """Mesh the truncated junction body in the fast variables.

    The truncation radius doubles as the accuracy dial: extending the
    tubes is only useful together with a denser mesh, so the default
    refinement grows with ``R`` and both error sources shrink at once.
    """

    spec.check_attachable()
    ell = spec.ell
    R = ell + 6.0 if R is None else float(R)
    if R <= ell + 3.0:
        raise ValueError("truncation too short: need R > ell + 3")
    if refine is None:
        refine = max(1.0, ((R - ell) / 6.0) ** 1.5)
    segments, rings, blend, shells = _layout_params(refine)
    radii = [spec.h0(i) for i in range(3)]
    band = spec.junction_band()
    far = spec.far_field_start()
    builder = _DomainBuilder(ell, radii, rings, blend, segments, shells)
    for axis in range(3):
        fine = radii[axis] / 5.0 / refine
        xs = graded_stations(ell, R, fine, far, cap=radii[axis] / refine)
        xs = snap_stations(xs, [band.lo, band.hi, far])
        builder.extrude_tube(axis, xs, lambda _x, r=radii[axis]: r)
    return builder.finish({0: R, 1: R, 2: R}, {"R": R, "refine": refine})


def build_thin_mesh(spec: ProblemSpec, axial, refine):
    """Mesh the physical domain: scaled cube bulge plus three tubes.

    Each tube has a station on every plane of ``thin_stations``, so no
    tet straddles a band's end or a radius breakpoint: a tube tet lies
    wholly on one side of the matching band's edge, where tube
    estimates start (``ReferenceSolution.observation_interval``).
    ``axial`` and ``refine`` have no default: ``solve_reference`` owns
    the spacing default (``reference.default_axial``).
    """

    spec.check_attachable()
    eps, ell = spec.epsilon, spec.ell
    half = eps * ell
    segments, rings, blend, shells = _layout_params(refine)
    radii = [eps * spec.h0(i) for i in range(3)]
    builder = _DomainBuilder(half, radii, rings, blend, segments, shells)
    for axis in range(3):
        builder.extrude_tube(axis, thin_stations(spec, axis, axial, refine),
                             lambda x, a=axis: eps * spec.h[a](x))
    meta = {"epsilon": eps, "axial": axial, "refine": refine}
    return builder.finish({0: 1.0, 1: 1.0, 2: 1.0}, meta)


def thin_stations(spec: ProblemSpec, axis, axial, refine):
    """Axial stations of one tube of the thin mesh: graded from the bulge
    face, with a station on each plane where the data have a kink (the
    matching and end bands' ends, the radius breakpoints)."""

    eps = spec.epsilon
    half = eps * spec.ell
    fine = eps * spec.h0(axis) / 5.0 / refine
    xs = graded_stations(half, 1.0, fine, half + 10.0 * fine,
                         cap=axial / refine)
    end = spec.end_band()
    forced = [*spec.matching_planes(), end.lo, end.hi,
              *(float(b) for b in spec.h[axis].breakpoints[1:-1])]
    return snap_stations(xs, sorted(forced))


def build_tube_mesh(radius, length, axial, refine=1.0, radius_fn=None):
    """Straight test tube along the first axis, both end disks tagged."""

    segments, rings, _, _ = _layout_params(refine)
    uv, disk_tris = disk_layout(rings, segments)
    xs = np.arange(0.0, length + 0.5 * axial, axial)
    xs[-1] = length
    rfn = radius_fn if radius_fn is not None else (lambda _x: radius)
    radii = [float(rfn(float(x))) for x in xs]
    nodes = _tube_sections(uv, 0, xs, radii).reshape(-1, 3)
    ids = np.arange(len(nodes)).reshape(len(xs), -1)
    stations = [Station(float(x), i) for x, i in zip(xs, ids)]
    orient = _prism_signs(disk_tris, segments, 0, 1)
    tris = ids[:, disk_tris]
    tets = split_prisms(tris[:-1].reshape(-1, 3), tris[1:].reshape(-1, 3),
                        np.tile(orient, len(xs) - 1))
    # the stations' outer rings and the two end disks
    faces = _boundary_faces(tets, len(nodes),
                            [ids[:, -segments:], ids[0], ids[-1]])
    cent = nodes[faces].mean(axis=1)
    tol = 1e-9 * max(1.0, length)
    at_0 = np.abs(cent[:, 0]) < tol
    at_l = np.abs(cent[:, 0] - length) < tol
    boundary = {"end_a": faces[at_0], "end_b": faces[at_l],
                "lateral_0": faces[~(at_0 | at_l)]}
    meta = {"radius": radius, "length": length, "axial": axial,
            "segments": segments, "rings": rings,
            "sagitta": sagitta(max(radii), segments),
            **_tube_layout({0: stations}, {0: radii}, {0: 0})}
    return TetMesh(nodes=nodes, tets=tets,
                   boundary=boundary, stations={0: stations},
                   disk_tris=disk_tris, meta=meta,
                   boundary_codes=np.where(at_0 | at_l, END,
                                           LATERAL).astype(np.int32))
