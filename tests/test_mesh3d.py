"""Mesh generation: conformity, volumes, boundary tags, stations."""

import re

import numpy as np
import pytest

from boundary_faces_oracle import (
    boundary_faces_reference,
    coded_adjacency,
    face_sort_boundary,
)
from node_pool_oracle import NodePool, pool_numbering
from thinjunction import (
    Expansion,
    build_junction_mesh,
    build_thin_mesh,
    build_tube_mesh,
    fem3d,
    mesh3d,
    solve_reference,
    with_epsilon,
)
from thinjunction.fem3d import PointLocator
from thinjunction.mesh3d import (
    _FACES,
    END,
    LATERAL,
    OTHER,
    _boundary_faces,
    face_keys,
    graded_stations,
    snap_stations,
    thin_stations,
)
from thinjunction.reference import default_axial


@pytest.fixture(scope="module")
def tube():
    return build_tube_mesh(radius=0.5, length=2.0, axial=0.25)


@pytest.fixture(scope="module")
def junction(flat_spec):
    return build_junction_mesh(flat_spec, R=flat_spec.ell + 3.5, refine=1.0)


def signed_volumes(mesh):
    p = mesh.nodes[mesh.tets.astype(np.int64)]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    v3 = p[:, 3] - p[:, 0]
    return np.einsum("ij,ij->i", np.cross(v1, v2), v3) / 6.0


def face_multiset(tets):
    corners = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    faces = np.concatenate([tets[:, c] for c in corners], axis=0)
    return np.sort(faces, axis=1)


class TestTube:
    def test_positive_orientation(self, tube):
        assert signed_volumes(tube).min() > 0.0

    def test_volume_matches_end_area_times_length(self, tube):
        # straight prisms split into tets keep the product exactly
        area = tube.boundary_area("end_a")
        assert tube.volumes.sum() == pytest.approx(2.0 * area, rel=1e-12)

    def test_end_disks_approximate_circle(self, tube):
        a = tube.boundary_area("end_a")
        b = tube.boundary_area("end_b")
        exact = np.pi * 0.5 ** 2
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(exact, rel=0.05)
        assert a < exact  # inscribed polygon

    def test_lateral_area_near_cylinder(self, tube):
        exact = 2.0 * np.pi * 0.5 * 2.0
        assert tube.boundary_area("lateral_0") == pytest.approx(
            exact, rel=0.05)

    def test_conforming_faces(self, tube):
        faces = face_multiset(tube.tets.astype(np.int64))
        _, counts = np.unique(faces, axis=0, return_counts=True)
        assert set(counts.tolist()) <= {1, 2}
        n_boundary = int((counts == 1).sum())
        tagged = sum(f.shape[0] for f in tube.boundary.values())
        assert tagged == n_boundary

    def test_boundary_tags_disjoint(self, tube):
        seen = None
        for fac in tube.boundary.values():
            s = {tuple(sorted(f)) for f in fac.tolist()}
            assert len(s) == fac.shape[0]
            if seen is not None:
                assert not (seen & s)
                seen |= s
            else:
                seen = s

    def test_stations_cover_axis(self, tube):
        xs = [st.x for st in tube.stations[0]]
        assert xs[0] == 0.0
        assert xs[-1] == 2.0
        assert np.all(np.diff(xs) > 0)

    def test_refinement_improves_disk_area(self):
        coarse = build_tube_mesh(radius=0.5, length=0.5, axial=0.25)
        fine = build_tube_mesh(radius=0.5, length=0.5, axial=0.25,
                               refine=2.0)
        exact = np.pi * 0.25
        err_c = abs(coarse.boundary_area("end_a") - exact)
        err_f = abs(fine.boundary_area("end_a") - exact)
        assert err_f < 0.5 * err_c

    def test_varying_radius_sections(self):
        mesh = build_tube_mesh(radius=0.5, length=1.0, axial=0.25,
                               radius_fn=lambda x: 0.5 - 0.2 * x)
        for st in mesh.stations[0]:
            pts = mesh.nodes[st.nodes]
            rim = np.hypot(pts[:, 1], pts[:, 2]).max()
            assert rim == pytest.approx(0.5 - 0.2 * st.x, abs=1e-12)


class TestJunction:
    def test_positive_orientation(self, junction):
        assert signed_volumes(junction).min() > 0.0

    def test_boundary_partition(self, junction):
        faces = face_multiset(junction.tets.astype(np.int64))
        _, counts = np.unique(faces, axis=0, return_counts=True)
        assert set(counts.tolist()) <= {1, 2}
        n_boundary = int((counts == 1).sum())
        tagged = sum(f.shape[0] for f in junction.boundary.values())
        assert tagged == n_boundary
        expected = {"end_0", "end_1", "end_2", "lateral_0", "lateral_1",
                    "lateral_2", "wall"}
        assert set(junction.boundary) == expected

    def test_end_disks_at_truncation_radius(self, junction, flat_spec):
        R = junction.meta["R"]
        for axis in range(3):
            faces = junction.boundary[f"end_{axis}"]
            cent = junction.nodes[faces.astype(np.int64)].mean(axis=1)
            assert np.allclose(cent[:, axis], R, atol=1e-9)
            exact = np.pi * flat_spec.h0(axis) ** 2
            assert junction.boundary_area(f"end_{axis}") == pytest.approx(
                exact, rel=0.05)

    def test_stations_reach_truncation(self, junction, flat_spec):
        for axis in range(3):
            xs = [st.x for st in junction.stations[axis]]
            assert xs[0] == pytest.approx(flat_spec.ell, abs=1e-12)
            assert xs[-1] == pytest.approx(junction.meta["R"], abs=1e-12)

    def test_too_short_truncation_rejected(self, flat_spec):
        with pytest.raises(ValueError, match="truncation"):
            build_junction_mesh(flat_spec, R=flat_spec.ell + 2.0)


@pytest.fixture(scope="module")
def thin(rich_spec):
    return build_thin_mesh(rich_spec, axial=0.05, refine=0.8)


class TestThinMesh:
    def test_positive_orientation(self, thin):
        assert signed_volumes(thin).min() > 0.0

    def test_forced_stations_present(self, thin, rich_spec):
        want = [1.0 - 2.0 * rich_spec.delta_cut, 1.0 - rich_spec.delta_cut]
        for axis in range(3):
            xs = np.array([st.x for st in thin.stations[axis]])
            for xf in want:
                assert np.abs(xs - xf).min() < 1e-12
            assert xs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_walls_follow_radius_profile(self, thin, rich_spec):
        eps = rich_spec.epsilon
        axes = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
        for axis in range(3):
            for st in thin.stations[axis][::4]:
                pts = thin.nodes[st.nodes]
                ta, tb = axes[axis]
                rim = np.hypot(pts[:, ta], pts[:, tb]).max()
                want = eps * rich_spec.h[axis](st.x)
                assert rim == pytest.approx(want, rel=1e-9)

    def test_end_disk_area_scales_with_epsilon(self, thin, rich_spec):
        eps = rich_spec.epsilon
        exact = np.pi * (eps * rich_spec.h[1](1.0)) ** 2
        assert thin.boundary_area("end_1") == pytest.approx(exact, rel=0.06)


def _boundary_slots(mesh):
    """The sorted faces of the slots of the mesh's face adjacency with no
    tet across, in the order of those slots in its transpose."""
    side, tet = np.nonzero(coded_adjacency(mesh).T < 0)
    return np.sort(mesh.tets[tet[:, None], _FACES[side]], axis=1)


class TestBoundaryFaces:
    """The faces with no tet across, found among the faces on the
    builder's surface, against the face-sort oracles."""

    @pytest.fixture(scope="class", params=[
        "tube", "tube_varying", "junction", "thin_varying_0.8",
        "thin_constant_0.5", "thin_constant_1.0", "thin_varying_0.5"])
    def built(self, request, flat_spec, rich_spec):
        """A mesh built afresh."""
        name = request.param
        if name == "tube":
            return build_tube_mesh(radius=0.5, length=2.0, axial=0.25)
        if name == "tube_varying":
            return build_tube_mesh(0.5, 2.0, 0.25, refine=0.7,
                                   radius_fn=lambda x: 0.4 + 0.1 * x)
        if name == "junction":
            return build_junction_mesh(flat_spec, R=flat_spec.ell + 3.5,
                                       refine=1.0)
        _, radii, refine = name.split("_")
        if radii == "constant":
            spec = with_epsilon(flat_spec, 0.2)
        else:
            spec = rich_spec if refine == "0.8" else with_epsilon(rich_spec,
                                                                  0.2)
        return build_thin_mesh(spec, axial=0.05, refine=float(refine))

    def test_tags_codes_and_adjacency_are_the_face_sorts(self, built):
        # the tags come without an adjacency; the slots and codes are those
        # of the face sort's boundary slots
        assert not hasattr(built, "adjacent")
        tags, adjacent = face_sort_boundary(built)
        assert list(built.boundary) == list(tags)
        for tag, want in tags.items():
            got = built.boundary[tag]
            assert got.dtype == want.dtype and np.array_equal(got, want), tag
        assert np.array_equal(coded_adjacency(built), adjacent)
        side, tet = np.nonzero(adjacent.T < 0)
        assert np.array_equal(built.boundary_slots, 4 * tet + side)
        assert np.array_equal(built.boundary_codes, adjacent.T[adjacent.T < 0])
        if "shells" in built.meta:
            # the locator's table: the codes in the boundary slots, a mark
            # on the faces shared with the tet before or after, else 0
            own = np.arange(built.num_tets)[:, None]
            want = np.select([adjacent < 0, adjacent == own - 1,
                              adjacent == own + 1],
                             [adjacent, fem3d._BEFORE, fem3d._AFTER], 0)
            table = PointLocator(built)._faces
            assert table.dtype == np.int8 and np.array_equal(table, want)

    @pytest.mark.parametrize("name", ["tube", "junction", "thin"])
    def test_bitwise_equal_to_oracle(self, request, name):
        # any surface that holds the boundary's nodes gives its faces, in
        # the order of the oracle's face sort, and the mesh's slots
        mesh = request.getfixturevalue(name)
        n = mesh.num_nodes
        for tets in (mesh.tets, mesh.tets.astype(np.int64)):
            want = boundary_faces_reference(tets).astype(np.int64)
            for surface in (list(mesh.boundary.values()), [np.arange(n)]):
                got, slots = _boundary_faces(tets, n, surface)
                assert got.dtype == np.int64 and np.array_equal(got, want)
                assert np.array_equal(slots, mesh.boundary_slots)

    @pytest.mark.parametrize("name", ["tube", "junction", "thin"])
    def test_adjacency_pairs_faces_and_codes_tags(self, request, name):
        mesh = request.getfixturevalue(name)
        adj = coded_adjacency(mesh)
        assert adj.shape == (mesh.num_tets, 4) and adj.dtype == np.int32
        # an interior face is seen from both of its tets
        t, v = np.nonzero(adj >= 0)
        back = adj[adj[t, v]]
        assert np.all((back == t[:, None]).sum(axis=1) == 1)
        assert set(np.unique(adj[adj < 0]).tolist()) <= {END, LATERAL, OTHER}
        faces = _boundary_slots(mesh)
        code = adj.T[adj.T < 0]
        for prefix, want in (("end", END), ("lateral", LATERAL),
                             ("wall", OTHER)):
            tagged = [f for tag, f in mesh.boundary.items()
                      if tag.startswith(prefix)]
            tagged = np.sort(np.concatenate(tagged), axis=1) if tagged \
                else np.empty((0, 3), int)
            assert np.array_equal(np.unique(faces[code == want], axis=0),
                                  np.unique(tagged, axis=0)), prefix

    def test_only_surface_faces_are_keyed(self, flat_spec, monkeypatch):
        """A thin-mesh reference solve and an order-1 expansion key only
        the faces on each builder's surface, once per mesh, far fewer
        than the 4 * tets faces of a whole-mesh sort, and build one point
        locator, the junction's."""
        keyed, built = [], []
        keys = mesh3d.face_keys
        init = PointLocator.__init__

        def counted(faces, num_nodes):
            keyed.append(len(faces))
            return keys(faces, num_nodes)

        def counted_init(loc, mesh):
            built.append(loc)
            init(loc, mesh)

        monkeypatch.setattr(mesh3d, "face_keys", counted)
        monkeypatch.setattr(PointLocator, "__init__", counted_init)
        ref = solve_reference(with_epsilon(flat_spec, 0.2), axial=0.05,
                              refine=0.5)
        assert len(keyed) == 1 and built == []
        exp = Expansion(flat_spec, junction_R=flat_spec.ell + 3.5,
                        junction_refine=0.7)
        assert exp.order == 1
        assert len(keyed) == 2
        assert len(built) == 1 and built[0] is exp.junction.locator
        for count, mesh in zip(keyed, (ref.mesh, exp.junction.mesh)):
            assert count < 0.1 * 4 * mesh.num_tets, (count, mesh.num_tets)

    def test_tags_partition_the_boundary_faces(self, thin):
        faces = boundary_faces_reference(thin.tets)
        tagged = np.concatenate(list(thin.boundary.values()))
        assert len(tagged) == len(faces)
        key = np.sort(faces, axis=1)
        assert np.array_equal(np.unique(key, axis=0),
                              np.unique(np.sort(tagged, axis=1), axis=0))

    def test_key_range_is_checked(self):
        # a ValueError, which python -O keeps; 2**21 - 1 nodes fit
        tri = np.array([[0, 1, (1 << 21) - 1]])
        with pytest.raises(ValueError, match=re.escape(
                "face keys overflow int64: 2097152 nodes, the limit is "
                "2097151 nodes")):
            face_keys(tri, 1 << 21)

    def test_sagitta_recorded(self, tube, junction, thin):
        # the widest station rim of each mesh sets its sagitta
        axes = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
        for mesh in (tube, junction, thin):
            rim = max(np.hypot(*mesh.nodes[st.nodes][:, axes[e]].T).max()
                      for e, sts in mesh.stations.items() for st in sts)
            segments = mesh.meta.get("segments", 48)  # tubes: refine 1
            assert mesh.meta["sagitta"] == pytest.approx(
                rim * (1.0 - np.cos(np.pi / segments)), rel=1e-12)


class TestNodeNumbering:
    """One merge of the cube faces' points, fresh ids for the rest,
    against the dictionary-keyed pool."""

    def test_box_meshes_match_the_pool(self, junction, thin, flat_spec,
                                       rich_spec):
        eps = rich_spec.epsilon
        cases = ((junction, flat_spec.ell,
                  [flat_spec.h0(i) for i in range(3)]),
                 (thin, eps * rich_spec.ell,
                  [eps * rich_spec.h0(i) for i in range(3)]))
        for mesh, half, radii in cases:
            faces, stations, coords = pool_numbering(mesh, half, radii)
            assert coords.dtype == mesh.nodes.dtype
            assert np.array_equal(coords, mesh.nodes)
            for axis in range(3):
                first, *rest = mesh.stations[axis]
                assert np.array_equal(first.nodes,
                                      faces[2 * axis][:first.nodes.size])
                assert len(rest) == len(stations[axis])
                for st, ids in zip(rest, stations[axis]):
                    assert st.nodes.dtype == ids.dtype
                    assert np.array_equal(st.nodes, ids)

    def test_tube_matches_the_pool(self, tube):
        pool = NodePool()
        for st in tube.stations[0]:
            assert np.array_equal(pool.add(tube.nodes[st.nodes]), st.nodes)
        assert np.array_equal(pool.coords(), tube.nodes)


class TestStationHelpers:
    def test_graded_spacing(self):
        xs = graded_stations(0.0, 3.0, fine=0.05, fine_until=0.5, cap=0.4)
        assert xs[0] == 0.0 and xs[-1] == 3.0
        gaps = np.diff(xs)
        assert gaps.min() > 0
        # the final station absorbs the leftover, up to half a step more
        assert gaps[:-1].max() <= 0.4 + 1e-12
        assert gaps[-1] <= 1.5 * 0.4 + 1e-12
        near = gaps[xs[:-1] < 0.45]
        assert np.allclose(near, 0.05)

    def test_snap_moves_nearest_station(self):
        xs = np.linspace(0.0, 1.0, 11)
        out = snap_stations(xs, [0.33])
        assert np.abs(out - 0.33).min() < 1e-12
        assert out[0] == 0.0 and out[-1] == 1.0
        assert np.all(np.diff(out) > 0)

    def test_snap_ignores_out_of_range(self):
        xs = np.linspace(0.0, 1.0, 5)
        out = snap_stations(xs, [-0.5, 1.5])
        assert np.allclose(out, xs)

    def test_snap_keeps_two_planes_closer_than_half_a_gap(self):
        # 0.36 lies nearer the station moved onto 0.33 than to 0.4: it is
        # inserted beside it, not moved onto it
        xs = np.linspace(0.0, 1.0, 11)
        out = snap_stations(xs, [0.33, 0.36])
        assert 0.33 in out and 0.36 in out
        assert out[0] == 0.0 and out[-1] == 1.0
        assert np.all(np.diff(out) > 0)


def _thin_planes(spec, axis):
    """The planes where the thin domain's data have a kink along a tube:
    the matching band's ends 2 ell eps^alpha and 3 ell eps^alpha, the
    end band's 1 - 2 delta and 1 - delta, and the radius breakpoints."""
    scale = spec.epsilon ** spec.alpha
    return [2.0 * spec.ell * scale, 3.0 * spec.ell * scale,
            1.0 - 2.0 * spec.delta_cut, 1.0 - spec.delta_cut,
            *spec.h[axis].breakpoints[1:-1]]


def _station_xs(mesh, axis):
    return np.array([st.x for st in mesh.stations[axis]])


def _assert_a_station_on_each_plane(xs, planes):
    assert np.all(np.diff(xs) > 0.0)
    inside = [x for x in planes if xs[0] < x < xs[-1]]
    assert inside and all(x in xs for x in inside)


# eps at which the former snap lost a plane: rich at 0.3, 0.5 and 0.65
# (a radius breakpoint took an end of the matching band), fx at 0.85
# (the end band took the matching band's edge)
_CROWDED = [("rich_spec", 0.3), ("rich_spec", 0.5), ("rich_spec", 0.65),
            ("fx_spec", 0.85)]


@pytest.mark.parametrize("refine", [0.4, 0.7, 1.0])
@pytest.mark.parametrize("name", ["fx_spec", "rich_spec"])
def test_each_forced_plane_is_a_station_over_an_eps_grid(request, name,
                                                         refine):
    spec = request.getfixturevalue(name)
    for eps in np.round(np.arange(0.1, 0.996, 0.005), 3):
        at = with_epsilon(spec, eps)
        for axial in (default_axial(eps), 0.05):
            for axis in range(3):
                xs = thin_stations(at, axis, axial, refine)
                assert xs[0] == eps * spec.ell and xs[-1] == 1.0
                _assert_a_station_on_each_plane(xs, _thin_planes(at, axis))


@pytest.mark.parametrize("refine", [0.4, 0.7, 1.0])
@pytest.mark.parametrize("name, eps", _CROWDED)
def test_no_tube_tet_straddles_a_forced_plane(request, name, eps, refine):
    spec = with_epsilon(request.getfixturevalue(name), eps)
    mesh = build_thin_mesh(spec, axial=default_axial(eps), refine=refine)
    assert mesh.volumes.min() > 0.0
    x = mesh.nodes[mesh.tets]
    for axis in range(3):
        planes = _thin_planes(spec, axis)
        _assert_a_station_on_each_plane(_station_xs(mesh, axis), planes)
        lo, hi = x[:, :, axis].min(axis=1), x[:, :, axis].max(axis=1)
        for plane in planes:
            assert not np.any((lo < plane) & (hi > plane))


@pytest.mark.parametrize("refine", [0.4, 0.7, 1.0])
@pytest.mark.parametrize("R", [4.3, 6.3])
def test_each_junction_plane_is_a_station(rich_spec, R, refine):
    mesh = build_junction_mesh(rich_spec, R=R, refine=refine)
    assert mesh.volumes.min() > 0.0
    ell = rich_spec.ell
    for axis in range(3):
        _assert_a_station_on_each_plane(
            _station_xs(mesh, axis), [ell + 1.0, ell + 2.0, ell + 2.5])



@pytest.mark.parametrize("build", ["thin", "junction", "tube"])
def test_each_tube_is_split_in_one_call_as_station_by_station(
        flat_spec, monkeypatch, build):
    """A builder cuts all the prisms of a tube in one ``split_prisms``
    call; its tets are bitwise those of one call per pair of
    neighbouring stations, in station order, the former extrusion."""
    calls = []

    def counted(bottom, top, orient):
        calls.append(len(bottom))
        return split(bottom, top, orient)

    split = mesh3d.split_prisms
    with monkeypatch.context() as patched:
        patched.setattr(mesh3d, "split_prisms", counted)
        if build == "thin":
            mesh = build_thin_mesh(with_epsilon(flat_spec, 0.2), axial=0.05,
                                   refine=0.5)
        elif build == "junction":
            mesh = build_junction_mesh(flat_spec, R=flat_spec.ell + 3.5,
                                       refine=0.7)
        else:
            mesh = build_tube_mesh(radius=0.5, length=2.0, axial=0.25,
                                   radius_fn=lambda x: 0.5 + 0.1 * x)
    meta = mesh.meta
    shells = meta.get("shells", 1)
    assert len(calls) == shells - 1 + len(mesh.stations)
    assert mesh.tets.dtype == np.int32
    for axis, stations in mesh.stations.items():
        orient = mesh3d._prism_signs(mesh.disk_tris, meta["segments"], axis,
                                     1)
        want = np.concatenate([
            split(a.nodes[mesh.disk_tris], b.nodes[mesh.disk_tris], orient)
            for a, b in zip(stations[:-1], stations[1:])])
        # a tube records no seeding layout: its tube starts at tet 0
        first = meta["tube_tets"][axis] if "shells" in meta else 0
        assert np.array_equal(mesh.tets[first:first + len(want)], want)
    if build == "tube":
        assert not {"tube_tets", "station_x", "station_r"} & meta.keys()
