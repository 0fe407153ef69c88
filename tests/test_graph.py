"""Graph engine against the triple-loop oracle, plus BFS, spectral, exports."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from markoff import field, graph
from markoff.core import Classifier, is_maximal, rot
from markoff.errors import CapExceeded, ConstructionError, DomainError
from markoff.graph import SurfaceGraph, bfs, components, shortest_path, word_to

import oracles

PRIMES_TO_61 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


def keys_of(pts, p):
    return sorted((a * p + b) * p + c for a, b, c in pts)


def test_enumeration_matches_triple_loop_oracle():
    for p in PRIMES_TO_61:
        keys = graph.surface_arrays(p)
        assert list(keys) == keys_of(oracles.surface_points(p), p)


def test_vertex_count_formula():
    for p in PRIMES_TO_61:
        n = len(graph.surface_arrays(p))
        assert n == graph.vertex_count_formula(p)
    assert graph.vertex_count_formula(7) == 28
    assert graph.vertex_count_formula(13) == 208


def test_build_checks_and_lookup_roundtrip():
    g = SurfaceGraph.build(31)
    # 31 = 3 mod 4, so the count is p^2 - 3p
    assert len(g) == 31 * 31 - 3 * 31 == 868
    for vid in range(len(g)):
        assert g.id_of(g.point_of(vid)) == vid
    # out of range, the excluded zero triple, off the surface
    for x in ((31, 0, 0), (0, 0, 0), (1, 1, 3)):
        with pytest.raises(DomainError):
            g.id_of(x)
    with pytest.raises(CapExceeded):
        SurfaceGraph.build(31, cap=29)


def test_adjacency_and_coords_digest_primes_to_199():
    # sha256 of adj then coords, little-endian int32, primes 5..199 ascending
    h = hashlib.sha256()
    for p in range(5, 200):
        if field.is_probable_prime(p):
            g = SurfaceGraph.build(p)
            h.update(g.adj.astype("<i4").tobytes())
            h.update(g.coords.astype("<i4").tobytes())
    assert h.hexdigest() == "5c8eb934c4b82780c12270b21aa34162c64c16fd9abe80ac13402eb8736e16b6"


@pytest.fixture(scope="module")
def g997():
    return SurfaceGraph.build(997)


def test_adjacency_coords_and_bfs_digest_p997(g997):
    # the graph-sweep band's largest prime, pinned past the p <= 199 digest above
    h = hashlib.sha256(g997.adj.astype("<i4").tobytes())
    h.update(g997.coords.astype("<i4").tobytes())
    assert h.hexdigest() == "2cee1153e11215ac0de4f9c5294655f53a7b183321db22be5550a1123227a30f"
    tree = bfs(g997, 0)
    h = hashlib.sha256(tree.depth.astype("<i4").tobytes())
    h.update(tree.parent.astype("<i4").tobytes())
    h.update(tree.via.astype("i1").tobytes())
    assert h.hexdigest() == "c98d1448f4eae63d2661c4b3678cc2601064df6cddf0f195f174f3b37cba887c"


def test_enumeration_keys_strictly_increase_past_1000():
    for p in (1009, 2017):
        keys = graph.surface_arrays(p)
        assert len(keys) == graph.vertex_count_formula(p)
        assert keys[0] > 0 and bool(np.all(np.diff(keys) > 0))


def test_build_refuses_a_rotation_that_is_not_a_permutation(monkeypatch):
    # (1,1,1) is a vertex mod every p, so every image passes the hit check
    # and only the inverse-column scatter can see that rot is not a bijection
    monkeypatch.setattr(graph, "rot", lambda x, axis, p: tuple(np.ones_like(c) for c in x))
    with pytest.raises(ConstructionError, match="permutation"):
        SurfaceGraph.build(13)


def test_build_refuses_past_int32_vertex_ids(monkeypatch):
    def refuse(p):
        raise AssertionError("enumerated past the int32 id limit")

    monkeypatch.setattr(graph, "surface_arrays", refuse)
    assert graph.vertex_count_formula(46337) < 2 ** 31 <= graph.vertex_count_formula(46349)
    with pytest.raises(CapExceeded, match="int32"):
        SurfaceGraph.build(46349, cap=10 ** 6)


def test_adjacency_matches_rotations():
    for p in (11, 29):
        g = SurfaceGraph.build(p)
        rng = random.Random(p)
        for _ in range(80):
            vid = rng.randrange(len(g))
            x = g.point_of(vid)
            for col, (axis, sign) in enumerate(graph.COLUMN_MOVES):
                assert g.point_of(int(g.adj[vid, col])) == rot(x, axis, p, sign)


def test_rot_on_int64_columns_matches_scalar_rows():
    rng = random.Random(64)
    for p in (31, 2017, 10**9 + 7):
        rows = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(200)]
        cols = tuple(np.array(rows, dtype=np.int64).T)
        for axis in (1, 2, 3):
            for sign in (1, -1):
                got = np.stack(rot(cols, axis, p, sign), axis=1)
                assert got.dtype == np.int64
                assert [tuple(map(int, r)) for r in got] == [rot(x, axis, p, sign) for x in rows]


def test_adjacency_is_symmetric_as_multigraph():
    # each +column edge is undone by the matching -column of the image
    g = SurfaceGraph.build(23)
    for axis in (1, 2, 3):
        fwd = g.adj[:, 2 * (axis - 1)]
        back = g.adj[fwd, 2 * (axis - 1) + 1]
        assert bool(np.all(back == np.arange(len(g))))


def test_conic_sizes_against_class():
    # elliptic value -> p+1 points, hyperbolic -> p-1, parabolic -> 2p (p=1 mod 4).
    # Value 0 is the lone exception: the section degenerates to x_j^2+x_k^2=0,
    # which is empty for p=3 mod 4 and a pair of crossing lines (2p-2 points,
    # the origin removed) for p=1 mod 4.  The class formula does not apply.
    for p in (13, 19, 29, 31):
        g = SurfaceGraph.build(p)
        cls = Classifier(p)
        for axis in (1, 2, 3):
            for value in range(p):
                if value == 0:
                    want = 2 * p - 2 if p % 4 == 1 else 0
                else:
                    cc = cls.classify(value)
                    want = {"elliptic": p + 1, "hyperbolic": p - 1}.get(cc.kind, 2 * p if p % 4 == 1 else 0)
                got = np.count_nonzero(g.coords[:, axis - 1] == value)
                assert got == want, (p, axis, value)


def test_conic_size_value_zero_oracle():
    # x_i = 0 forces x_j^2 + x_k^2 = 0.  Mod 11 the only solution is the
    # excluded zero triple; mod 13 it is the line pair x_j = +-5 x_k.
    g11 = SurfaceGraph.build(11)
    assert np.count_nonzero(g11.coords[:, 0] == 0) == 0
    assert [t for t in oracles.surface_points(11) if t[0] == 0] == []

    g13 = SurfaceGraph.build(13)
    assert np.count_nonzero(g13.coords[:, 0] == 0) == 2 * 13 - 2
    pts = [t for t in oracles.surface_points(13) if t[0] == 0]
    assert len(pts) == 24
    assert all(t[1] in (5 * t[2] % 13, -5 * t[2] % 13) for t in pts)


def test_maximal_orbit_equals_conic_exhaustive_small():
    # For a nonzero maximal coordinate value, the rotation orbit is the whole conic.
    for p in (13, 17, 19):
        pts = oracles.surface_points(p)
        cls = Classifier(p)
        for axis in (1, 2, 3):
            for value in range(1, p):
                if not cls.classify(value).maximal:
                    continue
                conic = [t for t in pts if t[axis - 1] == value]
                if not conic:
                    continue
                assert sorted(oracles.orbit(conic[0], axis, p)) == sorted(conic)


def test_maximal_orbit_value_zero_exception_mod_5():
    # Mod 5 the value 0 is maximal (its rotation has order 4 = p - 1), but the
    # degenerate section x_j^2 + x_k^2 = 0 holds 2p - 2 = 8 points while each
    # rotation orbit on it has only 4.  The orbit-equals-conic rule genuinely
    # fails here, so path construction must never bridge through a zero value.
    cls = Classifier(5)
    assert cls.classify(0).maximal and cls.classify(0).order == 4
    conic = {t for t in oracles.surface_points(5) if t[0] == 0}
    assert len(conic) == 8
    orbit = oracles.orbit((0, 1, 2), 1, 5)
    assert len(orbit) == 4
    assert set(orbit) < conic
    other = oracles.orbit((0, 1, 3), 1, 5)
    assert set(orbit) | set(other) == conic


def disjoint_union(a, b):
    """The graphs a and b side by side, b's ids offset by len(a); p and the
    offset table are a's, so only adjacency-driven code may use the result."""
    return SurfaceGraph(p=a.p, keys=np.concatenate([a.keys, b.keys]),
                        coords=np.vstack([a.coords, b.coords]),
                        adj=np.vstack([a.adj, b.adj + len(a)]), first=a.first)


def doubled_p5_graph():
    """Two disjoint copies of the p = 5 graph, ids 40.. for the second."""
    g = SurfaceGraph.build(5)
    return disjoint_union(g, g)


def assert_bfs_matches_queue_oracle(g, root):
    tree = bfs(g, root)
    depth, parent, via = oracles.bfs_queue(g.adj, root)
    assert tree.depth.tolist() == depth
    assert tree.parent.tolist() == parent
    assert tree.via.tolist() == via


def test_bfs_tree_matches_sequential_queue_oracle():
    # depth, parent and via: the scatter must pick the queue's first discovery
    for p in PRIMES_TO_61:
        g = SurfaceGraph.build(p)
        assert_bfs_matches_queue_oracle(g, g.id_of((1, 1, 1)))
        assert_bfs_matches_queue_oracle(g, len(g) - 1)
    twice = doubled_p5_graph()
    for root in (0, 40, 79):
        assert_bfs_matches_queue_oracle(twice, root)


def test_bfs_words_replay_to_their_vertex_exhaustive():
    for p in (11, 29):
        g = SurfaceGraph.build(p)
        tree = bfs(g, g.id_of((1, 1, 1)))
        for vid in range(len(g)):
            w = word_to(tree, vid)
            assert w.apply_mod((1, 1, 1), p) == g.point_of(vid)
            assert w.length <= tree.depth[vid]  # reduction can only shorten


def test_bfs_deterministic_tie_break():
    p = 13
    g = SurfaceGraph.build(p)
    t1 = bfs(g, g.id_of((1, 1, 1)))
    t2 = bfs(g, g.id_of((1, 1, 1)))
    assert bool(np.all(t1.parent == t2.parent)) and bool(np.all(t1.via == t2.via))
    # depth-1 vertices must be reached in column order from the root
    root = g.id_of((1, 1, 1))
    first = [int(g.adj[root, c]) for c in range(6)]
    seen = {}
    for c, w in enumerate(first):
        seen.setdefault(w, c)
    for w, c in seen.items():
        assert t1.via[w] == c


def test_shortest_path_between_arbitrary_points():
    p = 29
    g = SurfaceGraph.build(p)
    rng = random.Random(1)
    pts = oracles.surface_points(p)
    for _ in range(20):
        a, b = rng.choice(pts), rng.choice(pts)
        w = shortest_path(g, a, b)
        assert w.apply_mod(a, p) == b


def test_components_connected_small_primes():
    for p in (5, 7, 11, 13, 29, 31):
        rep = components(SurfaceGraph.build(p))
        assert rep.connected
        assert rep.vertices == graph.vertex_count_formula(p)
    assert graph.connectivity_check(31).sizes == [868]


def test_components_counts_each_copy_of_a_doubled_graph():
    rep = components(doubled_p5_graph())
    assert rep.sizes == [40, 40] and not rep.connected and rep.vertices == 80


def test_components_match_queue_oracle():
    for p in PRIMES_TO_61:
        g = SurfaceGraph.build(p)
        assert components(g).sizes == oracles.component_sizes(g.adj)
    # unequal parts in both id orders: floods find 28 before 40 in the second
    g5, g7 = SurfaceGraph.build(5), SurfaceGraph.build(7)
    for union in (disjoint_union(g5, g7), disjoint_union(g7, g5)):
        assert components(union).sizes == oracles.component_sizes(union.adj) == [40, 28]


def test_components_build_no_bfs_tree_p997(g997, monkeypatch):
    # a BFS tree costs depth, parent, via and a slot per vertex (34 B/vertex);
    # the flood keeps two byte masks and level-sized temporaries
    def no_bfs(*args):
        raise AssertionError("components must not build a BFS tree")
    monkeypatch.setattr(graph, "bfs", no_bfs)
    tracemalloc.start()
    try:
        rep = components(g997)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.sizes == [len(g997)]
    assert peak < 16 * len(g997)


def test_spectral_gap_matches_dense_eigensolver_with_multi_edges():
    # each of these primes has rows with a repeated neighbor, so an operator
    # that drops or merges multi-edges would move lambda_2
    for p in (5, 7, 13, 31):
        g = SurfaceGraph.build(p)
        assert any(len(set(row)) < 6 for row in g.adj.tolist())
        rep = graph.spectral_gap(g)
        a = np.zeros((len(g), len(g)))
        rows = np.repeat(np.arange(len(g)), 6)
        np.add.at(a, (rows, g.adj.ravel()), 1.0)
        assert np.allclose(a, a.T)
        eig = np.linalg.eigvalsh(a)
        assert abs(eig[-1] - 6.0) < 1e-9  # regular graph
        assert abs(rep.lam2 - eig[-2]) < 1e-6, p
        assert rep.iterations > 0
        assert rep.h_lower > 0
        assert rep.h_lower <= (6 - eig[-2]) / 2 + 1e-6  # padding keeps it a lower bound


def test_spectral_cap_refuses_large_p():
    g = SurfaceGraph.build(211)
    with pytest.raises(CapExceeded):
        graph.spectral_gap(g, cap=200)


def test_dot_export_shape():
    g = SurfaceGraph.build(5)
    lines = list(graph.to_dot(g))
    assert lines[0].startswith("graph markoff_5") and lines[-1] == "}"
    edges = [l for l in lines if " -- " in l]
    assert len(edges) == 3 * len(g)
    assert all("[label=rot" in e for e in edges)
    # undirected edge set covers every adjacency entry
    pairs = set()
    for e in edges:
        a, _, b = e.strip().split(" ")[:3]
        pairs.add(frozenset((int(a), int(b))))
    for vid in range(len(g)):
        for col in range(6):
            assert frozenset((vid, int(g.adj[vid, col]))) in pairs


def test_vertex_csv_schema_and_roundtrip():
    g = SurfaceGraph.build(7)
    rows = list(graph.vertex_csv(g))
    assert rows[0] == graph.VERTEX_CSV_HEADER
    assert len(rows) == len(g) + 1
    cls = Classifier(7)
    for row in rows[1:]:
        parts = row.split(",")
        assert len(parts) == 9
        vid, x1, x2, x3 = map(int, parts[:4])
        assert g.point_of(vid) == (x1, x2, x3)
        assert parts[4] in ("parabolic", "hyperbolic", "elliptic")
        assert int(parts[8]) == int(is_maximal((x1, x2, x3), cls))
