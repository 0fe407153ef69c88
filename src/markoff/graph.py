"""The mod-p Markoff graph: vertices X*(p), edges from the three rotations.

Enumeration solves the surface equation as a quadratic in x3 for every
(x1, x2) pair in vectorized row blocks, emitting each pair's roots smaller
first, so the keys (x1*p + x2)*p + x3 come out in key order, with no sort;
vertex ids follow them.  A pair owns at most two vertices, the roots c and
3*x1*x2 - c, so a point's id is first[x1*p + x2] plus one for the larger
root, read off a p^2-entry offset table without any search.  Adjacency is a
dense N x 6 id array in the column order rot1, rot1^-1, rot2, rot2^-1, rot3,
rot3^-1: the forward columns are core.rot applied to the coordinate columns,
and each inverse column is the inverse permutation of its forward column.
That column order is also the BFS tie-break, so extracted shortest paths are
deterministic; BFS marks visits in a one-byte mask.  Components are floods
along the forward columns alone, which build no tree.

Vertex counts obey |X*(p)| = p^2 + 3p for p = 1 (mod 4) and p^2 - 3p for
p = 3 (mod 4); construction checks this, that every rotation image lands
back inside the vertex set and that each rotation permutes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from . import field
from .core import Classifier, Triple, is_maximal, point_order, rot
from .errors import CapExceeded, ConstructionError, DomainError
from .words import PathWord

DEFAULT_ENUM_CAP = 3000
DEFAULT_SPECTRAL_CAP = 200

DEGREE = 6  # half-edges per vertex: three rotations, both directions
BLOCK = 1 << 16  # vertices per vectorized adjacency step; bounds the int64 temporaries

# column -> (axis, sign); fixed exploration/tie-break order
COLUMN_MOVES = ((1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1))


def vertex_count_formula(p: int) -> int:
    return p * p + 3 * p if p % 4 == 1 else p * p - 3 * p


def _sqrt_table(p: int) -> np.ndarray:
    """table[v*v % p] = canonical (smaller) root, -1 for non-residues."""
    t = np.full(p, -1, dtype=np.int64)
    v = np.arange(p // 2 + 1, dtype=np.int64)
    t[(v * v) % p] = v
    return t


def surface_arrays(p: int) -> np.ndarray:
    """Sorted int64 key array of all points of X*(p), emitted in key order."""
    roots = _sqrt_table(p)
    inv2 = pow(2, p - 2, p)
    chunks: List[np.ndarray] = []
    rows = max(1, BLOCK // p)
    x2 = np.arange(p, dtype=np.int64)
    for lo in range(0, p, rows):
        x1 = np.arange(lo, min(lo + rows, p), dtype=np.int64)[:, None]
        b = (3 * x1 * x2) % p
        disc = (b * b - 4 * (x1 * x1 + x2 * x2)) % p
        r = roots[disc]
        has = r >= 0
        u, v = ((b - r) * inv2) % p, ((b + r) * inv2) % p
        x3 = np.stack((np.minimum(u, v), np.maximum(u, v)), axis=-1)
        keep = np.stack((has & (disc != 0), has), axis=-1)  # a double root counts once
        chunks.append((((x1 * p + x2) * p)[..., None] + x3)[keep])
    return np.concatenate(chunks)[1:]  # drop the zero triple, always the first key


@dataclass
class SurfaceGraph:
    """Vertex set plus rotation adjacency for one prime."""

    p: int
    keys: np.ndarray               # sorted int64, length N
    coords: np.ndarray             # N x 3 int32
    adj: np.ndarray                # N x 6 int32, columns per COLUMN_MOVES
    first: np.ndarray              # p^2 int32: id of the first vertex with pair x1*p + x2

    @classmethod
    def build(cls, p: int, cap: int = DEFAULT_ENUM_CAP) -> "SurfaceGraph":
        field.require_odd_prime(p)
        want = vertex_count_formula(p)
        # int32 ids first refuse p = 46349, well below the int64 key limit p < 2^21
        if want > np.iinfo(np.int32).max:
            raise CapExceeded(f"{want} vertices mod {p} do not fit int32 vertex ids")
        if p > cap:
            raise CapExceeded(f"enumeration cap {cap} refuses p = {p}")
        keys = surface_arrays(p)
        n = len(keys)
        if n != want:
            raise ConstructionError(f"vertex count {n} != formula {want} at p = {p}")
        pairs = keys // p
        first = np.zeros(p * p, dtype=np.int32)
        np.cumsum(np.bincount(pairs, minlength=p * p)[:-1], out=first[1:])
        coords = np.empty((n, 3), dtype=np.int32)
        coords[:, 0], coords[:, 1], coords[:, 2] = pairs // p, pairs % p, keys % p
        del pairs
        g = cls(p=p, keys=keys, coords=coords, first=first,
                adj=np.empty((n, DEGREE), dtype=np.int32))
        for lo in range(0, n, BLOCK):
            x = tuple(coords[lo:lo + BLOCK].T.astype(np.int64))
            for axis in (1, 2, 3):
                ids, hit = g._lookup(*rot(x, axis, p))
                if not bool(hit.all()):
                    raise ConstructionError("rotation image left the vertex set")
                g.adj[lo:lo + BLOCK, 2 * axis - 2] = ids
        inv = np.empty(n, dtype=np.int32)
        for axis in (1, 2, 3):
            inv.fill(-1)
            inv[g.adj[:, 2 * axis - 2]] = np.arange(n, dtype=np.int32)
            if bool((inv < 0).any()):
                raise ConstructionError(f"rot{axis} is not a permutation of the vertex set")
            g.adj[:, 2 * axis - 1] = inv
        return g

    def _lookup(self, x1, x2, x3):
        """(ids, hit) for reduced coordinates, scalars or arrays; hit is False
        where the point is not a vertex.  A pair's two vertices are adjacent
        in id order, so the larger x3 root sits one past first[x1*p + x2]."""
        p = self.p
        pair = x1 * p + x2
        ids = self.first[pair] + (x3 > (3 * x1 * x2 - x3) % p)
        return ids, self.keys.take(ids, mode="clip") == pair * p + x3

    def __len__(self) -> int:
        return len(self.keys)

    def id_of(self, x: Triple) -> int:
        if all(0 <= c < self.p for c in x):
            vid, hit = self._lookup(*x)
            if hit:
                return int(vid)
        raise DomainError(f"{x} is not a vertex mod {self.p}")

    def point_of(self, vid: int) -> Triple:
        c = self.coords[vid]
        return (int(c[0]), int(c[1]), int(c[2]))


@dataclass
class BfsTree:
    root: int
    depth: np.ndarray    # int32, -1 where unreached
    parent: np.ndarray   # int32, -1 at root/unreached
    via: np.ndarray      # int8 column index of the move parent -> child, -1 unset

    @property
    def reached(self) -> int:
        return int((self.depth >= 0).sum())

    @property
    def eccentricity(self) -> int:
        return int(self.depth.max())


def bfs(g: SurfaceGraph, root: int) -> BfsTree:
    """Level-synchronous BFS with a sort-free first-discovery scatter.

    Ties are broken exactly as a sequential queue would with neighbor order
    COLUMN_MOVES: among all discoveries of a vertex in one level, the earliest
    frontier parent wins, and for one parent the lowest column wins.  A
    candidate's position in the flattened adj[frontier] orders it by that
    rule, so the least position scattered into a per-vertex slot wins; the
    winners, in position order, are the next frontier in discovery order.
    """
    n = len(g)
    depth = np.full(n, -1, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int32)
    via = np.full(n, -1, dtype=np.int8)
    slot = np.empty(n, dtype=np.int64)  # least position that found the vertex this level
    unseen = np.ones(n, dtype=bool)  # one byte a vertex: cheaper to gather than depth
    depth[root] = 0
    unseen[root] = False
    frontier = np.array([root], dtype=np.int32)
    level = 0
    while len(frontier):
        level += 1
        cand = g.adj[frontier].ravel()
        pos = np.flatnonzero(unseen[cand])
        cand = cand[pos]
        slot[cand] = DEGREE * len(frontier)  # above every position
        # minimum.at: numpy does not define which of repeated fancy-index writes wins
        np.minimum.at(slot, cand, pos)
        keep = slot[cand] == pos
        nxt, pos = cand[keep], pos[keep]
        depth[nxt] = level
        unseen[nxt] = False
        parent[nxt] = frontier[pos // DEGREE]
        via[nxt] = pos % DEGREE
        frontier = nxt
    return BfsTree(root=root, depth=depth, parent=parent, via=via)


def word_to(tree: BfsTree, vid: int) -> PathWord:
    """Rotation word from the BFS root to a vertex, reduced."""
    if tree.depth[vid] < 0:
        raise ConstructionError("vertex not reached by this BFS tree")
    steps = []
    cur = vid
    while cur != tree.root:
        col = int(tree.via[cur])
        axis, sign = COLUMN_MOVES[col]
        steps.append((axis, sign))
        cur = int(tree.parent[cur])
    steps.reverse()
    return PathWord.from_steps(steps)


def shortest_path(g: SurfaceGraph, src: Triple, dst: Triple) -> PathWord:
    tree = bfs(g, g.id_of(src))
    return word_to(tree, g.id_of(dst))


@dataclass
class ComponentReport:
    p: int
    sizes: List[int]  # descending

    @property
    def connected(self) -> bool:
        return len(self.sizes) == 1

    @property
    def vertices(self) -> int:
        return sum(self.sizes)


def components(g: SurfaceGraph) -> ComponentReport:
    """Component sizes, descending, by floods along the three forward columns.

    Precondition: each forward column of g.adj permutes the ids, as
    SurfaceGraph.build checks.  For a permutation s, every edge u -> s(u) lies
    on an s-cycle of some length k, so s^-1(u) = s^(k-1)(u) is reached going
    forward: what the forward columns reach from a root is exactly its
    undirected component.  Each flood starts at the lowest unseen id; the
    level mask dedupes each frontier, so duplicates never multiply.
    """
    fwd = g.adj[:, 0::2]
    seen, level = np.zeros(len(g), dtype=bool), np.zeros(len(g), dtype=bool)
    sizes = []
    while not seen.all():
        frontier = np.array([seen.argmin()])
        sizes.append(0)
        while len(frontier):
            seen[frontier], level[frontier] = True, False
            sizes[-1] += len(frontier)
            cand = fwd[frontier].ravel()
            level[cand[~seen[cand]]] = True
            frontier = np.flatnonzero(level)
    sizes.sort(reverse=True)
    return ComponentReport(p=g.p, sizes=sizes)


def connectivity_check(p: int, cap: int = DEFAULT_ENUM_CAP) -> ComponentReport:
    return components(SurfaceGraph.build(p, cap=cap))


@dataclass
class SpectralReport:
    lam2: float        # second-largest adjacency eigenvalue (estimate)
    residual: float    # ||A v - theta v|| at the accepted iterate
    iterations: int

    @property
    def h_lower(self) -> float:
        """Cheeger-type edge-expansion lower bound, residual-padded."""
        return (DEGREE - (self.lam2 + self.residual)) / 2


def spectral_gap(g: SurfaceGraph, seed: int = 0,
                 cap: int = DEFAULT_SPECTRAL_CAP) -> SpectralReport:
    """lambda_2 via ARPACK on a CSR adjacency operator; deterministic start.
    Row i holds adj[i] with repeats kept, so each half-edge of a multi-edge
    counts, and the operator counts its matvecs as the iterations."""
    if g.p > cap:
        raise CapExceeded(f"spectral cap {cap} refuses p = {g.p}")
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = len(g)
    a = csr_matrix((np.ones(n * DEGREE), g.adj.ravel(),
                    np.arange(0, DEGREE * n + 1, DEGREE)), shape=(n, n))
    calls = [0]

    def matvec(x):
        calls[0] += 1
        return a @ x.ravel()

    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        vals, vecs = eigsh(op, k=2, which="LA", tol=1e-8, v0=v0)
    except ArpackNoConvergence:
        raise ConstructionError(f"eigenvalue iteration did not converge for p = {g.p}")
    lam2 = float(vals[0])
    v = vecs[:, 0]
    resid = float(np.linalg.norm(matvec(v) - lam2 * v))
    return SpectralReport(lam2=lam2, residual=resid, iterations=calls[0])


def to_dot(g: SurfaceGraph) -> Iterator[str]:
    """DOT lines; one line per undirected labeled edge, emitted from its + end."""
    yield f"graph markoff_{g.p} {{"
    for vid in range(len(g)):
        x = g.point_of(vid)
        yield f'  {vid} [label="{x[0]},{x[1]},{x[2]}"];'
    for vid in range(len(g)):
        for axis in (1, 2, 3):
            w = int(g.adj[vid, 2 * (axis - 1)])
            yield f"  {vid} -- {w} [label=rot{axis}];"
    yield "}"


VERTEX_CSV_HEADER = "id,x1,x2,x3,class1,class2,class3,ord,in_cage"


def vertex_csv(g: SurfaceGraph) -> Iterator[str]:
    """One row per vertex: coordinates, per-coordinate class, point order, cage flag."""
    cls = Classifier(g.p)
    yield VERTEX_CSV_HEADER
    for vid in range(len(g)):
        x = g.point_of(vid)
        kinds = [cls.classify(c).kind for c in x]
        yield (
            f"{vid},{x[0]},{x[1]},{x[2]},{kinds[0]},{kinds[1]},{kinds[2]},"
            f"{point_order(x, cls)},{int(is_maximal(x, cls))}"
        )
