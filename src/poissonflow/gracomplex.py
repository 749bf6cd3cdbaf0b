"""The edge-ordered graph complex.

A graph is a finite unoriented multigraph without loops whose orientation
datum is the ordering of its edge list: transposing two edges flips the
sign of the graph.  Graphs admitting an automorphism that induces an odd
permutation of the edges are zero (any parallel edge pair is the simplest
case).  Linear combinations are held in canonical form, vertex insertion
gives a graded bracket, and the differential splits vertices.

Sign conventions here, validated by property tests rather than cited:

* degree of a graph = its edge count;
* ``insert(g1, g2)`` appends g2's edges after g1's;
* ``bracket(a, b) = insert(a, b) - (-1)^(E1*E2) insert(b, a)``;
* ``differential = -bracket(stick, .)`` so that d(point) = -stick, and the
  new edge of a vertex split lands last in the edge order.

The differential drops the raw terms of that definition that cancel in
pairs before canonicalizing them.  Written out, d(g) = (-1)^E
insert(g, stick) - insert(stick, g): each vertex v of g is split into two
vertices joined by a new last edge, v's edge ends shared between them in
every way, and a leaf is hung on each vertex of g by a new first edge,
twice (once per end of the stick).  Two kinds of pairs cancel exactly:

* leaf pairs: the two splits of v that put every edge end on one side
  hang a leaf on v by a last edge; moving that edge first costs (-1)^E,
  which the splits' sign undoes, so they equal the two leaves that
  insert(stick, g) hangs on v, and are subtracted;
* edge-isolating pairs: the split of v that moves the end of one edge
  (v, w) alone to a new vertex subdivides that edge, and so does the split
  of w that moves the other end alone; the isomorphism between the two
  swaps the halves of the subdivided edge, which sit at its place and
  last, so the two carry opposite signs.

Both rules are used only at vertices v of valence >= 3, and an
edge-isolating pair only when w too has valence >= 3, where each term
belongs to one pair: at a bivalent vertex the split isolating one edge
isolates the other as well, and at a univalent w the split isolating
(v, w) is a leaf split.  On graphs of minimum valence 3 what is left is the
standard form of d, the splits into two vertices of valence >= 3
(Willwacher, arXiv:1009.1654).
"""

from __future__ import annotations

import re
import sys
from itertools import product

from .errors import MalformedGraphError, ParseError
from .ratpoly import parse_rational, ratnorm


class Graph:
    """Edge-ordered graph; vertices are 1..n, edges unordered pairs."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        if n < 1:
            raise MalformedGraphError("vertex count must be positive")
        if n > sys.maxsize:
            raise MalformedGraphError("vertex count %d exceeds %d" % (n, sys.maxsize))
        norm = []
        for (i, j) in edges:
            if i == j:
                raise MalformedGraphError("loop edge (%d,%d)" % (i, j))
            if not (1 <= i <= n and 1 <= j <= n):
                raise MalformedGraphError("edge (%d,%d) outside 1..%d" % (i, j, n))
            norm.append((i, j) if i < j else (j, i))
        self.n = n
        self.edges = tuple(norm)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self):
        deg = [0] * (self.n + 1)
        for (i, j) in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "Graph(%d, %r)" % (self.n, list(self.edges))

    def __str__(self):
        return render_graph(self, 1)


def _sort_parity(seq):
    """Sort a list of distinct items; return (sorted tuple, permutation parity)."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    seen = [False] * len(order)
    sign = 1
    for s in range(len(order)):
        if seen[s]:
            continue
        length = 0
        t = s
        while not seen[t]:
            seen[t] = True
            t = order[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return tuple(seq[k] for k in order), sign


def canonicalize(g: Graph):
    """Lexicographically minimal isomorph of ``g`` with the relating sign.

    Returns ``(graph, sign)`` with ``sign`` in {+1,-1} such that the input
    presentation equals ``sign`` times the canonical one, or ``(None, 0)``
    when the graph is zero (some automorphism induces an odd edge
    permutation; parallel edges are the degenerate case).

    The canonical labeling maximizes the adjacency bit string read in colex
    position order (1,2),(1,3),(2,3),(1,4),..., which is the labeling whose
    sorted edge list is smallest.  All maximizing labelings are enumerated,
    and a sign clash between any two of them is exactly an odd-edge-parity
    automorphism.

    Giving new labels one vertex at a time reveals that string level by
    level: placing label d+1 appends the d bits of its adjacency to labels
    1..d.  An unlabeled vertex's bits form an integer key, first label most
    significant, extended as ``key = (key << 1) | adjacent(new label)``;
    keys of one level have the same length, so comparing them as integers
    compares the strings.  The search is breadth first, one level at a
    time, over the frontier of partial labelings whose revealed prefix is
    the best one.  Each carries the best key among its unlabeled vertices
    and the bitmask of the vertices reaching it.  A level takes the maximum
    key over the whole frontier first, then extends each labeling that
    reaches it by each vertex that does.  Strings are compared level by
    level, so a labeling dropped at some level is beaten there by every
    survivor whatever follows: the last frontier holds every maximizing
    labeling and nothing else.

    After placing v, the best key and its vertices come cheaply when v had
    a tie: the other tied vertices keep the best old key, and those adjacent
    to v win the new bit.  When v was the only best vertex, they are found
    again by narrowing the unlabeled vertices label by label.

    Isolated vertices are set aside first and take the last labels.  An
    isolated vertex is a best choice only when no unlabeled vertex has a
    labeled neighbour; if an edge is still unlabeled then, placing one of
    its endpoints instead wins at the next level, where the other endpoint
    reveals a 1.  Swapping isolated vertices moves no edge.  So the
    non-isolated vertices, relabeled in order, are canonicalized alone, and
    the result keeps all n vertices.
    """
    edges = g.edges
    if len(set(edges)) != len(edges):
        return None, 0
    index = {v: k for k, v in enumerate(sorted({v for e in edges for v in e}))}
    m = len(index)
    if not m:
        return Graph(g.n, ()), 1
    pairs = [(index[i], index[j]) for (i, j) in edges]
    adj = [0] * m
    for (i, j) in pairs:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    # A partial labeling: (labeled vertices in label order, unlabeled
    # vertices, the best key among them, the vertices reaching it).
    everyone = (1 << m) - 1
    frontier = [((), everyone, 0, everyone)]
    for _ in range(m):
        top = max(state[2] for state in frontier)
        grown = []
        for labeled, rest, key, cand in frontier:
            if key != top:
                continue
            tied = cand & (cand - 1)
            c = cand
            while c:
                low = c & -c
                c ^= low
                v = low.bit_length() - 1
                rest2 = rest ^ low
                if tied:
                    key2, cand2 = key, cand ^ low
                else:
                    key2, cand2 = 0, rest2
                    for u in labeled:
                        hit = cand2 & adj[u]
                        key2 <<= 1
                        if hit:
                            cand2 = hit
                            key2 |= 1
                hit = cand2 & adj[v]
                if hit:
                    grown.append((labeled + (v,), rest2, (key2 << 1) | 1, hit))
                else:
                    grown.append((labeled + (v,), rest2, key2 << 1, cand2))
        frontier = grown

    canon_edges = None
    sign = 0
    for labeling, _, _, _ in frontier:
        newlabel = [0] * m
        for k, v in enumerate(labeling, 1):
            newlabel[v] = k
        relabeled = []
        for (i, j) in pairs:
            a, b = newlabel[i], newlabel[j]
            relabeled.append((a, b) if a < b else (b, a))
        key, s = _sort_parity(relabeled)
        if canon_edges is None:
            canon_edges, sign = key, s
        elif s != sign:
            return None, 0
    return Graph(g.n, canon_edges), sign


class GraphSum:
    """Formal rational combination of canonical graphs.

    ``add_term`` is the accumulation primitive used while a sum is being
    built; treat sums as immutable afterwards.  All module operations
    return fresh values and are safe to call concurrently.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for graph, c in (terms or {}).items():
            self.add_term(graph, c)

    @classmethod
    def _raw(cls, terms):
        s = object.__new__(cls)
        s.terms = terms
        return s

    @classmethod
    def zero(cls) -> "GraphSum":
        return cls._raw({})

    @classmethod
    def single(cls, graph: Graph, c=1) -> "GraphSum":
        s = cls.zero()
        s.add_term(graph, c)
        return s

    def add_term(self, graph: Graph, c):
        """Accumulate ``c`` times a (not necessarily canonical) graph."""
        c = ratnorm(c)
        if not c:
            return
        canon, sign = canonicalize(graph)
        if canon is None:
            return
        cur = self.terms.get(canon, 0) + sign * c
        if cur:
            self.terms[canon] = ratnorm(cur)
        else:
            self.terms.pop(canon, None)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, GraphSum):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "GraphSum") -> "GraphSum":
        out = dict(self.terms)
        for graph, c in other.terms.items():
            s = out.get(graph, 0) + c
            if s:
                out[graph] = ratnorm(s)
            else:
                out.pop(graph, None)
        return GraphSum._raw(out)

    def __neg__(self) -> "GraphSum":
        return GraphSum._raw({gr: -c for gr, c in self.terms.items()})

    def __sub__(self, other: "GraphSum") -> "GraphSum":
        return self + (-other)

    def scale(self, c) -> "GraphSum":
        c = ratnorm(c)
        if not c:
            return GraphSum.zero()
        return GraphSum._raw({gr: ratnorm(k * c) for gr, k in self.terms.items()})

    def __str__(self):
        return render_graphsum(self)

    def __repr__(self):
        return "GraphSum(%s)" % render_graphsum(self).replace("\n", " ")


def as_graphsum(x) -> GraphSum:
    """A Graph as the one-term sum 1*graph; a GraphSum unchanged."""
    return GraphSum.single(x) if isinstance(x, Graph) else x


def point() -> Graph:
    return Graph(1, ())


def stick() -> Graph:
    return Graph(2, ((1, 2),))


def tetrahedron() -> Graph:
    return Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))


def insert_terms(g1: Graph, g2: Graph):
    """Raw insertion terms of g2 into the vertices of g1, before
    canonicalization: yields plain Graphs, one per (vertex, reattachment).

    Vertex v of g1 is replaced by the whole of g2; every edge end formerly
    at v may go to any vertex of g2.  Surviving g1 vertices keep their
    relative order as labels 1..n1-1, g2's vertices follow as n1..n1+n2-1.
    g1's edges come first (redirected), g2's are appended.
    """
    n1, n2 = g1.n, g2.n
    tail = [(n1 - 1 + i, n1 - 1 + j) for (i, j) in g2.edges]
    for v in range(1, n1 + 1):
        # labels above v move down by one; v's own label stays, so the
        # relabeled other end of an edge at v is its label sum minus v
        moved = [(i - (i > v), j - (j > v)) for (i, j) in g1.edges]
        slots = [k for k, (i, j) in enumerate(g1.edges) if v in (i, j)]
        ends = [sum(moved[k]) - v for k in slots]
        for targets in product(range(n1, n1 + n2), repeat=len(slots)):
            edges = moved[:]
            for k, end, t in zip(slots, ends, targets):
                edges[k] = (end, t)
            yield Graph(n1 + n2 - 1, edges + tail)


def insert(g1, g2) -> GraphSum:
    """Insertion sum; accepts Graphs or GraphSums, extended bilinearly."""
    out = GraphSum.zero()
    for a, ca in as_graphsum(g1).terms.items():
        for b, cb in as_graphsum(g2).terms.items():
            c = ca * cb
            for term in insert_terms(a, b):
                out.add_term(term, c)
    return out


def bracket(s1, s2) -> GraphSum:
    """Graded bracket [s1,s2] with degree = edge count.

    insert(s1, s2) minus (-1)^(E_a*E_b) c_a c_b insert(b, a) for each term
    c_a a of s1 and c_b b of s2, with E_a and E_b their edge counts.
    """
    s1, s2 = as_graphsum(s1), as_graphsum(s2)
    out = insert(s1, s2)
    for b, cb in s2.terms.items():
        for a, ca in s1.terms.items():
            c = ca * cb if a.n_edges & b.n_edges & 1 else -ca * cb
            for term in insert_terms(b, a):
                out.add_term(term, c)
    return out


def _split_cancels(h: Graph) -> bool:
    """Whether the raw term h of ``insert_terms(g, stick())`` belongs to a
    pair that cancels: a leaf split of a vertex of valence >= 3, or its
    split isolating an edge whose other end also has valence >= 3.

    The split vertex's two halves are h.n - 1 and h.n, joined by h's last
    edge; every other vertex keeps its valence in g.
    """
    deg = h.degrees()
    a, b = deg[h.n - 1] - 1, deg[h.n] - 1
    if a + b < 3 or min(a, b) > 1:
        return False
    if min(a, b) == 0:
        return True
    lone = h.n - 1 if a == 1 else h.n
    w = next(i + j - lone for (i, j) in h.edges[:-1] if lone in (i, j))
    return deg[w] >= 3


def differential(s) -> GraphSum:
    """Vertex-splitting differential, normalized by d(point) = -stick.

    Defined as -[stick, .] = (-1)^E insert(., stick) - insert(stick, .);
    takes bi-grading (n, E) to (n+1, E+1).  Of the raw terms
    ``insert_terms`` yields for that sum, two kinds of pairs that cancel
    exactly are dropped before any canonicalization, judged by valences:

    * leaf pairs, at a vertex v of valence >= 3: the two splits putting
      all of v's edge ends on one side, which hang a leaf on v by the last
      edge, and the two leaves insert(stick, g) hangs on v by the first
      edge; moving that edge costs (-1)^E, the splits' own sign;
    * edge-isolating pairs, for an edge (v, w) with v and w of valence
      >= 3: the split of v moving the end of (v, w) alone and the split of
      w moving the other end alone both subdivide the edge, and differ by
      swapping its two halves, one transposition of the edge order.

    On graphs of minimum valence 3 only the splits into two vertices of
    valence >= 3 remain; every other term is added as it is.
    """
    out = GraphSum.zero()
    edge = stick()
    for g, c in as_graphsum(s).terms.items():
        deg = g.degrees()
        split_c = -c if g.n_edges % 2 else c
        for h in insert_terms(g, edge):
            if not _split_cancels(h):
                out.add_term(h, split_c)
        for h in insert_terms(edge, g):
            # h's first edge hangs the leaf 1 on g's vertex h.edges[0][1] - 1
            if deg[h.edges[0][1] - 1] < 3:
                out.add_term(h, -c)
    return out


def is_cocycle(s) -> bool:
    return differential(s).is_zero()


# -- text format -------------------------------------------------------


def render_graph(g: Graph, c) -> str:
    edges = "".join("(%d,%d)" % e for e in g.edges)
    return "graph{n=%d; edges=%s; c=%s}" % (g.n, edges, c)


def render_graphsum(s: GraphSum) -> str:
    if s.is_zero():
        return "0"
    keys = sorted(s.terms, key=lambda g: (g.n, g.n_edges, g.edges))
    return "\n".join(render_graph(g, s.terms[g]) for g in keys)


_GRAPH_RE = re.compile(
    r"graph\{\s*n\s*=\s*(\d+)\s*;\s*edges\s*=\s*((?:\(\s*\d+\s*,\s*\d+\s*\))*)\s*;"
    r"\s*c\s*=\s*([+-]?\d+(?:\s*/\s*\d+)?)\s*\}")
_EDGE_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_graph(text: str):
    """One ``graph{...}`` record; returns (Graph, coefficient)."""
    m = _GRAPH_RE.fullmatch(text.strip())
    if m is None:
        raise ParseError("expected graph{n=..; edges=..; c=..} in %r" % text.strip(), 0)
    n = int(m.group(1))
    edges = [(int(a), int(b)) for a, b in _EDGE_RE.findall(m.group(2))]
    c = parse_rational(m.group(3))
    return Graph(n, edges), c


def parse_graphsum(text: str) -> GraphSum:
    """Newline-separated list of graph records; '0' or blank is the zero sum."""
    out = GraphSum.zero()
    stripped = text.strip()
    if not stripped or stripped == "0":
        return out
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        g, c = parse_graph(line)
        out.add_term(g, c)
    return out
