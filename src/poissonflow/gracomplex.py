"""The edge-ordered graph complex.

A graph is a finite unoriented multigraph without loops whose orientation
datum is the ordering of its edge list: transposing two edges flips the
sign of the graph.  Graphs admitting an automorphism that induces an odd
permutation of the edges are zero (any parallel edge pair is the simplest
case).  Linear combinations are held in canonical form, vertex insertion
gives a graded bracket, and the differential splits vertices.
``simple_graph(n, mask)`` enumerates the simple graphs on n labelled
vertices, one per bitmask over the pairs of K_n; the d^2 = 0 suites run on
its graphs.  ``Graph(n, edges)`` checks its input (integers, pairs, no
loops, labels in 1..n, n at most ``MAX_VERTICES``); ``Graph._raw`` builds,
unchecked, the graphs this module makes valid by construction: canonical
forms, vertex splits and insertion terms.

Sign conventions here, validated by property tests rather than cited:

* degree of a graph = its edge count;
* ``insert(g1, g2)`` appends g2's edges after g1's;
* ``bracket(a, b) = insert(a, b) - (-1)^(E1*E2) insert(b, a)``;
* ``differential = -bracket(stick, .)`` so that d(point) = -stick, and the
  new edge of a vertex split lands last in the edge order.

The differential builds only the terms of that definition that survive
cancellation, each once.  Written out, d(g) = (-1)^E insert(g, stick) -
insert(stick, g): each vertex v of g is split into two vertices joined by a
new last edge, v's edge ends shared between them in every way, and a leaf
is hung on each vertex of g by a new first edge, twice (once per end of the
stick).  Three exact facts remove the rest: a split equals its mirror image
(the two new vertices swapped, which moves no edge); the two splits of v
putting every edge end on one side cancel the two leaves on v; and for an
edge (v, w) between vertices of valence >= 3, the split of v and the split
of w that each move one end of that edge alone cancel.  On graphs of
minimum valence 3 what is left is the standard form of d, the splits into
two vertices of valence >= 3 (Willwacher, arXiv:1009.1654).

The insertion builds one term per symmetry orbit.  The canonical-labeling
search keeps, level by level, only the partial labelings whose revealed
adjacency reaches the best one so far, and so ends with every maximizing
labeling; any two differ by an automorphism, each tested by the parity of
the permutation it induces on the edge positions rather than by sorting
again; only the insertion builds the automorphisms.  Let a be a
nonzero graph (no odd automorphism): an automorphism pi of a takes vertex
v to pi(v) and the reattachments at v one to one onto those at pi(v),
with equal terms at sign +1, because pi permutes a's edges evenly;
likewise an automorphism of b takes a reattachment to another with an
equal term.  So insert(a, b) is the sum over the Aut(a)-orbits of v and
the Aut(b)-orbits of reattachments at v of |orbit(v)| * |orbit| * term.
A graph with an odd automorphism contributes 0: its raw terms cancel in
pairs.  The automorphisms found fix the isolated vertices; any
permutation of those moves no edge, so the isolated vertices of a are one
orbit, and reattachments differing only in which isolated vertices of b
they reach are one orbit too.  The differential stays raw: the terms of
d(g) fed back into d have few automorphisms, and a search per term would
cost more than it saves.
"""

from __future__ import annotations

import math
import re
from itertools import combinations, product

from .errors import MalformedGraphError, ParseError
from .ratpoly import (_coefficient, _is_int, _number_text, _text_int,
                      parse_poly, ratnorm)


#: most vertices a graph may have.  ``degrees`` allocates a slot per vertex
#: and the differential splits every vertex: d of a 9 999-vertex graph takes
#: about half a second.  ``differential`` and ``_insertions`` check the
#: vertex count of their terms before building any, so a d or bracket whose
#: terms would pass the bound raises an error naming the input's count.
MAX_VERTICES = 10_000


class Graph:
    """Edge-ordered graph; vertices are 1..n, edges unordered pairs."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        _check_count(n)
        norm = []
        for k, e in enumerate(edges, 1):
            try:
                i, j = e
            except (TypeError, ValueError):
                raise MalformedGraphError("edge %d is not a pair of vertices"
                                          % k) from None
            if not (_is_int(i) and _is_int(j)):
                raise MalformedGraphError(
                    "edge %d has an endpoint of type %s, not an integer"
                    % (k, type(j if _is_int(i) else i).__name__))
            if i == j:
                raise MalformedGraphError("loop edge (%s,%s)"
                                         % (_number_text(i), _number_text(j)))
            if not (1 <= i <= n and 1 <= j <= n):
                raise MalformedGraphError("edge (%s,%s) outside 1..%d"
                                         % (_number_text(i), _number_text(j), n))
            norm.append((i, j) if i < j else (j, i))
        self.n = n
        self.edges = tuple(norm)

    @classmethod
    def _raw(cls, n, edges):
        """A graph built unchecked, for callers whose vertex count is in
        1..MAX_VERTICES and whose edges are pairs i < j of integers in
        1..n by construction: the canonical form, the splits of the
        differential and the insertion terms."""
        g = object.__new__(cls)
        g.n = n
        g.edges = tuple(edges)
        return g

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


def _check_count(n):
    if not _is_int(n):
        raise MalformedGraphError("vertex count of type %s, not an integer"
                                  % type(n).__name__)
    if n < 1:
        raise MalformedGraphError("vertex count must be positive")
    if n > MAX_VERTICES:
        raise MalformedGraphError("vertex count %s exceeds %d"
                                  % (_number_text(n), MAX_VERTICES))


def simple_graph(n: int, mask: int) -> Graph:
    """The graph on n vertices whose edges are the pairs of K_n, in the
    order (1,2),(1,3),...,(1,n),(2,3),..., that ``mask`` selects: bit k
    selects pair k.  Masks 0..2^(n(n-1)/2)-1 give every simple graph on
    1..n, each once; any other mask raises ``MalformedGraphError``."""
    _check_count(n)
    if not _is_int(mask):
        raise MalformedGraphError("mask of type %s, not an integer"
                                  % type(mask).__name__)
    npairs = n * (n - 1) // 2
    if mask < 0 or mask.bit_length() > npairs:
        raise MalformedGraphError("mask %s outside 0..2^%d-1"
                                  % (_number_text(mask), npairs))
    pairs = combinations(range(1, n + 1), 2)
    return Graph._raw(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


def _is_odd(perm) -> bool:
    """Whether a permutation of 0..len(perm)-1, as a sequence of images,
    is odd: a cycle of length L is L - 1 transpositions."""
    seen = [False] * len(perm)
    odd = False
    for s in range(len(perm)):
        if seen[s]:
            continue
        seen[s] = True
        t = perm[s]
        while t != s:
            seen[t] = True
            t = perm[t]
            odd = not odd
    return odd


def _sort_parity(seq):
    """Sort a list; return (sorted tuple, sign of the sorting permutation).

    The sort is stable, so equal items keep their order and the sign is the
    parity of the permutation that stable sort applies."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    return tuple(seq[k] for k in order), -1 if _is_odd(order) else 1


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
    automorphism.  Any two of them differ by an automorphism: the one
    search that finds them, ``_canonical_form``, also returns the labelings,
    and ``insert`` sums over the orbits of those automorphisms.
    """
    canon, sign, _ = _canonical_form(g)
    return canon, sign


def _canonical_form(g: Graph):
    """The canonical-labeling search: ``(graph, sign, labelings)``.

    ``graph`` and ``sign`` are what ``canonicalize`` returns.  ``labelings``
    lists the maximizing labelings L_0, L_1, ... of the non-isolated
    vertices, each as the tuple of the vertices that take labels 1, 2, ...;
    it is empty when the graph is zero.

    Giving new labels one vertex at a time reveals the adjacency string
    level by level: placing label d+1 appends the d bits of its adjacency
    to labels 1..d.  An unlabeled vertex's bits form an integer key, first
    label most significant, extended as ``key = (key << 1) | adjacent(new
    label)``; keys of one level have the same length, so comparing them as
    integers compares the strings.  The search is breadth first, one level
    at a time, over the frontier of partial labelings whose revealed prefix
    is the best one.  Each carries the best key among its unlabeled
    vertices and the bitmask of the vertices reaching it, and all of them
    carry the same key.  A level extends each labeling by each vertex
    reaching its key and keeps a child only if the child's own key reaches
    the best one seen so far at that level: a child that beats it clears
    the children kept before, and a child's labeling tuple is built only
    when it is kept.  The children kept are those with the level's maximum
    key, in the order they were made.  Strings are compared level by level,
    so a labeling dropped at some level is beaten there by every survivor
    whatever follows: after n - 1 levels, each completed by the one vertex
    left, the frontier holds every maximizing labeling and nothing else.

    L_0 is signed by sorting its relabeled edges.  Any other maximizing
    labeling L_k gives the same sorted edge list, so the edges it relabels
    are those of L_0 permuted by sigma, where sigma takes the position of
    an edge e to that of its image under pi = L_0^-1 L_k; the sort of L_k
    is the sort of L_0 after sigma, and sign(L_k) = sign(L_0) sgn(sigma).
    The positions are looked up in a map of the input edges and the parity
    of sigma read off its cycles, in O(E) and without a sort: the graph is
    zero exactly when some sigma is odd.

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
        return None, 0, []
    verts = sorted({v for e in edges for v in e})
    index = {v: k for k, v in enumerate(verts)}
    m = len(index)
    if not m:
        return Graph._raw(g.n, ()), 1, [()]
    pairs = [(index[i], index[j]) for (i, j) in edges]
    adj = [0] * m
    for (i, j) in pairs:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    # A partial labeling: (labeled vertices in label order, unlabeled
    # vertices, the best key among them, the vertices reaching it).
    everyone = (1 << m) - 1
    frontier = [((), everyone, 0, everyone)]
    for _ in range(m - 1):
        grown = []
        best = -1
        for labeled, rest, key, cand in frontier:
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
                key2 <<= 1
                if hit:
                    key2 |= 1
                    cand2 = hit
                if key2 < best:
                    continue
                if key2 > best:
                    best = key2
                    grown = []
                grown.append((labeled + (v,), rest2, key2, cand2))
        frontier = grown
    # one vertex is left for the last label
    labelings = [labeled + (rest.bit_length() - 1,)
                 for labeled, rest, _, _ in frontier]

    first = labelings[0]
    newlabel = [0] * m
    for k, v in enumerate(first, 1):
        newlabel[v] = k
    relabeled = []
    for (i, j) in pairs:
        a, b = newlabel[i], newlabel[j]
        relabeled.append((a, b) if a < b else (b, a))
    canon_edges, sign = _sort_parity(relabeled)
    if len(labelings) > 1:
        position = {}
        for k, (i, j) in enumerate(pairs):
            position[i * m + j] = position[j * m + i] = k
        image = [0] * m
        for labeling in labelings[1:]:
            # L_k gives labeling[j] the label L_0 gives first[j], so
            # L_0^-1 L_k takes the one vertex to the other; the edge at
            # position k goes to the one at sigma[k]
            for u, w in zip(labeling, first):
                image[u] = w
            sigma = [position[image[i] * m + image[j]] for (i, j) in pairs]
            if _is_odd(sigma):
                return None, 0, []
    return (Graph._raw(g.n, canon_edges), sign,
            [tuple(map(verts.__getitem__, lab)) for lab in labelings])



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
        c = _coefficient(c)
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
        c = _coefficient(c)
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
    g1's edges come first (redirected), g2's are appended.  These are the
    terms of ``_insertions`` under trivial groups, each of weight 1.
    """
    for _, term in _insertions(g1, g2, None, None):
        yield term


def _insertions(g1: Graph, g2: Graph, autos1, autos2):
    """Insertion terms of g2 into g1, one per symmetry orbit: yields
    ``(weight, Graph)``, the terms of ``insert_terms`` grouped.

    ``autos1`` and ``autos2`` are groups of automorphisms of g1 and g2 that
    permute the edges evenly and fix the isolated vertices, as
    ``_symmetric_terms`` builds them; every permutation of a graph's
    isolated vertices, which moves no edge, is taken on top.  ``None`` is
    the trivial group, with no isolated vertex moved.

    One term is built per orbit of the vertex v and, at its first vertex,
    per orbit of the reattachments of v's edge ends, with weight the
    product of the two orbit sizes.  The isolated vertices of g1 form one
    orbit.  A reattachment that sends ends to r distinct isolated vertices
    of g2 is built only when they are the first r, in order of first use;
    its orbit has the size of its autos2-orbit times the I!/(I-r)! ways to
    place them among g2's I isolated vertices.  Every term of an orbit
    equals the one built, at sign +1: an automorphism of g1 taking v to
    v' carries the reattachments at v one to one onto those at v', and one
    of g2 carries a reattachment onto another, each moving the edges of
    the term by an even permutation.
    """
    n1, n2 = g1.n, g2.n
    if n1 + n2 - 1 > MAX_VERTICES:
        raise MalformedGraphError(
            "inserting a graph on %d vertices into one on %d gives graphs "
            "on %d vertices, past the bound of %d"
            % (n2, n1, n1 + n2 - 1, MAX_VERTICES))
    loose1, autos1 = _free_vertices(g1, autos1)
    loose2, autos2 = _free_vertices(g2, autos2)
    rank2 = {u: r for r, u in enumerate(loose2)}
    kept2 = [u for u in range(1, n2 + 1) if u not in rank2]
    tail = [(n1 - 1 + i, n1 - 1 + j) for (i, j) in g2.edges]
    # the first isolated vertex of g1 stands for all of them
    done = set(loose1[1:])
    for v in range(1, n1 + 1):
        if v in done:
            continue
        orbit = {p[v] for p in autos1}
        done |= orbit
        size = len(loose1) if loose1 and v == loose1[0] else len(orbit)
        # labels above v move down by one; v's own label stays, so the
        # relabeled other end of an edge at v is its label sum minus v
        moved = [(i - (i > v), j - (j > v)) for (i, j) in g1.edges]
        slots = [k for k, (i, j) in enumerate(g1.edges) if v in (i, j)]
        ends = [sum(moved[k]) - v for k in slots]
        seen = set()
        for targets in product(kept2 + loose2[:len(slots)], repeat=len(slots)):
            if targets in seen:
                continue
            used = _first_uses(targets, rank2) if rank2 else 0
            if used is None:
                continue
            images = {tuple([p[t] for t in targets]) for p in autos2}
            seen |= images
            edges = moved[:]
            for k, end, t in zip(slots, ends, targets):
                edges[k] = (end, n1 - 1 + t)
            yield (size * len(images) * math.perm(len(loose2), used),
                   Graph._raw(n1 + n2 - 1, edges + tail))


def _free_vertices(g: Graph, autos):
    """The isolated vertices ``_insertions`` permutes freely on top of
    ``autos``, and the group itself: none, and the identity, for None."""
    if autos is None:
        return [], [range(g.n + 1)]
    deg = g.degrees()
    return [v for v in range(1, g.n + 1) if not deg[v]], autos


def _first_uses(targets, rank):
    """The number of distinct vertices of ``rank`` that ``targets`` hits,
    or None unless the k-th new one it hits has rank k."""
    used = 0
    for t in targets:
        r = rank.get(t)
        if r == used:
            used += 1
        elif r is not None and r > used:
            return None
    return used


def _symmetric_terms(s):
    """(graph, coefficient, automorphisms) for each term of a GraphSum, or
    for a Graph at coefficient 1 as given, zero graphs left out: they have
    odd automorphisms, and their insertion terms cancel in pairs.  The
    automorphisms are L_0^-1 L_k over the labelings of ``_canonical_form``,
    identity first, each a list p with p[v] the image of v (p[0] = 0)."""
    out = []
    for g, c in (((s, 1),) if isinstance(s, Graph) else s.terms.items()):
        labelings = _canonical_form(g)[2]
        if labelings:
            autos = [list(range(g.n + 1)) for _ in labelings]
            for p, labeling in zip(autos, labelings):
                for u, w in zip(labeling, labelings[0]):
                    p[u] = w
            out.append((g, c, autos))
    return out


def _add_insertions(out, terms1, terms2, reverse):
    """Add c_a c_b insert(a, b) to ``out`` for each term of ``terms1`` and
    of ``terms2``, times -(-1)^(E_a*E_b) when ``reverse``."""
    for a, ca, autos_a in terms1:
        for b, cb, autos_b in terms2:
            c = ca * cb
            if reverse and not a.n_edges & b.n_edges & 1:
                c = -c
            for weight, term in _insertions(a, b, autos_a, autos_b):
                out.add_term(term, weight * c)


def insert(g1, g2) -> GraphSum:
    """Insertion sum; accepts Graphs or GraphSums, extended bilinearly.

    The raw terms are summed over symmetry orbits (``_insertions``): each
    orbit is built and canonicalized once, at its size as coefficient.
    """
    out = GraphSum.zero()
    _add_insertions(out, _symmetric_terms(g1), _symmetric_terms(g2), False)
    return out


def bracket(s1, s2) -> GraphSum:
    """Graded bracket [s1,s2] with degree = edge count.

    insert(s1, s2) minus (-1)^(E_a*E_b) c_a c_b insert(b, a) for each term
    c_a a of s1 and c_b b of s2, with E_a and E_b their edge counts.  The
    automorphisms of each term are found once and serve both insertions.
    """
    terms1, terms2 = _symmetric_terms(s1), _symmetric_terms(s2)
    out = GraphSum.zero()
    _add_insertions(out, terms1, terms2, False)
    _add_insertions(out, terms2, terms1, True)
    return out


def differential(s) -> GraphSum:
    """Vertex-splitting differential, normalized by d(point) = -stick.

    Defined as -[stick, .] = (-1)^E insert(., stick) - insert(stick, .);
    takes bi-grading (n, E) to (n+1, E+1).  Only the terms that survive
    cancellation are built, each once, in g's own labels: a split of the
    vertex v of g moves the edge ends in a set B to the new vertex n+1,
    keeping every edge in its place, and appends the edge (v, n+1).

    * B and its complement give the same graph with the same sign, since
      swapping v and n+1 fixes every edge position, so only the B that
      leave out v's first edge are built, with coefficient 2 (-1)^E c;
    * B empty hangs a leaf on v by the last edge; with its mirror it
      cancels the two leaves insert(stick, g) hangs on v by the first edge,
      since moving that edge costs (-1)^E.  At an isolated v the split is
      its own mirror, and -(-1)^E c times the leaf is left;
    * when v and its neighbour w both have valence >= 3, the split of v
      moving the end of one edge (v, w) alone, |B| = 1 or B every edge but
      the first, cancels the split of w that moves the other end alone:
      both subdivide the edge, and differ by swapping its two halves, one
      transposition of the edge order.

    On graphs of minimum valence 3 the terms left are the splits into two
    vertices of valence >= 3, one per unordered pair of parts.
    """
    out = GraphSum.zero()
    for g, c in as_graphsum(s).terms.items():
        n, edges, deg = g.n, list(g.edges), g.degrees()
        if n + 1 > MAX_VERTICES:
            raise MalformedGraphError(
                "d of a graph on %d vertices has terms on %d vertices, past "
                "the bound of %d" % (n, n + 1, MAX_VERTICES))
        split_c = -c if len(edges) % 2 else c
        for v in range(1, n + 1):
            slots = [k for k, e in enumerate(edges) if v in e]
            if not slots:
                out.add_term(Graph._raw(n + 1, edges + [(v, n + 1)]), -split_c)
                continue
            far = {k: sum(edges[k]) - v for k in slots}
            first, rest = slots[0], slots[1:]
            for size in range(1, len(rest) + 1):
                for moved in combinations(rest, size):
                    # the edge whose end is alone on its side, if one is
                    lone = (moved[0] if size == 1 else
                            first if size == len(rest) else None)
                    if lone is not None and deg[v] >= 3 and deg[far[lone]] >= 3:
                        continue
                    split = edges[:]
                    for k in moved:
                        split[k] = (far[k], n + 1)
                    out.add_term(Graph._raw(n + 1, split + [(v, n + 1)]), 2 * split_c)
    return out


def is_cocycle(s) -> bool:
    return differential(s).is_zero()


# -- text format -------------------------------------------------------


def render_graph(g: Graph, c) -> str:
    edges = "".join("(%d,%d)" % e for e in g.edges)
    return "graph{n=%d; edges=%s; c=%s}" % (g.n, edges, _number_text(c))


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
    n = _text_int(m.group(1))
    edges = [(_text_int(a), _text_int(b)) for a, b in _EDGE_RE.findall(m.group(2))]
    c = parse_poly(m.group(3), 0).terms.get((), 0)
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
