"""Directed acyclic graphs, missingness graphs and d-separation queries.

Graphs are immutable once built: every query is read-only, so instances can
be shared freely across worker processes.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    ConfigError,
    CycleDetected,
    SchemaMismatch,
    checked_strings,
    json_object,
    json_text,
    reading,
)

Edge = Tuple[str, str]


class MechanismClass(Enum):
    MCAR = "MCAR"
    MAR = "MAR"
    MNAR = "MNAR"


class Dag:
    """Immutable directed acyclic graph over string-named vertices."""

    __slots__ = ("_vertices", "_index", "_edges", "_parents", "_children")

    def __init__(self, vertices: Sequence[str], edges: Iterable[Edge] = ()):
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise SchemaMismatch("duplicate vertex names in declaration")
        if any(not v for v in verts):
            raise SchemaMismatch("empty vertex name")
        self._vertices = verts
        self._index = {v: i for i, v in enumerate(verts)}
        parents = {v: set() for v in verts}
        children = {v: set() for v in verts}
        edge_set = set()
        for p, c in edges:
            if p not in self._index:
                raise SchemaMismatch(f"unknown vertex {p!r}")
            if c not in self._index:
                raise SchemaMismatch(f"unknown vertex {c!r}")
            if p == c:
                raise CycleDetected([p, c])
            if (p, c) in edge_set:
                raise SchemaMismatch(f"duplicate edge ({p!r}, {c!r})")
            edge_set.add((p, c))
            parents[c].add(p)
            children[p].add(c)
        self._edges = frozenset(edge_set)
        self._parents = {v: frozenset(s) for v, s in parents.items()}
        self._children = {v: frozenset(s) for v, s in children.items()}
        cyc = self._find_cycle()
        if cyc is not None:
            raise CycleDetected(cyc)

    def _find_cycle(self):
        """The closed walk [v, ..., v] closed by the first back edge of a
        depth-first search from each vertex in declared order, children in
        name order; None if acyclic. Iterative, so deep graphs do not hit
        the recursion limit."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {v: WHITE for v in self._vertices}
        for root in self._vertices:
            if color[root] != WHITE:
                continue
            color[root] = GRAY
            path = [root]
            pending = [iter(sorted(self._children[root]))]
            while pending:
                for c in pending[-1]:
                    if color[c] == GRAY:
                        return path[path.index(c):] + [c]
                    if color[c] == WHITE:
                        color[c] = GRAY
                        path.append(c)
                        pending.append(iter(sorted(self._children[c])))
                        break
                else:
                    pending.pop()
                    color[path.pop()] = BLACK
        return None

    @property
    def vertices(self) -> Tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> frozenset:
        return self._edges

    def parents(self, v: str) -> frozenset:
        self._check(v)
        return self._parents[v]

    def children(self, v: str) -> frozenset:
        self._check(v)
        return self._children[v]

    def _check(self, v: str) -> None:
        if v not in self._index:
            raise SchemaMismatch(f"unknown vertex {v!r}")

    def ancestors(self, of: Iterable[str]) -> set:
        """All vertices with a directed path into `of`, plus `of` itself."""
        seen = set()
        stack = list(of)
        for v in stack:
            self._check(v)
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self._parents[v])
        return seen

    def topological_order(self) -> list:
        indeg = {v: len(self._parents[v]) for v in self._vertices}
        ready = [v for v in self._vertices if indeg[v] == 0]
        out = []
        while ready:
            v = ready.pop(0)
            out.append(v)
            for c in sorted(self._children[v], key=self._index.__getitem__):
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return out

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self):
        return hash((self._vertices, self._edges))

    def __repr__(self):
        es = sorted(self._edges)
        return f"Dag(vertices={list(self._vertices)!r}, edges={es!r})"


class MGraph(NamedTuple):
    """Missingness graph: the substantive DAG plus one indicator vertex per
    partially observed variable. ``indicators`` maps each partially observed
    x to its indicator R_x; every other substantive vertex is fully
    observed."""

    graph: Dag
    indicators: Mapping[str, str]


def find_active_path(g: Dag, x: Iterable[str], y: Iterable[str],
                     z: Iterable[str]) -> Optional[list]:
    """A shortest active path from x to y given z, or None if z d-separates
    them.

    Linear-time breadth-first reachability over active trails (Koller &
    Friedman 2009, alg. 3.1; Shachter's Bayes-Ball), keeping one
    back-pointer per (vertex, arrived along an edge into it) state. Sources
    and neighbours are taken in declared vertex order, so the witness does
    not depend on set iteration order. The first state reached in y ends a
    shortest active trail, and a shortest active trail repeats no vertex:
    cutting it between two visits of a vertex leaves it active. So the
    witness is a simple path, of the least length any active path has.
    """
    xs, ys, zs = set(x), set(y), set(z)
    for v in xs | ys | zs:
        g._check(v)
    if xs & ys or xs & zs or ys & zs:
        raise ConfigError("d-separation sets x, y, z must be pairwise disjoint")
    anc_z = g.ancestors(zs)
    rank = g._index.__getitem__
    # a trail leaves each source against the edge direction, as if it had
    # arrived from a child
    back = {(v, False): None for v in sorted(xs, key=rank)}
    queue = deque(back)
    while queue:
        state = queue.popleft()
        v, came_down = state
        if v in ys:
            path = []
            while state is not None:
                path.append(state[0])
                state = back[state]
            return path[::-1]
        steps = [(c, True) for c in g.children(v)] if v not in zs else []
        # up to a parent: through a chain or fork, or a collider in An(z)
        if (v in anc_z) if came_down else (v not in zs):
            steps += [(p, False) for p in g.parents(v)]
        for step in sorted(steps, key=lambda s: rank(s[0])):
            if step not in back:
                back[step] = state
                queue.append(step)
    return None


def d_separated(g: Dag, x: Iterable[str], y: Iterable[str], z: Iterable[str]) -> bool:
    """True iff z blocks every path between x and y: `find_active_path`
    finds none."""
    return find_active_path(g, x, y, z) is None


def classify_mechanism(m: MGraph) -> MechanismClass:
    """MCAR / MAR / MNAR from the graph alone: MCAR if the indicators R are
    d-separated from every substantive variable, MAR if they are d-separated
    from the partially observed ones M given the fully observed ones O."""
    r = list(m.indicators.values())
    rs = set(r)
    substantive = [v for v in m.graph.vertices if v not in rs]
    if d_separated(m.graph, substantive, r, ()):
        return MechanismClass.MCAR
    o = [v for v in substantive if v not in m.indicators]
    if d_separated(m.graph, m.indicators, r, o):
        return MechanismClass.MAR
    return MechanismClass.MNAR


def implied_mgraph(base: Dag, partially_observed: Iterable[str],
                   indicator_parents: Mapping[str, Iterable[str]]) -> MGraph:
    """Extend a substantive DAG with an indicator R_x for each partially
    observed x. ``indicator_parents[x]`` lists the substantive causes of x's
    missingness (empty for MCAR), each wired into R_x."""
    part = list(partially_observed)
    indicators = {x: f"R_{x}" for x in part}
    edges = list(base.edges)
    for x in part:
        base._check(x)
        for p in indicator_parents.get(x, ()):
            base._check(p)
            edges.append((p, indicators[x]))
    # a variable listed twice declares its indicator twice, which Dag refuses
    return MGraph(Dag([*base.vertices, *(indicators[x] for x in part)], edges), indicators)


# --- serialization ---

_ROLE_COLORS = {
    "treatment": "blue",
    "outcome": "red",
    "event": "orange",
    "biomarker": "lightblue",
    "context": "gray",
}


def _dot_id(s: str) -> str:
    """``s`` as a quoted DOT ID: a backslash or double quote is escaped with
    a backslash, so no name can close the quotes early."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: Dag, roles: Optional[Mapping[str, str]] = None) -> str:
    """Deterministic DOT text: vertices in declared order, edges sorted."""
    order = {v: i for i, v in enumerate(g.vertices)}
    lines = ["digraph G {"]
    for v in g.vertices:
        body = ""
        if roles and v in roles:
            color = _ROLE_COLORS.get(roles[v], roles[v])
            body = f" [style=filled fillcolor={_dot_id(color)}]"
        lines.append(f"  {_dot_id(v)}{body};")
    for p, c in sorted(g.edges, key=lambda e: (order[e[0]], order[e[1]])):
        lines.append(f"  {_dot_id(p)} -> {_dot_id(c)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: Dag) -> str:
    doc = {
        "vertices": list(g.vertices),
        "edges": sorted([list(e) for e in g.edges]),
    }
    return json_text(doc)


def graph_from_json(text: str) -> Dag:
    """The graph of a ``graph_to_json`` document; a document that is not a
    graph raises ConfigError."""
    doc = json_object(text, "graph file", ("vertices", "edges"))
    with reading("graph file"):
        return Dag(checked_strings(doc["vertices"], "graph field 'vertices'"),
                   [tuple(checked_strings(e, "graph edge")) for e in doc.get("edges", [])])
