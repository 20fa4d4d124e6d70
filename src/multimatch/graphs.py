"""Compatibility multigraphs: simple undirected edges plus optional self-loops.

A multigraph here is a connected undirected graph on named classes where a
class may additionally be compatible with itself (a self-loop).  Self-looped
classes form the set V1, the rest V2.  Two derived graphs matter throughout
the package: the *maximal subgraph* (self-loops deleted) and the *minimal
blow-up* (each self-looped class duplicated, the loop becoming an edge to the
copy, which inherits all of the original's neighbors).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence


Node = str
Edge = tuple[Node, Node]


class GraphError(ValueError):
    """Invalid multigraph construction or unknown node reference."""


def _canon_edge(a: Node, b: Node) -> Edge:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Multigraph:
    """Connected multigraph with at least two nodes.

    ``edges`` holds unordered pairs of *distinct* nodes; self-compatibility
    is recorded only in ``self_loops``.  Instances are immutable and safe to
    share between threads.  Use :meth:`build` rather than the raw constructor
    so inputs get canonicalized and validated.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    self_loops: frozenset[Node] = field(default_factory=frozenset)

    @staticmethod
    def build(
        nodes: Iterable[Node],
        edges: Iterable[Sequence[Node]],
        self_loops: Iterable[Node] = (),
    ) -> "Multigraph":
        node_tuple = tuple(sorted(set(nodes)))
        loops = frozenset(self_loops)
        canon = set()
        for e in edges:
            try:
                a, b = e
            except (TypeError, ValueError) as exc:
                raise GraphError(f"edge {e!r} is not a pair of nodes") from exc
            if a == b:
                raise GraphError(
                    f"edge ({a},{b}) is a loop; declare it via self_loops"
                )
            canon.add(_canon_edge(a, b))
        g = Multigraph(node_tuple, tuple(sorted(canon)), loops)
        g._validate()
        return g

    def _validate(self) -> None:
        if len(self.nodes) < 2:
            raise GraphError("a multigraph needs at least two nodes")
        known = set(self.nodes)
        for a, b in self.edges:
            if a not in known or b not in known:
                raise GraphError(f"edge ({a},{b}) references unknown node")
        for i in self.self_loops:
            if i not in known:
                raise GraphError(f"self-loop at unknown node {i}")
        if not self._is_connected():
            raise GraphError("multigraph must be connected")

    def _is_connected(self) -> bool:
        # A self-loop links no two distinct nodes, so it never helps the walk.
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            for j in self.adjacency[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == len(self.nodes)

    # -- basic structure ---------------------------------------------------

    @cached_property
    def adjacency(self) -> dict[Node, frozenset[Node]]:
        """Neighborhood of each node, the node itself included iff looped."""
        nb: dict[Node, set[Node]] = {i: set() for i in self.nodes}
        for a, b in self.edges:
            nb[a].add(b)
            nb[b].add(a)
        for i in self.self_loops:
            nb[i].add(i)
        return {i: frozenset(v) for i, v in nb.items()}

    @cached_property
    def sorted_adjacency(self) -> dict[Node, tuple[Node, ...]]:
        """Each neighborhood as one sorted tuple, shared by every reader."""
        return {i: tuple(sorted(nb)) for i, nb in self.adjacency.items()}

    @property
    def v1(self) -> frozenset[Node]:
        return self.self_loops

    @cached_property
    def v2(self) -> frozenset[Node]:
        return frozenset(self.nodes) - self.self_loops

    def check_node(self, i: Node) -> None:
        if i not in self.adjacency:
            raise GraphError(f"unknown node {i!r}")

    def neighborhood(self, nodes: Iterable[Node]) -> frozenset[Node]:
        """All classes compatible with at least one member of ``nodes``."""
        out: set[Node] = set()
        for i in nodes:
            self.check_node(i)
            out |= self.adjacency[i]
        return frozenset(out)

    def degree(self, i: Node) -> int:
        self.check_node(i)
        return len(self.adjacency[i])

    @property
    def ordered_edge_count(self) -> int:
        """Edge count with non-loop edges counted twice and loops once.

        Equals the sum of all degrees, which is the normalization used by
        the degree-proportional arrival measure.
        """
        return 2 * len(self.edges) + len(self.self_loops)

    # -- predicates and transforms -----------------------------------------

    def is_bipartite(self) -> tuple[bool, Optional[tuple[frozenset[Node], frozenset[Node]]]]:
        """2-colorability test; any self-loop disqualifies immediately.

        Returns ``(True, (A, B))`` with the bipartition or ``(False, None)``.
        """
        if self.self_loops:
            return False, None
        color: dict[Node, int] = {self.nodes[0]: 0}
        stack = [self.nodes[0]]
        while stack:
            i = stack.pop()
            for j in self.adjacency[i]:
                if j not in color:
                    color[j] = 1 - color[i]
                    stack.append(j)
                elif color[j] == color[i]:
                    return False, None
        side_a = frozenset(i for i in self.nodes if color[i] == 0)
        return True, (side_a, frozenset(self.nodes) - side_a)

    def independent_masks(self, loop_free: bool = False) -> Iterator[tuple[int, int]]:
        """Yield every nonempty independent set as ``(mask, neighborhood mask)``.

        Bit k stands for ``nodes[k]``, and the neighborhood is this graph's,
        self-loops included.  With ``loop_free`` the sets are the maximal
        subgraph's.  Each set is extended depth first by members of higher
        index, so the sets come smallest-lexicographic first, each before its
        extensions.  The walk is exhaustive, intended for small graphs.
        """
        near = [sum(1 << k for k, j in enumerate(self.nodes) if j in self.adjacency[c])
                for c in self.nodes]
        free = sum(1 << k for k, c in enumerate(self.nodes) if loop_free or c not in self.self_loops)
        stack = [(0, 0, free)]  # a set, its neighborhood, the members it may still take
        while stack:
            mask, nbhd, free = stack.pop()
            if free:
                low = free & -free
                k = low.bit_length() - 1
                stack.append((mask, nbhd, free ^ low))
                yield mask | low, nbhd | near[k]
                stack.append((mask | low, nbhd | near[k], free & ~low & ~near[k]))

    def independent_sets(self) -> Iterator[frozenset[Node]]:
        """Every nonempty independent set, in :meth:`independent_masks`'s order."""
        for mask, _ in self.independent_masks():
            yield frozenset(c for k, c in enumerate(self.nodes) if mask >> k & 1)

    def maximal_subgraph(self) -> "Multigraph":
        """The same graph with every self-loop deleted."""
        if not self.self_loops:
            return self
        g = Multigraph(self.nodes, self.edges, frozenset())
        assert g._is_connected()
        return g

    def minimal_blowup(self) -> "BlowupMap":
        """Duplicate each self-looped node; the loop becomes an edge to the copy.

        Original and copy are interchangeable: two blown-graph nodes are
        adjacent exactly when their underlying classes are compatible (so a
        copy is adjacent to the copies of its original's looped neighbors as
        well).  The result has no self-loops.
        """
        existing = set(self.nodes)
        copy_of: dict[Node, Node] = {}
        for i in sorted(self.self_loops):
            name = i + "_"
            while name in existing:
                name += "_"
            copy_of[i] = name
            existing.add(name)
        base = {c: i for i, c in copy_of.items()}
        nodes = sorted(existing)
        new_edges = [
            (a, b)
            for k, a in enumerate(nodes)
            for b in nodes[k + 1 :]
            if base.get(b, b) in self.adjacency[base.get(a, a)]
        ]
        blown = Multigraph.build(existing, new_edges, ())
        return BlowupMap(original=self, blown=blown, copy_of=copy_of)

    def complete_multipartite_decomposition(
        self,
    ) -> Optional[tuple[frozenset[Node], ...]]:
        """Partition of the maximal subgraph into maximal independent sets.

        Returns the parts when the loop-free graph is complete multipartite
        (every cross-part pair adjacent, no intra-part edge), else ``None``.
        A graph is complete multipartite exactly when non-adjacency is an
        equivalence relation: each class's part is its set of non-neighbours,
        itself included, and every member of a part must have that same part.
        """
        everyone = frozenset(self.nodes)
        part = {i: (everyone - self.adjacency[i]) | {i} for i in self.nodes}
        if any(part[j] != p for p in part.values() for j in p):
            return None
        return tuple(sorted(set(part.values()), key=sorted))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "self_loops": sorted(self.self_loops),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json_dict(data: dict) -> "Multigraph":
        def names(x) -> bool:
            return isinstance(x, list) and all(isinstance(i, str) for i in x)

        if not isinstance(data, dict):
            raise GraphError("a graph document must be a JSON object")
        try:
            nodes, edges = data["nodes"], data["edges"]
        except KeyError as exc:
            raise GraphError(f"graph object missing key {exc}") from exc
        loops = data.get("self_loops", [])
        if not (names(nodes) and names(loops)
                and isinstance(edges, list) and all(map(names, edges))):
            raise GraphError("nodes, self_loops and edges must be arrays of node-name strings")
        return Multigraph.build(nodes, edges, loops)

    @staticmethod
    def loads(text: str) -> "Multigraph":
        return Multigraph.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class BlowupMap:
    """Original multigraph, its blown (loop-free) version, and the copy map."""

    original: Multigraph
    blown: Multigraph
    copy_of: dict[Node, Node]

    @cached_property
    def base_of(self) -> dict[Node, Node]:
        return {c: i for i, c in self.copy_of.items()}

    def base(self, node: Node) -> Node:
        """Original class a blown-graph node stands for."""
        return self.base_of.get(node, node)

    def copies(self, nodes: Iterable[Node]) -> frozenset[Node]:
        return frozenset(self.copy_of[i] for i in nodes if i in self.copy_of)
