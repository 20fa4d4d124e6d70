import itertools
import json
import random

import pytest

from multimatch import GraphError, Multigraph

from conftest import random_multigraph


def test_build_rejects_degenerate_inputs():
    with pytest.raises(GraphError):
        Multigraph.build(["1"], [], ["1"])  # single node
    with pytest.raises(GraphError):
        Multigraph.build(["1", "2"], [("1", "1")])  # loop passed as edge
    with pytest.raises(GraphError):
        Multigraph.build(["1", "2", "3"], [("1", "2")])  # disconnected
    with pytest.raises(GraphError):
        Multigraph.build(["1", "2"], [("1", "9")])  # unknown endpoint
    with pytest.raises(GraphError):
        Multigraph.build(["1", "2"], [("1", "2")], ["9"])  # unknown loop


def test_neighborhood_square(square_loops):
    assert square_loops.neighborhood(["1"]) == frozenset({"1", "2", "4"})
    assert square_loops.neighborhood([]) == frozenset()


def test_neighborhood_diamond_hub(diamond_hub):
    assert diamond_hub.neighborhood(["2"]) == frozenset({"1", "2", "3", "4"})
    with pytest.raises(GraphError):
        diamond_hub.neighborhood(["nope"])


def test_degrees(square_loops, diamond_hub, k2):
    assert square_loops.degree("1") == 3
    assert k2.degree("1") == 1
    assert diamond_hub.degree("2") == 4
    assert [diamond_hub.degree(i) for i in diamond_hub.nodes] == [1, 4, 2, 2]


def test_degree_sum_is_ordered_edge_count():
    rng = random.Random(3)
    for _ in range(50):
        g = random_multigraph(rng)
        assert sum(g.degree(i) for i in g.nodes) == g.ordered_edge_count
        assert g.ordered_edge_count == 2 * len(g.edges) + len(g.self_loops)


def test_neighborhood_symmetry():
    rng = random.Random(4)
    for _ in range(30):
        g = random_multigraph(rng)
        for a in g.nodes:
            for b in g.nodes:
                assert (b in g.neighborhood([a])) == (a in g.neighborhood([b]))


def test_bipartite_path_and_loops(path_loop):
    p3 = Multigraph.build(["1", "2", "3"], [("1", "2"), ("2", "3")])
    ok, parts = p3.is_bipartite()
    assert ok and set(parts) == {frozenset({"1", "3"}), frozenset({"2"})}
    assert path_loop.is_bipartite() == (False, None)
    c5 = Multigraph.build(
        list("abcde"),
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")],
    )
    assert c5.is_bipartite() == (False, None)


def test_independent_sets_square(square_loops, triangle):
    check = square_loops.maximal_subgraph()
    got = list(check.independent_sets())
    assert got == [
        frozenset({"1"}),
        frozenset({"1", "3"}),
        frozenset({"2"}),
        frozenset({"2", "4"}),
        frozenset({"3"}),
        frozenset({"4"}),
    ]
    assert list(triangle.independent_sets()) == [
        frozenset({"1"}),
        frozenset({"2"}),
        frozenset({"3"}),
    ]
    # all classes self-looped: no independent set at all
    assert list(square_loops.independent_sets()) == []


def backtracking_independent_sets(g):
    """The enumeration the bitmask walk replaced, kept as its reference."""
    eligible, adj = sorted(g.v2), g.adjacency

    def extend(current, start):
        for k in range(start, len(eligible)):
            if not any(eligible[k] in adj[m] for m in current):
                current.append(eligible[k])
                yield frozenset(current)
                yield from extend(current, k + 1)
                current.pop()

    return list(extend([], 0))


def test_independent_masks_follow_the_backtracking_order():
    # the same sets in the same order, for a graph and for its loop-free
    # subgraph, and each neighborhood mask is the graph's own neighborhood
    rng = random.Random(11)
    for _ in range(300):
        g = random_multigraph(rng, 8)

        def members(mask):
            return frozenset(c for k, c in enumerate(g.nodes) if mask >> k & 1)

        for h in (g, g.maximal_subgraph()):
            assert list(h.independent_sets()) == backtracking_independent_sets(h)
        loop_free = [(members(m), members(e)) for m, e in g.independent_masks(loop_free=True)]
        assert [s for s, _ in loop_free] == backtracking_independent_sets(g.maximal_subgraph())
        assert all(e == g.neighborhood(s) for s, e in loop_free)
        assert [members(m) for m, _ in g.independent_masks()] == backtracking_independent_sets(g)


def test_maximal_subgraph(diamond_hub, path_loop, triangle):
    check = diamond_hub.maximal_subgraph()
    assert check.self_loops == frozenset()
    assert check.edges == diamond_hub.edges
    assert triangle.maximal_subgraph() is triangle
    assert path_loop.maximal_subgraph().self_loops == frozenset()


def test_minimal_blowup_examples(diamond_hub, path_loop, triangle):
    bm = diamond_hub.minimal_blowup()
    assert bm.copy_of == {"2": "2_"}
    assert bm.blown.self_loops == frozenset()
    assert bm.blown.neighborhood(["2_"]) == frozenset({"1", "2", "3", "4"})

    bm3 = path_loop.minimal_blowup()
    assert bm3.blown.neighborhood(["3_"]) == frozenset({"2", "3"})
    assert bm3.base("3_") == "3" and bm3.base("1") == "1"

    assert triangle.minimal_blowup().blown == triangle
    assert triangle.minimal_blowup().copy_of == {}


def test_blowup_copy_interchangeability():
    # adjacent self-looped classes: the copies must be adjacent too,
    # otherwise originals and copies would not be interchangeable
    g = Multigraph.build(["1", "2"], [("1", "2")], ["1", "2"])
    blown = g.minimal_blowup().blown
    assert "2_" in blown.adjacency["1_"]
    assert "1_" in blown.adjacency["1"]
    assert "1" not in blown.adjacency["1"]


def test_blowup_invariants():
    rng = random.Random(5)
    for _ in range(30):
        g = random_multigraph(rng)
        bm = g.minimal_blowup()
        assert bm.blown.self_loops == frozenset()
        assert bm.blown.maximal_subgraph() == bm.blown
        # restricted to original nodes, blown independence = loop-free independence
        original = frozenset(g.nodes)
        blown_inside = {s for s in bm.blown.independent_sets() if s <= original}
        assert blown_inside == set(g.maximal_subgraph().independent_sets())


def test_blowup_copy_naming_avoids_collisions():
    g = Multigraph.build(["3", "3_"], [("3", "3_")], ["3"])
    bm = g.minimal_blowup()
    assert bm.copy_of == {"3": "3__"}
    assert set(bm.blown.nodes) == {"3", "3_", "3__"}
    assert bm.base("3__") == "3" and bm.base("3_") == "3_"


def test_multipartite_decomposition(tripartite_loop, k2):
    parts = tripartite_loop.complete_multipartite_decomposition()
    assert parts == (
        frozenset({"1"}),
        frozenset({"2", "4"}),
        frozenset({"3", "5"}),
    )
    assert k2.complete_multipartite_decomposition() == (
        frozenset({"1"}),
        frozenset({"2"}),
    )
    p4 = Multigraph.build(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")])
    assert p4.complete_multipartite_decomposition() is None


def set_partitions(items):
    """Every partition of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first]] + partition
        for k in range(len(partition)):
            yield partition[:k] + [[first] + partition[k]] + partition[k + 1 :]


def is_multipartition(g, parts):
    """Parts are independent and every cross-part pair is adjacent, loops aside."""
    return all(
        (a in g.adjacency[b]) == (pa is not pb)
        for pa in parts for pb in parts for a in pa for b in pb if a != b
    )


def test_multipartite_decomposition_meets_its_definition():
    checked = 0
    for n in range(2, 6):
        nodes = [str(i) for i in range(1, n + 1)]
        pairs = list(itertools.combinations(nodes, 2))
        for mask in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            loops = nodes[mask % n :: 2]  # loops must not matter
            try:
                g = Multigraph.build(nodes, edges, loops)
            except GraphError:
                continue  # disconnected
            parts = g.complete_multipartite_decomposition()
            exists = any(is_multipartition(g, p) for p in set_partitions(nodes))
            assert (parts is not None) == exists
            if parts is not None:
                assert sorted(i for p in parts for i in p) == nodes
                assert is_multipartition(g, parts)
                assert list(parts) == sorted(parts, key=sorted)
            checked += 1
    assert checked == 1 + 4 + 38 + 728  # connected labelled graphs on 2..5 nodes


def test_json_round_trip_is_byte_stable(diamond_hub):
    text = diamond_hub.dumps()
    again = Multigraph.loads(text)
    assert again == diamond_hub
    assert again.dumps() == text
    data = json.loads(text)
    assert set(data) == {"nodes", "edges", "self_loops"}
