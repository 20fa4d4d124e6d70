import itertools
import random
from fractions import Fraction

import pytest

from multimatch import (
    Fcfm,
    Lcfm,
    Multigraph,
    Priority,
    ProbMeasure,
    RandomPolicy,
    V2Favorable,
    match_the_longest,
    match_the_shortest,
)


@pytest.fixture(scope="session")
def square_loops():
    """Four classes in a cycle, every class self-compatible (finite model)."""
    return Multigraph.build(
        ["1", "2", "3", "4"],
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")],
        ["1", "2", "3", "4"],
    )


@pytest.fixture(scope="session")
def diamond_hub():
    """Diamond with a self-loop at the hub class 2."""
    return Multigraph.build(
        ["1", "2", "3", "4"],
        [("1", "2"), ("2", "3"), ("2", "4"), ("3", "4")],
        ["2"],
    )


@pytest.fixture(scope="session")
def path_loop():
    """Path 1-2-3 with a self-loop at 3."""
    return Multigraph.build(["1", "2", "3"], [("1", "2"), ("2", "3")], ["3"])


@pytest.fixture(scope="session")
def tripartite_loop():
    """Complete 3-partite graph, parts {1},{2,4},{3,5}, self-loop at 5."""
    return Multigraph.build(
        ["1", "2", "3", "4", "5"],
        [
            ("1", "2"),
            ("1", "3"),
            ("1", "4"),
            ("1", "5"),
            ("2", "3"),
            ("2", "5"),
            ("3", "4"),
            ("4", "5"),
        ],
        ["5"],
    )


@pytest.fixture(scope="session")
def triangle():
    return Multigraph.build(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")])


@pytest.fixture(scope="session")
def k2():
    return Multigraph.build(["1", "2"], [("1", "2")])


@pytest.fixture(scope="session")
def mu_square_uniform(square_loops):
    return ProbMeasure.uniform(square_loops)


@pytest.fixture(scope="session")
def mu_diamond():
    return ProbMeasure.from_dict({"1": "0.15", "2": "0.35", "3": "0.3", "4": "0.2"})


@pytest.fixture(scope="session")
def mu_path():
    return ProbMeasure.from_dict({"1": "0.2", "2": "0.3", "3": "0.5"})


@pytest.fixture(scope="session")
def mu_tripartite():
    return ProbMeasure.from_dict(
        {"1": "0.24", "2": "0.2", "3": "0.18", "4": "0.2", "5": "0.18"}
    )


def random_measure(rng: random.Random, nodes) -> ProbMeasure:
    """Exact rational measure with full support (for tie-free region checks)."""
    raw = [rng.randrange(1, 30) for _ in nodes]
    total = sum(raw)
    return ProbMeasure.from_dict({c: Fraction(r, total) for c, r in zip(nodes, raw)})


def random_multigraph(rng: random.Random, max_nodes: int = 5) -> Multigraph:
    """Connected multigraph sampled by rejection."""
    from multimatch import GraphError

    while True:
        n = rng.randrange(2, max_nodes + 1)
        nodes = [str(i) for i in range(1, n + 1)]
        pairs = list(itertools.combinations(nodes, 2))
        edges = [p for p in pairs if rng.random() < 0.5]
        loops = [i for i in nodes if rng.random() < 0.4]
        try:
            return Multigraph.build(nodes, edges, loops)
        except GraphError:
            continue


def random_admissible_word(rng: random.Random, g: Multigraph, length: int):
    """Admissible word of exactly the requested length, or None if stuck."""
    from multimatch.chain import is_admissible_word

    for _ in range(200):
        w = ()
        for _ in range(length):
            options = [c for c in g.nodes if is_admissible_word(g, w + (c,))]
            if not options:
                break
            w = w + (rng.choice(options),)
        if len(w) == length:
            return w
    return None


def stored_neighbours(g: Multigraph, counts, v) -> frozenset:
    """The classes adjacent to ``v`` with at least one stored item."""
    return frozenset(j for j in g.adjacency[v] if counts.get(j, 0) > 0)


def policy_kinds(g):
    """One policy of every kind; explicit permutation laws on two classes."""
    perms = {}
    for v in [v for v in sorted(g.nodes) if len(g.adjacency[v]) > 1][:2]:
        nb = sorted(g.adjacency[v])
        perms[v] = (
            (tuple(nb), Fraction(1, 2)),
            (tuple(reversed(nb)), Fraction(1, 3)),
            (tuple(nb[1:] + nb[:1]), Fraction(1, 6)),
        )
    tied = Priority.from_lists(
        {v: [sorted(g.adjacency[v])[k : k + 2] for k in range(0, len(g.adjacency[v]), 2)]
         for v in g.nodes}
    )
    return {
        "fcfm": Fcfm(),
        "lcfm": Lcfm(),
        "ml": match_the_longest(),
        "ms": match_the_shortest(),
        "random": RandomPolicy(),
        "random_perms": RandomPolicy(perms),
        "priority": tied,
        "v2fav": V2Favorable(RandomPolicy()),
    }
