import random
from fractions import Fraction

import pytest

from multimatch import (
    Fcfm,
    Lcfm,
    MaxWeight,
    Multigraph,
    PolicyError,
    Priority,
    RandomPolicy,
    V2Favorable,
    decide,
    decision_distribution,
    extend_policy,
    match_the_longest,
    match_the_shortest,
    policy_dumps,
    policy_loads,
    reduce_policy,
    validate_policy,
)
from multimatch.chain import enumerate_states
from multimatch.policies import word_counts
from multimatch.graphs import GraphError

from conftest import random_admissible_word, stored_neighbours


def test_fcfm_lcfm_positions(square_loops):
    rng = random.Random(0)
    w = ("2", "4")
    x = decide(square_loops, Fcfm(), w, "1", rng)
    assert (x, w[x]) == (0, "2")
    x = decide(square_loops, Lcfm(), w, "1", rng)
    assert (x, w[x]) == (1, "4")
    assert decide(square_loops, Fcfm(), (), "1", rng) is None


def test_match_the_longest_picks_longer_queue(square_loops):
    rng = random.Random(0)
    w = ("2", "2", "4")
    x = decide(square_loops, match_the_longest(), w, "1", rng)
    assert w[x] == "2" and x == 0


def test_longest_and_shortest_extremes(path_loop):
    rng = random.Random(1)
    ml = match_the_longest()
    ms = match_the_shortest()
    for length in range(1, 6):
        for _ in range(20):
            w = random_admissible_word(rng, path_loop, length)
            if w is None:
                continue
            counts = word_counts(w)
            for v in path_loop.nodes:
                cands = stored_neighbours(path_loop, counts, v)
                if not cands:
                    continue
                top = w[decide(path_loop, ml, w, v, rng)]
                bot = w[decide(path_loop, ms, w, v, rng)]
                assert counts[top] == max(counts[c] for c in cands)
                assert counts[bot] == min(counts[c] for c in cands)


def test_max_weight_zero_beta_is_priority(path_loop):
    # strictly ordered rewards with beta=0 act as a fixed priority rule
    rewards = {
        ("1", "2"): 5,
        ("2", "1"): 7,
        ("2", "3"): 2,
        ("3", "2"): 9,
        ("3", "3"): 4,
    }
    mw = MaxWeight(beta=0, rewards=rewards)
    prio = Priority.from_lists({"1": ["2"], "2": ["1", "3"], "3": ["2", "3"]})
    for w in enumerate_states(path_loop, 6):
        for v in path_loop.nodes:
            assert decision_distribution(path_loop, mw, w, v) == decision_distribution(
                path_loop, prio, w, v
            )


def test_v2_favorable_never_picks_looped_when_avoidable(path_loop):
    rng = random.Random(2)
    pol = V2Favorable(RandomPolicy())
    for length in range(1, 7):
        for _ in range(20):
            w = random_admissible_word(rng, path_loop, length)
            if w is None:
                continue
            counts = word_counts(w)
            for v in path_loop.nodes:
                cands = stored_neighbours(path_loop, counts, v)
                if not cands:
                    continue
                chosen = w[decide(path_loop, pol, w, v, rng)]
                if cands & path_loop.v2:
                    assert chosen in path_loop.v2


def test_deterministic_policies_repeat(diamond_hub):
    prio = Priority.from_lists(
        {"1": ["2"], "2": ["1", "2", "3", "4"], "3": ["2", "4"], "4": ["3", "2"]}
    )
    rng = random.Random(3)
    for w in enumerate_states(diamond_hub, 4):
        for v in diamond_hub.nodes:
            for pol in (Fcfm(), Lcfm(), prio):
                first = decide(diamond_hub, pol, w, v, rng)
                assert all(
                    decide(diamond_hub, pol, w, v, rng) == first for _ in range(3)
                )


def test_decide_only_returns_adjacent(diamond_hub):
    rng = random.Random(4)
    for pol in (Fcfm(), Lcfm(), RandomPolicy(), match_the_longest()):
        for w in enumerate_states(diamond_hub, 4):
            for v in diamond_hub.nodes:
                x = decide(diamond_hub, pol, w, v, rng)
                if x is not None:
                    assert w[x] in diamond_hub.adjacency[v]
                    # the oldest stored item of its class, the newest under LCFM
                    same = [k for k, c in enumerate(w) if c == w[x]]
                    assert x == (same[-1] if isinstance(pol, Lcfm) else same[0])


def test_random_uniform_distribution(diamond_hub):
    # with the hub stored twice nothing changes; with classes 3 and 4 stored a
    # hub arrival is torn uniformly
    w = ("3", "4")
    law = decision_distribution(diamond_hub, RandomPolicy(), w, "2")
    assert {w[x]: p for x, p in law.items()} == {
        "3": Fraction(1, 2),
        "4": Fraction(1, 2),
    }


def test_explicit_permutation_distribution(path_loop):
    pol = RandomPolicy(
        perms={
            "2": (
                (("1", "3"), Fraction(7, 10)),
                (("3", "1"), Fraction(3, 10)),
            )
        }
    )
    validate_policy(pol, path_loop)
    w = ("1", "3")
    law = decision_distribution(path_loop, pol, w, "2")
    assert {w[x]: p for x, p in law.items()} == {
        "1": Fraction(7, 10),
        "3": Fraction(3, 10),
    }


def test_priority_extension_example(path_loop):
    prio = Priority.from_lists({"1": ["2"], "2": ["1", "3"], "3": ["2", "3"]})
    bmap = path_loop.minimal_blowup()
    ext = extend_policy(prio, bmap)
    assert ext.order["2"] == (("1",), ("3", "3_"))
    assert ext.order["3"] == (("2",), ("3_",))  # self entry becomes the copy
    assert ext.order["3_"] == (("2",), ("3",))
    validate_policy(ext, bmap.blown)


def test_extension_matches_on_shared_states(diamond_hub):
    bmap = diamond_hub.minimal_blowup()
    prio = Priority.from_lists(
        {"1": ["2"], "2": ["1", "2", "3", "4"], "3": ["2", "4"], "4": ["3", "2"]}
    )
    battery = [Fcfm(), Lcfm(), RandomPolicy(), prio, match_the_longest(),
               match_the_shortest(), V2Favorable(prio)]
    for pol in battery:
        ext = extend_policy(pol, bmap)
        for w in enumerate_states(diamond_hub, 4):
            counts = word_counts(w)
            for v in diamond_hub.nodes:
                if stored_neighbours(diamond_hub, counts, v) != stored_neighbours(
                    bmap.blown, counts, v
                ):
                    continue  # the self-match case, absent on the blown graph
                assert decision_distribution(
                    diamond_hub, pol, w, v
                ) == decision_distribution(bmap.blown, ext, w, v)


def test_reduce_policy(path_loop, triangle):
    prio = Priority.from_lists({"1": ["2"], "2": ["1", "3"], "3": ["2", "3"]})
    red = reduce_policy(prio, path_loop)
    assert red.order["3"] == (("2",),)  # self entry dropped
    validate_policy(red, path_loop.maximal_subgraph())
    assert reduce_policy(Fcfm(), path_loop) == Fcfm()
    tri_prio = Priority.from_lists({"1": ["2", "3"], "2": ["1", "3"], "3": ["1", "2"]})
    assert reduce_policy(tri_prio, triangle) == tri_prio


def test_reduction_matches_on_shared_states(diamond_hub, mu_diamond):
    check = diamond_hub.maximal_subgraph()
    prio = Priority.from_lists(
        {"1": ["2"], "2": ["1", "2", "3", "4"], "3": ["2", "4"], "4": ["3", "2"]}
    )
    for pol in [Fcfm(), prio, match_the_longest(), RandomPolicy()]:
        red = reduce_policy(pol, diamond_hub)
        for w in enumerate_states(diamond_hub, 4):
            counts = word_counts(w)
            for v in diamond_hub.nodes:
                if stored_neighbours(diamond_hub, counts, v) != stored_neighbours(
                    check, counts, v
                ):
                    continue  # self-match available only on the multigraph
                assert decision_distribution(
                    diamond_hub, pol, w, v
                ) == decision_distribution(check, red, w, v)


def test_validate_policy_errors(path_loop):
    with pytest.raises(PolicyError):
        validate_policy(Priority.from_lists({"2": ["1"]}), path_loop)  # not a permutation
    with pytest.raises(PolicyError):
        validate_policy(MaxWeight(beta=1, rewards={("1", "3"): 1}), path_loop)
    with pytest.raises(PolicyError):
        validate_policy(V2Favorable(Fcfm()), path_loop)  # inner must be class-admissible
    with pytest.raises(GraphError):  # a favored class must be a class of the graph
        validate_policy(V2Favorable(RandomPolicy(), frozenset({"1", "9"})), path_loop)
    with pytest.raises(PolicyError):
        match_the_longest(beta=-1)


def test_policy_json_round_trip(path_loop):
    prio = Priority.from_lists({"1": ["2"], "2": ["1", "3"], "3": ["2", "3"]})
    battery = [
        Fcfm(),
        Lcfm(),
        RandomPolicy(),
        prio,
        MaxWeight(beta=Fraction(1), rewards={("2", "1"): Fraction(1, 2)}),
        V2Favorable(prio, favored=frozenset({"1", "2"})),
    ]
    for pol in battery:
        assert policy_loads(policy_dumps(pol)) == pol
