import gc
import hashlib
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimatch import (
    ChainError,
    Fcfm,
    Lcfm,
    Multigraph,
    Priority,
    ProbMeasure,
    RandomPolicy,
    V2Favorable,
    class_step,
    enumerate_states,
    is_admissible_word,
    kernel_row,
    match_the_longest,
    match_the_shortest,
    predecessors,
    simulate,
    step,
)
from multimatch.chain import BufferEngine, check_admissible, draw_arrivals, word_counts
from multimatch.detailed import fcfm_match_partners
from multimatch.policies import decision_distribution, class_choice_distribution

from conftest import random_measure, random_multigraph


def test_admissibility(path_loop, square_loops):
    assert is_admissible_word(path_loop, ())
    assert is_admissible_word(path_loop, ("1", "1", "3"))
    assert not is_admissible_word(path_loop, ("1", "2"))  # adjacent pair
    assert not is_admissible_word(path_loop, ("3", "3"))  # looped class twice
    assert is_admissible_word(square_loops, ("1", "3"))
    assert not is_admissible_word(square_loops, ("1", "1"))
    with pytest.raises(ChainError):
        check_admissible(path_loop, ("1", "2"))


def test_step_examples(path_loop):
    assert step(path_loop, Fcfm(), ("1", "1"), "2") == ("1",)
    assert step(path_loop, Fcfm(), ("3",), "3") == ()  # within-class match
    assert step(path_loop, Fcfm(), (), "1") == ("1",)


def test_class_step_examples(path_loop):
    pol = RandomPolicy()
    assert class_step(path_loop, pol, {"1": 0, "2": 1, "3": 0}, "3") == {
        "1": 0,
        "2": 0,
        "3": 0,
    }
    assert class_step(path_loop, pol, {"1": 0, "2": 0, "3": 1}, "3") == {
        "1": 0,
        "2": 0,
        "3": 0,
    }
    assert class_step(path_loop, pol, {"1": 1, "2": 0, "3": 0}, "1") == {
        "1": 2,
        "2": 0,
        "3": 0,
    }
    with pytest.raises(ChainError):
        class_step(path_loop, Fcfm(), {"1": 0, "2": 0, "3": 0}, "1")


def test_enumerate_states_square_is_full_space(square_loops, k2):
    words = enumerate_states(square_loops, 2)
    assert set(words) == {
        (),
        ("1",),
        ("2",),
        ("3",),
        ("4",),
        ("1", "3"),
        ("3", "1"),
        ("2", "4"),
        ("4", "2"),
    }
    # longer words do not exist for this finite model
    assert enumerate_states(square_loops, 7) == words
    assert set(enumerate_states(k2, 3)) == {
        (),
        ("1",),
        ("1",) * 2,
        ("1",) * 3,
        ("2",),
        ("2",) * 2,
        ("2",) * 3,
    }
    assert enumerate_states(k2, 0) == [()]


def test_kernel_row_examples(square_loops, path_loop, mu_square_uniform, mu_path):
    row = kernel_row(square_loops, mu_square_uniform, Fcfm(), ())
    assert row == {(c,): Fraction(1, 4) for c in "1234"}

    row = kernel_row(square_loops, mu_square_uniform, Fcfm(), ("1",))
    assert row == {(): Fraction(3, 4), ("1", "3"): Fraction(1, 4)}

    row = kernel_row(path_loop, mu_path, Fcfm(), ("2",))
    assert row == {(): mu_path["1"] + mu_path["3"], ("2", "2"): mu_path["2"]}


def test_kernel_rows_sum_to_one_and_shift_length_by_one():
    rng = random.Random(7)
    for _ in range(20):
        g = random_multigraph(rng)
        mu = random_measure(rng, g.nodes)
        for pol in (Fcfm(), RandomPolicy(), match_the_longest()):
            for w in enumerate_states(g, 3):
                row = kernel_row(g, mu, pol, w)
                assert sum(row.values()) == 1
                assert all(abs(len(t) - len(w)) == 1 for t in row)
                assert all(is_admissible_word(g, t) for t in row)


def test_kernel_row_with_explicit_permutations(path_loop, mu_path):
    from multimatch import RandomPolicy as RP

    pol = RP(perms={"2": ((("1", "3"), Fraction(7, 10)), (("3", "1"), Fraction(3, 10)))})
    row = kernel_row(path_loop, mu_path, pol, ("1", "3"))
    # arrival 1 appends (no partner), arrival 3 matches the stored 3,
    # arrival 2 splits 7:3 between the stored 1 and the stored 3
    assert row == {
        ("1", "3", "1"): Fraction(1, 5),
        ("1",): Fraction(1, 2) + Fraction(3, 10) * Fraction(3, 10),
        ("3",): Fraction(3, 10) * Fraction(7, 10),
    }


def test_predecessors_k2(k2):
    mu = ProbMeasure.from_dict({"1": "0.3", "2": "0.7"})
    assert predecessors(k2, mu, Fcfm(), ()) == {
        ("1",): Fraction(7, 10),
        ("2",): Fraction(3, 10),
    }
    assert predecessors(k2, mu, Fcfm(), ("1",)) == {
        (): Fraction(3, 10),
        ("1", "1"): Fraction(7, 10),
    }
    for w, preds in [((), predecessors(k2, mu, Fcfm(), ()))]:
        assert all(abs(len(u) - len(w)) == 1 for u in preds)


def test_predecessors_complete_against_full_scan(square_loops, mu_square_uniform):
    # on a finite model, compare against brute force over every state's row
    states = enumerate_states(square_loops, 4)
    rows = {u: kernel_row(square_loops, mu_square_uniform, Fcfm(), u) for u in states}
    for w in states:
        brute = {u: row[w] for u, row in rows.items() if row.get(w, 0) > 0}
        assert predecessors(square_loops, mu_square_uniform, Fcfm(), w) == brute


def test_step_closure_fuzz():
    rng = random.Random(8)
    for _ in range(10):
        g = random_multigraph(rng)
        mu = random_measure(rng, g.nodes)
        nodes = sorted(g.nodes)
        cum = []
        acc = 0.0
        for c in nodes:
            acc += float(mu[c])
            cum.append(acc)
        for pol in (Fcfm(), RandomPolicy(), match_the_longest()):
            w = ()
            for _ in range(300):
                u = rng.random()
                v = next(c for c, q in zip(nodes, cum) if u <= q)
                w = step(g, pol, w, v, rng)
                assert is_admissible_word(g, w)


def test_word_and_class_dynamics_commute(path_loop, mu_path):
    # matching the oldest item of the chosen class makes the count process
    # the image of the word process, decision law included
    for pol in (
        RandomPolicy(),
        match_the_longest(),
        match_the_shortest(),
    ):
        for w in enumerate_states(path_loop, 5):
            for v in path_loop.nodes:
                word_law = {}
                for d, p in decision_distribution(path_loop, pol, w, v).items():
                    if d.is_match:
                        c = word_counts(w)
                        c[d.matched_class] -= 1
                    else:
                        c = word_counts(w + (v,))
                    key = tuple(sorted((k, x) for k, x in c.items() if x))
                    word_law[key] = word_law.get(key, Fraction(0)) + p
                class_law = {}
                counts = {i: word_counts(w).get(i, 0) for i in path_loop.nodes}
                choice = class_choice_distribution(path_loop, pol, counts, v)
                if not choice:
                    nc = dict(counts)
                    nc[v] += 1
                    class_law[tuple(sorted((k, x) for k, x in nc.items() if x))] = Fraction(1)
                else:
                    for j, p in choice.items():
                        nc = dict(counts)
                        nc[j] -= 1
                        key = tuple(sorted((k, x) for k, x in nc.items() if x))
                        class_law[key] = class_law.get(key, Fraction(0)) + p
                assert word_law == class_law


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


def assert_engine_follows_step(g, pol, arrivals, name):
    """Same words and the same RNG stream as the word-level step."""
    engine = BufferEngine(g, pol)
    w = ()
    rng_a = random.Random(10)
    rng_b = random.Random(10)
    for v in arrivals:
        k = engine.offer(v, rng_a)
        nw = step(g, pol, w, v, rng_b)
        assert engine.word() == nw, name
        assert engine.length == len(nw)
        assert rng_a.getstate() == rng_b.getstate(), name
        # the returned arrival index names an item of the matched class
        if len(nw) < len(w):
            assert k is not None and arrivals[k] in g.adjacency[v]
            assert word_counts(w)[arrivals[k]] - word_counts(nw).get(arrivals[k], 0) == 1
        else:
            assert k is None
        w = nw


def test_buffer_engine_matches_step(diamond_hub, mu_diamond):
    arrivals = draw_arrivals(mu_diamond, 2000, random.Random(9))
    for name, pol in policy_kinds(diamond_hub).items():
        assert_engine_follows_step(diamond_hub, pol, arrivals, name)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_buffer_engine_matches_step_on_random_models(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng)
    arrivals = draw_arrivals(random_measure(rng, g.nodes), 150, rng)
    for name, pol in policy_kinds(g).items():
        assert_engine_follows_step(g, pol, arrivals, name)


def test_engine_is_freed_without_the_collector(tripartite_loop, mu_tripartite):
    # no reference cycle: dropping the engine frees it and its buffer at once
    arrivals = draw_arrivals(mu_tripartite, 60, random.Random(2))
    gc.disable()
    try:
        for name, pol in policy_kinds(tripartite_loop).items():
            engine = BufferEngine(tripartite_loop, pol)
            rng = random.Random(3)
            for v in arrivals:
                engine.offer(v, rng)
            assert engine.length > 0, name
            refs = [weakref.ref(engine)] + [weakref.ref(q) for q in engine._fifo.values()]
            del engine
            assert all(ref() is None for ref in refs), name
    finally:
        gc.enable()


def seeded_digests(trip, mu_trip, path, mu_p) -> dict[str, str]:
    """sha256 of the repr of seeded simulate results and of a partner table."""
    out = {}
    for name, pol in policy_kinds(trip).items():
        res = simulate(trip, mu_trip, pol, steps=5000, seed=11)
        out[name] = hashlib.sha256(repr(res).encode()).hexdigest()
    partners = fcfm_match_partners(path, draw_arrivals(mu_p, 5000, random.Random(4)))
    out["partners"] = hashlib.sha256(repr(partners).encode()).hexdigest()
    return out


# computed with the per-kind samplers that predate the shared class rules
PINNED_DIGESTS = {
    "fcfm": "5a1d086c1040ce8dcc42a5666fdc84b7d6fdb1ac03eeefe916ccc78a73fbcb44",
    "lcfm": "54c31c405871ccca8b2f73d07ed100d38de1c952270e18a1675f48c76b7748fe",
    "ml": "b2819013848e28f7bd7bdbab2f3ca25113733c733dfd612d5a28093c37c5714f",
    "ms": "f3a84c1df37f1b3c9502d0d098f25031bc56a19e4d00f908d83d2ee51fb09ad6",
    "random": "b6db1934aa23f8531bfb660a5cb9c8f6bda26c99c7768970eb4f97dd775b9bd0",
    "random_perms": "916a677266e55439dfc3381e4c3cec74417717f931b62d1283d78b17e352cd56",
    "priority": "1ebe850c5df7c77f9889f305239f5d45dc92c82f0fed6c04d14434e73b8c5acb",
    "v2fav": "519ead242347720caef3678fe70d9380c9bb4d6c4cbc3c3affd26e21050c1b2c",
    "partners": "ad8842bdba3052cb23d37987229d801d720c66f9251b46b587ee3b1d05066289",
}


def test_seeded_streams_are_pinned(tripartite_loop, mu_tripartite, path_loop, mu_path):
    assert seeded_digests(tripartite_loop, mu_tripartite, path_loop, mu_path) == PINNED_DIGESTS


def test_simulate_is_deterministic_and_consistent(path_loop, mu_path):
    a = simulate(path_loop, mu_path, Fcfm(), steps=20000, seed=5)
    b = simulate(path_loop, mu_path, Fcfm(), steps=20000, seed=5)
    assert a == b
    assert sum(a.counts.values()) + a.overflow_steps == a.recorded_steps
    assert a.recorded_steps == a.total_steps - a.burn_in
    c = simulate(path_loop, mu_path, Fcfm(), steps=20000, seed=6)
    assert a != c


def test_simulate_word_cap_accounting(path_loop, mu_path):
    steps, seed = 20000, 1
    # the class counts after every step, recomputed: FCFM draws only
    # arrivals, so the engine sees the same stream as simulate
    engine = BufferEngine(path_loop, Fcfm())
    trajectory = []
    for v in draw_arrivals(mu_path, steps, random.Random(seed)):
        engine.offer(v, None)
        trajectory.append(dict(engine.counts))
    for word_cap in (0, 1, 16):
        for burn_in in (0, None):
            res = simulate(path_loop, mu_path, Fcfm(), steps=steps, burn_in=burn_in,
                           seed=seed, word_cap=word_cap)
            recorded = trajectory[res.burn_in:]
            lengths = [sum(k.values()) for k in recorded]
            assert all(len(w) <= word_cap for w in res.counts)
            assert sum(res.counts.values()) + res.overflow_steps == res.recorded_steps
            assert res.recorded_steps == len(recorded)
            assert res.overflow_steps == sum(1 for ln in lengths if ln > word_cap)
            assert res.max_queue_len == max(lengths)
            assert res.mean_queue_len == sum(lengths) / len(recorded)
            assert res.class_occupancy == {
                c: sum(k[c] for k in recorded) / len(recorded) for c in path_loop.nodes
            }
            if word_cap <= 1:
                assert res.overflow_steps > 0


def test_slope_heuristic_at_the_null_recurrent_boundary(k2):
    # equal masses on a single edge sit exactly on the stability boundary:
    # the queue scales like sqrt(n), so the slope vanishes even though the
    # queue itself keeps growing -- which is why the slope is only a
    # transience screen, not a recurrence test
    from multimatch import ProbMeasure, stability_slope

    mu = ProbMeasure.from_dict({"1": "0.5", "2": "0.5"})
    slope = stability_slope(k2, mu, Fcfm(), steps=100000, seed=0)
    res = simulate(k2, mu, Fcfm(), steps=100000, seed=0, word_cap=0)
    assert abs(slope) < 0.01
    assert slope == res.tail_slope  # one estimator behind both
    assert res.max_queue_len > 50  # the walk still wanders far
    with pytest.raises(ChainError):
        stability_slope(k2, mu, Fcfm(), steps=0)


def test_occupancy_matches_exact_stationary_expectation(square_loops,
                                                         mu_square_uniform):
    from multimatch import finite_stationary

    table = finite_stationary(square_loops, mu_square_uniform)
    exact = {
        c: float(sum(p * w.count(c) for w, p in table.items()))
        for c in square_loops.nodes
    }
    res = simulate(square_loops, mu_square_uniform, Fcfm(), steps=400000, seed=3)
    for c in square_loops.nodes:
        assert abs(res.class_occupancy[c] - exact[c]) < 0.01


def test_finite_model_queue_is_bounded(square_loops, mu_square_uniform):
    res = simulate(square_loops, mu_square_uniform, Fcfm(), steps=30000, seed=2)
    assert res.max_queue_len <= len(square_loops.nodes)
    # every class stored at most once at any time
    assert all(v <= 1.0 for v in res.class_occupancy.values())
