import gc
import hashlib
import itertools
import math
import random
import weakref
from array import array
from fractions import Fraction
from itertools import islice
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimatch import (
    ChainError,
    Fcfm,
    Lcfm,
    Linear,
    Multigraph,
    Priority,
    ProbMeasure,
    Quadratic,
    RandomPolicy,
    V2Favorable,
    balance_residual,
    enumerate_states,
    exact_drift,
    is_admissible_word,
    kernel_row,
    ldelta,
    match_the_longest,
    match_the_shortest,
    predecessors,
    simulate,
    ncond_check,
    step,
    verify_linear_chain,
    verify_quadratic_identity,
)
from multimatch.chain import (
    BufferEngine,
    SimulationResult,
    _ARRIVAL_CHUNK,
    _TABLE_MAX_LEN,
    _TABLE_MAX_STATES,
    _StepTable,
    _arrival_chunks,
    _arrival_indices,
    _arrival_table,
    apply_decision,
    check_admissible,
    draw_arrival_indices,
    draw_arrivals,
    least_squares_slope,
)
import multimatch.chain as chain_module
from multimatch.detailed import fcfm_match_partners
from multimatch.policies import (
    _law,
    class_rule,
    decision_distribution,
    is_class_admissible,
    is_draw_free,
    sample,
    transition,
    word_counts,
)

from conftest import (policy_kinds, random_admissible_word, random_measure, random_multigraph,
                      stored_neighbours)


def test_admissibility(path_loop, square_loops):
    assert is_admissible_word(path_loop, ())
    assert is_admissible_word(path_loop, ("1", "1", "3"))
    assert not is_admissible_word(path_loop, ("1", "2"))  # adjacent pair
    assert not is_admissible_word(path_loop, ("3", "3"))  # looped class twice
    assert is_admissible_word(square_loops, ("1", "3"))
    assert not is_admissible_word(square_loops, ("1", "1"))
    with pytest.raises(ChainError):
        check_admissible(path_loop, ("1", "2"))


def pairwise_admissible(g, w):
    """The pairwise definition: every letter a class of ``g``, each looped
    class at most once, and no two present classes adjacent."""
    counts = word_counts(w)
    if any(c not in g.adjacency or (c in g.v1 and n > 1) for c, n in counts.items()):
        return False
    present = list(counts)
    return not any(b in g.adjacency[a] for x, a in enumerate(present) for b in present[x + 1:])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_admissibility_equals_the_pairwise_definition(seed):
    # a letter may follow a prefix iff it is adjacent to no class in it; a
    # looped class is adjacent to itself, so this is the pairwise definition
    g = random_multigraph(random.Random(seed))
    for length in range(5):
        words = list(itertools.product([*g.nodes, "x"], repeat=length))
        assert [is_admissible_word(g, w) for w in words] == \
            [pairwise_admissible(g, w) for w in words], length
    want = [w for n in range(5) for w in itertools.product(g.nodes, repeat=n)
            if pairwise_admissible(g, w)]
    assert enumerate_states(g, 4) == sorted(want, key=lambda w: (len(w), w))


def test_step_examples(path_loop):
    assert step(path_loop, Fcfm(), ("1", "1"), "2") == ("1",)
    assert step(path_loop, Fcfm(), ("3",), "3") == ()  # within-class match
    assert step(path_loop, Fcfm(), (), "1") == ("1",)


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
    with pytest.raises(ChainError):
        enumerate_states(k2, -1)


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
                for x, p in decision_distribution(path_loop, pol, w, v).items():
                    if x is not None:
                        c = word_counts(w)
                        c[w[x]] -= 1
                    else:
                        c = word_counts(w + (v,))
                    key = tuple(sorted((k, x) for k, x in c.items() if x))
                    word_law[key] = word_law.get(key, Fraction(0)) + p
                class_law = {}
                counts = {i: word_counts(w).get(i, 0) for i in path_loop.nodes}
                candidates = stored_neighbours(path_loop, counts, v)
                if not candidates:
                    nc = dict(counts)
                    nc[v] += 1
                    class_law[tuple(sorted((k, x) for k, x in nc.items() if x))] = Fraction(1)
                else:
                    narrowed = {j: counts[j] for j in candidates}
                    spec = class_rule(pol)(path_loop, pol, narrowed, v)
                    for j, p in _law(spec).items():
                        nc = dict(counts)
                        nc[j] -= 1
                        key = tuple(sorted((k, x) for k, x in nc.items() if x))
                        class_law[key] = class_law.get(key, Fraction(0)) + p
                assert word_law == class_law


def exact_layer_digests(models) -> dict[str, str]:
    """sha256 per model of every kernel row and every quadratic drift over
    the words of at most 3 letters, under every kind of :func:`policy_kinds`."""
    out = {}
    for name, (g, mu) in models.items():
        rows, drifts = hashlib.sha256(), hashlib.sha256()
        for pol in policy_kinds(g).values():
            for w in enumerate_states(g, 3):
                rows.update(repr(sorted(kernel_row(g, mu, pol, w).items())).encode())
                drifts.update(repr(exact_drift(g, mu, pol, w, Quadratic())).encode())
        out[name + " kernel_row"] = rows.hexdigest()
        out[name + " exact_drift"] = drifts.hexdigest()
    return out


# computed at the word-level transition that returned MatchDecision objects
PINNED_EXACT_DIGESTS = {
    "tripartite_loop kernel_row": "bb7515c1616def4c0fb9498eecc71e107c6b2bd1b7c5e183935f8d78e020c8af",
    "tripartite_loop exact_drift": "7d0da746132063fc27de7f0dc8f4b208a327fe0de33dcb0cb42b1b7520c506bb",
    "diamond_hub_loop kernel_row": "890e961357d2d46917951ab1092abf7e8c9673cbc8ed7b5c807b5996187814a7",
    "diamond_hub_loop exact_drift": "a65fdaa4b8984c869864e24dd22238bbfd00714e0128993db6e996c8915bbf8c",
}


def test_exact_layer_is_pinned(tripartite_loop, mu_tripartite, diamond_hub, mu_diamond):
    models = {"tripartite_loop": (tripartite_loop, mu_tripartite),
              "diamond_hub_loop": (diamond_hub, mu_diamond)}
    assert exact_layer_digests(models) == PINNED_EXACT_DIGESTS


def float_row_digests(models) -> dict[str, str]:
    """sha256 per model of the repr of every kernel row, entry order and
    value types included, over the words of at most 3 letters: under a float
    measure with every kind of :func:`policy_kinds`, and under explicit
    permutations with float weights with a float and with an exact measure.
    The float weights are dyadic, so a class every permutation puts first
    has the float probability 1.0 exactly.  One more entry per model digests
    the repr of every identity residual under the float measure, and under
    the exact measure with the float split 0.5, with every kind that has a
    canonical extension: the float drifts keep their summation order.  The
    last entries digest every ``balance_residual`` report up to 3 letters and
    its result under the float measure, and every ``exact_drift`` report of
    Q, L and L_delta under the float measure with every kind and under the
    exact measure with the float permutations."""
    out = {}
    for name, (g, mu) in models.items():
        mu_float = ProbMeasure({c: float(p) for c, p in mu.weights.items()})
        kinds = policy_kinds(g)
        float_perms = RandomPolicy({v: tuple((perm, p) for (perm, _), p in zip(dist, (0.5, 0.25, 0.25)))
                                    for v, dist in kinds["random_perms"].perms.items()})
        cases = {
            "float measure": [(mu_float, pol) for pol in kinds.values()],
            "float perms": [(mu_float, float_perms)],
            "exact measure, float perms": [(mu, float_perms)],
        }
        for case, runs in cases.items():
            digest = hashlib.sha256()
            for m, pol in runs:
                for w in enumerate_states(g, 3):
                    digest.update(repr(list(kernel_row(g, m, pol, w).items())).encode())
            out[f"{name} {case}"] = digest.hexdigest()
        digest = hashlib.sha256()
        for m, split in ((mu_float, None), (mu, {i: 0.5 for i in g.v1})):
            for kind, pol in kinds.items():
                if kind == "random_perms":  # permutation laws have no canonical extension
                    continue
                for w in enumerate_states(g, 3):
                    digest.update(repr((verify_quadratic_identity(g, m, pol, w, split),
                                        verify_linear_chain(g, m, pol, w, split))).encode())
        out[f"{name} identity residuals"] = digest.hexdigest()
        reports = []
        reports.append(balance_residual(g, mu_float, 3, report=lambda w, r: reports.append((w, r))))
        out[f"{name} balance reports"] = hashlib.sha256(repr(reports).encode()).hexdigest()
        for case, runs in (("float measure", [(mu_float, pol) for pol in kinds.values()]),
                           ("exact measure, float perms", [(mu, float_perms)])):
            digest = hashlib.sha256()
            for m, pol in runs:
                for fn in (Quadratic(), Linear(), ldelta(g, m, ncond_check(g, m).margin)):
                    for w in enumerate_states(g, 3):
                        digest.update(repr(exact_drift(g, m, pol, w, fn)).encode())
            out[f"{name} {case} drifts"] = digest.hexdigest()
    return out


# computed while kernel_row multiplied every decision's probability; the
# identity residuals while _ql took every arrival's mean through _mean and _dot;
# the balance and drift reports while balance_residual summed kernel rows and
# exact_drift took every move's change from fn.value
PINNED_FLOAT_ROW_DIGESTS = {
    "tripartite_loop float measure": "50653176a0f4ad3e93e682742cb7e517cb19255b65ef2c2cdb1ba4ed1b5c1e3d",
    "tripartite_loop float perms": "62eaca5b784bff2ccd53430fba053302523a702fa457d326a13040456aac1f47",
    "tripartite_loop exact measure, float perms": "0bee4818576274a682430b8d2fa24f909be119661c4abcbb8d73f1e214619493",
    "tripartite_loop identity residuals": "f83ac35f89b033302b422f9ab3c43fbebfb846c84029a5eabbc14a1a8d24eb5c",
    "tripartite_loop balance reports": "e7852b53dc257b3838647169ba56093921a108540d6c469f85737d674fcd12bf",
    "tripartite_loop float measure drifts": "2f895409aa22de735c349781d4eeedb779f7a7ea87319a702531b567f614a0f1",
    "tripartite_loop exact measure, float perms drifts": "a5afd9c196e7a8f33b01f311c9a686ef353bb030f0013ee83bb39f421dedd580",
    "diamond_hub_loop float measure": "d7612a289b05069faea2bca2c89a84daed20e068f467b7fed62f2f180c2b38e2",
    "diamond_hub_loop float perms": "952658fdfa452eacd8cc983b0df61306db1297258af71f606cd32b44a909d351",
    "diamond_hub_loop exact measure, float perms": "8eab6ba5fb37100bbd9a749a4a47a0ad5169e4472b247ba6d70ed3adf2dfa1c5",
    "diamond_hub_loop identity residuals": "bbb8014c5f54d1b485b95e4d01085044fb626544ad0fe3bac88a2780c9b596b0",
    "diamond_hub_loop balance reports": "42918f39b7932064ba26c6fcc50f84d67f2acef66414bdac9076a6d852c22c00",
    "diamond_hub_loop float measure drifts": "338587a69a25b326b5baef3ca92af3cd1216cf77594147716ce1122f296aa16b",
    "diamond_hub_loop exact measure, float perms drifts": "7d65f2927d0b32f671cc739b64746ad5dfeacadcb9e5bf97b518899aff9f6dbc",
}


def test_float_kernel_rows_are_pinned(tripartite_loop, mu_tripartite, diamond_hub, mu_diamond):
    # a sure decision may skip its product only when its probability is the
    # exact 1: a float probability still turns an exact mass into a float
    models = {"tripartite_loop": (tripartite_loop, mu_tripartite),
              "diamond_hub_loop": (diamond_hub, mu_diamond)}
    assert float_row_digests(models) == PINNED_FLOAT_ROW_DIGESTS


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


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sampled_class_choices_follow_the_exact_law(seed):
    # 1000 draws per (counts, arrival); a class whose exact probability p is
    # strictly between 0 and 1 must land within 5 binomial standard errors,
    # and one with p in {0, 1} exactly on it.  FCFM and LCFM pick a position,
    # not a class, so they have no class rule.
    n = 1000
    rng = random.Random(seed)
    g = random_multigraph(rng)
    sampler = random.Random(seed)
    kinds = {k: pol for k, pol in policy_kinds(g).items() if is_class_admissible(pol)}
    for length in (1, 3):
        w = random_admissible_word(rng, g, length)
        if w is None:
            continue
        counts = word_counts(w)
        for v in g.nodes:
            candidates = stored_neighbours(g, counts, v)
            if not candidates:
                continue
            narrowed = {j: counts[j] for j in candidates}
            for name, pol in kinds.items():
                spec = class_rule(pol)(g, pol, narrowed, v)
                law = _law(spec)
                assert sum(law.values()) == 1, name
                hits = dict.fromkeys(candidates, 0)
                for _ in range(n):
                    hits[spec[0][sample(spec, sampler)]] += 1
                for j, k in hits.items():
                    p = float(law.get(j, 0))
                    assert abs(k / n - p) <= 5 * math.sqrt(p * (1 - p) / n), (name, w, v, j)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
       st.integers(min_value=1, max_value=9))
def test_bulk_arrivals_equal_per_step_draws(seed, exact, chunk):
    rng = random.Random(seed)
    mu = random_measure(rng, [str(c) for c in range(rng.randrange(1, 7))])
    if not exact:
        mu = ProbMeasure.from_dict({c: float(p) for c, p in mu.weights.items()})
    nodes, cum = _arrival_table(mu)
    for steps in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        bulk, per_step = random.Random(seed), random.Random(seed)
        with patch("multimatch.chain._ARRIVAL_CHUNK", chunk):
            chunks = [c.tolist() for c in _arrival_chunks(cum, bulk, steps)]
            arrivals = draw_arrivals(mu, steps, bulk)
            indices = draw_arrival_indices(mu, steps, bulk)
        assert all(0 < len(c) <= chunk for c in chunks)
        want = list(islice(_arrival_indices(cum, per_step), 3 * steps))
        assert [i for c in chunks for i in c] == want[:steps]
        assert arrivals == [nodes[i] for i in want[steps : 2 * steps]]
        assert indices.dtype == np.uint8 and indices.tolist() == want[2 * steps :]
        # a table with an entry at each double drawn and one just above it:
        # a double off by one unit in the last place lands elsewhere
        doubles = list(islice(iter(random.Random(seed).random, None), steps))
        sharp = sorted({d for u in doubles for d in (u, math.nextafter(u, 1))} | {1.0})
        with patch("multimatch.chain._ARRIVAL_CHUNK", chunk):
            got = [i for c in _arrival_chunks(sharp, random.Random(seed), steps) for i in c]
        assert got == list(islice(_arrival_indices(sharp, random.Random(seed)), steps))
        assert bulk.getstate() == per_step.getstate()


def draw_free_kinds(g):
    """One policy of every kind whose step never draws."""
    strict = Priority.from_lists({v: sorted(g.adjacency[v], reverse=True) for v in g.nodes})
    return {"fcfm": Fcfm(), "lcfm": Lcfm(), "priority": strict, "v2fav": V2Favorable(strict)}


def test_is_draw_free_names_the_kinds_that_never_draw(tripartite_loop):
    kinds = policy_kinds(tripartite_loop)
    assert [k for k, p in kinds.items() if is_draw_free(p)] == ["fcfm", "lcfm"]
    assert all(is_draw_free(p) for p in draw_free_kinds(tripartite_loop).values())


def unstable_measure(rng, g):
    """A class without a self-loop outweighs all the others together, so its
    queue grows; on an all-loop (finite) model any measure is stable."""
    if not g.v2:
        return random_measure(rng, g.nodes)
    heavy = rng.choice(sorted(g.v2))
    rest = random_measure(rng, [c for c in g.nodes if c != heavy])
    weights = {c: Fraction(2, 5) * rest[c] for c in g.nodes if c != heavy}
    return ProbMeasure.from_dict({**weights, heavy: Fraction(3, 5)})


def engine_run(g, mu, pol, steps, seed):
    """The word and the class counts after each step of one engine fed
    ``simulate``'s per-step stream, and the RNG's final state: one shared
    ``random.Random(seed)`` draws each step's arrival, then the policy's
    draws."""
    nodes, cum = _arrival_table(mu)
    engine, rng = BufferEngine(g, pol), random.Random(seed)
    # the stored items, arrival index -> class, in arrival order
    stored, counts = {}, dict.fromkeys(g.nodes, 0)
    words, classes = [], []
    for n, i in enumerate(islice(_arrival_indices(cum, rng), steps)):
        v = nodes[i]
        x = engine.offer(v, rng)  # the arrival index of the item matched
        if x is None:
            stored[n] = v
            counts[v] += 1
        else:
            counts[stored.pop(x)] -= 1
        words.append(tuple(stored.values()))
        classes.append(dict(counts))
    return words, classes, rng.getstate()


def engine_simulation(g, run, burn_in, seed, word_cap):
    """``simulate``'s result recomputed from an :func:`engine_run`."""
    words, classes = run[:2]
    recorded = words[burn_in:]
    counts = {}
    for w in recorded:
        if len(w) <= word_cap:
            counts[w] = counts.get(w, 0) + 1
    occupancy = {c: sum(k[c] for k in classes[burn_in:]) for c in g.nodes}
    n = len(recorded)
    return SimulationResult(
        total_steps=len(words), burn_in=burn_in, recorded_steps=n, seed=seed,
        word_cap=word_cap, counts=counts,
        overflow_steps=sum(1 for w in recorded if len(w) > word_cap),
        max_queue_len=max(map(len, recorded)),
        mean_queue_len=sum(occupancy.values()) / n,
        class_occupancy={c: occupancy[c] / n for c in g.nodes},
        final_queue_len=len(words[-1]),
        tail_slope=least_squares_slope([len(w) for w in words[len(words) // 2:]]),
    )


class RecordingRandom(random.Random):
    """A ``random.Random`` that keeps every instance made, so a test can read
    the final state of the generator that ``simulate`` makes for itself."""

    made: list = []

    def __init__(self, *args):
        super().__init__(*args)
        RecordingRandom.made.append(self)


def recorded_simulate(*args, **kwargs):
    """``simulate``'s result and the final state of its RNG."""
    RecordingRandom.made.clear()
    with patch("multimatch.chain.random.Random", RecordingRandom):
        res = simulate(*args, **kwargs)
    (rng,) = RecordingRandom.made
    return res, rng.getstate()


def taken_by_class(w, v, j):
    """The word after arrival ``v`` at ``w`` takes the oldest stored ``j``."""
    return apply_decision(w, v, w.index(j))


def assert_table_follows_step(g, pol, arrivals, name):
    """Every transition a run fills into the step table is the word-level
    step, every draw record is the word-level decision law with a state for
    each of its next words, and the table holds no more states than its
    bound."""
    nodes = sorted(g.nodes)
    rng = random.Random(10)
    table = _StepTable(g, pol, nodes)
    k, succ, o = table.k, table.succ, 0
    for v in arrivals:
        i = nodes.index(v)
        t = succ[o + i]
        if t == -1:
            t = table.fill(o, i)
        if t < -2:
            spec, outs = table.records[-3 - t]
            t = outs[sample(spec, rng)]
        o = t
        if o < 0:  # the run would hand this step to the engine
            break
    # one flat successor list, k offsets per state
    assert len(succ) == k * len(table.words) and all(t % k == 0 for t in succ if t >= 0)
    filled = 0
    for o, t in enumerate(succ):
        s, i = divmod(o, k)
        w, v = table.words[s], nodes[i]
        if t >= 0:
            filled += 1
            assert table.words[t // k] == step(g, pol, w, v), name
        elif t < -2:
            filled += 1
            spec, outs = table.records[-3 - t]
            law = {taken_by_class(w, v, j): p for j, p in _law(spec).items()}
            want = {apply_decision(w, v, x): p
                    for x, p in decision_distribution(g, pol, w, v).items()}
            assert law == want, name
            assert len(law) > 1 or spec[1][0] in ("shuffle", "random"), name
            assert len(outs) == len(spec[0]) and all(u >= 0 for u in outs), name
            for j, u in zip(spec[0], outs):
                assert table.words[u // k] == taken_by_class(w, v, j), name
    assert filled > 0, name
    assert len(table.words) <= chain_module._TABLE_MAX_STATES, name
    if is_draw_free(pol):
        assert not table.records, name


def table_kinds(g):
    """Every kind of :func:`draw_free_kinds` and every drawing kind: ties
    (match-the-longest, match-the-shortest, a tied priority, the favored-class
    wrapper over it), uniform random and explicit permutations."""
    kinds = policy_kinds(g)
    drawing = {name: kinds[name] for name in ("ml", "ms", "random", "random_perms")}
    tied = kinds["priority"]
    return {**draw_free_kinds(g), **drawing, "tied": tied, "v2fav_tied": V2Favorable(tied)}


# the shipped table bounds, and small ones that runs leave and re-enter often
TABLE_BOUNDS = ((_TABLE_MAX_LEN, _TABLE_MAX_STATES), (3, 12))
# (arrival chunk size, burn-in) pairs for the 400-step runs below: besides
# the shipped chunk size, burn-in 7 is one whole chunk of 7 and falls inside
# one of 8, and steps // 2 = 200 falls inside a chunk of 7 and on the edge of
# one of 8
CHUNKED_RUNS = ((_ARRIVAL_CHUNK, 0), (_ARRIVAL_CHUNK, 7), (7, 7), (8, 7))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_table_runs_equal_engine_runs_on_random_models(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng)
    steps = 400
    for mu in (random_measure(rng, g.nodes), unstable_measure(rng, g)):
        arrivals = draw_arrivals(mu, 150, random.Random(seed))
        for name, pol in table_kinds(g).items():
            run = engine_run(g, mu, pol, steps, seed)
            wants = {(burn_in, word_cap): repr(engine_simulation(g, run, burn_in, seed, word_cap))
                     for _, burn_in in CHUNKED_RUNS for word_cap in (0, 1, 16)}
            for max_len, max_states in TABLE_BOUNDS:
                with patch.multiple("multimatch.chain", _TABLE_MAX_LEN=max_len,
                                    _TABLE_MAX_STATES=max_states):
                    assert_table_follows_step(g, pol, arrivals, name)
                    for chunk, burn_in in CHUNKED_RUNS:
                        for word_cap in (0, 1, 16):
                            with patch("multimatch.chain._ARRIVAL_CHUNK", chunk):
                                got, state = recorded_simulate(g, mu, pol, steps, burn_in=burn_in,
                                                               seed=seed, word_cap=word_cap)
                            case = (name, max_len, chunk, word_cap, burn_in)
                            assert repr(got) == wants[burn_in, word_cap], case
                            assert state == run[2], case


def test_table_bounds_are_crossed_both_ways(path_loop, mu_path):
    # with a small table, the path model's queue leaves it and comes back
    # many times; the run still equals the step-by-step engine, also when
    # the engine's stretches straddle the boundaries of small arrival chunks
    unstable = ProbMeasure.from_dict({"1": "0.4", "2": "0.2", "3": "0.4"})
    for mu in (mu_path, unstable):
        run = engine_run(path_loop, mu, Fcfm(), 5000, 3)
        lengths = [len(w) for w in run[0]]
        crossings = sum(1 for a, b in zip(lengths, lengths[1:]) if (a <= 3) != (b <= 3))
        assert crossings >= 2
        # a stretch of words too long for the table, which the engine steps,
        # longer than a chunk of 7 overlaps a chunk boundary however they fall
        stretches = "".join("x" if n > 3 else " " for n in lengths).split()
        assert max(map(len, stretches)) > 7
        want = repr(engine_simulation(path_loop, run, 50, 3, 4))
        for chunk in (_ARRIVAL_CHUNK, 7):
            with patch.multiple("multimatch.chain", _TABLE_MAX_LEN=3, _TABLE_MAX_STATES=12,
                                _ARRIVAL_CHUNK=chunk):
                got = simulate(path_loop, mu, Fcfm(), 5000, burn_in=50, seed=3, word_cap=4)
            assert repr(got) == want, chunk


def test_a_run_with_more_than_255_classes_feeds_wide_indices():
    # past 255 classes the bulk feed's indices are uint16; a path of 300
    # classes with a loop at each one, whose queue soon outgrows the table,
    # still runs as the step-by-step engine
    nodes = [f"c{i:03d}" for i in range(300)]
    g = Multigraph.build(nodes, list(zip(nodes, nodes[1:])), nodes)
    mu = ProbMeasure.uniform(g)
    indices = draw_arrival_indices(mu, 3000, random.Random(5))
    assert indices.dtype == np.uint16 and indices.max() > 255
    run = engine_run(g, mu, Fcfm(), 3000, 5)
    for word_cap in (16, 100):
        got, state = recorded_simulate(g, mu, Fcfm(), 3000, seed=5, word_cap=word_cap)
        assert repr(got) == repr(engine_simulation(g, run, 30, 5, word_cap)), word_cap
        assert state == run[2]


def test_a_draw_free_run_draws_from_one_arrival_feed(path_loop, mu_path):
    # a run is one pass: whatever its burn-in (steps - 1 is stability_slope's),
    # and with chunks smaller than the run, it opens one bulk feed of all its
    # arrivals
    calls = []

    def counted(cum, rng, steps):
        calls.append(steps)
        return _arrival_chunks(cum, rng, steps)

    steps = 400
    for pol in (Fcfm(), Lcfm()):
        for chunk in (_ARRIVAL_CHUNK, 7):
            for burn_in in (0, 7, steps - 1):
                calls.clear()
                with patch.multiple("multimatch.chain", _arrival_chunks=counted,
                                    _ARRIVAL_CHUNK=chunk):
                    simulate(path_loop, mu_path, pol, steps, burn_in=burn_in, seed=3)
                assert calls == [steps], (pol, chunk, burn_in)


def test_a_full_table_hands_draws_to_the_engine(diamond_hub, mu_diamond):
    # with a small table, the table fills up to its bound and no further;
    # once it is full, a drawing step with a next word the table does not
    # hold is entered as -2 and handed to the engine, whose step makes the
    # same RNG call, so the run and the RNG's final state are the engine's
    tables, sizes, handed = [], [], []
    real_enter, real_fill = _StepTable.enter, _StepTable.fill

    def enter(table, w):
        o = real_enter(table, w)
        sizes.append(len(table.words))
        return o

    def fill(table, o, i):
        w, v = table.words[o // table.k], table.nodes[i]
        spec = transition(table.g, table.policy, w, v)
        t = real_fill(table, o, i)
        drawing = spec is not None and type(spec) is not int
        if t == -2 and drawing:
            handed.append((len(table.words), o + i))
            tables.append(table)
        return t

    pol = match_the_longest()
    run = engine_run(diamond_hub, mu_diamond, pol, 3000, 1)
    with patch.multiple("multimatch.chain", _TABLE_MAX_LEN=3, _TABLE_MAX_STATES=12), \
            patch.multiple(_StepTable, enter=enter, fill=fill):
        got, state = recorded_simulate(diamond_hub, mu_diamond, pol, 3000,
                                       burn_in=30, seed=1, word_cap=16)
    assert max(sizes) == 12
    assert handed and all(n == 12 for n, _ in handed), handed
    # a hand-over entry stays -2, and it is never a record: every record's
    # class leads to a state
    assert all(tables[0].succ[e] == -2 for _, e in handed)
    assert all(u >= 0 for _, outs in tables[0].records for u in outs)
    assert repr(got) == repr(engine_simulation(diamond_hub, run, 30, 1, 16))
    assert state == run[2]


@pytest.mark.parametrize("kind", ["ml", "uniform"])
def test_a_full_table_hands_over_only_missing_words(diamond_hub, mu_diamond, kind):
    # a drawing step's entry is -2, and the run hands the step to the engine,
    # exactly when the table lacks more of its next words than it has room
    # for, so a full table hands over only a step with a missing word;
    # otherwise every next word gets a state and the entry is a record
    outcomes = {"handed": 0, "kept_full": 0}
    real_fill = _StepTable.fill

    def fill(table, o, i):
        w, v = table.words[o // table.k], table.nodes[i]
        spec = transition(table.g, table.policy, w, v)
        drawing = spec is not None and type(spec) is not int
        room = chain_module._TABLE_MAX_STATES - len(table.words)
        missing = drawing and sum(taken_by_class(w, v, j) not in table.ids for j in spec[0])
        t = real_fill(table, o, i)
        if drawing:
            assert (t == -2) == (missing > room), (w, v)
            if t == -2:
                outcomes["handed"] += 1
            elif room == 0:
                outcomes["kept_full"] += 1
        return t

    pol = {"ml": match_the_longest(), "uniform": RandomPolicy()}[kind]
    run = engine_run(diamond_hub, mu_diamond, pol, 3000, 2)
    with patch.multiple("multimatch.chain", _TABLE_MAX_LEN=3, _TABLE_MAX_STATES=8), \
            patch.object(_StepTable, "fill", fill):
        got, state = recorded_simulate(diamond_hub, mu_diamond, pol, 3000,
                                       burn_in=30, seed=2, word_cap=16)
    # a full table both hands a draw over and keeps one whose words it holds
    assert outcomes["handed"] > 0 and outcomes["kept_full"] > 0, outcomes
    assert repr(got) == repr(engine_simulation(diamond_hub, run, 30, 2, 16))
    assert state == run[2]


@pytest.mark.parametrize("kind", ["lcfm", "ml"])
def test_a_step_at_the_length_bound_leaves_the_table_only_to_store(path_loop, mu_path, kind):
    # with room in the table, a step from a word at the length bound goes to
    # the engine exactly when its arrival is stored, the one next word too
    # long to hold; a match there stays on the table, as the next offset or,
    # when the policy draws, as a draw record
    outcomes = {"stored": 0, "matched": 0, "drawn": 0}
    real_fill = _StepTable.fill

    def fill(table, o, i):
        w, v = table.words[o // table.k], table.nodes[i]
        x = transition(table.g, table.policy, w, v)
        t = real_fill(table, o, i)
        if len(w) == chain_module._TABLE_MAX_LEN:
            assert len(table.words) < chain_module._TABLE_MAX_STATES
            assert (t == -2) == (x is None), (w, v, t)
            outcomes["stored" if x is None else "matched"] += 1
            outcomes["drawn"] += t < -2
        return t

    pol = {"lcfm": Lcfm(), "ml": match_the_longest()}[kind]
    run = engine_run(path_loop, mu_path, pol, 3000, 4)
    with patch("multimatch.chain._TABLE_MAX_LEN", 2), patch.object(_StepTable, "fill", fill):
        got, state = recorded_simulate(path_loop, mu_path, pol, 3000,
                                       burn_in=30, seed=4, word_cap=16)
    assert outcomes["stored"] > 0 and outcomes["matched"] > 0, outcomes
    assert (outcomes["drawn"] > 0) == (kind == "ml"), outcomes
    assert repr(got) == repr(engine_simulation(path_loop, run, 30, 4, 16))
    assert state == run[2]


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_engine_word_and_length_follow_step_after_loads(seed):
    # the engine's word is its keyed FIFOs merged: after every offer, also
    # right after a load of an admissible word, it is the word-level step's
    # word, and the engine makes the step's RNG calls
    rng = random.Random(seed)
    g = random_multigraph(rng)
    mu = unstable_measure(rng, g)
    arrivals = draw_arrivals(mu, 120, rng)
    for name, pol in table_kinds(g).items():
        engine = BufferEngine(g, pol)
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        w = ()
        for n, v in enumerate(arrivals):
            if n % 40 == 20:
                w = random_admissible_word(rng, g, rng.randrange(4)) or ()
                engine.load(w)
                assert engine.word() == w and engine.length == len(w), name
            engine.offer(v, rng_a)
            w = step(g, pol, w, v, rng_b)
            assert engine.word() == w, (name, n)
            assert engine.length == len(w), (name, n)
            assert rng_a.getstate() == rng_b.getstate(), (name, n)


def test_engine_is_freed_without_the_collector(tripartite_loop, mu_tripartite, path_loop):
    # no reference cycle: dropping the engine frees it and its buffer at once;
    # path_loop's classes have one or two neighbours, tripartite_loop's three
    # or four, so both shapes of the compiled FCFM offer are dropped (path_loop
    # under its unstable measure, whose queue is not empty after 60 arrivals)
    unstable = ProbMeasure.from_dict({"1": "2/5", "2": "1/5", "3": "2/5"})
    gc.disable()
    try:
        for g, mu in ((tripartite_loop, mu_tripartite), (path_loop, unstable)):
            arrivals = draw_arrivals(mu, 60, random.Random(2))
            for name, pol in policy_kinds(g).items():
                engine = BufferEngine(g, pol)
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


# path_loop under its unstable measure: class 1 outweighs class 2, so the
# queue grows by about a fifth of an item per step and nearly every step is
# the engine's; keyed by (policy, word_cap), computed before the engine kept
# its items in keyed FIFOs alone
PINNED_ENGINE_DIGESTS = {
    ("fcfm", 0): "8ac37ae34824ac95ba66297849b821686d8f6d7fa6d3ce05305c812ea1c607ad",
    ("fcfm", 16): "ce50beff982da99e8d0e6b515ae3236143b1bffa337aaabec77b3db8c28c4eb9",
    ("lcfm", 0): "1a2df86ed713b9874d8dbe18d53074a9a9dfb25b6d38935aa5a5a9f3cabec87f",
    ("lcfm", 16): "d68d5c8dbc0908c1a6696cc8bd3c017612d52beb26760aac1fa378d4ad9aa504",
    ("ms", 0): "02f8ff2067fb051bb38a7ec6ecfab9498f0fe3ebbb567885070ffbfc5be25086",
    ("ms", 16): "fa45cec9d896e67e1e06e2992c70f524570499f32198f54428579ca688c8b838",
}


# diamond_hub_loop under {1: 2/5, 2: 1/5, 3: 1/5, 4: 1/5}: class 1 piles up,
# and its classes have 1, 2 and 4 neighbours, so FCFM steps both shapes of
# the compiled offer; keyed as above, computed while every class looped
PINNED_DIAMOND_ENGINE_DIGESTS = {
    ("fcfm", 0): "f5eef927ba62c60d22da54a056c9c3b05bbe36ea6782338bf99d2df9fedd9d0a",
    ("fcfm", 16): "a2fc03091a702a6736146ebaa03ff87ea947cd82f2204d222dd0a658f76cc542",
}


def test_engine_bound_runs_are_pinned(path_loop, diamond_hub):
    # sha256 of the result's repr and the RNG's final state, from burn-in 0;
    # with the shipped table bounds the engine takes every step past 24
    # letters, and with small ones it also tallies the words it steps to
    inputs = (
        (path_loop, {"1": "2/5", "2": "1/5", "3": "2/5"}, PINNED_ENGINE_DIGESTS),
        (diamond_hub, {"1": "2/5", "2": "1/5", "3": "1/5", "4": "1/5"},
         PINNED_DIAMOND_ENGINE_DIGESTS),
    )
    policies = {"fcfm": Fcfm(), "lcfm": Lcfm(), "ms": match_the_shortest()}
    for g, weights, pinned in inputs:
        unstable = ProbMeasure.from_dict(weights)
        for max_len, max_states in TABLE_BOUNDS:
            got = {}
            for (name, word_cap) in pinned:
                with patch.multiple("multimatch.chain", _TABLE_MAX_LEN=max_len,
                                    _TABLE_MAX_STATES=max_states):
                    res, state = recorded_simulate(g, unstable, policies[name], 20000,
                                                   burn_in=0, seed=17, word_cap=word_cap)
                assert res.overflow_steps > 19900, (name, word_cap)
                got[name, word_cap] = hashlib.sha256((repr(res) + repr(state)).encode()).hexdigest()
            assert got == pinned, max_len


def test_runs_do_not_depend_on_the_order_of_the_graphs_nodes(path_loop):
    # the raw constructor keeps its nodes unsorted; the engine's keys and the
    # run's record still name the right classes, so a run on it is the run on
    # the built graph, and its engine's word is the word-level step's word
    raw = Multigraph(("3", "1", "2"), path_loop.edges, path_loop.self_loops)
    unstable = ProbMeasure.from_dict({"1": "2/5", "2": "1/5", "3": "2/5"})
    arrivals = draw_arrivals(unstable, 300, random.Random(4))
    for name, pol in table_kinds(path_loop).items():
        for max_len, max_states in TABLE_BOUNDS:
            with patch.multiple("multimatch.chain", _TABLE_MAX_LEN=max_len,
                                _TABLE_MAX_STATES=max_states):
                runs = [recorded_simulate(h, unstable, pol, 3000, burn_in=100, seed=9, word_cap=4)
                        for h in (path_loop, raw)]
            assert runs[0] == runs[1], (name, max_len)
            assert list(runs[1][0].class_occupancy) == list(raw.nodes), name
        engine, rng_a, rng_b, w = BufferEngine(raw, pol), random.Random(1), random.Random(1), ()
        for v in arrivals:
            engine.offer(v, rng_a)
            w = step(path_loop, pol, w, v, rng_b)
            assert engine.word() == w, name


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
        w = engine.word()
        trajectory.append({c: w.count(c) for c in path_loop.nodes})
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


def cumsum_slope(lengths):
    """The least-squares slope with float sums taken left to right."""
    y = np.asarray(lengths, dtype=float)
    n = y.size
    if n < 2:
        return 0.0
    x = np.arange(n, dtype=float)
    sx, sy, sxy, sxx = (np.cumsum(a)[-1] for a in (x, y, x * y, x * x))
    denom = n * sxx - sx * sx
    return float((n * sxy - sx * sy) / denom) if denom > 0 else 0.0


# the largest n whose sum of squared indices 0..n-1 is below 2**53
SQUARES_BOUND_N = 300080


@pytest.mark.parametrize("kind", ["list", "large first", "array", "negative", "float",
                                  "integral float"])
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=66))
def test_slope_equals_left_to_right_float_sums(kind, seed, bits):
    # the slope's integer sums replace the float sums only where those are
    # exact: lengths of up to 2**bits put the sums on either side of the
    # 2**53 bound (a large first length adds to the sum of lengths and not
    # to the sum of products); the next test takes runs whose squared
    # indices alone sum to either side of it
    rng = random.Random(seed)
    top = 2**63 - 1 if kind == "array" else 2**66
    for n in (0, 1, 2, 3, rng.randrange(4, 40), rng.randrange(40, 3000)):
        lengths = [min(rng.getrandbits(bits), top) for _ in range(n)]
        if kind == "large first" and n:
            lengths[1:] = [rng.getrandbits(2) for _ in lengths[1:]]
        elif kind == "array":
            lengths = array("q", lengths)
        elif kind == "negative":
            lengths = [-v for v in lengths]
        elif kind == "float":
            lengths = [v * rng.random() for v in lengths]
        elif kind == "integral float":
            lengths = [float(v) for v in lengths]
        got = least_squares_slope(lengths)
        assert type(got) is float
        assert got == cumsum_slope(lengths)


def test_slope_equals_left_to_right_float_sums_past_the_bound_of_squares():
    # from one step longer than SQUARES_BOUND_N on, the float sum of the
    # squared indices need not be exact
    assert (SQUARES_BOUND_N - 1) * SQUARES_BOUND_N * (2 * SQUARES_BOUND_N - 1) // 6 < 2**53
    assert SQUARES_BOUND_N * (SQUARES_BOUND_N + 1) * (2 * SQUARES_BOUND_N + 1) // 6 >= 2**53
    rng = random.Random(0)
    for n in (SQUARES_BOUND_N, SQUARES_BOUND_N + 1, 310000):
        lengths = array("q", rng.choices(range(3), k=n))
        assert least_squares_slope(lengths) == cumsum_slope(lengths)


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
