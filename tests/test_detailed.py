import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimatch import (
    DetailedError,
    Fcfm,
    GraphError,
    MeasureError,
    Multigraph,
    ProbMeasure,
    alpha,
    alpha_inverse_from_blocks,
    backward_step,
    decide,
    excursion_decompose,
    is_admissible_backward,
    nu,
    nu_block_mass,
    partner_inverse,
    partner_map,
    ncond_check,
    reverse_copy,
    simulate,
)
from multimatch import detailed
from multimatch.chain import (
    BufferEngine,
    apply_decision,
    draw_arrival_indices,
    draw_arrivals,
    step,
)
from multimatch.detailed import (
    ExcursionReport,
    LocalBalanceReport,
    PairCheck,
    _match_partners,
    _partner_table,
    _walk,
    analyze_excursions,
    barred,
    blocks,
    fcfm_match_partners,
    plain,
    verify_local_balance_empirical,
)

from conftest import random_measure, random_multigraph
from oracles import (
    backward_word_at,
    enumerate_backward_states,
    forward_word,
    is_admissible_forward,
    project_to_queue,
)


def test_backward_admissibility_rules(path_loop, triangle):
    assert is_admissible_backward(path_loop, ())
    assert not is_admissible_backward(path_loop, (barred("3"), plain("1")))
    assert not is_admissible_backward(path_loop, (plain("1"), plain("2")))
    # an unbarred letter vetoes later copies of its neighbors
    assert not is_admissible_backward(path_loop, (plain("1"), barred("2")))
    assert is_admissible_backward(path_loop, (plain("1"), barred("3"), plain("1")))
    # a self-looped class is adjacent to itself, so it cannot repeat unbarred
    assert not is_admissible_backward(path_loop, (plain("3"), barred("2"), plain("3")))
    assert is_admissible_backward(triangle, (plain("1"), barred("1"), plain("1")))


def test_backward_step_examples(triangle, path_loop):
    # a match turns the oldest compatible letter into the arrival's copy,
    # appends the matched class's copy, and drops the copied prefix
    assert backward_step(triangle, (plain("1"), plain("1")), "2") == (
        plain("1"),
        barred("1"),
    )
    assert backward_step(triangle, (plain("1"),), "2") == ()
    assert backward_step(path_loop, (plain("3"),), "3") == ()  # within-class match
    assert backward_step(path_loop, (plain("1"),), "3") == (plain("1"), plain("3"))
    assert backward_step(path_loop, (), "2") == (plain("2"),)
    # letters are shared, so stored words hold no copies of them
    stepped = backward_step(triangle, (plain("1"), plain("1")), "2")
    assert stepped[0] is plain("1") and stepped[1] is barred("1") is barred("1")


def test_backward_incremental_equals_from_scratch(path_loop, diamond_hub,
                                                  mu_path, mu_diamond):
    for g, mu in ((path_loop, mu_path), (diamond_hub, mu_diamond)):
        rng = random.Random(11)
        arrivals = draw_arrivals(mu, 2000, rng)
        b = ()
        for n, v in enumerate(arrivals, start=1):
            b = backward_step(g, b, v)
            assert b == backward_word_at(g, arrivals, n)
            assert is_admissible_backward(g, b)


def test_backward_projection_is_the_queue_word(diamond_hub, mu_diamond):
    rng = random.Random(12)
    arrivals = draw_arrivals(mu_diamond, 3000, rng)
    engine = BufferEngine(diamond_hub, Fcfm())
    b = ()
    for v in arrivals:
        engine.offer(v, rng)
        b = backward_step(diamond_hub, b, v)
        assert project_to_queue(b) == engine.word()
    assert project_to_queue((plain("1"), barred("3"), plain("1"), barred("2"))) == ("1", "1")
    assert project_to_queue(()) == ()


def test_reverse_copy_involution_and_bijection(path_loop, mu_path):
    assert reverse_copy(()) == ()
    assert reverse_copy((plain("1"), barred("2"))) == (plain("2"), barred("1"))
    rng = random.Random(13)
    arrivals = draw_arrivals(mu_path, 1500, rng)
    b = ()
    for v in arrivals:
        b = backward_step(path_loop, b, v)
        assert reverse_copy(reverse_copy(b)) == b
        assert is_admissible_forward(path_loop, reverse_copy(b))


def test_forward_word_examples(k2):
    arrivals = ["1", "1", "2", "2"]
    # after one arrival the stored item is matched by the first "2" (index 2);
    # the window covers indices 1..2: an unmatched-with-the-past "1", then
    # the copy of the stored class
    assert forward_word(k2, arrivals, 1) == (plain("1"), barred("1"))
    # empty buffer at n=4
    assert forward_word(k2, arrivals, 4) == ()
    # last letter of a determined word is always a copy
    f2 = forward_word(k2, arrivals, 2)
    assert f2 == (barred("1"), barred("1"))
    assert f2[-1][1]
    # horizon too short: the stored item is never matched, word undetermined
    assert forward_word(k2, ["1", "1"], 1) is None


def test_forward_words_along_trajectory(path_loop, mu_path):
    rng = random.Random(14)
    arrivals = draw_arrivals(mu_path, 1200, rng)
    partners = fcfm_match_partners(path_loop, arrivals)
    undetermined = 0
    for n in range(0, 1200, 7):
        f = forward_word(path_loop, arrivals, n, partners)
        if f is None:
            undetermined += 1
            continue
        assert is_admissible_forward(path_loop, f)
        if f:
            assert f[-1][1]  # ends with a copy
    assert undetermined < 40  # only the horizon tail is undetermined


def test_nu_values(path_loop, mu_path):
    assert nu(mu_path, ()) == 1
    assert nu(mu_path, (plain("1"), barred("2"))) == Fraction(1, 5) * Fraction(3, 10)
    rng = random.Random(15)
    arrivals = draw_arrivals(mu_path, 500, rng)
    b = ()
    for v in arrivals:
        b = backward_step(path_loop, b, v)
        assert nu(mu_path, b) == nu(mu_path, reverse_copy(b))


def test_nu_is_multiplicative_over_concatenation(mu_path):
    left = (plain("1"), barred("2"))
    right = (barred("3"), plain("1"), plain("1"))
    assert nu(mu_path, left + right) == nu(mu_path, left) * nu(mu_path, right)
    assert nu(mu_path, left * 3) == nu(mu_path, left) ** 3


def test_nu_geometric_identity(mu_path):
    # nu of a padded star converges geometrically to 1/(1 - nu(alphabet))
    letters = (barred("1"), plain("3"))
    rate = sum(mu_path[c] for c, _ in letters)
    direct = sum(rate**k for k in range(40))
    assert abs(float(direct - 1 / (1 - rate))) < float(rate) ** 39 / float(1 - rate)


def test_block_masses(triangle, path_loop, mu_path):
    mu3 = ProbMeasure.uniform(triangle)
    # singleton block of the triangle: mass mu/(mu(nbhd) - mu(set)) = 1
    assert nu_block_mass(triangle, mu3, ("1",)) == 1
    # blocks of the path-with-loop model, against hand evaluation
    assert nu_block_mass(path_loop, mu_path, ("1",)) == Fraction(1, 5) / Fraction(1, 10)
    assert nu_block_mass(path_loop, mu_path, ("1", "3")) == (
        Fraction(1, 5) / Fraction(1, 10) * (Fraction(1, 2) / Fraction(3, 5))
    )


def test_block_masses_do_not_depend_on_the_hash_seed():
    # a float measure on C9 with one loop: its padding masses are float sums
    script = (
        "from multimatch import Multigraph, ProbMeasure, alpha_inverse_from_blocks\n"
        "nodes = [str(k) for k in range(1, 10)]\n"
        "g = Multigraph.build(nodes, [(a, b) for a, b in zip(nodes, nodes[1:] + nodes[:1])],"
        " ['1'])\n"
        "raw = [1 + 0.037 * k for k in range(9)]\n"
        "mu = ProbMeasure.from_dict({c: x / sum(raw) for c, x in zip(nodes, raw)})\n"
        "print(repr(alpha_inverse_from_blocks(g, mu)))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert float(outputs[0]) > 1


def test_block_mass_needs_stability(path_loop):
    bad = ProbMeasure.from_dict({"1": "0.3", "2": "0.2", "3": "0.5"})
    with pytest.raises(DetailedError):
        nu_block_mass(path_loop, bad, ("1",))


def test_block_mass_refuses_sequences_that_are_not_blocks(path_loop, mu_path):
    # a repeated letter, or two letters compatible in the loop-free subgraph,
    # is not a block, whatever the measure
    for sigma in [("1", "2"), ("3", "3"), ("2", "2"), ("1", "1")]:
        with pytest.raises(DetailedError, match=re.escape(f"{sigma} is not a block")):
            nu_block_mass(path_loop, mu_path, sigma)
    for sigma, value in [((), 1), (("1",), 2), (("1", "3"), Fraction(5, 3)),
                         (("3", "1"), Fraction(5, 24))]:
        assert nu_block_mass(path_loop, mu_path, sigma) == value


def test_block_oracle_equals_the_per_block_route_on_random_models(path_loop):
    # the oracle's integer units against 1 plus the masses nu_block_mass gives
    # block by block; on unstable draws the error names the first failing
    # prefix of the first block, in blocks() order, that has one (the messages
    # of the Fraction route, digested)
    rng = random.Random(5)
    messages = []
    for _ in range(200):
        g = random_multigraph(rng, 6)
        mu = random_measure(rng, g.nodes)
        try:
            total = alpha_inverse_from_blocks(g, mu)
        except DetailedError as exc:
            messages.append(str(exc))
            continue
        assert total == 1 + sum(nu_block_mass(g, mu, sigma) for sigma in blocks(g))
    assert len(messages) == 98
    assert messages[:4] == [
        f"block {sigma} has padding mass {pad} >= 1; the measure violates the stability condition"
        for sigma, pad in [(("1",), "14/11"), (("2", "5"), "45/37"), (("3",), "71/67"),
                           (("2", "3"), "1")]
    ]
    assert hashlib.sha256("\n".join(messages).encode()).hexdigest() == (
        "879f6de8b469fd72223c04f6db573f9c47e877112c2951f021cd5614d64ca8ad")
    unstable = ProbMeasure.from_dict({"1": "2/5", "2": "1/5", "3": "2/5"})
    with pytest.raises(DetailedError, match=re.escape(
            "block ('1',) has padding mass 6/5 >= 1; the measure violates")):
        alpha_inverse_from_blocks(path_loop, unstable)


def test_alpha_identity_between_routes(square_loops, path_loop, diamond_hub,
                                       tripartite_loop, triangle, mu_square_uniform,
                                       mu_path, mu_diamond, mu_tripartite):
    cases = [
        (square_loops, mu_square_uniform),
        (path_loop, mu_path),
        (diamond_hub, mu_diamond),
        (tripartite_loop, mu_tripartite),
        (triangle, ProbMeasure.uniform(triangle)),
    ]
    for g, mu in cases:
        assert alpha_inverse_from_blocks(g, mu) == 1 / alpha(g, mu)


def test_partial_nu_sums_approach_the_total(triangle, path_loop, mu_path):
    # triangle, uniform weights: each of the three blocks is a single letter
    # padded by a two-letter alphabet of mass 2/3, so the mass beyond length
    # L is exactly 3 * (2/3)^L
    mu3 = ProbMeasure.uniform(triangle)
    total = alpha_inverse_from_blocks(triangle, mu3)
    for max_len in range(0, 9):
        partial = sum(
            (nu(mu3, w) for w in enumerate_backward_states(triangle, max_len)),
            Fraction(0),
        )
        assert total - partial == 3 * Fraction(2, 3) ** max_len

    # on the path-with-loop model just check monotone growth below the total
    total = alpha_inverse_from_blocks(path_loop, mu_path)
    previous = Fraction(-1)
    for max_len in range(0, 7):
        partial = sum(
            (nu(mu_path, w) for w in enumerate_backward_states(path_loop, max_len)),
            Fraction(0),
        )
        assert previous < partial < total
        previous = partial


def test_backward_visits_match_stationary_law(square_loops, mu_square_uniform):
    rng = random.Random(16)
    arrivals = draw_arrivals(mu_square_uniform, 400000, rng)
    visits = {}
    b = ()
    for v in arrivals:
        b = backward_step(square_loops, b, v)
        visits[b] = visits.get(b, 0) + 1
    a = alpha(square_loops, mu_square_uniform)
    top = sorted(visits.items(), key=lambda kv: -kv[1])[:8]
    for w, count in top:
        expected = float(a * nu(mu_square_uniform, w))
        assert abs(count / len(arrivals) - expected) / expected < 0.05


def test_empirical_exits_match_exact_backward_kernel(square_loops, mu_square_uniform):
    # the one-step law out of any backward state is exactly computable
    rng = random.Random(17)
    arrivals = draw_arrivals(mu_square_uniform, 200000, rng)
    visits, counts = {}, {}
    b = ()
    for v in arrivals:
        nb = backward_step(square_loops, b, v)
        visits[b] = visits.get(b, 0) + 1
        counts[(b, nb)] = counts.get((b, nb), 0) + 1
        b = nb
    tested = 0
    for w, n in visits.items():
        if n < 2000:
            continue
        for v in square_loops.nodes:
            w2 = backward_step(square_loops, w, v)
            exact = float(
                sum(
                    mu_square_uniform[u]
                    for u in square_loops.nodes
                    if backward_step(square_loops, w, u) == w2
                )
            )
            emp = counts.get((w, w2), 0) / n
            se = (exact * (1 - exact) / n) ** 0.5
            assert abs(emp - exact) < 5 * se + 1e-9
            tested += 1
    assert tested > 20


def test_local_balance_report(square_loops, mu_square_uniform):
    rep = verify_local_balance_empirical(
        square_loops, mu_square_uniform, steps=150000, seed=3, min_visits=400
    )
    assert rep.pairs_tested > 10
    assert rep.max_z < 4.0
    assert rep.fraction_within(3.0) == 1.0
    assert rep.undetermined_forward < 50


def test_pair_check_z_and_an_empty_report():
    # with zero standard error a pair is within any bound when its two sides
    # agree, and beyond every bound when they do not
    assert PairCheck((), (), 0.25, 0.25, 0.0).z == 0.0
    assert PairCheck((), (), 0.25, 0.5, 0.0).z == math.inf
    assert PairCheck((), (), 0.25, 0.5, 0.125).z == 2.0
    # a report that tested no pair has nothing outside any bound
    empty = LocalBalanceReport(steps=10, seed=0, min_visits=1, undetermined_forward=0, checks=())
    assert (empty.pairs_tested, empty.max_z, empty.fraction_within(0.0)) == (0, 0.0, 1.0)


def test_local_balance_counts_undetermined_tail(path_loop, mu_path):
    # near the horizon some forward words are still open; they must be
    # counted and excluded, not guessed
    rep = verify_local_balance_empirical(path_loop, mu_path, steps=4000,
                                         seed=9, min_visits=200)
    assert rep.undetermined_forward > 0
    assert rep.max_z < 4.0


# sha256 of the repr of seeded audit reports, computed with the per-instant
# forward window that predates running the backward step over the partners
PINNED_AUDIT_DIGESTS = {
    "path_loop": "ebe767eeb5c870bd85c5b6bc3b9cbb7fad48a254ba850700228913151397fa82",
    "square_loops": "1c5941a00f3eef8b0a00e3354f4cea47cc4fcc24200916011e2308438a1dbd87",
}


def test_audit_reports_are_pinned(path_loop, mu_path, square_loops, mu_square_uniform):
    runs = {
        # 4000 steps at seed 9 end with undetermined forward words
        "path_loop": (path_loop, mu_path, 4000, 9, 1),
        "square_loops": (square_loops, mu_square_uniform, 10000, 2, 50),
    }
    got = {}
    for name, (g, mu, steps, seed, min_visits) in runs.items():
        rep = verify_local_balance_empirical(g, mu, steps, seed=seed, min_visits=min_visits)
        got[name] = hashlib.sha256(repr(rep).encode()).hexdigest()
    assert got == PINNED_AUDIT_DIGESTS


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=120))
def test_reversed_forward_words_follow_backward_step(seed, steps):
    rng = random.Random(seed)
    g = random_multigraph(rng)
    mu = random_measure(rng, g.nodes)
    # the audit's own trajectory: its arrivals come from Random(seed)
    arrivals = draw_arrivals(mu, steps, random.Random(seed))
    partners = fcfm_match_partners(g, arrivals)
    oracle = [forward_word(g, arrivals, n, partners) for n in range(steps + 1)]
    # determined up to u, the first arrival never matched (or the horizon)
    u = partners.index(None) if None in partners else steps
    assert all(f is not None for f in oracle[: u + 1])
    assert all(f is None for f in oracle[u + 1 :])
    assert oracle[0] == ()
    for n in range(u):
        assert reverse_copy(oracle[n]) == backward_step(
            g, reverse_copy(oracle[n + 1]), arrivals[partners[n]]
        )
    rep = verify_local_balance_empirical(g, mu, steps, seed=seed, min_visits=1)
    assert rep.undetermined_forward == oracle.count(None)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=150))
def test_numbered_walk_equals_a_plain_fold(seed, steps):
    rng = random.Random(seed)
    g = random_multigraph(rng)
    mu = random_measure(rng, g.nodes)
    nodes = sorted(g.nodes)  # the classes of the drawn indices
    # a non-empty start word: the last non-empty word of a short fold from ()
    start = w = ()
    for i in draw_arrival_indices(mu, 20, rng).tolist():
        w = backward_step(g, w, nodes[i])
        start = w or start
    drive = draw_arrival_indices(mu, steps, rng).tolist()
    for w0 in ((), start):
        visits, counts, w = Counter(), Counter(), w0
        for i in drive:
            w2 = backward_step(g, w, nodes[i])
            visits[w] += 1
            counts[w, w2] += 1
            w = w2
        # a walk keeps the words stepped from at least ``least`` times and
        # the transitions from or to them
        met = {w0, *(w2 for _, w2 in counts)}
        for least in (0, 1, 3):
            kept = {x: visits[x] for x in met if visits[x] >= least}
            touched = {key: n for key, n in counts.items() if key[0] in kept or key[1] in kept}
            assert _walk(g, w0, drive, least)[:3] == (kept, touched, w)


def shuffled(g, rng):
    """``g`` from the raw constructor, its classes in a shuffled order."""
    nodes = list(g.nodes)
    while len(nodes) > 1 and nodes == sorted(nodes):
        rng.shuffle(nodes)
    return Multigraph(tuple(nodes), g.edges, g.self_loops)


def check_walk_partners_and_node_order(g, mu, steps, seed):
    """The backward walk's partner table is the FIFO pass's, and a graph with
    its classes out of order gives the same audit reports."""
    arrivals = draw_arrival_indices(mu, steps, random.Random(seed))
    labels = list(map(sorted(g.nodes).__getitem__, arrivals.tolist()))
    table = _partner_table(_walk(g, (), arrivals.tolist(), 1)[3])
    assert table.dtype == np.int64
    assert [None if p == steps else p for p in table.tolist()] == fcfm_match_partners(g, labels)
    raw = shuffled(g, random.Random(seed))
    assert verify_local_balance_empirical(raw, mu, steps, seed, min_visits=1) == (
        verify_local_balance_empirical(g, mu, steps, seed, min_visits=1))
    try:
        expected = analyze_excursions(g, mu, steps, seed)
    except DetailedError:
        with pytest.raises(DetailedError):
            analyze_excursions(raw, mu, steps, seed)
    else:
        assert analyze_excursions(raw, mu, steps, seed) == expected


def test_the_walk_gives_the_partner_table_on_the_fixtures(path_loop, mu_path, triangle,
                                                         tripartite_loop, mu_tripartite,
                                                         diamond_hub, mu_diamond,
                                                         square_loops, mu_square_uniform):
    uniform = ProbMeasure.from_dict({c: Fraction(1, 3) for c in triangle.nodes})
    for g, mu in [(path_loop, mu_path), (triangle, uniform), (tripartite_loop, mu_tripartite),
                  (diamond_hub, mu_diamond), (square_loops, mu_square_uniform)]:
        for seed in (0, 1):
            check_walk_partners_and_node_order(g, mu, 3000, seed)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=300))
def test_the_walk_gives_the_partner_table_on_random_models(seed, steps):
    rng = random.Random(seed)
    g = random_multigraph(rng)
    check_walk_partners_and_node_order(g, random_measure(rng, g.nodes), steps, seed)


def test_excursions_by_hand(k2):
    excs = excursion_decompose(k2, ["1", "2", "2", "1", "1", "1", "2", "2"])
    assert [e.word for e in excs] == [("1", "2"), ("2", "1"), ("1", "1", "2", "2")]
    assert [e.partner_word for e in excs] == [
        ("2", "1"),
        ("1", "2"),
        ("2", "2", "1", "1"),
    ]
    with pytest.raises(DetailedError):
        excursion_decompose(k2, ["1", "1"])
    with pytest.raises(GraphError):
        fcfm_match_partners(k2, ["1", "9"])


def test_partner_map_and_inverse(k2, path_loop):
    assert partner_map(k2, ("1", "1", "2", "2")) == ("2", "2", "1", "1")
    assert partner_inverse(k2, partner_map(k2, ("1", "1", "2", "2"))) == ("1", "1", "2", "2")
    with pytest.raises(DetailedError, match="empties the buffer before its end"):
        partner_map(k2, ("1", "2", "2", "1"))  # empties in the middle
    with pytest.raises(DetailedError, match="does not empty the buffer"):
        partner_map(k2, ("1", "1"))  # never empties
    # a word that empties in the middle and is open at its end reports the open end
    with pytest.raises(DetailedError, match="does not empty the buffer"):
        partner_map(k2, ("1", "2", "1"))
    assert partner_map(k2, ()) == ()
    assert partner_map(path_loop, ("3", "3")) == ("3", "3")


def recount(g, mu, steps, seed):
    """The excursion audit's report, recounted with the public maps: one
    ``excursion_decompose`` of its trajectory and one ``partner_inverse`` per
    excursion."""
    oracle = excursion_decompose(g, draw_arrivals(mu, steps, random.Random(seed)))
    hist = Counter(len(e.word) for e in oracle)
    matched = Counter(c for e in oracle for c in e.partner_word)
    return ExcursionReport(
        n_excursions=len(oracle),
        total_letters=sum(len(e.word) for e in oracle),
        permutation_valid=sum(sorted(e.word) == sorted(e.partner_word) for e in oracle),
        roundtrip_valid=sum(partner_inverse(g, e.partner_word) == e.word for e in oracle),
        length_histogram=dict(sorted(hist.items())),
        matched_class_counts={c: matched[c] for c in g.nodes},
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=150))
def test_partner_map_is_a_bijection_on_random_models(seed, steps):
    rng = random.Random(seed)
    while True:  # a model inside the stability region
        g = random_multigraph(rng)
        mu = random_measure(rng, g.nodes)
        if ncond_check(g, mu).satisfied:
            break
    try:
        expected = recount(g, mu, steps, seed)
    except DetailedError:
        with pytest.raises(DetailedError):
            analyze_excursions(g, mu, steps, seed)
    else:
        assert analyze_excursions(g, mu, steps, seed) == expected
    arrivals = draw_arrivals(mu, steps, rng)
    # the completed prefix ends at the last arrival that leaves the FCFM buffer empty
    w, end = (), 0
    for n, v in enumerate(arrivals, 1):
        w = step(g, Fcfm(), w, v)
        if not w:
            end = n
    if not end:
        with pytest.raises(DetailedError):
            excursion_decompose(g, arrivals)
        return
    excursions = excursion_decompose(g, arrivals)
    assert list(itertools.chain.from_iterable(e.word for e in excursions)) == arrivals[:end]
    for e in excursions:
        assert sorted(e.partner_word) == sorted(e.word)
        assert partner_map(g, e.word) == e.partner_word
        assert partner_inverse(g, partner_map(g, e.word)) == e.word


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=300),
       st.booleans())
def test_partner_pass_follows_the_word_level_fcfm_rule(seed, steps, stable):
    rng = random.Random(seed)
    while True:  # a model on the chosen side of the stability condition
        g = random_multigraph(rng)
        mu = random_measure(rng, g.nodes)
        if ncond_check(g, mu).satisfied == stable:
            break
    arrivals = draw_arrivals(mu, steps, rng)
    # the oracle: FCFM decisions on the queue word, each matched position read
    # as the index of the arrival stored there
    w, held, oracle = (), [], [None] * steps
    for m, v in enumerate(arrivals):
        x = decide(g, Fcfm(), w, v, rng)
        if x is None:
            held.append(m)
        else:
            k = held.pop(x)
            oracle[m], oracle[k] = k, m
        w = apply_decision(w, v, x)
    assert tuple(arrivals[k] for k in held) == w
    assert fcfm_match_partners(g, arrivals) == oracle


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_excursion_audit_equals_the_recount_on_the_fixtures(seed, path_loop, mu_path,
                                                           tripartite_loop, mu_tripartite,
                                                           diamond_hub, mu_diamond,
                                                           square_loops, mu_square_uniform):
    for g, mu in [(path_loop, mu_path), (tripartite_loop, mu_tripartite),
                  (diamond_hub, mu_diamond), (square_loops, mu_square_uniform)]:
        rep = analyze_excursions(g, mu, 4000, seed)
        assert rep == recount(g, mu, 4000, seed)
        assert rep.all_roundtrip_valid
        # plain ints, as `excursions` writes them to JSON: a numpy scalar
        # compares equal above but fails json.dumps and has another repr
        counts = [rep.n_excursions, rep.total_letters, rep.permutation_valid,
                  rep.roundtrip_valid, *rep.length_histogram, *rep.length_histogram.values(),
                  *rep.matched_class_counts.values()]
        assert {type(x) for x in counts} == {int}
        assert list(rep.matched_class_counts) == list(g.nodes)
        for e in excursion_decompose(g, draw_arrivals(mu, 4000, random.Random(seed))):
            assert type(e.word) is tuple and type(e.partner_word) is tuple
            assert all(type(c) is str and c in g.nodes for c in e.word + e.partner_word)


def test_a_stream_that_splits_elsewhere_counts_as_failed_round_trips(monkeypatch, path_loop,
                                                                    mu_path):
    def merged(g, arrivals):
        """FCFM's partner table with the first two excursions rewired into one.

        The first excursion ends at ``a`` (matched with ``k0``) and the second
        starts at ``a + 1`` (matched with ``k1``); pairing ``k0`` with
        ``a + 1`` and ``a`` with ``k1`` keeps the buffer non-empty at ``a``.
        """
        table = _match_partners(g, arrivals)
        a = next(m for m, top in enumerate(itertools.accumulate(table, max)) if top == m)
        k0, k1 = table[a], table[a + 1]
        table[k0], table[a], table[a + 1], table[k1] = a + 1, k1, k0, a
        return table

    def turned(g, arrivals):
        """FCFM's partner table of the word turned by three letters: it pairs
        letters that the stream does not pair, and splits it elsewhere."""
        return _match_partners(g, arrivals[3:] + arrivals[:3])

    def zipped(g, mu, steps, seed, table):
        """The round trips as the audit counted them before it ran on arrays:
        the trajectory split with FCFM's table, the stream split with
        ``table``, and the two excursion lists zipped."""
        monkeypatch.setattr(detailed, "_match_partners", _match_partners)
        excursions = excursion_decompose(g, draw_arrivals(mu, steps, random.Random(seed)))
        stream = [c for e in excursions for c in reversed(e.partner_word)]
        monkeypatch.setattr(detailed, "_match_partners", table)
        try:
            back = excursion_decompose(g, stream)
        except DetailedError:
            back = []
        count = sum(
            inv.word[::-1] == e.partner_word and inv.partner_word[::-1] == e.word
            for e, inv in zip(excursions, back)
        )
        return len(excursions), len(back), count

    def audit(g, mu, steps, seed, table):
        """The audit with FCFM's partner table for its trajectory and
        ``table`` for its stream."""
        calls = []

        def partners(g, arrivals):
            calls.append(arrivals)
            return (_match_partners if len(calls) == 1 else table)(g, arrivals)

        monkeypatch.setattr(detailed, "_match_partners", partners)
        rep = analyze_excursions(g, mu, steps, seed)
        assert len(calls) == 2
        assert rep.all_permutation_valid
        return rep.roundtrip_valid

    n, n_back, count = zipped(path_loop, mu_path, 3000, 0, merged)
    assert n_back == n - 1
    assert 0 < count < n
    assert audit(path_loop, mu_path, 3000, 0, merged) == count
    # a stream that never empties the buffer inverts nothing
    assert audit(path_loop, mu_path, 3000, 0, lambda g, arrivals: [None] * len(arrivals)) == 0
    # tables that do not follow the stream's letters, on random models
    for seed in range(60):
        rng = random.Random(seed)
        while True:  # a model inside the stability region
            g = random_multigraph(rng)
            mu = random_measure(rng, g.nodes)
            if ncond_check(g, mu).satisfied:
                break
        steps = rng.randrange(1, 3000)
        try:
            count = zipped(g, mu, steps, seed, turned)[2]
        except DetailedError:  # no complete excursion in the trajectory
            continue
        assert audit(g, mu, steps, seed, turned) == count


# sha256 of the repr of seeded excursion reports, computed with one inverse
# map per excursion before the round trip became one split of a stream
PINNED_EXCURSION_DIGESTS = {
    "path_loop": "79cee25fab58a43056ca56a47b3623b2996ed168650f4af4599d30127b6ef6cb",
    "tripartite_loop": "f072284ce139fff97dfbd4f80ee7b334caaa9b3271bbbacaac14362936545f7c",
    "diamond_hub_loop": "4865222fc785fd31d857d99a5be86b7eb1a40412ff33255817e7c5ccce782bb2",
    "square_loops": "245d45d73caefbb7358c7a763b16211c8b8486d2d3d0a496dab47b219d00a093",
}


def test_excursion_reports_are_pinned(path_loop, mu_path, tripartite_loop, mu_tripartite,
                                      diamond_hub, mu_diamond, square_loops,
                                      mu_square_uniform):
    runs = {
        "path_loop": (path_loop, mu_path, 40000, 4),
        "tripartite_loop": (tripartite_loop, mu_tripartite, 20000, 5),
        "diamond_hub_loop": (diamond_hub, mu_diamond, 20000, 6),
        "square_loops": (square_loops, mu_square_uniform, 20000, 7),
    }
    got = {
        name: hashlib.sha256(repr(analyze_excursions(g, mu, steps, seed)).encode()).hexdigest()
        for name, (g, mu, steps, seed) in runs.items()
    }
    assert got == PINNED_EXCURSION_DIGESTS


def test_analyze_excursions(path_loop, mu_path):
    rep = analyze_excursions(path_loop, mu_path, steps=40000, seed=4)
    assert rep.all_permutation_valid
    assert rep.all_roundtrip_valid
    assert rep.total_letters == sum(k * c for k, c in rep.length_histogram.items())
    assert rep.total_letters > 30000
    for c in path_loop.nodes:
        freq = rep.matched_class_counts[c] / rep.total_letters
        m = float(mu_path[c])
        sigma = (m * (1 - m) / rep.total_letters) ** 0.5
        assert abs(freq - m) < 6 * sigma
    # a measure that misses a class of the graph is rejected before the run
    with pytest.raises(MeasureError, match="missing=\\['3'\\]"):
        analyze_excursions(path_loop, ProbMeasure.from_dict({"1": "1/2", "2": "1/2"}), 100)
