import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimatch import (
    DetailedError,
    Fcfm,
    Multigraph,
    ProbMeasure,
    alpha,
    alpha_inverse_from_blocks,
    backward_step,
    backward_word_at,
    excursion_decompose,
    forward_word,
    is_admissible_backward,
    is_admissible_forward,
    nu,
    nu_block_mass,
    partner_inverse,
    partner_map,
    project_to_queue,
    reverse_copy,
    simulate,
)
from multimatch.chain import BufferEngine, draw_arrivals
from multimatch.detailed import (
    analyze_excursions,
    barred,
    blocks,
    enumerate_backward_states,
    fcfm_match_partners,
    plain,
    verify_local_balance_empirical,
)

from conftest import random_measure, random_multigraph


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


def test_block_mass_needs_stability(path_loop):
    bad = ProbMeasure.from_dict({"1": "0.3", "2": "0.2", "3": "0.5"})
    with pytest.raises(DetailedError):
        nu_block_mass(path_loop, bad, ("1",))


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


def test_excursions_by_hand(k2):
    excs = excursion_decompose(k2, ["1", "2", "2", "1", "1", "1", "2", "2"])
    assert [e.word for e in excs] == [("1", "2"), ("2", "1"), ("1", "1", "2", "2")]
    assert [e.partner_word for e in excs] == [
        ("2", "1"),
        ("1", "2"),
        ("2", "2", "1", "1"),
    ]
    assert all(e.permutation_valid() for e in excs)
    with pytest.raises(DetailedError):
        excursion_decompose(k2, ["1", "1"])


def test_partner_map_and_inverse(k2, path_loop):
    assert partner_map(k2, ("1", "1", "2", "2")) == ("2", "2", "1", "1")
    assert partner_inverse(k2, partner_map(k2, ("1", "1", "2", "2"))) == ("1", "1", "2", "2")
    with pytest.raises(DetailedError):
        partner_map(k2, ("1", "2", "2", "1"))  # empties in the middle
    with pytest.raises(DetailedError):
        partner_map(k2, ("1", "1"))  # never empties
    assert partner_map(path_loop, ("3", "3")) == ("3", "3")


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
