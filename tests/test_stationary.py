import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest

from multimatch import (
    Fcfm,
    Multigraph,
    ProbMeasure,
    StationaryError,
    alpha,
    balance_residual,
    enumerate_states,
    finite_stationary,
    kernel_row,
    match_the_longest,
    product_form,
    solve_finite_chain,
)
from multimatch.detailed import alpha_inverse_from_blocks
from multimatch.measures import ncond_check

from conftest import policy_kinds, random_measure, random_multigraph



def test_alpha_square_uniform(square_loops, mu_square_uniform):
    assert alpha(square_loops, mu_square_uniform) == Fraction(3, 8)


def test_alpha_square_against_closed_form(square_loops):
    # the worked closed form: 1/alpha = 1 + sum_i mu(i)(1+mu(opp))/(1-mu(opp))
    mu = ProbMeasure.from_dict({"1": "0.1", "2": "0.2", "3": "0.3", "4": "0.4"})
    m = mu.weights
    opposite = {"1": "3", "3": "1", "2": "4", "4": "2"}
    bracket = 1 + sum(
        m[i] * (1 + m[opposite[i]]) / (1 - m[opposite[i]]) for i in "1234"
    )
    assert alpha(square_loops, mu) == 1 / bracket


def test_alpha_triangle_uniform(triangle):
    # hand value: each ordered singleton contributes mu/(mu(nbhd)-mu(set)),
    # i.e. (1/3)/(2/3-1/3)=1 and pairs are not independent, so 1/alpha=4.
    mu = ProbMeasure.uniform(triangle)
    a = alpha(triangle, mu)
    assert a == Fraction(1, 4)
    # independent confirmation: the normalized product form has total mass 1
    dist = product_form(triangle, mu)
    inside = dist.truncated_mass(40)
    assert 1 - inside < Fraction(1, 2) ** 38
    # and satisfies global balance exactly
    residual, _ = balance_residual(triangle, mu, 10)
    assert residual == 0.0


def test_alpha_path_loop_against_closed_form(path_loop, mu_path):
    m1, m2, m3 = (Fraction(x) for x in ("0.2", "0.3", "0.5"))
    bracket = (
        1
        + m1 / (m2 - m1)
        + m2 / (1 - 2 * m2)
        + m3 / (1 - m1)
        + (m1 / (m2 - m1)) * (m3 / (1 - 2 * m1))
        + (m3 / (1 - m1)) * (m1 / (1 - 2 * m1))
    )
    assert alpha(path_loop, mu_path) == 1 / bracket == Fraction(4, 25)


def test_alpha_requires_stabilizable_inputs(path_loop, k2):
    with pytest.raises(StationaryError):
        alpha(k2, ProbMeasure.uniform(k2))  # bipartite graph
    with pytest.raises(StationaryError):
        alpha(path_loop, ProbMeasure.from_dict({"1": "0.3", "2": "0.2", "3": "0.5"}))


def test_alpha_matches_block_oracle_on_random_models():
    # the set recursion against the enumeration over ordered blocks, and on
    # finite (all-loop) models against the exact finite-chain solver; its
    # stability verdict against ncond_check, on unstable draws and on float
    # copies of the stable ones
    rng = random.Random(3)
    done = finite = unstable = 0
    while done < 120:
        g = random_multigraph(rng, 6)
        mu = random_measure(rng, g.nodes)
        if g.is_bipartite()[0]:
            continue
        report = ncond_check(g, mu)
        if not report.satisfied:
            message = f"margin {report.margin}, witness {sorted(report.witness)}"
            with pytest.raises(StationaryError, match=re.escape(message)):
                alpha(g, mu)
            unstable += 1
            continue
        a = alpha(g, mu)
        assert a == 1 / alpha_inverse_from_blocks(g, mu)
        mu_float = ProbMeasure({c: float(p) for c, p in mu.weights.items()})
        if ncond_check(g, mu_float).satisfied:
            assert abs(alpha(g, mu_float) - float(a)) <= 1e-9
        else:
            with pytest.raises(StationaryError):
                alpha(g, mu_float)
        if not g.v2:
            assert abs(solve_finite_chain(g, mu, Fcfm())[()] - float(a)) <= 1e-9
            finite += 1
        done += 1
    assert finite > 0 and unstable > 0


def _odd_cycle(n):
    nodes = [str(k) for k in range(1, n + 1)]
    return Multigraph.build(nodes, list(zip(nodes, nodes[1:] + nodes[:1])), ["1"])


def test_alpha_on_odd_cycles_is_pinned():
    # C5..C11 with one loop and the uniform measure: 1/alpha by the set
    # recursion and by the block oracle, against fixed values; and the two
    # routes on C9 under a skewed exact measure
    pins = {5: Fraction(110, 9), 7: Fraction(1252, 27), 9: Fraction(14486, 81),
            11: Fraction(169180, 243)}
    for n, value in pins.items():
        g = _odd_cycle(n)
        mu = ProbMeasure.uniform(g)
        assert 1 / alpha(g, mu) == value
        assert alpha_inverse_from_blocks(g, mu) == value
    g = _odd_cycle(9)
    raw = [100 + 7 * k for k in range(9)]
    mu = ProbMeasure.from_dict({c: Fraction(x, sum(raw)) for c, x in zip(g.nodes, raw)})
    assert alpha(g, mu) == 1 / alpha_inverse_from_blocks(g, mu)


FLOAT_PINS = {
    # model: (alpha, ncond margin, ncond witness, alpha_inverse_from_blocks),
    # each as the repr of the float result
    "path_loop": ("0.16", "0.09999999999999998", ["1"], "6.2499999999999964"),
    "tripartite_loop": ("0.23561859732072493", "0.19999999999999996", ["2", "4"],
                        "4.2441471571906355"),
    "diamond_hub_loop": ("0.11741682974559693", "0.10000000000000009", ["1", "3"],
                         "8.516666666666664"),
    "c9": ("0.004260540460792094", "0.08246225319396044", ["3", "5", "7", "9"],
           "234.7120064232623"),
}


def test_float_results_are_pinned():
    # float copies of the fixture measures, and the C9 float measure of
    # test_block_masses_do_not_depend_on_the_hash_seed: alpha, the NCOND report
    # and the block oracle, bit for bit
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    models = {}
    for name in ("path_loop", "tripartite_loop", "diamond_hub_loop"):
        g = Multigraph.loads((fixtures / f"{name}.graph.json").read_text(encoding="utf-8"))
        mu = ProbMeasure.loads((fixtures / f"{name}.mu.json").read_text(encoding="utf-8"))
        models[name] = g, ProbMeasure({c: float(p) for c, p in mu.weights.items()})
    nodes = [str(k) for k in range(1, 10)]
    raw = [1 + 0.037 * k for k in range(9)]
    models["c9"] = (Multigraph.build(nodes, list(zip(nodes, nodes[1:] + nodes[:1])), ["1"]),
                    ProbMeasure.from_dict({c: x / sum(raw) for c, x in zip(nodes, raw)}))
    for name, (g, mu) in models.items():
        report = ncond_check(g, mu)
        got = (repr(alpha(g, mu)), repr(report.margin), sorted(report.witness),
               repr(alpha_inverse_from_blocks(g, mu)))
        assert got == FLOAT_PINS[name], name


def test_pi_values_square(square_loops, mu_square_uniform):
    dist = product_form(square_loops, mu_square_uniform)
    assert dist.pi(()) == Fraction(3, 8)
    assert dist.pi(("1",)) == Fraction(1, 8)
    assert dist.pi(("1", "3")) == Fraction(1, 32)


def test_pi_is_order_sensitive(square_loops):
    mu = ProbMeasure.from_dict({"1": "0.1", "2": "0.2", "3": "0.3", "4": "0.4"})
    dist = product_form(square_loops, mu)
    a = dist.pi(("1", "3"))
    b = dist.pi(("3", "1"))
    assert a != b
    assert a == dist.alpha * mu["1"] / (1 - mu["3"]) * mu["3"]
    assert b == dist.alpha * mu["3"] / (1 - mu["1"]) * mu["1"]


def test_pi_pattern_path_loop(path_loop, mu_path):
    dist = product_form(path_loop, mu_path)
    m1, m2, m3 = mu_path["1"], mu_path["2"], mu_path["3"]
    for k in range(4):
        assert dist.pi(("1",) * k) == dist.alpha * (m1 / m2) ** k
        assert dist.pi(("2",) * k) == dist.alpha * (m2 / (1 - m2)) ** k
    for k in range(4):
        for r in range(k + 1):
            w = ("1",) * r + ("3",) + ("1",) * (k - r)
            expected = (
                dist.alpha
                * (m1 / m2) ** r
                * (m3 / (1 - m1))
                * (m1 / (1 - m1)) ** (k - r)
            )
            assert dist.pi(w) == expected


def test_finite_stationary_square(square_loops, mu_square_uniform):
    table = finite_stationary(square_loops, mu_square_uniform)
    assert table[()] == Fraction(3, 8)
    for c in "1234":
        assert table[(c,)] == Fraction(1, 8)
    for w in [("1", "3"), ("3", "1"), ("2", "4"), ("4", "2")]:
        assert table[w] == Fraction(1, 32)
    assert sum(table.values()) == 1


def test_finite_stationary_two_looped_nodes():
    g = Multigraph.build(["1", "2"], [("1", "2")], ["1", "2"])
    p = Fraction(3, 10)
    mu = ProbMeasure.from_dict({"1": p, "2": 1 - p})
    table = finite_stationary(g, mu)
    assert table[()] == Fraction(1, 2)
    assert table[("1",)] == p / 2
    assert table[("2",)] == (1 - p) / 2
    assert solve_finite_chain(g, mu, Fcfm()) == table


def test_finite_stationary_rejects_unbounded_models(path_loop, mu_path):
    with pytest.raises(StationaryError):
        finite_stationary(path_loop, mu_path)
    with pytest.raises(StationaryError, match="infinite"):
        solve_finite_chain(path_loop, mu_path, Fcfm())
    with pytest.raises(StationaryError, match="not closed"):
        solve_finite_chain(path_loop, mu_path, Fcfm(), max_len=3)


def test_finite_matches_linear_solve(square_loops):
    for raw in ({"1": "0.25", "2": "0.25", "3": "0.25", "4": "0.25"},
                {"1": "0.1", "2": "0.2", "3": "0.3", "4": "0.4"}):
        mu = ProbMeasure.from_dict(raw)
        assert solve_finite_chain(square_loops, mu, Fcfm()) == finite_stationary(square_loops, mu)


def test_linear_solve_other_policy_is_a_distribution(square_loops, mu_square_uniform):
    solved = solve_finite_chain(square_loops, mu_square_uniform, match_the_longest())
    assert sum(solved.values()) == 1
    assert all(v > 0 for v in solved.values())


def test_solved_law_of_every_policy_on_random_finite_models():
    # the exact law of every policy kind on random all-looped models: a fixed
    # point of the kernel rows that sums to 1, the product form under FCFM,
    # and within 1e-12 of the law solved from a float copy of the measure
    rng = random.Random(35)
    sizes = []
    for _ in range(20):
        h = random_multigraph(rng, 5)
        g = Multigraph.build(h.nodes, h.edges, h.nodes)
        mu = random_measure(rng, g.nodes)
        mu_float = ProbMeasure({c: float(p) for c, p in mu.weights.items()})
        for name, policy in policy_kinds(g).items():
            pi = solve_finite_chain(g, mu, policy)
            assert sum(pi.values()) == 1, name
            inflow = dict.fromkeys(pi, Fraction(0))
            for w, p in pi.items():
                for t, q in kernel_row(g, mu, policy, w).items():
                    inflow[t] += p * q
            assert inflow == pi, name
            if name == "fcfm":
                assert pi == finite_stationary(g, mu)
            floats = solve_finite_chain(g, mu_float, policy)
            assert max(abs(floats[w] - pi[w]) for w in pi) <= 1e-12, name
        sizes.append(len(pi))
    assert max(sizes) > 20


def test_exact_stationary_layer_does_not_load_numpy():
    script = (
        "import sys\n"
        "from multimatch import Fcfm, Multigraph, ProbMeasure, alpha, balance_residual, "
        "finite_stationary, solve_finite_chain\n"
        "g = Multigraph.build(['1', '2', '3', '4'], "
        "[('1', '2'), ('2', '3'), ('3', '4'), ('4', '1')], ['1', '2', '3', '4'])\n"
        "mu = ProbMeasure.uniform(g)\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "for f in (lambda: alpha(g, mu), lambda: finite_stationary(g, mu), "
        "lambda: balance_residual(g, mu, 4), lambda: solve_finite_chain(g, mu, Fcfm())):\n"
        "    f()\n"
        "    assert 'numpy' not in sys.modules, f\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_balance_residuals_are_exact(path_loop, mu_path, square_loops,
                                     mu_square_uniform, diamond_hub, mu_diamond):
    reported = []
    assert balance_residual(path_loop, mu_path, 8, lambda w, r: reported.append(w))[0] == 0.0
    # one report per word up to the length, in (length, word) order
    assert reported == enumerate_states(path_loop, 8)
    assert balance_residual(square_loops, mu_square_uniform, 4)[0] == 0.0
    assert balance_residual(diamond_hub, mu_diamond, 6)[0] == 0.0


def test_truncated_mass(square_loops, mu_square_uniform, path_loop, mu_path):
    dist = product_form(square_loops, mu_square_uniform)
    assert dist.truncated_mass(len(square_loops.nodes)) == 1
    assert dist.truncated_mass(0) == dist.alpha

    dist3 = product_form(path_loop, mu_path)
    masses = [dist3.truncated_mass(k) for k in range(8)]
    assert all(a < b for a, b in zip(masses, masses[1:]))
    assert masses[0] == dist3.alpha
    assert 1 - masses[-1] < Fraction(1, 2)


def test_table_equals_pi_word_by_word(square_loops, mu_square_uniform, diamond_hub,
                                      mu_diamond, path_loop, mu_path, tripartite_loop,
                                      mu_tripartite, triangle):
    # the prefix recursion against the per-word oracle: same words in the same
    # order, equal values of equal types, under the exact measure and under a
    # float copy of it, on the fixtures and on seeded stable random models
    models = [(square_loops, mu_square_uniform, 4), (diamond_hub, mu_diamond, 5),
              (path_loop, mu_path, 6), (tripartite_loop, mu_tripartite, 5),
              (triangle, ProbMeasure.uniform(triangle), 6)]
    rng = random.Random(5)
    while len(models) < 25:
        g = random_multigraph(rng)
        mu = random_measure(rng, g.nodes)
        if not g.is_bipartite()[0] and ncond_check(g, mu).satisfied:
            models.append((g, mu, 4))
    floats = 0
    for g, mu, max_len in models:
        mu_float = ProbMeasure({c: float(p) for c, p in mu.weights.items()})
        for m in (mu, mu_float) if ncond_check(g, mu_float).satisfied else (mu,):
            dist = product_form(g, m)
            table = dist.table(max_len)
            oracle = {w: dist.pi(w) for w in enumerate_states(g, max_len)}
            assert list(table.items()) == list(oracle.items())
            assert [type(p) for p in table.values()] == [type(p) for p in oracle.values()]
            assert dist.truncated_mass(max_len) == sum(table.values())
            floats += m is mu_float
    assert floats > 20


def test_balance_residual_takes_one_neighborhood_mass_per_letter_set(tripartite_loop,
                                                                    mu_tripartite):
    # alpha's masses (none: it reads the subset table's integer gaps), then
    # one per distinct nonempty letter set of the words up to length 9:
    # 0 + 7, where pi word by word took 8,583.  The exact sweep takes its
    # masses in integer units and calls mass not at all; the float measure
    # still reads the prefix table, so it is the run that counts masses.
    def count_masses(run):
        with patch.object(ProbMeasure, "mass", autospec=True,
                          side_effect=ProbMeasure.mass) as masses:
            run()
        return masses.call_count

    mu_float = ProbMeasure({c: float(p) for c, p in mu_tripartite.weights.items()})
    letter_sets = {frozenset(w) for w in enumerate_states(tripartite_loop, 9) if w}
    for mu in (mu_tripartite, mu_float):
        normalizer = count_masses(lambda: product_form(tripartite_loop, mu))
        calls = count_masses(lambda: balance_residual(tripartite_loop, mu, 8))
        assert calls <= normalizer + len(letter_sets)


def test_alpha_vanishes_at_the_region_boundary(path_loop):
    # let mu(2) approach 1/2 from below with mu(1) fixed small
    gaps = []
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        m2 = Fraction(1, 2) - eps
        mu = ProbMeasure.from_dict({"1": Fraction(1, 10), "2": m2,
                                    "3": 1 - m2 - Fraction(1, 10)})
        gaps.append(alpha(path_loop, mu))
    assert gaps[0] > gaps[1] > gaps[2]
    assert float(gaps[2]) < 0.01


def test_product_form_matches_fcfm_chain_everywhere(path_loop, mu_path):
    # direct stationarity: pi(w) = sum_u pi(u) P(u, w) for many states,
    # computed through the kernel rather than the predecessor helper
    dist = product_form(path_loop, mu_path)
    states = enumerate_states(path_loop, 5)
    rows = {u: kernel_row(path_loop, mu_path, Fcfm(), u) for u in states}
    for w in enumerate_states(path_loop, 4):
        inflow = sum((row.get(w, Fraction(0)) * dist.pi(u) for u, row in rows.items()),
                     Fraction(0))
        assert inflow == dist.pi(w)


def test_balance_residual_rejects_a_negative_length(path_loop, mu_path):
    # max_len -1 would check no word at all and still report residual 0
    for max_len in (-1, -5):
        with pytest.raises(StationaryError):
            balance_residual(path_loop, mu_path, max_len)
