import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multimatch import (
    ChainError,
    DriftError,
    Fcfm,
    Lcfm,
    Linear,
    MeasureError,
    Multigraph,
    Priority,
    ProbMeasure,
    Quadratic,
    RandomPolicy,
    V2Favorable,
    balance_residual,
    enumerate_states,
    exact_drift,
    extend_measure,
    extend_policy,
    kernel_row,
    ldelta,
    match_the_longest,
    match_the_shortest,
    ncond_check,
    product_form,
    special_sets,
    verify_linear_chain,
    verify_ppartite_bound,
    verify_quadratic_identity,
)
from multimatch.drift import _MEMO, _int_drifts, _laws
from multimatch.chain import apply_decision
from multimatch.policies import decision_distribution, word_counts

from conftest import policy_kinds, random_admissible_word, random_measure, random_multigraph


def lyapunov_battery(g, mu):
    delta = ncond_check(g, mu).margin
    fns = [Quadratic(), Linear()]
    if g.v1:
        fns.append(ldelta(g, mu, delta))
    return fns


def policy_battery(g):
    prio = Priority.from_lists({v: sorted(g.adjacency[v]) for v in g.nodes})
    return [Fcfm(), prio, match_the_longest(), match_the_shortest()]


def test_lyapunov_values_zero_only_at_empty(path_loop, mu_path):
    for fn in lyapunov_battery(path_loop, mu_path):
        assert fn.value(word_counts(())) == 0
        for w in enumerate_states(path_loop, 4):
            if w:
                assert fn.value(word_counts(w)) > 0


def test_hand_drifts_on_the_single_edge(k2):
    p = Fraction(3, 10)
    mu = ProbMeasure.from_dict({"1": p, "2": 1 - p})
    dL = exact_drift(k2, mu, Fcfm(), ("1",), Linear()).drift
    assert dL == 2 * p - 1
    dQ = exact_drift(k2, mu, Fcfm(), ("1",), Quadratic()).drift
    assert dQ == 4 * p - 1


def test_drift_from_empty_is_nonnegative(path_loop, mu_path):
    for fn in lyapunov_battery(path_loop, mu_path):
        report = exact_drift(path_loop, mu_path, Fcfm(), (), fn)
        assert report.drift > 0
        expected = sum(
            mu_path[v] * fn.value(word_counts((v,))) for v in path_loop.nodes
        )
        assert report.drift == expected


def test_drift_decomposition_and_kernel_agreement(diamond_hub, mu_diamond):
    # the per-class decomposition must also match a computation through the
    # transition kernel, an independent path to the same expectation
    for pol in policy_battery(diamond_hub):
        for w in enumerate_states(diamond_hub, 3):
            for fn in lyapunov_battery(diamond_hub, mu_diamond):
                rep = exact_drift(diamond_hub, mu_diamond, pol, w, fn)
                assert sum(rep.per_class.values()) == rep.drift
                base = fn.value(word_counts(w))
                via_kernel = sum(
                    p * (fn.value(word_counts(t)) - base)
                    for t, p in kernel_row(diamond_hub, mu_diamond, pol, w).items()
                )
                assert via_kernel == rep.drift


def test_special_sets(path_loop, triangle):
    assert special_sets(path_loop, ("3",)) == (frozenset({"3"}), frozenset())
    assert special_sets(path_loop, ()) == (frozenset(), frozenset({"3"}))
    assert special_sets(triangle, ("1",)) == (frozenset(),) * 2


def test_quadratic_identity_residuals(path_loop, diamond_hub, mu_path, mu_diamond):
    for g, mu in ((path_loop, mu_path), (diamond_hub, mu_diamond)):
        for pol in policy_battery(g):
            for w in enumerate_states(g, 4):
                assert verify_quadratic_identity(g, mu, pol, w) == 0.0


def test_quadratic_identity_uneven_split(path_loop, mu_path):
    split = {"3": Fraction(7, 10)}
    for w in enumerate_states(path_loop, 4):
        assert verify_quadratic_identity(path_loop, mu_path, Fcfm(), w, split) == 0.0


def test_linear_chain_residuals_and_ordering(path_loop, diamond_hub, mu_path, mu_diamond):
    for g, mu in ((path_loop, mu_path), (diamond_hub, mu_diamond)):
        bmap = g.minimal_blowup()
        mu_hat = extend_measure(mu, bmap)
        for pol in policy_battery(g):
            pol_hat = extend_policy(pol, bmap)
            for w in enumerate_states(g, 4):
                left, right = verify_linear_chain(g, mu, pol, w)
                assert left == 0.0 and right == 0.0
                # the implied ordering: multigraph <= blown drift
                d_multi = exact_drift(g, mu, pol, w, Linear()).drift
                d_blown = exact_drift(bmap.blown, mu_hat, pol_hat, w, Linear()).drift
                assert d_multi <= d_blown
                stored, _ = special_sets(g, w)
                if stored:
                    assert d_blown - d_multi == 2 * mu_hat.mass(stored) > 0


def test_identities_trivial_without_loops(triangle):
    mu = ProbMeasure.uniform(triangle)
    bmap = triangle.minimal_blowup()
    for w in enumerate_states(triangle, 4):
        assert verify_quadratic_identity(triangle, mu, Fcfm(), w) == 0.0
        assert verify_linear_chain(triangle, mu, Fcfm(), w) == (0.0, 0.0)
        d = exact_drift(triangle, mu, Fcfm(), w, Quadratic()).drift
        d_hat = exact_drift(bmap.blown, mu, Fcfm(), w, Quadratic()).drift
        assert d == d_hat


def test_ppartite_bound_path_loop(path_loop, mu_path):
    prio = Priority.from_lists({"1": ["2"], "2": ["1", "3"], "3": ["2", "3"]})
    report = verify_ppartite_bound(path_loop, mu_path, V2Favorable(prio), max_len=6)
    assert report.ok
    assert report.parts == 2
    assert report.delta == ncond_check(path_loop, mu_path).margin
    assert report.states_checked > 0 and not report.violations


def test_ppartite_bound_tripartite(tripartite_loop, mu_tripartite):
    prio = Priority.from_lists(
        {
            "1": ["2", "3", "4", "5"],
            "2": ["1", "3", "5"],
            "3": ["1", "2", "4"],
            "4": ["1", "3", "5"],
            "5": ["1", "2", "4", "5"],
        }
    )
    for inner in (prio, RandomPolicy()):
        report = verify_ppartite_bound(
            tripartite_loop, mu_tripartite, V2Favorable(inner), max_len=5
        )
        assert report.ok and report.parts == 3


def test_ldelta_drift_closed_form(tripartite_loop, mu_tripartite):
    # on a complete multipartite model with a favored-class policy, the
    # reweighted-linear drift at any state storing a non-looped class equals
    #   - w1 * mu(V1 stored) + w1 * mu(V1 in the part, unstored)
    #   + mu(part's non-looped classes) - mu(outside the part)
    # with w1 = delta / (2 mu(V1)); the part is the one holding the support
    g, mu = tripartite_loop, mu_tripartite
    parts = g.complete_multipartite_decomposition()
    delta = ncond_check(g, mu).margin
    w1 = delta / (2 * mu.mass(g.v1))
    fn = ldelta(g, mu, delta)
    prio = Priority.from_lists(
        {
            "1": ["2", "3", "4", "5"],
            "2": ["1", "3", "5"],
            "3": ["1", "2", "4"],
            "4": ["1", "3", "5"],
            "5": ["1", "2", "4", "5"],
        }
    )
    for pol in (V2Favorable(prio), V2Favorable(RandomPolicy())):
        for w in enumerate_states(g, 5):
            support = set(w)
            if not (support & g.v2):
                continue
            part = next(p for p in parts if support <= p)
            expected = (
                -w1 * mu.mass(g.v1 & support)
                + w1 * mu.mass((g.v1 & part) - support)
                + mu.mass(part & g.v2)
                - mu.mass(frozenset(g.nodes) - part)
            )
            assert exact_drift(g, mu, pol, w, fn).drift == expected


def test_ppartite_bound_rejects_bad_inputs(path_loop, mu_path):
    p4 = Multigraph.build(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")])
    with pytest.raises(DriftError):
        verify_ppartite_bound(p4, ProbMeasure.uniform(p4), RandomPolicy(), max_len=3)
    bad = ProbMeasure.from_dict({"1": "0.3", "2": "0.2", "3": "0.5"})
    with pytest.raises(DriftError):
        verify_ppartite_bound(path_loop, bad, V2Favorable(RandomPolicy()), max_len=3)
    with pytest.raises(DriftError):
        ldelta(Multigraph.build(["1", "2"], [("1", "2")]), mu_path, Fraction(1, 10))


def test_ldelta_needs_a_finite_delta(square_loops, mu_square_uniform):
    # every class of square_loops is looped, so no independent set avoids
    # the looped classes and the stability margin is +inf: that is no delta
    # for L_delta, while the bound, with no word storing a non-looped class,
    # checks nothing and holds
    assert ncond_check(square_loops, mu_square_uniform).margin == math.inf
    for delta in (math.inf, math.nan, 0, Fraction(-1, 2)):
        with pytest.raises(DriftError):
            ldelta(square_loops, mu_square_uniform, delta)
    report = verify_ppartite_bound(square_loops, mu_square_uniform, V2Favorable(Fcfm()), 3)
    assert report.ok and report.states_checked == 0


def test_negative_quadratic_drift_beyond_threshold(path_loop, diamond_hub, mu_path):
    # with a positive-beta max-weight rule inside the stability region, the
    # quadratic drift turns negative past a model-specific length; the cut
    # length depends on how deep the measure sits in the region, so the
    # diamond case uses the degree measure to keep the scan window small
    from multimatch import mu_deg

    cases = [(path_loop, mu_path), (diamond_hub, mu_deg(diamond_hub))]
    for g, mu in cases:
        worst = {}  # the largest drift per state length, over the window up to 7
        for w in enumerate_states(g, 7):
            d = exact_drift(g, mu, match_the_longest(), w, Quadratic()).drift
            worst[len(w)] = max(d, worst.get(len(w), d))
        assert max(worst) == 7
        cut = min(n for n in range(8) if all(d < 0 for k, d in worst.items() if k > n))
        assert cut < 7  # every state longer than the cut drifts strictly down


def test_longer_random_states_keep_identities(path_loop, mu_path):
    rng = random.Random(20)
    for length in (5, 6, 7):
        for _ in range(10):
            w = random_admissible_word(rng, path_loop, length)
            if w is None:
                continue
            assert verify_quadratic_identity(path_loop, mu_path, Fcfm(), w) == 0.0
            assert verify_linear_chain(path_loop, mu_path, Fcfm(), w) == (0.0, 0.0)


def identity_battery(g):
    """The six policies of ``multimatch verify-identities``."""
    prio = Priority.from_lists({v: sorted(g.adjacency[v]) for v in g.nodes})
    return [Fcfm(), Lcfm(), RandomPolicy(), prio, match_the_longest(), match_the_shortest()]


def kernel_drift(g, mu, pol, w, fn):
    """The drift as sum_u kernel_row(w)[u] * (F(u) - F(w)), an independent oracle."""
    base = fn.value(word_counts(w))
    row = kernel_row(g, mu, pol, w)
    return sum((p * (fn.value(word_counts(u)) - base) for u, p in row.items()), Fraction(0))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_shared_passes_match_the_kernel_on_random_models(seed):
    rng = random.Random(seed)
    models = []
    for _ in range(2):
        g = random_multigraph(rng, 5)
        mu = random_measure(rng, g.nodes)
        words = [random_admissible_word(rng, g, k) for k in range(5)]
        uneven = {i: Fraction(rng.randrange(1, 10), 10) for i in g.v1}
        models.append((g, mu, [w for w in words if w is not None], uneven))
    for g, mu, words, uneven in models:
        fns = [Quadratic(), Linear()] + ([ldelta(g, mu, Fraction(1, 10))] if g.v1 else [])
        for pol in identity_battery(g):
            for w in words:
                for split in (None, uneven):
                    assert verify_quadratic_identity(g, mu, pol, w, split) == 0.0
                    assert verify_linear_chain(g, mu, pol, w, split) == (0.0, 0.0)
                    # the drifts themselves: a slip that scaled all three
                    # graphs alike would still cancel in the residuals
                    m = _MEMO
                    for h, nu, p in ((g, mu, pol), (m["bmap"].blown, m["mu_hat"], m["pol_hat"]),
                                     (m["check"], mu, m["pol_check"])):
                        sums = _int_drifts(_laws(h, p, w), nu, word_counts(w))
                        q, l, d = sums[-1]
                        assert (Fraction(q, d), Fraction(l, d)) == (
                            kernel_drift(h, nu, p, w, Quadratic()), kernel_drift(h, nu, p, w, Linear()))
                        # and each class's share, its running sum minus the one before
                        assert sums[0] == (0, 0, 1) and len(sums) == len(h.nodes) + 1
                        for v, (q0, l0, d0), (q, l, d) in zip(h.nodes, sums, sums[1:]):
                            assert d % d0 == 0
                            shares = Fraction(q, d) - Fraction(q0, d0), Fraction(l, d) - Fraction(l0, d0)
                            assert shares == (class_drift(h, nu, p, w, Quadratic(), v),
                                              class_drift(h, nu, p, w, Linear(), v))
                for fn in fns:
                    rep = exact_drift(g, mu, pol, w, fn)
                    assert rep.drift == kernel_drift(g, mu, pol, w, fn)
                    assert sum(rep.per_class.values(), Fraction(0)) == rep.drift

    # the memos cannot go stale: linear before quadratic, models interleaved
    # (the other graph, and this one with another measure and the battery
    # reversed), and equal but distinct splits give the same values
    (g, mu, words, uneven), (h, mu_h, words_h, _) = models
    nu = random_measure(rng, g.nodes)
    batteries = zip(identity_battery(g), reversed(identity_battery(g)), identity_battery(h))
    for pol, other, pol_h in batteries:
        for w in words:
            assert verify_linear_chain(g, mu, pol, w, dict(uneven)) == (0.0, 0.0)
            assert verify_quadratic_identity(h, mu_h, pol_h, words_h[-1]) == 0.0
            assert verify_linear_chain(g, nu, other, w) == (0.0, 0.0)
            assert verify_quadratic_identity(g, mu, pol, w, dict(uneven)) == 0.0
            for m, p in ((nu, pol), (mu, other), (mu, pol)):
                assert exact_drift(g, m, p, w, Quadratic()).drift == kernel_drift(g, m, p, w, Quadratic())
    # and every key is read again: the measure, the split (also when
    # changed in place), the graph and the word
    fcfm, w = Fcfm(), words[-1]
    wider = ProbMeasure.from_dict({**{c: m / 2 for c, m in mu.weights.items()}, "x": Fraction(1, 2)})
    assert verify_linear_chain(g, mu, fcfm, w) == (0.0, 0.0)
    with pytest.raises(MeasureError):
        verify_linear_chain(g, wider, fcfm, w)
    if not g.v1:
        return
    loop, split = min(g.v1), dict(uneven)
    assert verify_linear_chain(g, mu, fcfm, w, split) == (0.0, 0.0)
    split[loop] = Fraction(3, 2)
    with pytest.raises(MeasureError):
        verify_linear_chain(g, mu, fcfm, w, split)
    halves, floats = {i: Fraction(1, 2) for i in g.v1}, {i: 0.5 for i in g.v1}
    for w in words:
        fresh = verify_linear_chain(g, mu, Fcfm(), w, floats)  # may carry float noise
        assert verify_linear_chain(g, mu, fcfm, w, halves) == (0.0, 0.0)
        assert verify_linear_chain(g, mu, fcfm, w, floats) == fresh
    check = g.maximal_subgraph()
    for h, before in [(check, (loop, loop))] + [(g, x) for x in words if len(x) == 2]:
        assert verify_quadratic_identity(h, mu, fcfm, before) == 0.0
        with pytest.raises(ChainError):
            verify_quadratic_identity(g, mu, fcfm, (loop, loop))


def class_drift(g, mu, pol, w, fn, v):
    """One arrival class's share of the drift, mu(v) p (F(next) - F(w))
    summed over the decisions, with F read from ``fn.value``."""
    base = fn.value(word_counts(w))
    return sum((mu[v] * p * (fn.value(word_counts(apply_decision(w, v, x))) - base)
                for x, p in decision_distribution(g, pol, w, v).items()), Fraction(0))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_integer_sweeps_equal_the_fraction_sums_on_random_models(seed):
    rng = random.Random(seed)
    while True:  # a small stable model with an exact measure
        g = random_multigraph(rng, 5)
        mu = random_measure(rng, g.nodes)
        if not g.is_bipartite()[0] and ncond_check(g, mu).satisfied:
            break
    # balance: every reported residual is the one of the Fraction sweep over
    # the product-form table and the kernel rows, and it is 0
    max_len = 4
    pi = product_form(g, mu).table(max_len + 1)
    inflow = {}
    for u, pu in pi.items():
        for w, p in kernel_row(g, mu, Fcfm(), u).items():
            inflow[w] = inflow.get(w, Fraction(0)) + pu * p
    oracle = [(w, abs(float(pi[w] - inflow[w]))) for w in enumerate_states(g, max_len)]
    reported = []
    assert balance_residual(g, mu, max_len, lambda w, r: reported.append((w, r))) == (0.0, ())
    assert reported == oracle and all(type(r) is float and r == 0.0 for _, r in reported)
    # a float measure: the same reports, bit for bit, as the float sweep over
    # the table and the kernel rows, each row summed before it is weighed
    mu_float = ProbMeasure({c: float(p) for c, p in mu.weights.items()})
    pi = product_form(g, mu_float).table(max_len + 1)
    inflow = {}
    for u, pu in pi.items():
        for w, p in kernel_row(g, mu_float, Fcfm(), u).items():
            inflow[w] = inflow[w] + pu * p if w in inflow else pu * p
    oracle = [(w, abs(float(pi[w] - inflow[w]))) for w in enumerate_states(g, max_len)]
    reported = []
    worst = balance_residual(g, mu_float, max_len, lambda w, r: reported.append((w, r)))
    assert reported == oracle and worst == max(oracle, key=lambda x: x[1])[::-1]

    # drifts: each class's share and the total equal the Fraction sums, types
    # included, for Q, L and exact L_delta under every kind; L_delta with float
    # weights, and explicit permutations with float weights, take the float path
    kinds = policy_kinds(g)
    float_perms = RandomPolicy({v: tuple((perm, p) for (perm, _), p in zip(dist, (0.5, 0.25, 0.25)))
                                for v, dist in kinds["random_perms"].perms.items()})
    fns = [Quadratic(), Linear()]
    if g.v1:
        fns += [ldelta(g, mu, Fraction(1, 10)), ldelta(g, mu, 0.1)]
    words = enumerate_states(g, 3)
    for pol in [*kinds.values(), float_perms]:
        for fn in fns:
            for w in words:
                rep = exact_drift(g, mu, pol, w, fn)
                total = kernel_drift(g, mu, pol, w, fn)
                shares = {v: class_drift(g, mu, pol, w, fn, v) for v in g.nodes}
                assert type(rep.drift) is type(total) and list(rep.per_class) == list(shares)
                if type(total) is Fraction:
                    assert rep.drift == total and rep.per_class == shares
                else:  # summed in another order
                    assert math.isclose(rep.drift, total, rel_tol=1e-12, abs_tol=1e-12)
                for v, x in rep.per_class.items():
                    assert type(x) is type(shares[v]), (pol, fn, w, v)
                    assert math.isclose(x, shares[v], rel_tol=1e-12, abs_tol=1e-12)
