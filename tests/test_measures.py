import math
import random
import re
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import pytest

from multimatch import (
    MeasureError,
    Multigraph,
    NcondReport,
    ProbMeasure,
    extend_measure,
    mu_deg,
    ncond_check,
    reduce_measure,
)
from multimatch.measures import subset_table

from conftest import random_measure, random_multigraph
from oracles import ncond_equivalence_check


def test_measure_validation():
    with pytest.raises(MeasureError):
        ProbMeasure.from_dict({"1": "0.5", "2": "0.6"})
    with pytest.raises(MeasureError):
        ProbMeasure.from_dict({"1": "1.0", "2": "0.0"})  # no full support
    with pytest.raises(MeasureError):
        ProbMeasure.from_dict({})
    with pytest.raises(MeasureError, match="weights sum to 0.75"):
        ProbMeasure.from_dict({"1": 0.5, "2": 0.25})  # floats
    mu = ProbMeasure.from_dict({"1": "0.25", "2": "0.75"})
    assert mu.is_exact and mu["1"] == Fraction(1, 4)


def test_missing_class_weight_raises():
    mu = ProbMeasure.from_dict({"1": "0.25", "2": "0.75"})
    with pytest.raises(MeasureError, match="measure has no weight for '3'"):
        mu["3"]


def test_support_mismatch_raises(path_loop):
    mu = ProbMeasure.from_dict({"1": "0.5", "2": "0.5"})
    with pytest.raises(MeasureError):
        ncond_check(path_loop, mu)


class ReadOnlyWeights(Mapping):
    """A mapping of weights that is not a dict."""

    def __init__(self, raw):
        self._raw = dict(raw)

    def __getitem__(self, key):
        return self._raw[key]

    def __iter__(self):
        return iter(self._raw)

    def __len__(self):
        return len(self._raw)


def test_support_check_takes_any_mapping(path_loop):
    weights = {"1": Fraction(1, 5), "2": Fraction(3, 10), "3": Fraction(1, 2)}
    mu = ProbMeasure(ReadOnlyWeights(weights))
    mu.check_support(path_loop)
    assert ncond_check(path_loop, mu).satisfied
    for raw, missing, extra in (({"1": Fraction(1, 2), "2": Fraction(1, 2)}, "['3']", "[]"),
                                ({**weights, "4": Fraction(0)}, "[]", "['4']")):
        message = f"measure support mismatch (missing={missing}, extra={extra})"
        for mu in (ProbMeasure(ReadOnlyWeights(raw)), ProbMeasure(raw)):
            with pytest.raises(MeasureError, match=re.escape(message)):
                mu.check_support(path_loop)


def test_float_measures_fall_back_to_tolerances(path_loop):
    mu = ProbMeasure.from_dict({"1": 0.2, "2": 0.3, "3": 0.5})
    assert not mu.is_exact
    report = ncond_check(path_loop, mu)
    assert report.satisfied and isinstance(report.margin, float)
    # a float tie at the boundary counts as a violation
    tied = ProbMeasure.from_dict({"1": 0.25, "2": 0.25, "3": 0.5})
    assert not ncond_check(path_loop, tied).satisfied


def test_ncond_path_loop(path_loop, mu_path):
    report = ncond_check(path_loop, mu_path)
    assert report.satisfied and report.margin > 0

    swapped = ProbMeasure.from_dict({"1": "0.3", "2": "0.2", "3": "0.5"})
    report = ncond_check(path_loop, swapped)
    assert not report.satisfied
    assert report.witness == frozenset({"1"})


def test_ncond_region_formula_path_loop(path_loop):
    # closed form for this graph: mu(1) < mu(2) < 1/2
    rng = random.Random(1)
    for _ in range(200):
        mu = random_measure(rng, path_loop.nodes)
        expected = mu["1"] < mu["2"] < Fraction(1, 2)
        assert ncond_check(path_loop, mu).satisfied == expected


def test_ncond_region_formula_diamond_hub(diamond_hub):
    # closed form: mu(1) < mu(2) and mu({1,3}) v mu({1,4}) < 1/2
    rng = random.Random(2)
    half = Fraction(1, 2)
    for _ in range(200):
        mu = random_measure(rng, diamond_hub.nodes)
        expected = (
            mu["1"] < mu["2"]
            and mu["1"] + mu["3"] < half
            and mu["1"] + mu["4"] < half
        )
        assert ncond_check(diamond_hub, mu).satisfied == expected


def test_ncond_all_self_loops_always_satisfied(square_loops):
    rng = random.Random(3)
    for _ in range(20):
        mu = random_measure(rng, square_loops.nodes)
        report = ncond_check(square_loops, mu)
        assert report.satisfied and report.margin == math.inf and report.witness is None


def test_mu_deg_values(square_loops, diamond_hub, k2):
    assert mu_deg(square_loops).weights == {i: Fraction(1, 4) for i in "1234"}
    assert mu_deg(k2).weights == {"1": Fraction(1, 2), "2": Fraction(1, 2)}
    assert mu_deg(diamond_hub).weights == {
        "1": Fraction(1, 9),
        "2": Fraction(4, 9),
        "3": Fraction(2, 9),
        "4": Fraction(2, 9),
    }


def test_mu_deg_in_region_iff_not_bipartite():
    rng = random.Random(4)
    for _ in range(150):
        g = random_multigraph(rng)
        bip, parts = g.is_bipartite()
        report = ncond_check(g, mu_deg(g))
        assert report.satisfied == (not bip)
        if bip:
            assert report.witness in parts


def test_loopfree_region_shrinks():
    # measures stable for the loop-free subgraph stay stable with loops added
    rng = random.Random(5)
    for _ in range(100):
        g = random_multigraph(rng)
        if not g.self_loops:
            continue
        mu = random_measure(rng, g.nodes)
        if ncond_check(g.maximal_subgraph(), mu).satisfied:
            assert ncond_check(g, mu).satisfied


def test_extend_and_reduce_round_trip(path_loop, mu_path):
    bmap = path_loop.minimal_blowup()
    extended = extend_measure(mu_path, bmap, {"3": Fraction(3, 5)})
    assert extended.weights == {
        "1": Fraction(1, 5),
        "2": Fraction(3, 10),
        "3": Fraction(3, 10),
        "3_": Fraction(1, 5),
    }
    assert reduce_measure(extended, bmap).weights == mu_path.weights

    # reduce then extend with the implied split recovers the original
    split = {"3": extended["3"] / (extended["3"] + extended["3_"])}
    again = extend_measure(reduce_measure(extended, bmap), bmap, split)
    assert again.weights == extended.weights


def test_extend_validation(path_loop, mu_path, triangle):
    bmap = path_loop.minimal_blowup()
    with pytest.raises(MeasureError):
        extend_measure(mu_path, bmap, {"3": Fraction(1)})  # share not in (0,1)
    with pytest.raises(MeasureError):
        extend_measure(mu_path, bmap, {"2": Fraction(1, 2)})  # wrong keys
    # loop-free graph: nothing to split
    mu3 = ProbMeasure.uniform(triangle)
    bm3 = triangle.minimal_blowup()
    assert extend_measure(mu3, bm3).weights == mu3.weights
    assert reduce_measure(mu3, bm3).weights == mu3.weights


def test_blowup_region_closed_form_path(path_loop):
    # worked closed form on the blown path-with-loop graph:
    # m(1) < m(2) and max(m(2), m({1,3}), m({1,3_})) < 1/2
    bmap = path_loop.minimal_blowup()
    rng = random.Random(21)
    half = Fraction(1, 2)
    for _ in range(200):
        mu = random_measure(rng, bmap.blown.nodes)
        expected = (
            mu["1"] < mu["2"]
            and mu["2"] < half
            and mu["1"] + mu["3"] < half
            and mu["1"] + mu["3_"] < half
        )
        assert ncond_check(bmap.blown, mu).satisfied == expected


def test_blowup_region_closed_form_tripartite(tripartite_loop):
    # blown tripartite graph: every part sum must stay below 1/2, the looped
    # part counted once with the original copy and once with the duplicate
    bmap = tripartite_loop.minimal_blowup()
    rng = random.Random(22)
    half = Fraction(1, 2)
    for _ in range(200):
        mu = random_measure(rng, bmap.blown.nodes)
        expected = (
            mu["1"] < half
            and mu["2"] + mu["4"] < half
            and mu["3"] + mu["5"] < half
            and mu["3"] + mu["5_"] < half
        )
        assert ncond_check(bmap.blown, mu).satisfied == expected


def test_loopfree_region_closed_form_tripartite(tripartite_loop):
    # all three part sums below 1/2 on the loop-free version
    check = tripartite_loop.maximal_subgraph()
    rng = random.Random(23)
    half = Fraction(1, 2)
    for _ in range(200):
        mu = random_measure(rng, check.nodes)
        expected = (
            mu["1"] < half
            and mu["2"] + mu["4"] < half
            and mu["3"] + mu["5"] < half
        )
        assert ncond_check(check, mu).satisfied == expected


def test_equivalence_with_blowup(path_loop, mu_path):
    assert ncond_equivalence_check(path_loop, mu_path)
    swapped = ProbMeasure.from_dict({"1": "0.3", "2": "0.2", "3": "0.5"})
    assert ncond_equivalence_check(path_loop, swapped)
    rng = random.Random(6)
    for _ in range(150):
        g = random_multigraph(rng)
        assert ncond_equivalence_check(g, random_measure(rng, g.nodes))


def test_ncond_check_streams_the_independent_sets():
    # the odd cycle C17 with one loop has 5,777 independent sets; the verdict
    # is folded over them one at a time instead of keeping every gap
    labels = [f"c{k}" for k in range(17)]
    g = Multigraph.build(labels, [(a, b) for a, b in zip(labels, labels[1:] + labels[:1])],
                         [labels[0]])
    skewed = ProbMeasure.from_dict({c: Fraction(k + 1, 153) for k, c in enumerate(labels)})
    for mu in (ProbMeasure.uniform(g), skewed):
        tracemalloc.start()
        try:
            report = ncond_check(g, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250_000
        # the same report from every gap kept: the first smallest is the witness
        gaps = {s: mu.mass(g.neighborhood(s)) - mu.mass(s) for s in g.independent_sets()}
        margin = min(gaps.values())
        witness = next(s for s, gap in gaps.items() if gap == margin)
        assert report == NcondReport(satisfied=margin > 0, margin=margin, witness=witness)


def test_subset_table_gaps_meet_their_definition():
    # each gap of the bitmask table against mu(E(S)) - mu(S & V2) from the
    # measure's own masses: exactly, in the table's integer unit, for a
    # Fraction measure, and bit for bit for its float copy; the report is the
    # first smallest gap among the sets inside V2, as ncond_check gives it
    rng = random.Random(17)
    for _ in range(150):
        g = random_multigraph(rng, 7)
        mu = random_measure(rng, g.nodes)
        mu_float = ProbMeasure({c: float(p) for c, p in mu.weights.items()})
        for m in (mu, mu_float):
            report, weights, gaps = subset_table(g, m)
            unit = sum(weights) if m is mu else 1
            sets = [frozenset(c for k, c in enumerate(g.nodes) if s >> k & 1) for s in gaps]
            assert sets == list(g.maximal_subgraph().independent_sets())
            for s, gap in zip(sets, gaps.values()):
                expected = m.mass(g.neighborhood(s)) - m.mass(s & g.v2)
                if m is mu:
                    assert isinstance(gap, int) and Fraction(gap, unit) == expected
                else:
                    assert repr(gap) == repr(expected)
            assert report == ncond_check(g, m)
            inside = [(gap if m is mu_float else Fraction(gap, unit), s)
                      for s, gap in zip(sets, gaps.values()) if s <= g.v2]
            if inside:
                margin = min(gap for gap, _ in inside)
                assert report.margin == margin
                assert report.witness == next(s for gap, s in inside if gap == margin)
