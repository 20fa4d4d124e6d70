"""Exact stationary analysis of the first-come-first-matched chain.

Under first-come-first-matched and a measure inside the stability region,
the queue-word chain has a product-form stationary law: the probability of a
word is a normalizing constant times the product, over its prefixes, of the
arriving class's mass divided by the prefix's neighborhood mass.  The
normalizing constant alpha comes from one recursion over the independent sets
of the loop-free subgraph.

Everything here is evaluated exactly when the measure is rational, so the
balance residuals of the product form are exactly zero rather than small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Callable, Optional

from .chain import apply_decision, enumerate_states, check_admissible, kernel_row
from .graphs import Multigraph, Node
from .measures import ProbMeasure, Weight, subset_table
from .policies import Fcfm, Word, transition


class StationaryError(ValueError):
    """Product form requested outside its domain of validity."""


def alpha(g: Multigraph, mu: ProbMeasure) -> Weight:
    """Normalizing constant of the product-form stationary distribution.

    ``1/alpha`` sums F(S) over the independent sets S of the loop-free
    subgraph: F(empty) = 1 and F(S) = sum over e in S of mu(e) F(S - {e}) /
    (mu(E(S)) - mu(S & V2)), with E(S) the neighborhood of S.  F(S) totals the
    product-form terms of every ordering of S, whose last factor depends on S
    alone.  The sets come as bitmasks from ``subset_table``, taken by size.  For
    an exact measure its weights and gaps are ints, in one unit that cancels,
    and F(S) is an (int numerator, int denominator) pair reduced once per set:
    one integer term per (set, member) pair.  A float measure runs the same
    loop on its floats, each sum taken over members in increasing index.

    The table's NCOND report gives the stability verdict: alpha raises unless
    the graph is stabilizable (not bipartite) and the measure satisfies it,
    which is exactly what keeps every denominator strictly positive.
    """
    mu.check_support(g)
    bip, _ = g.is_bipartite()
    if bip:
        raise StationaryError("a bipartite graph has an empty stability region")
    report, weights, gaps = subset_table(g, mu)
    if not report.satisfied:
        raise StationaryError(
            f"measure violates the stability condition (margin {report.margin}, "
            f"witness {sorted(report.witness) if report.witness else None})"
        )
    exact = mu.is_exact
    terms = {0: (1, 1)}  # F(S) as (numerator, denominator), a float F over 1
    total_num, total_den = 1, 1
    for s in sorted(gaps, key=int.bit_count):
        num, den, bits = 0, 1, s
        while bits:
            low = bits & -bits
            bits ^= low
            a, b = terms[s ^ low]
            num, den = num * b + weights[low.bit_length() - 1] * a * den, den * b
        den *= gaps[s]
        if exact:
            k = math.gcd(num, den)
            terms[s] = a, b = num // k, den // k
        else:
            terms[s] = a, b = num / den, 1
        k = math.gcd(total_den, b)
        total_num, total_den = total_num * (b // k) + a * (total_den // k), total_den // k * b
    return Fraction(total_den, total_num) if exact else total_den / total_num


@dataclass(frozen=True)
class ProductFormDistribution:
    """Evaluator for the first-come-first-matched stationary law."""

    graph: Multigraph
    measure: ProbMeasure
    alpha: Weight

    def pi(self, w: Word) -> Weight:
        """Stationary probability of an admissible queue word."""
        check_admissible(self.graph, w)
        value = self.alpha
        prefix: set[Node] = set()
        for letter in w:
            prefix.add(letter)
            value *= self.measure[letter] / self.measure.mass(
                self.graph.neighborhood(prefix)
            )
        return value

    def table(self, max_len: int) -> dict[Word, Weight]:
        """Stationary probability of every admissible word up to ``max_len``,
        in the order of ``enumerate_states``.

        pi(w) is pi of ``w`` without its last letter times that letter's mass
        over the neighborhood mass of the letter set of ``w``.  The sorted
        enumeration puts every prefix before its extensions, so each word
        costs one product, and each distinct letter set one neighborhood
        mass.  The factors are folded in the order :meth:`pi` uses, so float
        values equal :meth:`pi`'s too.
        """
        g, mu = self.graph, self.measure
        out: dict[Word, Weight] = {(): self.alpha}
        masses: dict[frozenset[Node], Weight] = {}
        # the enumeration starts with the empty word, whose pi is alpha
        for w in enumerate_states(g, max_len)[1:]:
            letters = frozenset(w)
            d = masses.get(letters)
            if d is None:
                d = masses[letters] = mu.mass(g.neighborhood(letters))
            out[w] = out[w[:-1]] * (mu[w[-1]] / d)
        return out

    def truncated_mass(self, max_len: int) -> Weight:
        """Total stationary mass on words of length at most ``max_len``."""
        return sum(self.table(max_len).values(), Fraction(0))


def product_form(g: Multigraph, mu: ProbMeasure) -> ProductFormDistribution:
    return ProductFormDistribution(graph=g, measure=mu, alpha=alpha(g, mu))


def finite_stationary(g: Multigraph, mu: ProbMeasure) -> dict[Word, Weight]:
    """Full stationary table for an all-self-loop model.

    With every class self-looped the state space is finite (each class stored
    at most once), so the product form can be tabulated completely.  The
    table sums to one; a discrepancy flags a bug, not sampling error.
    """
    if g.v2:
        raise StationaryError(
            f"finite table needs every node self-looped; {sorted(g.v2)} are not"
        )
    table = product_form(g, mu).table(len(g.nodes))
    total = sum(table.values())
    if isinstance(total, Fraction):
        assert total == 1, f"finite table sums to {total}"
    else:
        assert abs(total - 1.0) <= 1e-9, f"finite table sums to {total!r}"
    return table


def solve_finite_chain(
    g: Multigraph, mu: ProbMeasure, policy, max_len: Optional[int] = None
) -> dict[Word, Weight]:
    """Stationary law of the chain on the words up to ``max_len`` (by default
    every word, which needs every class self-looped), under any policy.

    Fraction-free (Bareiss) elimination of pi P = pi over ``kernel_row``, the
    normalization in place of the last balance equation.  Each equation is in
    integer units of its denominators' lcm, a float entry being its float's
    exact value, so every division is exact.  An exact measure's law comes
    back as Fractions, a float measure's as floats.
    """
    if max_len is None:
        if g.v2:
            raise StationaryError("state space is infinite; give max_len")
        max_len = len(g.nodes)
    states = enumerate_states(g, max_len)
    n = len(states)
    index = {w: k for k, w in enumerate(states)}
    eqs = [{j: (-1, 1)} for j in range(n)]  # word j: {k: P(k, j) - [k = j] as (num, den)}
    for k, w in enumerate(states):
        for t, p in kernel_row(g, mu, policy, w).items():
            if t not in index:
                raise StationaryError(f"state set not closed: {w!r} reaches {t!r}")
            a, b = p.as_integer_ratio()
            eqs[index[t]][k] = (a - b, b) if t == w else (a, b)
    rows = []
    for eq in eqs[:-1]:
        d = math.lcm(*(b for _, b in eq.values()))
        rows.append([eq[k][0] * (d // eq[k][1]) if k in eq else 0 for k in range(n + 1)])
    rows.append([1] * (n + 1))  # the normalization: pi sums to 1
    det = 1
    for k in range(n):
        pivot, *tail = rows[k][k:]
        if not pivot:  # a leading minor, never 0 for an irreducible chain
            raise StationaryError("singular balance system")
        for row in rows[k + 1:]:
            f = row[k]
            row[k + 1:] = [(pivot * x - f * y) // det for x, y in zip(row[k + 1:], tail)]
        det = pivot
    x = [0] * n  # det times pi, integral by Cramer's rule
    for k, row in reversed([*enumerate(rows)]):
        x[k] = (det * row[n] - sum(a * b for a, b in zip(row[k + 1:n], x[k + 1:]))) // row[k]
    value = Fraction if mu.is_exact else (lambda a, b: a / b)
    return {w: value(a, det) for w, a in zip(states, x)}


def _exact_weights(g: Multigraph, mu: ProbMeasure, words: list[Word]):
    """For an exact measure: integer weights N of ``words`` and m of the
    classes, and a word's residual from its integer inflow.  With m and M the
    class and neighborhood masses in units of the weights' common
    denominator D, pi(w) = alpha N(w) / C, where N(empty) = C and N(w) =
    N(w[:-1]) m(last letter) // M(letter set of w), and C, the lcm of the
    words' prefix-mass products, makes every division exact; an inflow is in
    units of C D."""
    a = alpha(g, mu)
    d = math.lcm(*(p.denominator for p in mu.weights.values()))
    m = {c: p.numerator * (d // p.denominator) for c, p in mu.weights.items()}
    masses: dict[frozenset[Node], int] = {}
    prods = {(): 1}  # each word's prefix-mass product
    for w in words[1:]:
        letters = frozenset(w)
        if letters not in masses:
            masses[letters] = sum(m[c] for c in g.neighborhood(letters))
        prods[w] = prods[w[:-1]] * masses[letters]
    n = {(): math.lcm(*prods.values())}
    for w in words[1:]:
        n[w] = n[w[:-1]] * m[w[-1]] // (prods[w] // prods[w[:-1]])
    scale = a.denominator * n[()] * d
    return n, m, lambda w, x: abs(a.numerator * (n[w] * d - x)) / scale


def balance_residual(
    g: Multigraph,
    mu: ProbMeasure,
    max_len: int,
    report: Optional[Callable[[Word, float], None]] = None,
) -> tuple[float, Optional[Word]]:
    """Worst global-balance violation of the product form, up to a length.

    One forward sweep over the admissible words ``u`` up to ``max_len + 1``
    sums the FCFM row of ``u``, {next word: class weight} in node order, and
    adds weight(u) times each entry to that word's inflow.  One arrival
    changes the length by exactly one, so this reaches every predecessor of
    every word up to ``max_len`` and the check is exact rather than
    truncated.  An exact measure weighs in integers (:func:`_exact_weights`);
    a float measure takes its masses and the product-form table, and summing
    each row first keeps the float sums of ``kernel_row``.  Returns the
    maximum absolute residual and the word attaining it.
    """
    if max_len < 0:
        raise StationaryError(f"max_len must be >= 0, got {max_len}")
    if mu.is_exact:
        n, m, residual = _exact_weights(g, mu, enumerate_states(g, max_len + 1))
    else:
        n, m = product_form(g, mu).table(max_len + 1), mu.weights
        residual = lambda w, x: abs(float(n[w] - x))
    policy = Fcfm()
    inflow: dict[Word, Weight] = {}
    for u, nu in n.items():
        stores = len(u) < max_len  # a longer word is never checked
        row: dict[Word, Weight] = {}
        for v in g.nodes:
            x = transition(g, policy, u, v)
            if x is not None or stores:
                t = apply_decision(u, v, x)
                row[t] = row.get(t, 0) + m[v]
        for t, r in row.items():
            inflow[t] = inflow.get(t, 0) + nu * r
    # the words up to max_len lead n, which is sorted by length
    residuals = [(residual(w, inflow[w]), w) for w in takewhile(lambda w: len(w) <= max_len, n)]
    if report is not None:
        for r, w in residuals:
            report(w, r)
    return max(residuals, key=lambda x: x[0])  # the largest, at its first word
