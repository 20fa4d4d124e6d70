"""Exact one-step drifts of Lyapunov functions and their decomposition identities.

The drift of a function F at a state w is the expected change of F over one
arrival.  Because arrivals and policy randomness are enumerable, drifts are
computed exactly here (rational in, rational out), which turns the textbook
drift inequalities into machine-checkable identities:

* quadratic: drift on the multigraph equals the blown-graph drift minus four
  times the extended mass of the stored self-looped classes;
* linear: the same comparison with factor two, and against the loop-free
  graph with factor two on the copies of the stored self-looped classes;
* reweighted linear: on complete multipartite models with a favored-class
  policy, the drift is at most minus half the stability margin whenever a
  non-looped class is stored.

The identities and :func:`exact_drift` read one integer pass over a word's
decision laws, which sums every arrival class's Q and (weighted) L drifts
together.  The identities combine the three graphs' integer totals with the
stored masses by cross-multiplying, and divide once per residual.  A float
factor on any graph sends all three to the fallback, :func:`_value_drift`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .chain import check_admissible, enumerate_states
from .graphs import Multigraph, Node
from .measures import NcondReport, ProbMeasure, Weight, extend_measure, ncond_check
from .policies import (
    Policy,
    Word,
    decision_distribution,
    extend_policy,
    reduce_policy,
    word_counts,
)


class DriftError(ValueError):
    """Drift computation requested outside its preconditions."""


@dataclass(frozen=True)
class Quadratic:
    name = "Q"

    def value(self, counts: Mapping[Node, int]) -> Weight:
        return sum(k * k for k in counts.values())


@dataclass(frozen=True)
class Linear:
    name = "L"

    def value(self, counts: Mapping[Node, int]) -> Weight:
        return sum(counts.values())


@dataclass(frozen=True)
class WeightedLinear:
    """Linear function with per-class weights; unknown classes weigh 1."""

    name = "L_delta"
    weights: Mapping[Node, Weight]

    def value(self, counts: Mapping[Node, int]) -> Weight:
        return sum((self.weights.get(c, 1) * k for c, k in counts.items()), Fraction(0))


LyapunovFn = Union[Quadratic, Linear, WeightedLinear]


def ldelta(g: Multigraph, mu: ProbMeasure, delta: Weight) -> WeightedLinear:
    """Down-weight self-looped classes by delta / (2 mu(V1)); others weigh 1.

    Requires at least one self-looped class and a positive, finite delta
    (normally the stability margin, which is +inf when every independent set
    meets a looped class).
    """
    if not g.v1:
        raise DriftError("the reweighted linear function needs self-looped classes")
    if not 0 < delta < math.inf:
        raise DriftError(f"delta must be a positive finite number, got {delta}")
    w1 = delta / (2 * mu.mass(g.v1))
    return WeightedLinear({i: w1 for i in g.v1})


@dataclass(frozen=True)
class DriftReport:
    """Exact drift with its per-arrival-class decomposition."""

    state: Word
    fn_name: str
    drift: Weight
    per_class: dict[Node, Weight]


def _laws(g: Multigraph, policy: Policy, w: Word) -> list:
    """One pass over the arrivals: per class, the law of the count change at
    ``w`` as ((class, +1 or -1), probability) pairs."""
    return [
        (v, [((v, 1) if x is None else (w[x], -1), p)
             for x, p in decision_distribution(g, policy, w, v).items()])
        for v in g.nodes
    ]


def _int_drifts(laws: list, mu: ProbMeasure, counts: dict[Node, int], weights=None):
    """The running sums of mu(v) E[dQ] and mu(v) E[dL] over the arrival
    classes v, in one pass over the (arrival, decision) terms: int numerators
    over the running lcm d of the term denominators, as ``[(0, 0, 1)]`` then
    (q, l, d) after each class.  The last entry holds the totals, and a
    class's share is its entry minus the one before, whose d divides its d.
    Moving class c by s changes Q by 2 s k_c + 1 and L by w_c s, with w_c =
    ``weights.get(c, 1)``, or 1 without ``weights``.  With ``weights`` only L
    is summed, and q stays 0.  None on a float factor."""
    sums, q, l, d = [(0, 0, 1)], 0, 0, 1
    try:
        for v, law in laws:
            m = mu[v]
            mn, md = m.numerator, m.denominator
            for (c, s), p in law:
                if weights:  # w_c s over w_c's denominator
                    x = weights.get(c, 1)
                    e, dq, dl = md * p.denominator * x.denominator, 0, x.numerator * s
                else:
                    e, dq, dl = md * p.denominator, 2 * s * counts.get(c, 0) + 1, s
                if d % e:
                    f = e // math.gcd(d, e)
                    q, l, d = q * f, l * f, d * f
                a = mn * p.numerator * (d // e)
                q += a * dq
                l += a * dl
            sums.append((q, l, d))
    except AttributeError:  # a float factor
        return None
    return sums


def _value_drift(
    laws: list, mu: ProbMeasure, counts: dict[Node, int], fn: LyapunovFn
) -> tuple[dict[Node, Weight], Weight]:
    """Per arrival class, mu(v) times the expected change of ``fn.value``,
    and their total: the float fallback.  Each sum runs in the order of the
    laws from ``Fraction(0)``, so it stays exact until a float meets it."""
    base = fn.value(counts)

    def change(c: Node, s: int) -> Weight:
        moved = dict(counts)
        moved[c] = moved.get(c, 0) + s
        return fn.value(moved) - base

    per_class = {v: mu[v] * sum((p * change(c, s) for (c, s), p in law), Fraction(0))
                 for v, law in laws}
    return per_class, sum(per_class.values(), Fraction(0))


# One model and one word, kept: callers loop policy-major, so a model's derived
# graphs are built once per policy, and the identity checks and the drift of
# one word share its passes.  The model's objects are compared by identity;
# ``masses`` holds the blow-up's masses of each stored set and of its copies.
_MEMO: dict = {"model": (None,) * 4, "w": None}


def _combine(t, t_hat, t_check, stored: Fraction, copies: Fraction) -> tuple[float, float, float]:
    """The residuals from the totals (q, l, d) on the three graphs and the
    stored classes' masses, cross-multiplied and divided once: an int division
    is correctly rounded, so each is ``abs(float(...))`` of the Fraction sum."""
    (q, l, d), (qh, lh, dh), (_, lc, dc) = t, t_hat, t_check
    a, b, c, e = stored.numerator, stored.denominator, copies.numerator, copies.denominator
    return (
        abs(((q * dh - qh * d) * b + 4 * a * d * dh) / (d * dh * b)),
        abs(((l * dh - lh * d) * b + 2 * a * d * dh) / (d * dh * b)),
        abs(((lh * dc - lc * dh) * e + 2 * c * dh * dc) / (dh * dc * e)),
    )


def _residuals(g, mu, policy, w, split) -> tuple[float, float, float]:
    """Residuals of the quadratic identity and of the two linear
    decompositions, from one law pass on each of the three graphs."""
    m = _MEMO
    key = m["model"]
    # typed, since a float share 0.5 extends the measure in floats and 1/2 exactly
    shares = None if split is None else [(i, type(s), s) for i, s in split.items()]
    if not (key[0] is g and key[1] is mu and key[2] is policy and key[3] == shares):
        bmap = g.minimal_blowup()
        m.update(model=(g, mu, policy, shares), w=None, masses={},
                 bmap=bmap, mu_hat=extend_measure(mu, bmap, split),
                 pol_hat=extend_policy(policy, bmap), check=g.maximal_subgraph(),
                 pol_check=reduce_policy(policy, g))
    if m["w"] != w:
        check_admissible(g, w)  # the model's extend_measure checked mu's support
        counts = word_counts(w)
        stored = frozenset(g.v1 & counts.keys())
        if stored not in m["masses"]:
            m["masses"][stored] = tuple(map(m["mu_hat"].mass, (stored, m["bmap"].copies(stored))))
        masses = m["masses"][stored]
        laws = _laws(g, policy, w)
        graphs = ((laws, mu), (_laws(m["bmap"].blown, m["pol_hat"], w), m["mu_hat"]),
                  (_laws(m["check"], m["pol_check"], w), mu))
        sums = [_int_drifts(laws_h, nu, counts) for laws_h, nu in graphs]
        if None not in sums:  # every weight rational, the blow-up's masses too
            residuals = _combine(*(s[-1] for s in sums), *masses)
        else:  # a float factor: Q on two graphs and L on all three from fn.value
            q, q_hat = (_value_drift(*h, counts, Quadratic())[1] for h in graphs[:2])
            l, l_hat, l_check = (_value_drift(*h, counts, Linear())[1] for h in graphs)
            residuals = tuple(abs(float(r)) for r in (q - (q_hat - 4 * masses[0]),
                              l - (l_hat - 2 * masses[0]), l_hat - (l_check - 2 * masses[1])))
        m.update(w=w, laws=laws, residuals=residuals)
    return m["residuals"]


def exact_drift(
    g: Multigraph, mu: ProbMeasure, policy: Policy, w: Word, fn: LyapunovFn
) -> DriftReport:
    """Expected one-step change of ``fn``, enumerated exactly.  Reuses the
    multigraph pass of the last identity check at the same graph, policy and word.
    Q, L and a weighted L take their per-class shares from :func:`_int_drifts`;
    a float factor, or a function of another type, takes ``fn.value`` on each
    move (:func:`_value_drift`)."""
    check_admissible(g, w)
    mu.check_support(g)
    m = _MEMO
    same = m["w"] == w and m["model"][0] is g and m["model"][2] is policy
    laws = m["laws"] if same else _laws(g, policy, w)
    counts = word_counts(w)
    kind = type(fn)
    exact = None
    if kind in (Quadratic, Linear, WeightedLinear):
        exact = _int_drifts(laws, mu, counts, fn.weights if kind is WeightedLinear else None)
    if exact is None:
        per_class, total = _value_drift(laws, mu, counts, fn)
    else:
        k = 0 if kind is Quadratic else 1  # Q or L in each running sum
        per_class = {v: Fraction(now[k] - before[k] * (now[2] // before[2]), now[2])
                     for (v, _), before, now in zip(laws, exact, exact[1:])}
        total = Fraction(exact[-1][k], exact[-1][2])
    return DriftReport(state=w, fn_name=fn.name, drift=total, per_class=per_class)


def verify_quadratic_identity(
    g: Multigraph,
    mu: ProbMeasure,
    policy: Policy,
    w: Word,
    split: Optional[Mapping[Node, Weight]] = None,
) -> float:
    """Residual of: multigraph Q-drift = blown Q-drift - 4 * extended mass of
    the stored self-looped classes.  Zero up to representation error."""
    return _residuals(g, mu, policy, w, split)[0]


def verify_linear_chain(
    g: Multigraph,
    mu: ProbMeasure,
    policy: Policy,
    w: Word,
    split: Optional[Mapping[Node, Weight]] = None,
) -> tuple[float, float]:
    """Residuals of the two linear-drift decompositions.

    Left: multigraph drift = blown drift - 2 * extended mass of stored looped
    classes.  Right: blown drift = loop-free drift - 2 * extended mass of the
    *copies* of the stored looped classes.  Together they imply the
    multigraph <= blown <= loop-free drift ordering.
    """
    return _residuals(g, mu, policy, w, split)[1:]


@dataclass(frozen=True)
class PpartiteReport:
    ok: bool
    parts: int
    delta: Weight
    states_checked: int
    violations: tuple[tuple[Word, float], ...]


def verify_ppartite_bound(
    g: Multigraph,
    mu: ProbMeasure,
    policy: Policy,
    max_len: int,
    delta: Optional[Weight] = None,
    tol: float = 1e-12,
    *,
    report: Optional[NcondReport] = None,
    drifts: Optional[Mapping[Word, Weight]] = None,
) -> PpartiteReport:
    """Check drift(L_delta) <= -delta/2 on every word storing a non-looped class.

    Applies to complete multipartite models (at least three parts, or any
    self-loop present) under a policy favoring non-looped classes, with the
    measure inside the stability region.  ``delta`` defaults to the stability
    margin.  Words whose support avoids the non-looped classes form the
    finite exceptional set and are skipped.  A caller that has the NCOND
    ``report`` or the Ldelta ``drifts`` {word: drift} at this delta passes
    them, and they are not computed again.
    """
    parts = g.complete_multipartite_decomposition()
    if parts is None:
        raise DriftError("graph is not complete multipartite")
    if len(parts) < 3 and not g.v1:
        raise DriftError("bound needs at least 3 parts or a self-loop")
    report = report or ncond_check(g, mu)
    if not report.satisfied:
        raise DriftError("measure violates the stability condition")
    if delta is None:
        delta = report.margin
    words = [w for w in enumerate_states(g, max_len) if set(w) & g.v2]
    if drifts is None and words:  # the totals alone, as floats
        mu.check_support(g)
        fn, drifts = ldelta(g, mu, delta), {}
        for w in words:
            laws, counts = _laws(g, policy, w), word_counts(w)
            exact = _int_drifts(laws, mu, counts, fn.weights)
            drifts[w] = (exact[-1][1] / exact[-1][2] if exact
                         else _value_drift(laws, mu, counts, fn)[1])
    bound = float(-delta / 2) + tol
    floats = ((w, float(drifts[w])) for w in words)
    violations = tuple((w, d) for w, d in floats if not d <= bound)
    return PpartiteReport(ok=not violations, parts=len(parts), delta=delta,
                          states_checked=len(words), violations=violations)
