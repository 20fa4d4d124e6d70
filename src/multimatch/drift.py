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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .chain import check_admissible, enumerate_states
from .graphs import Multigraph, Node
from .measures import ProbMeasure, Weight, extend_measure, ncond_check
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

    weights: Mapping[Node, Weight]
    name: str = "L_delta"

    def value(self, counts: Mapping[Node, int]) -> Weight:
        return sum((self.weights.get(c, 1) * k for c, k in counts.items()), Fraction(0))


LyapunovFn = Union[Quadratic, Linear, WeightedLinear]


def ldelta(g: Multigraph, mu: ProbMeasure, delta: Weight) -> WeightedLinear:
    """Down-weight self-looped classes by delta / (2 mu(V1)); others weigh 1.

    Requires at least one self-looped class and a positive delta (normally
    the stability margin).
    """
    if not g.v1:
        raise DriftError("the reweighted linear function needs self-looped classes")
    if not delta > 0:
        raise DriftError("delta must be positive")
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
        (v, [((d.matched_class, -1) if d.is_match else (v, 1), p)
             for d, p in decision_distribution(g, policy, w, v).items()])
        for v in g.nodes
    ]


def _dot(pairs: list) -> Weight:
    """Sum of a * b over the pairs, in order; over one common denominator
    when every factor is exact."""
    try:
        dens = [a.denominator * b.denominator for a, b in pairs]
    except AttributeError:  # a float factor
        return sum((a * b for a, b in pairs), Fraction(0))
    d = math.lcm(*dens)
    return Fraction(sum(a.numerator * b.numerator * (d // e) for (a, b), e in zip(pairs, dens)), d)


def _mean(law: list, change) -> Weight:
    """Expected ``change(class, move)`` under one arrival's law.  A single
    exact decision has p = 1 and skips the product (a float p may not be 1)."""
    if len(law) == 1 and isinstance(law[0][1], Fraction):
        return change(*law[0][0])
    return _dot([(p, change(c, s)) for (c, s), p in law])


def _ql(laws: list, mu: ProbMeasure, counts: dict[Node, int]) -> tuple[Weight, Weight]:
    """The Q and L drifts together: moving class c by s changes Q by
    2 s k_c + 1 and L by s."""
    dq = [(mu[v], _mean(law, lambda c, s: 2 * s * counts.get(c, 0) + 1)) for v, law in laws]
    dl = [(mu[v], _mean(law, lambda c, s: s)) for v, law in laws]
    return _dot(dq), _dot(dl)


# One model and one word, kept: callers loop policy-major, so a model's derived
# graphs are built once per policy, and the identity checks and the drift of
# one word share its passes.  The model's objects are compared by identity.
_MEMO: dict = {"model": (None,) * 4, "w": None}


def _residuals(g, mu, policy, w, split) -> tuple[float, float, float]:
    """Residuals of the quadratic identity and of the two linear
    decompositions, from one law pass on each of the three graphs."""
    m = _MEMO
    key = m["model"]
    # typed, since a float share 0.5 extends the measure in floats and 1/2 exactly
    shares = None if split is None else [(i, type(s), s) for i, s in split.items()]
    if not (key[0] is g and key[1] is mu and key[2] is policy and key[3] == shares):
        bmap = g.minimal_blowup()
        m.update(model=(g, mu, policy, shares), w=None,
                 bmap=bmap, mu_hat=extend_measure(mu, bmap, split),
                 pol_hat=extend_policy(policy, bmap), check=g.maximal_subgraph(),
                 pol_check=reduce_policy(policy, g))
    if m["w"] != w:
        stored, _ = special_sets(g, w)  # the model's extend_measure checked mu's support
        counts = word_counts(w)
        laws = _laws(g, policy, w)
        q, l = _ql(laws, mu, counts)
        q_hat, l_hat = _ql(_laws(m["bmap"].blown, m["pol_hat"], w), m["mu_hat"], counts)
        _, l_check = _ql(_laws(m["check"], m["pol_check"], w), mu, counts)
        mass = m["mu_hat"].mass
        residuals = (
            q - (q_hat - 4 * mass(stored)),
            l - (l_hat - 2 * mass(stored)),
            l_hat - (l_check - 2 * mass(m["bmap"].copies(stored))),
        )
        m.update(w=w, laws=laws, residuals=tuple(abs(float(r)) for r in residuals))
    return m["residuals"]


def exact_drift(
    g: Multigraph, mu: ProbMeasure, policy: Policy, w: Word, fn: LyapunovFn
) -> DriftReport:
    """Expected one-step change of ``fn``, enumerated exactly.  Reuses the
    multigraph pass of the last identity check at the same graph, policy and word."""
    check_admissible(g, w)
    mu.check_support(g)
    m = _MEMO
    same = m["w"] == w and m["model"][0] is g and m["model"][2] is policy
    laws = m["laws"] if same else _laws(g, policy, w)
    counts = word_counts(w)
    base = fn.value(counts)

    def change(c: Node, s: int) -> Weight:
        moved = dict(counts)
        moved[c] = moved.get(c, 0) + s
        return fn.value(moved) - base

    per_class = {v: mu[v] * _mean(law, change) for v, law in laws}
    total = sum(per_class.values(), Fraction(0))
    return DriftReport(state=w, fn_name=fn.name, drift=total, per_class=per_class)


def special_sets(g: Multigraph, w: Word) -> tuple[frozenset[Node], frozenset[Node]]:
    """Self-looped classes that are stored, and those idle.

    An admissible word stores a self-looped class at most once.  A looped
    class is idle when its queue and all its neighbors' queues are empty.
    """
    check_admissible(g, w)
    counts = word_counts(w)
    stored = frozenset(i for i in g.v1 if counts.get(i, 0) > 0)
    idle = frozenset(
        i
        for i in g.v1
        if counts.get(i, 0) == 0
        and all(counts.get(j, 0) == 0 for j in g.adjacency[i])
    )
    return stored, idle


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
) -> PpartiteReport:
    """Check drift(L_delta) <= -delta/2 on every word storing a non-looped class.

    Applies to complete multipartite models (at least three parts, or any
    self-loop present) under a policy favoring non-looped classes, with the
    measure inside the stability region.  ``delta`` defaults to the stability
    margin.  Words whose support avoids the non-looped classes form the
    finite exceptional set and are skipped.
    """
    return _ppartite_bound(g, mu, policy, max_len, delta, tol)


def _ppartite_bound(g, mu, policy, max_len, delta, tol, report=None) -> PpartiteReport:
    """:func:`verify_ppartite_bound`, reusing the caller's NCOND ``report`` if it has one."""
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
    fn = ldelta(g, mu, delta)
    words = [w for w in enumerate_states(g, max_len) if set(w) & g.v2]
    drifts = [(w, float(exact_drift(g, mu, policy, w, fn).drift)) for w in words]
    violations = tuple((w, d) for w, d in drifts if not d <= float(-delta / 2) + tol)
    return PpartiteReport(
        ok=not violations,
        parts=len(parts),
        delta=delta,
        states_checked=len(words),
        violations=violations,
    )


@dataclass(frozen=True)
class NegativeDriftScan:
    """Smallest length beyond which all tested drifts are negative.

    ``threshold`` is the cut length (states strictly longer all drift down,
    up to ``max_len``); ``eta`` is the worst (largest) drift beyond it.  Both
    are empirical for the scanned window, not derived constants.
    """

    threshold: Optional[int]
    eta: Optional[float]
    max_len: int


def negative_drift_scan(
    g: Multigraph,
    mu: ProbMeasure,
    policy: Policy,
    fn: LyapunovFn,
    max_len: int,
) -> NegativeDriftScan:
    worst: dict[int, float] = {}
    for w in enumerate_states(g, max_len):
        d = float(exact_drift(g, mu, policy, w, fn).drift)
        worst[len(w)] = max(worst.get(len(w), -math.inf), d)
    for cut in range(max_len + 1):
        tail = [d for ln, d in worst.items() if ln > cut]
        if tail and max(tail) < 0:
            return NegativeDriftScan(cut, max(tail), max_len)
    return NegativeDriftScan(None, None, max_len)
