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


def exact_drift(
    g: Multigraph, mu: ProbMeasure, policy: Policy, w: Word, fn: LyapunovFn
) -> DriftReport:
    """Expected one-step change of ``fn``, enumerated exactly."""
    check_admissible(g, w)
    mu.check_support(g)
    base = fn.value(word_counts(w))
    per_class: dict[Node, Weight] = {}
    for v in g.nodes:
        contrib: Weight = Fraction(0)
        for decision, p in decision_distribution(g, policy, w, v).items():
            if decision.is_match:
                counts = word_counts(w)
                counts[decision.matched_class] -= 1
            else:
                counts = word_counts(w + (v,))
            contrib += p * (fn.value(counts) - base)
        per_class[v] = mu[v] * contrib
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


def _as_residual(x: Weight) -> float:
    return abs(float(x))


def verify_quadratic_identity(
    g: Multigraph,
    mu: ProbMeasure,
    policy: Policy,
    w: Word,
    split: Optional[Mapping[Node, Weight]] = None,
) -> float:
    """Residual of: multigraph Q-drift = blown Q-drift - 4 * extended mass of
    the stored self-looped classes.  Zero up to representation error."""
    bmap = g.minimal_blowup()
    mu_hat = extend_measure(mu, bmap, split)
    pol_hat = extend_policy(policy, bmap)
    stored, _ = special_sets(g, w)
    lhs = exact_drift(g, mu, policy, w, Quadratic()).drift
    rhs = exact_drift(bmap.blown, mu_hat, pol_hat, w, Quadratic()).drift
    rhs -= 4 * mu_hat.mass(stored)
    return _as_residual(lhs - rhs)


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
    bmap = g.minimal_blowup()
    mu_hat = extend_measure(mu, bmap, split)
    pol_hat = extend_policy(policy, bmap)
    pol_check = reduce_policy(policy, g)
    check = g.maximal_subgraph()
    stored, _ = special_sets(g, w)
    fn = Linear()
    d_multi = exact_drift(g, mu, policy, w, fn).drift
    d_blown = exact_drift(bmap.blown, mu_hat, pol_hat, w, fn).drift
    d_check = exact_drift(check, mu, pol_check, w, fn).drift
    res_left = _as_residual(d_multi - (d_blown - 2 * mu_hat.mass(stored)))
    res_right = _as_residual(
        d_blown - (d_check - 2 * mu_hat.mass(bmap.copies(stored)))
    )
    return res_left, res_right


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
    parts = g.complete_multipartite_decomposition()
    if parts is None:
        raise DriftError("graph is not complete multipartite")
    if len(parts) < 3 and not g.v1:
        raise DriftError("bound needs at least 3 parts or a self-loop")
    report = ncond_check(g, mu)
    if not report.satisfied:
        raise DriftError("measure violates the stability condition")
    if delta is None:
        delta = report.margin
    fn = ldelta(g, mu, delta)
    bound = -delta / 2
    violations: list[tuple[Word, float]] = []
    checked = 0
    for w in enumerate_states(g, max_len):
        if not w or not (set(w) & g.v2):
            continue
        checked += 1
        d = exact_drift(g, mu, policy, w, fn).drift
        if not float(d) <= float(bound) + tol:
            violations.append((w, float(d)))
    return PpartiteReport(
        ok=not violations,
        parts=len(parts),
        delta=delta,
        states_checked=checked,
        violations=tuple(violations),
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
    worst_by_len: dict[int, float] = {}
    for w in enumerate_states(g, max_len):
        d = float(exact_drift(g, mu, policy, w, fn).drift)
        ln = len(w)
        worst_by_len[ln] = max(worst_by_len.get(ln, -float("inf")), d)
    threshold: Optional[int] = None
    for cut in range(max_len + 1):
        tail = [worst_by_len[ln] for ln in worst_by_len if ln > cut]
        if tail and max(tail) < 0:
            threshold = cut
            break
    if threshold is None:
        return NegativeDriftScan(None, None, max_len)
    eta = max(worst_by_len[ln] for ln in worst_by_len if ln > threshold)
    return NegativeDriftScan(threshold, eta, max_len)
