"""Arrival measures and the necessary stability condition.

A measure assigns a strictly positive probability to every class.  The
stability region of interest, here called NCOND, contains the measures that
give every independent set strictly less mass than its neighborhood; its
margin is the smallest such gap.  Weights entered as strings or fractions
stay exact rationals end to end, which keeps the stability checks free of
rounding ties; float inputs fall back to a 1e-12 tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Union

from .graphs import BlowupMap, Multigraph, Node

Weight = Union[Fraction, float]

SUM_TOL = 1e-12


class MeasureError(ValueError):
    """Invalid probability data or support mismatch."""


def _to_weight(v) -> Weight:
    if isinstance(v, float):
        return v
    if isinstance(v, (Fraction, int)):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ValueError as exc:
            raise MeasureError(f"cannot parse weight {v!r}") from exc
    raise MeasureError(f"unsupported weight type {type(v).__name__}")


def cumulative(weights: Iterable[Weight]) -> list[float]:
    """Float running sums of a probability law, the last one pinned to 1.0.

    ``bisect_right(table, u)`` then maps every ``u`` in [0, 1) to the index
    of the first entry whose running sum exceeds ``u``.
    """
    table = list(accumulate(float(p) for p in weights))
    table[-1] = 1.0
    return table


@dataclass(frozen=True)
class ProbMeasure:
    """Full-support probability measure on a set of classes."""

    weights: Mapping[Node, Weight]

    @staticmethod
    def from_dict(raw: Mapping[Node, object]) -> "ProbMeasure":
        if not isinstance(raw, Mapping):
            raise MeasureError("a measure must map class names to weights")
        mu = ProbMeasure({k: _to_weight(v) for k, v in raw.items()})
        mu.validate()
        return mu

    @staticmethod
    def uniform(g: Multigraph) -> "ProbMeasure":
        n = len(g.nodes)
        return ProbMeasure({i: Fraction(1, n) for i in g.nodes})

    def validate(self) -> None:
        if not self.weights:
            raise MeasureError("empty measure")
        for k, v in self.weights.items():
            if not v > 0:
                raise MeasureError(f"weight of {k!r} must be strictly positive")
        total = self.mass(self.weights)
        if self.is_exact:
            if total != 1:
                raise MeasureError(f"weights sum to {total}, expected 1")
        elif abs(total - 1.0) > SUM_TOL:
            raise MeasureError(f"weights sum to {total!r}, expected 1")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.weights.values())

    @property
    def support(self) -> frozenset[Node]:
        return frozenset(self.weights)

    def __getitem__(self, node: Node) -> Weight:
        try:
            return self.weights[node]
        except KeyError as exc:
            raise MeasureError(f"measure has no weight for {node!r}") from exc

    def mass(self, nodes: Iterable[Node]) -> Weight:
        return sum((self[i] for i in nodes), Fraction(0))

    def check_support(self, g: Multigraph) -> None:
        if self.support != frozenset(g.nodes):
            missing = frozenset(g.nodes) - self.support
            extra = self.support - frozenset(g.nodes)
            raise MeasureError(
                f"measure support mismatch (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {k: str(v) for k, v in sorted(self.weights.items())}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def loads(text: str) -> "ProbMeasure":
        return ProbMeasure.from_dict(json.loads(text))


@dataclass(frozen=True)
class NcondReport:
    """Outcome of the stability-condition scan over independent sets.

    ``margin`` is the minimum of mass(neighborhood) - mass(set); the
    condition holds iff the margin is strictly positive.  ``witness`` is a
    minimizing set (violating one when the condition fails); it is ``None``
    only when the graph has no independent set at all, in which case the
    margin is reported as +inf and every measure qualifies.
    """

    satisfied: bool
    margin: Weight
    witness: Optional[frozenset[Node]]


def ncond_check(g: Multigraph, mu: ProbMeasure) -> NcondReport:
    """Exhaustive check of mu(I) < mu(E(I)) over all independent sets."""
    mu.check_support(g)
    best: Optional[Weight] = None
    witness: Optional[frozenset[Node]] = None
    for ind in g.independent_sets():
        gap = mu.mass(g.neighborhood(ind)) - mu.mass(ind)
        if best is None or gap < best:
            best = gap
            witness = ind
    if best is None:
        return NcondReport(satisfied=True, margin=math.inf, witness=None)
    if isinstance(best, Fraction):
        ok = best > 0
    else:
        ok = best > SUM_TOL  # float ties count as violations
    return NcondReport(satisfied=ok, margin=best, witness=witness)


def mu_deg(g: Multigraph) -> ProbMeasure:
    """Degree-proportional measure; always exact rationals."""
    total = g.ordered_edge_count
    return ProbMeasure({i: Fraction(g.degree(i), total) for i in g.nodes})


def extend_measure(
    mu: ProbMeasure,
    bmap: BlowupMap,
    split: Optional[Mapping[Node, Weight]] = None,
) -> ProbMeasure:
    """Spread each self-looped class's mass over the class and its copy.

    ``split[i]`` in (0,1) is the share kept by the original; the default is
    an even 1/2 split for every looped class.
    """
    mu.check_support(bmap.original)
    v1 = bmap.original.v1
    if split is None:
        split = {i: Fraction(1, 2) for i in v1}
    if frozenset(split) != v1:
        raise MeasureError("split must be keyed exactly by the self-looped classes")
    weights: dict[Node, Weight] = {}
    for i in bmap.original.nodes:
        if i in v1:
            s = split[i]
            if not (0 < s < 1):
                raise MeasureError(f"split share for {i!r} must lie in (0,1)")
            weights[i] = s * mu[i]
            weights[bmap.copy_of[i]] = (1 - s) * mu[i]
        else:
            weights[i] = mu[i]
    out = ProbMeasure(weights)
    out.validate()
    return out


def reduce_measure(mu_hat: ProbMeasure, bmap: BlowupMap) -> ProbMeasure:
    """Fold each copy's mass back onto its original class."""
    mu_hat.check_support(bmap.blown)
    weights: dict[Node, Weight] = {}
    for i in bmap.original.nodes:
        if i in bmap.original.v1:
            weights[i] = mu_hat[i] + mu_hat[bmap.copy_of[i]]
        else:
            weights[i] = mu_hat[i]
    out = ProbMeasure(weights)
    out.validate()
    return out


def ncond_equivalence_check(g: Multigraph, mu: ProbMeasure) -> bool:
    """Whether the stability condition agrees between a multigraph and its blow-up.

    The blown system uses the even-split extension of ``mu``.  Agreement is the
    expected behavior for every input; a ``False`` return flags a bug.
    """
    bmap = g.minimal_blowup()
    direct = ncond_check(g, mu).satisfied
    blown = ncond_check(bmap.blown, extend_measure(mu, bmap)).satisfied
    return direct == blown
