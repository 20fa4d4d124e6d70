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
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Union

from .graphs import BlowupMap, Multigraph, Node

Weight = Union[Fraction, float]

SUM_TOL = 1e-12


class MeasureError(ValueError):
    """Invalid probability data or support mismatch."""


def to_weight(v) -> Weight:
    """One weight read from outside input: a finite float stays a float; an
    int, a Fraction or a numeric string becomes an exact Fraction.  A weight
    beyond the largest float is refused: simulation and the drift reports
    read weights as floats."""
    if isinstance(v, bool):
        raise MeasureError(f"weight {v!r} is not a number")
    if isinstance(v, float):
        if not math.isfinite(v):
            raise MeasureError(f"weight {v!r} is not a finite number")
        return v
    if not isinstance(v, (Fraction, int, str)):
        raise MeasureError(f"unsupported weight type {type(v).__name__}")
    try:
        w = Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise MeasureError(f"cannot parse weight {v!r}") from exc
    if abs(w) > sys.float_info.max:
        raise MeasureError(f"weight {v!r} is too large for a float")
    return w


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
        mu = ProbMeasure({k: to_weight(v) for k, v in raw.items()})
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
        # Sorted, so a float sum does not depend on set iteration order.
        return sum((self[i] for i in sorted(nodes)), Fraction(0))

    def check_support(self, g: Multigraph) -> None:
        if self.weights.keys() != g.adjacency.keys():  # key views compare as sets
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


def _scan(g: Multigraph, mu: ProbMeasure, table: Optional[dict[int, Weight]] = None):
    """NCOND's report and the weights in node order, from one walk over the
    independent sets as bitmasks; with ``table``, over the loop-free subgraph's
    sets, keeping each gap mu(E(S)) - mu(S & V2) by mask.  An exact measure's
    weights and gaps are ints, in units of the weights' common denominator.  A
    mass adds its bits in increasing index, one lookup per chunk of bits; a
    chunk is one bit for floats, so a float gap is ``mu.mass``'s, bit for bit.
    """
    exact = mu.is_exact
    scale = math.lcm(*(mu[c].denominator for c in g.nodes)) if exact else 1
    weights = [int(mu[c] * scale) if exact else mu[c] for c in g.nodes]
    width, tables = (8 if exact else 1), []
    for shift in range(0, len(weights), width):
        tables.append([0])
        for w in weights[shift:shift + width]:
            tables[-1] += [x + w for x in tables[-1]]

    def mass(s: int) -> Weight:
        total = 0
        for table in tables:
            total += table[s & (1 << width) - 1]
            s >>= width
        return total

    v1 = sum(1 << k for k, c in enumerate(g.nodes) if c in g.v1)
    v2 = sum(1 << k for k, c in enumerate(g.nodes) if c in g.v2)
    witness, best = None, math.inf
    for s, nbhd in g.independent_masks(table is not None):
        gap = mass(nbhd) - mass(s & v2)
        if table is not None:
            table[s] = gap
        if gap < best and not s & v1:
            witness, best = s, gap
    if isinstance(best, int):
        best = Fraction(best, scale)
    ok = best > 0 if isinstance(best, Fraction) else best > SUM_TOL  # float ties fail
    if witness is not None:
        witness = frozenset(c for k, c in enumerate(g.nodes) if witness >> k & 1)
    return NcondReport(satisfied=ok, margin=best, witness=witness), weights


def ncond_check(g: Multigraph, mu: ProbMeasure) -> NcondReport:
    """Exhaustive check of mu(I) < mu(E(I)) over all independent sets: one
    walk over the sets of ``g``, each gap folded as it comes, so memory does
    not grow with their number."""
    mu.check_support(g)
    return _scan(g, mu)[0]


def subset_table(g: Multigraph, mu: ProbMeasure) -> tuple[NcondReport, list[Weight], dict[int, Weight]]:
    """``ncond_check``'s report, the weights in node order, and the gap of
    every independent set of the loop-free subgraph, keyed by bitmask in
    ``Multigraph.independent_masks``'s order; ints in the unit of the weights'
    common denominator when the measure is exact."""
    mu.check_support(g)
    table: dict[int, Weight] = {}
    report, weights = _scan(g, mu, table)
    return report, weights, table


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
