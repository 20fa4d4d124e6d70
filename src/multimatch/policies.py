"""Matching policies: who an arriving item pairs with, if anyone.

Supported rules: first/last come first matched (word order), random
preference permutations, fixed priorities, max-weight scoring, and a wrapper
that favors classes without self-loops.  Within a chosen class the oldest
stored item is always taken, so every class-level rule also acts on queue
words.

A decision is the 0-based position in the queue word of the stored item
that the arrival takes, or None when the arrival is stored.  Each
class-level kind has one rule that returns a draw spec: the classes it may
choose and the one RNG call that picks among them.  The same spec gives the
sampled class and, given no RNG, its exact law, and the simulation engine
replays it call for call.  What an arrival does at a queue word is defined
once, by :func:`transition`: the position it matches, None, or the rule's
draw spec.  :func:`decide` samples one decision from it and
:func:`decision_distribution` enumerates every decision with its exact
probability (used by transition kernels and drift computations); the
simulation's step table fills its entries from it too.  :func:`sample` makes
a spec's one RNG call, for :func:`decide` and for the simulation's replay.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence, Union

from .graphs import BlowupMap, Multigraph, Node
from .measures import SUM_TOL, Weight, cumulative, to_weight

Word = tuple[Node, ...]


class PolicyError(ValueError):
    """Policy specification not valid for the given graph."""


# -- policy kinds ----------------------------------------------------------

@dataclass(frozen=True)
class Fcfm:
    pass


@dataclass(frozen=True)
class Lcfm:
    pass


@dataclass(frozen=True)
class RandomPolicy:
    """Preference permutation drawn per arrival; ``perms=None`` means uniform.

    Explicit distributions map each class to ``((permutation, prob), ...)``
    over orderings of that class's neighborhood.
    """

    perms: Optional[Mapping[Node, tuple[tuple[tuple[Node, ...], Weight], ...]]] = None


Group = tuple[Node, ...]


@dataclass(frozen=True)
class Priority:
    """Fixed preference order per class.

    Each order is a sequence of groups; classes inside one group are tied and
    broken uniformly at random among those present.  Plain (ungrouped)
    priorities use singleton groups throughout and are fully deterministic.
    """

    order: Mapping[Node, tuple[Group, ...]]

    @staticmethod
    def from_lists(order: Mapping[Node, Sequence[object]]) -> "Priority":
        canon: dict[Node, tuple[Group, ...]] = {}
        for v, seq in order.items():
            groups: list[Group] = []
            for entry in seq:
                if isinstance(entry, str):
                    groups.append((entry,))
                else:
                    groups.append(tuple(entry))
            canon[v] = tuple(groups)
        return Priority(canon)


@dataclass(frozen=True)
class MaxWeight:
    """Pick the class maximizing beta * queue_length + reward(arrival, class).

    Missing reward entries count as zero.  ``beta > 0`` with flat rewards is
    match-the-longest, ``beta < 0`` match-the-shortest, and ``beta = 0`` with
    strictly ordered rewards reduces to a priority rule.
    """

    beta: Weight
    rewards: Mapping[tuple[Node, Node], Weight] = field(default_factory=dict)

    def reward(self, v: Node, j: Node) -> Weight:
        return self.rewards.get((v, j), 0)


@dataclass(frozen=True)
class V2Favorable:
    """Restrict candidates to the favored classes whenever one is available.

    ``favored=None`` resolves to the graph's loop-free classes at decision
    time; transforms between related graphs freeze the set explicitly so the
    original preference survives.  The inner policy must be class-admissible.
    """

    inner: "Policy"
    favored: Optional[frozenset[Node]] = None

    def resolve_favored(self, g: Multigraph) -> frozenset[Node]:
        return self.favored if self.favored is not None else g.v2


Policy = Union[Fcfm, Lcfm, RandomPolicy, Priority, MaxWeight, V2Favorable]


def is_class_admissible(policy: Policy) -> bool:
    if isinstance(policy, V2Favorable):
        return is_class_admissible(policy.inner)
    return type(policy) in _CLASS_RULES


def is_draw_free(policy: Policy) -> bool:
    """True when no step ever draws: FCFM, LCFM, a priority without tied
    groups, or the favored-class wrapper over one of these."""
    if isinstance(policy, V2Favorable):
        return is_draw_free(policy.inner)
    if isinstance(policy, Priority):
        return all(len(grp) == 1 for groups in policy.order.values() for grp in groups)
    return isinstance(policy, (Fcfm, Lcfm))


def match_the_longest(beta: Weight = 1) -> MaxWeight:
    if not beta > 0:
        raise PolicyError("match-the-longest needs beta > 0")
    return MaxWeight(beta=beta)


def match_the_shortest(beta: Weight = -1) -> MaxWeight:
    if not beta < 0:
        raise PolicyError("match-the-shortest needs beta < 0")
    return MaxWeight(beta=beta)


def validate_policy(policy: Policy, g: Multigraph) -> None:
    """Check a policy's data against a graph's adjacency."""
    if isinstance(policy, Priority):
        missing = sorted(set(g.nodes) - set(policy.order))
        if missing:
            raise PolicyError(f"priority order has no entry for classes {missing}")
        for v, groups in policy.order.items():
            g.check_node(v)
            flat = [j for grp in groups for j in grp]
            if sorted(flat) != sorted(g.adjacency[v]):
                raise PolicyError(
                    f"priority order for {v!r} is not a permutation of its "
                    f"neighborhood {sorted(g.adjacency[v])}"
                )
    elif isinstance(policy, RandomPolicy) and policy.perms is not None:
        for v, dist in policy.perms.items():
            g.check_node(v)
            if any(p < 0 for _, p in dist):
                raise PolicyError(f"permutation weights for {v!r} must be nonnegative")
            total = sum((p for _, p in dist), Fraction(0))
            if not (abs(total - 1) <= SUM_TOL if isinstance(total, float) else total == 1):
                raise PolicyError(f"permutation weights for {v!r} do not sum to 1")
            for perm, _ in dist:
                if sorted(perm) != sorted(g.adjacency[v]):
                    raise PolicyError(
                        f"{perm} is not a permutation of the neighborhood of {v!r}"
                    )
    elif isinstance(policy, MaxWeight):
        for (a, b) in policy.rewards:
            g.check_node(a)
            g.check_node(b)
            if b not in g.adjacency[a]:
                raise PolicyError(f"reward given for non-adjacent pair ({a},{b})")
    elif isinstance(policy, V2Favorable):
        if not is_class_admissible(policy.inner):
            raise PolicyError("the favored-class wrapper needs a class-admissible inner policy")
        for v in sorted(policy.favored or ()):
            g.check_node(v)
        validate_policy(policy.inner, g)


# -- candidate sets and class choice ----------------------------------------

def word_counts(w: Word) -> dict[Node, int]:
    """Stored items per class of a queue word."""
    counts: dict[Node, int] = {}
    for c in w:
        counts[c] = counts.get(c, 0) + 1
    return counts


# A class rule returns its draw spec ``(classes, draw)``: the classes it may
# choose, and the one RNG call that picks among them.  ``draw`` is one of
#   None              no draw; ``classes`` holds the one choice;
#   (_RANDRANGE,)     ``rng.randrange(len(classes))`` indexes the sorted tied
#                     ``classes`` (tied priorities, match-the-longest and
#                     match-the-shortest);
#   (_SHUFFLE, nbrs)  ``rng.shuffle`` of a copy of ``nbrs``, the graph's one
#                     sorted neighbourhood tuple of the arrival; its first
#                     entry among ``classes`` is chosen (uniform RandomPolicy;
#                     one draw tuple per neighbourhood, from :func:`_shuffle`);
#   (_RANDOM, cum, firsts, weights)
#                     ``rng.random()`` bisected over ``cum``, the float running
#                     sums of the permutations' ``weights``, picks a
#                     permutation; ``firsts`` holds the index in ``classes``
#                     of the first candidate of each (explicit RandomPolicy
#                     permutations).
# Uniform random and explicit permutations draw even with one candidate, as
# the per-arrival permutation they stand for is drawn whatever it meets; a tie
# draws only among two or more classes.  The sample (:func:`sample`), the
# exact law (:func:`_law`), the engine's step and the simulation's step table
# all read the same spec.  It is a function of the arrival and the stored
# items per class, so under a class rule the next queue word is a function of
# the word, the arrival and the drawn class.
_RANDRANGE, _SHUFFLE, _RANDOM = "randrange", "shuffle", "random"
_TIE = (_RANDRANGE,)


def sample(spec, rng: random.Random) -> int:
    """Index in ``classes`` of the class a draw spec picks, making its one
    call on ``rng``."""
    classes, draw = spec
    if draw is None:
        return 0
    kind = draw[0]
    if kind is _RANDRANGE:
        return rng.randrange(len(classes))
    if kind is _RANDOM:
        return draw[2][bisect_right(draw[1], rng.random())]
    perm = list(draw[1])
    rng.shuffle(perm)
    for j in perm:  # the first candidate; every candidate is a neighbour
        if j in classes:
            break
    return classes.index(j)


def _law(spec) -> dict[Node, Weight]:
    """The exact law {class: probability} of a draw spec."""
    classes, draw = spec
    if draw is not None and draw[0] is _RANDOM:
        law: dict[Node, Weight] = {}
        for x, p in zip(draw[2], draw[3]):
            j = classes[x]
            law[j] = law.get(j, Fraction(0)) + p
        return law
    # a uniform permutation's first hit is uniform on the candidates
    p = Fraction(1, len(classes))
    return {j: p for j in classes}


def _uniform(choices: Sequence[Node]):
    """Spec of a uniform pick among sorted choices: a draw only on a tie."""
    return choices, (_TIE if len(choices) > 1 else None)


@lru_cache(maxsize=64)
def _shuffle(nbrs: tuple[Node, ...]):
    """The draw ``(_SHUFFLE, nbrs)`` of a sorted neighbourhood, shared by the
    specs, and the draw records, that shuffle it.  The cache holds the
    neighbourhoods of the last few graphs, not of every graph a process
    meets."""
    return _SHUFFLE, nbrs


def _random_rule(g, policy, counts, v):
    dist = (policy.perms or {}).get(v)
    if dist is None:
        return sorted(counts), _shuffle(g.sorted_adjacency[v])
    firsts = [next(j for j in perm if j in counts) for perm, _ in dist]
    classes = list(dict.fromkeys(firsts))
    weights = [p for _, p in dist]
    return classes, (_RANDOM, cumulative(weights), list(map(classes.index, firsts)), weights)


def _priority_rule(g, policy, counts, v):
    groups = policy.order.get(v)
    if groups is None:
        raise PolicyError(f"priority policy lacks an order for class {v!r}")
    for group in groups:
        present = sorted(counts.keys() & group)
        if present:
            return _uniform(present)
    raise PolicyError(f"priority order for {v!r} missed candidates {sorted(counts)}")


def _max_weight_rule(g, policy, counts, v):
    # one pass: the top score so far and the classes that reach it
    beta, reward = policy.beta, policy.reward
    top = tied = None
    for j, n in counts.items():
        s = beta * n + reward(v, j)
        if tied is None or s > top:
            top, tied = s, [j]
        elif s == top:
            tied.append(j)
    tied.sort()
    return _uniform(tied)


def _favored_rule(g, policy, counts, v):
    favored = policy.resolve_favored(g)
    narrowed = {j: n for j, n in counts.items() if j in favored} or counts
    return class_rule(policy.inner)(g, policy.inner, narrowed, v)


_CLASS_RULES = {
    RandomPolicy: _random_rule,
    Priority: _priority_rule,
    MaxWeight: _max_weight_rule,
    V2Favorable: _favored_rule,
}


def class_rule(policy: Policy):
    """The draw-spec rule of this policy's kind: ``rule(g, policy, counts, v)``
    returns ``(classes, draw)``, where the keys of ``counts`` are the candidate
    classes and its values their stored items."""
    if type(policy) not in _CLASS_RULES:
        raise PolicyError(f"{type(policy).__name__} is not class-admissible")
    return _CLASS_RULES[type(policy)]


# -- word-level decisions ----------------------------------------------------

def transition(g: Multigraph, policy: Policy, w: Word, v: Node):
    """What arrival ``v`` does at word ``w``: the 0-based position it matches,
    None when it is stored, or the class rule's draw spec when the rule draws.

    One pass over ``w``, restricted to the neighbourhood of ``v``.  A class
    rule reads the stored items per candidate class, so its spec is the one
    the engine's compiled step builds; the matched item is the oldest of the
    drawn class.
    """
    nbrs = g.adjacency.get(v)
    if nbrs is None:
        g.check_node(v)
    if isinstance(policy, Fcfm):
        for k, c in enumerate(w):
            if c in nbrs:
                return k
        return None
    if isinstance(policy, Lcfm):
        for k in range(len(w) - 1, -1, -1):
            if w[k] in nbrs:
                return k
        return None
    counts: dict[Node, int] = {}
    for c in w:
        if c in nbrs:
            counts[c] = counts.get(c, 0) + 1
    if not counts:
        return None
    spec = class_rule(policy)(g, policy, counts, v)
    return w.index(spec[0][0]) if spec[1] is None else spec


_SURE = Fraction(1)


def decision_distribution(
    g: Multigraph, policy: Policy, w: Word, v: Node
) -> dict[Optional[int], Weight]:
    """Exact law of the decision from queue word ``w`` on arrival ``v``, as
    {matched 0-based position, or None when ``v`` is stored: probability}.

    Class-level choices land on the oldest stored item of the chosen class.
    A sure decision's probability is one shared exact 1.
    """
    t = transition(g, policy, w, v)
    if t is None or type(t) is int:
        return {t: _SURE}
    return {w.index(j): p for j, p in _law(t).items()}


def decide(
    g: Multigraph, policy: Policy, w: Word, v: Node, rng: random.Random
) -> Optional[int]:
    """Sample one decision: the matched 0-based position in ``w``, or None
    when ``v`` is stored.  Deterministic rules ignore ``rng``.

    Random policies draw their preference permutation first; any tie-break
    draw comes after, so a seeded stream replays identically.
    """
    t = transition(g, policy, w, v)
    if t is None or type(t) is int:
        return t
    return w.index(t[0][sample(t, rng)])


# -- transforms between a multigraph and its blow-up / loop-free versions ----

def extend_policy(policy: Policy, bmap: BlowupMap) -> Policy:
    """Canonical counterpart of a policy on the blown (loop-free) graph.

    Copies inherit the preference data of their originals; where an original
    entry and its copy both end up available they are tied and broken evenly.
    On states without copies the extension reproduces the source policy's
    decisions exactly.
    """
    g = bmap.original
    if isinstance(policy, (Fcfm, Lcfm)):
        return policy
    if isinstance(policy, RandomPolicy):
        if policy.perms is not None:
            raise PolicyError(
                "only the uniform random policy has a canonical extension"
            )
        return policy
    if isinstance(policy, Priority):

        def lift(v: Node, groups: tuple[Group, ...], self_partner: Node) -> tuple[Group, ...]:
            # Entry j keeps its rank; looped classes j expand to the tied
            # pair {j, copy(j)}; the self entry becomes the pair partner.
            lifted: list[Group] = []
            for grp in groups:
                members: list[Node] = []
                for j in grp:
                    if j == v:
                        members.append(self_partner)
                    elif j in g.v1:
                        members.extend((j, bmap.copy_of[j]))
                    else:
                        members.append(j)
                lifted.append(tuple(members))
            return tuple(lifted)

        new_order: dict[Node, tuple[Group, ...]] = {}
        for v, groups in policy.order.items():
            new_order[v] = lift(v, groups, bmap.copy_of.get(v, v))
            if v in g.v1:
                new_order[bmap.copy_of[v]] = lift(v, groups, v)
        return Priority(new_order)
    if isinstance(policy, MaxWeight):
        new_rewards: dict[tuple[Node, Node], Weight] = {}
        blown = bmap.blown
        for a in blown.nodes:
            for b in blown.adjacency[a]:
                r = policy.reward(bmap.base(a), bmap.base(b))
                if r != 0:
                    new_rewards[(a, b)] = r
        return MaxWeight(beta=policy.beta, rewards=new_rewards)
    if isinstance(policy, V2Favorable):
        favored = policy.resolve_favored(g)
        return V2Favorable(extend_policy(policy.inner, bmap), favored=favored)
    raise PolicyError(f"cannot extend {type(policy).__name__}")


def reduce_policy(policy: Policy, g: Multigraph) -> Policy:
    """Same policy reread on the loop-free subgraph; self-preferences drop out."""
    if isinstance(policy, (Fcfm, Lcfm, RandomPolicy)):
        return policy
    if isinstance(policy, Priority):
        new_order: dict[Node, tuple[Group, ...]] = {}
        for v, groups in policy.order.items():
            kept = tuple(
                tuple(j for j in grp if j != v) for grp in groups
            )
            new_order[v] = tuple(grp for grp in kept if grp)
        return Priority(new_order)
    if isinstance(policy, MaxWeight):
        return policy  # loop rewards simply become unreachable
    if isinstance(policy, V2Favorable):
        favored = policy.resolve_favored(g)
        return V2Favorable(reduce_policy(policy.inner, g), favored=favored)
    raise PolicyError(f"cannot reduce {type(policy).__name__}")


# -- serialization ------------------------------------------------------------

def policy_to_json_dict(policy: Policy) -> dict:
    if isinstance(policy, Fcfm):
        return {"kind": "fcfm"}
    if isinstance(policy, Lcfm):
        return {"kind": "lcfm"}
    if isinstance(policy, RandomPolicy):
        out: dict = {"kind": "random"}
        if policy.perms is not None:
            out["perms"] = {
                v: [[list(perm), str(p)] for perm, p in dist]
                for v, dist in sorted(policy.perms.items())
            }
        return out
    if isinstance(policy, Priority):
        return {
            "kind": "priority",
            "order": {
                v: [list(grp) if len(grp) != 1 else grp[0] for grp in groups]
                for v, groups in sorted(policy.order.items())
            },
        }
    if isinstance(policy, MaxWeight):
        return {
            "kind": "maxweight",
            "beta": str(policy.beta),
            "rewards": {f"{a},{b}": str(r) for (a, b), r in sorted(policy.rewards.items())},
        }
    if isinstance(policy, V2Favorable):
        out = {"kind": "v2favorable", "inner": policy_to_json_dict(policy.inner)}
        if policy.favored is not None:
            out["favored"] = sorted(policy.favored)
        return out
    raise PolicyError(f"cannot serialize {type(policy).__name__}")


def _expect(value, kind: type, what: str):
    """``value`` if it is a JSON ``kind`` (object, array or string)."""
    if not isinstance(value, kind):
        name = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise PolicyError(f"{what} must be {name}, got {value!r}")
    return value


def _names(value, what: str) -> list[Node]:
    """A JSON array of class names."""
    for name in _expect(value, list, what):
        _expect(name, str, f"each class in {what}")
    return value


def policy_from_json_dict(data: dict) -> Policy:
    """Parse a policy document.

    A field of the wrong shape raises PolicyError, a bad weight MeasureError.
    """
    if not isinstance(data, dict):
        raise PolicyError("a policy must be a JSON object with a \"kind\"")
    kind = data.get("kind")
    if kind == "fcfm":
        return Fcfm()
    if kind == "lcfm":
        return Lcfm()
    if kind == "random":
        perms = data.get("perms")
        if perms is None:
            return RandomPolicy()
        parsed = {}
        for v, dist in _expect(perms, dict, '"perms"').items():
            entries = []
            for entry in _expect(dist, list, f'"perms" of {v!r}'):
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise PolicyError(
                        f'each "perms" entry of {v!r} must be a [permutation, weight] '
                        f"pair, got {entry!r}"
                    )
                perm = tuple(_names(entry[0], f"a permutation of {v!r}"))
                entries.append((perm, to_weight(entry[1])))
            parsed[v] = tuple(entries)
        return RandomPolicy(parsed)
    if kind == "priority":
        order = _expect(data.get("order"), dict, 'a priority policy\'s "order"')
        for v, seq in order.items():
            for entry in _expect(seq, list, f"the order of {v!r}"):
                if not isinstance(entry, str):
                    _names(entry, f"each entry of the order of {v!r}")
        return Priority.from_lists(order)
    if kind == "maxweight":
        rewards = {}
        for key, r in _expect(data.get("rewards", {}), dict, '"rewards"').items():
            pair = key.split(",")
            if len(pair) != 2:
                raise PolicyError(f'a reward key must name a pair "a,b", got {key!r}')
            rewards[tuple(pair)] = to_weight(r)
        return MaxWeight(beta=to_weight(data.get("beta", 1)), rewards=rewards)
    if kind == "ml":
        return match_the_longest()
    if kind == "ms":
        return match_the_shortest()
    if kind == "v2favorable":
        if "inner" not in data:
            raise PolicyError('a v2favorable policy needs an "inner" policy')
        favored = data.get("favored")
        return V2Favorable(
            policy_from_json_dict(data["inner"]),
            favored=None if favored is None else frozenset(_names(favored, '"favored"')),
        )
    raise PolicyError(f"unknown policy kind {kind!r}")


def policy_dumps(policy: Policy) -> str:
    return json.dumps(policy_to_json_dict(policy), sort_keys=True, indent=2) + "\n"


def policy_loads(text: str) -> Policy:
    return policy_from_json_dict(json.loads(text))
