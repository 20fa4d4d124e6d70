"""Queue-word state space, one-step dynamics, exact kernels, and simulation.

The Markov state is the word of unmatched item classes in arrival order.  A
word is admissible when no two adjacent classes are both present and each
self-looped class appears at most once.  Transition kernels are computed
exactly (policy randomness enumerated with its probabilities); Monte-Carlo
runs use a compact per-class FIFO engine so long trajectories stay cheap.  The
engine compiles the step of each arrival class once, at construction, into a
closure over that class's neighbour FIFOs and the policy's choice.  Under a
policy that never draws (FCFM, LCFM, a priority without ties), the next word
is a function of the word and the arrival, so a run reads its steps from a
bounded memo of the engine's transitions; the RNG stream is the same.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice, repeat
from typing import Iterator, Optional

import numpy as np

from .graphs import Multigraph, Node
from .measures import ProbMeasure, Weight, cumulative
from .policies import (
    Fcfm,
    Lcfm,
    MatchDecision,
    Policy,
    Word,
    class_rule,
    decision_distribution,
    decide,
    is_draw_free,
    word_counts,
)


class ChainError(ValueError):
    """Inadmissible state or ill-posed chain computation."""


def is_admissible_word(g: Multigraph, w: Word) -> bool:
    counts = word_counts(w)
    for c, n in counts.items():
        if c not in g.adjacency:
            return False
        if c in g.v1 and n > 1:
            return False
    present = list(counts)
    for idx, a in enumerate(present):
        for b in present[idx + 1 :]:
            if b in g.adjacency[a]:
                return False
    return True


def check_admissible(g: Multigraph, w: Word) -> None:
    if not is_admissible_word(g, w):
        raise ChainError(f"word {w!r} is not admissible")


def apply_decision(w: Word, v: Node, decision: MatchDecision) -> Word:
    if decision.is_match:
        k = decision.position
        return w[:k] + w[k + 1 :]
    return w + (v,)


def step(
    g: Multigraph, policy: Policy, w: Word, v: Node, rng: Optional[random.Random] = None
) -> Word:
    """One arrival applied to a queue word.  ``rng`` is only touched on draws."""
    decision = decide(g, policy, w, v, rng if rng is not None else random.Random(0))
    return apply_decision(w, v, decision)


def enumerate_states(g: Multigraph, max_len: int) -> list[Word]:
    """All admissible words up to a length, sorted by (length, letters)."""
    if max_len < 0:
        raise ChainError("max_len must be >= 0")
    out: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_len):
        nxt: list[Word] = []
        for w in frontier:
            present = set(w)
            counts = word_counts(w)
            for c in g.nodes:
                if c in g.v1 and counts.get(c, 0) >= 1:
                    continue
                if any(c != a and c in g.adjacency[a] for a in present):
                    continue
                nxt.append(w + (c,))
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    out.sort(key=lambda w: (len(w), w))
    return out


def kernel_row(
    g: Multigraph, mu: ProbMeasure, policy: Policy, w: Word
) -> dict[Word, Weight]:
    """Exact one-step transition law out of ``w``.

    Arrival classes and any policy randomness (permutations, tie sets) are
    enumerated with their exact probabilities, so with rational inputs the
    row is rational and sums to one exactly.
    """
    check_admissible(g, w)
    mu.check_support(g)
    row: dict[Word, Weight] = {}
    for v in g.nodes:
        pv = mu[v]
        for decision, p in decision_distribution(g, policy, w, v).items():
            target = apply_decision(w, v, decision)
            mass = pv * p
            row[target] = row.get(target, Fraction(0)) + mass
    return row


def predecessors(
    g: Multigraph, mu: ProbMeasure, policy: Policy, w: Word
) -> dict[Word, Weight]:
    """Every state reaching ``w`` in one step, with its transition probability.

    A reverse lookup for one word (the balance check sweeps forward over
    kernel rows instead).  One arrival changes the length by exactly one, so
    the candidates are the word with its last letter dropped (the no-match
    case, reversed) and every admissible single-letter insertion (the match
    case, reversed).  The returned probabilities are the kernel entries
    ``P(u, w)``.
    """
    check_admissible(g, w)
    candidates: set[Word] = set()
    if w:
        candidates.add(w[:-1])
    for pos in range(len(w) + 1):
        for c in g.nodes:
            u = w[:pos] + (c,) + w[pos:]
            if is_admissible_word(g, u):
                candidates.add(u)
    out: dict[Word, Weight] = {}
    for u in sorted(candidates, key=lambda x: (len(x), x)):
        p = kernel_row(g, mu, policy, u).get(w, Fraction(0))
        if p > 0:
            out[u] = p
    return out


# -- simulation ---------------------------------------------------------------

def _arrival_indices(mu: ProbMeasure, rng: random.Random) -> tuple[list[Node], Iterator[int]]:
    """The sorted classes and an endless i.i.d. stream of their indices."""
    nodes = sorted(mu.weights)
    cum = cumulative(mu[c] for c in nodes)
    return nodes, map(bisect_right, repeat(cum), iter(rng.random, None))


def arrival_stream(mu: ProbMeasure, rng: random.Random) -> Iterator[Node]:
    """Endless i.i.d. class sequence; each arrival takes one ``rng.random()``
    when it is taken, so the draws interleave with the policy's."""
    nodes, indices = _arrival_indices(mu, rng)
    return map(nodes.__getitem__, indices)


def draw_arrivals(mu: ProbMeasure, steps: int, rng: random.Random) -> list[Node]:
    """The first ``steps`` arrivals of :func:`arrival_stream`."""
    if steps < 0:
        raise ChainError(f"steps must be >= 0, got {steps}")
    return list(islice(arrival_stream(mu, rng), steps))


def _compile_offer(g, policy, v, fifo, items, clock):
    """The step for one arrival class: ``offer(rng)`` stores or matches it.

    The closure holds the class's own FIFO, its neighbours' FIFOs in sorted
    order and the policy's choice, and no reference to the engine, so an
    engine is freed as soon as it is dropped.
    """
    own = fifo[v]
    nbrs = sorted(g.adjacency[v])
    if isinstance(policy, (Fcfm, Lcfm)):
        # the neighbour whose oldest (newest) stored item arrived first (last);
        # heads are distinct arrival indices, so ``(a > b) is newest`` reads
        # a < b under FCFM and a > b under LCFM
        newest = isinstance(policy, Lcfm)
        end = -1 if newest else 0
        pop = deque.pop if newest else deque.popleft
        queues = tuple(fifo[j] for j in nbrs)

        def offer(rng):
            best = None
            for q in queues:
                if q and (best is None or (q[end] > best[end]) is newest):
                    best = q
            key = next(clock)
            if best is None:
                items[key] = v
                own.append(key)
                return None
            key = pop(best)
            del items[key]
            return key

        return offer

    rule = class_rule(policy)
    named = tuple((j, fifo[j]) for j in nbrs)

    def offer(rng):
        # stored items of each candidate class: all a class rule reads
        counts = {j: len(q) for j, q in named if q}
        key = next(clock)
        if not counts:
            items[key] = v
            own.append(key)
            return None
        key = fifo[rule(g, policy, counts, v, frozenset(counts), rng)].popleft()
        del items[key]
        return key

    return offer


class BufferEngine:
    """Mutable queue state with O(degree) matching steps.

    Items live in an insertion-ordered dict (arrival index -> class) plus
    one FIFO of arrival indices per class, which is enough to resolve any
    supported policy without materializing the word.  The step of each
    arrival class is compiled once, at construction: its neighbours' FIFOs,
    its own FIFO and the policy's choice among the candidate classes.
    """

    def __init__(self, g: Multigraph, policy: Policy):
        self.g = g
        self.policy = policy
        self._items: dict[int, Node] = {}
        self._fifo = {c: deque() for c in g.nodes}
        clock = count()
        self._offers = {
            v: _compile_offer(g, policy, v, self._fifo, self._items, clock) for v in g.nodes
        }

    @property
    def length(self) -> int:
        return len(self._items)

    @property
    def counts(self) -> dict[Node, int]:
        """Stored items per class, every class listed."""
        return {c: len(q) for c, q in self._fifo.items()}

    def word(self) -> Word:
        return tuple(self._items.values())

    def offer(self, v: Node, rng: Optional[random.Random]) -> Optional[int]:
        """Process one arrival; returns the 0-based arrival index (over this
        engine's offers) of the item it matched, or None if it is stored."""
        return self._offers[v](rng)

    def load(self, w: Word) -> None:
        """Hold exactly the admissible word ``w``.

        The buffer is emptied and the letters are offered in order; no two
        letters of an admissible word match, so each one is stored.
        """
        self._items.clear()
        for q in self._fifo.values():
            q.clear()
        for c in w:
            self._offers[c](None)


# Bounds of the transition table of a draw-free run: a longer word, or a
# word met after this many states, is stepped on the engine itself.
_TABLE_MAX_LEN = 24
_TABLE_MAX_STATES = 4096


class _StepTable:
    """Lazily filled transition table of a draw-free policy, read off one engine.

    When the policy never draws, the next word is a function of the word and
    the arrival class.  States number the words of length at most
    ``_TABLE_MAX_LEN`` met so far, at most ``_TABLE_MAX_STATES`` of them;
    ``rows[s][i]`` is the state reached from ``s`` on arrival index ``i``,
    or -1 until that step is first taken.  A missing entry is filled by one
    engine step from the state's word, so the table only caches the engine.
    """

    def __init__(self, engine: BufferEngine, offers: list, rng: random.Random):
        self.engine = engine
        self.offers = offers  # one compiled offer per arrival index
        self.rng = rng  # handed to the offers, which never draw from it
        self.words: list[Word] = []
        self.lens: list[int] = []
        self.rows: list[list[int]] = []
        self.ids: dict[Word, int] = {}
        self.at = self._intern(())  # the state the engine holds, or -1

    def _intern(self, w: Word) -> int:
        s = len(self.words)
        self.ids[w] = s
        self.words.append(w)
        self.lens.append(len(w))
        self.rows.append([-1] * len(self.offers))
        return s

    def fill(self, s: int, i: int) -> int:
        """State after arrival ``i`` in state ``s``, filled from the engine.

        Returns -1 instead, with the engine holding the word of ``s``, when
        the next word could fall outside the table's bounds; the run then
        takes this step on the engine.
        """
        if self.at != s:
            self.engine.load(self.words[s])
        if self.lens[s] >= _TABLE_MAX_LEN or len(self.words) >= _TABLE_MAX_STATES:
            self.at = -1
            return -1
        self.offers[i](self.rng)
        t = self.enter()
        self.rows[s][i] = t
        return t

    def enter(self) -> int:
        """State of the engine's word, new if the table has room, else -1.

        The word must be no longer than ``_TABLE_MAX_LEN``.
        """
        w = self.engine.word()
        t = self.ids.get(w)
        if t is None:
            t = self._intern(w) if len(self.words) < _TABLE_MAX_STATES else -1
        self.at = t
        return t


@dataclass(frozen=True)
class SimulationResult:
    """Post-burn-in visit statistics of one simulated trajectory.

    ``counts`` holds visit counts of words no longer than ``word_cap``;
    longer states are lumped into ``overflow_steps`` so that
    ``sum(counts.values()) + overflow_steps == recorded_steps``.  Queue
    length and occupancy statistics cover every recorded step; ``tail_slope``
    fits the queue length over the last half of the run, burn-in included.
    """

    total_steps: int
    burn_in: int
    recorded_steps: int
    seed: int
    word_cap: int
    counts: dict[Word, int]
    overflow_steps: int
    max_queue_len: int
    mean_queue_len: float
    class_occupancy: dict[Node, float]
    final_queue_len: int
    tail_slope: float

    def frequency(self, w: Word) -> float:
        return self.counts.get(w, 0) / self.recorded_steps


def simulate(
    g: Multigraph,
    mu: ProbMeasure,
    policy: Policy,
    steps: int,
    burn_in: Optional[int] = None,
    seed: int = 0,
    word_cap: int = 16,
) -> SimulationResult:
    """Run the matching chain from the empty buffer and tally visited words.

    The burn-in (default 1% of the step count) must be below the step count,
    so at least one step is recorded.  A recorded step tallies its word, or
    past ``word_cap`` its length and class counts; the queue statistics are
    summed from those tallies after the run.  Given a seed the result is
    bit-identical across runs; the per-step draw order is fixed (arrival
    first, then any policy draws).

    A policy that never draws takes each step from a transition table over
    the short words met so far (a bounded memo, filled from the engine on
    first use); longer words, and the words met once the table is full, are
    stepped on the engine.  Only the arrivals draw either way, so the result
    is the engine's, bit for bit.
    """
    if steps <= 0:
        raise ChainError("steps must be positive")
    if burn_in is None:
        burn_in = steps // 100
    if not 0 <= burn_in < steps:
        raise ChainError(f"burn-in must satisfy 0 <= burn_in < steps, got {burn_in}")
    if word_cap < 0:
        raise ChainError(f"word_cap must be >= 0, got {word_cap}")
    mu.check_support(g)
    rng = random.Random(seed)
    nodes, arrivals = _arrival_indices(mu, rng)

    engine = BufferEngine(g, policy)
    offers = [engine._offers[c] for c in nodes]
    items, queues = engine._items, engine._fifo.items()
    word = items.values()  # a live view: tuple(word) is the current word
    # s is the current table state, or -1 while the engine steps; the engine
    # hands back to the table at a word no longer than top
    table = _StepTable(engine, offers, rng) if is_draw_free(policy) else None
    if table:
        rows, lens = table.rows, table.lens
        s, top = 0, _TABLE_MAX_LEN
    else:
        s, top = -1, -1
    counts: dict = {}  # visits per word, or per table state
    tally = counts.get
    overflow = 0
    max_len = 0  # these two over the overflow steps; counts adds the rest
    occ_sum = dict.fromkeys(g.nodes, 0)
    half = steps // 2
    tail = array("q")  # queue lengths over the last half, for the slope
    keep_len = tail.append
    # the run cut where recording (burn_in) or the slope's tail (half) starts
    cuts = sorted({0, burn_in, half, steps})
    for start, stop in zip(cuts, cuts[1:]):
        keep, record = start >= half, start >= burn_in
        # both loops take the segment's arrivals from ``feed``; a loop that
        # hands over to the other leaves the rest in it, and the table puts
        # back in front the arrival that it hands to the engine
        segment = feed = islice(arrivals, stop - start)
        while True:
            if s >= 0:
                for i in feed:
                    t = rows[s][i]
                    if t < 0:
                        t = table.fill(s, i)
                        if t < 0:
                            feed = chain((i,), segment)
                            s = -1
                            break
                    s = t
                    if keep:
                        keep_len(lens[s])
                    if record:
                        counts[s] = tally(s, 0) + 1
                else:
                    break
            else:
                for i in feed:
                    offers[i](rng)
                    ln = len(items)
                    if keep:
                        keep_len(ln)
                    if ln <= top:
                        s = table.enter()
                        if s >= 0:
                            if record:
                                counts[s] = tally(s, 0) + 1
                            feed = segment
                            break
                    if not record:
                        continue
                    if ln <= word_cap:
                        w = tuple(word)
                        counts[w] = tally(w, 0) + 1
                    else:
                        overflow += 1
                        if ln > max_len:
                            max_len = ln
                        for c, q in queues:
                            occ_sum[c] += len(q)
                else:
                    break
    final_len = lens[s] if s >= 0 else len(items)
    words = table.words if table else ()
    # an unstable run's buffer need not outlive the loop
    del engine, offers, items, queues, word, table
    # table states longer than word_cap are overflow steps
    tallied: dict[Word, int] = {}
    for key, k in counts.items():
        w = words[key] if type(key) is int else key
        max_len = max(max_len, len(w))
        for c in w:
            occ_sum[c] += k
        if len(w) <= word_cap:
            tallied[w] = k
        else:
            overflow += k
    recorded = steps - burn_in
    return SimulationResult(
        total_steps=steps,
        burn_in=burn_in,
        recorded_steps=recorded,
        seed=seed,
        word_cap=word_cap,
        counts=tallied,
        overflow_steps=overflow,
        max_queue_len=max_len,
        mean_queue_len=sum(occ_sum.values()) / recorded,
        class_occupancy={c: occ_sum[c] / recorded for c in g.nodes},
        final_queue_len=final_len,
        tail_slope=least_squares_slope(tail),
    )


def least_squares_slope(lengths) -> float:
    """Least-squares slope of queue lengths against their index 0, 1, ...

    The sums accumulate left to right (``np.cumsum``, not the pairwise order
    of ``np.sum``); fewer than two lengths give 0.0.
    """
    y = np.asarray(lengths, dtype=float)
    n = y.size
    if n < 2:
        return 0.0
    x = np.arange(n, dtype=float)
    sx, sy, sxy, sxx = (np.cumsum(a)[-1] for a in (x, y, x * y, x * x))
    denom = n * sxx - sx * sx
    return float((n * sxy - sx * sy) / denom) if denom > 0 else 0.0


def stability_slope(
    g: Multigraph, mu: ProbMeasure, policy: Policy, steps: int, seed: int = 0
) -> float:
    """Least-squares growth rate of the queue length over the trajectory tail.

    A slope bounded away from zero signals transience; a slope near zero is
    consistent with stability.  This is a heuristic screen, not a recurrence
    test.  It is the ``tail_slope`` of a ``simulate`` run with the same seed
    (fit over the last half of the run, to discard the transient), recording
    only the last step; ``steps`` must be positive.
    """
    return simulate(g, mu, policy, steps, burn_in=steps - 1, seed=seed).tail_slope
