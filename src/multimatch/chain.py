"""Queue-word state space, one-step dynamics, exact kernels, and simulation.

The Markov state is the word of unmatched item classes in arrival order.  A
word is admissible when each letter is adjacent to no class before it; a
self-looped class is adjacent to itself, so it appears at most once.  A
policy's decision is the position in the word of the stored item an arrival
takes, or None when the arrival is stored; :func:`apply_decision` makes the
next word from it for the exact kernels, the sampled step and the step table
alike.  Kernels are computed exactly (policy randomness enumerated with its
probabilities); Monte-Carlo runs use a compact per-class FIFO engine so long
trajectories stay cheap.  The engine compiles the step of each arrival class
once, at construction, into a closure over that class's neighbour FIFOs and
the policy's choice.

Under FCFM, LCFM or a class rule, the next word is a function of the word,
the arrival and the class the policy draws, and which RNG call the policy
makes is a function of the word and the arrival.  So a run reads its steps
from a bounded table filled from the word-level transition of the policy;
an entry is final once filled: the next word, or a draw record that replays
the policy's own RNG call and holds every word the call may lead to.  A step
goes to the engine exactly when the table cannot hold one of its next words:
a word longer than the table's length bound, or a new word while the table
is full.  When the policy never draws, only the arrivals draw, so they are
drawn in bulk, a chunk at a time, and the bulk stream equals the per-step
one; a policy that can draw takes its arrivals one at a time, interleaved
with its own draws.  Only the simulation code imports numpy, inside the
functions that use it, so the exact layer runs without loading it.
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

from .graphs import Multigraph, Node
from .measures import ProbMeasure, Weight, cumulative
from .policies import (
    Fcfm,
    Lcfm,
    Policy,
    Word,
    class_rule,
    decision_distribution,
    decide,
    is_draw_free,
    sample,
    transition,
)


class ChainError(ValueError):
    """Inadmissible state or ill-posed chain computation."""


def is_admissible_word(g: Multigraph, w: Word) -> bool:
    seen: set[Node] = set()
    for c in w:
        nb = g.adjacency.get(c)
        if nb is None or not nb.isdisjoint(seen):
            return False
        seen.add(c)
    return True


def check_admissible(g: Multigraph, w: Word) -> None:
    if not is_admissible_word(g, w):
        raise ChainError(f"word {w!r} is not admissible")


def apply_decision(w: Word, v: Node, x: Optional[int]) -> Word:
    """The next word: ``w`` without its letter at position ``x``, or with the
    arrival ``v`` stored at its end when ``x`` is None."""
    return w + (v,) if x is None else w[:x] + w[x + 1 :]


def step(
    g: Multigraph, policy: Policy, w: Word, v: Node, rng: Optional[random.Random] = None
) -> Word:
    """One arrival applied to a queue word.  ``rng`` is only touched on draws."""
    x = decide(g, policy, w, v, rng if rng is not None else random.Random(0))
    return apply_decision(w, v, x)


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
            for c in g.nodes:
                if any(c in g.adjacency[a] for a in present):
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
        for x, p in decision_distribution(g, policy, w, v).items():
            target = apply_decision(w, v, x)
            # a sure decision's exact 1 keeps the arrival's mass and its type;
            # a float probability, even 1.0, still turns the mass into a float
            mass = pv if type(p) is Fraction and p == 1 else pv * p
            row[target] = row[target] + mass if target in row else mass
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

def _arrival_table(mu: ProbMeasure) -> tuple[list[Node], list[float]]:
    """The sorted classes and the float cumulative table of their masses."""
    nodes = sorted(mu.weights)
    return nodes, cumulative(mu[c] for c in nodes)


def _arrival_indices(cum: list[float], rng: random.Random) -> Iterator[int]:
    """Endless i.i.d. class indices, one ``rng.random()`` each as it is taken."""
    return map(bisect_right, repeat(cum), iter(rng.random, None))


# Arrivals drawn per bulk call: a few hundred kB of buffers at a time.
_ARRIVAL_CHUNK = 1 << 14


def _arrival_chunks(
    cum: list[float], rng: random.Random, steps: int
) -> Iterator[Iterator[int]]:
    """The first ``steps`` indices of :func:`_arrival_indices`, in chunks of
    at most ``_ARRIVAL_CHUNK``, drawn in bulk.

    ``rng.getrandbits(64 * n)`` holds, least significant first, the 2n 32-bit
    words that n calls of ``rng.random()`` consume, and leaves ``rng`` where
    they would; each pair (a, b) gives ``random()``'s own double
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and ``searchsorted`` on the right
    is ``bisect_right``.  Each chunk is drawn when it is taken.
    """
    import numpy as np

    table = np.asarray(cum)
    while steps > 0:
        n = min(steps, _ARRIVAL_CHUNK)
        steps -= n
        words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
        u = (words[0::2] >> 5).astype(np.float64)
        u *= 67108864.0
        u += words[1::2] >> 6
        del words
        u /= 9007199254740992.0
        # an exhausted list iterator frees its list before the next chunk
        yield iter(np.searchsorted(table, u, side="right").tolist())


def draw_arrivals(mu: ProbMeasure, steps: int, rng: random.Random) -> list[Node]:
    """The classes of the first ``steps`` indices of :func:`_arrival_indices`.

    They are drawn in bulk, and ``rng`` ends in the state that ``steps``
    per-arrival draws leave it in.
    """
    if steps < 0:
        raise ChainError(f"steps must be >= 0, got {steps}")
    nodes, cum = _arrival_table(mu)
    pick = nodes.__getitem__
    return [pick(i) for chunk in _arrival_chunks(cum, rng, steps) for i in chunk]


def _compile_offer(g, policy, v, fifo, items, clock):
    """The step for one arrival class: ``offer(rng)`` stores or matches it.

    The closure holds the class's own FIFO, its neighbours' FIFOs in sorted
    order and the policy's choice, and no reference to the engine, so an
    engine is freed as soon as it is dropped.
    """
    own = fifo[v]
    nbrs = g.sorted_adjacency[v]
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
        spec = rule(g, policy, counts, v)
        key = fifo[spec[0][0 if spec[1] is None else sample(spec, rng)]].popleft()
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
        self._clock = clock = count()
        self._offers = {
            v: _compile_offer(g, policy, v, self._fifo, self._items, clock) for v in g.nodes
        }

    @property
    def length(self) -> int:
        return len(self._items)

    def word(self) -> Word:
        return tuple(self._items.values())

    def offer(self, v: Node, rng: Optional[random.Random]) -> Optional[int]:
        """Process one arrival; returns the 0-based arrival index (over this
        engine's offers) of the item it matched, or None if it is stored."""
        return self._offers[v](rng)

    def load(self, w: Word) -> None:
        """Hold exactly the admissible word ``w``: its letters are stored in
        order, each under the next arrival index."""
        self._items.clear()
        for q in self._fifo.values():
            q.clear()
        for c, key in zip(w, self._clock):
            self._items[key] = c
            self._fifo[c].append(key)


# Bounds of a run's transition table.  A step goes to the engine exactly when
# the table cannot hold one of its next words: a word longer than
# _TABLE_MAX_LEN, or a new word while the table is full.
_TABLE_MAX_LEN = 24
_TABLE_MAX_STATES = 4096


class _StepTable:
    """Transition table of a policy on queue words, each entry filled on
    first use and final once filled.

    States number the words met so far, at most ``_TABLE_MAX_STATES`` of
    them, each no longer than ``_TABLE_MAX_LEN``; a state ``s`` is addressed
    by its offset ``s * k``, for ``k`` arrival classes.  The entry
    ``succ[o + i]`` for arrival index ``i`` at offset ``o`` is
      - the offset of the next state, when the step does not draw;
      - ``-3 - r`` for draw record ``r`` when it does: ``records[r]`` holds
        the policy's draw spec and, per class of the spec, the offset of the
        state its draw leads to;
      - -1 until the step is first taken; -2 when the table cannot hold one
        of its next words (a word longer than ``_TABLE_MAX_LEN``, or a new
        word while the table is full), so the step goes to the engine.
    An entry is filled from :func:`policies.transition` at the state's word,
    so filling never draws, and every next word is :func:`apply_decision` of
    the word, the arrival and the matched position.  A run draws from a
    record with :func:`policies.sample`.
    """

    def __init__(self, g: Multigraph, policy: Policy, nodes: list[Node]):
        import numpy as np

        self.g = g
        self.policy = policy
        self.nodes = nodes  # per arrival index
        self.k = len(nodes)
        self.words: list[Word] = []  # per state
        self.lens = np.zeros(_TABLE_MAX_STATES, dtype=np.int64)  # word lengths per state
        self.succ: list[int] = []
        self.records: list[tuple] = []
        self.ids: dict[Word, int] = {}  # word -> offset
        self.enter(())

    def fill(self, o: int, i: int) -> int:
        """Entry for arrival ``i`` at offset ``o``: the next offset, a draw
        record's code when the step draws, or -2 when the table cannot hold
        one of its next words, so the run takes this step on the engine."""
        w, v = self.words[o // self.k], self.nodes[i]
        t = -2
        x = transition(self.g, self.policy, w, v)
        if x is None or type(x) is int:
            t = self.enter(apply_decision(w, v, x))
        else:
            outs = [self.enter(apply_decision(w, v, w.index(j))) for j in x[0]]
            if min(outs) >= 0:
                self.records.append((x, outs))
                t = -2 - len(self.records)
        self.succ[o + i] = t
        return t

    def enter(self, w: Word) -> int:
        """Offset of the word ``w``, interned if it is new, or -2 when the
        table cannot hold it: a word longer than ``_TABLE_MAX_LEN``, or a new
        word while the table is full.  This is the one test of holding."""
        t = self.ids.get(w, -2)
        if t < 0 and len(self.words) < _TABLE_MAX_STATES and len(w) <= _TABLE_MAX_LEN:
            t = self.ids[w] = len(self.succ)
            self.lens[len(self.words)] = len(w)
            self.words.append(w)
            self.succ += [-1] * self.k
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

    Every policy takes its steps from a transition table over the short
    words met so far, filled from the word-level transition on first use; a
    step whose policy draws replays the policy's own RNG call from a draw
    record.  A step goes to the engine exactly when the table cannot hold
    one of its next words: a word longer than the table's length bound, or a
    new word while the table is full.  The engine, loaded with the table's
    word, steps on until it meets a word the table holds.  A policy that
    never draws only draws arrivals, so they are drawn in bulk (the same
    stream as per-step draws); a policy that can draw takes its arrivals one
    at a time, interleaved with its own draws.  The table steps of a chunk
    of arrivals are tallied together after it.  Either way the result, and
    the RNG's final state, are the engine's, bit for bit.
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
    import numpy as np

    rng = random.Random(seed)
    nodes, cum = _arrival_table(mu)

    engine = BufferEngine(g, policy)
    offers, load = [engine._offers[c] for c in nodes], engine.load
    items, queues = engine._items, engine._fifo.items()
    word = items.values()  # a live view: tuple(word) is the current word
    # visit counts, keyed in first-recorded-visit order: table states (counted
    # in ``visits``) and the other words the engine steps to (counted here)
    counts: dict = {}
    tally = counts.get
    table = _StepTable(g, policy, nodes)
    succ, lens, k, fill, enter = table.succ, table.lens, table.k, table.fill, table.enter
    words, records = table.words, table.records
    visits = np.zeros(len(lens), dtype=np.int64)  # recorded steps per state
    # o is the current table offset, or negative while the engine steps; the
    # engine hands back to the table at a word that ``enter`` holds, and its
    # ``ln <= top`` pre-check only spares it a tuple of a word too long to hold
    o, top = 0, _TABLE_MAX_LEN
    if is_draw_free(policy):

        def feeds(n):
            return _arrival_chunks(cum, rng, n)
    else:
        arrivals = _arrival_indices(cum, rng)

        def feeds(n):
            while n > 0:
                m = min(n, _ARRIVAL_CHUNK)
                n -= m
                yield islice(arrivals, m)

    overflow = 0
    max_len = 0  # these two over the overflow steps; counts adds the rest
    occ_sum = dict.fromkeys(g.nodes, 0)
    half = steps // 2
    tail = array("q")  # queue lengths over the last half, for the slope
    keep_len = tail.append

    def flush(walk, keep, record):
        """Tally the offsets of one walk over the table, in step order."""
        states = np.array(walk, dtype=np.int64) // k
        if keep:
            tail.frombytes(lens[states].tobytes())
        if record:
            fresh = visits[states] == 0
            if fresh.any():  # states recorded for the first time, in the order met
                counts.update(dict.fromkeys(states[fresh].tolist()))
            np.add.at(visits, states, 1)

    # the run cut where recording (burn_in) or the slope's tail (half) starts
    cuts = sorted({0, burn_in, half, steps})
    for start, stop in zip(cuts, cuts[1:]):
        keep, record = start >= half, start >= burn_in
        for chunk in feeds(stop - start):
            # both loops take the chunk's arrivals from ``feed``; a loop that
            # hands over to the other leaves the rest in it, and the table
            # puts back in front the arrival that it hands to the engine
            rest = feed = chunk
            walk: list[int] = []
            while True:
                if o >= 0:
                    push = walk.append
                    for i in feed:
                        t = succ[o + i]
                        if t < 0:
                            if t == -1:
                                t = fill(o, i)
                            if t < -2:
                                spec, outs = records[-3 - t]
                                t = outs[sample(spec, rng)]
                            elif t < 0:
                                load(words[o // k])
                                feed, o = chain((i,), rest), -1
                                break
                        o = t
                        push(o)
                    if keep or record:
                        flush(walk, keep, record)
                    walk = []
                    if o >= 0:
                        break
                else:
                    for i in feed:
                        offers[i](rng)
                        ln = len(items)
                        if ln <= top:
                            o = enter(tuple(word))
                            if o >= 0:
                                walk.append(o)
                                feed = rest
                                break
                        if keep:
                            keep_len(ln)
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
                    if o < 0:
                        break
    final_len = int(lens[o // k]) if o >= 0 else len(items)
    visits = visits.tolist()
    # an unstable run's buffer need not outlive the loop
    del engine, offers, load, items, queues, word, table, succ, fill, enter, records
    # table states longer than word_cap are overflow steps
    tallied: dict[Word, int] = {}
    for key, n in counts.items():
        if type(key) is int:
            key, n = words[key], visits[key]
        max_len = max(max_len, len(key))
        for c in key:
            occ_sum[c] += n
        if len(key) <= word_cap:
            tallied[key] = n
        else:
            overflow += n
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
    import numpy as np

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
