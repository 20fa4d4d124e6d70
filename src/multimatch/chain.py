"""Queue-word state space, one-step dynamics, exact kernels, and simulation.

The Markov state is the word of unmatched item classes in arrival order.  A
word is admissible when each letter is adjacent to no class before it; a
self-looped class is adjacent to itself, so it appears at most once.  A
policy's decision is the position in the word of the stored item an arrival
takes, or None when the arrival is stored; :func:`apply_decision` makes the
next word from it for the exact kernels, the sampled step and the step table
alike.  Kernels are computed exactly (policy randomness enumerated with its
probabilities); Monte-Carlo runs use a compact engine so long trajectories
stay cheap: one FIFO of integer keys per class and nothing else, a key
growing with arrival order and naming its class.  The engine compiles the
step of each arrival class once, at construction, into a closure over that
class's neighbour FIFOs and the policy's choice.

Under FCFM, LCFM or a class rule, the next word is a function of the word,
the arrival and the class the policy draws, and which RNG call the policy
makes is a function of the word and the arrival.  So a run reads its steps
from a bounded table filled from the word-level transition of the policy;
an entry is final once filled: the next word, or a draw record that replays
the policy's own RNG call and holds every word the call may lead to.  A step
goes to the engine exactly when the table cannot hold one of its next words:
a word longer than the table's length bound, or a new word while the table
is full.  A run is one pass over one feed of arrivals, and each step
appends one int to a record, its table state or the class the engine stored
or matched, tallied with numpy up to 16384 steps at a time.  When the policy
never draws, only the arrivals draw, so they are drawn in bulk, a chunk at a
time, and the bulk stream equals the per-step one; a policy that can draw
takes its arrivals one at a time, interleaved with its own draws.  Only the
simulation code imports numpy, inside the functions that use it, so the
exact layer runs without loading it.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
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
            mass = pv * p
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


def _arrival_chunks(cum: list[float], rng: random.Random, steps: int) -> Iterator[np.ndarray]:
    """The first ``steps`` indices of :func:`_arrival_indices`, drawn in bulk
    as arrays of at most ``_ARRIVAL_CHUNK`` indices, of the smallest unsigned
    integer type that holds ``len(cum)``.

    ``rng.getrandbits(64 * n)`` holds, least significant first, the 2n 32-bit
    words that n calls of ``rng.random()`` consume, and leaves ``rng`` where
    they would; each pair (a, b) gives ``random()``'s own double
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53.  A double's index counts the
    entries of ``cum`` at or below it, which on a non-decreasing table is
    ``bisect_right``; the last entry, 1.0, is above every double and never
    counts.  Each chunk is drawn when it is taken.
    """
    import numpy as np

    dtype = np.min_scalar_type(len(cum))
    while steps > 0:
        n = min(steps, _ARRIVAL_CHUNK)
        steps -= n
        words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
        u = (words[0::2] >> 5).astype(np.float64)
        u *= 67108864.0
        u += words[1::2] >> 6
        del words
        u /= 9007199254740992.0
        idx = np.zeros(n, dtype=dtype)
        for c in cum[:-1]:
            idx += u >= c
        yield idx


def draw_arrival_indices(mu: ProbMeasure, steps: int, rng: random.Random) -> np.ndarray:
    """The first ``steps`` indices of :func:`_arrival_indices`, as one array
    of the smallest unsigned integer type that holds them: index ``i`` is the
    ``i``-th class of ``mu`` in sorted order.

    They are drawn in bulk, and ``rng`` ends in the state that ``steps``
    per-arrival draws leave it in.
    """
    import numpy as np

    if steps < 0:
        raise ChainError(f"steps must be >= 0, got {steps}")
    _, cum = _arrival_table(mu)
    empty = np.empty(0, dtype=np.min_scalar_type(len(cum)))
    return np.concatenate([empty, *_arrival_chunks(cum, rng, steps)])


def draw_arrivals(mu: ProbMeasure, steps: int, rng: random.Random) -> list[Node]:
    """The classes of :func:`draw_arrival_indices`."""
    return list(map(sorted(mu.weights).__getitem__, draw_arrival_indices(mu, steps, rng).tolist()))


def _compile_offer(g, policy, v, fifo):
    """The step for one arrival class: ``offer(key, rng)`` stores the
    arrival under ``key`` or matches it, and returns the key of the item it
    matched, or None.

    Keys are ints that grow with arrival order, so a FIFO's head is its
    oldest item.  The closure holds the class's own FIFO, its neighbours'
    FIFOs in sorted order and the policy's choice, and no reference to the
    engine, so an engine is freed as soon as it is dropped.
    """
    store = fifo[v].append
    nbrs = g.sorted_adjacency[v]
    queues = tuple(fifo[j] for j in nbrs)
    if isinstance(policy, Fcfm):
        # the neighbour whose oldest stored item arrived first

        def offer(key, rng):
            best, k = None, key  # every stored key is older than the arrival's
            for q in queues:
                if q and q[0] < k:
                    best, k = q, q[0]
            if best is None:
                store(key)
                return None
            return best.popleft()

        return offer
    if isinstance(policy, Lcfm):
        # the neighbour whose newest stored item arrived last

        def offer(key, rng):
            best, k = None, -1  # keys are nonnegative
            for q in queues:
                if q and q[-1] > k:
                    best, k = q, q[-1]
            if best is None:
                store(key)
                return None
            return best.pop()

        return offer

    rule = class_rule(policy)
    named = tuple(zip(nbrs, queues))

    def offer(key, rng):
        # stored items of each candidate class: all a class rule reads
        counts = {j: len(q) for j, q in named if q}
        if not counts:
            store(key)
            return None
        spec = rule(g, policy, counts, v)
        return fifo[spec[0][0 if spec[1] is None else sample(spec, rng)]].popleft()

    return offer


class BufferEngine:
    """Mutable queue state with O(degree) matching steps.

    Items live in one FIFO of keys per class and nowhere else, which is
    enough to resolve any supported policy without materializing the word.
    An item's key is ``(n + 1) * k + c`` for its 0-based arrival index ``n``
    and its class's index ``c`` among the ``k`` classes in sorted order, the
    order of :func:`simulate`'s arrival indices, so keys grow with arrival
    order and name their class; :meth:`word` merges the FIFOs by key.  The
    step of each arrival class is compiled once, at construction: its
    neighbours' FIFOs, its own FIFO and the policy's choice among the
    candidate classes.
    """

    def __init__(self, g: Multigraph, policy: Policy):
        self.g = g
        self.policy = policy
        self._classes = classes = sorted(g.nodes)
        self._fifo = {c: deque() for c in classes}
        self._index = {c: i for i, c in enumerate(classes)}
        self._k = len(classes)
        self._next = self._k  # the key of the next arrival of class index 0
        self._offers = {v: _compile_offer(g, policy, v, self._fifo) for v in g.nodes}

    @property
    def length(self) -> int:
        return sum(map(len, self._fifo.values()))

    def word(self) -> Word:
        """The stored classes in arrival order: the FIFOs merged by key."""
        classes, k = self._classes, self._k
        return tuple([classes[key % k] for key in sorted(chain.from_iterable(self._fifo.values()))])

    def offer(self, v: Node, rng: Optional[random.Random]) -> Optional[int]:
        """Process one arrival; returns the 0-based arrival index (over this
        engine's offers) of the item it matched, or None if it is stored."""
        key = self._next + self._index[v]
        self._next += self._k
        m = self._offers[v](key, rng)
        return None if m is None else m // self._k - 1

    def load(self, w: Word) -> None:
        """Hold exactly the admissible word ``w``: its letters are stored in
        order, each under the next arrival index."""
        for q in self._fifo.values():
            q.clear()
        k, index, key = self._k, self._index, self._next
        for c in w:
            self._fifo[c].append(key + index[c])
            key += k
        self._next = key


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
    word, steps on in one loop until it meets a word the table holds; the
    loop follows the queue's word only while the queue is short enough for
    the table to hold it or for the word to be tallied.  The run is one
    pass over one feed of arrivals, burn-in included.  A policy that never
    draws only draws arrivals, so they are drawn in bulk (the same stream as
    per-step draws); a policy that can draw takes its arrivals one at a time,
    interleaved with its own draws.  Each step appends one int to a record
    (its table state, or the class the engine stored or matched), tallied
    once per 16384 steps and at the end: integer running sums give the
    engine's queue lengths and class counts.  Either way the result, and the
    RNG's final state, are the engine's, bit for bit.
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
    nodes, cum = _arrival_table(mu)  # sorted: an arrival index is the engine's class index

    engine = BufferEngine(g, policy)
    offers, load, word = [engine._offers[c] for c in nodes], engine.load, engine.word
    queues = list(engine._fifo.values())
    table = _StepTable(g, policy, nodes)
    succ, lens, k, fill, enter = table.succ, table.lens, table.k, table.fill, table.enter
    words, records = table.words, table.records
    visits = np.zeros(len(lens), dtype=np.int64)  # recorded steps per state
    first = np.full(len(lens), steps, dtype=np.int64)  # first recorded step per state
    # the other words the engine steps to, no longer than word_cap: their
    # first recorded step and their recorded steps
    met: dict[Word, list[int]] = {}
    # o is the current table offset, or negative while the engine steps.  The
    # engine's queue holds ``ln`` items, and ``key + k + i`` is the key of its
    # next arrival, of class index i.  The engine loop keeps the queue's word
    # in ``w`` while the table may hold it or it may be tallied (``ln <=
    # near``), and hands back to the table at a word that ``enter`` holds.  A
    # store past ``near`` drops the word (``w`` is None), and the match that
    # brings the queue back within ``near`` reads it from the engine once.
    near = max(_TABLE_MAX_LEN, word_cap)
    o = key = ln = 0
    if is_draw_free(policy):
        # an exhausted iterator frees its chunk before the next one is drawn
        chunks = (iter(memoryview(c)) for c in _arrival_chunks(cum, rng, steps))
    else:
        arrivals = _arrival_indices(cum, rng)
        chunks = (islice(arrivals, min(_ARRIVAL_CHUNK, steps - n))
                  for n in range(0, steps, _ARRIVAL_CHUNK))

    # over the engine's overflow steps; visits and met add the rest
    overflow = max_len = 0
    occ_sum = np.zeros(k, dtype=np.int64)  # stored items per class, summed
    half = steps // 2
    tail = array("q")  # queue lengths over the last half, for the slope
    done = 0  # steps before the current record

    def flush(walk, occ0):
        """Tally a record of steps, in step order.  A table step holds its
        offset; an engine step holds ``~i`` when it stores an item of class
        index ``i`` (below ``k``), or ``~m`` when it matches the item of key
        ``m`` (at least ``k``, and ``m % k`` its class).  ``occ0`` holds the
        stored items per class before the record.  Steps from ``half`` on go
        to the slope's tail, and steps from ``burn_in`` on are recorded."""
        nonlocal overflow, max_len, occ_sum, done
        base, done = done, done + len(walk)
        if done <= min(half, burn_in):
            return
        keep_at, rec_at = max(half - base, 0), max(burn_in - base, 0)
        r = np.fromiter(walk, np.int64, len(walk))
        at = np.flatnonzero(r >= 0)
        states = r[at] // k
        if at.size == r.size:
            lengths = lens[states]
        else:
            # an engine step's queue length and stored items per class are
            # running sums of the items stored (+1) and matched (-1) since
            # the state its stretch starts from: the table step before the
            # stretch, or the record's start
            eng = np.flatnonzero(r < 0)
            e = ~r[eng]
            d = 1 - 2 * (e >= k)
            head = np.empty(eng.size, dtype=bool)
            head[0] = True
            np.greater(eng[1:] - eng[:-1], 1, out=head[1:])
            stretch = np.cumsum(head) - 1
            before = np.where(eng[head] > 0, r[eng[head] - 1] // k, 0)
            start_len = lens[before]
            if eng[0] == 0:
                start_len[0] = sum(occ0)
            run = np.cumsum(d)
            lengths = np.empty(r.size, dtype=np.int64)
            lengths[at] = lens[states]
            lengths[eng] = eng_len = run + (start_len - run[head] + d[head])[stretch]
            over = (eng_len > word_cap) & (eng >= rec_at)
            if over.any():
                moves = np.zeros((eng.size, k), dtype=np.int64)
                moves[np.arange(eng.size), e % k] = d
                by_class = np.cumsum(moves, axis=0)
                start_occ = [[words[s].count(c) for c in nodes] for s in before.tolist()]
                if eng[0] == 0:
                    start_occ[0] = occ0
                by_class += (start_occ - by_class[head] + moves[head])[stretch]
                occ_sum += by_class[over].sum(axis=0)
                overflow += int(np.count_nonzero(over))
                max_len = max(max_len, int(eng_len[over].max()))
        if keep_at < r.size:
            tail.frombytes(lengths[keep_at:].tobytes())
        if rec_at < r.size:
            if rec_at:
                at = at[at >= rec_at]
                states = r[at] // k
            np.minimum.at(first, states, base + at)
            np.add.at(visits, states, 1)

    walk: list[int] = []  # the record, tallied with numpy
    for chunk in chunks:
        if not walk:  # stored items per class before the record
            occ0 = [words[o // k].count(c) for c in nodes] if o >= 0 else list(map(len, queues))
        # the loops take the chunk's arrivals from ``feed``; a loop that hands
        # over to another leaves the rest in it, and the table puts back in
        # front the arrival that it hands to the engine
        rest = feed = chunk
        push = walk.append
        while True:
            if o >= 0:
                for i in feed:
                    t = succ[o + i]
                    if t < 0:
                        if t == -1:
                            t = fill(o, i)
                        if t < -2:
                            spec, outs = records[-3 - t]
                            t = outs[sample(spec, rng)]
                        elif t < 0:
                            w = words[o // k]
                            load(w)
                            key, ln = engine._next - k, len(w)
                            feed, o = chain((i,), rest), -1
                            break
                    o = t
                    push(o)
                else:
                    break
            else:
                # the word follows each step while the queue is within
                # ``near``; a match takes the oldest item of its class's FIFO
                # (popleft), or under LCFM the newest (pop)
                for i in feed:
                    key += k
                    m = offers[i](key + i, rng)
                    if m is None:
                        ln += 1
                        push(~i)
                        if ln > near:
                            w = None
                            continue
                        w += (nodes[i],)
                    else:
                        ln -= 1
                        push(~m)
                        if w is not None:
                            q, c = queues[m % k], nodes[m % k]
                            x = w.index(c) if not q or m < q[0] else len(w) - 1 - w[::-1].index(c)
                            w = w[:x] + w[x + 1 :]
                        elif ln > near:
                            continue
                        else:  # a long queue is back within reach
                            w = word()
                    o = enter(w)
                    if o >= 0:  # the engine hands back to the table
                        walk[-1] = o
                        feed = rest
                        break
                    # a word the table cannot hold is tallied when it is
                    # recorded and no longer than word_cap
                    if len(w) <= word_cap and done + len(walk) > burn_in:
                        seen = met.get(w)
                        if seen is None:
                            met[w] = [done + len(walk) - 1, 1]
                        else:
                            seen[1] += 1
                else:
                    break
        if len(walk) >= 1 << 14:  # a few hundred kB of record at most
            flush(walk, occ0)
            walk = []
    if walk:
        flush(walk, occ0)
    final_len = int(lens[o // k]) if o >= 0 else ln
    occ_sum = dict(zip(nodes, occ_sum.tolist()))
    # an unstable run's buffer need not outlive the loop
    del engine, offers, load, word, queues, table, succ, fill, enter, records
    # the words recorded, in the order of their first recorded step: table
    # states longer than word_cap, like the engine's, are overflow steps
    seen = np.flatnonzero(visits)
    order = [*zip(first[seen].tolist(), seen.tolist()), *((f, w) for w, (f, _) in met.items())]
    order.sort()  # the first steps are distinct, so no two keys are compared
    visits = visits.tolist()
    tallied: dict[Word, int] = {}
    for _, key in order:
        if type(key) is int:
            key, n = words[key], visits[key]
        else:
            n = met[key][1]
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
    of ``np.sum``); fewer than two lengths give 0.0.  When the lengths are
    non-negative ints (a signed integer type in numpy) and each of the four
    sums is below 2**53, every term and left-to-right partial sum is an
    integer below 2**53, so the float sums are exact: the sums are then
    taken in integers instead, with the same result.  (A bound on the
    largest length keeps the int64 sums from overflowing first.)
    """
    import numpy as np

    y = np.asarray(lengths)
    n = y.size
    if n < 2:
        return 0.0
    sums = None
    sx, sxx = n * (n - 1) // 2, (n - 1) * n * (2 * n - 1) // 6
    if y.dtype.kind == "i" and y.min() >= 0 and int(y.max()) * max(n, sx) < 2**63:
        sy, sxy = int(y.sum()), int(np.dot(np.arange(n), y))
        if max(sy, sxy, sxx) < 2**53:
            sums = map(float, (sx, sy, sxy, sxx))
    if sums is None:
        y = np.asarray(lengths, dtype=float)
        x = np.arange(n, dtype=float)
        sums = (np.cumsum(a)[-1] for a in (x, y, x * y, x * x))
    sx, sy, sxy, sxx = sums
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
