"""Auxiliary pair-tracking chains over plain and copied letters.

Alongside the queue word one can track, for each position since the oldest
unmatched arrival, either the class of a still-unmatched item or the copy
(barred letter) of the class its occupant was matched with.  Folding arrivals
into that record from the left gives the backward chain; the forward words
span the arrivals after an instant up to the last partner of an earlier item.
The two are exchanged by the reversed-copy involution: the same fold, run
backwards in time over the classes of the matched partners, steps through
the reversed copies of the forward words.  Both chains are stationary for the
product measure ``nu`` that simply multiplies class weights, bars ignored.

These objects make the reversibility structure of first-come-first-matched
executable: block decompositions of the backward state space recover the
normalizing constant exactly, and long simulations can test the local-balance
identity statistically.

The long-run audits draw arrivals as class indices (sorted class order).
The backward and reversed forward walks number each word when it is first
met, so a step is an entry (word number, class) and each distinct step folds
and hashes its word once; the tallies are counts of entries.  The fold makes
the FCFM matches too, so the backward walk's record gives the partner table.
The excursion audit's tables come from one FIFO of arrival indices per class;
its split is one running sum over a table, read as arrays of class indices.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, permutations, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .chain import draw_arrival_indices
from .graphs import Multigraph, Node
from .measures import ProbMeasure, Weight
from .policies import Word

DLetter = tuple[Node, bool]  # (class, barred flag)
DWord = tuple[DLetter, ...]


class DetailedError(ValueError):
    """Inadmissible detailed word or ill-posed trajectory request."""


# One shared tuple per (class, bar), so stored words share their letters.

@cache
def plain(c: Node) -> DLetter:
    return (c, False)


@cache
def barred(c: Node) -> DLetter:
    return (c, True)


def reverse_copy(w: DWord) -> DWord:
    """Reverse the word and flip every bar; an involution."""
    return tuple((c, not b) for c, b in reversed(w))


def is_admissible_backward(g: Multigraph, w: DWord) -> bool:
    """Reachability test for backward states.

    A word qualifies iff it is empty or starts unbarred, and every unbarred
    letter is non-adjacent to the class of every later letter (whatever its
    bar).  Non-adjacency covers the self-loop corollary: a self-looped class
    cannot occur unbarred twice since it is adjacent to itself.
    """
    if not w:
        return True
    if w[0][1]:
        return False
    for i, (ci, bi) in enumerate(w):
        if bi:
            continue
        adj = g.adjacency[ci]
        for cj, _ in w[i + 1 :]:
            if cj in adj:
                return False
    return True


def backward_step(g: Multigraph, b: DWord, v: Node) -> DWord:
    """One arrival folded into a backward state (first-come-first-matched).

    If the arrival matches, the oldest compatible unbarred letter turns into
    the arrival's copy, the matched class's copy is appended at the arrival's
    slot, and any barred prefix is dropped (the window starts at the oldest
    unmatched item).  Otherwise the arrival is appended unbarred.
    """
    g.check_node(v)
    return _fold(g.adjacency, b, v)[0]


def _fold(adj: dict[Node, frozenset[Node]], b: DWord, v: Node) -> tuple[DWord, int]:
    """:func:`backward_step` and the distance back to the arrival's partner:
    ``len(b) - pos`` when it takes the letter at position ``pos``, 0 when it
    is stored (the arrival is the slot after the word's last letter)."""
    nb = adj[v]
    for pos, (c, brd) in enumerate(b):
        if not brd and c in nb:
            break
    else:
        return b + (plain(v),), 0
    nw = b[:pos] + (barred(v),) + b[pos + 1 :] + (barred(b[pos][0]),)
    for k, (_, brd) in enumerate(nw):
        if not brd:
            return nw[k:], len(b) - pos
    return (), len(b) - pos


# -- trajectory machinery ------------------------------------------------------

def _class_indices(g: Multigraph, arrivals: Sequence[Node]) -> list[int]:
    """The arrivals as indices of ``g``'s classes in sorted order."""
    index = {c: i for i, c in enumerate(sorted(g.nodes))}
    try:
        return list(map(index.__getitem__, arrivals))
    except KeyError as exc:
        g.check_node(exc.args[0])
        raise


def fcfm_match_partners(g: Multigraph, arrivals: Sequence[Node]) -> list[Optional[int]]:
    """Partner index of each arrival under first-come-first-matched.

    ``partners[k]`` is the 0-based index of the arrival matched with arrival
    ``k``, or ``None`` while unmatched.  Symmetric by construction.
    """
    return _match_partners(g, _class_indices(g, arrivals))


def _match_partners(g: Multigraph, arrivals: Sequence[int]) -> list[Optional[int]]:
    """:func:`fcfm_match_partners` of arrivals given as class indices.

    One FIFO of stored arrival indices per class: arrival ``m`` of class
    ``v`` takes the oldest head among the FIFOs of ``v``'s neighbours, or is
    stored in its own.  This is the head test of ``chain.BufferEngine``'s
    compiled FCFM step, run in one loop: the engine's per-step dispatch and
    class-tagged keys made the pass about 1.7x as slow.
    """
    nodes = sorted(g.nodes)
    fifo = {c: deque() for c in nodes}
    steps = [(fifo[v].append, tuple(fifo[j] for j in g.sorted_adjacency[v])) for v in nodes]
    partners: list[Optional[int]] = [None] * len(arrivals)
    for m, i in enumerate(arrivals):
        store, queues = steps[i]
        best = None
        k = m  # every stored index is older than m
        for q in queues:
            if q and q[0] < k:
                best = q
                k = q[0]
        if best is None:
            store(m)
        else:
            best.popleft()
            partners[m] = k
            partners[k] = m
    return partners


# -- the product measure and block masses -------------------------------------

def nu(mu: ProbMeasure, w: DWord) -> Weight:
    """Product of class weights over all letters, bars ignored; nu(empty)=1."""
    value: Weight = Fraction(1)
    for c, _ in w:
        value *= mu[c]
    return value


def blocks(g: Multigraph) -> Iterator[tuple[Node, ...]]:
    """Ordered independent sequences of the loop-free subgraph, one per block."""
    for ind in g.maximal_subgraph().independent_sets():
        yield from permutations(sorted(ind))


def _padding(g: Multigraph, sigma: Sequence[Node]) -> Iterator[Node]:
    """The alphabet that may pad block ``sigma`` after its last letter: copies
    of classes outside its neighborhood plus repeats of its non-looped letters,
    in a fixed order, so a float sum does not depend on the hash seed."""
    nbhd = g.neighborhood(sigma)
    return chain((c for c in g.nodes if c not in nbhd),
                 (c for c in sigma if c not in g.self_loops))


def _block_factor(g: Multigraph, mu: ProbMeasure, sigma: Sequence[Node]) -> Weight:
    """The factor the last letter of block ``sigma`` adds to the block's mass:
    its weight times the geometric mass 1/(1 - nu(padding)), which converges
    precisely because the stability condition keeps every alphabet's nu below
    one."""
    nu_pad = sum(map(mu.__getitem__, _padding(g, sigma)), Fraction(0))
    if not nu_pad < 1:
        raise DetailedError(
            f"block {tuple(sigma)} has padding mass {nu_pad} >= 1; "
            "the measure violates the stability condition"
        )
    return mu[sigma[-1]] / (1 - nu_pad)


def nu_block_mass(g: Multigraph, mu: ProbMeasure, sigma: Sequence[Node]) -> Weight:
    """Total nu-mass of the backward states whose unbarred skeleton is the
    block ``sigma`` (distinct letters, no two compatible in the loop-free
    subgraph): the factors of its prefixes, multiplied left to right."""
    if len(set(sigma)) < len(sigma) or g.maximal_subgraph().neighborhood(sigma) & set(sigma):
        raise DetailedError(f"{tuple(sigma)} is not a block: a letter repeats "
                            "or two letters are compatible")
    factors = (_block_factor(g, mu, sigma[:k]) for k in range(1, len(sigma) + 1))
    return math.prod(factors, start=Fraction(1))


def alpha_inverse_from_blocks(g: Multigraph, mu: ProbMeasure) -> Weight:
    """Total nu-mass of the backward state space: 1 plus all block masses.

    Equals the reciprocal of the product-form normalizing constant; the two
    are computed along different routes, so their agreement is a strong
    cross-check.  Every prefix of a block is a block, and each mass is kept,
    so a block costs one factor on top of its prefix's mass.

    For an exact measure a factor is, in units of the weights' common
    denominator D, the last letter's weight over D minus the padding mass: a
    gap taken once per set.  Masses are (int numerator, int denominator)
    pairs, summed once, by denominator.  A float measure sums each prefix's
    padding in its letters' order, and the masses in ``blocks`` order.
    """
    if not mu.is_exact:
        masses: dict[tuple[Node, ...], Weight] = {(): Fraction(1)}

        def mass(sigma: tuple[Node, ...]) -> Weight:
            if sigma not in masses:
                masses[sigma] = mass(sigma[:-1]) * _block_factor(g, mu, sigma)
            return masses[sigma]

        return sum(map(mass, blocks(g)), Fraction(1))
    scale = math.lcm(*(mu[c].denominator for c in g.nodes))
    units = {c: int(mu[c] * scale) for c in g.nodes}
    bit = {c: 1 << k for k, c in enumerate(g.nodes)}
    order = list(blocks(g))
    masses = {(): (1, 1, 0)}  # numerator, denominator, the set's bitmask
    gaps: dict[int, int] = {}  # by the set's bitmask
    sums: dict[int, int] = {}  # numerators by denominator
    for sigma in sorted(order, key=len):  # each prefix before its extensions
        a, b, s = masses[sigma[:-1]]
        s |= bit[sigma[-1]]
        if s not in gaps:
            gaps[s] = scale - sum(map(units.__getitem__, _padding(g, sigma)))
        masses[sigma] = a, b, s = a * units[sigma[-1]], b * gaps[s], s
        sums[b] = sums.get(b, 0) + a
    if min(gaps.values()) <= 0:
        # the error of a walk in blocks order: the first failing prefix of the
        # first block that has one
        _block_factor(g, mu, next(sigma[:k] for sigma in order for k in range(1, len(sigma) + 1)
                                  if gaps[masses[sigma[:k]][2]] <= 0))
    unit = math.lcm(*sums)
    return Fraction(unit + sum(a * (unit // b) for b, a in sums.items()), unit)


# -- empirical local balance ----------------------------------------------------

@dataclass(frozen=True)
class PairCheck:
    source: DWord
    target: DWord
    lhs: float
    rhs: float
    stderr: float

    @property
    def z(self) -> float:
        if self.stderr == 0:
            return 0.0 if self.lhs == self.rhs else math.inf
        return abs(self.lhs - self.rhs) / self.stderr


@dataclass(frozen=True)
class LocalBalanceReport:
    """Statistical comparison of backward flux against reversed forward flux.

    For each well-visited transition, ``nu(w) * P_B(w, w')`` is compared with
    ``nu(w') * P_F(rc(w'), rc(w))`` (``rc`` the reversed copy; nu is blind to
    bars and order).  ``stderr`` combines both binomial errors.
    """

    steps: int
    seed: int
    min_visits: int
    undetermined_forward: int
    checks: tuple[PairCheck, ...]

    @property
    def pairs_tested(self) -> int:
        return len(self.checks)

    @property
    def max_z(self) -> float:
        return max((c.z for c in self.checks), default=0.0)

    def fraction_within(self, z: float) -> float:
        if not self.checks:
            return 1.0
        return sum(1 for c in self.checks if c.z <= z) / len(self.checks)


def _walk(g: Multigraph, w: DWord, drive: Iterable[int], least: int):
    """Run :func:`backward_step` from ``w`` over the class indices of ``drive``.

    Returns the visits of each word stepped from at least ``least`` times,
    the count of each transition ``(w, w2)`` from or to such a word, the word
    the walk ends on and each step's :func:`_fold` distance, as an array.
    The step is a function of (word, class), so each distinct step is taken
    once.  Words are numbered as they are met, as ``chain._StepTable``
    numbers queue words: word ``s`` sits at offset ``o = s * k`` for ``k``
    classes, and ``succ[o + i]`` is the offset the word steps to on class
    ``i``, or -1 until that step is first taken; ``gap[o + i]`` is its
    distance.  The walk records the entry ``o + i`` of each step, so a word
    is hashed once per distinct step, not per step.
    """
    import numpy as np

    nodes = sorted(g.nodes)
    adj = g.adjacency
    k = len(nodes)
    ids = {w: 0}  # word -> offset
    words = [w]  # per word number
    succ = array("q", repeat(-1, k))
    gap = array("I", repeat(0, k))
    trail = array("I")
    record = trail.append
    o = 0
    for i in drive:
        e = o + i
        record(e)
        o = succ[e]
        if o < 0:
            w2, gap[e] = _fold(adj, words[e // k], nodes[i])
            o = ids.get(w2, -1)
            if o < 0:
                o = ids[w2] = len(succ)
                words.append(w2)
                succ.extend(repeat(-1, k))
                gap.extend(repeat(0, k))
            succ[e] = o
    del ids
    trail = np.frombuffer(trail, dtype=np.uintc)
    gaps = np.frombuffer(gap, dtype=np.uintc)[trail]
    del gap
    tally = np.bincount(trail, minlength=len(succ))
    del trail
    n_words = len(words)
    per_word = tally.reshape(n_words, k).sum(axis=1)
    kept = per_word >= least
    seen = np.flatnonzero(kept)
    visits = dict(zip(map(words.__getitem__, seen.tolist()), per_word[seen].tolist()))
    # two classes may step a word to the same word, so the entries are summed
    # per (word, next word) pair, numbered s * n_words + s2
    taken = np.flatnonzero(tally)
    src, dst = taken // k, np.frombuffer(succ, dtype=np.int64)[taken] // k
    touched = kept[src] | kept[dst]
    taken = taken[touched]
    pairs, where = np.unique(src[touched] * n_words + dst[touched], return_inverse=True)
    sums = np.zeros(len(pairs), dtype=np.int64)
    np.add.at(sums, where, tally[taken])
    counts = {
        (words[p // n_words], words[p % n_words]): n
        for p, n in zip(pairs.tolist(), sums.tolist())
    }
    return visits, counts, words[o // k], gaps


def _partner_table(gaps):
    """The partner table of a walk from the empty word, from its distances
    ``gaps``; an arrival never matched has the horizon ``len(gaps)``."""
    import numpy as np

    late = np.flatnonzero(gaps)
    early = late - gaps[late]
    partners = np.full(len(gaps), len(gaps))
    partners[late], partners[early] = early, late
    return partners


def verify_local_balance_empirical(
    g: Multigraph,
    mu: ProbMeasure,
    steps: int,
    seed: int = 0,
    min_visits: int = 500,
) -> LocalBalanceReport:
    """Run one long trajectory and test the pairing identity on frequent pairs.

    Both chains come from the one :func:`backward_step` recursion.  The
    backward walk folds the arrivals in and gives the partner table.  The
    forward word ``F_n`` is determined up to instant ``u``, the first arrival
    never matched (or the horizon); below it ``rc(F_n)`` is the backward step
    from ``rc(F_{n+1})`` by the class matched with arrival ``n``.  So the
    forward walk starts from the one word ``rc(F_u)`` built from the partner
    table and runs backwards in time over those partner classes; the
    ``steps - u`` later instants are undetermined and skipped.  Pairs need
    ``min_visits`` (at least 1) visits on both sides to be tested.
    """
    import numpy as np

    if min_visits < 1:
        raise DetailedError(f"min_visits must be >= 1, got {min_visits}")
    mu.check_support(g)
    nodes = sorted(g.nodes)
    arrivals = draw_arrival_indices(mu, steps, random.Random(seed))
    # only the steps out of a word visited min_visits times can be tested, so
    # the rest go before the second walk
    b_visits, b_counts, _, gaps = _walk(g, (), memoryview(arrivals), min_visits)
    b_counts = {key: n for key, n in b_counts.items() if key[0] in b_visits}
    partners = _partner_table(gaps)
    never = np.flatnonzero(partners == steps)
    u = int(never[0]) if len(never) else steps
    # F_u spans the arrivals from u to the last partner of an arrival before
    # u: the copy of that earlier arrival's class at its partner's slot, the
    # arrival's own class elsewhere; rc(F_u) reverses it and flips the bars
    span = np.arange(u, int(partners[:u].max(initial=u - 1)) + 1)
    copied = partners[span] < u
    letters = arrivals[np.where(copied, partners[span], span)]
    start = tuple(
        (plain if c else barred)(nodes[i])
        for i, c in zip(letters[::-1].tolist(), copied[::-1].tolist())
    )
    # the class matched with arrival n, for n from u - 1 down to 0
    matched = memoryview(arrivals[partners[:u][::-1]])
    del arrivals, partners
    # The walk tallies the forward step F_n -> F_{n+1} under the key
    # (rc(F_{n+1}), rc(F_n)), so the backward transition w -> w2 and the
    # forward one rc(w2) -> rc(w) it is compared with share the key (w, w2).
    # The walk sees rc(F_0), the empty word it ends on, once more than it
    # steps from it, so it keeps the words it steps from min_visits - 1 times.
    f_visits, f_counts, last, _ = _walk(g, start, matched, min_visits - 1)
    f_visits[last] = f_visits.get(last, 0) + 1

    @cache
    def nu_of(w: DWord) -> float:
        return float(nu(mu, w))

    checks: list[PairCheck] = []
    for w, w2 in sorted({
        key for key in chain(b_counts, f_counts)
        if key[0] in b_visits and f_visits.get(key[1], 0) >= min_visits
    }):
        n_b = b_visits[w]
        p_b = b_counts.get((w, w2), 0) / n_b
        n_f = f_visits[w2]
        p_f = f_counts.get((w, w2), 0) / n_f
        lhs = nu_of(w) * p_b
        rhs = nu_of(w2) * p_f
        var = (nu_of(w) ** 2) * p_b * (1 - p_b) / n_b
        var += (nu_of(w2) ** 2) * p_f * (1 - p_f) / n_f
        checks.append(PairCheck(w, w2, lhs, rhs, math.sqrt(var)))

    return LocalBalanceReport(
        steps=steps,
        seed=seed,
        min_visits=min_visits,
        undetermined_forward=steps - u,
        checks=tuple(checks),
    )


# -- excursions and matched letters --------------------------------------------

@dataclass(frozen=True, slots=True)
class Excursion:
    """One buffer-emptying arrival segment and its matched-partner word.

    ``partner_word[i]`` is the class matched with ``word[i]``; every match is
    internal to the segment, so the partner word permutes the segment's
    letters.
    """

    word: Word
    partner_word: Word


def _excursion_split(g: Multigraph, arrivals: Sequence[int]):
    """The completed prefix's partner table and its excursion ends, as int64 arrays.

    Each arrival adds one to the buffer when it is stored (its partner comes
    later, or never) and takes one away when it matches an earlier arrival;
    an excursion ends where the running sum is 0.  None ends at or after the
    first arrival never matched, so only the arrivals before it are summed.
    The partner table is cut at the last end.
    """
    import numpy as np

    partners = _match_partners(g, arrivals)
    u = partners.index(None) if None in partners else len(partners)
    table = np.fromiter(partners, dtype=np.int64, count=u)
    del partners
    stored = table > np.arange(u)
    ends = np.flatnonzero(np.cumsum(2 * stored - 1) == 0) + 1
    if not len(ends):
        raise DetailedError("no complete excursion in the trajectory")
    return table[: ends[-1]], ends


def excursion_decompose(g: Multigraph, arrivals: Sequence[Node]) -> list[Excursion]:
    """Split a trajectory at the buffer-empty instants; drop the unfinished tail."""
    partners, ends = _excursion_split(g, _class_indices(g, arrivals))
    ends = ends.tolist()
    word = tuple(arrivals[: ends[-1]])
    partner_word = tuple(map(arrivals.__getitem__, partners.tolist()))
    return [Excursion(word[a:b], partner_word[a:b]) for a, b in zip([0, *ends], ends)]


def partner_map(g: Multigraph, word: Word) -> Word:
    """Partner-class word of a standalone excursion word.

    The input must empty its own buffer exactly at its last letter; this is
    what makes the map a bijection on excursion words.
    """
    partners = fcfm_match_partners(g, word)
    if None in partners:
        raise DetailedError(f"{word!r} does not empty the buffer")
    # arrivals 0..m match among themselves exactly when m is their largest partner
    if any(top == m for m, top in enumerate(accumulate(partners[:-1], max))):
        raise DetailedError(f"{word!r} empties the buffer before its end")
    return tuple(map(word.__getitem__, partners))


def partner_inverse(g: Multigraph, word: Word) -> Word:
    """Inverse of :func:`partner_map`: reverse, map, reverse again."""
    return tuple(reversed(partner_map(g, tuple(reversed(word)))))


@dataclass(frozen=True)
class ExcursionReport:
    n_excursions: int
    total_letters: int
    permutation_valid: int
    roundtrip_valid: int
    length_histogram: dict[int, int]
    matched_class_counts: dict[Node, int]

    @property
    def all_permutation_valid(self) -> bool:
        return self.permutation_valid == self.n_excursions

    @property
    def all_roundtrip_valid(self) -> bool:
        return self.roundtrip_valid == self.n_excursions


def analyze_excursions(
    g: Multigraph, mu: ProbMeasure, steps: int, seed: int = 0
) -> ExcursionReport:
    """Decompose a simulated trajectory and audit the partner map.

    Validates per excursion that the partner word permutes the letters and
    that :func:`partner_inverse` inverts: the reversed partner words, laid
    back to back, are split once, and excursion ``i`` inverts when the
    stream's excursion ``i``, reversed, gives back its partner word and its
    word.  Tallies partner classes so their frequencies can be compared
    against the arrival law.  The audit runs on class indices: the word, the
    partner word and the stream are int arrays, and each check is a count
    per excursion.
    """
    import numpy as np

    mu.check_support(g)
    arrivals = draw_arrival_indices(mu, steps, random.Random(seed))
    partners, ends = _excursion_split(g, arrivals.tolist())
    k, n, total = len(g.nodes), len(ends), int(ends[-1])
    word = arrivals[:total]
    partner_word = word[partners]
    starts = np.concatenate(([0], ends[:-1]))
    lengths = ends - starts
    excursion = np.repeat(np.arange(n), lengths)  # of each position
    # the partner word permutes an excursion's letters when both have the
    # same count of each class in it
    cell = excursion * k
    permuted = (
        np.bincount(cell + word, minlength=n * k)
        == np.bincount(cell + partner_word, minlength=n * k)
    ).reshape(n, k).all(axis=1)
    # position p of excursion [a, b) goes to a + b - 1 - p in the stream
    stream = partner_word[np.repeat(starts + ends - 1, lengths) - np.arange(total)]
    try:
        back, back_ends = _excursion_split(g, stream.tolist())
    except DetailedError:  # no complete excursion: nothing inverts
        back = back_ends = ends[:0]
    # excursion i inverts when the stream's excursion i has its length and,
    # reversed, gives back its partner word and its word: position p of
    # excursion [a, b) is compared with stream position c + b - 1 - p, c the
    # stream excursion's start
    m = min(n, len(back_ends))
    back_starts = np.concatenate(([0], back_ends[:-1]))[:m]
    same = lengths[:m] == back_ends[:m] - back_starts
    p = np.flatnonzero(np.repeat(same, lengths[:m]))
    q = np.repeat(back_starts + ends[:m] - 1, lengths[:m])[p] - p
    wrong = (stream[q] != partner_word[p]) | (stream[back[q]] != word[p])
    inverts = same & (np.bincount(excursion[p], weights=wrong, minlength=m) == 0)
    hist = np.bincount(lengths)
    seen = np.flatnonzero(hist)
    matched = dict(zip(sorted(g.nodes), np.bincount(partner_word, minlength=k).tolist()))
    return ExcursionReport(
        n_excursions=n,
        total_letters=total,
        permutation_valid=int(permuted.sum()),
        roundtrip_valid=int(inverts.sum()),
        length_histogram=dict(zip(seen.tolist(), hist[seen].tolist())),
        matched_class_counts={c: matched[c] for c in g.nodes},
    )
