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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, permutations
from typing import Iterable, Iterator, Optional, Sequence

from .chain import BufferEngine, draw_arrivals
from .graphs import Multigraph, Node
from .measures import ProbMeasure, Weight
from .policies import Fcfm, Word

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


def is_admissible_forward(g: Multigraph, w: DWord) -> bool:
    return is_admissible_backward(g, reverse_copy(w))


def project_to_queue(b: DWord) -> Word:
    """Unbarred letters in order; recovers the queue word of the same instant."""
    return tuple(c for c, brd in b if not brd)


def backward_step(g: Multigraph, b: DWord, v: Node) -> DWord:
    """One arrival folded into a backward state (first-come-first-matched).

    If the arrival matches, the oldest compatible unbarred letter turns into
    the arrival's copy, the matched class's copy is appended at the arrival's
    slot, and any barred prefix is dropped (the window starts at the oldest
    unmatched item).  Otherwise the arrival is appended unbarred.
    """
    g.check_node(v)
    pos = -1
    for k, (c, brd) in enumerate(b):
        if not brd and v in g.adjacency[c]:
            pos = k
            break
    if pos < 0:
        return b + (plain(v),)
    matched_class = b[pos][0]
    nw = b[:pos] + (barred(v),) + b[pos + 1 :] + (barred(matched_class),)
    for k, (_, brd) in enumerate(nw):
        if not brd:
            return nw[k:]
    return ()


# -- trajectory machinery ------------------------------------------------------

def fcfm_match_partners(g: Multigraph, arrivals: Sequence[Node]) -> list[Optional[int]]:
    """Partner index of each arrival under first-come-first-matched.

    ``partners[k]`` is the 0-based index of the arrival matched with arrival
    ``k``, or ``None`` while unmatched.  Symmetric by construction.
    """
    return _fcfm_partners(g, BufferEngine(g, Fcfm()).offer, arrivals, 0)


def _fcfm_partners(g, offer, arrivals, base):
    """Partner table of ``arrivals`` fed to ``offer``, the step of an FCFM
    engine that holds no item and has already taken ``base`` arrivals."""
    partners: list[Optional[int]] = [None] * len(arrivals)
    try:
        for m, v in enumerate(arrivals):
            k = offer(v, None)
            if k is not None:
                k -= base
                partners[m] = k
                partners[k] = m
    except KeyError:
        g.check_node(v)
        raise
    return partners


def backward_word_at(g: Multigraph, arrivals: Sequence[Node], n: int) -> DWord:
    """Backward state after the first ``n`` arrivals, built from scratch.

    Reference construction used to cross-check the incremental
    :func:`backward_step` recursion.
    """
    if not 0 <= n <= len(arrivals):
        raise DetailedError("n outside the trajectory")
    partners = fcfm_match_partners(g, arrivals[:n])
    unmatched = [k for k in range(n) if partners[k] is None]
    if not unmatched:
        return ()
    start = unmatched[0]
    letters: list[DLetter] = []
    for m in range(start, n):
        k = partners[m]
        letters.append(plain(arrivals[m]) if k is None else barred(arrivals[k]))
    return tuple(letters)


def forward_word(
    g: Multigraph,
    arrivals: Sequence[Node],
    n: int,
    partners: Optional[Sequence[Optional[int]]] = None,
) -> Optional[DWord]:
    """Forward state at time ``n``, or ``None`` when the horizon is too short.

    The word spans the arrivals after ``n`` up to the last one matched with a
    pre-``n`` unmatched item: copies of pre-``n`` classes at their partners'
    slots, the other arrivals unbarred.  Undetermined (``None``) exactly when
    some pre-``n`` item is still unmatched at the end of the trajectory.
    """
    if not 0 <= n <= len(arrivals):
        raise DetailedError("n outside the trajectory")
    if partners is None:
        partners = fcfm_match_partners(g, arrivals)
    ends = [partners[k] for k in range(n) if partners[k] is None or partners[k] >= n]
    if None in ends:
        return None
    letters: list[DLetter] = []
    for m in range(n, max(ends, default=n - 1) + 1):
        k = partners[m]
        letters.append(barred(arrivals[k]) if k is not None and k < n else plain(arrivals[m]))
    return tuple(letters)


# -- the product measure and block masses -------------------------------------

def nu(mu: ProbMeasure, w: DWord) -> Weight:
    """Product of class weights over all letters, bars ignored; nu(empty)=1."""
    value: Weight = Fraction(1)
    for c, _ in w:
        value *= mu[c]
    return value


def letterset_nu(mu: ProbMeasure, letters: Iterable[DLetter]) -> Weight:
    """nu-mass of a one-letter alphabet: the summed weight of its classes."""
    return sum((mu[c] for c, _ in letters), Fraction(0))


def blocks(g: Multigraph) -> Iterator[tuple[Node, ...]]:
    """Ordered independent sequences of the loop-free subgraph, one per block."""
    check = g.maximal_subgraph()
    for ind in check.independent_sets():
        for sigma in permutations(sorted(ind)):
            yield sigma


def nu_block_mass(g: Multigraph, mu: ProbMeasure, sigma: Sequence[Node]) -> Weight:
    """Total nu-mass of the backward states whose unbarred skeleton is ``sigma``.

    Each skeleton letter contributes its own weight times the geometric mass
    of the padding alphabet that may follow it: copies of classes outside the
    prefix's neighborhood plus repeats of non-looped prefix members.  The
    geometric sum 1/(1 - nu(alphabet)) converges precisely because the
    stability condition keeps every alphabet's nu below one.
    """
    mass: Weight = Fraction(1)
    prefix: list[Node] = []
    all_nodes = frozenset(g.nodes)
    for e in sigma:
        prefix.append(e)
        outside = all_nodes - g.neighborhood(prefix)
        pad = [barred(c) for c in outside]
        pad.extend(plain(c) for c in set(prefix) & g.v2)
        nu_pad = letterset_nu(mu, pad)
        if not nu_pad < 1:
            raise DetailedError(
                f"block {sigma} has padding mass {nu_pad} >= 1; "
                "the measure violates the stability condition"
            )
        mass *= mu[e] / (1 - nu_pad)
    return mass


def alpha_inverse_from_blocks(g: Multigraph, mu: ProbMeasure) -> Weight:
    """Total nu-mass of the backward state space: 1 plus all block masses.

    Equals the reciprocal of the product-form normalizing constant; the two
    are computed along different routes, so their agreement is a strong
    cross-check.
    """
    return sum((nu_block_mass(g, mu, s) for s in blocks(g)), Fraction(1))


def enumerate_backward_states(g: Multigraph, max_len: int) -> list[DWord]:
    """All admissible backward words up to a length, sorted by (length, word)."""
    out: list[DWord] = [()]
    frontier: list[DWord] = [()]
    letters = [plain(c) for c in g.nodes] + [barred(c) for c in g.nodes]
    for _ in range(max_len):
        nxt: list[DWord] = []
        for w in frontier:
            for letter in letters:
                cand = w + (letter,)
                if is_admissible_backward(g, cand):
                    nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    out.sort(key=lambda w: (len(w), w))
    return out


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


def _walk(
    g: Multigraph, w: DWord, drive: Iterable[Node]
) -> tuple[dict[DWord, int], dict[tuple[DWord, DWord], int], DWord]:
    """Run :func:`backward_step` from ``w`` over the classes of ``drive``.

    Returns the visits of each word stepped from, the count of each
    transition ``(w, w2)`` and the word the walk ends on.  The step is a
    function of (word, class), so each distinct step is taken once.
    """
    memo: dict[tuple[DWord, Node], list] = {}  # -> [next word, count]
    for v in drive:
        taken = memo.get((w, v))
        if taken is None:
            taken = memo[w, v] = [backward_step(g, w, v), 0]
        taken[1] += 1
        w = taken[0]
    visits: dict[DWord, int] = {}
    counts: dict[tuple[DWord, DWord], int] = {}
    while memo:  # popped, so the memo and the tallies do not coexist in full
        (w1, _), (w2, k) = memo.popitem()
        visits[w1] = visits.get(w1, 0) + k
        counts[w1, w2] = counts.get((w1, w2), 0) + k
    return visits, counts, w


def verify_local_balance_empirical(
    g: Multigraph,
    mu: ProbMeasure,
    steps: int,
    seed: int = 0,
    min_visits: int = 500,
) -> LocalBalanceReport:
    """Run one long trajectory and test the pairing identity on frequent pairs.

    Both chains come from the one :func:`backward_step` recursion.  The
    backward walk folds the arrivals in.  The forward word ``F_n`` is
    determined up to instant ``u``, the first arrival never matched (or the
    horizon); below it ``rc(F_n)`` is the backward step from ``rc(F_{n+1})``
    by the class matched with arrival ``n``.  So the forward walk starts from
    the one word ``rc(F_u)`` built from the partner table and runs backwards
    in time over those partner classes; the ``steps - u`` later instants are
    undetermined and skipped.  Pairs need ``min_visits`` (at least 1) visits
    on both sides to be tested.
    """
    if min_visits < 1:
        raise DetailedError(f"min_visits must be >= 1, got {min_visits}")
    mu.check_support(g)
    rng = random.Random(seed)
    arrivals = draw_arrivals(mu, steps, rng)
    partners = fcfm_match_partners(g, arrivals)
    u = partners.index(None) if None in partners else steps
    start = reverse_copy(forward_word(g, arrivals, u, partners))
    del partners[u:]
    # popped from the end, so the partner table is freed as this list grows
    matched = [arrivals[partners.pop()] for _ in range(u)]

    b_visits, b_counts, _ = _walk(g, (), arrivals)
    # The walk tallies the forward step F_n -> F_{n+1} under the key
    # (rc(F_{n+1}), rc(F_n)), so the backward transition w -> w2 and the
    # forward one rc(w2) -> rc(w) it is compared with share the key (w, w2).
    f_visits, f_counts, last = _walk(g, start, matched)
    f_visits[last] = f_visits.get(last, 0) + 1  # rc(F_0), the empty word
    undetermined = steps - u

    @cache
    def nu_of(w: DWord) -> float:
        return float(nu(mu, w))

    checks: list[PairCheck] = []
    for w, w2 in sorted({
        key for key in chain(b_counts, f_counts)
        if b_visits.get(key[0], 0) >= min_visits and f_visits.get(key[1], 0) >= min_visits
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
        undetermined_forward=undetermined,
        checks=tuple(checks),
    )


# -- excursions and matched letters --------------------------------------------

@dataclass(frozen=True)
class Excursion:
    """One buffer-emptying arrival segment and its matched-partner word.

    ``partner_word[i]`` is the class matched with ``word[i]``; every match is
    internal to the segment, so the partner word permutes the segment's
    letters.
    """

    word: Word
    partner_word: Word

    def permutation_valid(self) -> bool:
        return sorted(self.word) == sorted(self.partner_word)


def excursion_decompose(g: Multigraph, arrivals: Sequence[Node]) -> list[Excursion]:
    """Split a trajectory at the buffer-empty instants; drop the unfinished tail."""
    partners = fcfm_match_partners(g, arrivals)
    out: list[Excursion] = []
    size = 0
    start = 0
    for m in range(len(arrivals)):
        p = partners[m]
        if p is not None and p < m:
            size -= 1
        else:
            size += 1
        if size == 0:
            segment = tuple(arrivals[start : m + 1])
            partner_word = tuple(arrivals[partners[k]] for k in range(start, m + 1))
            out.append(Excursion(segment, partner_word))
            start = m + 1
    if not out:
        raise DetailedError("no complete excursion in the trajectory")
    return out


def partner_map(g: Multigraph, word: Word) -> Word:
    """Partner-class word of a standalone excursion word.

    The input must empty its own buffer exactly at its last letter; this is
    what makes the map a bijection on excursion words.
    """
    return _partner_word(word, fcfm_match_partners(g, word))


def _partner_word(word: Word, partners: Sequence[Optional[int]]) -> Word:
    """:func:`partner_map` given the word's FCFM partner table."""
    if any(p is None for p in partners):
        raise DetailedError(f"{word!r} does not empty the buffer")
    size = 0
    for m in range(len(word) - 1):
        size += -1 if (partners[m] is not None and partners[m] < m) else 1
        if size == 0:
            raise DetailedError(f"{word!r} empties the buffer before its end")
    return tuple(word[p] for p in partners)


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
    that the inverse map really inverts, and tallies partner classes so their
    frequencies can be compared against the arrival law.
    """
    rng = random.Random(seed)
    arrivals = draw_arrivals(mu, steps, rng)
    excursions = excursion_decompose(g, arrivals)
    hist: dict[int, int] = {}
    matched: dict[Node, int] = {c: 0 for c in g.nodes}
    perm_ok = 0
    round_ok = 0
    # One engine runs every inverse (partner_inverse, inlined): a word the
    # map accepts leaves it empty, and any other raises before the next.
    offer, base = BufferEngine(g, Fcfm()).offer, 0
    for exc in excursions:
        n = len(exc.word)
        hist[n] = hist.get(n, 0) + 1
        for c in exc.partner_word:
            matched[c] += 1
        if exc.permutation_valid():
            perm_ok += 1
        back = exc.partner_word[::-1]
        if _partner_word(back, _fcfm_partners(g, offer, back, base))[::-1] == exc.word:
            round_ok += 1
        base += n
    return ExcursionReport(
        n_excursions=len(excursions),
        total_letters=sum(len(e.word) for e in excursions),
        permutation_valid=perm_ok,
        roundtrip_valid=round_ok,
        length_histogram=dict(sorted(hist.items())),
        matched_class_counts=matched,
    )
