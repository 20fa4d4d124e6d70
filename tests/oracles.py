"""Code that only the tests read, kept out of the package.

Reference constructions built from scratch, independently of the incremental
code they check (the backward and forward words of the detailed chains from
the FCFM partner table, and every admissible backward word by brute force),
the forward admissibility test and the queue projection of a backward word,
and the stability condition of a multigraph checked against its blow-up's.
"""

from typing import Optional, Sequence

from multimatch.detailed import (
    DetailedError,
    DLetter,
    DWord,
    barred,
    fcfm_match_partners,
    is_admissible_backward,
    plain,
    reverse_copy,
)
from multimatch.graphs import Multigraph, Node
from multimatch.measures import ProbMeasure, extend_measure, ncond_check
from multimatch.policies import Word


def is_admissible_forward(g: Multigraph, w: DWord) -> bool:
    return is_admissible_backward(g, reverse_copy(w))


def project_to_queue(b: DWord) -> Word:
    """Unbarred letters in order; recovers the queue word of the same instant."""
    return tuple(c for c, brd in b if not brd)


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


def ncond_equivalence_check(g: Multigraph, mu: ProbMeasure) -> bool:
    """Whether the stability condition agrees between a multigraph and its blow-up.

    The blown system uses the even-split extension of ``mu``.  Agreement is the
    expected behavior for every input; a ``False`` return flags a bug.
    """
    bmap = g.minimal_blowup()
    direct = ncond_check(g, mu).satisfied
    blown = ncond_check(bmap.blown, extend_measure(mu, bmap)).satisfied
    return direct == blown
