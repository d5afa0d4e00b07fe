"""Bounded search for consequences of relators.

Builds (breadth-first) the set of freely reduced words that are
certified products of conjugates of relators, staying within explicit
length / node / depth budgets.  Every member carries enough move
history to reconstruct an explicit conjugate-product expression, which
re-verifies by pure free reduction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import reduce

from .words import IntWord, invert_ints, multiply_ints, reduce_ints

# Moves are recorded as:
#   ("ins", position, relator_index, sign, rotation) -- insert a cyclic
#       rotation of relator^sign at the given position.  The word and the
#       rotation (reduced once, up front) are both reduced.  A rotation
#       x^-1 s is never inserted after a letter x: the rotation s x^-1 one
#       position earlier gives the same child, from the same word, and is
#       tried first (if its left seam cancels too, shift again; position 0
#       has no left seam).  So letters cancel only at the right seam, when
#       the rotation ends with the inverse of the letter after the
#       position.  Otherwise the child is the plain concatenation, of
#       length len(word) + len(rotation).
#   ("conj", letter) -- conjugate the whole word by a single generator
#       letter (positive or negative int); letters cancel only at the two
#       ends, and only if the word starts with -letter or ends with
#       letter.  Otherwise the child is two letters longer.


@dataclass
class ClosureBall:
    """Certified consequences of ``relators`` discovered within budget."""

    relators: tuple[IntWord, ...]
    parents: dict[IntWord, tuple[IntWord, tuple]] = field(default_factory=dict)
    exhausted: bool = True

    def __contains__(self, iw: IntWord) -> bool:
        return iw in self.parents

    # Each state's factors as a tuple, derived once from its parent's.  A
    # class attribute, not a field, so ``==`` and ``repr`` ignore it.
    _factors = None

    def factors(self, iw: IntWord) -> list[tuple[IntWord, int, int]]:
        """Express ``iw`` as an ordered product of conjugates.

        Returns [(conjugator, relator_index, sign), ...] with
        iw = prod_i  c_i * relators[r_i]^{s_i} * c_i^{-1}  after free
        reduction, as a fresh list.  The factors of every state on the
        path from the root are kept, so each is derived once from its
        parent's; this holds for a ball that is not mutated after
        ``closure_ball`` builds it.
        """
        if self._factors is None:
            self._factors = {(): ()}
        memo = self._factors
        path = []
        cur = iw
        while cur not in memo:
            parent, move = self.parents[cur]
            path.append((cur, move))
            cur = parent
        factors = memo[cur]
        for state, move in reversed(path):
            if move[0] == "ins":
                _, pos, ridx, sign, rot = move
                rel = self.relators[ridx] if sign == 1 else invert_ints(self.relators[ridx])
                # with pre = rel[:rot], inserting at pos turns cur = a b into
                # a (pre^-1 rel pre) b = (a pre^-1) rel (a pre^-1)^-1 * cur: prepend
                conj = multiply_ints(cur[:pos], invert_ints(rel[:rot]))
                factors = ((conj, ridx, sign),) + factors
            else:
                letter = move[1]
                factors = tuple(
                    (multiply_ints((letter,), c), ridx, sign) for c, ridx, sign in factors
                )
            memo[state] = factors
            cur = state
        return list(factors)


def closure_ball(
    relators: list[IntWord],
    n_generators: int,
    max_len: int,
    max_depth: int,
    max_states: int = 200_000,
) -> ClosureBall:
    """BFS over freely reduced words in the normal closure of the
    relators, keeping words of length <= max_len, up to max_depth moves
    and max_states distinct states.

    A child is built only if it can be new and fit.  An insertion that
    cancels at its left seam never is (see the move comment above).  A
    move that cancels at no seam (or end) lengthens the word by exactly
    the inserted length, so it is skipped when that overshoots max_len;
    a move that cancels is built and then checked.  States are found in
    the same order, and the state budget fires at the same child, as if
    every child were built and the long ones dropped.

    ``exhausted`` is False when the state budget was hit, i.e. absence
    from the ball is then evidence only at the explored budget.
    """
    if max_len < 0 or max_depth < 0 or max_states < 1:
        raise ValueError("max_len and max_depth must be >= 0, max_states >= 1")
    # 0 would read as the end of a word, so it must not be a letter
    if any(not 0 < abs(x) <= n_generators for r in relators for x in r):
        raise ValueError("relator letters must be nonzero and at most n_generators in size")
    rels = tuple(reduce_ints(r) for r in relators)
    ball = ClosureBall(rels)
    parents = ball.parents
    parents[()] = ((), ("root",))
    ins_moves = []
    for ridx, rel in enumerate(rels):
        for sign, oriented in ((1, rel), (-1, invert_ints(rel))):
            # each distinct rotation once, at its first offset
            offsets: dict[IntWord, int] = {}
            for k in range(len(oriented)):
                offsets.setdefault(oriented[k:] + oriented[:k], k)
            for rotated, rot in offsets.items():
                # a rotation of a relator that is not cyclically reduced
                # is not reduced itself
                ins_moves.append((ridx, sign, rot, reduce_ints(rotated)))
    letters = [g for g in range(1, n_generators + 1)] + [
        -g for g in range(1, n_generators + 1)
    ]
    # fits[(room, before, after)]: the insertion moves, in ins_moves
    # order, whose child can fit when room = max_len - len(word) and the
    # word reads `before` and `after` on either side of the insertion
    # point (0 at an end of the word): those that do not cancel at the
    # left seam and are no longer than room or cancel at the right seam.
    # There are at most (max_len+1)(2g+1)^2 keys, and the lists share
    # ins_moves' tuples.
    fits: dict[tuple[int, int, int], list[tuple[int, int, int, IntWord]]] = {}
    queue: deque[tuple[IntWord, int]] = deque([((), 0)])
    while queue:
        word, depth = queue.popleft()
        if depth >= max_depth:
            continue
        n = len(word)
        room = max_len - n
        for pos in range(n + 1):
            before = word[pos - 1] if pos else 0
            after = word[pos] if pos < n else 0
            moves = fits.get((room, before, after))
            if moves is None:
                moves = fits[room, before, after] = []
                for move in ins_moves:
                    rotated = move[3]
                    if rotated[0] != -before and (len(rotated) <= room or rotated[-1] == -after):
                        moves.append(move)
            head, tail = word[:pos], word[pos:]
            for ridx, sign, rot, rotated in moves:
                if rotated[-1] == -after:
                    new = multiply_ints(head + rotated, tail)
                    if len(new) > max_len:
                        continue
                else:
                    new = head + rotated + tail
                if new in parents:
                    continue
                if len(parents) >= max_states:
                    ball.exhausted = False
                    return ball
                parents[new] = (word, ("ins", pos, ridx, sign, rot))
                queue.append((new, depth + 1))
        if room >= 2 or not word:
            conj_letters = letters
        else:
            conj_letters = [g for g in letters if g == -word[0] or g == word[-1]]
        for letter in conj_letters:
            new = word[1:] if word and word[0] == -letter else (letter,) + word
            new = new[:-1] if new and new[-1] == letter else new + (-letter,)
            if len(new) > max_len or new in parents:
                continue
            if len(parents) >= max_states:
                ball.exhausted = False
                return ball
            parents[new] = (word, ("conj", letter))
            queue.append((new, depth + 1))
    return ball


def conjugate_ints(conj: IntWord, rel: IntWord, sign: int) -> IntWord:
    """The free reduction of ``conj rel^sign conj^-1`` (``rel^-1`` unless sign is 1)."""
    return reduce_ints(conj + (rel if sign == 1 else invert_ints(rel)) + invert_ints(conj))


def verify_factors(
    target: IntWord, factors: list[tuple[IntWord, int, int]], relators: tuple[IntWord, ...]
) -> bool:
    """Independent check: multiply the reduced conjugates, then compare."""
    conjugates = (conjugate_ints(c, relators[i], s) for c, i, s in factors)
    return reduce(multiply_ints, conjugates, ()) == reduce_ints(target)
