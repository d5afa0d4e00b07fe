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

from .words import IntWord, invert_ints, multiply_ints, reduce_ints

# Moves are recorded as:
#   ("ins", position, relator_index, sign, rotation) -- insert a cyclic
#       rotation of relator^sign at the given position.  The word and the
#       rotation (reduced once, up front) are both reduced, so letters
#       cancel only at the two seams, and only if the rotation starts
#       with the inverse of the letter before the position or ends with
#       the inverse of the letter after it.  Otherwise the child is the
#       plain concatenation, of length len(word) + len(rotation).
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

    def factors(self, iw: IntWord) -> list[tuple[IntWord, int, int]]:
        """Express ``iw`` as an ordered product of conjugates.

        Returns [(conjugator, relator_index, sign), ...] with
        iw = prod_i  c_i * relators[r_i]^{s_i} * c_i^{-1}  after free
        reduction.
        """
        path = []
        cur = iw
        while cur != ():
            parent, move = self.parents[cur]
            path.append(move)
            cur = parent
        path.reverse()
        factors: list[tuple[IntWord, int, int]] = []
        word: IntWord = ()
        for move in path:
            if move[0] == "ins":
                _, pos, ridx, sign, rot = move
                rel = self.relators[ridx] if sign == 1 else invert_ints(self.relators[ridx])
                pre = rel[:rot]
                conj = reduce_ints(word[:pos] + invert_ints(pre))
                # inserting at pos turns word = a b into a (pre^-1 rel pre) b,
                # i.e. new = (a pre^-1) rel (a pre^-1)^-1 * old: prepend
                factors.insert(0, (conj, ridx, sign))
                word = reduce_ints(word[:pos] + rel[rot:] + pre + word[pos:])
            else:
                _, letter = move
                factors = [
                    (reduce_ints((letter,) + c), ridx, sign) for c, ridx, sign in factors
                ]
                word = reduce_ints((letter,) + word + (-letter,))
        assert word == iw
        return factors


def _rotations(rel: IntWord) -> list[tuple[int, IntWord]]:
    seen = set()
    out = []
    for k in range(len(rel)):
        rot = rel[k:] + rel[:k]
        if rot not in seen:
            seen.add(rot)
            out.append((k, rot))
    return out


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

    A child is built only if it can fit: a move that cancels at no seam
    (or end) lengthens the word by exactly the inserted length, so it
    is skipped when that overshoots max_len; a move that cancels is
    built and then checked.  Children are tried in the same order, and
    the state budget fires at the same child, as if every child were
    built and the long ones dropped.

    ``exhausted`` is False when the state budget was hit, i.e. absence
    from the ball is then evidence only at the explored budget.
    """
    rels = tuple(reduce_ints(r) for r in relators)
    ball = ClosureBall(rels)
    ball.parents[()] = ((), ("root",))
    ins_moves = []
    for ridx, rel in enumerate(rels):
        if not rel:
            continue
        for sign, oriented in ((1, rel), (-1, invert_ints(rel))):
            for rot, rotated in _rotations(oriented):
                # a rotation of a relator that is not cyclically reduced
                # is not reduced itself
                ins_moves.append((ridx, sign, rot, reduce_ints(rotated)))
    letters = [g for g in range(1, n_generators + 1)] + [
        -g for g in range(1, n_generators + 1)
    ]
    # fits[(room, before, after)]: the insertion moves, in ins_moves
    # order, whose child can fit when room = max_len - len(word) and the
    # word reads `before` and `after` on either side of the insertion
    # point (0 at an end of the word): those no longer than room, and
    # those that cancel at a seam.  There are at most
    # (max_len+1)(2g+1)^2 keys, and the lists share ins_moves' tuples.
    fits: dict[tuple[int, int, int], list[tuple[int, int, int, IntWord]]] = {}
    queue: deque[tuple[IntWord, int]] = deque([((), 0)])
    while queue:
        word, depth = queue.popleft()
        if depth >= max_depth:
            continue
        n = len(word)
        room = max_len - n
        children = []
        for pos in range(n + 1):
            before = word[pos - 1] if pos else 0
            after = word[pos] if pos < n else 0
            moves = fits.get((room, before, after))
            if moves is None:
                moves = fits[room, before, after] = []
                for move in ins_moves:
                    rotated = move[3]
                    if len(rotated) <= room or rotated[0] == -before or rotated[-1] == -after:
                        moves.append(move)
            head, tail = word[:pos], word[pos:]
            for ridx, sign, rot, rotated in moves:
                if rotated[0] == -before or rotated[-1] == -after:
                    new = multiply_ints(multiply_ints(head, rotated), tail)
                    if len(new) > max_len:
                        continue
                else:
                    new = head + rotated + tail
                children.append((new, ("ins", pos, ridx, sign, rot)))
        if room >= 2 or not word:
            conj_letters = letters
        else:
            conj_letters = [g for g in letters if g == -word[0] or g == word[-1]]
        for letter in conj_letters:
            new = multiply_ints(multiply_ints((letter,), word), (-letter,))
            if len(new) <= max_len:
                children.append((new, ("conj", letter)))
        for new, move in children:
            if new in ball.parents:
                continue
            if len(ball.parents) >= max_states:
                ball.exhausted = False
                return ball
            ball.parents[new] = (word, move)
            queue.append((new, depth + 1))
    return ball


def verify_factors(
    target: IntWord, factors: list[tuple[IntWord, int, int]], relators: tuple[IntWord, ...]
) -> bool:
    """Independent check: expand the conjugate product and freely reduce."""
    expanded: list[int] = []
    for conj, ridx, sign in factors:
        rel = relators[ridx] if sign == 1 else invert_ints(relators[ridx])
        expanded.extend(conj + rel + invert_ints(conj))
    return reduce_ints(tuple(expanded) + invert_ints(reduce_ints(target))) == ()
