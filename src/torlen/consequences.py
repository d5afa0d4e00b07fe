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

from .words import IntWord, invert_ints, multiply_ints, packed_digits, reduce_ints

# The search packs each state into one int (``words.packed_digits``), so
# splitting a word at a position is one divmod and a child is built by
# arithmetic; a state's tuple is built once, when the state is new.
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
#       length len(word) + len(rotation).  A child that cancels c letters
#       of a rotation of m letters has len(word) + m - 2c letters, so with
#       room = max_len - len(word) it fits iff c >= need =
#       ceil((m - room) / 2).  It is built only when the `need` letters
#       after the position are the inverses of the rotation's last `need`
#       letters, and skipped when fewer than `need` letters follow.  Nor
#       is a rotation s x inserted after a letter x.  A relator is
#       h c h^-1 with c cyclically reduced, so a reduced rotation is
#       k c k^-1 for a nonempty suffix k of h (ending with x, it begins
#       with x^-1, and the left seam rule skips it) or a rotation of c.
#       Then x s is a rotation of c too: one position earlier it turns
#       u x v into the same u x s x v, and is tried first (shift again if
#       it ends with the letter before it too).  Neither cancels: u x v
#       and x s x are reduced.
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
        reduction, as a fresh list: ``child_factors`` replayed along the
        path from the root.
        """
        path = []
        while iw:
            path.append(self.parents[iw])
            iw = path[-1][0]
        factors = ()
        for parent, move in reversed(path):
            factors = self.child_factors(parent, move, factors)
        return list(factors)

    def child_factors(self, parent: IntWord, move: tuple, factors: tuple) -> tuple:
        """The factors of the child that ``move`` makes from ``parent``,
        whose factors are ``factors``: an insertion puts one factor in
        front of them, a conjugation changes every conjugator."""
        if move[0] == "ins":
            _, pos, ridx, sign, rot = move
            rel = self.relators[ridx] if sign == 1 else invert_ints(self.relators[ridx])
            # with pre = rel[:rot], inserting at pos turns parent = a b into
            # a (pre^-1 rel pre) b = (a pre^-1) rel (a pre^-1)^-1 * parent: prepend
            return ((multiply_ints(parent[:pos], invert_ints(rel[:rot])), ridx, sign),) + factors
        letter = move[1]
        return tuple((multiply_ints((letter,), c), ridx, sign) for c, ridx, sign in factors)


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
    cancels at its left seam never is, nor one that ends with the letter
    before it (see the move comment).  A move that cancels at no seam
    (or end) lengthens the word by exactly the inserted length, so it is
    skipped when that overshoots max_len; an insertion that cancels is
    built only when enough letters cancel for it to fit.  States are
    found in the same order, and the state budget fires at the same
    child, as if every child were built and the long ones dropped.

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
    k = n_generators
    base = 2 * k + 1
    digit = packed_digits(k)
    inverse = [0, *range(k + 1, base), *range(1, k + 1)]  # by digit; 0 (an end) stays 0
    # powers of the base, up to the longest word or rotation
    pw = [base**i for i in range(max(max_len, max(map(len, rels), default=0)) + 1)]
    ins_moves = []
    for ridx, rel in enumerate(rels):
        for sign, oriented in ((1, rel), (-1, invert_ints(rel))):
            # each distinct reduced rotation once, at its first offset
            offsets: dict[IntWord, int] = {}
            for i in range(len(oriented)):
                offsets.setdefault(reduce_ints(oriented[i:] + oriented[:i]), i)
            for rotated, rot in offsets.items():
                code = icode = 0  # the rotation and its inverse, packed
                for x in rotated:
                    code = code * base + digit[x]
                for x in reversed(rotated):
                    icode = icode * base + digit[-x]
                m = len(rotated)
                plain = (0, m, code, 0, rotated, (ridx, sign, rot))
                ins_moves.append((code // pw[m - 1], code % base, icode, plain))
    # fits[(room, before, after)]: the insertion moves, in ins_moves
    # order, whose child can fit when room = max_len - len(word) and the
    # word reads the digits `before` and `after` on either side of the
    # insertion point (0 at an end of the word): those that do not cancel
    # at the left seam, do not end with `before`, and are no longer than
    # room or cancel at the right seam.  Each carries `need`, the letters
    # that must cancel at the right seam: 0 for a plain concatenation,
    # else at least 1 and enough that the child fits, with `target`, the
    # packed inverse of the rotation's last `need` letters.  There are at
    # most (max_len+1)(2g+1)^2 keys.
    fits: dict[tuple[int, int, int], list[tuple]] = {}
    parents = ball.parents
    parents[()] = ((), ("root",))
    seen = {0}  # the packed states
    queue: deque[tuple[int, IntWord, int]] = deque([(0, (), 0)])
    while queue:
        cur, word, depth = queue.popleft()
        if depth >= max_depth:
            continue
        n = len(word)
        room = max_len - n
        for pos in range(n + 1):
            rem = n - pos
            head, tail = divmod(cur, pw[rem])
            before = head % base
            after = tail // pw[rem - 1] if rem else 0
            moves = fits.get((room, before, after))
            if moves is None:
                moves = fits[room, before, after] = []
                left, right = inverse[before], inverse[after]
                for first, last, icode, plain in ins_moves:
                    if first == left or last == before:
                        continue
                    _, m, code, _, rotated, info = plain
                    if last != right:
                        if m <= room:
                            moves.append(plain)
                    else:
                        need = max(1, (m - room + 1) // 2)
                        moves.append((need, m, code, icode // pw[m - need], rotated, info))
            for need, m, code, target, rotated, info in moves:
                if not need:
                    new = (head * pw[m] + code) * pw[rem] + tail
                else:
                    if need > rem or tail // pw[rem - need] != target:
                        continue
                    # cancel the `need` letters, then any more at the seam,
                    # through the whole rotation into the word if it gets there
                    h, r = (head * pw[m] + code) // pw[need], rem - need
                    t = tail % pw[r]
                    while h and r and h % base == inverse[t // pw[r - 1]]:
                        h //= base
                        r -= 1
                        t %= pw[r]
                    new = h * pw[r] + t
                if new in seen:
                    continue
                if len(parents) >= max_states:
                    ball.exhausted = False
                    return ball
                seen.add(new)
                child = word[:pos] + rotated
                child = child + word[pos:] if not need else multiply_ints(child, word[pos:])
                parents[child] = (word, ("ins", pos) + info)
                queue.append((new, child, depth + 1))
        # conjugating letters in letter order, each generator before the
        # inverses; one that cancels at neither end adds 2 letters
        first = cur // pw[n - 1] if n else 0
        for d in range(1, base) if room >= 2 or not n else sorted({inverse[first], cur % base}):
            e = inverse[d]
            new, length = (cur % pw[n - 1], n - 1) if first == e else (d * pw[n] + cur, n + 1)
            new, length = (new // base, length - 1) if new % base == d else (new * base + e, length + 1)
            if length > max_len or new in seen:
                continue
            if len(parents) >= max_states:
                ball.exhausted = False
                return ball
            seen.add(new)
            letter = d if d <= k else k - d
            child = word[1:] if first == e else (letter,) + word
            child = child[:-1] if child and child[-1] == letter else child + (-letter,)
            parents[child] = (word, ("conj", letter))
            queue.append((new, child, depth + 1))
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
