"""Seeded inputs, jobs and reference checks for the three workloads.

A workload's ``build`` writes one pass worth of presentation files and
returns its jobs.  Each job's ``run`` is what gets timed; its ``check``
runs afterwards and returns "ok", "unknown" (the job ended on a budget)
or "wrong: <reason>".  References come from ``reference.py`` or from
facts about the input families, never from torlen's own output.

Every function that touches torlen reaches it through the package
object ``M`` at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import string
from dataclasses import dataclass
from itertools import product
from typing import Callable

from reference import (
    abs_det,
    certificate_error,
    cyclic_core,
    exponent_matrix,
    free_product_normal_form,
    free_reduce,
    parse_text,
    snf_by_minors,
)

WHY = {
    "invariants": "whole-presentation verdicts on the paper's families: rewriting, dense SNF, "
    "fold-heavy Stallings and coincidence-heavy coset enumeration",
    "cert_search": "bounded torsion certificates: closure_ball and the integer word kernel, "
    "plus per-certificate verify() in the CLI",
    "oracles": "element and subgroup cross-checks: query-heavy membership over string Words, "
    "free-product normal forms and definition-heavy coset enumeration",
}


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str]


def _cli(M, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = M.cli.main(argv)
    return code, out.getvalue()


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


class Inputs:
    """Random generator names and presentation files for one pass."""

    def __init__(self, rng: random.Random, work: str):
        self.rng = rng
        self.work = work
        self.used: set[str] = set()

    def ident(self) -> str:
        while True:
            name = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(2))
            name += self.rng.choice(string.digits)
            if name not in self.used:
                self.used.add(name)
                return name

    def write(self, tag: str, gens, rels) -> str:
        path = os.path.join(self.work, tag + ".txt")
        lines = ["gens: " + " ".join(gens)]
        lines += ["rel: " + " ".join(g if s == 1 else g + "^-1" for g, s in r) for r in rels]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path


def _power(g, e):
    return ((g, 1 if e > 0 else -1),) * abs(e)


# -- presentation families, generated without torlen's builders --------------


def tree(prefix: str, n: int):
    """P_n: x_eta for binary strings eta shorter than n; leaf relators
    x_eta^3, link relators x_eta0 x_eta1 x_eta^-3 (torlen's order)."""
    by_depth = [[""]]
    for _ in range(n - 1):
        by_depth.append([e + b for e in by_depth[-1] for b in "01"])
    etas = [e for level in by_depth[:n] for e in level]
    name = {e: f"{prefix}_{e}" for e in etas}
    rels = [_power(name[e], 3) for e in by_depth[n - 1]] if n else []
    for level in by_depth[: n - 1]:
        for e in level:
            rels.append(((name[e + "0"], 1), (name[e + "1"], 1)) + _power(name[e], -3))
    return [name[e] for e in etas], rels


def pjkl(x, y, z, j, k, l):
    """P_{j,k,l} = < x, y, z | x^j, y^k, x y z^-l >."""
    return [x, y, z], [_power(x, j), _power(y, k), ((x, 1), (y, 1)) + _power(z, -l)]


def fibonacci(prefix: str, n: int):
    """F(2,n) = < a_i | a_i a_(i+1) = a_(i+2) >, indices mod n."""
    a = [f"{prefix}{i}" for i in range(n)]
    return a, [((a[i], 1), (a[(i + 1) % n], 1), (a[(i + 2) % n], -1)) for i in range(n)]


def coxeter_sym(prefix: str, n: int):
    """Coxeter presentation of S_n on the transpositions s_1..s_(n-1)."""
    s = [f"{prefix}{i}" for i in range(1, n)]
    rels = [_power(g, 2) for g in s]
    rels += [((s[i], 1), (s[i + 1], 1)) * 3 for i in range(len(s) - 1)]
    rels += [((s[i], 1), (s[j], 1)) * 2 for i in range(len(s)) for j in range(i + 2, len(s))]
    return s, rels


# -- checks ---------------------------------------------------------------


def _det(refs: dict, key, gens, rels) -> int:
    """|det| of the relation matrix, cached per structure (names do not
    change the matrix)."""
    if key not in refs:
        refs[key] = abs_det(exponent_matrix(gens, rels))
    return refs[key]


def check_torlen(expected: int):
    def check(result):
        code, out = result
        data = _last_json(out)
        if code == 2 or not data["exact"]:
            return "unknown"
        if code != 0 or data["value"] != expected:
            return f"wrong: torsion length {data['value']} (exit {code}), expected {expected}"
        return "ok"

    return check


def check_ab(refs, key, gens, rels):
    def check(result):
        code, out = result
        if code != 0:
            return f"wrong: exit {code}"
        data = _last_json(out)
        torsion, free_rank = data["torsion"], data["free_rank"]
        if any(t < 2 for t in torsion) or any(b % a for a, b in zip(torsion, torsion[1:])):
            return f"wrong: {torsion} is not a divisibility chain of factors >= 2"
        det = _det(refs, key, gens, rels)
        product_ = 1
        for t in torsion:
            product_ *= t
        if det == 0 or free_rank != 0 or product_ != det:
            return f"wrong: product {product_}, free rank {free_rank}, |det| {det}"
        if len(gens) <= 4:
            diag = snf_by_minors(exponent_matrix(gens, rels))
            if torsion != [d for d in diag if d >= 2]:
                return f"wrong: {torsion} disagrees with minor gcds {diag}"
        return "ok"

    return check


def check_canon(refs, key, gens, rels):
    core_lengths = sorted(len(cyclic_core(r)) for r in rels)

    def check(result):
        code, out = result
        if code != 0:
            return f"wrong: exit {code}"
        out_gens, out_rels = parse_text(out)
        if out_gens != [f"g{i}" for i in range(len(gens))]:
            return "wrong: generators are not g0..g(n-1)"
        if sorted(len(r) for r in out_rels) != core_lengths:
            return "wrong: relator lengths differ from the input's cyclic cores"
        if any(cyclic_core(r) != r for r in out_rels):
            return "wrong: a relator is not cyclically reduced"
        if _det(refs, ("canon", out), out_gens, out_rels) != _det(refs, key, gens, rels):
            return "wrong: relation matrix |det| changed"
        return "ok"

    return check


def check_ln(refs, key, gens, rels):
    def check(result):
        code, out = result
        if code != 0:
            return f"wrong: exit {code}"
        counts = _last_json(out)["counts"]
        # Relators whose exponent-sum rows are independent freely
        # generate a subgroup of rank exactly their number.
        if _det(refs, key, gens, rels) == 0:
            return "wrong: reference needs an invertible relation matrix"
        want = {"generators": len(gens) + 2, "relators": len(rels) + 2, "rank": len(rels)}
        if counts != want:
            return f"wrong: counts {counts}, expected {want}"
        return "ok"

    return check


def check_tgen(gens, rels):
    def check(result):
        code, out = result
        if code != 0:
            return f"wrong: exit {code}"
        data = _last_json(out)
        want = {
            "generators": 2,
            "relators": len(rels),
            "intermediate_relators": len(rels) + len(gens) + 1,
        }
        if data["counts"] != want or sorted(data["images"]) != sorted(gens):
            return f"wrong: counts {data['counts']}, expected {want}"
        return "ok"

    return check


def check_tc(expected: int | None):
    """``expected`` None marks a job that must end on its budget."""

    def check(result):
        code, out = result
        data = _last_json(out)
        if code == 2 and data["status"] == "bound_exceeded":
            return "unknown"
        if expected is None:
            return f"wrong: definite answer {data} on an expected-unknown input"
        if code != 0 or data.get("index") != expected:
            return f"wrong: {data} (exit {code}), expected index {expected}"
        return "ok"

    return check


# -- invariants -----------------------------------------------------------


def build_invariants(rng, work, M, refs, mutate=False) -> list[Job]:
    inp = Inputs(rng, work)
    jobs: list[Job] = []

    def cli_job(name, argv, check):
        jobs.append(Job(name, lambda: _cli(M, argv), check))

    families = []
    for n in range(1, 9):
        families.append((f"P{n}", ("pn", n), *tree(inp.ident(), n), n))
    for m in range(1, 6):
        gens, rels = [], []
        prefix = inp.ident()
        for i in range(m + 1):
            g, r = tree(f"{prefix}{i}", i)
            gens += g
            rels += r
        families.append((f"chain{m}", ("chain", m), gens, rels, m))
    for j, k, l in product(range(2, 6), repeat=3):
        x, y, z = inp.ident(), inp.ident(), inp.ident()
        families.append((f"P{j}{k}{l}", ("pjkl", j, k, l), *pjkl(x, y, z, j, k, l), 2))

    for tag, key, gens, rels, length in families:
        path = inp.write(tag, gens, rels)
        expected = length + 1 if mutate and tag == "P1" else length
        cli_job(f"torlen {tag}", ["torlen", path], check_torlen(expected))
        cli_job(f"ab {tag}", ["ab", path], check_ab(refs, key, gens, rels))
        cli_job(f"canon {tag}", ["canon", path], check_canon(refs, key, gens, rels))
        if key[0] == "pn" and key[1] <= 7:
            cli_job(f"ln {tag}", ["ln", path], check_ln(refs, key, gens, rels))
        if key[0] == "pn" and key[1] <= 5:
            cli_job(f"tgen {tag}", ["tgen", path], check_tgen(gens, rels))

    for n, order, limit in ((5, 11, 200), (7, 29, 200_000)):
        path = inp.write(f"F2_{n}", *fibonacci(inp.ident(), n))
        cli_job(f"tc F(2,{n})", ["tc", path, "--max", str(limit)], check_tc(order))
    for j, k, l in product(range(2, 6), repeat=3):
        x, y, z = inp.ident(), inp.ident(), inp.ident()
        gens, rels = pjkl(x, y, z, j, k, l)
        path = inp.write(f"P{j}{k}{l}xy", gens, rels + [((x, 1),), ((y, 1),)])
        cli_job(f"tc P{j}{k}{l}+x,y", ["tc", path, "--max", "1000"], check_tc(l))
    path = inp.write("P222_inf", *pjkl(inp.ident(), inp.ident(), inp.ident(), 2, 2, 2))
    cli_job("tc P222 (infinite)", ["tc", path], check_tc(None))
    return jobs


# -- cert_search ----------------------------------------------------------

# P_{j,k,l} (j, k, l = 2..4, without 2,2,2) grouped by the measured cost
# of one level-1 plus one level-2 search at the seed commit, cheapest
# first.  Each pass samples one triple per group, so every seed does
# about the same amount of work.
STRATA = (
    ((3, 4, 4), (4, 3, 4), (4, 3, 3), (3, 3, 3), (2, 3, 4), (2, 3, 3), (4, 2, 4)),
    ((2, 4, 3), (3, 2, 4), (3, 4, 3), (2, 4, 4), (3, 3, 4), (4, 4, 4), (4, 3, 2)),
    ((2, 2, 3), (2, 2, 4), (4, 2, 3), (3, 2, 3), (2, 3, 2), (3, 3, 2)),
    ((2, 4, 2), (4, 4, 2), (3, 4, 2), (4, 4, 3), (4, 2, 2), (3, 2, 2)),
)

# Level 2 at the CLI default word bound (6) takes about 24 s on P_{2,2,2};
# word bound 5 keeps z certified at level 2 and a pass near 5 s.
LEVEL2_WORD_BOUND = 5

# The small inputs: level 1 at this word bound over the whole grid, about
# 20 ms a search.  They outnumber the large searches, so job_p50_ms
# follows them, as it follows the small presentations in ``invariants``.
SMALL_WORD_BOUND = 4


def _search(M, argv):
    """Run ``torsion-search`` through the CLI and keep the report the
    CLI built, whose certificates the check replays."""
    owner = M.cli if hasattr(M.cli, "torsion_certificate_search") else M.torsion
    original = owner.torsion_certificate_search
    reports = []

    def keep(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    owner.torsion_certificate_search = keep
    try:
        code, out = _cli(M, argv)
    finally:
        owner.torsion_certificate_search = original
    return code, out, reports


def check_search(gens, rels, level, z_expected):
    x, y, z = ((g, 1) for g in gens)
    base = {free_reduce(r) for r in rels}

    def check(result):
        code, out, reports = result
        if code != 0 or len(reports) != 1:
            return f"wrong: exit {code}"
        data = _last_json(out)
        if not data["exhaustive"]:
            return "unknown"
        certs = reports[0].certificates
        if len(certs) != len(data["certificates"]):
            return "wrong: JSON and report disagree on the certificate count"
        if not all(c["verified"] for c in data["certificates"]):
            return "wrong: the CLI reports an unverified certificate"
        checked: dict = {}
        for cert in certs:
            error = certificate_error(cert, base, checked)
            if error:
                return f"wrong: certificate for {cert.word.letters}: {error}"
        words = {c.word.letters for c in certs}
        if (x,) not in words or (y,) not in words or (((z,) in words) != z_expected):
            return f"wrong: level {level} certifies x, y, z = " + str(
                [(w,) in words for w in (x, y, z)]
            )
        return "ok"

    return check


def build_cert_search(rng, work, M, refs, mutate=False) -> list[Job]:
    inp = Inputs(rng, work)
    jobs: list[Job] = []

    def search_job(tag, gens, rels, path, level, word_bound):
        argv = ["torsion-search", path, "--level", str(level)]
        if word_bound is not None:
            argv += ["--word-bound", str(word_bound)]
        z_expected = level == 2 and not (mutate and tag == "P222")
        jobs.append(
            Job(
                f"torsion-search L{level} {tag}" + (f" wb{word_bound}" if word_bound else ""),
                lambda: _search(M, argv),
                check_search(gens, rels, level, z_expected),
            )
        )

    for j, k, l in [(2, 2, 2)] + [rng.choice(group) for group in STRATA]:
        tag = f"P{j}{k}{l}"
        gens, rels = pjkl(inp.ident(), inp.ident(), inp.ident(), j, k, l)
        path = inp.write(tag, gens, rels)
        search_job(tag, gens, rels, path, 1, None)
        search_job(tag, gens, rels, path, 2, LEVEL2_WORD_BOUND)
    for j, k, l in product(range(2, 5), repeat=3):
        tag = f"P{j}{k}{l}"
        gens, rels = pjkl(inp.ident(), inp.ident(), inp.ident(), j, k, l)
        path = inp.write(tag + "_small", gens, rels)
        search_job(tag, gens, rels, path, 1, SMALL_WORD_BOUND)
    return jobs


# -- oracles --------------------------------------------------------------


def subgroup_shapes(count: int):
    """The two fixed subgroups of acceptance criterion 8 plus the first
    ``count`` random ones from its stream, over the letters a, b."""
    rng = random.Random(20260823)

    def random_word():
        while True:
            letters = []
            for _ in range(rng.randint(1, 4)):
                g, s = rng.choice("ab"), rng.choice((1, -1))
                if letters and letters[-1] == (g, -s):
                    continue
                letters.append((g, s))
            w = free_reduce(letters)
            if w:
                return w

    fixed = [
        [(("b", -1), ("a", 1), ("b", 1)), (("b", -1), ("b", -1), ("a", 1), ("b", 1), ("b", 1))],
        [(("a", 1), ("a", 1)), (("a", 1),) * 3],
    ]
    return fixed + [[random_word() for _ in range(rng.randint(1, 3))] for _ in range(count)]


RANDOM_SUBGROUPS = 6
QUERY_LENGTH = 8


def _reduced_words(letters, max_len):
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [w + (l,) for w in frontier for l in letters if not (w and w[-1] == (l[0], -l[1]))]
        out += frontier
    return out


def _all_words(letters, max_len):
    out, frontier = [], [()]
    for _ in range(max_len):
        frontier = [w + (l,) for w in frontier for l in letters]
        out += frontier
    return out


def _membership_case(M, ambient, gens, queries, products):
    Word = M.words.Word
    gen_words = [Word(g) for g in gens]
    graph = M.stallings.build_subgroup_graph(ambient, gen_words)
    members = M.stallings.closure_members(gen_words, QUERY_LENGTH)
    answers = [M.stallings.membership(graph, Word(q)) for q in queries]
    product_answers = [M.stallings.membership(graph, Word(p)) for p in products]
    return members, answers, product_answers


def check_membership(queries, products):
    def check(result):
        members, answers, product_answers = result
        for q, a in zip(queries, answers):
            if a != (q in members):
                return f"wrong: membership of {q} is {a}, closure oracle says {not a}"
        for p, a in zip(products, product_answers):
            reduced = free_reduce(p)
            if not a or (len(reduced) <= QUERY_LENGTH and reduced not in members):
                return f"wrong: product of generators {p} does not test as a member"
        return "ok"

    return check


def _normal_forms(M, spec_text, words):
    fp = M.freeprod
    spec = fp.CyclicFactorSpec.from_text(spec_text)
    Word = M.words.Word
    return [fp.normal_form(spec, Word(w)).syllables for w in words]


def check_normal_forms(orders, words):
    def check(result):
        for w, nf in zip(words, result):
            if nf != free_product_normal_form(orders, w):
                return f"wrong: normal form of {w}"
        return "ok"

    return check


def check_verdict(expected: dict):
    def check(result):
        code, out = result
        data = _last_json(out)
        if code != 0 or any(data.get(k) != v for k, v in expected.items()):
            return f"wrong: {data} (exit {code}), expected {expected}"
        return "ok"

    return check


def build_oracles(rng, work, M, refs, mutate=False) -> list[Job]:
    inp = Inputs(rng, work)
    jobs: list[Job] = []

    # Random subgroups: each shape is mapped through a seeded
    # length-preserving automorphism of F(a, b) (swap and/or invert the
    # letters), its generators are inverted and reordered at random, and
    # the ambient letters get fresh names.  Folding, closure and query
    # costs are invariant under all of this, so seeds differ in the
    # inputs and not in the work.
    a, b = inp.ident(), inp.ident()
    ambient = [a, b]
    letters = [(g, s) for g in ambient for s in (1, -1)]
    queries = _reduced_words(letters, QUERY_LENGTH)
    for i, shape in enumerate(subgroup_shapes(RANDOM_SUBGROUPS)):
        image = dict(zip("ab", rng.sample(ambient, 2)))
        flip = {g: rng.choice((1, -1)) for g in "ab"}
        gens = []
        for w in shape:
            w = tuple((image[g], s * flip[g]) for g, s in w)
            gens.append(w if rng.random() < 0.5 else tuple((g, -s) for g, s in reversed(w)))
        rng.shuffle(gens)
        signed = gens + [tuple((g, -s) for g, s in reversed(w)) for w in gens]
        products = signed + [u + v for u in signed for v in signed]
        jobs.append(
            Job(
                f"membership sweep H{i}",
                lambda gens=gens, products=products: _membership_case(
                    M, ambient, gens, queries, products
                ),
                check_membership(queries, products),
            )
        )

    for orders in ((2, 2), (2, 3)):
        x, y = inp.ident(), inp.ident()
        spec = f"{x}:{orders[0]} {y}:{orders[1]}"
        words = _all_words([(g, s) for g in (x, y) for s in (1, -1)], QUERY_LENGTH)
        jobs.append(
            Job(
                f"normal forms C{orders[0]}*C{orders[1]}",
                lambda spec=spec, words=words: _normal_forms(M, spec, words),
                check_normal_forms({x: (0, orders[0]), y: (1, orders[1])}, words),
            )
        )

    def cli_job(name, argv, check):
        jobs.append(Job(name, lambda: _cli(M, argv), check))

    free = {"verdict": "free-up-to-bound"}
    g, x = inp.ident(), inp.ident()
    cli_job("pingpong C3*C2", ["pingpong", "--spec", f"{g}:3 {x}:2", f"{g} {x} {g}",
                               f"{x} {g} {x} {g} {x}", "--len", "8"], check_verdict(free))
    g, x = inp.ident(), inp.ident()
    cli_job("pingpong C4*C2", ["pingpong", "--spec", f"{g}:4 {x}:2", f"{g} {x} {g} {g}",
                               f"{x} {g} {x} {g} {g} {x}", "--len", "8"], check_verdict(free))
    for p, q in ((2, 2), (3, 3), (2, 3)):
        x, y = inp.ident(), inp.ident()
        if (p, q) == (2, 2):
            expected = {"verdict": "witness", "witness": {"x": x, "i": 1, "j": -1}}
        else:
            expected = {"verdict": "no-witness-up-to-bound"}
        argv = ["conjsep", "--spec", f"{x}:{p} {y}:{q}", "--a", x, "--b", y, "--bounds", "6 4"]
        cli_job(f"conjsep C{p}*C{q}", argv, check_verdict(expected))

    gens, rels = coxeter_sym(inp.ident(), 8)
    path = inp.write("S8", gens, rels)
    index = 20161 if mutate else 20160
    cli_job("tc S8/<s1>", ["tc", path, "--subgroup", gens[0], "--max", "40000"], check_tc(index))
    cli_job("tc S8/<s1> (default budget)", ["tc", path, "--subgroup", gens[0]], check_tc(None))
    return jobs


BUILDERS = {
    "invariants": build_invariants,
    "cert_search": build_cert_search,
    "oracles": build_oracles,
}
