"""Command-line surface for batch computation and report emission.

JSON results go to stdout; human diagnostics (including wall time) go
to stderr.  Exit codes: 0 success, 1 usage, parse and precondition
errors, 2 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .constructions import build_chain, build_ln, build_pjkl, build_pn, build_qn, build_tgen
from .coset import todd_coxeter
from .freeprod import (
    CyclicFactorSpec,
    conjugate_separation_search,
    normal_form,
    ping_pong_free_check,
)
from .presentation import (
    abelianization,
    canonicalize,
    parse_presentation,
    serialize_presentation,
)
from .stallings import build_subgroup_graph
from .torsion import check_certificates, torsion_certificate_search, torsion_length
from .words import Word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2


def _read_presentation(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _emit_presentation(p, out_path: str | None):
    text = serialize_presentation(p)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict):
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _split_words(raw: str) -> list[Word]:
    return [Word.from_text(chunk) for chunk in raw.split(";") if chunk.strip()]


def cmd_gen(args) -> int:
    if args.family == "pn":
        p = build_pn(args.n, args.exp)
    elif args.family == "pjkl":
        p = build_pjkl(args.j, args.k, args.l)
    elif args.family == "qn":
        p = build_qn(args.n)
    else:
        p = build_chain(args.m)
    _emit_presentation(p, args.out)
    return EXIT_OK


def _emit_construction(name: str, args, p, result, counts: dict, extra: dict) -> int:
    """Write a construction's presentation, then its JSON summary."""
    q = result.presentation
    _emit_presentation(q, args.out)
    counts = {"generators": len(q.generators), "relators": len(q.relators), **counts}
    parameters = {"input_generators": len(p.generators)}
    _emit_json({"construction": name, "parameters": parameters, "counts": counts, **extra})
    return EXIT_OK


def cmd_tgen(args) -> int:
    p = _read_presentation(args.file)
    result = build_tgen(p)
    counts = {"intermediate_relators": len(result.intermediate.relators)}
    images = {g: w.to_text() for g, w in result.images.items()}
    return _emit_construction("tgen", args, p, result, counts, {"images": images})


def cmd_ln(args) -> int:
    p = _read_presentation(args.file)
    result = build_ln(p)
    extra = {"degenerate": result.degenerate}
    return _emit_construction("ln", args, p, result, {"rank": result.rank}, extra)


def cmd_torlen(args) -> int:
    p = _read_presentation(args.file)
    report = torsion_length(p, max_iter=args.max_iter)
    _emit_json(report.to_json())
    return EXIT_OK if report.exact else EXIT_BUDGET


def cmd_torsion_search(args) -> int:
    p = _read_presentation(args.file)
    report = torsion_certificate_search(
        p,
        level=args.level,
        word_bound=args.word_bound,
        exponent_bound=args.exponent_bound,
        consequence_budget=args.consequence_budget,
    )
    _emit_json(report.to_json(check_certificates(p, report.certificates)))
    return EXIT_OK


def cmd_tc(args) -> int:
    p = _read_presentation(args.file)
    table = todd_coxeter(p, _split_words(args.subgroup), max_cosets=args.max)
    _emit_json(table.to_json())
    return EXIT_OK if table.status == "complete" else EXIT_BUDGET


def cmd_fold(args) -> int:
    graph = build_subgroup_graph(args.ambient.split(), _split_words(args.gens))
    _emit_json(graph.to_json())
    return EXIT_OK


def cmd_nf(args) -> int:
    spec = CyclicFactorSpec.from_text(args.spec)
    _emit_json(normal_form(spec, Word.from_text(args.word)).to_json(spec))
    return EXIT_OK


def cmd_conjsep(args) -> int:
    spec = CyclicFactorSpec.from_text(args.spec)
    try:
        syllables, exponent = map(int, args.bounds.split())
    except ValueError:
        raise ValueError(f"--bounds takes two integers, not {args.bounds!r}") from None
    result = conjugate_separation_search(
        spec, Word.from_text(args.a), Word.from_text(args.b), syllables, exponent
    )
    _emit_json(result.to_json(syllables, exponent))
    return EXIT_OK


def cmd_pingpong(args) -> int:
    spec = CyclicFactorSpec.from_text(args.spec)
    ok = ping_pong_free_check(spec, Word.from_text(args.u), Word.from_text(args.v), args.len)
    verdict = "free-up-to-bound" if ok else "not-free"
    _emit_json({"verdict": verdict, "bounds": {"max_length": args.len}})
    return EXIT_OK


def cmd_ab(args) -> int:
    p = _read_presentation(args.file)
    _emit_json(abelianization(p).to_json())
    return EXIT_OK


def cmd_canon(args) -> int:
    p = _read_presentation(args.file)
    _emit_presentation(canonicalize(p), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on EXIT_USAGE: exit 2 means a
    budget ran out."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls:
    parse_args keeps no state between calls."""
    parser = _Parser(
        prog="torlen", description="torsion-length constructions and verification tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a construction-family presentation")
    gen.set_defaults(func=cmd_gen)
    gensub = gen.add_subparsers(dest="family", required=True)
    pn = gensub.add_parser("pn")
    pn.add_argument("--n", type=int, required=True)
    pn.add_argument("--exp", type=int, default=3)
    pjkl = gensub.add_parser("pjkl")
    pjkl.add_argument("j", type=int)
    pjkl.add_argument("k", type=int)
    pjkl.add_argument("l", type=int)
    qn = gensub.add_parser("qn")
    qn.add_argument("--n", type=int, required=True)
    chain = gensub.add_parser("chain")
    chain.add_argument("--m", type=int, required=True)
    for family in (pn, pjkl, qn, chain):
        family.add_argument("--out")

    tgen = sub.add_parser("tgen", help="two-generator embedding of a presentation")
    tgen.add_argument("file")
    tgen.add_argument("--out")
    tgen.set_defaults(func=cmd_tgen)

    ln = sub.add_parser("ln", help="torsion-lift construction")
    ln.add_argument("file")
    ln.add_argument("--out")
    ln.set_defaults(func=cmd_ln)

    torlen_cmd = sub.add_parser("torlen", help="torsion length report")
    torlen_cmd.add_argument("file")
    torlen_cmd.add_argument("--max-iter", type=int, default=32)
    torlen_cmd.set_defaults(func=cmd_torlen)

    search = sub.add_parser("torsion-search", help="bounded torsion certificates")
    search.add_argument("file")
    search.add_argument("--level", type=int, default=1)
    search.add_argument("--word-bound", type=int, default=6)
    search.add_argument("--exponent-bound", type=int, default=6)
    search.add_argument("--consequence-budget", type=int, default=8)
    search.set_defaults(func=cmd_torsion_search)

    tc = sub.add_parser("tc", help="Todd-Coxeter coset enumeration")
    tc.add_argument("file")
    tc.add_argument("--subgroup", default="")
    tc.add_argument("--max", type=int, default=10_000)
    tc.set_defaults(func=cmd_tc)

    fold = sub.add_parser("fold", help="Stallings folding of a subgroup")
    fold.add_argument("--ambient", required=True)
    fold.add_argument("--gens", required=True)
    fold.set_defaults(func=cmd_fold)

    nf = sub.add_parser("nf", help="free-product normal form")
    nf.add_argument("--spec", required=True)
    nf.add_argument("word")
    nf.set_defaults(func=cmd_nf)

    conjsep = sub.add_parser("conjsep", help="bounded conjugate-separation search")
    conjsep.add_argument("--spec", required=True)
    conjsep.add_argument("--a", required=True)
    conjsep.add_argument("--b", required=True)
    conjsep.add_argument("--bounds", default="6 4")
    conjsep.set_defaults(func=cmd_conjsep)

    pingpong = sub.add_parser("pingpong", help="bounded freeness certificate")
    pingpong.add_argument("--spec", required=True)
    pingpong.add_argument("u")
    pingpong.add_argument("v")
    pingpong.add_argument("--len", type=int, default=8)
    pingpong.set_defaults(func=cmd_pingpong)

    ab = sub.add_parser("ab", help="abelian invariants")
    ab.add_argument("file")
    ab.set_defaults(func=cmd_ab)

    canon = sub.add_parser("canon", help="canonical form of a presentation")
    canon.add_argument("file")
    canon.add_argument("--out")
    canon.set_defaults(func=cmd_canon)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        elapsed = time.monotonic() - start
        print(f"wall-time: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
