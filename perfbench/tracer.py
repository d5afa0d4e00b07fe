"""Span tracer that wraps torlen's public functions from outside.

Every wrapped call appends one span (name, start, end, parent) to
in-memory arrays; nothing is computed per call beyond the two clock
reads.  Self time is derived afterwards: a span's duration minus the
durations of its direct children (one thread, so children never
overlap).  Some functions also feed layer counters from their
arguments or results, e.g. the cell count of each Smith normal form.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns

# (metric name, module, attribute path) for every traced function.  A
# dotted path names a method; ``words.Word`` is timed through
# ``Word.__post_init__``, which every Word construction runs.
TRACED = [
    ("words.Word", "torlen.words", "Word.__post_init__"),
    ("words.free_reduce", "torlen.words", "free_reduce"),
    ("words.reduce_ints", "torlen.words", "reduce_ints"),
    ("words.substitute", "torlen.words", "substitute"),
    ("words.cyclic_reduce", "torlen.words", "cyclic_reduce"),
    ("presentation.parse_presentation", "torlen.presentation", "parse_presentation"),
    ("presentation.kill_generators", "torlen.presentation", "kill_generators"),
    (
        "presentation.eliminate_generator_with_image",
        "torlen.presentation",
        "eliminate_generator_with_image",
    ),
    ("presentation.canonicalize", "torlen.presentation", "canonicalize"),
    ("presentation.abelianization", "torlen.presentation", "abelianization"),
    ("abelian.smith_normal_form", "torlen.abelian", "smith_normal_form"),
    ("torsion.torsion_length", "torlen.torsion", "torsion_length"),
    ("torsion.torsion_quotient_step", "torlen.torsion", "torsion_quotient_step"),
    ("torsion.in_certified_class", "torlen.torsion", "in_certified_class"),
    ("torsion.torsion_certificate_search", "torlen.torsion", "torsion_certificate_search"),
    ("torsion.TorsionCertificate.verify", "torlen.torsion", "TorsionCertificate.verify"),
    ("consequences.closure_ball", "torlen.consequences", "closure_ball"),
    ("consequences.ClosureBall.factors", "torlen.consequences", "ClosureBall.factors"),
    ("consequences.verify_factors", "torlen.consequences", "verify_factors"),
    ("stallings.build_subgroup_graph", "torlen.stallings", "build_subgroup_graph"),
    ("stallings.membership", "torlen.stallings", "membership"),
    ("stallings.closure_members", "torlen.stallings", "closure_members"),
    ("stallings.free_basis", "torlen.stallings", "free_basis"),
    ("stallings.nielsen_reduce", "torlen.stallings", "nielsen_reduce"),
    ("coset.todd_coxeter", "torlen.coset", "todd_coxeter"),
    ("freeprod.normal_form", "torlen.freeprod", "normal_form"),
    ("freeprod.nf_multiply", "torlen.freeprod", "nf_multiply"),
    ("freeprod.ping_pong_free_check", "torlen.freeprod", "ping_pong_free_check"),
    (
        "freeprod.conjugate_separation_search",
        "torlen.freeprod",
        "conjugate_separation_search",
    ),
    ("constructions.build_ln", "torlen.constructions", "build_ln"),
    ("constructions.build_tgen", "torlen.constructions", "build_tgen"),
    ("cli.main", "torlen.cli", "main"),
]

# Raw counters fed by observed calls; ``layer_metrics`` turns them into
# the reported counts and ratios.
COUNTERS = (
    "snf_cells",
    "certificates",
    "ball_states",
    "closure_balls",
    "exhausted_balls",
    "fold_letters_in",
    "fold_edges_out",
    "index_sum",
    "bound_exceeded",
)


def _observe_snf(counters, args, result):
    matrix = args[0]
    counters["snf_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _observe_search(counters, args, result):
    counters["certificates"] += len(result.certificates)


def _observe_ball(counters, args, result):
    counters["ball_states"] += len(result.parents)
    counters["closure_balls"] += 1
    counters["exhausted_balls"] += bool(result.exhausted)


def _observe_fold(counters, args, result):
    counters["fold_letters_in"] += sum(len(w) for w in args[1])
    counters["fold_edges_out"] += len(result.edges)


def _observe_tc(counters, args, result):
    if result.status == "complete":
        counters["index_sum"] += result.index
    else:
        counters["bound_exceeded"] += 1


OBSERVERS = {
    "abelian.smith_normal_form": _observe_snf,
    "torsion.torsion_certificate_search": _observe_search,
    "consequences.closure_ball": _observe_ball,
    "stallings.build_subgroup_graph": _observe_fold,
    "coset.todd_coxeter": _observe_tc,
}


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, name_id, observer):
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observer is _observe_fold and not isinstance(args[1], (list, tuple)):
                # the observer reads the generators after the call
                args = (args[0], tuple(args[1])) + args[2:]
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observer is not None:
                observer(counters, args, result)
            return result

        return traced

    def install(self):
        """Wrap each traced function at every binding: its defining
        module, every torlen module that imported the name, and the
        class attribute for methods.  A function that no longer exists
        is skipped and reports 0 calls."""
        modules = [m for k, m in sys.modules.items() if k == "torlen" or k.startswith("torlen.")]
        for name_id, (name, module, path) in enumerate(TRACED):
            owner = sys.modules.get(module)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name, None)
                targets = [owner]
            else:
                attr = path
                targets = modules
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name_id, OBSERVERS.get(name))
            for target in targets:
                if vars(target).get(attr) is original:
                    self._restore.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Calls and self seconds per traced function, plus counters."""
        n = len(self.span_name)
        child_ns = array("q", bytes(8 * n))
        dur = array("q", (e - s for s, e in zip(self.span_start, self.span_end)))
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child_ns[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_ns[name_id] += dur[i] - child_ns[i]
        out = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[name_id], "count")
            out[f"{name}.self_s"] = (self_ns[name_id] / 1e9, "s")
        c = self.counters

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        out["abelian.snf_cells"] = (c["snf_cells"], "count")
        out["torsion.certificates"] = (c["certificates"], "count")
        out["torsion.certs_per_state"] = (ratio("certificates", "ball_states"), "ratio")
        out["consequences.ball_states"] = (c["ball_states"], "count")
        out["consequences.exhausted_share"] = (ratio("exhausted_balls", "closure_balls"), "ratio")
        out["stallings.fold_ratio"] = (ratio("fold_edges_out", "fold_letters_in"), "ratio")
        out["coset.index_sum"] = (c["index_sum"], "count")
        out["coset.bound_exceeded"] = (c["bound_exceeded"], "count")
        return out

    def total_self_s(self) -> float:
        """Time covered by root spans, i.e. the sum of all self times."""
        return sum(
            e - s for s, e, p in zip(self.span_start, self.span_end, self.span_parent) if p < 0
        ) / 1e9

    def write(self, path: str):
        """Spans as four little-endian arrays after a one-line JSON header."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": ["name:u16", "parent:i64", "start_ns:i64", "end_ns:i64"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
