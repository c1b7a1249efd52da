"""Outside-in tracer for one calculator request.

Run as ``python bench/tracer.py SPANS_FILE ARG...`` with the package on
``PYTHONPATH``: it imports the package, wraps the public functions at each
module boundary (``LAYERS``), runs ``cli.main(ARG...)`` and writes the spans
to SPANS_FILE at exit.  The calculator's source is not touched, and stdout
is byte-identical to ``python -m siegelstrata ARG...``.

Only coarse boundary functions are wrapped.  Per-element helpers such as
``dot_action``, ``make_summand``, ``mat_mul``, ``similitude`` or
``torus_pairing`` run thousands of times per request, and a wrapper on them
would cost more than the work it measures; their counts are read from the
return values of the coarse calls instead (``len(module.summands)``,
``len(group)``, ...).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _euler_counts(args, result, originals):
    """Entries evaluated, and those with a GL block of size >= 3 (factor 0)."""
    cls, ctx = args[0], args[1]
    parabolic_data = originals["grouptheory.parabolic_data"]
    flat = cls.flatten()
    zero = sum(1 for S, _, _ in flat
               if any(k >= 3 for k in parabolic_data(ctx, S).leviBlocks))
    return {"entries": len(flat), "zero_factor_entries": zero}


def _len(key, part=None):
    if part is None:
        return lambda args, result, originals: {key: len(result)}
    return lambda args, result, originals: {key: len(getattr(result, part))}


# (module, function, counter, lru-cached function behind it).  A counter
# returns counts read from the arguments and the return value.  When a
# cached function is named, counts are kept only for calls that missed the
# cache, so they count work done rather than results handed out.
LAYERS = [
    ("grouptheory", "weyl_group", _len("elements"), "weyl_group"),
    ("grouptheory", "kostant_reps", _len("reps"), "_kostant_reps"),
    ("grouptheory", "parabolic_data", None, None),
    ("kostant", "lie_n_cohomology", _len("summands_built", "summands"), None),
    ("reps", "truncate",
     lambda a, r, o: {"summands_in": len(a[0].summands),
                      "summands_kept": len(r.summands)}, None),
    ("reps", "weyl_dim", None, None),
    ("engine", "restrict_weighted",
     lambda a, r, o: {"parabolic_sets": 2 ** (a[0].d - 1 - a[3])}, None),
    ("engine", "restrict_ic", None, None),
    ("engine", "chain_term", None, None),
    ("engine", "euler_evaluate", _euler_counts, None),
    ("engine", "graded_report", _len("rows"), None),
    ("arith", "brute_force_group", _len("elements"), "_brute_force_cached"),
    ("arith", "subgroup_closure", _len("elements"), None),
    ("arith", "left_orbits", _len("orbits"), None),
    ("arith", "orbit_canonical", None, None),
    ("arith", "euler_char_congruence", None, None),
    ("strata", "similitude_image_bruteforce", None, None),
    ("strata", "strata_count_bruteforce", None, None),
    ("strata", "double_coset_count_bruteforce", None, None),
    ("strata", "refinement_check_bruteforce", None, None),
    ("strata", "strata_count", None, None),
    ("strata", "double_coset_count", None, None),
    ("hecke", "hecke_matrix_structure", _len("classes", "classes"), None),
    ("hecke", "transfer_degree", None, None),
    ("hecke", "hecke_index", None, None),
    ("hecke", "boundary_fiber_count", None, None),
    ("hecke", "reduction_fiber_count", None, None),
    ("matrixmodel", "parabolic_generators", _len("generators"), None),
    ("cli", "parse_args", None, None),
    ("cli", "run", None, None),
    ("cli", "render", _len("bytes"), None),
]

# Counting spans sit beside the span they count, under the same parent, so
# that their cost is subtracted from the parent's self time.
COUNT_SPAN = "trace.count"


class Tracer:
    """Spans [name, start, end, parent index, counts] kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None, cached=None, originals=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            misses = cached.cache_info().misses if cached is not None else 0
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None and (
                    cached is None or cached.cache_info().misses > misses):
                start = perf_counter()
                span[4] = counter(args, result, originals)
                spans.append([COUNT_SPAN, start, perf_counter(), parent, None])
            return result

        return traced

    def install(self, package: str) -> None:
        """Wrap each layer function and rebind the wrapper in every module of
        ``package`` that holds the original under any name."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]

        def lookup(mod, name):
            return getattr(sys.modules[f"{package}.{mod}"], name)

        originals = {f"{mod}.{fn}": lookup(mod, fn) for mod, fn, _, _ in LAYERS}
        caches = {f"{mod}.{fn}": lookup(mod, cached) if cached else None
                  for mod, fn, _, cached in LAYERS}
        for mod, fn, counter, _ in LAYERS:
            original, cached = originals[f"{mod}.{fn}"], caches[f"{mod}.{fn}"]
            wrapper = self.wrap(f"{mod}.{fn}", original, counter, cached, originals)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s (duration minus the part of it that child
    spans cover) and summed counts.  Counting spans are left out."""
    children: dict[int, list] = {}
    for name, start, end, parent, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, counts) in enumerate(spans):
        if name == COUNT_SPAN:
            continue
        stats = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        stats["calls"] += 1
        stats["self_s"] += (end - start) - _covered(children.get(i, ()))
        for key, value in (counts or {}).items():
            stats[key] = stats.get(key, 0) + value
    return out


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    start = perf_counter()
    from siegelstrata import cli
    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install("siegelstrata")
    try:
        return cli.main(args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
