"""Outside-in tracing of liestrata, one span per call of a public function.

``install`` replaces each traced function at every module-level binding
that holds it (``liestrata.sweep.classify``, ``liestrata.quadruples.rank``,
``liestrata.cross_sections.delta_domain`` and so on),
so callers inside the package go through the wrapper without any change to
it.  Spans (name, start, end, parent) live in compact arrays until
``write`` puts them in a TSV file; ``summarize`` turns a span file into
per-layer self times and the per-function figures the benchmark reports.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# Layers are the package modules; each lists the public functions traced.
TRACED = {
    "sweep": ("sweep_strata", "sweep_counts"),
    "quadruples": ("classify", "quadruple_table", "null_space_spanning",
                   "lambda_subspace", "lambda_subspace_vectors",
                   "common_triples", "quadruple_of"),
    "linalg": ("rank", "left_null_basis", "primitive_span_basis",
               "gf2_coset_transversal", "gf2_rank", "gf2_root_matrix",
               "root_matrix", "span_equals", "gf2_column_space_contains"),
    "jacobi": ("jacobi_system", "obstruction_status", "format_system"),
    "orbits": ("magnitude_orbit_equivalent", "sign_orbit_equivalent",
               "orbit_verdict"),
    "cross_sections": ("cross_section", "delta_domain",
                       "solve_branch_fixtures", "lemma58_certificate",
                       "f_jacobian", "dominance_certificate", "lie_points",
                       "curve_samples"),
    "poly": ("rational_roots",),
    "report": ("build_analysis_report", "build_cross_section_report",
               "build_isomorphism_report", "render_text"),
    "cli": ("cmd_sweep", "cmd_analyze", "cmd_isomorphic", "load_input"),
}
LAYERS = tuple(TRACED)


class Tracer:
    """Span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counters: Counter = Counter()
        self._open = [-1]
        self.origin = perf_counter()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    def function(self, name: str, fn, after=None):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(self.counters, args, result)
            return result
        return traced

    def generator(self, name: str, fn, count_key: str):
        """One span per item pulled, so a consumer's own time stays its own."""
        nid = self._name_id(name)
        counters = self.counters

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def pull():
                try:
                    while True:
                        idx = self._enter(nid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._exit(idx)
                        counters[count_key] += 1
                        yield item
                finally:
                    gen.close()
            return pull()
        return traced

    def counted(self, key: str, fn):
        counters = self.counters

        def counted_fn(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return counted_fn

    def abort(self) -> None:
        """Close what a deadline left open and forget the open stack.

        The deadline signal can land between two of the appends in
        ``_enter``; the arrays are cut back to the last complete span.
        """
        now = perf_counter()
        count = min(len(self.name_of), len(self.parent), len(self.end),
                    len(self.start))
        for arr in (self.name_of, self.parent, self.end, self.start):
            del arr[count:]
        for idx in self._open[1:]:
            if idx < count and self.end[idx] == 0.0:
                self.end[idx] = now
        self._open = [-1]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]}\t"
                         f"{self.start[i] - self.origin!r}\t"
                         f"{self.end[i] - self.origin!r}\t"
                         f"{self.parent[i]}\n")


def _count_domain(counters, args, result) -> None:
    spec = args[0]
    counters["cross_sections.delta_domain_candidates"] += sum(
        1 for k in range(len(spec.lam)) if any(w[k] for w in spec.W))
    counters["cross_sections.delta_domain_kept"] += len(result.inequalities)


def _count_branches(counters, args, result) -> None:
    counters["cross_sections.branches"] += len(result)


AFTER = {"cross_sections.delta_domain": _count_domain,
         "cross_sections.solve_branch_fixtures": _count_branches}


def _rebind(original, replacement) -> None:
    for name, mod in list(sys.modules.items()):
        if name != "liestrata" and not name.startswith("liestrata."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function at all of its liestrata bindings."""
    import liestrata.cli  # noqa: F401  (imports every traced module)

    for layer, names in TRACED.items():
        home = sys.modules["liestrata." + layer]
        for fname in names:
            key = f"{layer}.{fname}"
            original = getattr(home, fname)
            if key == "sweep.sweep_strata":
                wrapped = tracer.generator(key, original, "sweep.strata_emitted")
            else:
                wrapped = tracer.function(key, original, AFTER.get(key))
            _rebind(original, wrapped)
    # Private, but it is where the engine visits each stratum: count only.
    sweep = sys.modules["liestrata.sweep"]
    sweep._summarize = tracer.counted("sweep.strata_enumerated",
                                      sweep._summarize)


# ---------------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------------


def read(path: str) -> list[tuple[str, float, float, int]]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name, start, end, parent = line.rstrip("\n").split("\t")
            spans.append((name, float(start), float(end), int(parent)))
    return spans


def summarize(spans, traced_wall: float) -> dict:
    """Self time per layer, calls and outermost inclusive time per function.

    A span's self time is its duration minus its children's; summed over
    all spans that equals the time covered by root spans, so the layer self
    times plus ``unattributed`` (traced wall time outside every span) add up
    to ``traced_wall``.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    roots = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_s[name.split(".", 1)[0]] += dur - child[i]
        calls[name] += 1
        if parent < 0:
            roots += dur
        # outermost call of this function only, so recursion is not doubled
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += dur
    return {"self_s": self_s, "calls": calls, "inclusive_s": inclusive,
            "unattributed_s": traced_wall - roots}


def outermost(spans, names: set[str]) -> float:
    """Time inside any of ``names``, counting nested calls among them once."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total
