"""Per-layer spans and counters, installed from outside arrspec.

Wrappers replace public names where their callers look them up (for
example `arrspec.spectrum.build_lattice`, which `prepare` resolves at call
time), so the program itself is unchanged.  A layer is the arrspec module
that defines the wrapped function.

Two kinds of wrapper:

- a span records name, start, end, parent span and op id, one record per
  call, kept in memory and written out when the run ends;
- a hot method (`GradedPoly.__mul__`, `EchelonBasis.reduce`, ...) is
  called tens of thousands of times per op, so its calls, time and self
  time are summed per parent span and per caller bucket instead.

Self time is duration minus the time covered by wrapped children.  A name
that no longer exists is listed as absent and skipped.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute) as the caller looks the function up
SPAN_SITES = [
    ("arrspec.spectrum", "spectrum"),
    ("arrspec.spectrum", "prepare"),
    ("arrspec.spectrum", "spectrum_from_setup"),
    ("arrspec.spectrum", "multiplicity"),
    ("arrspec.spectrum", "build_lattice"),
    ("arrspec.spectrum", "maximal_building"),
    ("arrspec.spectrum", "ideal_generators"),
    ("arrspec.spectrum", "char_classes"),
    ("arrspec.spectrum", "reduce_top"),
    ("arrspec.spectrum", "twist_exp"),
    ("arrspec.ring", "enumerate_nested"),
    ("arrspec.cli", "main"),
    ("arrspec.cli", "load_input"),
    ("arrspec.cli", "prepare"),
    ("arrspec.cli", "spectrum_from_setup"),
    ("arrspec.cli", "run_checks"),
    ("arrspec.cli", "result_to_dict"),
    ("arrspec.cli", "render"),
    ("arrspec.checks", "ch_dual_exterior_roots"),
]

# (module, class or None, attribute)
HOT_SITES = [
    ("arrspec.arrangement", "IntersectionLattice", "closure_of"),
    ("arrspec.linalg", "EchelonBasis", "reduce"),
    ("arrspec.linalg", "EchelonBasis", "insert"),
    ("arrspec.ring", "GradedPoly", "__mul__"),
    ("arrspec.ring", "GradedPoly", "__rmul__"),
    ("arrspec.nested", None, "is_nested"),
]

# spans whose echelon calls are reported as their own bucket; a call's
# bucket is that of the nearest enclosing one of these
BUCKETS = {
    "arrangement.closure_of": "lattice",
    "ring.ideal_generators": "ideal",
    "ring.reduce_top": "pairing",
}

LAYERS = ["arrangement", "linalg", "nested", "ring", "chern", "spectrum", "checks", "docio", "cli"]

# results read back after each op, outside its timing
CAPTURED = {"spectrum.prepare", "spectrum.twist_exp"}


def _layer_name(fn, attr: str) -> str:
    module = getattr(fn, "__module__", "") or ""
    return f"{module.rsplit('.', 1)[-1]}.{getattr(fn, '__name__', attr)}"


def _mul_pairs(args) -> int:
    a, b = args[0], args[1]
    return len(getattr(a, "terms", ())) * len(getattr(b, "terms", (0,)))


class Tracer:
    """Spans and hot-method counters for one process."""

    def __init__(self) -> None:
        self.active = False
        self.op = None
        self.spans: list[list] = []  # [id, parent, op, name, start, end, self]
        self.hot: dict[tuple, list] = {}  # (span id, name, bucket) -> [calls, s, self s, pairs]
        self.stack: list[list] = []  # frames: [child time, span id, bucket]
        self.captured: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.op_facts: list[dict] = []

    # installation

    def install(self) -> None:
        for modname, attr in SPAN_SITES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            setattr(mod, attr, self._span(fn, _layer_name(fn, attr)))
        for modname, clsname, attr in HOT_SITES:
            owner = importlib.import_module(modname)
            if clsname is not None:
                owner = getattr(owner, clsname, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{modname}.{clsname + '.' if clsname else ''}{attr}")
                continue
            name = _layer_name(fn, attr)
            setattr(owner, attr, self._hot(fn, name, _mul_pairs if name == "ring.__mul__" else None))

    def _span(self, fn, name: str):
        tracer = self
        own_bucket = BUCKETS.get(name)
        capture = name in CAPTURED

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1]
            sid = len(tracer.spans)
            rec = [sid, parent[1], tracer.op, name, 0.0, 0.0, 0.0]
            tracer.spans.append(rec)
            frame = [0.0, sid, own_bucket or parent[2]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent[0] += end - start
                rec[4], rec[5], rec[6] = start, end, end - start - frame[0]
            if capture:
                tracer.captured.append((name, args, result))
            elif name == "nested.enumerate_nested":
                tracer.counts["nested.nested_sets"] += len(result)
            return result

        return wrapper

    def _hot(self, fn, name: str, pairs):
        tracer = self
        hot = self.hot
        own_bucket = BUCKETS.get(name)

        def wrapper(*args):
            if not tracer.active:
                return fn(*args)
            stack = tracer.stack
            parent = stack[-1]
            frame = [0.0, parent[1], own_bucket or parent[2]]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - start
                stack.pop()
                parent[0] += dur
                key = (parent[1], name, parent[2])
                rec = hot.get(key)
                if rec is None:
                    rec = hot[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if pairs is not None:
                    rec[3] += pairs(args)

        return wrapper

    # one op

    def begin_op(self, op: int) -> None:
        self.op = op
        sid = len(self.spans)
        self.spans.append([sid, None, op, "op", perf_counter(), 0.0, 0.0])
        self.stack = [[0.0, sid, "other"]]
        self.active = True

    def end_op(self) -> None:
        end = perf_counter()
        self.active = False
        frame = self.stack.pop()
        rec = self.spans[frame[1]]
        rec[5] = end
        rec[6] = end - rec[4] - frame[0]

    def collect_op(self, api) -> None:
        """Read sizes from the objects the op produced, then drop them."""
        facts: dict = {}
        twists = set()
        for name, args, result in self.captured:
            try:
                if name == "spectrum.prepare":
                    facts.update(_setup_facts(result))
                else:
                    bs, eig = args[0], args[1]
                    twists.add(tuple(api.spectrum_mod.a_coeff(bs, v, eig) for v in range(bs.size)))
            except (AttributeError, TypeError, IndexError, ValueError):
                self._mark_absent(f"counts from {name}")
        self.captured = []
        facts["distinct_twists"] = len(twists)
        facts["cells"] = sum(1 for s in self.spans if s[2] == self.op and s[3] == "spectrum.multiplicity")
        for key, value in facts.items():
            if key == "max_fraction_bits":
                self.maxima["chern.max_fraction_bits"] = max(self.maxima["chern.max_fraction_bits"], value)
            else:
                self.counts[key] += value
        self.op_facts.append(facts)

    def _mark_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    # summaries

    def inclusive(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[3]] += s[5] - s[4]
        return out

    def span_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[3]] += s[6]
        return out

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + ["other"]}
        for name, value in self.span_self().items():
            layer = name.split(".", 1)[0]
            out[layer if layer in out else "other"] += value
        for (_, name, _), rec in self.hot.items():
            layer = name.split(".", 1)[0]
            out[layer if layer in out else "other"] += rec[2]
        return out

    def hot_totals(self, name: str, bucket: str | None = None) -> list:
        tot = [0, 0.0, 0.0, 0]
        for (_, n, b), rec in self.hot.items():
            if n == name and (bucket is None or b == bucket):
                for i in range(4):
                    tot[i] += rec[i]
        return tot

    def metrics(self, ops: int) -> dict[str, float]:
        incl = self.inclusive()
        own = self.span_self()
        counts = self.counts
        m: dict[str, float] = {}

        m["arrangement.build_lattice_s"] = incl["arrangement.build_lattice"]
        m["arrangement.closure_of_calls"] = self.hot_totals("arrangement.closure_of")[0]
        m["arrangement.flats"] = counts["flats"]
        for bucket in ("lattice", "ideal", "pairing"):
            red = self.hot_totals("linalg.reduce", bucket)
            m[f"linalg.{bucket}.reduce_calls"] = red[0]
            m[f"linalg.{bucket}.insert_calls"] = self.hot_totals("linalg.insert", bucket)[0]
            m[f"linalg.{bucket}.reduce_s"] = red[1]
        m["nested.building_s"] = incl["nested.maximal_building"]
        m["nested.building_size"] = counts["building_size"]
        m["nested.nested_sets"] = counts["nested.nested_sets"]
        m["nested.is_nested_calls"] = self.hot_totals("nested.is_nested")[0]
        m["ring.ideal_generators_s"] = incl["ring.ideal_generators"]
        m["ring.generators"] = counts["generators"]
        m["ring.monomials_top"] = counts["monomials_top"]
        m["ring.quotient_rank_sum"] = counts["quotient_rank_sum"]
        mul = self.hot_totals("ring.__mul__")
        m["ring.mul_calls"], m["ring.mul_term_pairs"], m["ring.mul_s"] = mul[0], mul[3], mul[1]
        m["ring.reduce_top_calls"] = sum(1 for s in self.spans if s[3] == "ring.reduce_top")
        m["ring.reduce_top_s"] = incl["ring.reduce_top"]
        m["chern.char_classes_s"] = incl["chern.char_classes"]
        m["chern.class_terms"] = counts["class_terms"]
        m["chern.roots_route_s"] = incl["chern.ch_dual_exterior_roots"]
        m["spectrum.prepare_s"] = incl["spectrum.prepare"]
        m["spectrum.pairing_s"] = own["spectrum.spectrum_from_setup"] + own["spectrum.multiplicity"]
        m["spectrum.twist_exp_s"] = incl["spectrum.twist_exp"]
        m["spectrum.cells"] = counts["cells"]
        m["spectrum.distinct_twists"] = counts["distinct_twists"]
        m["checks.run_checks_s"] = incl["checks.run_checks"]
        m["docio.parse_s"] = incl["docio.load_input"]
        m["docio.render_s"] = incl["docio.render"] + incl["docio.result_to_dict"]
        m["cli.main_s"] = own["cli.main"]
        for layer, value in self.layer_self().items():
            m[f"self.{layer}_s"] = value
        # everything above is a total over the traced ops; report it per op
        m = {k: v / ops for k, v in m.items()}
        m["spectrum.twist_share"] = counts["distinct_twists"] / counts["cells"] if counts["cells"] else 0.0
        m["chern.max_fraction_bits"] = self.maxima["chern.max_fraction_bits"]
        return m

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "span_fields": ["id", "parent", "op", "name", "start_s", "end_s", "self_s"],
            "spans": self.spans,
            "hot_fields": ["span", "name", "bucket", "calls", "total_s", "self_s", "term_pairs"],
            "hot": [[*key, *rec] for key, rec in sorted(self.hot.items())],
            "ops": self.op_facts,
        }


def _setup_facts(setup) -> dict:
    classes = setup.classes
    polys = [classes.total, classes.todd, classes.log_chern, *classes.dual_ch]
    coeffs = [c for p in polys for c in p.terms.values()]
    return {
        "flats": len(setup.lattice.flats),
        "building_size": setup.building.size,
        "generators": len(setup.ideal.generators),
        "monomials_top": len(setup.ideal.monomials[-1]),
        "quotient_rank_sum": sum(setup.ideal.quotient_ranks),
        "class_terms": sum(len(p.terms) for p in polys),
        "max_fraction_bits": max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs), default=0
        ),
    }
