"""Per-layer tracing from outside the program.

``Tracer.install()`` binds a timing wrapper to each listed public function
in every ``locality_lab`` module that binds it, so the program's own calls
into the function are timed too; ``uninstall()`` restores the originals.
Each call is a span (name, start, end, parent span, item).  Spans are kept
in memory, in flat arrays, and written out when the run ends.  A span's
self time is its duration minus the time of its child spans.

Field arithmetic (``FieldSpec.mul``/``add``/``sub``) is not wrapped: some
items make tens of millions of such calls, and their time lands in the
caller's self time, mostly in ``rref``.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# layer -> wrapped public functions of that module
LAYERS = {
    "code_core": ["rref", "nullspace", "exact_weight_words",
                  "weight_distribution", "macwilliams", "minimum_distance"],
    "constructions": ["hamming", "simplex", "cyclic_code", "bch",
                      "ternary_golay", "grm_punctured", "grm",
                      "elliptic_quadric", "tits_ovoid", "ovoid_code",
                      "denniston_arc", "arc_code", "oval_poly", "code_bf_bar",
                      "code_gf", "code_gf_bar"],
    "gf": ["field_new", "quadratic_extension", "splitting_field",
           "minimal_polynomial"],
    "locality": ["minimum_linear_locality", "repair_coefficients",
                 "bounds_report", "classify_d_optimality",
                 "classify_k_optimality"],
    "designs": ["analyze_design"],
    "cli": ["main"],
}

# per-layer metrics: name -> (unit, spans summed, what is summed)
_GROUPS = {
    "constructions": [f"constructions.{f}" for f in LAYERS["constructions"]],
    "gf": [f"gf.{f}" for f in LAYERS["gf"]],
    "locality.bounds": ["locality.bounds_report",
                        "locality.classify_d_optimality",
                        "locality.classify_k_optimality"],
}
METRICS = {}
for _f in ("rref", "nullspace", "exact_weight_words", "weight_distribution",
           "macwilliams", "minimum_distance"):
    METRICS[f"code_core.{_f}.calls"] = ("count", [f"code_core.{_f}"], "calls")
    METRICS[f"code_core.{_f}.self_s"] = ("s", [f"code_core.{_f}"], "self")
METRICS["code_core.rref.cells"] = ("count", ["code_core.rref"], "extra")
METRICS["code_core.exact_weight_words.words"] = (
    "count", ["code_core.exact_weight_words"], "extra")
METRICS["constructions.calls"] = ("count", _GROUPS["constructions"], "calls")
METRICS["constructions.self_s"] = ("s", _GROUPS["constructions"], "self")
METRICS["gf.calls"] = ("count", _GROUPS["gf"], "calls")
METRICS["gf.self_s"] = ("s", _GROUPS["gf"], "self")
METRICS["locality.minimum_linear_locality.self_s"] = (
    "s", ["locality.minimum_linear_locality"], "self")
METRICS["locality.repair_coefficients.calls"] = (
    "count", ["locality.repair_coefficients"], "calls")
METRICS["locality.repair_coefficients.self_s"] = (
    "s", ["locality.repair_coefficients"], "self")
METRICS["locality.bounds.self_s"] = ("s", _GROUPS["locality.bounds"], "self")
METRICS["designs.analyze_design.calls"] = (
    "count", ["designs.analyze_design"], "calls")
METRICS["designs.analyze_design.self_s"] = (
    "s", ["designs.analyze_design"], "self")
METRICS["cli.main.self_s"] = ("s", ["cli.main"], "self")
del _f


def _rref_cells(args, result) -> int:
    rows = args[1]
    return len(rows) * len(rows[0]) if rows else 0


def _word_count(args, result) -> int:
    return len(result)


# an extra count per call, for the spans that have one
_EXTRA = {"code_core.rref": _rref_cells,
          "code_core.exact_weight_words": _word_count}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        # span arrays
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.pass_no = array("l")
        # running aggregates, reset per pass
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self.extra: list[int] = []
        self._stack: list[list] = []   # [span index, name id, start, child time]
        self.current_item = -1
        self.current_pass = -1
        for layer, funcs in LAYERS.items():
            module = importlib.import_module(f"locality_lab.{layer}")
            for f in funcs:
                name = f"{layer}.{f}"
                original = getattr(module, f)
                self._originals[name] = original
                self._wrappers[name] = self._wrap(len(self.names), original,
                                                  _EXTRA.get(name))
                self.names.append(name)
        self.reset_counts()

    def reset_counts(self) -> None:
        self.calls = [0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.extra = [0] * len(self.names)

    def exclude(self, seconds: float) -> None:
        """Leave out of the running span's self time work that is not the
        program's (a reference sample taken inside it)."""
        if self._stack:
            self._stack[-1][3] += seconds

    def _wrap(self, nid: int, fn, extra):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.item.append(self.current_item)
            self.pass_no.append(self.current_pass)
            self.end.append(0.0)
            frame = [idx, nid, 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            frame[2] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                self.calls[nid] += 1
                self.self_time[nid] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
            if extra is not None:
                self.extra[nid] += extra(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _rebind(self, table: dict[str, object], expect: dict[str, object]) -> None:
        by_id = {id(expect[name]): table[name] for name in table}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "locality_lab"
                                      or mod_name.startswith("locality_lab.")):
                continue
            for attr, value in list(vars(module).items()):
                new = by_id.get(id(value))
                if new is not None:
                    setattr(module, attr, new)

    def install(self) -> None:
        self._rebind(self._wrappers, self._originals)

    def uninstall(self) -> None:
        self._rebind(self._originals, self._wrappers)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """This pass's per-layer figures: metric -> (value, unit)."""
        index = {name: i for i, name in enumerate(self.names)}
        out = {}
        for metric, (unit, spans, kind) in METRICS.items():
            ids = [index[s] for s in spans]
            source = {"calls": self.calls, "self": self.self_time,
                      "extra": self.extra}[kind]
            out[metric] = (sum(source[i] for i in ids), unit)
        return out

    def write_spans(self, path, item_names: list[str], passes=None) -> int:
        """Write the spans (of the given passes, default all) as
        tab-separated lines; returns the number written."""
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tpass\titem\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                p = self.pass_no[i]
                if passes is not None and p not in passes:
                    continue
                it = self.item[i]
                fh.write(f"{i}\t{self.parent[i]}\t{p}\t"
                         f"{item_names[it] if it >= 0 else '-'}\t"
                         f"{self.names[self.name_id[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
                count += 1
        return count
