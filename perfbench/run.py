#!/usr/bin/env python3
"""Benchmark of locality-lab: tables, families and distributions.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run measures one workload in this process, single-threaded, against the
program in ``src/`` at the default resource caps.  It sets up the workload
in several fresh processes (``setup_s``), runs one untimed warm-up pass,
then whole timed passes while the next one is expected to end within
``--seconds`` (at least three).  Every
item's output is checked.  Samples of a fixed reference computation
(``refwork``) are taken between items and, from a timer, inside them; each
item's time is reported in *ref*, the mean time of the samples taken while
it ran and just around it, so that the figures follow the work done rather
than the momentary speed of a shared machine.

With ``--trace 1`` the timed passes alternate untraced and traced, and the
run reports the per-layer figures of the traced passes (``tracing``) and
``trace.overhead_ref``, the traced minus the untraced pass time in ref.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details, and with
``--trace 1`` the spans of the last traced pass, go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 7
# setup_s is reported at this fixed time of the ``eliminate`` reference
# computation, so that it follows the work of setting up and not the
# momentary speed of the machine
SETUP_REF_S = 0.0015
MIN_PASSES = 3
SAMPLE_EVERY_S = 0.05

# each workload's reference computation (parts of ``refwork``) and the
# window around an item whose samples set its ref; chosen by the spread of
# repeated runs (README, "The unit ref")
REFERENCE = {
    "tables": (("eliminate", "bigint", "numpy"), 0.1),
    "families": (("eliminate",), 0.3),
    "distributions": (("bigint", "numpy"), 1.0),
}


def _environment() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("LOCALITY_LAB_CAPS", None)  # default caps
    if not (SRC / "locality_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))


def setup_probe(workload: str) -> None:
    """Import the program and build the workload's inputs; print the
    seconds this took and the time of the (pure Python) ``eliminate``
    reference computation around it."""
    import refwork
    refs = [refwork.sample(("eliminate",)) for _ in range(3)]
    t0 = time.perf_counter()
    import workloads
    workloads.items_for(workload)
    seconds = time.perf_counter() - t0
    refs += [refwork.sample(("eliminate",)) for _ in range(3)]
    print(repr(seconds), repr(statistics.median(refs)))


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of SETUP_PROBES fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             workload], capture_output=True, text=True, timeout=120,
            check=True)
        seconds, ref = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(seconds), float(ref)))
    return out


class Runner:
    """Runs passes over a workload's items and keeps the failure counts.

    Reference samples are taken before and after every item and, from a
    timer signal, every SAMPLE_EVERY_S inside it; an item's time excludes
    the samples taken inside it.  Each item is divided by the mean of the
    samples that fall within ``window`` seconds of it, which follows the
    machine's speed while the item ran.
    """

    def __init__(self, items, reference, seed: int, tracer=None):
        import refwork
        self.refwork = refwork
        self.items = items
        self.ref_parts, self.window = reference
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.timeline: list[tuple[float, float]] = []  # (mid time, seconds)
        self._inside = 0.0          # sample time inside the running item
        self._in_sample = False
        self._active_tracer = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        seconds = self.refwork.sample(self.ref_parts)
        self.timeline.append((t0 + seconds / 2, seconds))
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        if self._in_sample:
            return
        self._in_sample = True
        try:
            spent = self._sample()
            self._inside += spent
            if self._active_tracer:
                self._active_tracer.exclude(spent)
        finally:
            self._in_sample = False

    def _run_item(self, item):
        """(output, error, seconds, start, end) of one timed run."""
        error = None
        self._inside = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            output = item.run()
        except (Exception, SystemExit) as exc:
            output, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        return output, error, t1 - t0 - self._inside, t0, t1

    def run_pass(self, pass_no: int, traced: bool = False) -> dict:
        """One pass over every item in a seeded order: per-item seconds and
        ref, the pass totals, and (traced) the per-layer figures."""
        order = list(range(len(self.items)))
        self.rng.shuffle(order)
        tracer = self.tracer if traced else None
        if tracer:
            tracer.reset_counts()
            tracer.current_pass = pass_no
        gc.collect()
        out_bytes = 0
        records = []
        self.timeline = []
        self._sample()
        for idx in order:
            item = self.items[idx]
            if tracer:
                tracer.current_item = idx
                tracer.install()
                self._active_tracer = tracer
            output, error, seconds, t0, t1 = self._run_item(item)
            if tracer:
                self._active_tracer = None
                tracer.uninstall()
            self._sample()
            records.append({"item": idx, "s": seconds, "t0": t0, "t1": t1})
            out_bytes += len(getattr(output, "stdout", ""))
            self._check(item, output, error)
            output = None  # not kept alive into the next item's peak memory
        for rec in records:
            near = [s for t, s in self.timeline
                    if rec["t0"] - self.window <= t <= rec["t1"] + self.window]
            rec["ref_s"] = sum(near) / len(near)
            rec["ref"] = rec["s"] / rec["ref_s"]
            rec["samples"] = len(near)
        result = {"pass": pass_no, "traced": traced, "items": records,
                  "s": sum(r["s"] for r in records),
                  "ref": sum(r["ref"] for r in records),
                  "ref_ms": 1000 * statistics.median(
                      s for _, s in self.timeline)}
        if tracer:
            layers = {k: v for k, (v, _) in tracer.metrics().items()}
            layers["cli.out_mb"] = out_bytes / 1e6
            result["layers"] = layers
        return result

    def _check(self, item, output, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                problems = item.check(output)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems = [f"malformed output: {type(exc).__name__}: {exc}"]
            if not problems:
                return
            self.wrong += 1
        else:
            problems = [error]
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{item.name}: {'; '.join(problems[:3])}")


def run_all(args) -> int:
    """Run every workload in a fresh process, one after the other; the last
    line is one JSON object with each workload's result."""
    results = {}
    for workload in REFERENCE:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        print(f"== {workload} (exit {proc.returncode})")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(REFERENCE) + ("all",),
                        help="one workload, or all of them, each in its "
                             "own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _environment()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    workload = args.workload

    setup = measure_setup(workload)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    import workloads
    runner = Runner(workloads.items_for(workload), REFERENCE[workload],
                    args.seed, tracer)
    runner.run_pass(0)  # warm-up: fills the program's caches, untimed
    runner.attempted = runner.failed = runner.wrong = 0
    # whole passes (traced: untraced-traced pairs) while the next one is
    # expected to end within --seconds, and at least MIN_PASSES (one pair)
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(len(passes) + 1))
        if args.trace:
            passes.append(runner.run_pass(len(passes) + 1, traced=True))
        elapsed = time.perf_counter() - t_start
        rounds = len(passes) // 2 if args.trace else len(passes)
        if (rounds >= (1 if args.trace else MIN_PASSES)
                and elapsed * (rounds + 1) / rounds > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    names = [item.name for item in runner.items]
    summary = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain), "items_per_pass": len(runner.items),
        "setup_s_raw": [seconds for seconds, _ in setup],
        "pass_s_median": statistics.median(p["s"] for p in plain),
        "ref_ms_median": statistics.median(p["ref_ms"] for p in plain),
    }
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        metrics = {}
        for name, (unit, _, kind) in sorted(tracing.METRICS.items()):
            values = [p["layers"][name] for p in traced]
            value = statistics.median(values) if kind == "self" else values[0]
            metrics[name] = {"value": value, "unit": unit}
            if kind != "self" and len(set(values)) != 1:
                runner.problems.append(f"count {name} differs between "
                                       f"traced passes: {values}")
        out_mb = [p["layers"]["cli.out_mb"] for p in traced]
        metrics["cli.out_mb"] = {"value": statistics.median(out_mb), "unit": "MB"}
        metrics["trace.overhead_ref"] = {
            "value": statistics.median(p["ref"] for p in traced)
            - statistics.median(p["ref"] for p in plain), "unit": "ref"}
        spans = RESULTS / f"spans-{workload}-seed{args.seed}.tsv"
        summary["spans_file"] = str(spans.relative_to(HERE.parent))
        summary["spans_written"] = tracer.write_spans(
            spans, names, passes={traced[-1]["pass"]})
    else:
        metrics = {
            "setup_s": {"value": SETUP_REF_S * statistics.median(
                seconds / ref for seconds, ref in setup), "unit": "s"},
            "pass_ref": {"value": statistics.median(p["ref"] for p in plain),
                         "unit": "ref"},
            "item_ref_p50": {"value": statistics.median(r["ref"] for p in plain
                                              for r in p["items"]),
                             "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    details = dict(summary, metrics=metrics, problems=runner.problems,
                   item_names=names, pass_records=passes)
    with open(RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)

    for key, value in summary.items():
        print(f"{key}: {value}")
    for problem in runner.problems:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6f} {m['unit']}")
    print(json.dumps({"correct": runner.wrong == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
