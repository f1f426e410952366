"""Quick tests of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Each workload runs one pass on a reduced item list, the tracer is checked
against a plain run, and every kind of check is shown to reject a wrong
expected value or a corrupted output.  The file name keeps the repository's
test suite from collecting it.
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import theory  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _one_pass(items, workload, tracer=None, traced=False):
    runner = run.Runner(items, run.REFERENCE[workload], seed=7, tracer=tracer)
    result = runner.run_pass(1, traced=traced)
    return runner, result


def _named(items, *names):
    by_name = {item.name: item for item in items}
    return [by_name[name] for name in names]


class TheoryTest(unittest.TestCase):
    def test_transform_of_simplex_is_hamming(self):
        self.assertEqual(
            theory.krawtchouk_transform(theory.simplex_distribution(2, 3), 7, 2),
            {0: 1, 3: 7, 4: 7, 7: 1})

    def test_transform_rejects_a_non_distribution(self):
        with self.assertRaises(ValueError):
            theory.krawtchouk_transform({0: 1, 3: 6, 4: 7, 7: 2}, 7, 2)

    def test_rm_min_weight_counts(self):
        self.assertEqual(theory.rm_min_weight_count(1, 3), 14)
        self.assertEqual(theory.rm_min_weight_count(2, 6), 2604)

    def test_fano_plane_is_a_steiner_system(self):
        fano = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6],
                [2, 3, 6], [2, 4, 5]]
        self.assertEqual(theory.design_lambdas(fano, 7, 3),
                         {1: 3, 2: 1, 3: None})

    def test_field_from_modulus(self):
        F = theory.Field(2, (1, 1, 0, 0, 1))  # x^4 + x + 1
        self.assertEqual(F.mul(2, 8), 3)      # x * x^3 = x + 1
        x = 1
        for _ in range(15):
            x = F.mul(x, 2)
        self.assertEqual(x, 1)
        self.assertEqual(F.add(5, 3), 6)

    def test_singleton_like_marks(self):
        self.assertEqual(theory.d_mark(17, 13, 4, 12), "yes")
        self.assertEqual(theory.d_mark(11, 8, 3, 8), "almost")


class ReducedWorkloadTest(unittest.TestCase):
    def test_tables(self):
        items = _named(workloads.table_items(), "table1:H_(q,m) q=3 m=3",
                       "table2:Bbar_f^perp q=8 f=translation:1",
                       "table2:C_o^perp q=4")
        runner, result = _one_pass(items, "tables")
        self.assertEqual((runner.attempted, runner.failed), (3, 0),
                         runner.problems)
        self.assertGreater(result["ref"], 0)

    def test_families(self):
        items = _named(workloads.family_items(),
                       "analyze grm-punctured q=4 ell=1 m=3 --bounds --json",
                       "analyze grm q=2 ell=1 m=5 --bounds --json --designs 3:16",
                       "repair-sets bch q=16 n=17 delta=3 --json")
        runner, _ = _one_pass(items, "families")
        self.assertEqual((runner.attempted, runner.failed), (3, 0),
                         runner.problems)

    def test_distributions(self):
        items = _named(workloads.distribution_items(), "ternary_golay()",
                       "ovoid_code(elliptic_quadric(8))", "hamming(4,4)")
        runner, _ = _one_pass(items, "distributions")
        self.assertEqual((runner.attempted, runner.failed), (3, 0),
                         runner.problems)


class TracerTest(unittest.TestCase):
    def test_traced_pass_counts_repeat_and_originals_return(self):
        from locality_lab import cli, code_core, locality
        before = (code_core.rref, locality.nullspace, cli.main)
        items = _named(workloads.table_items(), "table2:C_o^perp q=4",
                       "table1:C(A) q=8 h=4")
        tracer = tracing.Tracer()
        runner = run.Runner(items, run.REFERENCE["tables"], seed=3,
                            tracer=tracer)
        first = runner.run_pass(1, traced=True)["layers"]
        second = runner.run_pass(2, traced=True)["layers"]
        self.assertEqual((code_core.rref, locality.nullspace, cli.main), before)
        self.assertEqual(runner.failed, 0, runner.problems)
        for name, (_, _, kind) in tracing.METRICS.items():
            if kind != "self":
                self.assertEqual(first[name], second[name], name)
        self.assertGreater(first["code_core.rref.calls"], 0)
        self.assertGreater(first["code_core.rref.cells"],
                           first["code_core.rref.calls"])
        self.assertEqual(first["cli.main.self_s"] > 0, True)
        self.assertGreater(len(tracer.start), 0)


class ChecksRejectWrongValuesTest(unittest.TestCase):
    """Each check must turn a wrong expectation or output into a failure."""

    def _fails(self, item, output=None):
        runner = run.Runner([item], run.REFERENCE["tables"], seed=1)
        if output is None:
            runner.run_pass(1)
        else:
            runner._check(item, output, None)
        self.assertEqual(runner.failed, 1)
        self.assertEqual(runner.wrong, 1)

    def test_known_fail_row_must_compute_eight(self):
        label = "Bbar_f^perp q=8 f=translation:1"
        saved = dict(theory.KNOWN_FAIL_ROWS)
        try:
            theory.KNOWN_FAIL_ROWS[label] = 7
            item = workloads._table_item(2, label, (11, 8, 3, 7), "yes", "yes")
        finally:
            theory.KNOWN_FAIL_ROWS.clear()
            theory.KNOWN_FAIL_ROWS.update(saved)
        self._fails(item)

    def test_wrong_table_claim(self):
        self._fails(workloads._table_item(1, "H_(q,m) q=3 m=3", (13, 10, 3, 9),
                                          "?", "yes"))
        self._fails(workloads._table_item(1, "C_f q=8 f=translation:1",
                                          (9, 3, 6, 3), "yes", "yes"))

    def _family(self, argv):
        spec = dict(workloads.FAMILY_SPECS)[argv]
        return argv, spec, workloads.call_cli(argv.split())

    def test_wrong_family_values(self):
        argv, spec, out = self._family(
            "analyze grm q=2 ell=1 m=5 --bounds --json --designs 3:16")
        for key, wrong in (("r", 4), ("d_dual", 5), ("options", 150),
                           ("wd", {0: 1, 16: 61, 32: 2}),
                           ("designs", [(3, 16, 62, 8)]),
                           ("designs", [(3, 16, 60, 7)])):
            bad = dict(spec, **{key: wrong})
            self._fails(workloads._analyze_item(argv, bad), out)

    def test_corrupted_family_output(self):
        argv, spec, out = self._family(
            "analyze grm-punctured q=4 ell=1 m=3 --bounds --json")
        bundle = json.loads(out.stdout)
        item = workloads._analyze_item(argv, spec)
        for mutate in (lambda b: b["weight_distribution"].update({"47": 188}),
                       lambda b: b["locality"]["repair_options"][5].pop(),
                       lambda b: b["bounds"].update(d_optimal=True),
                       lambda b: b["locality"].update(d_dual=4)):
            broken = copy.deepcopy(bundle)
            mutate(broken)
            self._fails(item, workloads.CliOutput(0, json.dumps(broken), ""))
        self._fails(item, workloads.CliOutput(2, out.stdout, ""))

    def test_wrong_repair_coefficient(self):
        item = workloads._repair_sets_item()
        out = item.run()
        got = json.loads(out.stdout)
        rule = got["repair_sets"][3]["coefficients"]
        key = next(iter(rule))
        rule[key] = rule[key] ^ 1
        self._fails(item, workloads.CliOutput(0, json.dumps(got), ""))

    def test_wrong_distribution(self):
        golay = {**workloads.GOLAY, 5: 131, 6: 133}
        item = workloads._distribution_item(
            "ternary_golay()", lambda: workloads.constructions.ternary_golay(),
            11, 6, 3, workloads._pair(golay, {0: 1, 6: 132, 9: 110}, 11, 3, 6))
        self._fails(item)
        item, = _named(workloads.distribution_items(), "bch(2,31,5,1)")
        out = item.run()
        out.wd_dual = {**out.wd_dual, 12: 311, 16: 526}
        self._fails(item, out)


if __name__ == "__main__":
    unittest.main()
