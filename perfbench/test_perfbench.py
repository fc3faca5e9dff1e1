"""Self-tests of the benchmark: its oracles, its failure counting and its tracer.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import child  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from residua.generators import divisor, random_distributive  # noqa: E402
from residua.laws import LawId, mutate_entry  # noqa: E402


def cyclic_subgroups(n):
    """Subgroups of Z/n by brute force: every subgroup of a cyclic group
    is generated by one element."""
    return {frozenset(g * k % n for k in range(n)) for g in range(n)}


class OracleTables(unittest.TestCase):
    def test_divisor_count_and_radical(self):
        sieve = oracles.divisor_counts(300)
        for n in range(1, 301):
            divs = [d for d in range(1, n + 1) if n % d == 0]
            self.assertEqual(oracles.divisor_count(n), len(divs), n)
            self.assertEqual(sieve[n], len(divs), n)
            primes = [p for p in divs if p > 1 and all(p % q for q in range(2, p))]
            self.assertEqual(oracles.radical(n), math.prod(primes), n)

    def test_cyclic_catalog_counts(self):
        for n in range(1, 33):
            subs = cyclic_subgroups(n)
            self.assertEqual(oracles.catalog_subgroup_count(f"z{n}"), len(subs), n)
            proper = [s for s in subs if len(s) < n]
            maximal = [s for s in proper if not any(s < t for t in proper)]
            frattini = frozenset(range(n)).intersection(*maximal) if maximal else frozenset(range(n))
            self.assertEqual(oracles.catalog_frattini_order(f"z{n}"), len(frattini), n)
            self.assertTrue(oracles.catalog_distributive(f"z{n}"))
        for name in oracles.NONCYCLIC_SUBGROUPS:
            self.assertFalse(oracles.catalog_distributive(name))

    def test_spec_sizes(self):
        self.assertEqual(oracles.spec_size("chain:5"), 5)
        self.assertEqual(oracles.spec_size("boolean:3"), 8)
        self.assertEqual(oracles.spec_size("divisor:12"), 6)
        self.assertEqual(oracles.spec_size("zn:30"), 8)
        self.assertEqual(oracles.spec_size("product:chain:3|boolean:2"), 12)
        self.assertEqual(oracles.spec_size("group:q8"), 6)
        self.assertFalse(oracles.spec_distributive("product:chain:2|group:s3"))

    def test_law_tables_name_real_laws(self):
        ids = {law.value for law in LawId}
        self.assertEqual(len(ids), oracles.LAW_COUNT)
        self.assertLessEqual(oracles.LAWS_WITHOUT_COFRAME, ids)
        self.assertLessEqual(oracles.LAWS_FINITE_ONLY, ids)

    def test_testbed_forms(self):
        inf = float("inf")
        self.assertTrue(oracles.all_finite((0, 3)))
        self.assertFalse(oracles.all_finite((inf, 3)))
        self.assertEqual(oracles.cb_level((inf, 2, inf)), 2)


class FailureCounting(unittest.TestCase):
    def test_corrupted_instance_counts_as_failed(self):
        L = random_distributive(5, 40)
        bad = mutate_entry(L, "meet", 1, 2, next(v for v in range(L.n) if v != L.meet[1][2]))
        items = [
            workloads._laws_item("clean", L, workloads._check_all_pass),
            workloads._laws_item("corrupted-as-clean", bad, workloads._check_all_pass),
            workloads._laws_item("corrupted", bad, workloads._check_corrupted),
        ]
        latencies, failures, _, _ = child.run_pass(items)
        self.assertEqual(len(latencies), 3)
        self.assertEqual([f.split(":")[0] for f in failures], ["corrupted-as-clean"])

    def test_raising_item_counts_as_failed(self):
        items = [workloads.Item("boom", lambda: 1 // 0, lambda out: out)]
        _, failures, _, _ = child.run_pass(items)
        self.assertEqual(len(failures), 1)

    def test_digest_is_order_independent(self):
        items = [workloads._laws_item(f"divisor:{n}", divisor(n), workloads._check_all_pass) for n in (6, 12, 30)]
        _, _, first, _ = child.run_pass(items)
        _, _, second, _ = child.run_pass(items[::-1])
        self.assertEqual(first, second)

    def test_scaled_latencies_follow_the_probes(self):
        items = [workloads._laws_item(f"divisor:{n}", divisor(n), workloads._check_all_pass) for n in (6, 12, 30)]
        raw, _, _, scaled = child.run_pass(items, scale=True)
        self.assertEqual(len(scaled), len(raw))
        ratios = [s / r for s, r in zip(scaled, raw)]
        # The three short items share the probes on either side of them.
        self.assertTrue(all(r > 0 for r in ratios))
        self.assertAlmostEqual(min(ratios), max(ratios))

    def test_cli_items_pass_and_defects_are_probed(self):
        with tempfile.TemporaryDirectory() as tmp:
            items = workloads.setup_cli(3, tmp)
            self.assertGreaterEqual(len(items), 100)
            malformed = [it for it in items if it.key.startswith("malformed:")]
            _, failures, _, _ = child.run_pass(malformed)
            self.assertEqual(failures, [])
            self.assertLessEqual(set(workloads.probe_defects(tmp)), set(workloads.defect_argvs(tmp)))


class Tracing(unittest.TestCase):
    def test_self_times_fit_in_traced_wall(self):
        with tempfile.TemporaryDirectory() as tmp:
            items = workloads.setup_cli(4, tmp)[:40]
            items.append(workloads._laws_item("divisor:60", divisor(60), workloads._check_all_pass))
            t = tracing.Tracer()
            t.install()
            try:
                latencies, failures, _, _ = child.run_pass(items)
            finally:
                t.uninstall()
        self.assertEqual(failures, [])
        agg = t.aggregate()
        self.assertGreater(agg["cli.main"][0], 0)
        self.assertTrue(all(s >= -1e-6 for _, s in agg.values()))
        self.assertLessEqual(sum(s for _, s in agg.values()), sum(latencies))

    def test_declared_per_layer_metrics_exist(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            declared = [m["name"] for m in json.load(f)["per_layer"]]
        t = tracing.Tracer()
        t.install()
        t.uninstall()
        spans = set(t.names) | {f"laws.run_law.{law.value}" for law in LawId} | {"laws.run_law"}
        computed = {"trace.overhead_s", "laws.checked", "residual.profile_reuse", "cli.contract_defects"}
        computed |= {f"{m}.self_s" for m in tracing.MODULES}
        for name in declared:
            base, _, suffix = name.rpartition(".")
            self.assertTrue(name in computed or (suffix in ("calls", "self_s") and base in spans), name)
        self.assertEqual(len(declared), len(set(declared)))


if __name__ == "__main__":
    unittest.main()
