#!/usr/bin/env python3
"""Self-test of scripts/compare_artifacts.py on small artefact trees.

    python3 scripts/test_compare_artifacts.py

Builds an expected tree and a changed copy of it in a temporary
directory and runs the comparison as a subprocess: a change to one nested
float must fail and name its path, a change to an excluded `seconds`
field only must pass, and a `seconds` change in a file that is not
excluded, a changed CSV cell and a missing file must each fail.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "compare_artifacts.py"

TREE = {
    "claims.json": {"claims": [{"id": "T1", "ratios": [[8, 5.280882964419668]]}]},
    "sweep_hull.json": [{"cap": 1, "sse": 117099.34480529127, "seconds": 0.0218}],
    "sweep_bounds.json": [{"budget": 8, "width": 2.5, "seconds": 0.5}],
}
CSV = "method,budget_words,sse\nNAIVE,8,110625622637.73946\n"


class CompareArtifacts(unittest.TestCase):
    def setUp(self):
        self.root = Path(tempfile.mkdtemp(prefix="compare_artifacts_"))
        self.want = self.root / "want"
        self.got = self.root / "got"
        for tree in (self.want, self.got):
            (tree / "permuted").mkdir(parents=True)
            for name, value in TREE.items():
                (tree / name).write_text(json.dumps(value, indent=2))
            (tree / "permuted" / "fig1.csv").write_text(CSV)

    def tearDown(self):
        shutil.rmtree(self.root)

    def edit(self, name, change):
        value = json.loads((self.got / name).read_text())
        change(value)
        (self.got / name).write_text(json.dumps(value, indent=2))

    def run_compare(self):
        return subprocess.run(
            [sys.executable, str(SCRIPT), str(self.want), str(self.got)],
            capture_output=True,
            text=True,
        )

    def test_identical_trees_match(self):
        self.assertEqual(self.run_compare().returncode, 0)

    def test_a_nested_float_change_fails_and_names_its_path(self):
        one_ulp_up = 5.280882964419669
        self.edit("claims.json", lambda v: v["claims"][0]["ratios"][0].__setitem__(1, one_ulp_up))
        r = self.run_compare()
        self.assertEqual(r.returncode, 1)
        self.assertIn("claims.json: $.claims[0].ratios[0][1]", r.stdout)

    def test_an_excluded_seconds_change_passes(self):
        self.edit("sweep_hull.json", lambda v: v[0].__setitem__("seconds", 0.9))
        r = self.run_compare()
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_seconds_are_compared_outside_the_excluded_files(self):
        self.edit("sweep_bounds.json", lambda v: v[0].__setitem__("seconds", 0.9))
        r = self.run_compare()
        self.assertEqual(r.returncode, 1)
        self.assertIn("sweep_bounds.json: $[0].seconds", r.stdout)

    def test_a_csv_cell_change_fails_and_names_its_row_and_column(self):
        (self.got / "permuted" / "fig1.csv").write_text(CSV.replace("73946", "73947"))
        r = self.run_compare()
        self.assertEqual(r.returncode, 1)
        self.assertIn("permuted/fig1.csv: row 1.sse", r.stdout)

    def test_a_missing_file_fails(self):
        (self.got / "sweep_hull.json").unlink()
        r = self.run_compare()
        self.assertEqual(r.returncode, 1)
        self.assertIn("sweep_hull.json: missing", r.stdout)


if __name__ == "__main__":
    unittest.main()
