#!/usr/bin/env python3
"""Rebuild expected.json: the labelling-free output lines of every CLI item.

    python3 perfbench/freeze.py

Run it only on a commit whose answers are trusted; the benchmark fails
any run whose output differs from the file.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    sm = run.fresh_import()
    workdir = run.OUT / "freeze-inputs"
    expected = {}
    try:
        for name in workloads.PLANS:
            for item in workloads.generate(name, 0, sm, workdir):
                code, text = workloads.run_cli(item, sm)[1]
                if code != 0:
                    raise SystemExit(f"{item.key}: exit code {code}")
                expected[item.key] = checks.frozen_fields(text)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(dict(sorted(expected.items())), indent=1) + "\n")
    print(f"wrote {len(expected)} entries to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
