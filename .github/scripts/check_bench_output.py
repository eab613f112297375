"""Check the stdout of one `perfbench/run.py --seed 101` run.

Usage, from the repository root:

    python3 perfbench/run.py --workload link_heavy --seed 101 --seconds 1 --trace 0 > bench.out
    python3 .github/scripts/check_bench_output.py link_heavy bench.out

`run.py` exits 0 even when an output check fails, so this script fails unless
the last line is JSON with "correct": true and "failed": 0, and the printed
sha256 of `eg.nt` and `integration_report.json` equal the workload's row in
the seed-101 digest table of `perfbench/README.md`.
"""

import json
import re
import sys
from pathlib import Path


def main(workload: str, out_path: str) -> int:
    lines = Path(out_path).read_text(encoding="utf-8").splitlines()
    problems = []
    summary = json.loads(lines[-1])
    if summary.get("correct") is not True or summary.get("failed") != 0:
        problems.append(f"correct={summary.get('correct')} failed={summary.get('failed')}")
    printed = dict(
        line.split()[1:3] for line in lines if line.startswith("sha256 ")
    )
    readme = Path("perfbench/README.md").read_text(encoding="utf-8")
    row = re.search(
        rf"^\| {re.escape(workload)} \| `([0-9a-f]{{64}})` \| `([0-9a-f]{{64}})` \|$",
        readme,
        re.MULTILINE,
    )
    if row is None:
        problems.append(f"no digest row for {workload} in perfbench/README.md")
    else:
        for name, expected in (("eg.nt", row[1]), ("integration_report.json", row[2])):
            if printed.get(name) != expected:
                problems.append(f"sha256 {name} {printed.get(name)}, expected {expected}")
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
