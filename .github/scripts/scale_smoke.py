"""Check that the peak memory of `itelos run` grows by at most 2.75 KiB per row,
and that its time grows about linearly, on the write path and on matching.

Usage, from the repository root (Linux only: the peak is read from
/proc/self/status):

    python3 .github/scripts/scale_smoke.py

Writes the bulk_append corpus (corpus seed 7) at 8000 and 32000 rows with
`perfbench/corpus.generate`, runs `itelos run` on each in a child process that
records its peak resident set (VmHWM) on exit, and fails when a run fails or
the peak grows by more than BOUND_KIB_PER_ROW per added row. Measuring the
growth between two sizes leaves out the interpreter's and the modules' fixed
memory, so the bound holds what each row costs: 1.95-2.22 KiB under CPython
3.10-3.13 on x86-64 Linux, where each entity keeps its literals as one tuple
of (property, value, source) triples.

It also times each child process and fails when the larger run takes more
than BOUND_TIME_RATIO times as long as the smaller one. Four times the rows
take about 3.5 times as long on a linear write path; a quadratic step would
take about 16 times. The merge_overlap corpus (same seed) at 1600 and 6400
rows is timed by the same bound: its keyed, reversed and keyless copies of
one set of hospitals put matching on the path, which compares each record
with at most one entity (about 3 times as long for 4 times the rows) where
comparing it with every entity of its town took 12 times as long.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "covid_trentino"
SIZES = {"bulk_append": (8000, 32000), "merge_overlap": (1600, 6400)}
SEED = 7
BOUND_KIB_PER_ROW = 2.75
BOUND_TIME_RATIO = 6
# `itelos.cli:main` in the child, which then writes its VmHWM (KiB) to the
# file named by its first argument.
CHILD = """
import sys
from itelos.cli import main
peak_file = sys.argv.pop(1)
try:
    code = main()
finally:
    with open("/proc/self/status") as status, open(peak_file, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""


def peak_kib_and_seconds(work: Path, size: int, workload: str = "bulk_append") -> tuple[int, float]:
    """Peak resident KiB and wall-clock seconds of one `itelos run` on the
    `workload` corpus of `size` rows."""
    corpus_dir = work / f"corpus_{workload}_{size}"
    corpus.generate(FIXTURE, workload, SEED, corpus_dir, size)
    peak_file = work / f"peak_{workload}_{size}"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = corpus.cli_args(corpus_dir, work / f"out_{workload}_{size}")
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(peak_file), *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    seconds = time.perf_counter() - start
    if result.returncode != 0:
        raise SystemExit(f"itelos run on {workload} at {size} rows exited {result.returncode}:\n{result.stderr}")
    return int(peak_file.read_text()), seconds


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {
            (workload, size): peak_kib_and_seconds(Path(tmp), size, workload)
            for workload, sizes in SIZES.items()
            for size in sizes
        }
    for (workload, size), (peak, seconds) in runs.items():
        print(f"{workload} {size} rows: peak {peak / 1024:.1f} MiB, {seconds:.2f} s")
    failed = 0
    for workload, (small, large) in SIZES.items():
        ratio = runs[workload, large][1] / runs[workload, small][1]
        print(f"{workload} time ratio {ratio:.2f} for {large // small} times the rows, bound {BOUND_TIME_RATIO}")
        if ratio > BOUND_TIME_RATIO:
            print(f"{workload} time grows by more than {BOUND_TIME_RATIO} times from {small} to {large} rows", file=sys.stderr)
            failed = 1
    (small, large) = SIZES["bulk_append"]
    slope = (runs["bulk_append", large][0] - runs["bulk_append", small][0]) / (large - small)
    print(f"bulk_append growth {slope:.2f} KiB/row, bound {BOUND_KIB_PER_ROW}")
    if slope > BOUND_KIB_PER_ROW:
        print(f"peak memory grows by more than {BOUND_KIB_PER_ROW} KiB per row", file=sys.stderr)
        failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
