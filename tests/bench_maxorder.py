"""Paper-degree timing record: `distribution.classify` and `find-subfoliation`
on the maximal-order forms of tests/maxorder.py, each form in a fresh process.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tests/bench_maxorder.py --seed 1 --dmax 7
    PYTHONPATH=src python3 tests/bench_maxorder.py --seed 1 --dmin 9 --dmax 9 --rounds 3

The package analysed is the one first on PYTHONPATH. Prints one JSON line
per form, every row of the table at d = dmin..dmax (dmin 3 by default): the
row, d, t_F, the seconds `classify` took scaled to the reference CPU speed
of perfbench/run.py (by `reference_time` of perfbench/worker.py, timed just
before and just after), and the sha256 of the report document; then the
same two for the `find-subfoliation` document of a fresh parse of the form,
which shares nothing computed with the classified one. With --rounds N
each form is timed in N fresh processes, and each seconds field is their
median, with its min and max in `<field>_min` and `<field>_max`; a t_F or
digest that differs between rounds ends the script with exit code 1.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, "perfbench")]


def classify_one():
    """Classify the 1-form document on stdin, then find the subfoliation of
    a fresh parse of it; print t_F, and the scaled seconds and the digest
    of each document."""
    from run import REFERENCE_S
    from worker import reference_time

    from p3dist import cli, distribution

    text = sys.stdin.read()
    omega, fresh = cli.parse_input(text), cli.parse_input(text)
    references = [reference_time()]
    out = {}
    for key, run in (("", lambda: cli.dist_report_doc(distribution.classify(omega))),
                     ("subfoliation_", lambda: cli._subfoliation_doc(fresh))):
        start = time.perf_counter()
        doc = run()
        seconds = time.perf_counter() - start
        references.append(reference_time())
        out[key + "seconds"] = round(seconds * REFERENCE_S * 2 / sum(references[-2:]), 4)
        dumped = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
        out[key + "sha256"] = hashlib.sha256(dumped.encode()).hexdigest()
    print(json.dumps({"tF": doc["tF"], **out}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dmin", type=int, default=3)
    parser.add_argument("--dmax", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1, help="fresh processes per form")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        return classify_one()
    if args.dmin < 3 or args.rounds < 1:
        parser.error("--dmin must be at least 3 and --rounds at least 1")

    from maxorder import ROWS, oneform

    from p3dist.grammar import format_poly

    for row in ROWS:
        for d in range(args.dmin, args.dmax + 1):
            coeffs = [format_poly(p) for p in oneform(row, d, args.seed).one_form_coeffs()]
            runs = [json.loads(subprocess.run(
                [sys.executable, __file__, "--seed", str(args.seed), "--dmax", str(args.dmax), "--one"],
                input=json.dumps({"kind": "oneform", "coeffs": coeffs}),
                capture_output=True, text=True, check=True,
            ).stdout) for _ in range(args.rounds)]
            out = runs[0]
            if any(r["tF"] != out["tF"] or r["sha256"] != out["sha256"]
                   or r["subfoliation_sha256"] != out["subfoliation_sha256"] for r in runs):
                sys.exit(f"{row} at d = {d}: the reports differ between rounds")
            if args.rounds > 1:
                for key in ("seconds", "subfoliation_seconds"):
                    times = [r[key] for r in runs]
                    out[key] = round(statistics.median(times), 5)
                    out[key + "_min"], out[key + "_max"] = min(times), max(times)
            print(json.dumps({"row": row, "d": d, **out}), flush=True)


if __name__ == "__main__":
    main()
