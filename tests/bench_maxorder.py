"""Paper-degree timing record: `distribution.classify` and `find-subfoliation`
on the maximal-order forms of tests/maxorder.py, each form in a fresh process.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tests/bench_maxorder.py --seed 1 --dmax 7

The package analysed is the one first on PYTHONPATH. Prints one JSON line
per form, every row of the table at d = 3..dmax: the row, d, t_F, the
seconds `classify` took scaled to the reference CPU speed of
perfbench/run.py (by `reference_time` of perfbench/worker.py, timed just
before and just after), and the sha256 of the report document; then the
same two for the `find-subfoliation` document of a fresh parse of the form,
which shares nothing computed with the classified one.
"""

import argparse
import hashlib
import json
import os
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
    parser.add_argument("--dmax", type=int, required=True)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        return classify_one()

    from maxorder import ROWS, oneform

    from p3dist.grammar import format_poly

    for row in ROWS:
        for d in range(3, args.dmax + 1):
            coeffs = [format_poly(p) for p in oneform(row, d, args.seed).one_form_coeffs()]
            out = subprocess.run(
                [sys.executable, __file__, "--seed", str(args.seed), "--dmax", str(args.dmax), "--one"],
                input=json.dumps({"kind": "oneform", "coeffs": coeffs}),
                capture_output=True, text=True, check=True,
            ).stdout
            print(json.dumps({"row": row, "d": d, **json.loads(out)}), flush=True)


if __name__ == "__main__":
    main()
