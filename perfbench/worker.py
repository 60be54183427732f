"""One benchmark pass: a fresh single-threaded process that analyses every
input of a workload once and reports per-input wall times.

Usage: python3 worker.py <spawn time>   (a time.monotonic() value)

The parent passes the moment it started this process; the time from then to
`import p3dist` finishing is this pass's set-up time.  The request (trace
flag, input documents) is read from stdin as JSON, the result is written to
stdout as JSON.  A fixed reference computation is timed before the first
input and after each one, so the parent can scale every input's time by the
speed the CPU ran at around it.
"""

import sys
import time

import p3dist
from p3dist import cli, distribution, foliation, logarithmic

READY = time.monotonic()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from fractions import Fraction  # noqa: E402


def _dump(doc):
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)


def _analyze(text, tracer):
    omega = cli.parse_input(text)
    report = distribution.classify(omega)
    with tracer.span("cli.report"):
        return _dump(cli.dist_report_doc(report))


def _analyze_vf(text, tracer):
    v = cli.parse_input(text)
    report = foliation.analyze(v)
    with tracer.span("cli.report"):
        return _dump(cli.foliation_report_doc(report))


def _log_audit(text, tracer):
    lt = cli.parse_input(text)
    report = logarithmic.audit_log_form(lt)
    with tracer.span("cli.report"):
        return _dump(cli.log_audit_doc(report))


def _sections(text, tracer):
    omega = cli.parse_input(text)
    tF, section, sdim = p3dist.compute_tF(omega)
    with tracer.span("cli.report"):
        return _dump({
            "tF": tF,
            "h0_at_tF": sdim.h0,
            "section": [p3dist.format_poly(p) for p in section.components],
        })


OPS = {
    "oneform": _analyze,
    "vfield": _analyze_vf,
    "logtype": _log_audit,
    "sections": _sections,
}


class _NoTrace:
    input_index = None
    spans = ()

    def span(self, name):
        return nullcontext()


_A = {(i, 7 - i, j, 1): Fraction(i + 1, j + 2) for i in range(8) for j in range(6)}
_B = {(j, i, 1, 2): Fraction(j - 3, i + 1) for i in range(6) for j in range(5)}


def reference_time():
    """Seconds taken by a fixed computation of the same kind as the
    program's inner loops: a product of sparse polynomials with Fraction
    coefficients and exponent-tuple keys.  It measures how fast the CPU
    runs at this moment; garbage collection is held off so that the
    program's heap does not enter the figure."""
    gc.disable()
    try:
        start = time.perf_counter()
        out = {}
        for ma, ca in _A.items():
            for mb, cb in _B.items():
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2], ma[3] + mb[3])
                out[m] = out.get(m, 0) + ca * cb
        return time.perf_counter() - start
    finally:
        gc.enable()


def main():
    setup_s = READY - float(sys.argv[1])
    request = json.load(sys.stdin)
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        tracer = _NoTrace()
    times, outputs, errors = [], [], []
    ref_times = [reference_time()]
    for index, (op, text) in enumerate(request["inputs"]):
        tracer.input_index = index
        func = OPS[op]
        start = time.perf_counter()
        try:
            out = func(text, tracer)
            err = None
        except p3dist.P3DistError as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # a crash is a failed operation, not a lost pass
            out, err = None, f"uncaught {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        outputs.append(out)
        errors.append(err)
        ref_times.append(reference_time())
    json.dump({
        "setup_s": setup_s,
        "times": times,
        "ref_times": ref_times,
        "outputs": outputs,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": list(tracer.spans),
    }, sys.stdout)


if __name__ == "__main__":
    main()
