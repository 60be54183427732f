"""Span tracer for the per-layer metrics.

Public functions are wrapped where they are looked up: in the namespace of
each calling module (for example `distribution.saturate` and
`foliation.saturate`), so a call from one layer into the next opens a span.
Spans are kept in memory as [name, start, end, parent, input, extra] and
handed back to the benchmark when the pass ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from math import comb
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.input_index = None

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.input_index, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, module, attr, name, extra=None):
        """Replace module.attr by a wrapper recording spans named `name`.

        `extra(args, result)` may return a dict of counts for the span.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extra is not None:
                span[5] = extra(args, result)
            return result

        setattr(module, attr, wrapper)


def _dim(d):
    return comb(d + 3, 3) if d >= 0 else 0


def _matrix_entries(args, result):
    """rows x cols of the contraction matrix built for (omega, dprime)."""
    omega, dprime = args[0], args[1]
    if dprime < 0:
        return {"matrix_entries": 0}
    dega = max(p.homogeneous_degree() for p in omega.one_form_coeffs() if not p.is_zero())
    return {"matrix_entries": _dim(dprime + dega) * 4 * _dim(dprime)}


def _sat_size(args, result):
    bits = 0
    for g in result.gens:
        for c in g.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {"sat_basis_len": len(result.gens), "sat_coeff_bits": bits}


def install(tracer):
    """Wrap the layer boundaries of the p3dist package."""
    import p3dist
    from p3dist import cli, distribution, foliation, groebner, linalg, logarithmic

    boundaries = [
        (cli, "parse_input", "cli.parse"),
        (distribution, "validate_oneform", "distribution.validate"),
        (distribution, "common_factor", "distribution.common_factor"),
        (distribution, "is_integrable", "exterior.integrable"),
        (foliation, "sing_scheme_v", "foliation.sing_scheme"),
        (logarithmic, "build_log_form", "logarithmic.build"),
        (distribution, "intersect", "groebner.intersect"),
        (groebner, "intersect", "groebner.intersect"),
        # every route into Buchberger (buchberger, intersect, the variable
        # saturations, reduced ideals) goes through this one function
        (groebner, "_buchberger_terms", "groebner.buchberger"),
        (distribution, "hilbert", "hilbert.hilbert"),
        (foliation, "hilbert", "hilbert.hilbert"),
        (distribution, "compute_tF", "linalg.compute_tF"),
        (p3dist, "compute_tF", "linalg.compute_tF"),
    ]
    for module, attr, name in boundaries:
        tracer.wrap(module, attr, name)
    for module in (distribution, foliation):
        tracer.wrap(module, "saturate", "groebner.saturate", _sat_size)
    tracer.wrap(linalg, "h0_tangent_twist", "linalg.h0_twist", _matrix_entries)
    tracer.wrap(linalg, "minimal_section", "linalg.minimal_section", _matrix_entries)


# per-layer metrics: (metric, span name, what is summed, unit)
LAYER_METRICS = (
    ("groebner.saturate_s", "groebner.saturate", "time", "s"),
    ("groebner.saturate_calls", "groebner.saturate", "calls", "count"),
    ("groebner.intersect_s", "groebner.intersect", "time", "s"),
    ("groebner.intersect_calls", "groebner.intersect", "calls", "count"),
    ("groebner.buchberger_s", "groebner.buchberger", "time", "s"),
    ("groebner.buchberger_calls", "groebner.buchberger", "calls", "count"),
    ("groebner.sat_basis_len", "groebner.saturate", "sat_basis_len", "count"),
    ("groebner.sat_coeff_bits", "groebner.saturate", "sat_coeff_bits", "bits"),
    ("distribution.common_factor_s", "distribution.common_factor", "time", "s"),
    ("distribution.common_factor_calls", "distribution.common_factor", "calls", "count"),
    ("distribution.validate_s", "distribution.validate", "time", "s"),
    ("distribution.validate_calls", "distribution.validate", "calls", "count"),
    ("hilbert.hilbert_s", "hilbert.hilbert", "time", "s"),
    ("hilbert.hilbert_calls", "hilbert.hilbert", "calls", "count"),
    ("linalg.compute_tF_s", "linalg.compute_tF", "time", "s"),
    ("linalg.h0_twist_s", "linalg.h0_twist", "time", "s"),
    ("linalg.h0_twist_calls", "linalg.h0_twist", "calls", "count"),
    ("linalg.minimal_section_s", "linalg.minimal_section", "time", "s"),
    ("linalg.matrix_entries", None, "matrix_entries", "count"),
    ("exterior.integrable_s", "exterior.integrable", "time", "s"),
    ("foliation.sing_scheme_s", "foliation.sing_scheme", "time", "s"),
    ("logarithmic.build_s", "logarithmic.build", "time", "s"),
    ("cli.parse_s", "cli.parse", "time", "s"),
    ("cli.report_s", "cli.report", "time", "s"),
)


def span_totals(spans, scale):
    """Per span name: calls, time in outermost spans, self time, extras.

    Durations are multiplied by scale[input], the factor that brings the
    input's time to reference CPU speed.  A span nested in one of the same
    name adds to calls but not to time; self time is a span's duration
    minus the durations of its children.
    """
    totals = {}
    duration = [(end - start) * scale[index] for _, start, end, _, index, _ in spans]
    child_time = [0.0] * len(spans)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[idx]
    for idx, (name, _, _, parent, _, extra) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0})
        t["calls"] += 1
        t["self"] += duration[idx] - child_time[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            t["time"] += duration[idx]
        for key, value in (extra or {}).items():
            t[key] = t.get(key, 0) + value
    return totals


def layer_metrics(totals):
    out = {}
    for metric, name, field, unit in LAYER_METRICS:
        if name is None:
            value = sum(t.get(field, 0) for t in totals.values())
        else:
            value = totals.get(name, {}).get(field, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
