"""The traced benchmark looks the functions it wraps up by name, so a rename
in the package would break `perfbench/run.py --trace 1` without failing any
other test. This runs the benchmark's tracer, unmodified, over one input of
each kind in a fresh interpreter and checks what it records."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import importlib
import json
import sys
from pathlib import Path

root = Path.cwd()
sys.path.insert(0, str(root / "perfbench"))
import tracing

tracer = tracing.Tracer()
targets = []
wrap = tracer.wrap


def recording_wrap(module, attr, name, extra=None):
    wrap(module, attr, name, extra)
    targets.append((module.__name__, attr, name))


tracer.wrap = recording_wrap
tracing.install(tracer)

import p3dist
from p3dist import cli, distribution, foliation, logarithmic

unwrapped = [
    [module, attr] for module, attr, _ in targets
    if not hasattr(getattr(importlib.import_module(module), attr), "__wrapped__")
]

corpus = json.loads((root / "src/p3dist/data/corpus.json").read_text(encoding="utf-8"))
docs = [
    {"kind": "oneform", "coeffs": corpus["oneforms"]["example1"]["coeffs"]},
    {"kind": "vfield", "components": corpus["vfields"]["line_plus_points"]["components"]},
    {"kind": "logtype", "polys": corpus["logtypes"]["quadric_pencil"]["polys"],
     "lambdas": corpus["logtypes"]["quadric_pencil"]["weights"]},
]
omega, field, logtype = (cli.parse_input(json.dumps(doc)) for doc in docs)
distribution.classify(omega)
foliation.analyze(field)
logarithmic.audit_log_form(logtype)
p3dist.compute_tF(cli.parse_input(json.dumps(
    {"kind": "oneform", "coeffs": corpus["oneforms"]["nullcorrelation"]["coeffs"]}
)))

print(json.dumps({
    "targets": targets,
    "unwrapped": unwrapped,
    "spans": sorted({span[0] for span in tracer.spans}),
    "saturate_extras": [span[5] for span in tracer.spans if span[0] == "groebner.saturate"],
}))
"""


def _traced_run():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_wraps_every_target_and_sizes_each_saturation():
    run = _traced_run()
    assert run["targets"], "the tracer wrapped nothing"
    assert run["unwrapped"] == []
    # one input of each kind passes every layer boundary but these: the gcd
    # runs only for a singular scheme that contains a surface, and
    # compute_tF reads h0 at every twist from one Hilbert numerator instead
    # of calling h0_tangent_twist; example1's section (t_F = 1 <= d) comes
    # from minimal_section, the null-correlation form's (t_F = d + 1) from
    # the Koszul field, with no minimal_section call
    expected = {name for _, _, name in run["targets"]} - {
        "distribution.common_factor", "groebner.intersect", "linalg.h0_twist",
    }
    assert expected <= set(run["spans"])
    assert run["saturate_extras"]
    for extra in run["saturate_extras"]:
        assert set(extra) == {"sat_basis_len", "sat_coeff_bits"}
        assert extra["sat_basis_len"] >= 1
        assert extra["sat_coeff_bits"] >= 1
