"""The benchmark's reports are pinned like the CLI's: one sha256 per
workload over every input at seeds 1 to 3, each report made by
`perfbench/worker.py`'s ops as a benchmark pass makes it. The inputs are
built by `perfbench/run.py` once a session (the `benchmark_inputs` fixture)
and the ops run in a fresh interpreter with the worker's hash seed. Nothing
under `perfbench/` is written."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "perfbench"))
import p3dist
import worker

inputs = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
digests = {}
for workload in sorted(inputs):
    h = hashlib.sha256()
    for seed in ("1", "2", "3"):
        for kind, doc in inputs[workload][seed]:
            try:
                out, err = worker.OPS[kind](json.dumps(doc), worker._NoTrace()), None
            except p3dist.P3DistError as exc:
                out, err = None, f"{type(exc).__name__}: {exc}"
            h.update(json.dumps([out, err]).encode())
    digests[workload] = h.hexdigest()
print(json.dumps(digests))
"""

# 120 reports per seed: 64 fields (vfields), 30 forms (sparse-forms), the 4
# corpus 1-forms and 18 log audits (dense-forms), 4 sections (sections)
BENCH_REPORT_SHA256 = {
    "dense-forms": "a236437b8d2836c5589098046c3ea086e136f2f827b511c5c6e55bac2779e2d3",
    "sections": "cba9f3364ceaa99eeb01930c27d4486f2ae0e7f10d10e4fe3bee8955372b7574",
    "sparse-forms": "694fa803c43f4846b7923529f23cd864532aced9f39bbd66bc017ab449cb3af9",
    "vfields": "39383277a71830faf62e765650d18e2b84efeb8e67bd1911d98f63ab3eb8e3e7",
}


def test_benchmark_reports_pinned(benchmark_inputs):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(benchmark_inputs)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == BENCH_REPORT_SHA256
