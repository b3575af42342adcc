"""The benchmark under `perfbench/` calls and counts cmiplab functions by name.

Its traced run wraps every public function and dataclass check of each
module, and `Tracer.count` raises for a name that no longer exists, so a
rename or deletion in `src/` would otherwise surface only in a traced
benchmark run.  The tracer rebinds module attributes for good, so the
check runs in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
import workloads
workloads.warm_up(Path("."))
print(json.dumps(sorted(tracer.layer_metrics(1, [], 0))))
"""


def test_benchmark_names_exist(tmp_path):
    res = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "src"),
                          str(ROOT / "perfbench")],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert res.returncode == 0, res.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # the verify checks and the tracing overhead are filled in by the run itself
    want = sorted(m["name"] for m in spec["per_layer"]
                  if not m["name"].startswith(("verify.check.", "trace.")))
    assert json.loads(res.stdout) == want
