"""The benchmark under `perfbench/` calls and counts cmiplab functions by name.

Its traced run wraps every public function and dataclass check of each
module, and `Tracer.count` raises for a name that no longer exists, so a
rename or deletion in `src/` would otherwise surface only in a traced
benchmark run.  The child also runs a logged 70 000-pulse session through
the CLI, whose log the tracer must measure in full, and it writes the
paper_figures set-up's concentrated-pair state file and loads it back.  The tracer rebinds module
attributes for good, so the check runs in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
from pathlib import Path
import numpy as np
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
import workloads
workloads.warm_up(Path("."))
from cmiplab import cli
pulses, log_bytes = tracer.pulses, tracer.log_bytes
rc = cli.main(["qkd", "--theta", "1/2pi", "--pulses", "70000",
               "--log", "log.csv", "--out", "s.json"])
session = {"rc": rc, "pulses": tracer.pulses - pulses,
           "log_bytes": tracer.log_bytes - log_bytes,
           "log_size": Path("log.csv").stat().st_size}
workloads.write_concentrated_pair(Path("pair.json"), 1.1, 0.3)
from cmiplab.qcore import state_from_json
pair = state_from_json(Path("pair.json").read_text(encoding="utf-8"))
print(json.dumps({"metrics": sorted(tracer.layer_metrics(1, [], 0)),
                  "pair_labels": [lab for lab, _ in pair.basis],
                  "pair_norm": float(np.linalg.norm(pair.amps)), "session": session}))
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
    out = json.loads(res.stdout)
    assert out["metrics"] == want
    # paper_figures saves the concentrated pair with state_to_json, so
    # apply_cmip_signal(...).phi1 must stay a two-qubit StateVector
    assert out["pair_labels"] == ["signal_pol", "idler_pol"]
    assert abs(out["pair_norm"] - 1.0) < 1e-12
    # the tracer counts the pulse log through what pulse_log_csv returns, so
    # a streamed log in two chunks must still add up to the file's size
    session = out["session"]
    assert session["rc"] == 0 and session["pulses"] == 70_000
    assert session["log_bytes"] == session["log_size"] > 0
