"""Pin: the fleet, serve and CLI entry points import without scipy or
networkx.

Both load only inside their few users (the KS drift test, the quantile
LP, lineage graphs, Peregrine's dependency report, stage graphs), none
of which a fleet, serve or checkpoint path calls.  Importing them at
module level cost ~1 s per process start and tens of thousands of
objects every full garbage collection walks.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["repro.fabric", "repro.serve", "repro.cli"])
def test_entry_point_imports_without_scipy_or_networkx(module):
    code = (
        f"import sys, {module}\n"
        "print(sorted({name.split('.')[0] for name in sys.modules}"
        " & {'scipy', 'networkx'}))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "[]"
