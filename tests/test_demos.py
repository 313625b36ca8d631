"""Every narrative script under demos/ runs to completion against the
package in src/ and prints exactly the text it printed when its digest
below was recorded.  A demo's output is deterministic, so any change to
a printed table, verdict or count shows up here; a deliberate change to
a demo or to what it prints needs its digest recorded anew."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_hilbert_and_resolutions":
        "f2d938c3bb6c325b6c1e677e7000d1ae8feed98c235a26bf646b2454949323f4",
    "02_duality_walkthrough":
        "9721408af02e13d4d9a7defb0b13a1c71ba9877db255660ffd665ff7e64ba1a3",
    "03_oracle_vs_duality":
        "f68730a298ce8e887f631f676d6d4d64b30abd2aead47039e37431b38e4446af",
    "04_grid_and_asymptotics":
        "ae9e01e1e4a87f2a22d27093a683d5e58ee257117c7d29751cfeaff93575d867",
}


def test_every_demo_has_a_digest():
    assert sorted(STDOUT_SHA256) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.stem], result.stdout[-2000:]
