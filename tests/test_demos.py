"""The quick demos run to completion against the library as it is.

Each demo runs in its own interpreter with `src` first on PYTHONPATH, so a
renamed or deleted public name fails here rather than in a reader's hands.
`classifier_comparison.py` is left out: its NCA fit alone takes about 20 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ["recycled_screening.py", "tuned_svm.py", "used_region_map.py",
               "wear_trajectory.py", "window_statistics.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_quick_demo_exits_zero(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
