"""Every example script must run to completion and produce its output."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

EXPECTATIONS = {
    "quickstart.py": ["JNIAssertionFailure", "CRASH"],
    "gnome_callback.py": [
        "dangling local reference used in CallStaticVoidMethodA",
        "entry_CallStaticVoidMethodA",
    ],
    "subversion_audit.py": ["overflow", "peak", "fixed Outputer under Jinn: running"],
    "python_refcount.py": ["garbage", "CHECKER", "leak"],
    "vendor_roulette.py": ["coverage over the 16 microbenchmarks", "9 of 16"],
    "custom_machine.py": [
        "12 machines",
        "still holding 1 monitor(s)",
    ],
    "debugger_session.py": [
        "Jinn failure snapshot",
        "mixed Java/C calling context",
        "[C] CallStaticVoidMethodA",
    ],
}


@pytest.mark.parametrize("script", sorted(EXPECTATIONS), ids=lambda s: s)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for needle in EXPECTATIONS[script]:
        assert needle in result.stdout, (script, needle)


def test_all_examples_have_expectations():
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    assert scripts == set(EXPECTATIONS)
