"""The package namespace holds only what the tests and the benchmark call."""
import inspect
import re
from pathlib import Path

import socmarket as sm

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_is_referenced():
    # a name only its own unit test would call belongs in its submodule
    used = set()
    for folder in ("tests", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            used.update(re.findall(r"\bsm\.(\w+)", path.read_text()))
    exported = {name for name, value in vars(sm).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(exported - used) == []
