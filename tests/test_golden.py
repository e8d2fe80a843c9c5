"""The package's outputs match the committed golden records byte for
byte: every record of tests/golden/golden.json is recomputed by the
generator next to it and compared (see its docstring for the
regeneration rule)."""

import importlib.util
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _generator():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN_DIR / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_records_unchanged():
    gen = _generator()
    committed = gen.GOLDEN.read_text(encoding="utf-8")
    numpy_at_generation = json.loads(committed)["header"]["numpy"]
    fresh = gen.records()
    stored = json.loads(committed)["records"]
    assert list(fresh) == list(stored), "the set of golden keys changed"
    changed = [key for key in stored if json.loads(json.dumps(fresh[key])) != stored[key]]
    assert not changed, (
        f"{len(changed)} of {len(stored)} records changed "
        f"(generated with numpy {numpy_at_generation}); first: {changed[:3]}"
    )
    assert gen.render(fresh) == committed
