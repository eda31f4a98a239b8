"""Every public function the package exports is exercised by name in a test."""

import inspect
import re
from pathlib import Path

import oddmsim

HERE = Path(__file__)


def test_every_exported_function_is_named_in_a_test():
    text = "\n".join(path.read_text() for path in HERE.parent.glob("test_*.py")
                     if path != HERE)
    functions = [name for name, obj in vars(oddmsim).items()
                 if not name.startswith("_") and inspect.isfunction(obj)]
    assert "estimate_channel" in functions
    assert [name for name in functions if not re.search(rf"\b{name}\b", text)] == []
