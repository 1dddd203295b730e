import ast
import inspect
from pathlib import Path

import oddspan
from oddspan import errors


def _raised_names() -> set[str]:
    """Names raised anywhere in the package, as ``raise X`` or ``raise X(...)``."""
    names = set()
    for path in Path(oddspan.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_has_a_raise_site():
    classes = [
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.OddSpanError) and cls is not errors.OddSpanError
    ]
    assert classes
    assert sorted(set(classes) - _raised_names()) == []
