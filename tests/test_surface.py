"""The public surface holds no orphaned names."""

import ast
from pathlib import Path

import spquad as sq
from spquad import errors

SRC = Path(sq.__file__).resolve().parent


def test_every_public_name_resolves():
    missing = [name for name in sq.__all__ if not hasattr(sq, name)]
    assert not missing


def _raised_names() -> set[str]:
    """Names the library raises, or hands to a raising helper as a keyword
    argument (``self.fail(..., cls=BadExponent)``)."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            elif isinstance(node, ast.keyword):
                exc = node.value
            else:
                continue
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_leaf_error_is_raised_by_the_library():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.SpquadError)]
    leaves = {c.__name__ for c in classes if not c.__subclasses__()}
    assert leaves - _raised_names() == set()
