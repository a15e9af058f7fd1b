"""Small AST helpers shared by the checkers."""

from __future__ import annotations

import ast

#: Spellings of the numpy module accepted as a call root.
NUMPY_ALIASES = ("np", "numpy")


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def root_name(node: ast.AST) -> str | None:
    """Leftmost ``Name`` id of an attribute/subscript/call chain
    (``self`` for ``self._world.channels[k]``), else ``None``."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def chain_attrs(node: ast.AST) -> tuple[str, ...]:
    """All attribute segments of a chain, left to right (subscripts and
    calls are transparent): ``self._world.channels[k].put`` ->
    ``("_world", "channels", "put")``."""
    parts: list[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            node = node.func
    return tuple(reversed(parts))


def has_kwarg(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def is_numpy_call(call: ast.Call, names: set[str]) -> str | None:
    """If *call* is ``np.<fn>(...)``/``numpy.<fn>(...)`` with ``fn`` in
    *names*, return the dotted name, else ``None``."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    for alias in NUMPY_ALIASES:
        prefix = alias + "."
        if dotted.startswith(prefix) and dotted[len(prefix):] in names:
            return dotted
    return None


def decorator_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """Terminal names of each decorator (``hot_path`` for both
    ``@hot_path`` and ``@util.hotpath.hot_path``)."""
    names = []
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = dotted_name(target)
        if dotted:
            names.append(dotted.rsplit(".", 1)[-1])
    return names
