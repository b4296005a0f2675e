"""Four rules on how `src/gelid` is laid out.

`src/gelid` holds only what a `gelid` command runs. Starting from every
definition in `gelid.cli`, the walk follows the names each reached
definition loads, and `module.name` attributes on the gelid modules it
imports, to the top-level functions, classes and constants they name. A
class is reached with all of its methods. Whatever the walk does not
reach is run by tests alone and belongs with them; names that
`gelid/__init__.py` exports are exempt.

Only `errors.py` turns bytes into text lines: every other module reads a
text file through `errors.read_text` or decodes through `errors.utf8_text`,
so one rule decides the encoding, the byte-order mark, the line ends and
the line numbers of every input. Only `errors.py` writes a file or makes a
directory: every other module writes through `errors.write_file`, so every
output is made, and fails, alike.

Only `errors.py` opens or reads a file, and names where an input is
wrong: every other module reads bytes through `errors.read_bytes`, or a
window at a time through `errors.read_windows`, which close the file
however the read ends, and raises with a line at most, and the code that
reads a file names it with `errors.naming`, so no handler that catches a
DataError or ParseError raises a new one to spell `<path>:<line>: ` its
own way.
"""

import ast
from pathlib import Path

import gelid

PACKAGE = Path(gelid.__file__).resolve().parent


def _defined(node) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [
            node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def _modules() -> dict[str, dict]:
    """Per module: its top-level definitions, the names it imports from
    gelid modules, and the gelid modules it imports by name."""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs, names, aliases = {}, {}, {}
        for node in tree.body:
            for name in _defined(node):
                defs[name] = node
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:  # from . import mod
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module,
                                                             alias.name)
        modules[path.stem] = {"defs": defs, "names": names,
                              "aliases": aliases}
    return modules


def unreached() -> list[str]:
    """`module.name` of each top-level definition no command reaches."""
    modules = _modules()
    todo = [("cli", name) for name in modules["cli"]["defs"]]
    reached = set(todo)
    while todo:
        module, name = todo.pop()
        info = modules[module]
        for node in ast.walk(info["defs"][name]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = ((module, node.id) if node.id in info["defs"]
                          else info["names"].get(node.id))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in info["aliases"]):
                target = (info["aliases"][node.value.id], node.attr)
            else:
                continue
            if (target is not None and target not in reached
                    and target[1] in modules[target[0]]["defs"]):
                reached.add(target)
                todo.append(target)
    return sorted(f"{module}.{name}" for module, info in modules.items()
                  if module != "__init__" for name in info["defs"]
                  if (module, name) not in reached)


def test_every_src_definition_is_reached_from_the_cli():
    missing = unreached()
    assert not missing, f"no gelid command reaches {', '.join(missing)}"


# methods that decode bytes, or split or read lines, by a rule of their
# own (`errors.read_text` aside), and the names that open a file as text
_METHODS = {"decode", "splitlines", "read_text", "StringIO", "open"}
_NAMES = {"open", "StringIO"}
# methods that write a file or make a directory (`errors.write_file` aside)
_WRITERS = {"write_text", "write_bytes", "mkdir"}


def _nodes_outside_errors():
    """(module, node) of every AST node outside `errors.py`."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "errors":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            yield from ((path.stem, node) for node in ast.walk(tree))


def calls_outside_errors(methods, names=frozenset()) -> list[str]:
    """`module:line: name(` of each call of one of these methods, not on
    `errors`, or of one of these names, outside `errors.py`."""
    found = []
    for module, node in _nodes_outside_errors():
        func = getattr(node, "func", None)
        if (isinstance(func, ast.Attribute) and func.attr in methods
                and getattr(func.value, "id", None) != "errors"):
            found.append((module, node.lineno, func.attr))
        elif isinstance(func, ast.Name) and func.id in names:
            found.append((module, node.lineno, func.id))
    return [f"{module}:{line}: {name}(" for module, line, name in
            sorted(found)]


def test_only_errors_decodes_bytes_or_splits_lines():
    calls = calls_outside_errors(_METHODS, _NAMES)
    assert not calls, ("read text through errors.read_text or "
                       f"errors.utf8_text, not {', '.join(calls)}")


def test_only_errors_writes_files():
    calls = calls_outside_errors(_WRITERS)
    assert not calls, ("write through errors.write_file, not "
                       f"{', '.join(calls)}")


# the errors of an input, which `errors.naming` names
_INPUT_ERRORS = {"DataError", "ParseError"}


def _names(node) -> set[str]:
    """The names and attribute names within `node`."""
    return {getattr(n, "id", None) or getattr(n, "attr", None)
            for n in ast.walk(node)} - {None}


def reraises_outside_errors() -> list[str]:
    """`module:line: except` of each handler outside `errors.py` that
    catches a DataError or ParseError and raises a new one."""
    return [f"{module}:{node.lineno}: except"
            for module, node in _nodes_outside_errors()
            if isinstance(node, ast.ExceptHandler) and node.type
            and _names(node.type) & _INPUT_ERRORS
            and any(isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                    and _names(n.exc.func) & _INPUT_ERRORS
                    for n in ast.walk(node))]


# methods that read a file's bytes (`errors.read_bytes` and
# `errors.read_windows` aside)
_READERS = {"read_bytes", "read", "readinto"}


def test_only_errors_reads_bytes_or_names_where_an_input_is_wrong():
    found = reraises_outside_errors() + calls_outside_errors(_READERS)
    assert not found, ("read through errors.read_bytes or "
                       "errors.read_windows and name the file with "
                       f"errors.naming, not {', '.join(found)}")
