"""No unused code in the package.

Every module-level function in `src/slotforge/*.py` must be referenced by
name, as an `ast.Name` or an `ast.Attribute`, somewhere in `src/`, and every
non-dunder method as an `ast.Attribute` (`x.name`); every field of a
dataclass there must be read as an attribute (`x.field` in a load context)
somewhere in `src/`; every attribute a class stores as `self.name` must be
read as `self.name` in that class; and every name a module binds by import
must be read in that module (`__init__.py` reads the names in its `__all__`).
The scans match names only, so a reference to a same-named attribute
elsewhere (`np.clip`) counts; they find code that nothing can reach, not
every such piece. The tensor core gets a stricter scan: each of its
module-level functions must be reached as `T.<name>` from another module,
imported from `.tensor` by name, or named inside `tensor.py` itself. Every
option string of the command line must appear as a string constant in some
test module, so an option that no test passes is found. numpy's error state
is set by a block, not by an op: `np.errstate` is named only in the tensor
core's `_block` and in `cli.main`, and no name for a per-op silencer (`quiet`,
`silenced`, `silent`) is defined or reached anywhere in the package.
"""

import ast
import re
from pathlib import Path

from slotforge.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "slotforge"
TESTS = Path(__file__).resolve().parent

# name -> why it stays without a caller in src/
ALLOWED_UNREFERENCED = {
    "assignment_flip_rate": "pinned by test_pipeline, not yet logged by a run",
    "names": "ParamGroup.names; test_params pins it, no module in src/ calls it",
}

# Class.field -> why it stays though nothing in src/ reads it
ALLOWED_UNREAD_FIELDS = {
    "RolloutResult.steps": "the benchmark's rollout check reads it",
}

# Class.attribute -> why it stays though the class never reads it as self.attribute
ALLOWED_UNREAD_SELF = {
    "Tensor.grad": "backward and the optimizer read it as p.grad and t.grad",
    "World.layout_id": "generate_episode reads it as world.layout_id",
}


def scan() -> tuple[dict[str, str], set[str]]:
    """(definition name -> where, every name that reaches a definition of it)
    over the package. A module-level function is reached by its bare name or
    as an attribute; a method only as an attribute, `x.name`."""
    functions: dict[str, str] = {}
    methods: dict[str, str] = {}
    names: set[str] = set()
    attributes: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        methods[item.name] = f"{path.name}:{item.lineno} ({node.name})"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return methods | functions, attributes | (names & functions.keys())


def scan_tensor() -> tuple[dict[str, str], set[str]]:
    """(tensor.py function -> where, every name the package reaches it by)."""
    defined: dict[str, str] = {}
    reached: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "tensor.py":
            defined = {node.name: f"tensor.py:{node.lineno}" for node in tree.body
                       if isinstance(node, ast.FunctionDef)}
            reached.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "T"):
                reached.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor":
                reached.update(alias.name for alias in node.names)
    return defined, reached


def scan_imports() -> dict[str, str]:
    """(module:name -> where) for every name a package module binds by import
    and never reads."""
    unread: dict[str, str] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                read.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread[f"{path.name}:{name}"] = f"{path.name}:{node.lineno}"
    return unread


def scan_errstate() -> set[str]:
    """Every `module:function` of the package that names `errstate`, by the
    module-level function or class around it (`<module>` outside both)."""
    where: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if any(isinstance(node, ast.Attribute) and node.attr == "errstate"
                   or isinstance(node, ast.Name) and node.id == "errstate"
                   or isinstance(node, ast.alias) and node.name == "errstate"
                   for node in ast.walk(top)):
                where.add(f"{path.name}:{getattr(top, 'name', '<module>')}")
    return where


SILENCER = re.compile("quiet|silen", re.IGNORECASE)


def scan_silencers() -> dict[str, str]:
    """(name -> where) for every name the package defines, binds or reaches
    that reads like a per-op silencer."""
    found: dict[str, str] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for field in ("id", "attr", "arg", "name"):
                name = getattr(node, field, None)
                if isinstance(name, str) and SILENCER.search(name):
                    found.setdefault(name, f"{path.name}:{node.lineno}")
    return found


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def scan_fields() -> tuple[dict[str, str], set[str]]:
    """(Class.field -> where, every attribute name read) over the package."""
    fields: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields[f"{node.name}.{item.target.id}"] = f"{path.name}:{item.lineno}"
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return fields, read


def scan_self() -> tuple[dict[str, str], set[str]]:
    """(Class.attribute -> where the class first stores it as `self.attribute`,
    every Class.attribute the class reads as `self.attribute`) over the package."""
    stored: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    name = f"{cls.name}.{node.attr}"
                    if isinstance(node.ctx, ast.Store):
                        stored.setdefault(name, f"{path.name}:{node.lineno}")
                    else:
                        read.add(name)
    return stored, read


def test_every_function_and_method_is_referenced():
    defined, referenced = scan()
    unused = {name: where for name, where in defined.items()
              if name not in referenced and name not in ALLOWED_UNREFERENCED}
    assert unused == {}


def test_every_tensor_function_is_reached_from_the_package():
    defined, reached = scan_tensor()
    assert {name: where for name, where in defined.items() if name not in reached} == {}


def test_every_allowed_name_is_defined_and_still_unreferenced():
    defined, referenced = scan()
    assert sorted(set(ALLOWED_UNREFERENCED) - set(defined)) == []
    assert sorted(set(ALLOWED_UNREFERENCED) & referenced) == []


def test_every_imported_name_is_read_where_it_is_imported():
    assert scan_imports() == {}


def test_every_dataclass_field_is_read():
    fields, read = scan_fields()
    unread = {name: where for name, where in fields.items()
              if name.split(".")[1] not in read and name not in ALLOWED_UNREAD_FIELDS}
    assert unread == {}


def test_every_allowed_field_is_defined_and_still_unread():
    fields, read = scan_fields()
    assert sorted(set(ALLOWED_UNREAD_FIELDS) - set(fields)) == []
    assert sorted(name for name in ALLOWED_UNREAD_FIELDS if name.split(".")[1] in read) == []


def test_every_attribute_a_class_stores_it_reads():
    stored, read = scan_self()
    unread = {name: where for name, where in stored.items()
              if name not in read and name not in ALLOWED_UNREAD_SELF}
    assert unread == {}


def test_every_allowed_attribute_is_stored_and_still_unread():
    stored, read = scan_self()
    assert sorted(set(ALLOWED_UNREAD_SELF) - set(stored)) == []
    assert sorted(set(ALLOWED_UNREAD_SELF) & read) == []


def test_only_a_block_and_the_cli_enter_numpy_errstate():
    assert scan_errstate() == {"tensor.py:_block", "cli.py:main"}


def test_no_per_op_silencer_is_defined_or_reached():
    assert scan_silencers() == {}


def cli_option_strings() -> set[str]:
    """Every option string a `slotforge` command defines, -h/--help aside."""
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    return {option for sub in commands.values() for action in sub._actions
            if action.dest != "help" for option in action.option_strings}


def test_every_cli_option_is_named_by_a_test():
    named = {node.value for path in sorted(TESTS.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(cli_option_strings() - named) == []
