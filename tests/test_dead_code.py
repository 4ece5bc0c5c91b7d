"""No unused code in the package.

Every module-level function in `src/slotforge/*.py` must be referenced by
name, as an `ast.Name` or an `ast.Attribute`, somewhere in `src/`, and every
non-dunder method as an `ast.Attribute` (`x.name`); every field of a
dataclass there must be read as an attribute (`x.field` in a load context)
somewhere in `src/`.
The scans match names only, so a reference to a same-named attribute
elsewhere (`np.clip`) counts; they find code that nothing can reach, not
every such piece. The tensor core gets a stricter scan: each of its
module-level functions must be reached as `T.<name>` from another module,
imported from `.tensor` by name, or named inside `tensor.py` itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "slotforge"

# name -> why it stays without a caller in src/
ALLOWED_UNREFERENCED = {
    "assignment_flip_rate": "pinned by test_pipeline, not yet logged by a run",
    "names": "ParamGroup.names; test_params pins it, no module in src/ calls it",
}

# Class.field -> why it stays though nothing in src/ reads it
ALLOWED_UNREAD_FIELDS = {
    "RolloutResult.steps": "the benchmark's rollout check reads it",
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


def test_every_dataclass_field_is_read():
    fields, read = scan_fields()
    unread = {name: where for name, where in fields.items()
              if name.split(".")[1] not in read and name not in ALLOWED_UNREAD_FIELDS}
    assert unread == {}


def test_every_allowed_field_is_defined_and_still_unread():
    fields, read = scan_fields()
    assert sorted(set(ALLOWED_UNREAD_FIELDS) - set(fields)) == []
    assert sorted(name for name in ALLOWED_UNREAD_FIELDS if name.split(".")[1] in read) == []
