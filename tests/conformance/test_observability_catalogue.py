"""docs/OBSERVABILITY.md's metric catalogue names exactly the metrics the
source registers.

The source is read, not run: every ``.counter("name")``, ``.gauge(...)``
and ``.histogram(...)`` call with a literal name, plus every per-owner
declaration ``OwnerCounters(owner, registry, "prefix", {"name": help})``
(or the same call to, or ``super().__init__`` of, a subclass written in
the same module), which registers ``prefix.name``.  A name built at run
time could not be checked, so the scan refuses one outside the
registry's own module.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "repro"
CATALOGUE = ROOT / "docs" / "OBSERVABILITY.md"
#: the registry itself, which builds a declared count's full name
REGISTRY_MODULE = SOURCE / "obs" / "metrics.py"
INSTRUMENTS = ("counter", "gauge", "histogram")


def _literal(node):
    return node.value if (isinstance(node, ast.Constant)
                          and isinstance(node.value, str)) else None


def _owner_classes(tree):
    """Names that declare counts when called: ``OwnerCounters`` and its
    subclasses in this module that keep its ``__init__``; and the set of
    subclasses whose own ``__init__`` declares through ``super()``."""
    called, through_super = {"OwnerCounters"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "OwnerCounters"
                for base in node.bases):
            own_init = any(isinstance(item, ast.FunctionDef)
                           and item.name == "__init__" for item in node.body)
            (through_super if own_init else called).add(node.name)
    return called, through_super


def _is_declaration(call, owner_classes, enclosing_class):
    called, through_super = owner_classes
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in called
    return (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and enclosing_class in through_super)


def _calls_by_class(tree):
    """(call, name of the class it is written in) for every call."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else cls
            if isinstance(child, ast.Call):
                yield child, cls
            yield from visit(child, inner)
    yield from visit(tree, None)


def registered_names():
    names, unreadable = set(), []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = _owner_classes(tree)
        for call, cls in _calls_by_class(tree):
            where = f"{path.relative_to(ROOT)}:{call.lineno}"
            if (isinstance(call.func, ast.Attribute)
                    and call.func.attr in INSTRUMENTS and call.args):
                name = _literal(call.args[0])
                if name is not None:
                    names.add(name)
                elif path != REGISTRY_MODULE:
                    unreadable.append(where)
            elif _is_declaration(call, owners, cls):
                args = call.args
                prefix = _literal(args[2]) if len(args) >= 4 else None
                keys = (args[3].keys if len(args) >= 4
                        and isinstance(args[3], ast.Dict) else [None])
                if prefix is None or any(_literal(k) is None for k in keys):
                    if path != REGISTRY_MODULE:
                        unreadable.append(where)
                    continue
                names.update(f"{prefix}.{_literal(k)}" for k in keys)
    return names, unreadable


def catalogued_names():
    text = CATALOGUE.read_text(encoding="utf-8")
    table = text.split("### Catalogue", 1)[1].split("\n\n", 2)[1]
    names = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    return names


def test_every_registration_is_readable_by_the_scan():
    _, unreadable = registered_names()
    assert unreadable == []


def test_the_scan_sees_both_kinds_of_registration():
    names, _ = registered_names()
    assert "server.requests" in names          # registry.counter(...)
    assert "server.diffs_applied" in names     # OwnerCounters(...)
    assert "client.twins_created" in names     # an OwnerCounters subclass
    assert "transport.bytes_sent" in names


def test_every_registered_metric_is_catalogued():
    names, _ = registered_names()
    assert sorted(names - catalogued_names()) == []


def test_every_catalogued_metric_is_registered():
    names, _ = registered_names()
    assert sorted(catalogued_names() - names) == []
