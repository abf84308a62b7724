"""Module boundaries of the chainops package."""

import ast
from pathlib import Path

import chainops

SRC = Path(chainops.__file__).resolve().parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _foreign_private_reads(path):
    """(line, module, name) for each _ name of another chainops module that
    the module at path imports or reads as an attribute."""
    tree = ast.parse(path.read_text(), str(path))
    own = path.stem
    modules = {}        # local name -> the chainops module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("chainops")):
            source = (node.module or "").split(".")[-1]
            package = source in ("", "chainops")
            for alias in node.names:
                if package and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                elif source != own and _private(alias.name):
                    found.append((node.lineno, source, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name.split(".")
                if name[0] == "chainops" and alias.asname and len(name) == 2:
                    modules[alias.asname] = name[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and modules.get(node.value.id, own) != own):
            found.append((node.lineno, modules[node.value.id], node.attr))
    return found, modules


def test_no_module_reads_another_modules_private_names():
    # a module's _ names are its own: no other chainops module imports one
    # or reads one through the module (dunders such as __wrapped__ are not
    # private)
    found, bound = {}, 0
    for path in sorted(SRC.glob("*.py")):
        reads, modules = _foreign_private_reads(path)
        bound += len(modules)
        if reads:
            found[path.name] = reads
    assert bound, "no module import seen"
    assert found == {}


def test_private_reads_are_found(tmp_path):
    # the scan sees each form a read of another module's _ name takes
    path = tmp_path / "operads.py"
    path.write_text("from . import boxprod, delta as d\n"
                    "from .boxprod import _phi_table, apply_tuple\n"
                    "import chainops.intmat as im\n"
                    "boxprod._f_record(1, (1,))\n"
                    "d.fibers.__wrapped__\n"
                    "im._store\n"
                    "self._own\n")
    found, _ = _foreign_private_reads(path)
    assert sorted(found) == [(2, "boxprod", "_phi_table"),
                             (4, "boxprod", "_f_record"),
                             (6, "intmat", "_store")]
