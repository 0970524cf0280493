import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kerovlab"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check of the package may use one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_unused_module_level_imports():
    # a deletion can leave an import behind: every name a module imports at
    # top level must be used in it (__init__ re-exports, so it is exempt)
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_every_exported_name_resolves():
    import kerovlab

    assert [name for name in kerovlab.__all__ if not hasattr(kerovlab, name)] == []


# kept with no caller in src/, each for the reason given
UNCALLED_ON_PURPOSE = {
    "conjugate": "acceptance criterion 11 checks the conjugation sign rule with it",
    "c_values": "the tests' independent check on the C rows of SUBSTITUTIONS",
    "q_values": "the tests' independent check on the Q rows of SUBSTITUTIONS",
    "SymFunc.constant": "constructor beside gen; the tests build constants with it",
    "SymFunc.zero": "constructor beside gen; the tests build zeros with it",
    "solve_exact": "perfbench/layers.py times it, until ROADMAP item 2",
    "solve_bareiss": "perfbench/layers.py times it, until ROADMAP item 2",
}


def _names_and_attributes(nodes):
    names, attrs = set(), set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _unreached(kept):
    """Module-level functions and classes and public methods of the package
    that module-level code and `kept` do not reach.  A function or class is
    reached when reached code names it, a method when reached code reads it
    as an attribute, so what only unreached code uses is unreached too."""
    units, names, attrs = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports are not uses
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                units[node.name] = _names_and_attributes([node])
            elif isinstance(node, ast.ClassDef):
                public = [m for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
                for m in public:
                    units[f"{node.name}.{m.name}"] = _names_and_attributes([m])
                rest = [n for n in node.body if n not in public] + node.bases + node.decorator_list
                units[node.name] = _names_and_attributes(rest)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                n, a = _names_and_attributes([node])
                names |= n
                attrs |= a

    def reached(unit):
        return unit.rpartition(".")[2] in attrs if "." in unit else unit in names | attrs

    live = set(kept) | set(filter(reached, units))
    while live:
        for unit in live:
            n, a = units.pop(unit)
            names |= n
            attrs |= a
        live = set(filter(reached, units))
    return sorted(units)


def test_every_definition_is_reached():
    # a deletion can leave code that nothing runs; keeping such code needs an
    # entry in UNCALLED_ON_PURPOSE, and an entry that gains a caller leaves it
    assert _unreached(UNCALLED_ON_PURPOSE) == []
    for name in UNCALLED_ON_PURPOSE:
        assert name in _unreached(set(UNCALLED_ON_PURPOSE) - {name}), name
