"""Dead-code and import-graph guards: every public top-level function and
class of the package is used by the package itself or by the benchmark, not
only by tests; every import sits at module level; and the package's modules
import each other without a cycle."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rislab"
BENCHMARK = ROOT / "perfbench"

# public on purpose although only tests call them
ALLOWED = {
    "theorem1_harness": "Theorem 1's executable check, run by acceptance criterion c03",
    "evar_literal": "the exact EVaR that criterion c09 compares the surrogate against",
}


def referenced_names(tree) -> set:
    """Names a syntax tree refers to: identifiers, attributes and
    identifier-like strings (the benchmark's tracer looks functions up by
    name). Importing a name does not count as referring to it."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def unused_imports(package: Path) -> list:
    """`module:name` of each name a package module imports and never refers to."""
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{bound}")
    return unused


def unreferenced_public_definitions(package: Path, benchmark: Path) -> list:
    """`module:name` of each public top-level def or class that nothing in the
    package outside its own body, and nothing in the benchmark outside its
    tests, refers to."""
    used_by_benchmark = set()
    for path in sorted(benchmark.rglob("*.py")):
        if "tests" not in path.relative_to(benchmark).parts:
            used_by_benchmark |= referenced_names(ast.parse(path.read_text()))
    # one entry per top-level statement of the package
    statements = [(path.name, node, referenced_names(node))
                  for path in sorted(package.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    unused = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if node.name in used_by_benchmark or any(
                node.name in refs for _, other, refs in statements if other is not node):
            continue
        unused.append(f"{module}:{node.name}")
    return unused


def nested_imports(package: Path) -> list:
    """`module:line` of each import statement inside a function or class body."""
    nested = set()
    for path in sorted(package.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested |= {f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted(nested)


def import_graph(package: Path) -> dict:
    """Module -> the set of package modules it imports, in any of the forms
    `from .m import x`, `from . import m`, `from <package>.m import x`,
    `from <package> import m` and `import <package>.m`."""
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for path in sorted(package.glob("*.py")):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                top, _, rest = (node.module or "").partition(".")
                if node.level:
                    rest = node.module or ""
                elif top != package.name:
                    continue
                head = rest.split(".")[0]
                targets |= {head} if head else {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                targets |= {alias.name.split(".")[1] for alias in node.names
                            if alias.name.startswith(package.name + ".")}
        graph[path.stem] = (targets & modules) - {path.stem}
    return graph


def modules_on_import_cycles(graph: dict) -> list:
    """What is left after repeatedly removing the modules that import no
    remaining module: empty exactly when the graph has no cycle."""
    left = dict(graph)
    while leaves := [m for m, deps in left.items() if not deps & left.keys()]:
        for m in leaves:
            del left[m]
    return sorted(left)


def test_every_public_definition_is_used_outside_tests():
    unused = unreferenced_public_definitions(PACKAGE, BENCHMARK)
    flagged = [u for u in unused if u.split(":")[1] not in ALLOWED]
    assert flagged == [], f"only tests reach {flagged}; delete them or use them"
    # the allowlist carries no stale entries
    assert sorted(u.split(":")[1] for u in unused) == sorted(ALLOWED)


def test_every_import_is_used():
    unused = unused_imports(PACKAGE)
    assert unused == [], f"imported but never used: {unused}"


def test_imports_sit_at_module_level_and_form_no_cycle():
    assert nested_imports(PACKAGE) == [], "imports inside a function or class body"
    graph = import_graph(PACKAGE)
    # a graph with no edges would pass the cycle check without looking
    assert graph["cli"] >= {"environment", "oracle", "training"}
    assert modules_on_import_cycles(graph) == [], f"import cycle among {graph}"
