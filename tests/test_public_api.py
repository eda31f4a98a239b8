"""Every public function the package exports, and every test oracle, is named in a test, every
private module-level name in the package and every module-level import in the package and
its tests is used, every complex exponential sits in effchan, and every cross-reference in
the package's docstrings names an object that exists."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import oddmsim
import oracles

HERE = Path(__file__)


def test_every_exported_function_is_named_in_a_test():
    # the package's exports and the test oracles alike: an oracle that no test module names
    # is left over from a deletion
    text = "\n".join(path.read_text() for path in HERE.parent.glob("test_*.py")
                     if path != HERE)
    functions = [name for module in (oddmsim, oracles) for name, obj in vars(module).items()
                 if not name.startswith("_") and inspect.isfunction(obj)]
    assert {"estimate_channel", "brute_force_effective_matrix"} <= set(functions)
    assert [name for name in functions if not re.search(rf"\b{name}\b", text)] == []


def test_every_private_module_name_is_referenced():
    # a module-level private function, class or constant that nothing in the package
    # names outside its own definition is dead code
    texts = {path: path.read_text() for path in Path(oddmsim.__file__).parent.glob("*.py")}
    unreferenced = []
    for path, text in texts.items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            others = ["".join(lines[:node.lineno - 1] + lines[node.end_lineno:])]
            others += [other for other_path, other in texts.items() if other_path != path]
            unreferenced += [f"{path.name}: {name}" for name in names
                             if name.startswith("_") and not name.endswith("__")
                             and not any(re.search(rf"\b{name}\b", t) for t in others)]
    assert unreferenced == []


def test_every_module_level_import_is_used():
    # a name a submodule or a test module imports at module level and never reads is left over
    # from an edit; the package's __init__ imports only to re-export, so it is not checked
    unused = []
    package = Path(oddmsim.__file__)
    for path in [*package.parent.glob("*.py"), *HERE.parent.glob("*.py")]:
        if path == package:
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unused == []


def test_every_complex_exponential_is_owned_by_effchan():
    # a Doppler or DFT phase comes from effchan's integer-reduced twiddles; an np.exp of an
    # imaginary argument elsewhere is a second definition of it, off by up to 1.7e-13 unreduced
    found = []
    for path in sorted(Path(oddmsim.__file__).parent.glob("*.py")):
        if path.name == "effchan.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.exp"
                        and any(isinstance(leaf, ast.Constant) and isinstance(leaf.value, complex)
                                for arg in node.args for leaf in ast.walk(arg))):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _resolves(owner, dotted: str) -> bool:
    for name in dotted.split("."):
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


def test_docstring_cross_references_resolve():
    # a reference is looked up in its own module first, then in the package, so a stale
    # one (a deleted or renamed object) fails here instead of misleading a reader
    role = re.compile(r":(?:func|class|data|meth|attr):`([\w.]+)`")
    refs, unresolved = 0, []
    for path in sorted(Path(oddmsim.__file__).parent.glob("*.py")):
        module = importlib.import_module("oddmsim" if path.stem == "__init__"
                                         else f"oddmsim.{path.stem}")
        for ref in role.findall(path.read_text()):
            refs += 1
            if not (_resolves(module, ref) or _resolves(oddmsim, ref)):
                unresolved.append(f"{path.name}: {ref}")
    assert refs > 0 and unresolved == []
