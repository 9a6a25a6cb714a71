"""Every top-level function and class of `src/bordx` has a reader.

An AST pass starts from `cli.main` and from every bordx name that
`perfbench/*.py` reads, and follows the names each top-level definition
refers to: a bare name resolves to its own module's definition or to what
the module imports under it, and `module.name` to that module's name.  A
class counts as one definition with its methods.  Every function or class
the pass does not reach must be in KEEP with its reason; a KEEP entry that
the roots or the other entries reach anyway, or that is no longer defined,
fails as well, so KEEP lists exactly what is kept for a reader outside the
program.  A second pass checks that the coded monomials of the triangular
backend stay inside `cohomring`.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bordx"
PERFBENCH = ROOT / "perfbench"

KEEP = {
    "bordclass.todd": "ROADMAP item 2: the Todd genus, a route the item builds on",
    "tower.char_matrix_from_json": "ROADMAP item 5: the characteristic-matrix input",
    "tower.char_matrix": "ROADMAP item 5: the characteristic matrix of a named family",
    "tower.su_check": "ROADMAP item 5: the SU criterion on a characteristic matrix",
    "genfactory.y2_class": "paper example: the generator y_2 = 2K of Omega^SU_4",
    "genfactory.s6_class": "paper example: the 6-sphere",
    "genfactory.grassmann_s4": "paper example: s_4 of the twisted Grassmannian",
    "cohomring.normal_form": "public ring API: the checked triangular normal form",
    "cohomring.graded_rank": "public ring API: the rank of a graded piece",
}

def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


class Package:
    """The top-level definitions of `package_dir` and the names each reads."""

    def __init__(self, package_dir):
        self.defined = {}  # (module, name) -> the statement
        self.imported = {}  # (module, name) -> (module, name) it is bound to
        self.modules = {}  # (module, alias) -> module
        self._reads = {}
        for path in sorted(package_dir.glob("*.py")):
            module = path.stem
            for stmt in _parse(path).body:
                self._read(module, stmt)

    def _read(self, module, stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            self.defined[module, stmt.name] = stmt
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        self.defined[module, name.id] = stmt
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                bound = alias.asname or alias.name
                if stmt.module is None:
                    self.modules[module, bound] = alias.name
                else:
                    self.imported[module, bound] = (stmt.module, alias.name)

    def functions_and_classes(self):
        return {node for node, stmt in self.defined.items() if not isinstance(stmt, ast.Assign)}

    def resolve(self, module, name):
        """The definition `module.name` stands for, following imports, or None."""
        while (module, name) not in self.defined:
            if (module, name) not in self.imported:
                return None
            module, name = self.imported[module, name]
        return module, name

    def reads(self, node):
        """The definitions the statement of `node` refers to."""
        if node not in self._reads:
            self._reads[node] = self._find_reads(node)
        return self._reads[node]

    def _find_reads(self, node):
        module, _ = node
        stmt = self.defined[node]
        local = {a.arg for a in ast.walk(stmt) if isinstance(a, ast.arg)} | {
            n.id for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
        out = set()
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and n.id not in local:
                out.add(self.resolve(module, n.id))
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and (module, n.value.id) in self.modules):
                out.add(self.resolve(self.modules[module, n.value.id], n.attr))
        out.discard(None)
        out.discard(node)
        return out

    def reach(self, roots):
        seen = set()
        todo = [node for node in roots if node in self.defined]
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(self.reads(node) - seen)
        return seen


def perfbench_roots(package):
    """The bordx definitions `perfbench/*.py` reads: `module.name`, with the
    module imported from bordx, and the (module, "name") pairs of its span
    table."""
    roots = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path)
        modules = {"bordx": "__init__"}
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "bordx":
                modules.update({a.asname or a.name: a.name for a in stmt.names})
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in modules):
                roots.add(package.resolve(modules[n.value.id], n.attr))
            if isinstance(n, ast.Tuple):
                for owner, attr in zip(n.elts, n.elts[1:]):
                    if (isinstance(owner, ast.Name) and owner.id in modules
                            and isinstance(attr, ast.Constant) and isinstance(attr.value, str)):
                        roots.add(package.resolve(modules[owner.id], attr.value))
    roots.discard(None)
    return roots


def _key(node):
    return ".".join(node)


def _node(key):
    return tuple(key.split("."))


def census(package, keep):
    """(unreached definitions, KEEP entries not defined, KEEP entries reached
    without themselves), each a sorted list of "module.name"."""
    roots = {("cli", "main")} | perfbench_roots(package)
    kept = {_node(key) for key in keep}
    reached = package.reach(roots | kept)
    unreached = package.functions_and_classes() - reached
    missing = {node for node in kept if node not in package.functions_and_classes()}
    redundant = {node for node in kept - missing
                 if node in package.reach(roots | (kept - {node}))}
    return [sorted(map(_key, group)) for group in (unreached, missing, redundant)]


@pytest.fixture(scope="module")
def package():
    return Package(SRC)


def test_every_function_and_class_has_a_reader(package):
    unreached, missing, redundant = census(package, KEEP)
    assert unreached == [], "read by no command, benchmark or KEEP entry"
    assert missing == [], "KEEP names a definition that is gone"
    assert redundant == [], "KEEP names a definition that is reached anyway"


def test_cli_main_and_the_benchmark_are_roots(package):
    roots = perfbench_roots(package)
    assert {("tower", "total_chern"), ("tower", "ring_backend_pair"),
            ("exactalg", "KERNEL_BACKEND"), ("bordclass", "ChernVector")} <= roots
    assert ("cli", "main") in package.defined


def test_a_dropped_keep_entry_is_found(package):
    keep = dict(KEEP)
    del keep["genfactory.s6_class"]
    assert census(package, keep) == [["genfactory.s6_class"], [], []]


def test_an_unread_function_is_found(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "tower.py", "a", encoding="utf-8") as out:
        out.write("\n\ndef unread_helper(spec):\n    return presented_ring(spec)\n")
    assert census(Package(tmp_path), KEEP) == [["tower.unread_helper"], [], []]


def test_a_keep_entry_reached_anyway_or_gone_is_found(package):
    keep = {**KEEP, "tower.presented_ring": "reached from cli.main",
            "tower.no_such_name": "gone"}
    assert census(package, keep) == [[], ["tower.no_such_name"], ["tower.presented_ring"]]


# the coded monomials of the triangular backend, which only cohomring reads
CODED = {"_coded", "_mul_reduce", "_reduce_codes", "_fundamental_coefficient", "_nf_memo"}


def coded_readers(package_dir):
    """The "module.name" of each coded-monomial name a module other than
    cohomring names: as a name, an attribute, an import or a string."""
    found = set()
    for path in package_dir.glob("*.py"):
        if path.stem != "cohomring":
            for n in ast.walk(_parse(path)):
                names = {getattr(n, field, None) for field in ("id", "attr", "name", "asname")}
                if isinstance(n, ast.Constant):
                    names.add(n.value)
                found.update(f"{path.stem}.{name}" for name in CODED.intersection(names))
    return sorted(found)


def test_the_coded_monomials_stay_inside_cohomring():
    assert coded_readers(SRC) == []


def test_a_coded_name_outside_cohomring_is_found(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "tower.py", "a", encoding="utf-8") as out:
        out.write("\n\ndef leak(spec):\n    ring = presented_ring(spec)\n"
                  "    return ring._mul_reduce(ring._coded(ring.one()), {0: 1})\n")
    with open(tmp_path / "genfactory.py", "a", encoding="utf-8") as out:
        out.write('\n\nMEMO = "_nf_memo"\n')
    assert coded_readers(tmp_path) == ["genfactory._nf_memo", "tower._coded", "tower._mul_reduce"]
