"""Every name of `src/bordx` has a reader, and every read of another
module's private name is listed.

An AST pass starts from `cli.main` and from every bordx name that
`perfbench/*.py` reads, and follows the names each definition refers to: a
bare name resolves to its own module's definition or to what the module
imports under it, and `module.name` to that module's name.  A definition is
a top-level function, class or constant, or a member of a class: a method
or property other than a dunder.  A class's own node holds its bases, its
decorators and its dunders; a member is reached when its class is reached
and a reached definition reads its name as an attribute (`x.member`), or a
`perfbench/` file does, its span table included.  An attribute of a module,
a bordx one or one bound by `import` (`functools.reduce`), reads no member.  Every function, class,
member and constant (but `__all__` and `__version__`) the pass does not
reach must be in KEEP with its reason, written "module.name" or
"module.Class.member"; a KEEP entry that the roots or the other entries
reach anyway, or that is no longer defined, fails as well, so KEEP lists
exactly what is kept for a reader outside the program.

A member is reached by its name alone, so a member name that two reached
classes define is reached on both once either is read; each such name is in
SHARED_MEMBERS with the classes that define it and its reason.  A second
pass lists every read of another module's private name, and a third checks
that the coded monomials of the triangular backend stay inside `cohomring`.
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
    "cohomring.normal_form": "public ring API: the checked triangular normal form",
    "cohomring.graded_rank": "public ring API: the rank of a graded piece",
    "tower._Checked._make": "the namedtuple hook `_replace` calls, by no attribute read",
}

# names every module may define without a reader
EXEMPT = {"__all__", "__version__"}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _private(name):
    return name.startswith("_") and not _dunder(name)


def _members(stmt):
    """The methods and properties of a class statement, dunders left out."""
    return [item for item in stmt.body
            if isinstance(item, ast.FunctionDef) and not _dunder(item.name)]


def _nodes(stmt, skip=()):
    """ast.walk over stmt, without entering the nodes in `skip`."""
    todo = [stmt]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(child for child in ast.iter_child_nodes(node) if child not in skip)


class Package:
    """The definitions of `package_dir` and the names each reads."""

    def __init__(self, package_dir):
        self.defined = {}  # (module, name) or (module, class, member) -> the statement
        self.imported = {}  # (module, name) -> (module, name) it is bound to
        self.modules = {}  # (module, alias) -> module
        self.foreign = set()  # (module, name) bound by `import name`
        self._reads = {}
        for path in sorted(package_dir.glob("*.py")):
            module = path.stem
            for stmt in _parse(path).body:
                self._read(module, stmt)
        self.members = {node for node in self.defined if len(node) == 3}

    def _read(self, module, stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            self.defined[module, stmt.name] = stmt
            if isinstance(stmt, ast.ClassDef):
                for item in _members(stmt):
                    self.defined[module, stmt.name, item.name] = item
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
        elif isinstance(stmt, ast.Import):
            self.foreign.update((module, alias.asname or alias.name) for alias in stmt.names)

    def needs_reader(self):
        """Every definition but the exempt constants."""
        return {node for node in self.defined if node[-1] not in EXEMPT}

    def resolve(self, module, name):
        """The definition `module.name` stands for, following imports, or None."""
        while (module, name) not in self.defined:
            if (module, name) not in self.imported:
                return None
            module, name = self.imported[module, name]
        return module, name

    def reads(self, node):
        """(the top-level definitions the statement of `node` refers to, the
        attribute names it reads); a class's members are left to their own
        nodes."""
        if node not in self._reads:
            self._reads[node] = self._find_reads(node)
        return self._reads[node]

    def _find_reads(self, node):
        module = node[0]
        stmt = self.defined[node]
        skip = set(_members(stmt)) if isinstance(stmt, ast.ClassDef) else ()
        body = list(_nodes(stmt, skip))
        local = {a.arg for a in body if isinstance(a, ast.arg)} | {
            n.id for n in body if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
        out, attrs = set(), set()
        for n in body:
            if isinstance(n, ast.Name) and n.id not in local:
                out.add(self.resolve(module, n.id))
            elif isinstance(n, ast.Attribute):
                owner = (module, n.value.id) if isinstance(n.value, ast.Name) else None
                if owner in self.modules:
                    out.add(self.resolve(self.modules[owner], n.attr))
                elif owner not in self.foreign:  # `functools.reduce` reads no member
                    attrs.add(n.attr)
        out.discard(None)
        out.discard(node)
        return out, attrs

    def reach(self, roots, attrs=frozenset()):
        """The definitions reached from `roots`, a member once its class is
        reached and its name is among `attrs` or the attributes a reached
        definition reads."""
        seen, names = set(), set(attrs)
        todo = [node for node in roots if node in self.defined]
        while todo:
            while todo:
                node = todo.pop()
                if node not in seen:
                    seen.add(node)
                    out, read = self.reads(node)
                    todo.extend(out - seen)
                    names |= read
            todo = [member for member in self.members - seen
                    if member[:2] in seen and member[2] in names]
        return seen


def perfbench_roots(package):
    """(the bordx definitions `perfbench/*.py` reads, the attribute names it
    reads): `module.name` with the module imported from bordx, and the
    (owner, "name") pairs of its span table, a module's name a definition
    and a class's name an attribute."""
    roots, attrs = set(), set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path)
        modules = {"bordx": "__init__"}
        foreign = set()
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "bordx":
                modules.update({a.asname or a.name: a.name for a in stmt.names})
            elif isinstance(stmt, ast.Import):
                foreign.update(a.asname or a.name for a in stmt.names)
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                owner = n.value.id if isinstance(n.value, ast.Name) else None
                if owner in modules:
                    roots.add(package.resolve(modules[owner], n.attr))
                elif owner not in foreign:
                    attrs.add(n.attr)
            if isinstance(n, ast.Tuple):
                for owner, attr in zip(n.elts, n.elts[1:]):
                    if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                        if isinstance(owner, ast.Name) and owner.id in modules:
                            roots.add(package.resolve(modules[owner.id], attr.value))
                        elif isinstance(owner, ast.Attribute):
                            attrs.add(attr.value)
    roots.discard(None)
    return roots, attrs


def _key(node):
    return ".".join(node)


def _node(key):
    return tuple(key.split("."))


def census(package, keep):
    """(unreached definitions, KEEP entries not defined, KEEP entries reached
    without themselves), each a sorted list of "module.name" or
    "module.Class.member"."""
    roots, attrs = perfbench_roots(package)
    roots.add(("cli", "main"))
    kept = {_node(key) for key in keep}
    reached = package.reach(roots | kept, attrs)
    unreached = package.needs_reader() - reached
    missing = {node for node in kept if node not in package.defined}
    redundant = {node for node in kept - missing
                 if node in package.reach(roots | (kept - {node}), attrs)}
    return [sorted(map(_key, group)) for group in (unreached, missing, redundant)]


@pytest.fixture(scope="module")
def package():
    return Package(SRC)


def _copy_src(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")


def _append(tmp_path, module, text):
    with open(tmp_path / f"{module}.py", "a", encoding="utf-8") as out:
        out.write(text)


def test_every_name_has_a_reader(package):
    unreached, missing, redundant = census(package, KEEP)
    assert unreached == [], "read by no command, benchmark or KEEP entry"
    assert missing == [], "KEEP names a definition that is gone"
    assert redundant == [], "KEEP names a definition that is reached anyway"


def test_cli_main_and_the_benchmark_are_roots(package):
    roots, attrs = perfbench_roots(package)
    assert {("tower", "total_chern"), ("tower", "ring_backend_pair"),
            ("exactalg", "KERNEL_BACKEND"), ("bordclass", "ChernVector")} <= roots
    # the span table's (exactalg.GradedPoly, "mul") and (bordclass.ChernVector, "pair")
    assert {"mul", "pair"} <= attrs
    assert ("cli", "main") in package.defined


def test_members_and_constants_are_counted(package):
    needs = package.needs_reader()
    assert {("cohomring", "PresentedRing", "_monomial_walk"), ("exactalg", "GradedPoly", "mul"),
            ("tower", "TowerSpec", "dim"), ("cli", "RANKS_MAX_DIM"),
            ("exactalg", "KERNEL_BACKEND")} <= needs
    assert ("exactalg", "GradedPoly", "__init__") not in package.defined
    assert not {node for node in needs if node[-1] in EXEMPT}


@pytest.mark.parametrize("entry,unreached", [
    ("tower._Checked._make", ["tower._Checked._make"]),
    ("cohomring.graded_rank", ["cohomring.graded_rank"]),
    # `reduce` and `decode` under it have no other reader
    ("cohomring.normal_form", ["cohomring.PresentedRing.decode",
                               "cohomring.PresentedRing.reduce", "cohomring.normal_form"]),
])
def test_a_dropped_keep_entry_is_found(package, entry, unreached):
    keep = dict(KEEP)
    del keep[entry]
    assert census(package, keep) == [unreached, [], []]


def test_an_attribute_of_a_module_reads_no_member(tmp_path):
    (tmp_path / "m.py").write_text(
        "import functools\n\n\nclass A:\n    def reduce(self):\n        return 0\n\n\n"
        "def main():\n    return A(), functools.reduce(max, [1])\n\n\n"
        "def other(a):\n    return a.reduce()\n", encoding="utf-8")
    package = Package(tmp_path)
    assert package.reach({("m", "main")}) == {("m", "main"), ("m", "A")}
    assert ("m", "A", "reduce") in package.reach({("m", "main"), ("m", "other")})


def test_an_unread_function_is_found(tmp_path):
    _copy_src(tmp_path)
    _append(tmp_path, "tower", "\n\ndef unread_helper(spec):\n    return presented_ring(spec)\n")
    assert census(Package(tmp_path), KEEP) == [["tower.unread_helper"], [], []]


def _plant_member(tmp_path, module, anchor, text):
    """A copy of src with `text` put before the line `anchor` of `module`."""
    _copy_src(tmp_path)
    path = tmp_path / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    assert anchor in source
    path.write_text(source.replace(anchor, text + anchor), encoding="utf-8")


CERTIFICATE_TO_JSON = "    def to_json(self) -> dict:\n"


def test_an_unread_method_is_found(tmp_path):
    _plant_member(tmp_path, "genfactory", CERTIFICATE_TO_JSON,
                  "    def unread_check(self, name):\n        return self.su_checks[name]\n\n")
    assert census(Package(tmp_path), KEEP) == [
        ["genfactory.GeneratorCertificate.unread_check"], [], []]


def test_a_method_read_only_by_an_unread_method_is_found(tmp_path):
    _plant_member(tmp_path, "genfactory", CERTIFICATE_TO_JSON,
                  "    def first(self):\n        return self.second()\n\n"
                  "    def second(self):\n        return self.first()\n\n")
    assert census(Package(tmp_path), KEEP) == [
        ["genfactory.GeneratorCertificate.first", "genfactory.GeneratorCertificate.second"],
        [], []]


def test_an_unread_constant_is_found(tmp_path):
    _copy_src(tmp_path)
    _append(tmp_path, "cli", "\n\n# an alias no command reads\nUNREAD_MAX = RANKS_MAX_DIM\n")
    assert census(Package(tmp_path), KEEP) == [["cli.UNREAD_MAX"], [], []]


def test_a_keep_entry_reached_anyway_or_gone_is_found(package):
    keep = {**KEEP, "tower.presented_ring": "reached from cli.main",
            "exactalg.GradedPoly.mul": "read by the span table",
            "tower.no_such_name": "gone", "genfactory.GeneratorCertificate.row": "gone"}
    assert census(package, keep) == [
        [], ["genfactory.GeneratorCertificate.row", "tower.no_such_name"],
        ["exactalg.GradedPoly.mul", "tower.presented_ring"]]


# every member name that two or more reached classes define, as "name:
# the classes", with its reason: a read of the name reaches it on each, so
# each must have a reader of its own
SHARED_MEMBERS = {
    "is_zero: bordclass.ChernVector exactalg.GradedPoly":
        "ChernVector's is read by `in_W`, `in_ker_boundary` and the lemma rows of `cli`; "
        "GradedPoly's by `PresentedRing`, which drops a zero relation",
    "scale: bordclass.ChernVector exactalg.GradedPoly":
        "ChernVector's is read by its `__mul__`, `twisted_mul` and `genfactory`; "
        "GradedPoly's by its `__mul__`, the rewrite rules and `tower`'s line classes",
}


def shared_members(package):
    """"name: module.Class ..." for each member name that two or more classes
    reached from the roots and KEEP define, sorted."""
    roots, attrs = perfbench_roots(package)
    reached = package.reach(roots | {("cli", "main")} | set(map(_node, KEEP)), attrs)
    owners = {}
    for module, cls, name in package.members:
        if (module, cls) in reached:
            owners.setdefault(name, []).append(f"{module}.{cls}")
    return sorted(f"{name}: {' '.join(sorted(classes))}"
                  for name, classes in owners.items() if len(classes) > 1)


def test_every_shared_member_name_is_listed(package):
    assert shared_members(package) == sorted(SHARED_MEMBERS)


@pytest.mark.parametrize("module, anchor, member, shared", [
    # `_lattice_model` reads `rel.degree()` of a GradedPoly
    ("bordclass", "    def is_zero(self) -> bool:\n",
     "    def degree(self) -> int:\n        return 2 * self.dim\n\n",
     "degree: bordclass.ChernVector exactalg.GradedPoly"),
    # a third class that defines a name already listed
    ("genfactory", CERTIFICATE_TO_JSON,
     "    def is_zero(self):\n        return not self.s_value\n\n",
     "is_zero: bordclass.ChernVector exactalg.GradedPoly genfactory.GeneratorCertificate"),
])
def test_a_new_shared_member_name_is_found(tmp_path, module, anchor, member, shared):
    # the census alone counts the planted member, which nothing calls, as read
    _plant_member(tmp_path, module, anchor, member)
    package = Package(tmp_path)
    assert census(package, KEEP) == [[], [], []]
    got = shared_members(package)
    assert shared in got and got != sorted(SHARED_MEMBERS)


# every read in src/bordx of another module's private name, with its reason
PRIVATE_READS = {
    "cohomring: bordclass._walk":
        "the partition walk `line_bundle_numbers` shares with `_projective_dual`",
    "cohomring: bordclass.ChernVector._of_values":
        "the walk's values, in basis order, become a class unchecked",
    "cohomring: exactalg._accumulate":
        "the in-place sparse sum of the coded normal forms",
    "cohomring: exactalg.GradedPoly._trusted":
        "a normal form built from checked terms is not checked again",
    "cli: bordclass._partition_key":
        "the one spelling of a partition in the rows of `chern`",
    "genfactory: bordclass._partition_key":
        "the one spelling of a partition in a certificate's labels",
    "genfactory: tower._sign":
        "the orientation sign of an export, which the closed forms take",
}


def private_reads(package_dir):
    """"module: owner.name" for each private name of another module of
    `package_dir` that a module reads: imported by name, read off a module
    (`tower._sign`), off a class (`ChernVector._of_values`), or off any
    other value when no class or top-level name of the module itself has it
    (`ring._coded` in a module that defines no `_coded`)."""
    package = Package(package_dir)
    owners = {}  # private name -> the definitions of that name
    for node in package.defined:
        if _private(node[-1]):
            owners.setdefault(node[-1], set()).add(node)
    found = set()
    for path in sorted(package_dir.glob("*.py")):
        module = path.stem
        for n in ast.walk(_parse(path)):
            if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module:
                found.update((module, (n.module, a.name)) for a in n.names if _private(a.name))
            elif isinstance(n, ast.Attribute) and _private(n.attr):
                value = n.value.id if isinstance(n.value, ast.Name) else None
                if (module, value) in package.modules:
                    found.add((module, (package.modules[module, value], n.attr)))
                    continue
                cls = package.resolve(module, value) if value else None
                if cls and isinstance(package.defined[cls], ast.ClassDef):
                    found.add((module, (*cls, n.attr)))
                    continue
                defining = owners.get(n.attr, set())
                if not any(node[0] == module for node in defining):
                    found.update((module, node) for node in defining)
    return sorted(f"{module}: {_key(node)}" for module, node in found if node[0] != module)


def test_every_private_read_across_modules_is_listed():
    assert private_reads(SRC) == sorted(PRIVATE_READS)


def test_a_new_private_read_is_found(tmp_path):
    _copy_src(tmp_path)
    _append(tmp_path, "tower", "\n\ndef leak(rows):\n    return exactalg._reduced(rows, {}, 0)\n")
    _append(tmp_path, "numbers", "\n\nfrom .exactalg import _combine\n")
    _append(tmp_path, "genfactory", "\n\ndef peek(spec):\n"
                                    "    return tower.presented_ring(spec)._lattice_model(0)\n")
    assert private_reads(tmp_path) == sorted({
        *PRIVATE_READS, "tower: exactalg._reduced", "numbers: exactalg._combine",
        "genfactory: cohomring.PresentedRing._lattice_model"})


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
    _copy_src(tmp_path)
    _append(tmp_path, "tower", "\n\ndef leak(spec, x):\n    ring = presented_ring(spec)\n"
                               "    return ring._mul_reduce(ring._coded(x), {0: 1})\n")
    _append(tmp_path, "genfactory", '\n\nMEMO = "_nf_memo"\n')
    assert coded_readers(tmp_path) == ["genfactory._nf_memo", "tower._coded", "tower._mul_reduce"]
