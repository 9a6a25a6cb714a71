"""The one dimension bound, `bordclass.CHERN_MAX_DIM`, and the tower rank bound.

`bordclass.check_dim` refuses a larger complex dimension where each
partition-indexed object starts: the basis (every vector, `cp` and the
genus tables), a product's split table, an operation's target and a tower's
ring; the family constructors and characteristic matrices check it too,
before they build a stage or a row.  `tower.presented_ring` refuses a tower
of cohomology rank above `tower.CHERN_MAX_RANK` next, for every caller of its
ring, through `tower._check_rank`, which `tower.char_matrix_from_json` calls
on the vertex count before it takes a vertex.  A refused call does no work first, and the operations run up to the
bound.
"""

import ast
import json
import pathlib
import random

import pytest

from bordx import bordclass as bc
from bordx import tower
from bordx.bordclass import ChernVector, cp, delta, psi
from bordx.exactalg import GradedPoly
from paper_examples_reference import s_polynomial

SRC = pathlib.Path(bc.__file__).parent
LARGEST = bc.CHERN_MAX_DIM


@pytest.fixture
def no_work(monkeypatch):
    """Every basis up to the bound built, then every way into more work closed."""
    for n in range(LARGEST + 1):
        bc._basis(n)

    def fail(*args, **kwargs):
        raise AssertionError("a refused dimension started work")

    monkeypatch.setattr(bc, "partitions", fail)
    monkeypatch.setattr(bc, "_walk", fail)
    monkeypatch.setattr(tower, "PresentedRing", fail)


def cpprod_above_bound():
    return tower.build_family("CPprod", (LARGEST + 1,))


REFUSED = {
    "ChernVector": lambda: ChernVector(LARGEST + 1),
    "ChernVector far above": lambda: ChernVector(200),
    "cp": lambda: cp(LARGEST + 1),
    "product": lambda: bc.product(cp(12), cp(13)),
    "psi_k1k2": lambda: bc.psi_k1k2(cp(1), 12, 12),
    "Todd row": lambda: bc._todd_row(LARGEST + 1),
    "Girard-Waring row": lambda: bc._girard_waring_row(LARGEST + 1),
    # the tests' s_polynomial reads the program's basis and Girard-Waring row
    "s_polynomial": lambda: s_polynomial(LARGEST + 1, [GradedPoly.generator((2,), 0)]),
    "tower chern_numbers": lambda: tower.chern_numbers(cpprod_above_bound()),
    "tower s_number": lambda: tower.s_number(cpprod_above_bound()),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_refused_before_any_work(no_work, call):
    with pytest.raises(ValueError, match=f"at most {LARGEST}"):
        call()


def test_families_refused_before_any_stage(monkeypatch):
    monkeypatch.setattr(tower, "Stage", _fail)
    for name, n1, n2 in [("L", 2, LARGEST - 1), ("Ltilde", 2, LARGEST - 1),
                         ("Ntilde", 2, LARGEST - 1)]:
        with pytest.raises(ValueError, match=f"at most {LARGEST}"):
            tower.build_family(name, n1, n2)


def test_char_matrices_refused_before_any_row(monkeypatch):
    monkeypatch.setattr(tower, "CharMatrix", _fail)
    for params in [("CPprod", (LARGEST + 1,)), ("L", 2, LARGEST - 1),
                   ("Ltilde", 2, LARGEST - 1), ("Ntilde", 2, LARGEST - 1)]:
        with pytest.raises(ValueError, match=f"at most {LARGEST}"):
            tower.char_matrix(*params)


def test_families_far_above_the_bound_are_refused_at_once():
    # a stage of 10^12 lines, or a 10^12-row matrix, would never finish
    for name, n2 in [("L", 10 ** 12), ("Ltilde", 10 ** 12 + 1), ("Ntilde", 10 ** 12 + 1)]:
        with pytest.raises(ValueError, match=f"at most {LARGEST}"):
            tower.build_family(name, 2, n2)
        with pytest.raises(ValueError, match=f"at most {LARGEST}"):
            tower.char_matrix(name, 2, n2)


def test_char_matrices_at_the_bound_are_built():
    # Ltilde has odd dimension n1 + n2, so its largest is one below the bound
    for params, dim in [(("CPprod", (LARGEST,)), LARGEST), (("L", 2, LARGEST - 2), LARGEST),
                        (("Ltilde", 2, LARGEST - 3), LARGEST - 1),
                        (("Ntilde", 2, LARGEST - 3), LARGEST)]:
        assert tower.char_matrix(*params).matrix.rows == dim


def _fail(*args, **kwargs):
    raise AssertionError("a refused family started work")


RANK = tower.CHERN_MAX_RANK

# towers within the dimension bound whose cohomology rank passes the rank bound
ABOVE_RANK = {
    "CPprod 1^11": lambda: tower.build_family("CPprod", [1] * 11),
    "CPprod 2^7": lambda: tower.build_family("CPprod", [2] * 7),
    "stages": lambda: tower.tower_from_json(json.dumps(
        {"base": [1], "stages": [{"lines": [[0]] * 2}] + [
            {"lines": [[0] * (i + 2)] * 2} for i in range(10)]})),
}


@pytest.mark.parametrize("build", ABOVE_RANK.values(), ids=ABOVE_RANK.keys())
@pytest.mark.parametrize("call", [tower.chern_numbers, tower.s_number,
                                  tower.ring_backend_pair],
                         ids=lambda f: f.__name__)
def test_rank_refused_before_any_ring(no_work, build, call):
    spec = build()
    assert spec.dim <= LARGEST and spec.cohomology_rank > RANK
    with pytest.raises(ValueError, match=f"cohomology rank at most {RANK}, "
                                         f"got {spec.cohomology_rank}"):
        call(spec)


@pytest.mark.parametrize("omega", [[1] * 10, [3] * 5])
def test_largest_rank_is_built(omega):
    spec = tower.build_family("CPprod", omega)
    assert spec.cohomology_rank == RANK
    assert tower.presented_ring(spec).top_degree == 2 * spec.dim


def test_refusals_leave_the_basis_cache_bounded():
    for n in range(LARGEST + 1, LARGEST + 40):
        for call in (lambda: ChernVector(n), lambda: cp(n),
                     lambda: bc.product(cp(n - LARGEST), cp(LARGEST))):
            with pytest.raises(ValueError, match=f"at most {LARGEST}"):
                call()
    assert bc._basis.cache_info().currsize <= LARGEST + 1


def test_operations_run_up_to_the_bound():
    top = ChernVector(LARGEST - 2, {(LARGEST - 2,): 1})
    assert psi(top).dim == LARGEST
    assert bc.chi(ChernVector(LARGEST - 1, {(LARGEST - 1,): 1})).dim == LARGEST
    rng = random.Random(LARGEST)
    a = ChernVector(LARGEST - 2, {omega: rng.randint(-9, 9)
                                  for omega in bc._basis(LARGEST - 2)[0]})
    assert delta(psi(a)) == a


# ---------------------------------------------------------------------------
# the one comparison against the bound
# ---------------------------------------------------------------------------

def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


# each bound -> the (module, function) that holds its one comparison; the rank
# bound's is presented_ring's check, `_check_rank`, which char_matrix_from_json
# shares
OWNERS = {"CHERN_MAX_DIM": ("bordclass", "check_dim"),
          "CHERN_MAX_RANK": ("tower", "_check_rank")}


def comparisons_outside_owner(source: str, module: str,
                              bound: str = "CHERN_MAX_DIM") -> list[int]:
    """Lines of the comparisons with `bound` outside the function that owns it."""
    owner_module, owner = OWNERS[bound]
    tree = ast.parse(source)
    allowed = set()
    if module == owner_module:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == owner:
                allowed.update(map(id, ast.walk(node)))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and id(node) not in allowed
            and bound in _names(node)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_bound_compared_only_in_check_dim(path):
    assert comparisons_outside_owner(path.read_text(encoding="utf-8"), path.stem) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_rank_bound_compared_only_in_presented_ring(path):
    assert comparisons_outside_owner(path.read_text(encoding="utf-8"), path.stem,
                                     "CHERN_MAX_RANK") == []


def test_check_dim_is_the_comparison():
    source = (SRC / "bordclass.py").read_text(encoding="utf-8")
    check = next(node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef) and node.name == "check_dim")
    assert any(isinstance(node, ast.Compare) and "CHERN_MAX_DIM" in _names(node)
               for node in ast.walk(check))


@pytest.mark.parametrize("module, source", [
    ("bordclass", "def f(n):\n    if n > CHERN_MAX_DIM:\n        raise ValueError\n"),
    ("cli", "ok = max(a, b) <= bordclass.CHERN_MAX_DIM\n"),
    ("tower", "def check_dim(n):\n    return n > bordclass.CHERN_MAX_DIM\n"),
])
def test_guard_finds_a_second_check(module, source):
    assert comparisons_outside_owner(source, module)


def test_presented_ring_is_the_rank_comparison():
    source = (SRC / "tower.py").read_text(encoding="utf-8")
    defs = {node.name: node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)}
    assert "_check_rank" in _names(defs["_presented_ring"])  # the ring cached per base and stages
    assert any(isinstance(node, ast.Compare) and "CHERN_MAX_RANK" in _names(node)
               for node in ast.walk(defs["_check_rank"]))


@pytest.mark.parametrize("module, source", [
    ("cli", "if spec.cohomology_rank > CHERN_MAX_RANK:\n    raise ValueError\n"),
    ("tower", "def chern_numbers(spec):\n    assert spec.cohomology_rank <= CHERN_MAX_RANK\n"),
    ("tower", "def f(spec):\n    return tower.CHERN_MAX_RANK < spec.cohomology_rank\n"),
])
def test_rank_guard_finds_a_second_check(module, source):
    assert comparisons_outside_owner(source, module, "CHERN_MAX_RANK")
