"""The record types: immutable, compared and hashed by value, and printed
with their field names."""

import pytest

from bordx import genfactory, numbers, tower
from bordx.exactalg import IntMatrix
from bordx.tower import CharMatrix, Stage, TowerSpec


def _spec():
    return TowerSpec([1, 2], [Stage([[-1, 0], [0, 1]])], [0, 3], "bordism")


# (build, field names, hashable); build makes a new record from equal fields
RECORDS = {
    "IntMatrix": (lambda: IntMatrix.from_rows([[1, 2], [3, 4]]),
                  ("rows", "cols", "entries"), True),
    "Stage": (lambda: Stage([[-1, 0], [0, 1]]), ("lines",), True),
    "TowerSpec": (_spec, ("base", "stages", "conjugations", "convention"), True),
    "CharMatrix": (lambda: CharMatrix(IntMatrix.from_rows([[1, 0, -1], [0, 1, -1]]), [2]),
                   ("matrix", "polytope"), True),
    "RankRow": (lambda: numbers.rank_table(10).row(8),
                ("dimension", "rank_omega_u", "rank_w", "rank_omega_su", "tors_rank",
                 "hw_rank"), True),
    "RankTable": (lambda: numbers.rank_table(10), ("rows",), True),
    # its su_checks is a dict, so a certificate has never been hashable
    "GeneratorCertificate": (lambda: genfactory.cy_generator_combo(3),
                             ("dimension", "combination", "chern_class", "s_value",
                              "target", "su_checks"), False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record(name):
    build, fields, hashable = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and type(a).__name__ == name
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, fields[0], getattr(b, fields[0]))
    with pytest.raises(AttributeError):
        a.note = 1
    assert a == b
    assert repr(a) == name + "(" + ", ".join(
        f"{f}={getattr(a, f)!r}" for f in fields) + ")"


def test_tower_spec_repr_and_ring_cache():
    a, b = _spec(), _spec()
    assert repr(a) == ("TowerSpec(base=(1, 2), stages=(Stage(lines=((-1, 0), (0, 1))),), "
                       "conjugations=frozenset({0, 3}), convention='bordism')")
    assert tower.presented_ring(a) is tower.presented_ring(b)
