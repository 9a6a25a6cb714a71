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
    "RankRow": (lambda: numbers.rank_table(10)[8 // 2],
                ("dimension", "rank_omega_u", "rank_w", "rank_omega_su", "tors_rank",
                 "hw_rank"), True),
    # its su_checks is a read-only mapping, not hashable, so neither is a certificate
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


def test_replace_keeps_the_checks():
    spec = tower.build_family("L", 1, 2)
    with pytest.raises(ValueError, match="base factors must be positive"):
        spec._replace(base=(-1,))
    assert spec._replace(convention="bordism") == spec.with_convention("bordism")
    with pytest.raises(ValueError, match="a stage needs at least one line bundle"):
        Stage([[1]])._replace(lines=())
    with pytest.raises(ValueError, match="each stage must be a Stage"):
        spec._replace(stages=[((0,), (1,))])
    matrix = tower.char_matrix("L", 1, 2)
    with pytest.raises(ValueError, match=r"expected a 1x2 matrix over \(1,\), got 3x5"):
        matrix._replace(polytope=(1,))


@pytest.mark.parametrize("name", ["Stage", "TowerSpec", "CharMatrix"])
def test_make_round_trips(name):
    record = RECORDS[name][0]()
    made = type(record)._make(iter(record))
    assert made == record and type(made) is type(record) and hash(made) == hash(record)
    with pytest.raises(TypeError, match="Expected"):
        type(record)._make(tuple(record)[:-1] + (None, None))
