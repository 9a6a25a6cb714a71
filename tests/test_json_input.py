"""The two JSON readers, the tower spec `chern --spec` reads and the
characteristic matrix, share one strict input edge: every malformed input
raises ValueError, never KeyError, TypeError or RecursionError.  An input
that names one thing twice is refused rather than collapsed, by the readers
and by the constructors behind them (`ChernVector` and `TowerSpec`)."""

import pytest

from bordx import bordclass, tower

from test_tower import tower_document

READERS = {
    "tower": tower.tower_from_json,
    "char_matrix": tower.char_matrix_from_json,
}

DEEP_ARRAY = "[" * 3000 + "]" * 3000
DEEP_OBJECT = '{"a": ' * 3000 + "1" + "}" * 3000

# malformed for every reader
COMMON = [DEEP_ARRAY, DEEP_OBJECT, "{", "", "[]", "5", "null", '"text"', [], 5, None, 2.5]

# malformed for one reader: missing and mistyped fields
SPECIFIC = {
    "tower": [
        {}, {"stages": []}, {"base": 2}, {"base": None}, {"base": {"0": 2}},
        {"base": [[2]]}, {"base": [2], "stages": 1}, {"base": [2], "stages": [1]},
        {"base": [2], "stages": [[[0], [1]]]}, {"base": [2], "stages": [{}]},
        {"base": [2], "stages": [{"lines": 1}]},
        {"base": [2], "stages": [{"lines": [0, 1]}]},
        {"base": [2], "stages": [{"lines": [[0], [1]], "conjugate": 3}]},
        {"base": [2], "stages": [{"lines": [[0], [1]], "conjugate": [[3]]}]},
        {"base": [2], "conjugate": 0}, {"base": [2], "conjugate": [{}]},
        {"base": [2], "conjugate": [[0]]}, {"base": [2], "convention": ["toric"]},
        {"base": [2], "convention": {}},
    ],
    "char_matrix": [
        {}, {"simplex_dims": [1]}, {"lambda": [[1, -1]]},
        {"simplex_dims": None, "lambda": [[1, -1]]},
        {"simplex_dims": [1], "lambda": [[1, [-1]]]},
        {"simplex_dims": [[1]], "lambda": [[1, -1]]},
    ],
}

CASES = [(name, data) for name in READERS for data in COMMON + SPECIFIC[name]]

# Each reader numbers its cases from a fixed start, where they began when a
# Chern-vector reader and a ring reader came before the tower, so that a case
# keeps its id when another reader's cases come or go.
FIRST_ID = {"tower": 19, "char_matrix": 50}
CASE_IDS = [f"{name}-{FIRST_ID[name] + i}"
            for name in READERS for i in range(len(COMMON + SPECIFIC[name]))]


@pytest.mark.parametrize("name,data", CASES, ids=CASE_IDS)
def test_malformed_input_raises_value_error(name, data):
    with pytest.raises(ValueError):
        READERS[name](data)


@pytest.mark.parametrize("name", READERS)
def test_deep_nesting_is_named(name):
    with pytest.raises(ValueError, match="nested too deeply"):
        READERS[name](DEEP_ARRAY)


GOOD = {
    "tower": ('{"base": [2], "stages": [{"lines": [[0], [1]], "conjugate": [3]}]}',
              tower.TowerSpec((2,), (tower.Stage(((0,), (1,))),), frozenset({3}))),
    "char_matrix": ('{"simplex_dims": [1], "lambda": [[1, -1]]}',
                    tower.char_matrix("CPprod", (1,))),
}


@pytest.mark.parametrize("name", GOOD)
def test_well_formed_string_is_read(name):
    text, want = GOOD[name]
    assert READERS[name](text) == want


class TestNamedTwice:
    @pytest.mark.parametrize("numbers", [
        {(1, 2): 3, (2, 1): 4},
        [((2, 1), 3), ((2, 1), 3)],
        [((1, 1, 1), 1), ((2, 1), 1), ((1, 2), 1)],
        {(1, 2): 0, (2, 1): 0},
    ])
    def test_chern_number_refused(self, numbers):
        with pytest.raises(ValueError, match="given twice"):
            bordclass.ChernVector(3, numbers)

    def test_pairs_and_mapping_agree(self):
        numbers = {(2, 1): 3, (1, 1, 1): -4}
        assert bordclass.ChernVector(3, numbers) == bordclass.ChernVector(
            3, list(numbers.items()))

    @pytest.mark.parametrize("data", [
        {"base": [1], "conjugate": [0, 0]},
        {"base": [1, 1], "conjugate": [3, 0, 3]},
        {"base": [1], "stages": [{"lines": [[-1], [0]], "conjugate": [2, 2]}]},
        {"base": [1], "stages": [{"lines": [[-1], [0]], "conjugate": [2]}],
         "conjugate": [2]},
        {"base": [1], "stages": [{"lines": [[-1], [0]], "conjugate": [0]},
                                 {"lines": [[0, 1], [0, 0]], "conjugate": [0]}]},
    ])
    def test_conjugation_refused(self, data):
        with pytest.raises(ValueError, match="given twice"):
            tower.tower_from_json(data)

    def test_conjugation_refused_by_the_spec(self):
        with pytest.raises(ValueError, match="given twice"):
            tower.TowerSpec((1, 1), (), [1, 1])
        spec = tower.TowerSpec((1, 1), (), [1, 2])
        assert spec.conjugations == frozenset({1, 2})
        assert tower.tower_from_json(tower_document(spec)) == spec

    @pytest.mark.parametrize("name,text", [
        ("tower", '{"base": [1], "base": [2]}'),
        ("tower", '{"base": [1], "stages": [{"lines": [[-1], [0]], "lines": [[0], [0]]}]}'),
        ("char_matrix", '{"simplex_dims": [1], "lambda": [[1, -1]], "lambda": [[1, 1]]}'),
    ])
    def test_repeated_json_key_refused(self, name, text):
        # a plain json.loads would keep the last value: CP^2, ...
        with pytest.raises(ValueError, match="given twice in one JSON object"):
            READERS[name](text)

    def test_conjugations_in_different_lists_are_read(self):
        spec = tower.tower_from_json({
            "base": [1], "stages": [{"lines": [[-1], [0]], "conjugate": [2]}],
            "conjugate": [0]})
        assert spec.conjugations == frozenset({0, 2})
