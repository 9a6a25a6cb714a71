"""The four JSON readers share one strict input edge: every malformed input
raises ValueError, never KeyError, TypeError or RecursionError, and an input
that names one thing twice is refused rather than collapsed."""

import pytest

from bordx import bordclass, cohomring, tower

READERS = {
    "chern_vector": bordclass.chern_vector_from_json,
    "tower": tower.tower_from_json,
    "char_matrix": tower.char_matrix_from_json,
    "ring": cohomring.ring_from_json,
}

DEEP_ARRAY = "[" * 3000 + "]" * 3000
DEEP_OBJECT = '{"a": ' * 3000 + "1" + "}" * 3000

# malformed for every reader
COMMON = [DEEP_ARRAY, DEEP_OBJECT, "{", "", "[]", "5", "null", '"text"', [], 5, None, 2.5]

# malformed for one reader: missing and mistyped fields
SPECIFIC = {
    "chern_vector": [
        {}, {"dim": 1}, {"numbers": {}}, {"dim": [1], "numbers": {}},
        {"dim": 1, "numbers": {1: 2}}, {"dim": 1, "numbers": {None: 2}},
        {"dim": 1, "numbers": {(1,): 2}},
    ],
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
    "ring": [
        {}, {"generators": []}, {"relations": []},
        {"generators": 1, "relations": [], "top_degree": 0, "fundamental_monomial": []},
        {"generators": [1], "relations": [], "top_degree": 2, "fundamental_monomial": [1]},
        {"generators": [{}], "relations": [], "top_degree": 2, "fundamental_monomial": [1]},
        {"generators": [{"name": "u"}], "relations": [], "top_degree": 2,
         "fundamental_monomial": [1]},
        {"generators": [{"degree": 2}], "relations": [], "top_degree": 2,
         "fundamental_monomial": [1]},
        {"generators": [{"name": 1, "degree": 2}], "relations": [], "top_degree": 2,
         "fundamental_monomial": [1]},
        {"generators": [{"name": "u", "degree": [2]}], "relations": [], "top_degree": 2,
         "fundamental_monomial": [1]},
        {"generators": [{"name": "u", "degree": 2}], "top_degree": 2,
         "fundamental_monomial": [1]},
        {"generators": [{"name": "u", "degree": 2}], "relations": "u^2",
         "top_degree": 2, "fundamental_monomial": [1]},
        {"generators": [{"name": "u", "degree": 2}], "relations": ["u^2"],
         "fundamental_monomial": [1]},
        {"generators": [{"name": "u", "degree": 2}], "relations": ["u^2"],
         "top_degree": 2},
        {"generators": [{"name": "u", "degree": 2}], "relations": ["u^2"],
         "top_degree": 2, "fundamental_monomial": 1},
        {"generators": [{"name": "u", "degree": 2}], "relations": ["u^2"],
         "top_degree": 2, "fundamental_monomial": [1], "backend": ["lattice"]},
    ],
}

CASES = [(name, data) for name in READERS for data in COMMON + SPECIFIC[name]]


@pytest.mark.parametrize("name,data", CASES,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(CASES)])
def test_malformed_input_raises_value_error(name, data):
    with pytest.raises(ValueError):
        READERS[name](data)


@pytest.mark.parametrize("name", READERS)
def test_deep_nesting_is_named(name):
    with pytest.raises(ValueError, match="nested too deeply"):
        READERS[name](DEEP_ARRAY)


GOOD = {
    "chern_vector": ('{"dim": 2, "numbers": {"2": 3, "1,1": 9}}',
                     bordclass.cp(2)),
    "tower": ('{"base": [2], "stages": [{"lines": [[0], [1]], "conjugate": [3]}]}',
              tower.TowerSpec((2,), (tower.Stage(((0,), (1,))),), frozenset({3}))),
    "char_matrix": ('{"simplex_dims": [1], "lambda": [[1, -1]]}',
                    tower.char_matrix("CPprod", (1,))),
}


@pytest.mark.parametrize("name", GOOD)
def test_well_formed_string_is_read(name):
    text, want = GOOD[name]
    assert READERS[name](text) == want


class TestChernVectorDimension:
    def test_largest_dimension_is_read(self):
        a = bordclass.chern_vector_from_json({"dim": 24, "numbers": {"24": 25}})
        assert a.dim == bordclass.CHERN_MAX_DIM == 24
        assert a.numbers[(24,)] == 25

    @pytest.mark.parametrize("dim", [25, 200, 10**12])
    def test_larger_dimension_refused_before_any_basis(self, dim, monkeypatch):
        def no_work(*args):
            raise AssertionError("a refused dimension started work")

        # p(200) is about 4e12: only the limit check may run
        monkeypatch.setattr(bordclass, "partitions", no_work)
        with pytest.raises(ValueError, match="at most 24"):
            bordclass.chern_vector_from_json({"dim": dim, "numbers": {}})


class TestNamedTwice:
    @pytest.mark.parametrize("dim, numbers", [
        (3, {"1,2": 3, "2,1": 4}),
        (3, {"1,2": 0, "2,1": 0}),
        (4, {"2,1,1": 1, "1,2,1": 1, "4": 1}),
    ])
    def test_chern_number_refused_from_json(self, dim, numbers):
        with pytest.raises(ValueError, match="given twice"):
            bordclass.chern_vector_from_json({"dim": dim, "numbers": numbers})

    @pytest.mark.parametrize("numbers", [
        {(1, 2): 3, (2, 1): 4},
        [((2, 1), 3), ((2, 1), 3)],
        [((1, 1, 1), 1), ((2, 1), 1), ((1, 2), 1)],
    ])
    def test_chern_number_refused(self, numbers):
        with pytest.raises(ValueError, match="given twice"):
            bordclass.ChernVector(3, numbers)

    def test_pairs_and_mapping_agree(self):
        numbers = {(2, 1): 3, (1, 1, 1): -4}
        assert (bordclass.ChernVector(3, numbers)
                == bordclass.ChernVector(3, list(numbers.items()))
                == bordclass.chern_vector_from_json(
                    {"dim": 3, "numbers": {"1,2": 3, "1,1,1": -4}}))

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
        assert tower.tower_from_json(tower.tower_to_json(spec)) == spec

    @pytest.mark.parametrize("name,text", [
        ("chern_vector", '{"dim": 1, "numbers": {"1": 2, "1": 3}}'),
        ("chern_vector", '{"dim": 1, "dim": 1, "numbers": {"1": 2}}'),
        ("tower", '{"base": [1], "base": [2]}'),
        ("tower", '{"base": [1], "stages": [{"lines": [[-1], [0]], "lines": [[0], [0]]}]}'),
        ("char_matrix", '{"simplex_dims": [1], "lambda": [[1, -1]], "lambda": [[1, 1]]}'),
        ("ring", '{"generators": [{"name": "u", "degree": 2, "name": "v"}], '
                 '"relations": ["u^2"], "top_degree": 2, "fundamental_monomial": [1]}'),
    ])
    def test_repeated_json_key_refused(self, name, text):
        # a plain json.loads would keep the last value: c_1 = 3, CP^2, ...
        with pytest.raises(ValueError, match="given twice in one JSON object"):
            READERS[name](text)

    def test_conjugations_in_different_lists_are_read(self):
        spec = tower.tower_from_json({
            "base": [1], "stages": [{"lines": [[-1], [0]], "conjugate": [2]}],
            "conjugate": [0]})
        assert spec.conjugations == frozenset({0, 2})


def ring(names, relations=()):
    return {"generators": [{"name": name, "degree": 2} for name in names],
            "relations": list(relations), "top_degree": 2,
            "fundamental_monomial": [1] + [0] * (len(names) - 1)}


class TestGeneratorNames:
    @pytest.mark.parametrize("names", [("u", "u"), ("u", "v", "u")])
    def test_repeated_name_refused(self, names):
        with pytest.raises(cohomring.PresentationError, match="distinct identifiers"):
            cohomring.ring_from_json(ring(names, ["u^2"]))
        with pytest.raises(cohomring.PresentationError, match="distinct identifiers"):
            cohomring.PresentedRing(names, [2] * len(names), [], 2,
                                    [1] + [0] * (len(names) - 1))

    @pytest.mark.parametrize("name", ["1x", "", "a-b", "x y", "u^2", "if", "None", "True"])
    def test_name_that_is_not_an_identifier_refused(self, name):
        with pytest.raises(cohomring.PresentationError, match="distinct identifiers"):
            cohomring.ring_from_json(ring(("u", name), ["u^2"]))
        with pytest.raises(cohomring.PresentationError, match="distinct identifiers"):
            cohomring.PresentedRing((name,), (2,), [], 2, (1,))

    def test_name_that_is_not_a_string_refused(self):
        with pytest.raises(cohomring.PresentationError, match="distinct identifiers"):
            cohomring.PresentedRing((1,), (2,), [], 2, (1,))

    def test_identifiers_are_read(self):
        r = cohomring.ring_from_json(ring(("u_1", "x2", "c"), ["u_1^2 - x2*c"]))
        assert r.names == ("u_1", "x2", "c")
