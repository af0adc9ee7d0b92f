"""Problem file parsing, validation diagnostics, canonical round-trip."""

import json
from importlib import resources

import pytest

from process_duality.errors import ProblemFormatError
from process_duality.model import (
    AffineVectorProgram,
    DiscreteVectorProgram,
    SetValuedProgram,
    affine_map,
)
from process_duality.polyhedra import (
    LE,
    BoundaryRestrictedPolyhedron,
    BoundaryRestriction,
    Polyhedron,
)
from process_duality.problemfile import (
    emit_problem,
    instance_hash,
    parse_problem,
)


def bundled(name):
    return (
        resources.files("process_duality")
        .joinpath(f"instances/{name}.json")
        .read_text()
    )


class TestBundledInstances:
    @pytest.mark.parametrize("name", ["worked_example", "scalar_i2", "i3"])
    def test_roundtrip_byte_identical(self, name):
        text = bundled(name)
        prog = parse_problem(text)
        assert emit_problem(prog) == text

    def test_worked_example_is_boundary_restricted_affine(self):
        prog = parse_problem(bundled("worked_example"))
        assert isinstance(prog, AffineVectorProgram)
        assert prog.omega.member((0, 0))
        assert not prog.omega.member((1, 0))

    def test_hash_stable(self):
        text = bundled("i3")
        a = instance_hash(parse_problem(text))
        b = instance_hash(parse_problem(text))
        assert a == b and len(a) == 64


def square_program(restriction, orthant2, r_plus):
    """Identity f and g = -1 over the unit square with one restricted row."""
    square = Polyhedron.from_hrep(
        2, [((1, 0), 1, LE), ((-1, 0), 0, LE), ((0, 1), 1, LE), ((0, -1), 0, LE)]
    )
    return AffineVectorProgram(
        BoundaryRestrictedPolyhedron(square, [restriction]),
        affine_map([[1, 0], [0, 1]], [0, 0]),
        affine_map([[0, 0]], [-1]),
        orthant2,
        r_plus,
    )


class TestBoundaryRestrictionEmit:
    def test_restriction_on_a_later_facet_roundtrips(self, orthant2, r_plus):
        retained = Polyhedron.from_vrep(2, [(1, 1)])
        p = square_program(BoundaryRestriction((0, 1), 1, retained), orthant2, r_plus)
        text = emit_problem(p)
        doc = json.loads(text)
        [fr] = doc["omega"]["facet_restrictions"]
        assert fr["facet"] > 0
        assert doc["omega"]["h_rep"][fr["facet"]] == {
            "normal": ["0/1", "1/1"], "offset": "1/1", "relation": "<="
        }
        q = parse_problem(text)
        assert q.omega.closure == p.omega.closure
        assert q.omega.restrictions == p.omega.restrictions
        assert emit_problem(q) == text

    def test_restriction_off_the_facets_is_not_serializable(self, orthant2, r_plus):
        """x + y <= 2 is valid for the unit square and touches it at (1, 1)
        only, so it is no facet row and the format cannot name it."""
        p = square_program(
            BoundaryRestriction((1, 1), 2, Polyhedron.empty(2)), orthant2, r_plus
        )
        assert not p.omega.member((1, 1))
        with pytest.raises(ProblemFormatError) as e:
            emit_problem(p)
        assert e.value.path == "$.omega"
        assert "not serializable" in e.value.message


class TestDiagnostics:
    def test_not_json(self):
        with pytest.raises(ProblemFormatError) as e:
            parse_problem("not json at all")
        assert e.value.path == "$"

    def test_bad_version(self):
        with pytest.raises(ProblemFormatError) as e:
            parse_problem(json.dumps({"version": 99, "kind": "affine"}))
        assert e.value.path == "$.version"

    def test_bad_kind(self):
        with pytest.raises(ProblemFormatError) as e:
            parse_problem(json.dumps({"version": 1, "kind": "quantum"}))
        assert e.value.path == "$.kind"

    def test_bad_rational_reports_field_path(self):
        doc = json.loads(bundled("scalar_i2"))
        doc["f"]["offset"] = ["0.5"]
        with pytest.raises(ProblemFormatError) as e:
            parse_problem(json.dumps(doc))
        assert "f.offset" in e.value.path

    def test_wrong_width_matrix(self):
        doc = json.loads(bundled("i3"))
        doc["g"]["matrix"] = [["1/1"]]
        with pytest.raises(ProblemFormatError) as e:
            parse_problem(json.dumps(doc))
        assert "g.matrix" in e.value.path

    def test_facet_index_out_of_range(self):
        doc = json.loads(bundled("worked_example"))
        doc["omega"]["facet_restrictions"][0]["facet"] = 7
        with pytest.raises(ProblemFormatError) as e:
            parse_problem(json.dumps(doc))
        assert "facet" in e.value.path

    @pytest.mark.parametrize(
        "h_rep, facet, retained, message",
        [
            pytest.param(
                [["0/1", "1/1"], ["0/1", "-1/1"]], 1,
                [{"normal": ["0/1", "1/1"], "offset": "0/1", "relation": "="}],
                "restricted row is an implicit equality of the closure",
                id="implicit-equality",
            ),
            pytest.param(
                [["0/1", "-1/1"]], 0, [],
                "retained set leaves its restricted slice",
                id="retained-leaves-slice",
            ),
        ],
    )
    def test_invalid_boundary_restriction(self, h_rep, facet, retained, message):
        """A restricted row of a file is always one of Omega's own rows, so
        it is valid for the closure; the other two defects can be written."""
        doc = json.loads(bundled("worked_example"))
        doc["omega"] = {
            "h_rep": [{"normal": n, "offset": "0/1"} for n in h_rep],
            "facet_restrictions": [{"facet": facet, "retained": {"h_rep": retained}}],
        }
        with pytest.raises(ProblemFormatError) as e:
            parse_problem(json.dumps(doc))
        assert e.value.path == "$.omega"
        assert message in e.value.message

    def test_degenerate_order_cone(self):
        doc = json.loads(bundled("i3"))
        doc["y_plus"]["generators"] = [["1/1", "0/1"]]
        with pytest.raises(ProblemFormatError) as e:
            parse_problem(json.dumps(doc))
        assert e.value.path == "$.y_plus"


class TestFiniteKinds:
    def test_discrete(self):
        doc = {
            "version": 1,
            "kind": "discrete",
            "dims": {"y": 2, "z": 1},
            "y_plus": {"generators": [["1/1", "0/1"], ["0/1", "1/1"]]},
            "z_plus": {"generators": [["1/1"]]},
            "points": [
                {"id": "a", "f": ["0/1", "0/1"], "g": ["0/1"]},
                {"id": "b", "f": ["1/1", "-1/1"], "g": ["-1/1"]},
            ],
        }
        prog = parse_problem(json.dumps(doc))
        assert isinstance(prog, DiscreteVectorProgram)
        text = emit_problem(prog)
        assert emit_problem(parse_problem(text)) == text

    def test_setvalued(self):
        doc = {
            "version": 1,
            "kind": "setvalued",
            "dims": {"y": 1, "z": 1},
            "y_plus": {"generators": [["1/1"]]},
            "z_plus": {"generators": [["1/1"]]},
            "points": [
                {
                    "id": "a",
                    "f_values": [["0/1"], ["2/1"]],
                    "g_values": [["3/1"], ["-1/1"]],
                }
            ],
        }
        prog = parse_problem(json.dumps(doc))
        assert isinstance(prog, SetValuedProgram)
        text = emit_problem(prog)
        assert emit_problem(parse_problem(text)) == text

    def test_duplicate_ids_rejected(self):
        doc = {
            "version": 1,
            "kind": "discrete",
            "dims": {"y": 1, "z": 1},
            "y_plus": {"generators": [["1/1"]]},
            "z_plus": {"generators": [["1/1"]]},
            "points": [
                {"id": "a", "f": ["0/1"], "g": ["0/1"]},
                {"id": "a", "f": ["1/1"], "g": ["0/1"]},
            ],
        }
        with pytest.raises(ProblemFormatError):
            parse_problem(json.dumps(doc))
