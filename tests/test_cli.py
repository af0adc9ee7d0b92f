"""CLI contract: exit codes, canonical reports, determinism."""

import json
from importlib import resources

import pytest

from process_duality import cli as cli_module
from process_duality.cli import main


@pytest.fixture
def instance_path():
    def path(name):
        return str(
            resources.files("process_duality").joinpath(f"instances/{name}.json")
        )

    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertify:
    def test_worked_example_golden(self, capsys, instance_path):
        code, out, _ = run(
            capsys,
            ["certify", instance_path("worked_example"), "--y0", "0/1,0/1", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "all-applicable-verified"
        assert doc["separators"]["generators"] == [
            {"z_star": ["0/1"], "y_star": ["0/1", "1/1"]}
        ]
        assert doc["process_graph"]["h_rep"] == [
            {"normal": ["0/1", "0/1", "-1/1"], "offset": "0/1", "relation": "<="}
        ]
        assert doc["status_P0"]["minimal"] is True
        assert doc["status_D"]["weak_minimal"] is True
        assert doc["status_D"]["minimal"] is False
        verdicts = {c["id"]: c["verdict"] for c in doc["clauses"]}
        assert verdicts["C4"] == "not-applicable"

    def test_scalar_recovers_multiplier(self, capsys, instance_path):
        code, out, _ = run(
            capsys, ["certify", instance_path("scalar_i2"), "--y0", "1/1", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["recovered_multiplier"] == [["1/1"]]
        verdicts = {c["id"]: c["verdict"] for c in doc["clauses"]}
        assert verdicts["C3"] == "verified"

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        code, _, err = run(capsys, ["certify", str(bad), "--y0", "0/1"])
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["certify", "/no/such/file.json", "--y0", "0/1"])
        assert code == 2

    def test_y0_outside_w0_exits_2(self, capsys, instance_path):
        code, _, err = run(
            capsys, ["certify", instance_path("i3"), "--y0", "0/1,0/1"]
        )
        assert code == 2
        assert "NotInW0" in err

    def test_frontier_mode(self, capsys, instance_path):
        code, out, _ = run(
            capsys, ["certify", instance_path("i3"), "--frontier", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 2
        assert all(
            c["verdict"] == "all-applicable-verified" for c in doc["certificates"]
        )

    def test_reports_byte_stable(self, capsys, instance_path):
        argv = ["certify", instance_path("i3"), "--y0", "1/2,1/2", "--json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestProcess:
    def test_worked_example_graph(self, capsys, instance_path):
        code, out, _ = run(
            capsys,
            ["process", instance_path("worked_example"), "--y0", "0/1,0/1", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["separators"]["generators"] == [
            {"z_star": ["0/1"], "y_star": ["0/1", "1/1"]}
        ]
        v = doc["graph"]["v_rep"]
        assert v["rays"] == [["0/1", "0/1", "1/1"]]
        assert sorted(v["lines"]) == [["0/1", "1/1", "0/1"], ["1/1", "0/1", "0/1"]]

    def test_i3_graph(self, capsys, instance_path):
        code, out, _ = run(
            capsys, ["process", instance_path("i3"), "--y0", "1/2,1/2", "--json"]
        )
        doc = json.loads(out)
        assert doc["separators"]["generators"] == [
            {"z_star": ["1/1"], "y_star": ["1/1", "1/1"]}
        ]
        assert doc["graph"]["h_rep"] == [
            {"normal": ["1/1", "-1/1", "-1/1"], "offset": "0/1", "relation": "<="}
        ]

    def test_whole_space_sentinel(self, capsys, instance_path):
        # An interior y0 of the I3 upper image has an empty separator cone.
        code, out, _ = run(
            capsys, ["process", instance_path("i3"), "--y0", "3/1,3/1", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["separators"]["empty"] is True
        assert doc["graph"]["whole_space"] is True


class TestClassify:
    def test_i3_both_sides_all_true(self, capsys, instance_path):
        code, out, _ = run(
            capsys,
            ["classify", instance_path("i3"), "--y0", "1/2,1/2", "--side", "both", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        for side in ("status_P", "status_D"):
            st = doc[side]
            assert st["minimal"] and st["pos"] and st["ghe"] and st["he"] and st["se"]
        assert all(doc["transfer"].values())

    def test_worked_example_side_p(self, capsys, instance_path):
        code, out, _ = run(
            capsys,
            ["classify", instance_path("worked_example"), "--y0", "0/1,0/1",
             "--side", "P", "--json"],
        )
        doc = json.loads(out)
        assert doc["status_P"]["minimal"] is True
        assert doc["status_P"]["pos"] is False

    def test_single_point_discrete(self, capsys, tmp_path):
        doc = {
            "version": 1,
            "kind": "discrete",
            "dims": {"y": 2, "z": 1},
            "y_plus": {"generators": [["1/1", "0/1"], ["0/1", "1/1"]]},
            "z_plus": {"generators": [["1/1"]]},
            "points": [{"id": "a", "f": ["0/1", "0/1"], "g": ["0/1"]}],
        }
        path = tmp_path / "single.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            ["classify", str(path), "--y0", "0/1,0/1", "--side", "both", "--json"],
        )
        assert code == 0
        rep = json.loads(out)
        st = rep["status_P"]
        assert st["minimal"] and st["weak_minimal"] and st["pos"]
        assert st["he"] and st["se"]  # cone(A - y0) = {0} for a single point
        assert all(rep["transfer"].values())


class TestParser:
    def test_one_parser_prints_what_fresh_parsers_print(
        self, capsys, monkeypatch, instance_path
    ):
        """Calls that alternate between options through the one parser of
        the process print, and exit with, what a fresh parser gives each."""
        we, i3 = instance_path("worked_example"), instance_path("i3")
        calls = [
            ["certify", we, "--y0", "0/1,0/1", "--json"],
            ["certify", we, "--y0", "0/1,0/1", "--text"],
            ["classify", i3, "--y0", "1/2,1/2", "--side", "P"],
            ["classify", i3, "--y0", "1/2,1/2"],
        ] * 2
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli_module, "_parser", None)
            fresh.append(run(capsys, argv))
        assert len({out for _, out, _ in fresh}) == 4
        built = []
        build = cli_module.build_parser
        monkeypatch.setattr(cli_module, "build_parser",
                            lambda: built.append(1) or build())
        monkeypatch.setattr(cli_module, "_parser", None)
        assert [run(capsys, argv) for argv in calls] == fresh
        assert built == [1]


class TestFrontier:
    def test_discrete_point_set_is_exact_not_hulled(self, capsys, tmp_path):
        # (2,2) is minimal over the sampled points although the hull of the
        # other two dominates it; the classify command must use the exact set.
        doc = {
            "version": 1,
            "kind": "discrete",
            "dims": {"y": 2, "z": 1},
            "y_plus": {"generators": [["1/1", "0/1"], ["0/1", "1/1"]]},
            "z_plus": {"generators": [["1/1"]]},
            "points": [
                {"id": "a", "f": ["0/1", "3/1"], "g": ["0/1"]},
                {"id": "b", "f": ["3/1", "0/1"], "g": ["0/1"]},
                {"id": "c", "f": ["2/1", "2/1"], "g": ["0/1"]},
            ],
        }
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, ["classify", str(path), "--y0", "2/1,2/1", "--side", "P", "--json"]
        )
        assert code == 0
        assert json.loads(out)["status_P"]["minimal"] is True
        code, out, _ = run(capsys, ["frontier", str(path), "--json"])
        pts = sorted(tuple(p["point"]) for p in json.loads(out)["minimal_points"])
        assert pts == [("0/1", "3/1"), ("3/1", "0/1")]

    def test_i3_vertices(self, capsys, instance_path):
        code, out, _ = run(
            capsys, ["frontier", instance_path("i3"), "--json"]
        )
        doc = json.loads(out)
        pts = sorted(tuple(p["point"]) for p in doc["minimal_points"])
        assert pts == [("0/1", "1/1"), ("1/1", "0/1")]

    def test_worked_example_dual_min_empty(self, capsys, instance_path):
        code, out, _ = run(
            capsys,
            ["frontier", instance_path("worked_example"), "--side", "D",
             "--y0", "0/1,0/1", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 0 and doc["minimal_points"] == []


class TestFuzz:
    def test_small_clean_run(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--seed", "1", "--count", "3"])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_zero_count_noop(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--seed", "1", "--count", "0"])
        assert code == 0

    def test_injected_defect_caught(self, capsys):
        code, out, _ = run(
            capsys,
            ["fuzz", "--seed", "1", "--count", "6",
             "--inject-defect", "sign-flip-halfspace"],
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["counterexample"]["problem"]


class TestMalformedArguments:
    """Each malformed argument is one `error:` line on stderr and exit 2."""

    def check(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_y0_not_a_number(self, capsys, instance_path):
        self.check(capsys, ["classify", instance_path("i3"), "--y0", "abc"],
                   "--y0: not a rational vector: 'abc'")

    def test_y0_with_zero_denominator(self, capsys, instance_path):
        self.check(capsys, ["process", instance_path("i3"), "--y0", "1/0,1"],
                   "--y0: not a rational vector: '1/0,1'")

    def test_dims_not_integers(self, capsys):
        self.check(capsys, ["fuzz", "--dims", "a,b,c"],
                   "--dims: expected dx,dy,dz positive integers")

    def test_short_y0_for_the_dual_frontier(self, capsys, instance_path):
        # a short y0 would split Graph(W) into the wrong (z, y) parts
        self.check(capsys,
                   ["frontier", instance_path("i3"), "--side", "D", "--y0", "1/2"],
                   "DimensionMismatch: point of length 1 in dimension 2")

    def test_negative_limit_for_certify(self, capsys, instance_path):
        self.check(capsys,
                   ["certify", instance_path("i3"), "--frontier", "--limit", "-1"],
                   "--limit: expected a nonnegative integer")

    def test_negative_limit_for_frontier(self, capsys, instance_path):
        self.check(capsys, ["frontier", instance_path("i3"), "--limit", "-1"],
                   "--limit: expected a nonnegative integer")

    def test_dual_frontier_outside_w0(self, capsys, instance_path):
        # L is built at y0, so a y0 outside W(0) is refused as process and
        # certify refuse it
        self.check(capsys,
                   ["frontier", instance_path("i3"), "--side", "D", "--y0=-5,-5"],
                   "NotInW0Error: -5,-5 is not attained by a feasible point")

    def test_negative_first_coordinate_in_the_equals_form(self, capsys, instance_path):
        # --y0=-1/1 reaches the vector parser, which refuses its length
        self.check(capsys, ["classify", instance_path("i3"), "--y0=-1/1"],
                   "DimensionMismatch: point of length 1 in dimension 2")

    def test_negative_first_coordinate_after_a_space_reads_as_an_option(
        self, capsys, instance_path
    ):
        with pytest.raises(SystemExit) as exit_:
            main(["classify", instance_path("i3"), "--y0", "-1/1,-3/1"])
        assert exit_.value.code == 2
        assert "argument --y0: expected one argument" in capsys.readouterr().err

    def test_negative_count_for_fuzz(self, capsys):
        self.check(capsys, ["fuzz", "--count", "-3", "--dims", "1,1,1"],
                   "--count: expected a nonnegative integer")
