"""CLI contract: exit codes, canonical reports, determinism."""

import hashlib
import json
from fractions import Fraction as F
from importlib import resources

import pytest

from process_duality import certify as certify_module
from process_duality import cli as cli_module
from process_duality.cli import main
from process_duality.model import DiscretePoint, DiscreteVectorProgram, OrderCone
from process_duality.problemfile import emit_problem


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

    def test_finite_y0_not_attained_exits_2(self, capsys, tmp_path):
        # (1/2, 1/2) is in the simplex relaxation's W(0), not in W(0)
        path = tmp_path / "two_points.json"
        path.write_text(emit_problem(DiscreteVectorProgram(
            [DiscretePoint("a", (F(0), F(1)), (F(-1),)),
             DiscretePoint("b", (F(1), F(0)), (F(-1),))],
            OrderCone.from_generators(2, [(1, 0), (0, 1)]),
            OrderCone.from_generators(1, [(1,)]),
        )))
        for argv in (["certify"], ["process"], ["classify", "--side", "P"]):
            code, out, err = run(capsys, argv + [str(path), "--y0", "1/2,1/2"])
            assert (code, out) == (2, ""), argv
            assert "NotInW0Error" in err, argv
        code, _, err = run(capsys, ["certify", str(path), "--y0", "0/1,1/1"])
        assert (code, err) == (0, "")

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

    @pytest.mark.parametrize("side, decisions", [("P", 1), ("both", 2)])
    def test_membership_decided_once_per_set(
        self, capsys, monkeypatch, instance_path, side, decisions
    ):
        """y0 in W(0) is decided once, before anything is built at y0, and
        the P side classifies without deciding it again; the D side decides
        y0 in M."""
        argv = ["classify", instance_path("i3"), "--y0", "1/2,1/2", "--side", side]
        expected = run(capsys, argv)
        calls = []
        for module in (cli_module, certify_module):
            member = module.member

            def counted(*args, member=member):
                calls.append(args)
                return member(*args)

            monkeypatch.setattr(module, "member", counted)
        assert run(capsys, argv) == expected
        assert expected[0] == 0 and len(calls) == decisions

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

    def test_dual_side_builds_w0_once(self, capsys, monkeypatch, instance_path):
        """`frontier --side D` hands its context to `dual_frontier`, so the
        cells of W(0) that decided y0 in W(0) also serve the dual image's
        inclusion check: `w0_cells` runs once, as for `classify --side D`.
        The report is the one recorded when it ran twice."""
        calls = []
        w0_cells = certify_module.w0_cells

        def counted(p):
            calls.append(p)
            return w0_cells(p)

        monkeypatch.setattr(certify_module, "w0_cells", counted)
        code, out, err = run(
            capsys,
            ["frontier", instance_path("i3"), "--side", "D", "--y0=1/2,1/2", "--json"],
        )
        assert (code, err, len(calls)) == (0, "", 1)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bad6f83784e5f6e06fa08ef60ef1e9f27017cf438763e698055470329c6bdcb1"
        )

    def test_worked_example_dual_min_empty(self, capsys, instance_path):
        code, out, _ = run(
            capsys,
            ["frontier", instance_path("worked_example"), "--side", "D",
             "--y0", "0/1,0/1", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 0 and doc["minimal_points"] == []


# sha256 of the stdout of `frontier --json` and of `classify --side both
# --json` at the first and the last value of W(0), for the criterion-4
# programs with a nonempty W(0) among programs 0-11, recorded before point
# cells were built as their own type
FINITE_PROGRAM_REPORTS = [
    (1, "frontier", "fe8f36dd48f176574ce54f3d15c94dcc5e7ccf6258ee73164d90371f823e8429"),
    (1, "-1/1,-3/1,-1/1", "06ed58d1441fc50d8cef9b4b08686a31121553bb55919e9e35e776e447d35c17"),
    (4, "frontier", "15147387cc76fe48423019f4d3505938bc179f7ffe3ad67896cda7dfae6ce2f9"),
    (4, "0/1,2/1,0/1", "02a87122026ae7c20b187df3cc1b3eabf427c6b59dc3e78dae1e8c4f26879fcc"),
    (5, "frontier", "1777b29984229dee8547136d739a7b39e6f47d12d894f5f5d38736b7f1de045f"),
    (5, "0/1,-1/1", "14fd3db97c8e400fa632b118ebd94591654d0664c3aee7b63b915c698cb2ba5d"),
    (5, "3/1,0/1", "d4f46b957fcb3455592d4129aa1da5109b1747a2e4f8282aabffc8e2766faae0"),
    (6, "frontier", "ca8f595cc0ebb83f2a6f1c2733eb0685aa3b4d6657ad6d2f719239fad8ee94a1"),
    (6, "-2/1,-2/1", "e1ce089950fafe2cbef10fe0cde69ae5f77f3c5fefe90b24c9706b0be81b8b6d"),
    (6, "3/1,3/1", "15025b6569691d48dbafef32be6c607e6cf5fc55d2885e2c9180d6ccc0a55fa9"),
    (8, "frontier", "beeac08d5ccec7a6b8e8667540f1746c788c55130aebef0084675e971da64081"),
    (8, "0/1", "65f25260533ba03cb27f11d95ef7a2f6484aa806fdbea411b8d00c7aaa4331a3"),
    (8, "-2/1", "6827abe58ad856ef2f7835a61ba097f8309f096b6ff2e8384538e090ad33252b"),
    (10, "frontier", "e3c8c87a5e3d7a1cb88525cf5a4a6bface1a4b73fc019320c4fe636676f9f8ad"),
    (10, "-2/1,-3/1,2/1", "a903b1e66970dea4833bd64d9305f881c8c8f898b44e204ed0f6e89e46cf7e4d"),
    (10, "3/1,-3/1,0/1", "f3680bcdd8605386f2d187f4e4efb1b393513389cb0aec8170ca70878c9f79aa"),
    (11, "frontier", "024c3db6357733b57bfd4d3faa1aeaade2d41b44b8ed0e3150ee4d4cfc535abd"),
    (11, "-2/1,-3/1", "f7874cacfc7714c233b2ba5e371cb3daaaf49402210a439f6f6ed6669e0843ea"),
    (11, "1/1,-2/1", "51ec192dad122f694ffdf6120c03a04ff4fb89c9692196e6e6f5af58fbda81e7"),
]


class TestFiniteProgramReports:
    """The full JSON reports of `frontier` and `classify --side both` on
    finite programs, pinned by the sha256 of their stdout."""

    @pytest.mark.parametrize("i, y0, digest", FINITE_PROGRAM_REPORTS)
    def test_report_digest(self, capsys, tmp_path, criterion_4_program, i, y0, digest):
        path = tmp_path / f"program_{i}.json"
        path.write_text(emit_problem(criterion_4_program(i)))
        if y0 == "frontier":
            argv = ["frontier", str(path), "--json"]
        else:
            argv = ["classify", str(path), f"--y0={y0}", "--side", "both", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `frontier --side D --y0=... --json`, recorded
# while every member vertex of the dual frontier's hull was decided by strict
# LP: at the first frontier point of the criterion-3 programs among 0-11 that
# have one, where M is a polyhedron, and at the y0 pinned above for the
# criterion-4 programs, where M is a union of pieces
DUAL_FRONTIER_REPORTS = [
    (3, 1, "0/1,1/1,-5/2", "dc70dd3e2f1c1fd5f23b458ad91a848a52b4661a2bc4b81a35220e4ae7fd9d17"),
    (3, 2, "-1/1,-3/1", "efb2351565d35d8e0b534969832690a7efa129bf924de651c730cea47d174cfd"),
    (3, 3, "2/1,-1/2,-19/2", "ac51685a7651439f237400dd5f1ec0211a7d8df2f5a52c65a61009b56a1dc533"),
    (3, 4, "-5/1,-7/1", "39efba4fbcca9775aaf50e17007a30aa595fdd63de0948a2defb3e6a2ab8829e"),
    (3, 5, "-6/1,6/1,-5/1", "c2f997095be60930317d9dba25f3fd46303efa9f3b69dd895a061e9329bce8fe"),
    (3, 7, "-34/7,-62/7,27/7", "37550f9b5bdd3c7cd285c66f4436de053ba982973f4fa2023c034d93ff40cfc8"),
    (3, 8, "23/4,-1/4,-15/4", "7ce60310289841fe5267cb59303b69d2f7635c16c8b872a99f671835c792f001"),
    (3, 9, "-2/1,-11/2", "8e559c848e5732422410faf3c1a8b51181ec3796cd1609b1e624e639fbdc3a95"),
    (3, 11, "2/1", "feefe368e8c59b2f0d688148776a3da97a797c25d6514c369b744307239f18ec"),
    (4, 1, "-1/1,-3/1,-1/1", "0530a4587f510892278436e77926f511349790d2a4b47a8118a4de5729038808"),
    (4, 4, "0/1,2/1,0/1", "523fdf16b4b4b8103563a6274e1d3bdc8d5107be7af6b3a97bcece9005b3df0e"),
    (4, 5, "0/1,-1/1", "110116668d834b5648343045fc39ace0eef7c88a176f76e6299a1c86ce76a105"),
    (4, 5, "3/1,0/1", "d01c025b6f5766a1f1d0a31d4beac972577d86fa0e971647dc80bf8385a6c184"),
    (4, 6, "-2/1,-2/1", "57089a57accd9dcbab53b690947eca73c7352ffdf9284cc446cb3584fb16f2bf"),
    (4, 6, "3/1,3/1", "b874671bfc0c5b8c0db7d765a176bb33daab1148a11edddcfa274c8dc8ed87d7"),
    (4, 8, "0/1", "666d28a6d6a26ea0f318123074aaff6fb03f3d0d19e79dfd8f14973d98cb5218"),
    (4, 8, "-2/1", "ada2a705034bb0aa065d55cb2a133bfbb48313bb9bf984a65c30d4a99b496645"),
    (4, 10, "-2/1,-3/1,2/1", "5dec66050c573abda2d25559f3cf7add55776f082efd2f034563a053c9359641"),
    (4, 10, "3/1,-3/1,0/1", "82ddfa59912c7bd02435682cc10d609dbbd015430aaaa97a22f3abe3aaa1b9e0"),
    (4, 11, "-2/1,-3/1", "fc8b6327317c025691ceb8ea7449d074d7bac65750f95b682d6054b2bcdbbb50"),
    (4, 11, "1/1,-2/1", "0b85eafbb760275681e8fbfd44f8de26400a5e06c02a9a7a220acc3baf30cc81"),
]


class TestDualFrontierReports:
    """The JSON report of `frontier --side D`, where the dual frontier
    filter takes its theorem route or its LP route from the hull of M,
    pinned by the sha256 of its stdout."""

    @pytest.mark.parametrize("criterion, i, y0, digest", DUAL_FRONTIER_REPORTS)
    def test_report_digest(self, capsys, tmp_path, criterion_3_program,
                           criterion_4_program, criterion, i, y0, digest):
        program = criterion_3_program if criterion == 3 else criterion_4_program
        path = tmp_path / f"program_{i}.json"
        path.write_text(emit_problem(program(i)))
        argv = ["frontier", str(path), "--side", "D", f"--y0={y0}", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `certify --frontier --json`, recorded while He
# was decided by a double description of C cap (-Y_+) and not read off Pos,
# for the criterion-3 programs pinned above: each report carries he, ghe,
# ghe_via and he_eta on both sides at every frontier point
CERTIFY_FRONTIER_REPORTS = [
    (1, "7484ade9490047f18cc30d4784362ae9acb35e06d305ed790b6477d15ea48b4b"),
    (2, "842eabf1431ebff4d1b3f99f0a2668e45aaf6f25d703863fee45e1ca37e622bf"),
    (3, "723de9730b841e4b0dc3705301cd274ee6fe769084c8bac045f700b068793fc1"),
    (4, "7fa3e699f7e5c897db636cee83711a6d25b5d50c71d3fcc2118d1728a5564f2b"),
    (5, "6064ea668fbd147c020dd525876c853561fd99377f5225237b5eaad67e2f8a74"),
    (7, "c9f25f5b9850d88f898c260385f51dcb691c8471314f8b060d9d285a50515a2e"),
    (8, "88a542c4508871121cdd1a418d2bcad6c11233f8afe95fe55c2a4817e1fed823"),
    (9, "f5b62158a890104609366b74137b84cf2b727f53224f6fc964c6672951112b38"),
    (11, "ca7bae6c2b36865dbe4ea080c171361233b7009706859a31e78fda52126a395c"),
]


class TestCertifyFrontierReports:
    """The JSON report of `certify --frontier`, with the proper-efficiency
    verdicts and witnesses of P and D at each frontier point, pinned by the
    sha256 of its stdout."""

    @pytest.mark.parametrize("i, digest", CERTIFY_FRONTIER_REPORTS)
    def test_report_digest(self, capsys, tmp_path, criterion_3_program, i, digest):
        path = tmp_path / f"program_{i}.json"
        path.write_text(emit_problem(criterion_3_program(i)))
        code, out, err = run(capsys, ["certify", str(path), "--frontier", "--json"])
        assert (code, err) == (0, "")
        assert '"he_eta"' in out and '"ghe_via": "he"' in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_dual_classification_outside_w0(self, capsys, instance_path):
        # --side D builds L at y0, as process and frontier --side D do
        self.check(capsys,
                   ["classify", instance_path("worked_example"), "--y0=1/2,0",
                    "--side", "D"],
                   "NotInW0Error: 1/2,0 is not attained by a feasible point")

    def test_dual_frontier_outside_w0(self, capsys, instance_path):
        # L is built at y0, so a y0 outside W(0) is refused as process and
        # certify refuse it
        self.check(capsys,
                   ["frontier", instance_path("i3"), "--side", "D", "--y0=-5,-5"],
                   "NotInW0Error: -5,-5 is not attained by a feasible point")

    def test_certify_outside_w0(self, capsys, instance_path):
        # y0 is written as a rational vector, not as Fraction reprs
        self.check(capsys, ["certify", instance_path("i3"), "--y0=-5,-5"],
                   "NotInW0Error: -5/1,-5/1 is not attained by a feasible point")

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
