"""CLI contract: exit codes, canonical reports, determinism."""

import hashlib
import json
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

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


# sha256 of the stdout of `certify --frontier --json` for every criterion-3
# program among 0-39 that has a frontier point.  Those among 0-11 were
# recorded while He was decided by a double description of C cap (-Y_+) and
# not read off Pos, the others while D decided Pos, He and SE again where its
# cone at y0 is P's (program 16, whose Pos optimum also ties there) and while
# a member of W(0) among the frontier candidates was decided by strict LP.
# With Y_+ pointed, each report carries he, ghe, ghe_via and he_eta on both
# sides at every frontier point; program 39's Y_+ has a line.
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
    (13, "6902815814e582d791d36a8c8814df007c4703b40cb60da4bcae2cce507149c2"),
    (14, "3eae0961f68cbcfc5d4b528243e1ee7862ac56ddc46f683e5751a83ebfb90d88"),
    (15, "70b495f464b3d288279189225a4b7807f57b81ba7b70e91ee0b4467c51854968"),
    (16, "a4ea6f8287104f0bfccbd810f89d7c9480b4599de6733f23d3c9cbc76bf2b2ee"),
    (18, "bf9d5c8c5902f8fe6c02855f469eb03ff4233fcff4621235319f6b9eca150506"),
    (19, "e8d23d9e8a76565eed0b4e10f9ee6d800ce4c15df3e22e8843d7bdd18bd6bae7"),
    (20, "6916ee222fe686fe006aa59a74056b45c7e5e6fde5bf0e6ece1849eec25069bf"),
    (21, "5cf518cc2b66e49ea0ff970f471b353b99ae149185a37d03c5752461ac8d607a"),
    (23, "6bb22d851b75a56ac9a04e14af9b8db9dee913ddbc71b768497d446b40536533"),
    (26, "1b5baea8c5fb51824eb60759058df15d291b4aef981d330a703d7229d8b00669"),
    (27, "0df13d00d9e566754b4af2a88eb221b48259b88a8fe63ae88a0ccc6b55cb8984"),
    (29, "769bcf2cd315861d3a26987932d5ec62d8fab45110e30a9020e16bbf587c9d25"),
    (30, "3df31fc0d42c98cb97ff12b6b62d61b6000b3bc2e12ae2e2ebb8034a6e300b8b"),
    (31, "218b322087989be24d1252be2daace5cca468410abfeb9636da4a93355110256"),
    (32, "086cd9a8cb84a34acf8224f4e9a17c0d325a879c69bc807e29d8f99761e9eebb"),
    (33, "325770d7ef42c124aa0c85f031cd84413e20ccbb1ca003d3e88b08a71da93870"),
    (34, "50f4f5d4e01c478863ef6a0331429cad9d4d966e31f4aee9793760cdbdd11efc"),
    (36, "b6120395799407ca38b72065b9d75ca7a6b221d6c56e7823307462075b782c39"),
    (39, "71e177a58aae169317a7044275ce84bfaf391e44291e611f433440a3c0295634"),
]

# The same for criterion-4 programs 0-59, certified through their simplex
# relaxation, with the exit code: 2 where W(0) is empty.
CERTIFY_FRONTIER_RELAXED_REPORTS = [
    (0, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (2, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, 0, "adaa225fdc0466a2b61a8b271aea40e11000f85ea04cb5faa835f10c5cf000e5"),
    (5, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (6, 0, "6cdd131f2f7e252fe4c0df102775e289ed35e8ac1cd20cc8ab15754e11c8244b"),
    (7, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (8, 0, "ef9382b235b77c47301530602e8ad0b71ecfab678bdc51b829dbffc42731ef70"),
    (9, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (10, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (11, 0, "0f2638beec1f3ffb4a9d91f3ffd9c9fd02e9d66192c24d661035c52ee9f24453"),
    (12, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (13, 0, "7f9aa91bd1459addb4861e6e2202823f076c6e1fbc393ea79497b815e12a2e74"),
    (14, 0, "5d9d488e4485dfb8e8a6caa0762055de3bb78902a35e36bfdef6e4768bbb11d1"),
    (15, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (16, 0, "f7e9fff47e20f3168adb98e55afb099564b24d0c6fcb074a309e6c1bdc98f644"),
    (17, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (18, 0, "1201b0bb06aaec1be918b72c1c7f7b85ea2fbb966092cad4a0dd7fafce30be07"),
    (19, 0, "ba14e4e6be1e675f4621455ced16d1ad5f7c5409931481f2ee13ce15cb99b05e"),
    (20, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (21, 0, "94d971b962086f482541b30250cbdc1f1ba569de807fb190ad41fa1b294d9b0a"),
    (22, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (23, 0, "d3f02a9adda0919a29e9d1df1e770f17d014138c51d94ab676d21326b3595e41"),
    (24, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (25, 0, "d909c89ee93177ad8b34884b003028675af69f4c36210dd09588044a9e2662aa"),
    (26, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (27, 0, "e4a201405c35b64b0551b5d3636f341db00322be71de62b7af83b5f6724b9a20"),
    (28, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (29, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (30, 0, "b370009278da21208f80dd0a1d7eae0048818e6b35cb908923e31c14f6e9351d"),
    (31, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (32, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (33, 0, "4141f5c0d11a4f15f5029ce29a64c910e97b8233dfb90518d6725da1046462a0"),
    (34, 0, "ce5f27102c6e47980b798b287da9b108c9219a2196e5d7aeb9e97f3d86733ea9"),
    (35, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (36, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (37, 0, "1ae47957d57da39a5b3e215d551bfcc611852112deaa8bb9ba415b0d6c8c1ced"),
    (38, 0, "6b717cc42415681658ac0128b0807b78e706638ead7387da50bfa6783b92218a"),
    (39, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (40, 0, "038f48db98ea4d9db78440e14be48e1413e921b1dad93dbee249bbc1ce6b41fa"),
    (41, 0, "092ca5872bf8dadf5b5da378ff9c4becc155fdcb5afff1e79fedb89868150e6b"),
    (42, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (43, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (44, 0, "527ad05d9b7123376a663c6b659646b49c8288800ed0fe17ca1d583384bd2fb8"),
    (45, 0, "9efb8ed636c6dbd9283dfb809f34fe6216e298fc8eb97759200e6118b45871b4"),
    (46, 0, "5fde8295a5c3c69b947560345418f5e547b9b9dbccf17b77a44b4e8d720e2888"),
    (47, 0, "eb5a2f93c2a568afd09d20eec828d6e4214f302b2ec4b6e43eee47b372196cf4"),
    (48, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (49, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (50, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (51, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (52, 0, "3feca29ddf87d9ccea40ba6b8081984ed66b9e4b7743db500fa789ecf951bd83"),
    (53, 0, "dfda94593acb0bb3282820f69b0e5b9380784c04ea56eb32bf33201603774224"),
    (54, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (55, 0, "2521d88db0603d4c7fe64049d000419155bc281f17c43429f38090a21c28c94d"),
    (56, 0, "c5e2900162a863c7c845d996583a6aa910f7d13ebfb49fbc5f1d721aeb9004cc"),
    (57, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (58, 0, "dbdc91c246d1b699023754409e646422d6e73804aad0550907df641db60b9a74"),
    (59, 0, "ea5d31db81077a78e652079ab2a4566390afea80dd3e502e4f912f80bd6523b7"),
]


class TestCertifyFrontierReports:
    """The JSON report of `certify --frontier`, with the proper-efficiency
    verdicts and witnesses of P and D at each frontier point, pinned by the
    sha256 of its stdout."""

    @pytest.mark.parametrize("i, digest", CERTIFY_FRONTIER_REPORTS)
    def test_report_digest(self, capsys, tmp_path, criterion_3_program, i, digest):
        path = tmp_path / f"program_{i}.json"
        p = criterion_3_program(i)
        path.write_text(emit_problem(p))
        code, out, err = run(capsys, ["certify", str(path), "--frontier", "--json"])
        assert (code, err) == (0, "")
        assert ('"he_eta"' in out and '"ghe_via": "he"' in out) == p.y_plus.is_pointed
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("i, exit_code, digest", CERTIFY_FRONTIER_RELAXED_REPORTS)
    def test_relaxed_report_digest(self, capsys, tmp_path, criterion_4_program, i,
                                   exit_code, digest):
        path = tmp_path / f"program_{i}.json"
        path.write_text(emit_problem(criterion_4_program(i)))
        code, out, err = run(capsys, ["certify", str(path), "--frontier", "--json"])
        assert code == exit_code
        empty = "error: EmptyFeasibleError: no feasible point at z = 0\n"
        assert err == (empty if code else "")
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


REPLAY_PINS = Path(__file__).with_name("cli_replay.json")


def replay_digests(capsys, tmp_path, programs):
    """run label -> [exit code, sha256 of stdout] over `programs`, (name,
    program) pairs: `certify --frontier --json`, then `classify --side both
    --json` and `frontier --side D --json` at each frontier point it
    certified."""
    out = {}

    def record(label, argv):
        code, text, _ = run(capsys, argv)
        out[label] = [code, hashlib.sha256(text.encode()).hexdigest()]
        return code, text

    for name, p in programs:
        path = tmp_path / f"{name}.json"
        path.write_text(emit_problem(p))
        code, text = record(f"{name} certify", ["certify", str(path), "--frontier", "--json"])
        if code:
            continue
        for cert in json.loads(text)["certificates"]:
            y0 = ",".join(cert["y0"])
            record(f"{name} classify {y0}",
                   ["classify", str(path), f"--y0={y0}", "--side", "both", "--json"])
            record(f"{name} dual frontier {y0}",
                   ["frontier", str(path), "--side", "D", f"--y0={y0}", "--json"])
    return out


def replay_programs(criterion_3_program, criterion_4_program):
    return [(f"c3-{i}", criterion_3_program(i)) for i in range(40)] + [
        (f"c4-{i}", criterion_4_program(i)) for i in range(20)
    ]


def test_cli_replay_is_byte_identical(capsys, tmp_path, criterion_3_program,
                                      criterion_4_program):
    """Every report of the replay, pinned by the sha256 of its stdout and its
    exit code in `cli_replay.json`: `certify --frontier` on criterion-3
    programs 0-39 and criterion-4 programs 0-19, and `classify --side both`
    and `frontier --side D` at each frontier point certified."""
    got = replay_digests(
        capsys, tmp_path, replay_programs(criterion_3_program, criterion_4_program)
    )
    pins = json.loads(REPLAY_PINS.read_text())
    assert len(pins) > 150
    assert got.keys() == pins.keys()
    assert [label for label in pins if got[label] != pins[label]] == []
