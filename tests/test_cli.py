"""Exit codes, output contracts, and determinism of the command line."""

import hashlib
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from morsekit import (
    SupportTooLarge,
    build_polytope,
    cones,
    enumerate_types,
    tropical,
    validate_support,
)
from morsekit.cli import main

from conftest import time_limit

MIXED = '{"A": [-3, -1, 1, 2, 4], "gamma": [3, 5, 2, 5, 1]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extract_morse_exit_zero(capsys):
    code, out, _ = run(capsys, "extract", MIXED)
    assert code == 0
    assert "W: [-3, -1, 2, 4]" in out
    assert "Z: [1, 0, 2]" in out
    assert "M^2: [1, -1, -3]" in out
    assert "class: morse" in out


def test_extract_json_format(capsys):
    code, out, _ = run(capsys, "extract", MIXED, "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["W"] == [-3, -1, 2, 4]
    assert blob["roots"] == [-1, 0, 2]
    assert blob["values"] == [6, 5, 9]


def test_extract_degenerate_exit_two(capsys):
    code, out, _ = run(capsys, "extract", '{"A": [1,2,5], "gamma": [0,0,0]}')
    assert code == 2
    assert "caustic" in out


def test_extract_degenerate_witness_pair_printed(capsys):
    code, out, _ = run(
        capsys,
        "extract",
        '{"A": [-3,-1,1,2,4], "gamma": [3,5,2,5,4]}',
        "--format",
        "json",
    )
    assert code == 2
    blob = json.loads(out)
    assert blob["class"] == "maxwell"
    assert blob["maxwell_witness"]["roots"] == [0, 2]


def test_malformed_input_exit_one(capsys):
    code, _, err = run(capsys, "extract", "not json at all")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "extract", '{"A": [1,2,5]}')
    assert code == 1  # gamma required
    code, _, err = run(capsys, "extract", '{"A": [2,4,8], "gamma": [1,2,3]}')
    assert code == 1  # invalid support
    for support in ("5", "null"):  # not a list: a typed error, no traceback
        code, out, err = run(capsys, "extract", '{"A": %s}' % support)
        assert code == 1 and out == "" and err.startswith("error: support must be a list")


def test_integer_literal_past_the_digit_limit_exit_one(capsys):
    # json.loads refuses an integer of more than 4,300 digits with a ValueError
    gamma = "[%s,1,2,3]" % ("9" * 5000)
    code, out, err = run(capsys, "extract", '{"A": [1,2,3,4], "gamma": %s}' % gamma)
    assert code == 1 and out == ""
    assert err.startswith("error: invalid JSON input") and "4300 digits" in err


def test_root_past_the_digit_limit_exit_one(capsys):
    # the roots of this gamma have numerators and denominators that Python
    # will not turn into more than 4,300 decimal digits
    sevens, threes = "7" * 4000, "3" * 3999 + "1"
    gamma = [f"1/{sevens}", f"5/{threes}", f"2/{sevens}", f"1/{threes}"]
    payload = json.dumps({"A": [1, 2, 3, 4], "gamma": gamma})
    code, out, err = run(capsys, "extract", payload, "--format", "json")
    assert code == 1 and out == ""
    assert err == "error: a number has more than 4300 digits\n"


@pytest.mark.parametrize("argv", [["fiber", "--format", "svg"], ["plot"]])
def test_drawing_past_the_float_range_exit_one(capsys, argv):
    # 10^320 lattice units times 40 pixels each is past the largest float
    payload = '{"A": [1, 2, 3, 4], "gamma": [1, %d, 3, 1]}' % 10**320
    code, out, err = run(capsys, argv[0], payload, *argv[1:])
    assert code == 1 and out == ""
    assert err == "error: the drawing is too large for float coordinates\n"


HUGE = '{"A": [1, 2, 3, %d]}' % (10**60 + 1)


@pytest.mark.parametrize("command", ["polytope", "enumerate", "verify"])
def test_support_entry_of_61_digits(capsys, command):
    # the forms' coefficients reach 10^60, so every shift eps >= 2^-198 of
    # a witness leaves its cone, and the ladder must go on to smaller eps
    code, out, err = run(capsys, command, HUGE, "--format", "json")
    assert code == 0 and err == ""
    if command == "enumerate":
        assert json.loads(out)["count"] == 10


def test_witness_left_on_a_slope_tie_exit_one(capsys, monkeypatch):
    # every candidate's extract reports the slopes of (1, 2) and (3, 4) tied
    monkeypatch.setattr(
        "morsekit.tropical.slope_groups", lambda points, values: [[(1, 2), (3, 4)]]
    )
    code, out, err = run(capsys, "polytope", '{"A": [1, 2, 3, 4]}')
    assert code == 1 and out == ""
    assert err == "error: could not move a cone's witness off the slope ties\n"


@pytest.mark.parametrize(
    "gamma,shown",
    [("[1,2,3,-1]", "[1, 2, 3, -1]"), ('[1,"1/2",3,"-1/3"]', '[1, "1/2", 3, "-1/3"]')],
)
def test_negative_entry_shown_in_the_wire_format(capsys, gamma, shown):
    code, out, err = run(capsys, "mu", '{"A":[1,2,3,4],"gamma":%s}' % gamma)
    assert code == 1 and out == ""
    assert err == f"error: negative entries not allowed: {shown}\n"


def test_rational_gamma_strings(capsys):
    code, out, _ = run(
        capsys,
        "mu",
        '{"A": [-3,-1,1,2,4], "gamma": ["6/2", "5/1", "2", "5", "1"]}',
        "--shift",
        "0,0",
    )
    assert code == 0 and "mu = 394" in out


def test_mu_golden(capsys):
    code, out, _ = run(capsys, "mu", MIXED, "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["mu"] == 394
    assert blob["vertex"] == [37, 15, 2, 33, 39]


def test_polytope_unit_interval(capsys):
    code, out, _ = run(
        capsys,
        "polytope",
        '{"A": [1, 2, 3, 4]}',
        "--shift",
        "unit-interval",
        "--format",
        "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert sorted(map(tuple, blob["vertices"])) == sorted(
        [(4, 0, 0, 6), (0, 2, 8, 0), (1, 0, 9, 0), (0, 5, 2, 3), (2, 3, 0, 5)]
    )
    assert blob["d1"] == 10 and blob["d2"] == 28


def test_file_input(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(MIXED)
    code, out, _ = run(capsys, "strata", str(path), "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob == {
        "2A1": 170,
        "A2": 54,
        "chi_A1": -506,
        "parity_ok": True,
        "shift": [0, 0],
    }


def test_cj_dual_route_report(capsys):
    code, out, _ = run(capsys, "cj", MIXED, "--format", "json")
    assert code == 0
    rows = json.loads(out)["corrections"]
    assert rows[2]["coeffs"] == [0, 0, 2, -3, 1]
    assert rows[2]["value"] == -10
    assert rows[2]["level_route_value"] == -10
    assert rows[2]["i_sequence"] == [2, 2, 2, 2, 2, 1]
    assert rows[2]["ladder"][:3] == [2, 1, 1]


def test_cj_rational_input_uses_scaled_level_route(capsys):
    code, out, _ = run(
        capsys,
        "cj",
        '{"A": [-3,-1,1,2,4], "gamma": [3, 5, "5/2", 5, 1]}',
        "--format",
        "json",
    )
    assert code == 0
    rows = json.loads(out)["corrections"]
    for row in rows:
        assert row["value"] == row["level_route_value"]
        assert "i_sequence" not in row


def test_cj_large_integer_covector(capsys):
    # about 3.4 * 10^12 lattice levels: text needs no sequence, and the JSON
    # one is refused instead of exhausting memory
    big = '{"A": [2,3,4,6], "gamma": [%d,%d,%d,%d]}' % tuple(
        v * 10**6 for v in (889313, 32852, 831187, 868050)
    )
    with time_limit(5):
        code, out, _ = run(capsys, "cj", big, "--format", "text")
        assert code == 0 and out.startswith("C^0: value=-3404581000000 ")
        code, out, err = run(capsys, "cj", big, "--format", "json")
        assert code == 1 and out == "" and "i_sequences" in err


def test_fiber_svg(capsys):
    code, out, _ = run(capsys, "fiber", MIXED, "--format", "svg")
    assert code == 0
    assert out.count('class="base"') == 4
    # the README covector's drawing, byte for byte: outline and bases
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "81ec39b8b65f546196b82805ef2bf4d5dddb4334564ccb58e33b88a797ae691b"
    )


def test_fiber_json_and_text(capsys):
    code, out, _ = run(capsys, "fiber", MIXED, "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["bases"] == [58, 43, 31, 13]
    assert blob["heights"] == [3, 2, 2]
    assert blob["volume_closed"] == blob["volume_trapezoids"] == 539
    code, out, _ = run(capsys, "fiber", MIXED, "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "bases: [58, 43, 31, 13]",
        "heights: [3, 2, 2]",
        "volume: 539",
    ]


def test_svg_subcommands_agree(capsys):
    support = '{"A": [-3,-1,1,2,4]}'
    _, polytope_svg, _ = run(capsys, "polytope", support, "--format", "svg")
    _, plot_svg, _ = run(capsys, "plot", support)
    assert polytope_svg == plot_svg and polytope_svg.startswith("<svg")
    _, fiber_svg, _ = run(capsys, "fiber", MIXED, "--format", "svg")
    _, plot_svg, _ = run(capsys, "plot", MIXED)
    assert fiber_svg == plot_svg and fiber_svg.startswith("<svg")


def test_axes_flag(capsys):
    support = '{"A": [-3,-1,1,2,4]}'
    code, default, _ = run(capsys, "polytope", support, "--format", "svg")
    assert code == 0
    code, chosen, _ = run(
        capsys, "polytope", support, "--format", "svg", "--axes", "1,2"
    )
    assert code == 0 and chosen.startswith("<svg") and chosen != default
    for axes in ("1", "1,2,3", "a,b"):
        code, out, err = run(
            capsys, "polytope", support, "--format", "svg", "--axes", axes
        )
        assert code == 1 and out == "" and "--axes must be 'i,j'" in err


def test_enumerate_output(capsys):
    code, out, _ = run(capsys, "enumerate", '{"A": [1,2,3,4]}', "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == len(blob["types"]) >= 5


def test_verify_passes_and_is_deterministic(capsys):
    args = ("verify", '{"A": [-3,-1,1,2,4]}', "--samples", "12", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("pass ") == 5


def test_verify_failure_exits_three(capsys, monkeypatch):
    import morsekit.verify as verify_mod

    # sabotage one route: any property failure must surface as exit code 3
    monkeypatch.setattr(
        verify_mod, "c_value_via_levels", lambda *args: Fraction(12345)
    )
    code, out, _ = run(
        capsys, "verify", '{"A": [-3,-1,1,2,4]}', "--samples", "3", "--seed", "7"
    )
    assert code == 3
    assert "FAIL cj_dual_route" in out
    assert "counterexample" in out
    # the counterexample's covector and detail, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "61aeb36f7b78b6ab29a4de247f425caba418fdcdc080f7e1b27c85aad3028bb1"
    )


def test_verify_checks_the_shared_area_against_the_edge_sums(capsys, monkeypatch):
    import morsekit.verify as verify_mod

    # the one shoelace area each sample computes feeds the fiber and strata
    # checks; the edge-sum route must still catch it when it is wrong
    real = verify_mod.area_newton
    monkeypatch.setattr(verify_mod, "area_newton", lambda s, g: real(s, g) + 1)
    code, out, _ = run(
        capsys, "verify", '{"A": [-3,-1,1,2,4]}', "--samples", "3", "--seed", "7"
    )
    assert code == 3
    assert "FAIL newton_area_dual_route: 0 ok, 3 bad" in out
    # the trapezoid stack reads the same area; the closed form does not
    assert "FAIL fiber_volume_dual_route: 0 ok, 3 bad" in out
    # the counts solved from that area disagree with |A2| from the cone's form
    assert "FAIL strata_consistency: 0 ok, 3 bad" in out
    assert "'eq1=False eq2=False eq3=False parity=False'" in out


@pytest.mark.parametrize("shift", ["1,0", "0,1"])
def test_verify_passes_under_odd_shifts(capsys, shift):
    # an odd c1 or c2 makes 2*n_2a1 odd on some covectors; that is the
    # convention, not a fault
    code, out, _ = run(
        capsys, "verify", '{"A": [1,2,3,4]}', "--samples", "20", "--seed", "5",
        "--shift", shift,
    )
    assert code == 0
    assert out.count("pass ") == 5


def test_verify_seed_changes_output(capsys):
    _, out1, _ = run(
        capsys, "verify", '{"A": [1,2,3,4]}', "--samples", "5", "--seed", "1",
        "--format", "json",
    )
    _, out2, _ = run(
        capsys, "verify", '{"A": [1,2,3,4]}', "--samples", "5", "--seed", "2",
        "--format", "json",
    )
    assert json.loads(out1)["seed"] == 1
    assert json.loads(out2)["seed"] == 2


@pytest.mark.parametrize(
    "argv,sha256",
    [
        (
            # 12 resamples: pins the sampler's draws as well as the checks
            ('{"A": [-3,-1,1,2,4]}', "--samples", "60", "--seed", "13",
             "--format", "json"),
            "857ca71298b41e1fa6c984ee8aa620df6b2bff4a48120c6192e13b0ba247a3e3",
        ),
        (
            ('{"A": [1,2,3,4,5]}', "--samples", "40", "--seed", "3",
             "--format", "json"),
            "14aba35d94faa2835ba1ddc86e2ff2c9c996de265bfe71806aea824820e6b57d",
        ),
        (
            ('{"A": [2,3,4,6]}', "--samples", "40", "--seed", "5",
             "--shift", "1,0", "--format", "json"),
            "91dec137de0a47c147e775a6cffb7f939f254e223381a10fd8a69a967d3e03d5",
        ),
        (
            ('{"A": [-3,-1,1,2,4]}', "--samples", "30", "--seed", "7",
             "--shift", "3,-1", "--format", "text"),
            "3168ec5d878f35db95f4624cee811f9f4b3a53df3d8b2c005b59adcbccd1f8f4",
        ),
    ],
    ids=["mixed-resamples", "positive", "odd-shift", "text"],
)
def test_verify_stdout_bytes_pinned(capsys, argv, sha256):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_samples_cap(capsys, monkeypatch):
    import morsekit.cli as cli_mod
    from morsekit.verify import SuiteResult

    cap = cli_mod._MAX_SAMPLES
    assert cap == 10**5
    # one past the cap refuses before the polytope is built
    monkeypatch.setattr(cli_mod, "_polytope", lambda *args: pytest.fail("built"))
    code, out, err = run(
        capsys, "verify", '{"A": [1,2,3,4]}', "--samples", str(cap + 1)
    )
    assert code == 1 and out == "" and f"--samples must be <= {cap}" in err
    # the cap itself is accepted; a stub suite stands in for the long run
    monkeypatch.undo()
    seen = []

    def stub(polytope, samples, seed):
        seen.append(samples)
        return SuiteResult(polytope.support, seed, samples)

    monkeypatch.setattr(cli_mod, "run_property_suite", stub)
    code, out, _ = run(capsys, "verify", '{"A": [1,2,3,4]}', "--samples", str(cap))
    assert code == 0 and seen == [cap]
    assert out == f"seed=0 samples={cap} resamples=0\n"


def test_jobs_env_is_ignored(capsys, monkeypatch):
    serial = run(capsys, "enumerate", '{"A": [1,2,3,4]}')
    assert serial[0] == 0 and serial[2] == ""
    monkeypatch.setenv("MORSEKIT_JOBS", "abc")
    assert run(capsys, "enumerate", '{"A": [1,2,3,4]}') == serial


@pytest.mark.parametrize(
    "support,sha256",
    [
        (
            "[1,2,3,4]",
            "f21eb93e13fa3465991146313446550b0c518042b9e973f688c2d19d7cfbc931",
        ),
        (
            "[-3,-1,1,2,4]",
            "954d3d5ea7058819f271eae193da0cd51ba0a5191e97cf6c248f740fde58cc28",
        ),
        (
            "[1,2,3,4,5]",
            "6374c5d288540b458710c1ea01feb8b8d48e544014097de8be26836d53811d08",
        ),
        (
            "[2,3,4,6]",
            "b8e9b50c4b530a3b4892312fa3753c00034c4a6370b1ef1e40972f65344c1683",
        ),
        (
            "[1,2,3,4,5,6]",
            "9a67a6b88704cd4abdb0977e68309bbcf07fb4456475f980019444b97114401a",
        ),
        (
            "[-3,-1,1,2,4,5]",
            "dab45a04ff1cc86c65a71301440ba6ebdbe01ca029611c48fa72d73b77e143ca",
        ),
        (
            # Z-form coefficients near 10^10 make the simplex fields wide
            "[1,2,3,100000]",
            "971099718f390efdc66a4b274aded8935ad23661a042512b76733abae7530cf4",
        ),
    ],
)
def test_polytope_json_bytes_pinned(capsys, support, sha256):
    # vertices, cone table and witnesses, byte for byte
    code, out, _ = run(capsys, "polytope", '{"A": %s}' % support, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


class _TreeWork(Exception):
    pass


def _grow_no_tree(*args):
    raise _TreeWork


def _cli_route(*argv):
    def build(capsys, points):
        code, out, err = run(capsys, argv[0], json.dumps({"A": points}), *argv[1:])
        return code, "" if code == 0 else out + err

    return build


def _library_route(function):
    def build(capsys, points):
        try:
            function(validate_support(points))
        except SupportTooLarge as exc:
            return 1, f"error: {exc}\n"
        return 0, ""

    return build


# route -> the largest |A| it builds, and a call returning (exit code, stderr)
CAPPED_ROUTES = {
    "enumerate": (7, _cli_route("enumerate")),
    "polytope --format json": (7, _cli_route("polytope", "--format", "json")),
    "polytope --format text": (7, _cli_route("polytope", "--format", "text")),
    "enumerate_types": (7, _library_route(enumerate_types)),
    "build_polytope(keys=False)": (7, _library_route(build_polytope)),
    "verify": (8, _cli_route("verify", "--samples", "5")),
    "plot": (8, _cli_route("plot")),
    "polytope --format svg": (8, _cli_route("polytope", "--format", "svg")),
    "build_polytope(keys=True)": (
        8,
        _library_route(lambda support: build_polytope(support, keys=True)),
    ),
}


@pytest.mark.parametrize("route", CAPPED_ROUTES)
def test_each_tree_has_its_own_support_cap(capsys, monkeypatch, route):
    # the fine tree takes |A| <= 7 and the key tree |A| <= 8; past the cap a
    # build is refused before any tree work, and at the cap it starts one
    cap, build = CAPPED_ROUTES[route]
    monkeypatch.setattr(cones, "_subdivision_types", _grow_no_tree)
    message = f"error: support of size {cap + 1} exceeds the cap {cap}\n"
    assert build(capsys, list(range(1, cap + 2))) == (1, message)
    with pytest.raises(_TreeWork):
        build(capsys, list(range(1, cap + 1)))
    monkeypatch.undo()
    if cap == 8:  # a key build at the cap takes well under a second
        assert build(capsys, list(range(1, cap + 1))) == (0, "")


def test_plot_polytope(capsys):
    code, out, _ = run(
        capsys, "plot", '{"A": [1,2,3,4]}', "--shift", "unit-interval"
    )
    assert code == 0
    assert out.count('class="vertex"') == 5


@pytest.mark.parametrize(
    "argv,sha256",
    [
        (
            ["polytope", '{"A": [-3,-1,1,2,4,5]}', "--format", "svg"],
            "afdc433502878bc52ae092773e0763b959e5cd4f8e5b6a062e4d03956d0f1643",
        ),
        (
            ["plot", '{"A": [1,2,3,4,5,6]}', "--shift", "unit-interval"],
            "5cc7cf778297bf21fbec26c3b0dafab739de95ebbbe9a44e357cf2170ed41dd0",
        ),
    ],
)
def test_polytope_drawing_bytes_pinned(capsys, argv, sha256):
    # built from drop keys, byte for byte the drawings of the fine cone table
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_drawings_build_from_drop_keys(capsys, monkeypatch):
    # a drawing reads only the vertices, so it never enumerates the fine
    # types; the json and text cone tables still do
    def refuse(*args, **kwargs):
        raise AssertionError("the fine types were enumerated")

    monkeypatch.setattr("morsekit.polytope.enumerate_types", refuse)
    support = '{"A": [-3,-1,1,2,4]}'
    code, polytope_svg, _ = run(capsys, "polytope", support, "--format", "svg")
    assert code == 0 and polytope_svg.startswith("<svg")
    assert run(capsys, "plot", support) == (0, polytope_svg, "")
    for fmt in ("json", "text"):
        with pytest.raises(AssertionError, match="fine types"):
            main(["polytope", support, "--format", fmt])


def test_key_builds_start_no_process_pool(capsys, monkeypatch):
    # every build runs in this process: the key tree at |A| = 7, and the
    # fine tree of `enumerate` and `polytope --format json|text`
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
    support = '{"A": [1,2,3,4,5,6,7]}'
    code, out, err = run(capsys, "verify", support, "--samples", "5")
    assert code == 0 and out.startswith("seed=0 samples=5") and err == ""
    code, polytope_svg, err = run(capsys, "polytope", support, "--format", "svg")
    assert code == 0 and polytope_svg.startswith("<svg") and err == ""
    assert run(capsys, "plot", support) == (0, polytope_svg, "")
    support = '{"A": [1,2,3,4]}'
    code, out, err = run(capsys, "enumerate", support)
    assert code == 0 and out.startswith("8 types\n") and err == ""
    for fmt in ("json", "text"):
        code, out, err = run(capsys, "polytope", support, "--format", fmt)
        assert code == 0 and out and err == ""


def test_samples_must_be_positive(capsys):
    code, _, err = run(capsys, "verify", '{"A": [1,2,3,4]}', "--samples", "0")
    assert code == 1 and "--samples must be >= 1" in err


def run_usage(capsys, *argv):
    """Exit code, stdout and stderr of an invocation argparse ends."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("extract", MIXED, "--jobs", "2"),
        ("extract", MIXED, "--format", "svg"),
        ("mu", MIXED, "--samples", "3"),
        ("cj", MIXED, "--seed", "1"),
        ("fiber", MIXED, "--shift", "0,0"),
        ("enumerate", '{"A": [1,2,3,4]}', "--shift", "0,0"),
        ("strata", MIXED, "--axes", "0,1"),
        ("plot", '{"A": [1,2,3,4]}', "--format", "json"),
        ("verify", '{"A": [1,2,3,4]}', "--jobs", "2"),
        ("plot", '{"A": [1,2,3,4]}', "--jobs", "2"),
        ("enumerate", '{"A": [1,2,3,4]}', "--jobs", "2"),
        ("polytope", '{"A": [1,2,3,4]}', "--jobs", "1"),
        ("polytope", '{"A": [1,2,3,4]}', "--format", "svg", "--jobs", "1"),
        ("enumerate", '{"A": [1,2,3,4]}', "--max-support-size", "7"),
        ("polytope", '{"A": [1,2,3,4]}', "--max-support-size", "7"),
        ("verify", '{"A": [1,2,3,4]}', "--max-support-size", "7"),
        ("plot", '{"A": [1,2,3,4]}', "--max-support-size", "7"),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[2:]),
)
def test_flag_the_subcommand_does_not_read_exits_one(capsys, argv):
    # reported by the subcommand's parser, whose usage lists what it reads
    code, out, err = run_usage(capsys, *argv)
    assert code == 1 and out == "" and "error:" in err
    assert err.startswith(f"usage: morsekit {argv[0]} ")


@pytest.mark.parametrize(
    "argv",
    [
        ("extract", MIXED, "--bogus"),
        ("extract", MIXED, "--format", "xml"),
        ("verify", '{"A": [1,2,3,4]}', "--samples", "abc"),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[2:]),
)
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run_usage(capsys, *argv)
    assert code == 1 and out == "" and "usage:" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_usage(capsys, "verify", "--help")
    assert code == 0 and "--samples" in out


def test_one_parser_answers_like_fresh_ones(capsys, monkeypatch):
    # main parses every call with one parser; a usage error before and after
    # a valid command reads as it does from a parser built for each call
    import morsekit.cli as cli_mod

    assert cli_mod._parser() is cli_mod._parser()
    sequence = (
        ("verify", '{"A": [1,2,3,4]}', "--samples", "abc"),
        ("verify", '{"A": [1,2,3,4]}', "--samples", "5", "--seed", "2"),
        ("polytope", "no-such-input.json", "--max-support-size", "2"),
        ("verify", '{"A": [1,2,3,4]}', "--samples", "abc"),
    )

    def answers():
        out = []
        for argv in sequence:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out.append((code, *capsys.readouterr()))
        return out

    shared = answers()
    monkeypatch.setattr(cli_mod, "_parser", cli_mod.build_parser)
    fresh = answers()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 1, 1]
    assert shared[0] == shared[3] and "usage:" in shared[0][2]


def test_main_runs_the_handler_bound_when_it_is_called(capsys, monkeypatch):
    # the shared parser holds no handler: rebinding a `cmd_*` after the
    # parser is built (a tracer, a monkeypatch) reaches main, and undoing it
    # restores the original
    import morsekit.cli as cli_mod

    argv = ["verify", '{"A": [1,2,3,4]}', "--samples", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    seen = []
    monkeypatch.setattr(
        cli_mod, "cmd_verify", lambda args: seen.append(args.samples) or 7
    )
    assert main(argv) == 7 and seen == [3]
    monkeypatch.undo()
    assert main(argv) == 0 and capsys.readouterr().out == first
    assert "func" not in vars(cli_mod._parser().parse_args(argv))


def _readme_examples():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["morsekit"]:
                if len(words) > 2 and words[-2] == ">":
                    words = words[:-2]
                yield words[1:]


README_EXAMPLES = list(_readme_examples())


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 9


def test_readme_extract_output(capsys):
    # the installed console script is compared with this block in CI
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"The first example prints:\n\n```text\n(.*?)```", readme, re.S)
    assert README_EXAMPLES[0][0] == "extract"
    code, out, _ = run(capsys, *README_EXAMPLES[0])
    assert code == 0 and out == block.group(1)


def test_extract_builds_two_root_tables(capsys, monkeypatch):
    # the classification and the printed roots and values share one table;
    # `extract` builds the other, in the integers it sorts by
    built = []
    root_table = tropical._root_table

    def counting(*args):
        built.append(args)
        return root_table(*args)

    monkeypatch.setattr(tropical, "_root_table", counting)
    code, _, _ = run(capsys, *README_EXAMPLES[0])
    assert code == 0 and len(built) == 2


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=lambda argv: argv[0])
def test_readme_example_runs(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip()
