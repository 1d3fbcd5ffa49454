"""Command-line interface: schemas, reports, determinism, exit codes."""

import argparse
import json
import pathlib
import signal
import subprocess
import sys
from contextlib import contextmanager

import pytest

from fusionsys import catalog, cli, serialize, verify
from fusionsys.factor import factorize_all
from fusionsys.groups import p_part
from fusionsys.errors import (
    InternalInconsistency,
    NotCommuting,
    SuiteUnknown,
    UsageError,
)


def run_cli(argv):
    return cli.run(argv)


def test_catalog_list():
    code, report = run_cli(["catalog", "list"])
    assert code == 0
    names = [e["name"] for e in report["results"]["entries"]]
    assert "sigma3-cubed-paired" in names


def test_catalog_show_reverifies():
    code, report = run_cli(["catalog", "show", "sigma3-cubed-paired"])
    assert code == 0
    res = report["results"]
    assert res["prime"] == 3
    assert res["verified"]["order"] == 108
    assert res["group"]["points"] == 9


def test_group_describe_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps({"points": 4, "generators": [[[1, 2]], [[3, 4]]]})
    )
    code, report = run_cli(
        ["group", "describe", "--in", str(path), "--p", "2"]
    )
    assert code == 0
    res = report["results"]
    assert res["order"] == 4 and res["abelian"]
    assert res["sylow"] == [0, 1, 2, 3]


def test_analyze_catalog():
    code, report = run_cli(["analyze", "--catalog", "sigma3"])
    assert code == 0
    res = report["results"]
    assert res["saturated"] is True
    assert res["center"] == [0]
    assert res["focal"] == [0, 1, 2]
    assert "vacuous" in res["continuity"]


def test_fusion_export_import_round_trip(tmp_path):
    code, report = run_cli(["fusion", "of-group", "--catalog", "inner-d8"])
    assert code == 0
    data = report["results"]["fusion"]
    rebuilt = serialize.fusion_from_json(data)
    again = serialize.fusion_to_json(rebuilt)
    assert serialize.canonical_dumps(again) == serialize.canonical_dumps(data)


def test_generate_subcommand(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(
        json.dumps(
            {
                "group": {"points": 3, "generators": [[[1, 2, 3]]]},
                "p": 3,
                "generators": [{"domain": [0, 1, 2], "images": [0, 2, 1]}],
            }
        )
    )
    code, report = run_cli(["fusion", "generate", "--in", str(path)])
    assert code == 0
    table = report["results"]["fusion"]["hom_table"]
    assert table[1][1] == [[0, 1, 2], [0, 2, 1]]


def test_factorize_and_krs_round_trip(tmp_path):
    code, report = run_cli(
        ["factorize", "--catalog", "inner-c2c2", "--exhaustive"]
    )
    assert code == 0
    facts = report["results"]["factorizations"]
    assert report["results"]["count"] == 3
    f1 = tmp_path / "f1.json"
    f2 = tmp_path / "f2.json"
    f1.write_text(json.dumps(facts[0]))
    f2.write_text(json.dumps(facts[1]))
    code, report = run_cli(
        [
            "krs",
            "--catalog",
            "inner-c2c2",
            "--fact1",
            str(f1),
            "--fact2",
            str(f2),
        ]
    )
    assert code == 0
    cert = report["results"]["certificate"]
    assert cert["constructive"] is True
    assert sorted(cert["sigma"]) == [0, 1]


def test_each_input_file_is_read_once(tmp_path, monkeypatch):
    reads = []
    load_json = cli._load_json

    def counting(path):
        reads.append(path)
        return load_json(path)

    monkeypatch.setattr(cli, "_load_json", counting)
    group = tmp_path / "g.json"
    group.write_text(json.dumps({"points": 6, "generators": [[[1, 2, 3]], [[4, 5, 6]]]}))
    src = ["--in", str(group), "--p", "3"]
    code, report = run_cli(["factorize", *src, "--exhaustive"])
    assert code == 0 and report["results"]["count"] == 6
    assert reads == [str(group)]
    assert report["inputs"] == {"infile": serialize.digest(json.loads(group.read_text()))}

    paths = []
    for k, fact in enumerate(report["results"]["factorizations"][:2]):
        path = tmp_path / f"fact{k}.json"
        path.write_text(json.dumps({"parts": [q["base"] for q in fact["parts"]]}))
        paths.append(str(path))
    reads.clear()
    code, report = run_cli(["krs", *src, "--fact1", paths[0], "--fact2", paths[1]])
    assert code == 0
    assert reads == [str(group), *paths]
    assert report["inputs"] == {
        flag: serialize.digest(json.loads(pathlib.Path(path).read_text()))
        for flag, path in zip(("infile", "fact1", "fact2"), reads)
    }


def test_goldschmidt_command():
    code, report = run_cli(["goldschmidt", "--catalog", "sym4-c2"])
    assert code == 0
    assert report["results"]["closure_orders"] == [2, 24] or report[
        "results"
    ]["closure_orders"] == [24, 2]


def test_goldschmidt_command_builds_the_sylow_fusion_once(monkeypatch):
    from fusionsys import factor, fusion

    built = []
    fusion_of_group = fusion.fusion_of_group

    def counting(G, p, S=None):
        built.append(S is None)
        return fusion_of_group(G, p, S)

    monkeypatch.setattr(cli, "fusion_of_group", counting)
    monkeypatch.setattr(factor, "fusion_of_group", counting)
    code, _ = run_cli(["goldschmidt", "--catalog", "sym4-c2"])
    assert code == 0
    # F_S(G) once, and one table for the closure of each of the two parts
    assert built == [True, False, False]


def test_verify_command():
    code, report = run_cli(["verify", "group-core"])
    assert code == 0
    assert report["results"]["passed"] is True


def test_verify_failure_exits_one(monkeypatch):
    def broken():
        raise AssertionError("synthetic failure")

    monkeypatch.setitem(
        verify.SUITES, "group-core", [("synthetic", broken)]
    )
    code, report = run_cli(["verify", "group-core"])
    assert code == 1
    assert report["results"]["passed"] is False


def test_verify_fails_a_crashing_check_alone(monkeypatch):
    def crashing():
        raise IndexError("synthetic crash")

    checks = list(verify.SUITES["group-core"])
    checks.insert(1, ("crashing", crashing))
    monkeypatch.setitem(verify.SUITES, "group-core", checks)
    code, report = run_cli(["verify", "group-core"])
    assert code == 1
    results = report["results"]["checks"]
    assert [r["name"] for r in results] == [name for name, _ in checks]
    assert results[1] == {
        "name": "crashing", "passed": False, "detail": "IndexError: synthetic crash"
    }
    assert all(r["passed"] for r in results[:1] + results[2:])


@pytest.mark.parametrize(
    "parts",
    [None, [[0, 1], [0, 7]], [[0, 1, 2]]],
    ids=["foreign", "id-outside-base", "not-a-subgroup"],
)
def test_mathematical_rejection_exit_code(tmp_path, parts):
    if parts is None:  # a factorization of a different system
        code, report = run_cli(
            ["factorize", "--catalog", "inner-c2c4", "--exhaustive"]
        )
        fact = report["results"]["factorizations"][0]
    else:
        fact = {"parts": parts}
    f = tmp_path / "fact.json"
    f.write_text(json.dumps(fact))
    code, report = run_cli(
        ["krs", "--catalog", "inner-c2c2", "--fact1", str(f), "--fact2", str(f)]
    )
    assert code == 1
    assert report["error"]["code"] == "NotSubsystem"


@pytest.mark.parametrize("parts", [[], [[0], [0, 1, 2]]], ids=["no-parts", "trivial-part"])
def test_factorization_needs_a_part_and_no_trivial_one(tmp_path, parts):
    """Against the one-part factorization of sigma3 (S = C3), no parts at
    all and a trivial part beside S are mathematical rejections (exit 1),
    never read as S and never left for the certificate to trip over."""
    bad, whole = tmp_path / "bad.json", tmp_path / "whole.json"
    bad.write_text(json.dumps({"parts": parts}))
    whole.write_text(json.dumps({"parts": [[0, 1, 2]]}))
    code, report = run_cli(
        ["krs", "--catalog", "sigma3", "--fact1", str(bad), "--fact2", str(whole)]
    )
    assert (code, report["error"]["code"]) == (1, "NotSubgroup")


@pytest.mark.parametrize(
    "flag,data",
    [
        ("--fact", {"partz": []}),
        ("--fact", {"parts": [["a"]]}),
        ("--omega", {"mapz": []}),
    ],
    ids=["fact-missing-parts", "fact-non-integer-id", "omega-missing-maps"],
)
def test_malformed_input_json_is_a_usage_error(tmp_path, flag, data):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(data))
    if flag == "--fact":
        argv = ["krs", "--catalog", "inner-c2c2", "--fact1", str(f), "--fact2", str(f)]
    else:
        argv = ["factorize", "--catalog", "inner-c2c2", "--omega", str(f)]
    code, report = run_cli(argv)
    assert code == 2
    assert report["error"]["code"] == "UsageError"


C2 = {"generators": [[[1, 2]]], "points": 2}


@pytest.mark.parametrize(
    "command,data",
    [
        ("factorize", {"generators": [[1, 0]], "points": 2}),
        ("factorize", {"generators": [[[1, 2]]], "points": "two"}),
        ("factorize", {"cayley": 5}),
        ("factorize", {"generators": [[["a", 2]]], "points": 2}),
        ("analyze", {"hom_table": []}),
        ("analyze", {"p": 2, "base": C2, "hom_table": []}),
        ("analyze", {"p": 2, "base": C2, "subgroups": [[0], [0, 1]], "hom_table": 5}),
        ("analyze", 5),
    ],
    ids=[
        "generator-not-cycles",
        "points-not-integer",
        "cayley-not-table",
        "cycle-point-not-integer",
        "fusion-missing-p",
        "fusion-missing-subgroups",
        "hom-table-not-list",
        "input-not-an-object",
    ],
)
def test_malformed_group_or_fusion_json_is_a_usage_error(tmp_path, command, data):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(data))
    argv = [command, "--in", str(f)] + (["--p", "2"] if command == "factorize" else [])
    code, report = run_cli(argv)
    assert code == 2
    assert report["error"]["code"] == "UsageError"


CAYLEY_C2 = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "command,data,error",
    [
        ("group load", {"points": 0, "generators": [[]]}, "NotBijection"),
        ("group load", {"cayley": CAYLEY_C2, "generators": [5]}, "NotSubgroup"),
        ("group load", {"cayley": CAYLEY_C2, "generators": [-1]}, "NotSubgroup"),
        ("group load", {"cayley": []}, "NotSubgroup"),
        (
            "analyze",
            {"p": 2, "base": {"cayley": CAYLEY_C2, "generators": [5]},
             "subgroups": [[0], [0, 1]], "hom_table": []},
            "NotSubgroup",
        ),
        (
            "analyze",
            {"p": 5, "base": {"points": 5, "generators": [[[1, 2, 3, 4, 5]]]},
             "subgroups": [[0], [0, 1, 2, 3, 4]],
             "hom_table": [[[[0]], [[0]]], [[], [[0, 1, 2, 3, 4], [0, 2, 1, 3, 4]]]]},
            "NotSubgroup",
        ),
    ],
    ids=["no-points", "generator-above-table", "negative-generator", "empty-table",
         "fusion-base-generator-above-table", "fusion-map-not-a-homomorphism"],
)
def test_malformed_group_is_rejected_without_a_traceback(tmp_path, command, data, error):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(data))
    code, report = run_cli(command.split() + ["--in", str(f)])
    assert (code, report["error"]["code"]) == (1, error)
    assert "results" not in report
    assert "Traceback" not in report["error"]["message"]


def test_empty_required_input_path_is_a_usage_error(tmp_path):
    code, report = run_cli(["factorize", "--catalog", "inner-c2c2", "--exhaustive"])
    fact = tmp_path / "fact.json"
    parts = report["results"]["factorizations"][0]["parts"]
    fact.write_text(json.dumps({"parts": [q["base"] for q in parts]}))
    for argv in (
        ["krs", "--catalog", "inner-c2c2", "--fact1", "", "--fact2", str(fact)],
        ["krs", "--catalog", "inner-c2c2", "--fact1", str(fact), "--fact2", ""],
        ["fusion", "generate", "--in", ""],
    ):
        code, report = run_cli(argv)
        assert code == 2
        assert report["error"]["code"] == "UsageError"
        assert report["error"]["message"].startswith("cannot read JSON from : ")


@contextmanager
def _fails_after(seconds):
    """Turn a call that never returns into a test failure."""

    def timeout(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# a two-point group file: C2, whose only prime is 2
C2_GROUP = {"points": 2, "generators": [[[1, 2]]]}


@pytest.mark.parametrize("p", [4, 0, -2, 1])
@pytest.mark.parametrize(
    "command",
    [
        ["group", "describe"],
        ["fusion", "of-group"],
        ["fusion", "generate"],
        ["analyze"],
        ["factorize"],
        ["krs", "--fact1", "f.json", "--fact2", "f.json"],
    ],
    ids=["describe", "of-group", "generate", "analyze", "factorize", "krs"],
)
def test_non_prime_p_is_a_usage_error(tmp_path, command, p):
    f = tmp_path / "c2.json"
    f.write_text(json.dumps(C2_GROUP))
    # before the check, --p 1 spun forever in groups.p_part
    with _fails_after(10):
        code, report = run_cli(command + ["--in", str(f), "--p", str(p)])
    assert code == 2
    assert report["error"] == {"code": "UsageError", "message": f"--p {p} is not a prime"}


@pytest.mark.parametrize("p", [1, 0, -2])
def test_p_part_refuses_a_p_below_two(p):
    with _fails_after(10), pytest.raises(UsageError):
        p_part(8, p)


@pytest.mark.parametrize("p", [4, 0, -2, 1])
def test_non_prime_p_in_a_fusion_or_generate_file_is_a_usage_error(tmp_path, p):
    fusion_data = run_cli(["fusion", "of-group", "--catalog", "inner-c2"])[1]["results"]["fusion"]
    generate_data = {
        "group": C2_GROUP,
        "generators": [{"domain": [0, 1], "images": [0, 1]}],
    }
    for command, data in (("analyze", fusion_data), ("fusion generate", generate_data)):
        f = tmp_path / "input.json"
        f.write_text(json.dumps(dict(data, p=p)))
        with _fails_after(10):
            code, report = run_cli(command.split() + ["--in", str(f)])
        assert code == 2, command
        assert report["error"]["code"] == "UsageError", command


@pytest.mark.parametrize(
    "generators",
    [
        [{"foo": 1}],
        [{"domain": [0, 1], "images": ["a", 1]}],
        [{"domain": [0, 99], "images": [0, 1]}],
        [{"domain": [0, 1], "images": [0, 2]}],
        [5],
        {"x": 1},
    ],
    ids=["no-domain", "non-id-image", "domain-outside", "image-outside", "not-an-object",
         "not-a-list"],
)
def test_malformed_generator_specs_are_a_usage_error(tmp_path, generators):
    f = tmp_path / "gen.json"
    f.write_text(json.dumps({"group": C2_GROUP, "p": 2, "generators": generators}))
    code, report = run_cli(["fusion", "generate", "--in", str(f)])
    assert code == 2
    assert report["error"]["code"] == "UsageError"


def test_omega_image_outside_the_group_is_rejected(tmp_path):
    group = tmp_path / "c2c2.json"
    group.write_text(json.dumps({"points": 4, "generators": [[[1, 2]], [[3, 4]]]}))
    omega = tmp_path / "om.json"
    omega.write_text(json.dumps({"maps": [[0, 1, 2, 99]]}))
    code, report = run_cli(["factorize", "--in", str(group), "--p", "2", "--omega", str(omega)])
    assert code == 1
    assert report["error"]["code"] == "NotSubgroup"


def test_usage_error_exit_code():
    code, report = run_cli(["analyze"])
    assert code == 2
    assert report["error"]["code"] == "UsageError"


def test_unknown_suite_exit_code():
    with pytest.raises(SystemExit):  # argparse rejects the choice
        run_cli(["verify", "nonsense"])


SOURCE_FLAGS = {"--catalog", "--in", "--out", "--p", "--timings"}
COMMON_FLAGS = {"--out", "--timings"}

# each command: its option strings, its positionals, its required flags,
# and a command line that parses
COMMAND_FLAGS = {
    "group load": (SOURCE_FLAGS, [], set(), []),
    "group describe": (SOURCE_FLAGS, [], set(), []),
    "fusion of-group": (SOURCE_FLAGS, [], set(), []),
    "fusion generate": ({"--in", "--out", "--p", "--timings"}, [], {"--in"}, ["--in", "g"]),
    "analyze": (SOURCE_FLAGS, [], set(), []),
    "factorize": (SOURCE_FLAGS | {"--exhaustive", "--omega"}, [], set(), []),
    "krs": (
        SOURCE_FLAGS | {"--fact1", "--fact2", "--omega"},
        [],
        {"--fact1", "--fact2"},
        ["--fact1", "a", "--fact2", "b"],
    ),
    "goldschmidt": ({"--catalog", "--in", "--out", "--timings"}, [], set(), []),
    "verify": (COMMON_FLAGS, ["suite"], set(), ["all"]),
    "catalog list": (COMMON_FLAGS, [], set(), []),
    "catalog show": (COMMON_FLAGS, ["name"], set(), ["sigma3"]),
}


def _commands(parser, path=()):
    """(name, parser) of every command under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, path + (name,))
            return
    yield " ".join(path), parser


def test_every_command_keeps_its_flags():
    parser = cli.build_parser()
    found = {}
    for name, sub in _commands(parser):
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        flags = {s for a in actions for s in a.option_strings}
        positionals = [a.dest for a in actions if not a.option_strings]
        required = {a.option_strings[0] for a in actions if a.option_strings and a.required}
        found[name] = (flags, positionals, required)
    assert found == {name: spec[:3] for name, spec in COMMAND_FLAGS.items()}
    for name, (*_, tail) in COMMAND_FLAGS.items():
        args = parser.parse_args(name.split() + tail)
        for attr in ("infile", "fact1", "fact2", "omega", "catalog", "p"):
            assert hasattr(args, attr), (name, attr)


def test_suite_names_match_the_verify_suites():
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))


def test_cli_loads_verify_only_for_the_verify_command():
    probe = (
        "import sys; from fusionsys import cli; "
        "cli.run(['catalog', 'show', 'sigma3']); "
        "print('fusionsys.verify' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["False"]


def test_exit_code_attributes():
    assert UsageError("x").exit_code == 2
    assert InternalInconsistency("x").exit_code == 3
    assert NotCommuting("x").exit_code == 1
    assert SuiteUnknown("x").exit_code == 2


def test_report_determinism_in_process():
    reports = [
        serialize.canonical_dumps(run_cli(["analyze", "--catalog", "inner-d8"])[1])
        for _ in range(3)
    ]
    assert len(set(reports)) == 1


def test_report_determinism_subprocess():
    outs = set()
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "fusionsys", "catalog", "show", "sigma3"],
            capture_output=True,
            text=True,
            check=True,
        )
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    rc = cli.main(["analyze", "--catalog", "sigma3", "--out", str(target)])
    assert rc == 0
    data = json.loads(target.read_text())
    assert data["results"]["saturated"] is True


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", "--catalog", "sigma3"], 0),
        (["goldschmidt", "--catalog", "sigma3"], 1),
        (["analyze"], 2),
    ],
)
def test_main_prints_the_run_report(argv, code, capsys):
    expected_code, report = cli.run(argv)
    assert expected_code == code
    assert cli.main(argv) == code
    assert capsys.readouterr().out == serialize.canonical_dumps(report) + "\n"


def test_main_returns_argparse_exit_code(capsys):
    with pytest.raises(SystemExit):
        cli.run(["verify", "no-such-suite"])
    capsys.readouterr()
    assert cli.main(["verify", "no-such-suite"]) == 2
    assert capsys.readouterr().out == ""


def test_timings_flag_is_opt_in():
    _, plain = run_cli(["analyze", "--catalog", "sigma3"])
    assert "timings" not in plain
    _, timed = run_cli(["analyze", "--catalog", "sigma3", "--timings"])
    assert "timings" in timed
    assert timed["results"] == plain["results"]
    assert timed["hash"] == plain["hash"]


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.json"
    assert cli.main(["analyze", "--catalog", "sigma3", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"fusionsys: error: cannot write JSON to {target}: ")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


# -- one parser per process ------------------------------------------------------


def mixed_sequence(tmp_path):
    """Command lines that mix the subcommands, leave off flags given just
    before, and put a usage error (``verify no-such-suite``) in the middle."""
    F = catalog.built("inner-c3c3").fusion
    facts = factorize_all(F)
    paths = []
    for k, fact in enumerate((facts[0], facts[-1])):
        path = tmp_path / f"fact{k}.json"
        path.write_text(json.dumps({"parts": [list(q.base.members) for q in fact.parts]}))
        paths.append(str(path))
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps({"maps": [[F.base.inv(x) for x in range(F.base.order)]]}))
    src = ["--catalog", "inner-c3c3"]
    krs = ["krs", *src, "--fact1", paths[0], "--fact2", paths[1]]
    return [
        ["group", "describe", *src, "--p", "3"],
        ["fusion", "of-group", *src],
        ["analyze", *src],
        ["factorize", *src, "--exhaustive"],
        ["factorize", *src],
        [*krs, "--omega", str(omega)],
        krs,
        ["verify", "no-such-suite"],
        ["analyze", "--catalog", "sigma3", "--timings"],
        ["analyze", "--catalog", "sigma3"],
    ]


def test_one_parser_serves_a_mixed_sequence(tmp_path, monkeypatch):
    namespaces = []
    execute = cli._execute

    def recording(argv, args):
        namespaces.append(dict(vars(args)))
        return execute(argv, args)

    monkeypatch.setattr(cli, "_execute", recording)
    parser = cli._parser()
    runs = []
    for argv in mixed_sequence(tmp_path):
        if argv[0] == "verify":
            with pytest.raises(SystemExit):
                cli.run(argv)
            continue
        runs.append((argv, cli.run(argv), namespaces[-1]))
    assert cli._PARSER is parser
    assert len(runs) == len(namespaces) == 9

    by_command = {tuple(argv): ns for argv, _, ns in runs}
    assert [ns["exhaustive"] for argv, _, ns in runs if argv[0] == "factorize"] == [True, False]
    assert [ns["omega"] is None for argv, _, ns in runs if argv[0] == "krs"] == [False, True]
    assert by_command[("analyze", "--catalog", "sigma3")]["timings"] is False
    for argv, (code, report), ns in runs:
        assert code == 0, (argv, report.get("error"))
        # nothing is left over from an earlier call
        assert ns == vars(cli.build_parser().parse_args(argv))
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh_code, fresh_report = cli.run(argv)
        # the wall clock of --timings is the one field that may differ
        assert ("timings" in report) == ("timings" in fresh_report) == ("--timings" in argv)
        report.pop("timings", None)
        fresh_report.pop("timings", None)
        assert (code, report) == (fresh_code, fresh_report)


def test_two_runs_build_the_parser_once(monkeypatch, tmp_path, capsys):
    builds = []
    build_parser = cli.build_parser

    def counting_build():
        builds.append(1)
        return build_parser()

    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.run(["catalog", "list"])
    per_build = len(constructed)
    assert per_build > 1
    cli.run(["analyze", "--catalog", "sigma3"])

    parses = []
    parse_args = cli._PARSER.parse_args

    def counting_parse(argv):
        parses.append(argv)
        return parse_args(argv)

    monkeypatch.setattr(cli._PARSER, "parse_args", counting_parse)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--catalog", "sigma3", "--out", str(out)]) == 0
    assert cli.main(["catalog", "list"]) == 0
    capsys.readouterr()
    assert (len(builds), len(constructed)) == (1, per_build)
    assert len(parses) == 2


def test_importing_the_cli_builds_no_parser():
    probe = "\n".join(
        [
            "import argparse",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counting(self, *args, **kwargs):",
            "    built.append(1)",
            "    init(self, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counting",
            "from fusionsys import cli",
            "print(len(built), cli._PARSER is None)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["0", "True"]
