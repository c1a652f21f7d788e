import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import synchromata
import synchromata.reset as reset_mod
from synchromata import ConsistencyError, StateSet, Word, b_series, cerny, m_series
from synchromata.cli import main
from synchromata.io import from_json, to_json, to_text
from synchromata.replication import ClaimResult


@pytest.fixture
def b8_path(tmp_path):
    path = tmp_path / "b8.json"
    path.write_text(to_json(b_series(4)))
    return str(path)


def test_gen_json_round_trips(capsys):
    assert main(["gen", "--family", "m-series", "--size", "5"]) == 0
    out = capsys.readouterr().out
    assert from_json(out) == m_series(5)


def test_gen_to_file_and_formats(tmp_path):
    out = tmp_path / "m5.dot"
    assert main(["gen", "--family", "m-series", "--size", "5",
                 "--format", "dot", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph")
    out2 = tmp_path / "m5.txt"
    assert main(["gen", "--family", "m-series", "--size", "5",
                 "--format", "text", "-o", str(out2)]) == 0
    assert out2.read_text() == to_text(m_series(5))


def test_analyze(b8_path, capsys):
    assert main(["analyze", b8_path]) == 0
    out = capsys.readouterr().out
    assert "states: 8" in out
    assert "strongly connected: yes" in out
    assert "synchronizing: yes" in out
    assert "reset length:" in out


def test_analyze_text_input(tmp_path, capsys):
    path = tmp_path / "m4.txt"
    path.write_text(to_text(m_series(4)))
    assert main(["analyze", str(path)]) == 0
    assert "reset length: 7" in capsys.readouterr().out


def test_analyze_non_synchronizing_input(tmp_path, capsys):
    path = tmp_path / "spin.txt"
    path.write_text("2 1\n2 1\n")
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "synchronizing: no" in out
    assert "reset length" not in out


def test_extend(b8_path, capsys):
    assert main(["extend", b8_path, "--set", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "shortest extending length: 11" in out
    assert "word: " in out


def test_profile(tmp_path, capsys):
    path = tmp_path / "m4.json"
    path.write_text(to_json(m_series(4)))
    assert main(["profile", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cardinality 1:" in out
    assert "profile:" in out


def test_avoid(b8_path, capsys):
    assert main(["avoid", b8_path, "--state", "8"]) == 0
    assert "shortest avoiding length: 10" in capsys.readouterr().out


def test_images(b8_path, capsys):
    assert main(["images", b8_path]) == 0
    assert "reachable images: 240" in capsys.readouterr().out
    assert main(["images", b8_path, "--list"]) == 0
    assert "{q1, q2}" in capsys.readouterr().out


def test_images_counts_without_building_sets(b8_path, monkeypatch, capsys):
    assert main(["images", b8_path, "--list"]) == 0
    listed = capsys.readouterr().out
    built = []
    original = StateSet.from_mask.__func__

    def counted(cls, mask, n):
        built.append(mask)
        return original(cls, mask, n)

    monkeypatch.setattr(StateSet, "from_mask", classmethod(counted))
    assert main(["images", b8_path]) == 0
    assert built == []
    out = capsys.readouterr().out
    assert out == "reachable images: 240\n"
    assert listed.startswith(out)


def test_images_list_builds_no_tuple_of_sets(b8_path, monkeypatch, capsys):
    import synchromata.cli as cli_mod
    import synchromata.extension as ext

    expected = "reachable images: 240\n" + "".join(
        f"  {s}\n" for s in ext.reachable_images(b_series(4)))

    def refuse(dfa):
        raise AssertionError("images --list built reachable_images")

    monkeypatch.setattr(ext, "reachable_images", refuse)
    monkeypatch.setattr(cli_mod, "reachable_images", refuse, raising=False)
    assert main(["images", b8_path, "--list"]) == 0
    assert capsys.readouterr().out == expected


def test_layers_trace_prints_from_the_masks(tmp_path, monkeypatch, capsys):
    layers = reset_mod.inverse_layers(m_series(5)).layers
    expected = "".join(
        f"L_{i}: {' '.join(map(str, layer))}\n" for i, layer in enumerate(layers)
    ) + "full set reached at layer 13\n"

    def refuse(trace):
        raise AssertionError("layers --trace read LayerTrace.layers")

    monkeypatch.setattr(reset_mod.LayerTrace, "layers", property(refuse))
    path = tmp_path / "m5.json"
    path.write_text(to_json(m_series(5)))
    assert main(["layers", "--trace", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_conjecture(b8_path, capsys):
    assert main(["conjecture", b8_path]) == 0
    out = capsys.readouterr().out
    assert "worst length: 11" in out
    assert "11/8" in out


def test_layers(tmp_path, capsys):
    path = tmp_path / "m5.json"
    path.write_text(to_json(m_series(5)))
    assert main(["layers", str(path)]) == 0
    assert "full set reached at layer 13" in capsys.readouterr().out
    assert main(["layers", str(path), "--trace"]) == 0
    out = capsys.readouterr().out
    assert "L_0: {q2}" in out


def test_layers_and_analyze_agree_on_one_state(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("1 1\n1\n")
    assert main(["layers", str(path), "--trace"]) == 0
    out = capsys.readouterr().out
    assert "L_0: {q1}" in out
    assert "full set reached at layer 0" in out
    assert main(["analyze", str(path)]) == 0
    assert "reset length: 0" in capsys.readouterr().out


def test_verify_paper(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify-paper", "--max-m", "5", "--max-n", "5",
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "claims passed" in out
    assert "FAIL" not in out
    data = json.loads(report.read_text())
    assert all(r["status"] in ("pass", "bound-ok") for r in data)
    assert {"claim_id", "parameter", "expected", "computed", "status", "witness"} \
        <= set(data[0])


def test_verify_paper_prints_each_claim_as_it_is_computed(monkeypatch, capsys):
    import synchromata.replication as replication

    def claims(params):
        yield ClaimResult("first", 3, 1, 1, "pass")
        # the second claim is computed only once the first one is printed
        assert capsys.readouterr().out == "PASS     first(3): computed=1 expected=1\n"
        yield ClaimResult("second", 3, 1, 1, "pass")

    monkeypatch.setattr(replication, "SUITE", [
        replication.Check(lambda top: list(claims(range(3, top + 1))), "n", 3, claims)])
    assert main(["verify-paper", "--max-m", "5", "--max-n", "4"]) == 0
    assert capsys.readouterr().out == (
        "PASS     second(3): computed=1 expected=1\n2/2 claims passed\n")


def test_bad_cap_leaves_an_existing_report_alone(tmp_path, capsys):
    report = tmp_path / "r.json"
    report.write_text("[]\n")
    assert main(["verify-paper", "--max-m", "3", "--json", str(report)]) == 2
    assert report.read_text() == "[]\n"
    assert "max_m >= 5" in capsys.readouterr().err


@pytest.mark.parametrize("interrupted", [True, False], ids=["interrupted", "complete"])
def test_report_is_replaced_only_when_complete(tmp_path, monkeypatch, interrupted):
    import synchromata.cli as cli_mod

    report = tmp_path / "r.json"
    report.write_text("[]\n")
    if interrupted:
        def stopped(max_m, max_n):
            assert [p.name for p in tmp_path.iterdir()] != ["r.json"]  # opened first
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "iter_claims", stopped)
    code = main(["verify-paper", "--max-m", "5", "--max-n", "4", "--json", str(report)])
    if interrupted:
        assert code == 130
        assert report.read_bytes() == b"[]\n"
    else:
        assert code == 0
        assert len(json.loads(report.read_text())) > 1
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_a_directory_as_report_path_fails_before_any_claim(tmp_path, capsys):
    assert main(["verify-paper", "--json", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp_path}'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def c3_path(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(to_json(cerny(3)))
    return str(path)


def test_analyze_runs_the_forward_search_once(c3_path, monkeypatch, capsys):
    calls = []
    original = reset_mod.shortest_reset_word

    def counting(dfa):
        calls.append(dfa)
        return original(dfa)

    monkeypatch.setattr(reset_mod, "shortest_reset_word", counting)
    assert main(["analyze", c3_path]) == 0
    assert "reset length: 4" in capsys.readouterr().out
    assert len(calls) == 1


def test_analyze_runs_the_sync_fixpoint_once(tmp_path, monkeypatch, capsys):
    import synchromata.automaton as automaton_mod
    import synchromata.extension as extension_mod

    path = tmp_path / "m5.json"
    path.write_text(to_json(m_series(5)))
    calls = []
    original = automaton_mod._synchronizes

    def counting(dfa, letters):
        letters = list(letters)
        if letters == list(range(dfa.k)):
            calls.append(dfa)
        return original(dfa, letters)

    monkeypatch.setattr(automaton_mod, "_synchronizes", counting)
    monkeypatch.setattr(extension_mod, "_synchronizes", counting)
    assert main(["analyze", str(path)]) == 0
    assert "irreducibly synchronizing: yes" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": 2, "alphabet": ["a"], "delta": [[1.0, 2]]}',
        '{"n": true, "alphabet": ["a"], "delta": [[true]]}',
    ],
    ids=["float-entry", "bool-n"],
)
def test_analyze_rejects_non_integer_tables(tmp_path, doc, capsys):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["analyze", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "states:" not in out
    assert "error:" in err


@pytest.mark.parametrize(
    "error, code, message",
    [
        (ValueError("bad input"), 2, "error: bad input"),
        (ConsistencyError("methods disagree"), 1, "error: methods disagree"),
        (MemoryError(), 3, "error: out of memory"),
        (KeyboardInterrupt(), 130, "error: interrupted"),
    ],
    ids=["value-error", "consistency-error", "memory-error", "interrupt"],
)
def test_errors_map_to_exit_codes(c3_path, monkeypatch, capsys, error, code, message):
    import synchromata.cli as cli_mod

    def failing(args):
        raise error

    monkeypatch.setattr(cli_mod, "cmd_analyze", failing)
    assert main(["analyze", c3_path]) == code
    err = capsys.readouterr().err
    assert err.strip() == message


def _disagree(monkeypatch):
    original = reset_mod.shortest_reset_word
    monkeypatch.setattr(
        reset_mod, "shortest_reset_word", lambda dfa: original(dfa) + Word([0])
    )


def _no_letters(monkeypatch):
    import synchromata.families as families

    def boom(*args):
        raise AssertionError("a letter was built")

    monkeypatch.setattr(families, "_cycle", boom)


def _failing_claim(monkeypatch):
    import synchromata.cli as cli_mod

    monkeypatch.setattr(cli_mod, "iter_claims", lambda max_m, max_n: iter([
        ClaimResult("demo", 3, 7, 5, "fail", None)]))


# {c3}: cerny(3); {big}: 25 states, over the mask width; {one}: one state;
# {broken}: malformed JSON;
# {wide}: 30 letters, the last row one entry short;
# {missing}: no such file; {nodir}: a path in a directory that does not exist.
# A row's optional fourth entry is a text the run must print.
EXIT_CODES = [
    ([], None, 2),
    (["frobnicate"], None, 2),
    (["gen", "--family", "nosuch", "--size", "3"], None, 2),
    (["gen", "--family", "cerny", "--size", "4"], None, 0),
    (["gen", "--family", "cerny", "--size", "4", "-o", "{nodir}"], None, 2),
    (["gen", "--family", "cerny", "--size", "1"], None, 2),
    (["gen", "--family", "b-series", "--size", "2"], None, 2, "parameter"),
    (["gen", "--family", "cerny", "--size", "1000000000"], _no_letters, 2, "parameter <= 24"),
    (["analyze", "{c3}"], None, 0),
    (["analyze", "{missing}"], None, 2),
    (["analyze", "{broken}"], None, 2),
    (["analyze", "{deep}"], None, 2, "nested too deeply"),
    (["analyze", "{wide}"], None, 2, "expected 2 entries, got 1"),
    (["analyze", "{c3}", "--limit", "5"], None, 2),
    (["analyze", "{c3}"], _disagree, 1, "forward search found 5, layer search found 4"),
    (["extend", "{c3}", "--set", "1,2"], None, 0),
    (["extend", "{c3}", "--set", "1,x"], None, 2),
    (["extend", "{c3}", "--set", "1,99"], None, 2),
    (["extend", "{missing}", "--set", "1"], None, 2),
    (["profile", "{c3}"], None, 0),
    (["profile", "{big}"], None, 2, "mask width"),
    (["profile", "{one}"], None, 2, "single-state"),
    (["profile", "{c3}", "--bound", "30"], None, 2),
    (["profile", "{missing}"], None, 2),
    (["avoid", "{c3}", "--state", "1"], None, 0),
    (["avoid", "{c3}", "--state", "9"], None, 2),
    (["avoid", "{missing}", "--state", "1"], None, 2),
    (["images", "{c3}"], None, 0),
    (["images", "{missing}"], None, 2),
    (["conjecture", "{c3}"], None, 0),
    (["conjecture", "{big}"], None, 2, "mask width"),
    (["conjecture", "{one}"], None, 2, "single-state"),
    (["conjecture", "{c3}", "--bound", "30"], None, 2),
    (["conjecture", "{missing}"], None, 2),
    (["layers", "{c3}", "--trace"], None, 0),
    (["layers", "{missing}"], None, 2),
    (["layers", "{c3}", "--limit", "5"], None, 2),
    (["verify-paper", "--max-m", "5", "--max-n", "4"], None, 0),
    (["verify-paper", "--max-m", "5", "--max-n", "4", "--json", "{nodir}"], None, 2),
    (["verify-paper"], _failing_claim, 1, "FAIL     demo(3)"),
]


ROWS = [row if len(row) == 4 else (*row, None) for row in EXIT_CODES]


@pytest.mark.parametrize(
    "argv, patch, code, message", ROWS,
    ids=[(" ".join(argv) or "(no command)") + (f" [{patch.__name__}]" if patch else "")
         for argv, patch, _, _ in ROWS],
)
def test_exit_code_table(tmp_path, monkeypatch, capsys, argv, patch, code, message):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 25, "alphabet": ["a"], "delta": [[1] * 25]}))
    c3 = tmp_path / "c3.json"
    c3.write_text(to_json(cerny(3)))
    one = tmp_path / "one.txt"
    one.write_text("1 1\n1\n")
    broken = tmp_path / "broken.json"
    broken.write_text("{broken")
    deep = tmp_path / "deep.json"
    deep.write_text('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n": 2, "alphabet": [chr(0x100 + i) for i in range(30)],
                                "delta": [[1, 2]] * 29 + [[1]]}))
    paths = {"c3": c3, "big": big, "one": one, "broken": broken, "deep": deep, "wide": wide,
             "missing": tmp_path / "nope.json",
             "nodir": tmp_path / "nodir" / "out.json"}
    if patch:
        patch(monkeypatch)
    assert main([a.format(**paths) for a in argv]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert err.count("error:") == 1
    if code == 2:  # usage and input errors are caught before any output
        assert out == ""
    if message:
        assert message in out + err


def test_package_runs_as_a_module(tmp_path):
    src = Path(synchromata.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-m", "synchromata", "gen", "--family", "cerny", "--size", "4"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert from_json(done.stdout) == cerny(4)


# one valid call per subcommand, on {c3}: cerny(3)
SUBCOMMANDS = {
    "gen": ["--family", "cerny", "--size", "3"],
    "analyze": ["{c3}"],
    "extend": ["{c3}", "--set", "1,2"],
    "profile": ["{c3}"],
    "avoid": ["{c3}", "--state", "1"],
    "images": ["{c3}", "--list"],
    "conjecture": ["{c3}"],
    "layers": ["{c3}", "--trace"],
    "verify-paper": ["--max-m", "5", "--max-n", "4"],
}


def test_every_subcommand_dispatches_by_name(c3_path, monkeypatch):
    import synchromata.cli as cli_mod

    usage = cli_mod.build_parser().format_usage()
    assert re.search(r"\{([^}]*)\}", usage).group(1).split(",") == list(SUBCOMMANDS)
    assert {name for name in vars(cli_mod) if name.startswith("cmd_")} \
        == {"cmd_" + name.replace("-", "_") for name in SUBCOMMANDS}
    for name, rest in SUBCOMMANDS.items():
        seen = []
        monkeypatch.setattr(cli_mod, "cmd_" + name.replace("-", "_"),
                            lambda args: seen.append(args.command) or 7)
        assert main([name, *(a.format(c3=c3_path) for a in rest)]) == 7
        assert seen == [name]


def test_parser_is_built_once_and_outlives_a_usage_error(c3_path, capsys):
    import synchromata.cli as cli_mod

    assert main(["analyze"]) == 2
    assert "required: automaton" in capsys.readouterr().err
    assert main(["analyze", c3_path]) == 0
    assert "reset length: 4" in capsys.readouterr().out
    assert cli_mod.build_parser() is cli_mod.build_parser()


@pytest.mark.parametrize("argv", [["--help"], ["verify-paper", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == first
    assert first.out.startswith("usage: synchromata") and first.err == ""


def test_calls_in_one_process_print_what_a_fresh_process_prints(c3_path, monkeypatch,
                                                                capsys):
    """Each subcommand, run after every other in one process, prints what
    it prints as the only command of a new process, which parses once."""
    monkeypatch.setenv("COLUMNS", "80")
    calls = [["--help"], ["analyze"]] + [
        [name, *(a.format(c3=c3_path) for a in rest)] for name, rest in SUBCOMMANDS.items()]
    here = []
    for argv in calls:
        here.append((main(argv), *capsys.readouterr()))
    src = Path(synchromata.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    script = ("import json, sys, contextlib, io\n"
              "import synchromata.cli as cli\n"
              "assert cli.build_parser.cache_info().currsize == 0\n"  # none at import
              "out, err = io.StringIO(), io.StringIO()\n"
              "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "    code = cli.main(json.loads(sys.argv[1]))\n"
              "print(json.dumps([code, out.getvalue(), err.getvalue()]))\n")
    for argv, mine in zip(calls, here):
        done = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert tuple(json.loads(done.stdout)) == mine, argv
