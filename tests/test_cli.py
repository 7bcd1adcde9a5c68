import hashlib
import json
import pathlib
import subprocess
import sys

from voracious.automaton import SHOWN_CHARS

GROUPS = pathlib.Path(__file__).resolve().parent.parent / "groups"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "voracious", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def group(name):
    return str(GROUPS / f"{name}.json")


def test_reduce():
    r = run_cli("reduce", "--group", group("a2"), "stss")
    assert r.returncode == 0
    assert r.stdout == "st\nlength: 2\n"
    r = run_cli("reduce", "--group", group("a2"), "tst")
    assert r.stdout == "sts\nlength: 3\n"


def test_reduce_empty_word():
    r = run_cli("reduce", "--group", group("a2"), "")
    assert r.returncode == 0
    assert r.stdout == "\nlength: 0\n"


def test_project():
    r = run_cli("project", "--group", group("d_infinity"), "sts")
    assert r.returncode == 0
    assert r.stdout == "sts -> st -> s -> id\nblocks: s|t|s\n"
    r = run_cli("project", "--group", group("a2"), "sts")
    assert r.stdout == "sts -> id\nblocks: sts\n"


def test_walls():
    r = run_cli("walls", "--group", group("d_infinity"), "sts")
    assert r.returncode == 0
    assert r.stdout == "(3, 2)\n"


def test_small_roots():
    r = run_cli("small-roots", "--group", group("b2"))
    assert r.returncode == 0
    assert r.stdout == "(0, 1)\n(2c, 1)\n(1, 0)\n(1, 2c)\n"


def test_small_roots_of_334_frozen():
    # Saved automata store roots in this rendering's basis, so it is frozen.
    r = run_cli("small-roots", "--group", group("triangle_334"))
    assert r.returncode == 0
    assert r.stdout == (
        "(0, 8c^3-6c, 1)\n(0, 0, 1)\n(0, 1, 8c^3-6c)\n(0, 1, 0)\n"
        "(1, 0, 0)\n(1, 0, 1)\n(1, 1, 0)\n"
    )


def _group_file(tmp_path, generators, orders):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"generators": list(generators), "m": orders}))
    return str(path)


def test_small_roots_of_237_frozen(tmp_path):
    # Degree 12 (modulus 42): terms up to c^10, and negative leading terms.
    cfg = _group_file(tmp_path, "abc", [[1, 2, 3], [2, 1, 7], [3, 7, 1]])
    r = run_cli("small-roots", "--group", cfg)
    assert r.returncode == 0
    c6 = "64c^6-96c^4+36c^2-2"
    c10 = "-1024c^10+2560c^8-2176c^6+720c^4-80c^2+2"
    assert r.stdout.splitlines() == [
        f"({c6}, 1, {c6})",
        f"({c6}, {c10}, {c6})",
        f"(0, {c6}, 1)",
        f"(0, {c6}, {c10})",
        "(0, 0, 1)",
        f"(0, 1, {c6})",
        "(0, 1, 0)",
        f"(0, {c10}, {c6})",
        f"(0, {c10}, {c10})",
        f"(1, {c6}, 1)",
        "(1, 0, 0)",
        "(1, 0, 1)",
    ]


def test_small_roots_of_h535_frozen(tmp_path):
    # Degree 8 (modulus 30): a second field with c^k terms.
    orders = [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 5], [2, 2, 5, 1]]
    r = run_cli("small-roots", "--group", _group_file(tmp_path, "abcd", orders))
    assert r.returncode == 0
    assert len(r.stdout.splitlines()) == 32
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
        "e343ff6989ce8a7aed842a3ae0a43586464f80b78263ea57589de3656864e775"
    )


def test_member_exit_codes():
    assert run_cli("member", "--group", group("d_infinity"), "sts").returncode == 0
    assert run_cli("member", "--group", group("d_infinity"), "stt").returncode == 1
    assert run_cli("member", "--group", group("a2"), "tst").returncode == 0
    assert run_cli("member", "--group", group("a2"), "ss").returncode == 1


def test_accept_after_build():
    assert run_cli("accept", "--group", group("a2"), "sts").returncode == 0
    assert run_cli("accept", "--group", group("a2"), "stst").returncode == 1


def test_accept_from_automaton_file(tmp_path):
    aut_file = tmp_path / "dinf.json"
    r = run_cli(
        "automaton",
        "--group",
        group("d_infinity"),
        "--format",
        "json",
        "--out",
        str(aut_file),
    )
    assert r.returncode == 0
    assert aut_file.exists()
    assert run_cli(
        "accept", "--group", group("d_infinity"),
        "--automaton", str(aut_file), "stst",
    ).returncode == 0
    assert run_cli(
        "accept", "--group", group("d_infinity"),
        "--automaton", str(aut_file), "sst",
    ).returncode == 1


def test_accept_rejects_bad_root_in_automaton_file(tmp_path):
    aut_file = tmp_path / "t334.json"
    r = run_cli(
        "automaton", "--group", group("triangle_334"),
        "--format", "json", "--out", str(aut_file),
    )
    assert r.returncode == 0
    data = json.loads(aut_file.read_text())
    data["universe"][1] = ["1", "-1", "0"]
    aut_file.write_text(json.dumps(data))
    r = run_cli(
        "accept", "--group", group("triangle_334"),
        "--automaton", str(aut_file), "abc",
    )
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr


def test_accept_rejects_malformed_automaton_file(tmp_path):
    aut_file = tmp_path / "a2.json"
    r = run_cli(
        "automaton", "--group", group("a2"), "--format", "json", "--out", str(aut_file)
    )
    assert r.returncode == 0
    good = json.loads(aut_file.read_text())
    no_pivots = {k: v for k, v in good.items() if k != "pivots"}
    bad_start = dict(good, start=7)
    bad_modulus = dict(good, cos_denominator=99)
    extra_key = dict(good, comment="hand edited")
    for data in (no_pivots, [good], bad_start, bad_modulus, extra_key):
        aut_file.write_text(json.dumps(data))
        r = run_cli(
            "accept", "--group", group("a2"), "--automaton", str(aut_file), "st"
        )
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr


def test_accept_rejects_duplicate_key_in_automaton_file(tmp_path):
    aut_file = tmp_path / "a2.json"
    r = run_cli(
        "automaton", "--group", group("a2"), "--format", "json", "--out", str(aut_file)
    )
    assert r.returncode == 0
    # The file's own "format" repeated with its own value: still refused.
    text = aut_file.read_text()
    assert text.startswith("{\n")
    aut_file.write_text('{\n  "format": "voracious-automaton-4",' + text[1:])
    r = run_cli("accept", "--group", group("a2"), "--automaton", str(aut_file), "st")
    assert r.returncode == 2
    assert r.stderr == "error: duplicate key 'format' in a JSON object\n"


def test_generator_name_with_comma_exits_2(tmp_path):
    # Such a name could not round-trip through a word or an automaton file,
    # so the group file is refused before anything is built.
    cfg = tmp_path / "comma.json"
    cfg.write_text(json.dumps({"generators": [",", "b"], "m": [[1, 3], [3, 1]]}))
    for args in (("automaton", "--format", "json"), ("accept", "b")):
        r = run_cli(args[0], "--group", str(cfg), *args[1:])
        assert r.returncode == 2
        assert r.stderr == "error: generator names must not contain ','\n"
        assert r.stdout == ""


def test_generator_name_of_another_type_exits_2(tmp_path):
    # Checked before the names are compared, which hashes them.
    cfg = tmp_path / "list_name.json"
    cfg.write_text(json.dumps({"generators": [["a"], "b"], "m": [[1, 3], [3, 1]]}))
    r = run_cli("small-roots", "--group", str(cfg))
    assert r.returncode == 2
    assert r.stderr == "error: generator names must be nonempty strings\n"
    assert r.stdout == ""


def test_accept_rejects_pivots_not_prefix_closed(tmp_path):
    # bcbca steps down its right descent a to bcbc.  A file without bcbc is
    # refused, and so is one without bcbca, which no pivot extends: a file
    # loads only if it holds every pivot of the group.
    aut_file = tmp_path / "t334.json"
    r = run_cli(
        "automaton", "--group", group("triangle_334"),
        "--format", "json", "--out", str(aut_file),
    )
    assert r.returncode == 0
    data = json.loads(aut_file.read_text())
    for dropped in ("bcbc", "bcbca"):
        i = data["pivots"].index(dropped)
        pivots = data["pivots"][:i] + data["pivots"][i + 1:]
        aut_file.write_text(json.dumps({**data, "pivots": pivots}))
        r = run_cli(
            "accept", "--group", group("triangle_334"),
            "--automaton", str(aut_file), "bcbca",
        )
        got = json.dumps(pivots[i]) if i < len(pivots) else "null"
        assert r.returncode == 2
        assert r.stderr == (
            f"error: pivots entry {i} is {got}, but the group's automaton "
            f'writes "{dropped}"\n'
        )
        assert r.stdout == ""


def test_accept_rejects_deeply_nested_automaton_file(tmp_path):
    # Deeper than the JSON parser's recursion allows: an input error, not a
    # crash whose exit code 1 would read as "reject".
    aut_file = tmp_path / "deep.json"
    aut_file.write_text("[" * 100_000 + "]" * 100_000)
    r = run_cli("accept", "--group", group("a2"), "--automaton", str(aut_file), "st")
    assert r.returncode == 2
    assert r.stderr == "error: invalid JSON: nested too deeply\n"


def test_accept_refusal_of_a_deep_universe_entry_is_short(tmp_path):
    # An entry nested 970 lists deep parses, and is refused with its text
    # cut to SHOWN_CHARS characters rather than some 2,000.
    aut_file = tmp_path / "a2.json"
    r = run_cli(
        "automaton", "--group", group("a2"), "--format", "json", "--out", str(aut_file)
    )
    assert r.returncode == 0
    data = json.loads(aut_file.read_text())
    data["universe"][0] = "deep"
    # Spliced in as text: json.dumps would recurse once per level.
    text = json.dumps(data).replace('"deep"', "[" * 970 + "]" * 970)
    aut_file.write_text(text)
    r = run_cli("accept", "--group", group("a2"), "--automaton", str(aut_file), "st")
    assert r.returncode == 2
    assert r.stderr == (
        "error: universe entry 0 is " + "[" * SHOWN_CHARS + "…, but the "
        'group\'s automaton writes ["0", "1"]\n'
    )


def test_automaton_dot_stdout():
    r = run_cli("automaton", "--group", group("d_infinity"))
    assert r.returncode == 0
    assert r.stdout.startswith("digraph voracious {")
    assert r.stdout.count("->") == 5


def test_automaton_deterministic_bytes(tmp_path):
    outs = []
    for i in range(2):
        f = tmp_path / f"aut{i}.json"
        r = run_cli(
            "automaton", "--group", group("triangle_333"),
            "--format", "json", "--out", str(f),
        )
        assert r.returncode == 0
        outs.append(f.read_bytes())
    assert outs[0] == outs[1]
    data = json.loads(outs[0])
    assert data["format"] == "voracious-automaton-4"
    assert len(data["pivots"]) == 15


def test_verify_json_report(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli(
        "verify", "--group", group("a2"), "--radius", "3", "--out", str(out)
    )
    assert r.returncode == 0
    assert "overall: pass" in r.stderr
    data = json.loads(out.read_text())
    assert data["constants"]["C_hat"] == 3
    statuses = {c["name"]: c["status"] for c in data["checks"]}
    assert statuses["projection-unique-maximum"] == "pass"


def test_verify_stdout_deterministic():
    a = run_cli("verify", "--group", group("d_infinity"), "--radius", "4")
    b = run_cli("verify", "--group", group("d_infinity"), "--radius", "4")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_verify_stats_go_to_stderr_only():
    # --stats adds check times and memo sizes to stderr; stdout is the same
    # report, byte for byte.
    plain = run_cli("verify", "--group", group("triangle_333"), "--radius", "4")
    stats = run_cli(
        "verify", "--group", group("triangle_333"), "--radius", "4", "--stats"
    )
    assert plain.returncode == stats.returncode == 0
    assert stats.stdout == plain.stdout
    assert stats.stderr.startswith(plain.stderr)
    extra = stats.stderr[len(plain.stderr):].splitlines()
    names = [line.split(":")[0] for line in extra]
    assert names[:7] == [
        "time check_unique_max",
        "time estimate_constants",
        "time check_constants_monotone",
        "time check_projection_monotone",
        "time check_fellow_traveller",
        "time check_automaton_agreement",
        "time check_separator_sampling",
    ]
    assert {"coxeter.elements", "coxeter.walls", "coxeter.reflections"} <= set(names)
    assert "walls.inversion_sets" in names and "walls.walls" not in names
    assert "separators.incident_chambers" in names
    assert "walls.incident_chambers" not in names
    assert "time" not in plain.stderr


OUT_COMMANDS = (("verify", "--radius", "4"), ("automaton", "--format", "json"))


def test_unwritable_out_fails_before_group_work(tmp_path):
    # An --out in a missing folder, under a file, or naming a folder, is
    # refused with exit 2 and one error line: no check runs, and the group
    # file is not read (a missing one would be the error otherwise).
    (tmp_path / "file").write_text("")
    outs = [tmp_path / "missing" / "r.json", tmp_path / "file" / "r.json", tmp_path]
    for out in map(str, outs):
        for name, *rest in OUT_COMMANDS:
            for group_file in (group("triangle_334"), str(tmp_path / "none.json")):
                r = run_cli(name, "--group", group_file, *rest, "--out", out)
                assert r.returncode == 2
                assert r.stdout == ""
                assert r.stderr == f"error: cannot write --out {out!r}\n"


def test_existing_out_file_is_kept_on_a_group_error(tmp_path):
    # The early check does not open the file, so an error after it leaves
    # the file as it was.
    out = tmp_path / "r.json"
    out.write_text("kept\n")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    for name, *rest in OUT_COMMANDS:
        r = run_cli(name, "--group", str(bad), *rest, "--out", str(out))
        assert r.returncode == 2
        assert r.stderr.startswith("error: invalid JSON")
        assert out.read_text() == "kept\n"


def test_usage_errors():
    assert run_cli("reduce", "--group", group("a2"), "sx").returncode == 2
    assert run_cli("reduce", "--group", str(GROUPS / "nope.json"), "s").returncode == 2
    assert run_cli("automaton", "--group", group("a2"), "--format", "x").returncode == 2
    assert run_cli("bogus-command").returncode == 2
    assert run_cli("reduce").returncode == 2  # --group is required
    assert run_cli("verify", "--group", group("a2"), "--radius", "-1").returncode == 2
    # no check samples, so verify takes no seed
    assert run_cli("verify", "--group", group("a2"), "--seed", "1").returncode == 2
    assert (
        run_cli("accept", "--group", group("a2"), "--automaton", "missing.json", "s")
        .returncode
        == 2
    )


def test_bad_group_file_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": ["s", "t"], "m": [[1, 2], [3, 1]]}')
    r = run_cli("reduce", "--group", str(bad), "s")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_duplicate_key_group_file_is_usage_error(tmp_path):
    # json alone keeps the last "m" and would print B2's small roots.
    dup = tmp_path / "dup.json"
    dup.write_text(
        '{"generators": ["a", "b"], "m": [[1, 3], [3, 1]], "m": [[1, 4], [4, 1]]}'
    )
    r = run_cli("small-roots", "--group", str(dup))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: duplicate key 'm' in a JSON object\n"


def test_deeply_nested_group_file_is_usage_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    r = run_cli("small-roots", "--group", str(deep))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: invalid JSON: nested too deeply\n"


def test_multichar_generator_names(tmp_path):
    cfg = tmp_path / "named.json"
    cfg.write_text('{"generators": ["r1", "r2"], "m": [[1, 3], [3, 1]]}')
    r = run_cli("reduce", "--group", str(cfg), "r1,r2,r1,r1")
    assert r.returncode == 0
    assert r.stdout == "r1,r2\nlength: 2\n"
