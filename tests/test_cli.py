import hashlib
import json
import pathlib
import subprocess
import sys

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
    no_edges = {k: v for k, v in good.items() if k != "edges"}
    bad_state = dict(good, states=[[], [99]] + good["states"][2:])
    for data in (no_edges, [good], bad_state):
        aut_file.write_text(json.dumps(data))
        r = run_cli(
            "accept", "--group", group("a2"), "--automaton", str(aut_file), "st"
        )
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr


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
    assert data["format"] == "voracious-automaton-3"
    assert len(data["states"]) == 16


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


def test_usage_errors():
    assert run_cli("reduce", "--group", group("a2"), "sx").returncode == 2
    assert run_cli("reduce", "--group", str(GROUPS / "nope.json"), "s").returncode == 2
    assert run_cli("automaton", "--group", group("a2"), "--format", "x").returncode == 2
    assert run_cli("bogus-command").returncode == 2
    assert run_cli("reduce").returncode == 2  # --group is required
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


def test_multichar_generator_names(tmp_path):
    cfg = tmp_path / "named.json"
    cfg.write_text('{"generators": ["r1", "r2"], "m": [[1, 3], [3, 1]]}')
    r = run_cli("reduce", "--group", str(cfg), "r1,r2,r1,r1")
    assert r.returncode == 0
    assert r.stdout == "r1,r2\nlength: 2\n"
