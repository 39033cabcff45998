import json
import subprocess
import sys

import pytest

from pseudosum import make_mod_lut
from pseudosum import cli
from pseudosum.cli import main


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mod2(tmp_path):
    return write(tmp_path / "mod2.json", make_mod_lut(2).to_json())


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_check_mod6(tmp_path, capsys):
    path = write(tmp_path / "mod6.json", make_mod_lut(6).to_json())
    code, doc = run(capsys, ["check", "--lut", path])
    assert code == 0
    assert doc["version"] == 1
    assert doc["associative"] is True
    assert doc["commutative"] is True
    assert doc["identity"] == 0
    assert doc["idempotents"] == [0]


def test_check_gen_and_counterexample(tmp_path, capsys):
    code, doc = run(capsys, ["check", "--gen", "max4"])
    assert code == 0 and doc["identity"] == 0 and doc["idempotents"] == [0, 1, 2, 3]
    s = write(tmp_path / "s.json", {"n": 3, "s": [1, 2, 0]})
    code, doc = run(capsys, ["check", "--gen", f"perm:{s}"])
    assert code == 0 and doc["associative"] is True and doc["identity"] == 2
    code = main(["check", "--gen", "bogus9"])
    assert code == 1
    bad = write(
        tmp_path / "bad.json",
        {"n": 2, "alphabet": [0, 1], "table": [[0, 1], [0, 0]]},
    )
    code, doc = run(capsys, ["check", "--lut", bad])
    assert code == 0
    assert doc["associative"] is False
    assert doc["counterexample"] == [1, 0, 1]


def test_convolve_and_power_roundtrip(tmp_path, capsys):
    p = write(tmp_path / "p.json", {"n": 2, "p": [0.75, 0.25]})
    code, doc = run(capsys, ["convolve", "--gen", "mod2", p, p])
    assert code == 0
    assert doc["p"] == [0.625, 0.375]
    # emitted document is re-readable as a distribution input
    out = write(tmp_path / "out.json", doc)
    code, doc2 = run(capsys, ["power", "--gen", "mod2", out, "--m", "1"])
    assert code == 0 and doc2["p"] == [0.625, 0.375]


def test_limit_command(tmp_path, capsys, mod2):
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    code, doc = run(capsys, ["limit", "--lut", mod2, "--dist", d])
    assert code == 0
    assert doc["status"] == "converged"
    assert doc["limit"] == [0.5, 0.5]

    d1 = write(tmp_path / "d1.json", {"n": 2, "p": [0.0, 1.0]})
    code, doc = run(capsys, ["limit", "--lut", mod2, "--dist", d1])
    assert code == 0 and doc["status"] == "cycle" and doc["period"] == 2


def test_stable_enumerate(capsys):
    code, doc = run(capsys, ["stable", "--enumerate", "6"])
    assert code == 0
    assert len(doc["laws"]) == 4
    assert [law["m"] for law in doc["laws"]] == [6, 3, 2, 1]
    assert doc["laws"][1]["p"] == [0.5, 0, 0, 0.5, 0, 0]


def test_stable_with_permutation(tmp_path, capsys):
    s = write(tmp_path / "s.json", {"n": 3, "s": [1, 2, 0]})
    code, doc = run(capsys, ["stable", "--enumerate", "3", "--perm", s])
    assert code == 0
    assert doc["laws"][0]["m"] == 3
    assert doc["laws"][0]["p"] == [0, 0, 1]  # s_inv[0] = 2


def test_doa_command(tmp_path, capsys):
    d = write(tmp_path / "d.json", {"n": 4, "p": [0.5, 0.0, 0.5, 0.0]})
    code, doc = run(capsys, ["doa", "--dist", d, "--target", "2"])
    assert code == 0 and doc["in_doa"] is True
    code, doc = run(capsys, ["doa", "--dist", d])
    assert code == 0 and doc["attractor"] == {"m": 2, "r": 2}
    cyc = write(tmp_path / "cyc.json", {"n": 2, "p": [0.0, 1.0]})
    code, doc = run(capsys, ["doa", "--dist", cyc])
    assert code == 0 and doc["attractor"] is None
    code, doc = run(capsys, ["doa", "--dist", d, "--target", "3"])
    assert code == 1


def test_id_command(tmp_path, capsys):
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    code, doc = run(capsys, ["id", "--dist", d, "--check"])
    assert code == 0 and doc["infinitely_divisible"] is True
    code, doc = run(capsys, ["id", "--dist", d, "--decompose"])
    assert code == 0
    dec = doc["decomposition"]
    assert dec["m"] == 2 and abs(dec["lambda"] - 0.346573590280) < 1e-9
    bad = write(tmp_path / "bad.json", {"n": 3, "p": [0.0, 0.5, 0.5]})
    code, doc = run(capsys, ["id", "--dist", bad, "--decompose"])
    assert code == 0 and doc["decomposition"] is None


def test_spectrum_command_12_digits(tmp_path, capsys):
    d = write(tmp_path / "d.json", {"n": 3, "p": [0.0, 0.5, 0.5]})
    code, doc = run(capsys, ["spectrum", "--dist", d])
    assert code == 0
    assert doc["spectrum"][0] == [1.0, 0.0]
    assert abs(doc["spectrum"][1][0] + 0.5) < 1e-12
    # serialized with 12 significant digits
    assert doc["spectrum"][1][0] == float(f"{-0.5:.12g}")


def test_max_commands(tmp_path, capsys):
    p = write(tmp_path / "p.json", {"n": 2, "p": [0.5, 0.5]})
    code, doc = run(capsys, ["max", "--convolve", p, p])
    assert code == 0 and doc["p"] == [0.25, 0.75]
    q = write(tmp_path / "q.json", {"n": 2, "p": [0.25, 0.75]})
    code, doc = run(capsys, ["max", "--root", "2", q])
    assert code == 0 and doc["p"] == [0.5, 0.5]
    code, doc = run(capsys, ["max", "--doa", "1", p])
    assert code == 0 and doc["in_doa"] is True


def test_simulate_deterministic_and_compare(tmp_path, capsys, mod2):
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    argv = [
        "simulate", "--lut", mod2, "--dist", d,
        "--m", "3", "--trials", "10000", "--seed", "42", "--compare-exact",
    ]
    code1, doc1 = run(capsys, argv)
    code2, doc2 = run(capsys, argv + ["--workers", "8"])
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1["tv"] <= 0.02
    assert len(doc1["exact"]) == 2


def test_output_file_and_inputs_unchanged(tmp_path, capsys, mod2):
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    before = (tmp_path / "d.json").read_bytes(), (tmp_path / "mod2.json").read_bytes()
    out = tmp_path / "res.json"
    code = main(["power", "--lut", mod2, str(d), "--m", "2", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["p"] == [0.625, 0.375]
    after = (tmp_path / "d.json").read_bytes(), (tmp_path / "mod2.json").read_bytes()
    assert before == after


def test_exit_codes(tmp_path, capsys):
    # missing file -> 1
    assert main(["check", "--lut", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()
    # invalid JSON -> 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--lut", str(bad)]) == 1
    capsys.readouterr()
    # invalid distribution -> 1
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.9, 0.9]})
    assert main(["spectrum", "--dist", d]) == 1
    capsys.readouterr()
    # no table given -> 1
    assert main(["check"]) == 1
    capsys.readouterr()
    # unknown flag -> 2
    assert main(["check", "--bogus"]) == 2
    capsys.readouterr()
    # unknown subcommand -> 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    # missing required flag -> 2
    assert main(["stable"]) == 2
    capsys.readouterr()
    # --help -> 0
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 8.00 GiB for an array"),
         "out of memory: Unable to allocate 8.00 GiB for an array"),
        (MemoryError(), "out of memory"),
        (RuntimeError("spectral cross-check\ndisagrees"), "internal error: spectral cross-check disagrees"),
    ],
)
def test_resource_and_internal_errors_exit_1_with_one_line(monkeypatch, capsys, exc, message):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "power", fail)
    assert main(["power", "--gen", "mod2", "p.json", "--m", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"pseudosum power: {message}"]


NAN_LAW = {"n": 2, "p": [float("nan"), 1.0]}
HALF = {"n": 2, "p": [0.5, 0.5]}


@pytest.mark.parametrize(
    "files, argv, message",
    [
        # non-finite masses used to pass validation and print NaN (not JSON)
        ({"d": NAN_LAW}, ["spectrum", "--dist", "{d}"], "probabilities must be finite"),
        ({"d": NAN_LAW}, ["max", "--root", "2", "{d}"], "probabilities must be finite"),
        ({"d": NAN_LAW}, ["id", "--dist", "{d}", "--check"], "probabilities must be finite"),
        ({"d": {"n": 2, "p": [float("inf"), 1.0]}}, ["id", "--dist", "{d}", "--decompose"],
         "probabilities must be finite"),
        # malformed documents and arguments used to raise a raw ValueError
        ({"d": {"n": "x", "p": [0.5, 0.5]}}, ["spectrum", "--dist", "{d}"], "n must hold numbers"),
        ({"d": {"n": 2, "p": "ab"}}, ["spectrum", "--dist", "{d}"], "p must hold numbers"),
        ({"d": {"n": 2, "p": [0.5, "a"]}}, ["spectrum", "--dist", "{d}"], "p must hold numbers"),
        ({"d": {"n": 2, "p": 0.5}}, ["spectrum", "--dist", "{d}"], "1-d sequence"),
        ({"t": {"n": "x", "alphabet": [0, 1], "table": [[0, 1], [1, 0]]}}, ["check", "--lut", "{t}"],
         "n must hold numbers"),
        ({"d": HALF, "s": {"n": "x", "s": [0, 1]}}, ["spectrum", "--dist", "{d}", "--perm", "{s}"],
         "n must hold numbers"),
        ({"d": HALF, "s": {"n": 2, "s": [0, 1.5]}}, ["spectrum", "--dist", "{d}", "--perm", "{s}"],
         "permutation entries must be integers"),
        ({"s": {"n": 2, "s": [1, 0.5]}}, ["check", "--gen", "perm:{s}"],
         "permutation entries must be integers"),
        ({"d": HALF}, ["max", "--root", "abc", "{d}"], "N must be an integer, got 'abc'"),
        ({"d": HALF}, ["max", "--doa", "z", "{d}"], "X must be an integer, got 'z'"),
    ],
)
def test_invalid_input_exits_1_with_one_line(tmp_path, capsys, files, argv, message):
    paths = {name: write(tmp_path / f"{name}.json", doc) for name, doc in files.items()}
    assert main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"pseudosum {argv[0]}: ")
    assert message in captured.err


def test_unwritable_output_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "res.json"
    assert main(["check", "--gen", "mod2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("pseudosum check: ")


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "pseudosum", "stable", "--enumerate", "5"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert len(doc["laws"]) == 2


def test_seed_is_required_for_simulate(tmp_path, capsys, mod2):
    d = write(tmp_path / "d.json", {"n": 2, "p": [0.75, 0.25]})
    code = main(["simulate", "--lut", mod2, "--dist", d, "--m", "2", "--trials", "10"])
    capsys.readouterr()
    assert code == 2
