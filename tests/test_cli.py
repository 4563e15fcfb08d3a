"""CLI surface: exit codes, outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rank3pls.cli import main


def test_family_build_and_verify(tmp_path, capsys):
    out = tmp_path / "d24.json"
    assert main(["family", "build", "--kind", "delta", "--n", "2", "--q", "4",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["lines"]) == 30
    assert main(["verify", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PLS" in text and "proper" in text


def test_family_csv(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["family", "build", "--kind", "agstar", "--n", "2", "--q", "4",
                 "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 16


def test_verify_flags_non_pls(tmp_path):
    from rank3pls import families as fam
    bad = fam.dlsub(9, 3, 2, 2)
    path = tmp_path / "bad.json"
    path.write_text(bad.to_json())
    assert main(["verify", str(path)]) == 1


def test_omega_and_group_commands(tmp_path, capsys):
    assert main(["omega", "--kind", "linear", "--n", "2", "--q", "4",
                 "--r", "3", "--out", str(tmp_path / "o.json")]) == 0
    assert main(["group", "--group", "builtin:M11_deg22",
                 "--out", str(tmp_path / "m.grp")]) == 0
    text = capsys.readouterr().out
    assert "order 7920" in text
    assert (tmp_path / "m.grp").read_text().splitlines()[0] == "22"


def test_group_unknown_builtin(capsys):
    assert main(["group", "--group", "builtin:NoSuchThing"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown builtin group 'NoSuchThing'; ")
    assert err.count("\n") == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["family", "build", "--kind", "wrong"])
    assert exc.value.code == 2


@pytest.mark.parametrize("q0", ["1", "0"])
def test_usub_without_a_subfield_power_is_one_line_error(q0):
    """q0 <= 1 has no power equal to q: the run fails at once, in a fresh
    interpreter whose timeout stops a run that loops."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "rank3pls.cli", "family", "build", "--kind",
         "usub", "--q", "16", "--q0", q0],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=30)
    assert out.returncode == 1
    assert out.stderr == "error: USub needs q = q0^b with b > 1\n"
    assert out.stdout == ""


def test_missing_family_parameter_is_a_usage_error(capsys):
    assert main(["family", "build", "--kind", "delta", "--q", "4"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --n is required for --kind delta\n"


def test_pipeline_report_deterministic(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["--seed", "99", "pipeline", "run", "--group", "builtin:GammaL2_4",
                 "--report", str(r1)]) == 0
    assert main(["--seed", "99", "pipeline", "run", "--group", "builtin:GammaL2_4",
                 "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    out = capsys.readouterr().out
    assert "signature [(15, 4), (30, 3)]" in out


def test_seed_changes_no_output(tmp_path, capsys, fresh_caches):
    """--seed is accepted and ignored: three seeds, each run on empty
    caches, write the same group file and report and print the same lines
    apart from the "wrote" lines."""
    outputs = []
    for seed in ("0", "7", "12345"):
        fresh_caches()
        grp, report = tmp_path / f"g{seed}.grp", tmp_path / f"r{seed}.json"
        assert main(["--seed", seed, "group", "--group", "builtin:GammaL2_4",
                     "--out", str(grp)]) == 0
        assert main(["--seed", seed, "pipeline", "run", "--group", "builtin:GammaL2_4",
                     "--report", str(report)]) == 0
        stdout = [line for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("wrote ")]
        outputs.append((grp.read_bytes(), report.read_bytes(), stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    assert "signature [(15, 4), (30, 3)]" in outputs[0][2][-1]


def test_pipeline_slow_refused_without_flag(capsys):
    assert main(["pipeline", "run", "--group", "builtin:GammaU3_16"]) == 1
    assert "--slow" in capsys.readouterr().err


def test_pipeline_from_group_file(tmp_path, capsys):
    assert main(["group", "--group", "builtin:3S6_deg18",
                 "--out", str(tmp_path / "g.grp")]) == 0
    assert main(["pipeline", "run", "--group", f"file:{tmp_path / 'g.grp'}"]) == 0
    out = capsys.readouterr().out
    assert "0 structures" in out


def test_tables_command(capsys):
    assert main(["tables", "reproduce", "--id", "3", "--max-degree", "300"]) == 0
    out = capsys.readouterr().out
    assert "PSL3_2_deg14: PASS" in out
    assert "negative | M11_deg22: PASS" in out


@pytest.mark.parametrize("text", [
    "",                                # empty file
    "4\n1 2 3 0\n1 0\n",              # short generator line
    "4\n1 1 2 3\n",                   # not a permutation
    "four\n1 2 3 0\n",                # degree line is not an integer
    "0\n",                            # degree 0: no points to act on
])
def test_bad_group_file_is_one_line_error(tmp_path, capsys, text):
    path = tmp_path / "bad.grp"
    path.write_text(text)
    assert main(["pipeline", "run", "--group", f"file:{path}"]) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_degree_cap_needs_a_proven_bound(tmp_path, capsys):
    """A group file past the deterministic pass's degree cap carries no
    order bound, so the run stops with one line that says it needs one."""
    path = tmp_path / "cycle.grp"
    path.write_text("4001\n" + " ".join(map(str, range(1, 4001))) + " 0\n")
    assert main(["pipeline", "run", "--group", f"file:{path}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "degree 4001" in err and "needs a proven order bound" in err


def test_library_assertion_is_one_line_error(tmp_path, capsys, monkeypatch):
    import rank3pls.cli as cli

    def broken(*args, **kwargs):
        raise AssertionError("order check failed")

    monkeypatch.setattr(cli, "devillers_enumerate", broken)
    assert main(["pipeline", "run", "--group", "builtin:GammaL2_4"]) == 1
    assert capsys.readouterr().err == "error: order check failed\n"


@pytest.mark.parametrize("kind, first", [("agstar", "n"), ("delta", "n"),
                                         ("lsub", "n"), ("dlsub", "q"),
                                         ("usub", "q"), ("agustar", "q")])
def test_family_options_come_from_the_constructor(kind, first, capsys):
    assert main(["family", "build", "--kind", kind]) == 2
    assert capsys.readouterr().err == f"error: --{first} is required for --kind {kind}\n"


def test_a_family_option_with_a_default_reaches_the_constructor(capsys):
    """usub's r has a default; given, it is passed on, and a wrong r fails
    the build in one line."""
    assert main(["family", "build", "--kind", "usub", "--q", "4", "--q0", "2",
                 "--r", "5"]) == 1
    assert capsys.readouterr().err == "error: USub has r = (q-1)/(q0-1) = 3\n"
    assert main(["family", "build", "--kind", "usub", "--q", "4", "--q0", "2",
                 "--r", "3"]) == 0
    assert capsys.readouterr().out.startswith("usub(4, 2, 3): 195 points, ")


@pytest.mark.parametrize("kind, args, option", [
    ("usub", ["--q", "4", "--q0", "2", "--n", "3"], "n"),
    ("delta", ["--n", "2", "--q", "4", "--j", "1"], "j")])
def test_a_family_option_the_kind_does_not_take_is_a_usage_error(
        capsys, kind, args, option):
    assert main(["family", "build", "--kind", kind, *args]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: --{option} is not an option of --kind {kind}\n"
    assert out.out == ""


def test_family_vector_off_omega_is_one_line_error(capsys, monkeypatch):
    """A base vector that is not a point (here (w, 0, 1), not isotropic)
    ends the build with the KeyError's message naming it, unquoted, and
    exit 1."""
    from rank3pls.gfield import SubfieldView

    monkeypatch.setattr(SubfieldView, "embed",
                        lambda self, x: self.big.omega if x else 0)
    assert main(["family", "build", "--kind", "usub", "--q", "4", "--q0", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: (") and err.count("\n") == 1
    assert err.endswith(") is not a point of Omega\n")


@pytest.mark.parametrize("text, phrase", [
    ("[1, 2]", "JSON object"),                               # a list, not an object
    ('{"points": "5", "lines": []}', "points must be"),
    ('{"points": 5.5, "lines": []}', "points must be"),
    ('{"points": -3, "lines": []}', "points must be"),
    ('{"points": 5, "lines": 7}', "lines must be"),
    ('{"points": 5, "lines": [[0, 1, 2]], "params": 4}', "params must be"),
    # past the int32 line array: no per-point array is ever allocated
    ('{"points": 1000000000000, "lines": []}', "points must be at most"),
    ('{"points": 3000000000, "lines": [[0, 2999999999]]}', "points must be at most"),
])
def test_verify_malformed_document_is_one_line_error(tmp_path, capsys, text, phrase):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert phrase in err


def test_memory_error_is_one_line_error(tmp_path, capsys, monkeypatch):
    """A MemoryError from a check ends the command with one line, exit 1."""
    from rank3pls import cli

    def refuse(D):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "validate_pls", refuse)
    path = tmp_path / "ok.json"
    path.write_text('{"points": 3, "lines": [[0, 1, 2]]}')
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 7.28 TiB\n"


@pytest.mark.parametrize("args", [
    ["verify", "{dir}"],
    ["family", "build", "--kind", "delta", "--n", "2", "--q", "4", "--out", "{dir}"],
])
def test_directory_path_is_one_line_error(tmp_path, capsys, args):
    """A directory where a file is read or written is an OSError other
    than FileNotFoundError; it ends the command with one line, exit 1."""
    assert main([a.format(dir=tmp_path) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err
