import subprocess
import sys
import time

import pytest

from rgpoly import poly
from rgpoly.cli import main
from rgpoly.formats import serialize_ribbon
from rgpoly.verify import generate

LOOP_RG = "vertex v: a b\nedge e: a b sign=+\n"
TRI_RPG = (
    "vertex v0: a0 c1\nvertex v1: b0 a1\nvertex v2: c0 b1\n"
    "edge a: a0 a1 kind=regular\nedge b: b0 b1 kind=regular\n"
    "edge c: c0 c1 kind=regular\n"
)
TORUS_RPG = "vertex v: a1 b1 a2 b2\nedge a: a1 a2\nedge b: b1 b2\n"
TREFOIL_VLD = "gauss O1+U2+O3+U1+O2+U3+\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("loop.rg", LOOP_RG), ("tri.rpg", TRI_RPG),
                       ("torus.rpg", TORUS_RPG), ("tref.vld", TREFOIL_VLD)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_br(files, capsys):
    code, out = run(capsys, "br", files["loop.rg"])
    assert code == 0
    assert out.strip() == "x_e*Y + y_e"


def test_br_refuses_edges_on_more_vertices_than_the_sweep_labels(tmp_path, capsys):
    # 129 disjoint edges touch 258 vertices: exit 2 at once under any cap
    path = tmp_path / "wide.rg"
    path.write_text("".join(f"vertex u{i}: a{i}\nvertex v{i}: b{i}\n" for i in range(129))
                    + "".join(f"edge e{i}: a{i} b{i} sign=+\n" for i in range(129)))
    code, err = run_err(capsys, "br", "--cap=200", str(path))
    assert code == 2
    assert err == "error: 258 labels in one partition exceeds the sweep's limit 256\n"


def test_br_refuses_weight_tables_past_their_limit_before_building_them(tmp_path, capsys):
    # 50 disjoint weighted edges under --cap=64 would tabulate 2^25 weight
    # products per half before the first state.  The limit is read first,
    # so code that has none fails here instead of building them.
    limit = poly._WEIGHT_TABLE_ENTRIES
    path = tmp_path / "weighted.rg"
    path.write_text("".join(f"vertex u{i}: a{i}\nvertex v{i}: b{i}\n" for i in range(50))
                    + "".join(f"edge e{i}: a{i} b{i} sign=+\n" for i in range(50)))
    start = time.perf_counter()
    code, err = run_err(capsys, "br", "--cap=64", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert err == f"error: a weight table of {1 << 25} entries exceeds {limit}\n"


def test_rtutte_with_glob_substitution(files, capsys):
    code, out = run(capsys, "rtutte", files["tri.rpg"],
                    "--substitute", "x_*=1,y_*=1")
    assert code == 0
    assert out.strip() == "X^2 + 3*X + Y + 3"


def test_jones(files, capsys):
    code, out = run(capsys, "jones", files["tref.vld"])
    assert code == 0
    assert out.strip() == "-t^4 + t^3 + t"


def test_bracket_substitution(files, capsys):
    code, out = run(capsys, "bracket", files["tref.vld"],
                    "--substitute", "B=A^-1", "--substitute", "d=-A^2 - A^(-2)")
    assert code == 0
    assert out.strip() == "-A^5 - A^-3 + A^-7"


def test_convert_and_dual_emit_parseable_files(files, capsys, tmp_path):
    code, out = run(capsys, "convert", "--to=plane", files["loop.rg"])
    assert code == 0
    assert "# cert: e <-> e" in out
    rpg = tmp_path / "out.rpg"
    rpg.write_text(out)
    code, out2 = run(capsys, "rtutte", str(rpg))
    assert code == 0

    code, out = run(capsys, "convert", "--to=tait", files["tref.vld"])
    assert code == 0
    code, out = run(capsys, "dual", files["tri.rpg"])
    assert code == 0
    assert "kind=regular" in out


def test_convert_to_ribbon(files, capsys, tmp_path):
    code, out = run(capsys, "dual", files["tri.rpg"])
    rpg = tmp_path / "dual.rpg"
    rpg.write_text(out)
    code, out = run(capsys, "convert", "--to=ribbon", str(rpg))
    assert code == 0
    assert out.startswith("vertex")


def test_exit_code_2_on_bad_input(files, capsys):
    code, _ = run(capsys, "rtutte", files["torus.rpg"])
    assert code == 2
    code, _ = run(capsys, "br", files["torus.rpg"] + ".missing")
    assert code == 2


def test_exit_code_2_on_bad_cap_environment(files, capsys, monkeypatch):
    monkeypatch.setenv("RGPOLY_CAP", "abc")
    code, err = run_err(capsys, "br", files["loop.rg"])
    assert code == 2
    assert err.startswith("error:") and "RGPOLY_CAP" in err


def test_exit_code_2_on_directory_input(files, capsys, tmp_path):
    code, err = run_err(capsys, "br", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


def test_exit_code_2_on_non_utf8_input(capsys, tmp_path):
    path = tmp_path / "latin1.rg"
    path.write_bytes("vertex v\xe9: a b\nedge e: a b\n".encode("latin-1"))
    code, err = run_err(capsys, "br", str(path))
    assert code == 2
    assert err.startswith("error:") and "UTF-8" in err


def test_negative_cap_rejected(files, capsys, monkeypatch):
    code, err = run_err(capsys, "br", files["loop.rg"], "--cap", "-1")
    assert code == 2
    assert err.startswith("error:") and "nonnegative" in err
    monkeypatch.setenv("RGPOLY_CAP", "-1")
    code, err = run_err(capsys, "br", files["loop.rg"])
    assert code == 2
    assert err.startswith("error:") and "nonnegative" in err


def test_exit_code_2_on_zero_denominator_exponent(files, capsys, tmp_path):
    path = tmp_path / "bad.rg"
    path.write_text("vertex v: a b\nedge e: a b x=x^(1/0)\n")
    code, err = run_err(capsys, "br", str(path))
    assert code == 2 and err.startswith("error:")
    code, err = run_err(capsys, "br", files["loop.rg"],
                        "--substitute", "X=X^(1/0)")
    assert code == 2 and err.startswith("error:")


def test_exit_code_2_names_zero_raised_to_a_negative_power(capsys, tmp_path):
    path = tmp_path / "mirror.vld"
    path.write_text("gauss O1-U2-O3-U1-O2-U3-\n")
    code, err = run_err(capsys, "jones", str(path), "--substitute", "t=0")
    assert code == 2
    assert err.strip() == "error: cannot raise zero to power -1"


def test_exit_code_2_on_integer_past_the_string_limit(capsys, tmp_path):
    # CPython refuses int <-> str conversions of more than 4300 digits
    path = tmp_path / "huge.rg"
    path.write_text(f"vertex v: a b\nedge e: a b sign=+ x={'7' * 5000}\n")
    code, err = run_err(capsys, "br", str(path))
    assert code == 2 and err.startswith("error:") and "too long" in err


def test_exit_code_2_on_number_too_large_to_print(capsys, tmp_path):
    # each weight parses, but the product of two has a coefficient of 8000
    # digits, or an exponent of 4301
    path = tmp_path / "wide.rg"
    for weight in ("3" * 4000, "Y^" + "9" * 4300):
        path.write_text(f"vertex v: a b c d\nedge e: a b sign=+ x={weight}\n"
                        f"edge f: c d sign=+ x={weight}\n")
        code, err = run_err(capsys, "br", str(path))
        assert code == 2 and err.startswith("error:") and "too large" in err


def test_exit_code_2_on_crossing_label_past_the_string_limit(capsys, tmp_path):
    path = tmp_path / "huge.vld"
    label = "9" * 5000
    path.write_text(f"gauss O{label}+U{label}+\n")
    code, err = run_err(capsys, "bracket", str(path))
    assert code == 2 and err.startswith("error:") and "too long" in err


def test_exit_code_2_on_bad_substitution_name(files, capsys):
    code, err = run_err(capsys, "br", files["loop.rg"], "--substitute", "bad name=1")
    assert code == 2
    assert err.startswith("error:") and "bad name" in err


def test_exit_code_2_on_negative_verify_size(capsys):
    code, err = run_err(capsys, "verify", "--max-size=-1")
    assert code == 2
    assert err.startswith("error:") and "--max-size" in err


def test_exit_code_2_on_negative_verify_count(capsys):
    code, err = run_err(capsys, "verify", "--random=-3")
    assert code == 2
    assert err.startswith("error:") and "--random" in err


def test_link_commands_default_to_crossing_cap(capsys, tmp_path):
    # 21 classical crossings: over the 20-crossing default, under the
    # 24-edge cap of br and rtutte
    path = tmp_path / "kinks.vld"
    path.write_text("gauss " + "".join(f"O{i}+U{i}+" for i in range(1, 22)))
    for cmd in ("bracket", "jones"):
        code, err = run_err(capsys, cmd, str(path))
        assert code == 2
        assert "exceeds the cap 20" in err


def test_verify_command(files, capsys):
    code, out = run(capsys, "verify", "--main", "--random=5", "--seed=7",
                    "--max-size=4")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 5
    assert all(l.startswith("PASS main_theorem seed=") for l in lines)
    assert all("size=" in l for l in lines)


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert out.strip().endswith("selftest: PASS")


def test_cap_flag(files, capsys):
    code, _ = run(capsys, "rtutte", files["tri.rpg"], "--cap", "2")
    assert code == 2


def test_output_is_deterministic_across_processes(files):
    cmd = [sys.executable, "-m", "rgpoly.cli", "rtutte", files["tri.rpg"]]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # B_R of this graph prints 290,580 bytes, more than a pipe buffer holds
    path, err = tmp_path / "big.rg", tmp_path / "stderr"
    path.write_text(serialize_ribbon(generate("ribbon", 5, 12)))
    with open(err, "wb") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "rgpoly.cli", "br", str(path)],
                                stdout=subprocess.PIPE, stderr=stderr)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert err.read_bytes() == b""      # no traceback


def test_verify_past_the_enumeration_cap_exits_2():
    # seed 0 draws a 27-edge ribbon graph: 2^27 subsets without a cap check
    for check in ("--identities", "--main"):
        proc = subprocess.run([sys.executable, "-m", "rgpoly.cli", "verify", check,
                               "--random=1", "--seed=0", "--max-size=30"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, check
        assert proc.stderr == "error: 27 regular edges exceeds the enumeration cap 24\n"
        assert proc.stdout == ""


def test_verify_past_the_reference_cap_exits_2():
    # seed 2 draws a 17-edge ribbon graph: under the enumeration cap, but the
    # reference check would contract 2^17 maps
    proc = subprocess.run([sys.executable, "-m", "rgpoly.cli", "verify", "--identities",
                           "--random=1", "--seed=2", "--max-size=24"],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == "error: 17 regular edges exceeds the reference check's cap 16\n"
    assert proc.stdout == ""
