import dataclasses
import json

import pytest

from brandtlift.cli import main, parse_eigendata
from brandtlift.qalg import QuaternionElement
from brandtlift.theta import QSeries, parse_qseries

REF_W174_G = {4: 2, 16: -2, 24: 2, 36: 2, 64: 2, 87: -2, 88: -4, 96: -2}
REF_W174_F = {4: 2, 7: -10, 16: -2, 24: -8, 28: 10, 36: 2, 52: 20,
              63: -10, 64: 2, 87: -12, 88: -4, 96: 8}


def test_parse_eigendata():
    assert parse_eigendata("5:-3") == [(5, -3)]
    assert parse_eigendata("3:-2, 7:2") == [(3, -2), (7, 2)]
    with pytest.raises(ValueError, match="expected p:a"):
        parse_eigendata("3:x")
    with pytest.raises(ValueError, match="prime expected"):
        parse_eigendata("4:1")
    with pytest.raises(ValueError, match="empty"):
        parse_eigendata(" , ")


def test_classes_text(capsys):
    assert main(["classes", "--q", "3", "--m", "58"]) == 0
    out = capsys.readouterr().out
    assert "N=174 q=3 M=58" in out
    assert "h=16" in out
    assert "weight multiset: 2:14 4:2" in out
    assert "mass: 15/2 (formula 15/2) ok" in out


def test_classes_json(capsys):
    assert main(["classes", "--q", "3", "--m", "58", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h"] == 16
    assert len(doc["classes"]) == 16
    assert doc["presentation"] == {"a": -1, "b": -3}


def test_classes_to_file(tmp_path, capsys):
    target = tmp_path / "classes.txt"
    assert main(["classes", "--q", "2", "--m", "1", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "h=1" in target.read_text()


def test_lift_stdout_roundtrip(capsys):
    rc = main(["lift", "--q", "3", "--m", "58", "--eigen-g", "5:2", "--bound", "99"])
    assert rc == 0
    out = capsys.readouterr().out
    meta_line, rest = out.split("\n", 1)
    assert meta_line.startswith("# metadata ")
    meta = json.loads(meta_line[len("# metadata "):])
    assert meta["N"] == 174 and meta["q"] == 3 and meta["M"] == 58
    assert meta["eigendata"] == [[5, 2]]
    assert meta["sign_convention"] == "primitive"
    series, header = parse_qseries(rest)
    assert header == "# N=174 q=3 M=58 bound=99"
    assert series == QSeries(99, {n: 2 * c for n, c in REF_W174_G.items()})


def test_lift_pair_to_files(tmp_path):
    prefix = tmp_path / "w174"
    args = ["lift", "--q", "3", "--m", "58", "--eigen-f", "5:-3",
            "--eigen-g", "5:2", "--ell", "5", "--bound", "99",
            "--out", str(prefix)]
    assert main(args) == 0
    f_text = (tmp_path / "w174_f.txt").read_text()
    g_text = (tmp_path / "w174_g.txt").read_text()
    meta = json.loads((tmp_path / "w174_meta.json").read_text())

    sf, hf = parse_qseries(f_text)
    sg, hg = parse_qseries(g_text)
    assert hf == hg == "# N=174 q=3 M=58 bound=99"
    assert sf == QSeries(99, {n: -4 * c for n, c in REF_W174_F.items()})
    # g was rescaled by -2, on top of the primitive lift 2 * reference
    assert sg == QSeries(99, {n: -4 * c for n, c in REF_W174_G.items()})
    assert all((sf.coefficient(n) - sg.coefficient(n)) % 5 == 0 for n in range(100))

    assert set(meta) == {"f", "g"}
    assert meta["f"]["sign_convention"] == "primitive"
    assert meta["g"]["sign_convention"] == "g rescaled by -2 to match f mod 5"
    assert meta["f"]["eigendata"] == [[5, -3]]


def test_lift_output_is_deterministic(tmp_path):
    args = lambda prefix: ["lift", "--q", "3", "--m", "58", "--eigen-f", "5:-3",
                           "--eigen-g", "5:2", "--ell", "5", "--bound", "60",
                           "--out", str(prefix)]
    assert main(args(tmp_path / "a")) == 0
    assert main(args(tmp_path / "b")) == 0
    for suffix in ("_f.txt", "_g.txt", "_meta.json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_lift_discover(capsys):
    assert main(["lift", "--q", "2", "--m", "1", "--discover", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == [{"eigenvalues": {"3": 4, "5": 6, "7": 8, "11": 12,
                                    "13": 14, "17": 18, "19": 20},
                    "vector": [1]}]


def test_lift_requires_eigendata(capsys):
    rc = main(["lift", "--q", "2", "--m", "1"])
    assert rc == 2
    assert "error: lift needs --eigen-f and/or --eigen-g" in capsys.readouterr().err


def test_check_passing(capsys):
    rc = main(["check", "--q", "3", "--m", "58", "--ell", "5",
               "--eigen-f", "5:-3", "--eigen-g", "5:2", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["lift_check"]["witness_c"] == 1
    assert doc["hypotheses"]["ok"] is True


def test_check_failing(capsys):
    rc = main(["check", "--q", "3", "--m", "58", "--ell", "7",
               "--eigen-f", "5:-3", "--eigen-g", "5:2"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_usage_errors(capsys):
    assert main(["classes", "--q", "4", "--m", "3"]) == 2
    assert "error: q must be prime, got 4" in capsys.readouterr().err
    assert main(["classes", "--q", "3", "--m", "6"]) == 2
    assert "square-free" in capsys.readouterr().err
    assert main(["classes", "--q", "3", "--m", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert main(["check", "--q", "2", "--m", "1", "--eigen-f", "3:0"]) == 2
    assert "needs both" in capsys.readouterr().err
    assert main(["check", "--q", "2", "--m", "1",
                 "--eigen-f", "3:0", "--eigen-g", "3:0"]) == 2
    assert "needs --ell" in capsys.readouterr().err
    assert main(["check", "--q", "2", "--m", "1", "--ell", "5",
                 "--eigen-f", "3:x", "--eigen-g", "3:0"]) == 2
    assert "bad eigendata" in capsys.readouterr().err
    for ell in ("0", "4", "-5"):
        assert main(["lift", "--q", "11", "--m", "1", "--eigen-f", "2:-2",
                     "--eigen-g", "2:3", "--ell", ell]) == 2
        assert f"error: ell must be prime, got {ell}" in capsys.readouterr().err
        assert main(["check", "--q", "11", "--m", "1", "--eigen-f", "2:-2",
                     "--eigen-g", "2:3", "--ell", ell]) == 2
        assert f"error: ell must be prime, got {ell}" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    assert main(["classes", "--q", "2", "--m", "1", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No such file or directory" in err


def test_internal_failure_exits_3(monkeypatch, capsys):
    import brandtlift.cli as cli

    for exc in (RuntimeError("class enumeration ended at mass 1/2,\nexpected 1"),
                AssertionError("column sum 3 != 4 at j=0")):
        def broken(base, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "right_ideal_classes", broken)
        assert main(["classes", "--q", "2", "--m", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: internal failure ({type(exc).__name__}): ")
        assert err.count("\n") == 1


def test_failed_pair_product_certificate_exits_3(monkeypatch, capsys):
    from brandtlift.orders import OrderLattice

    def bad_generator(self):
        # Nm(I) * 1 lies in I, but Nm(I) O + Nm(I) O is not I when Nm(I) > 1
        return [self.norm * self.den, 0, 0, 0]

    monkeypatch.setattr(OrderLattice, "_generator", bad_generator)
    assert main(["classes", "--q", "11", "--m", "1"]) == 3
    err = capsys.readouterr().err
    assert err == (
        "error: internal failure (RuntimeError): "
        "Nm(I) O + alpha O is not I: the pair product covolume is off\n"
    )


def test_usage_errors_come_before_the_class_walk(monkeypatch, capsys):
    import brandtlift.cli as cli

    def unreachable(q):
        raise RuntimeError("the module must not be built")

    monkeypatch.setattr(cli, "choose_presentation", unreachable)
    assert main(["check", "--q", "3", "--m", "58", "--ell", "5",
                 "--eigen-f", "3:x", "--eigen-g", "3:0"]) == 2
    assert "error: bad eigendata entry '3:x'" in capsys.readouterr().err
    assert main(["lift", "--q", "2", "--m", "1"]) == 2
    assert "error: lift needs --eigen-f and/or --eigen-g" in capsys.readouterr().err
    assert main(["lift", "--q", "2", "--m", "1", "--discover", "--eigen-f", "3:x"]) == 2
    assert "error: bad eigendata entry '3:x'" in capsys.readouterr().err
    # only --discover has a JSON form; the series are text
    assert main(["lift", "--q", "11", "--m", "1", "--eigen-f", "2:-2", "--json"]) == 2
    assert capsys.readouterr().err == "error: lift --json needs --discover\n"
    assert main(["lift", "--q", "2", "--m", "1", "--eigen-f", "3:4", "--bound", "-1"]) == 2
    assert "error: bound must be nonnegative, got -1" in capsys.readouterr().err
    assert main(["check", "--q", "2", "--m", "1", "--eigen-f", "3:4", "--eigen-g", "3:1",
                 "--ell", "5", "--bound", "-1"]) == 2
    assert "error: bound must be nonnegative, got -1" in capsys.readouterr().err
    assert main(["lift", "--q", "2", "--m", "1", "--discover", "--eigen-f", "3:0",
                 "--ell", "5", "--bound", "5"]) == 2
    err = capsys.readouterr().err
    assert err == "error: lift --discover takes none of --eigen-f, --ell, --bound\n"
    for flag, value in (("--eigen-g", "3:0"), ("--ell", "5"), ("--bound", "100")):
        assert main(["lift", "--q", "2", "--m", "1", "--discover", flag, value]) == 2
        assert f"error: lift --discover takes none of {flag}\n" in capsys.readouterr().err


def test_classes_rejects_bound(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classes", "--q", "2", "--m", "1", "--bound", "5"])
    assert info.value.code == 2
    assert "--bound" in capsys.readouterr().err


def test_classes_mass_line_sums_the_weights(monkeypatch, capsys):
    import brandtlift.cli as cli

    real = cli.right_ideal_classes

    def one_weight_off(base):
        cs = real(base)
        return dataclasses.replace(cs, weights=[2 * cs.weights[0]] + cs.weights[1:])

    monkeypatch.setattr(cli, "right_ideal_classes", one_weight_off)
    assert main(["classes", "--q", "2", "--m", "1"]) == 0
    assert "mass: 1/48 (formula 1/24) MISMATCH" in capsys.readouterr().out


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_jobs_build_no_quaternion_element(monkeypatch, capsys):
    # the pipeline runs on integer rows; QuaternionElement is API edge only
    def refuse(self, *args, **kwargs):
        raise AssertionError("QuaternionElement built on a CLI path")

    monkeypatch.setattr(QuaternionElement, "__init__", refuse)
    assert main(["classes", "--q", "5", "--m", "42"]) == 0
    assert main(["check", "--q", "11", "--m", "1", "--eigen-f", "2:-2",
                 "--eigen-g", "2:3", "--ell", "5"]) == 0
    out = capsys.readouterr().out
    assert "N=210" in out
