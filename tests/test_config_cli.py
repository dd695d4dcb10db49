"""Configuration grammar and the command-line front end."""

import json
from fractions import Fraction

import pytest

from fermifields.cli import main
from fermifields.config import ConfigError, RunConfig, load_config


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_flat_dotted_keys(tmp_path):
    p = write(tmp_path, """
# a comment
lattice.nt = 4
lattice.nx = 1
lattice.dt = 1/2   # fractions allowed
mass = 0.25
lambda = 3/8
cutoff = window:1:2
truncation.lambda_order = 2
arithmetic = rational
seed = 99
""")
    cfg = load_config(p)
    assert (cfg.nt, cfg.nx) == (4, 1)
    assert cfg.dt == Fraction(1, 2)
    assert cfg.mass == Fraction(1, 4)
    assert cfg.lam == Fraction(3, 8)
    assert cfg.cutoff == "window:1:2"
    assert cfg.lambda_order == 2
    assert cfg.arithmetic == "rational"
    assert cfg.seed == 99


def test_unknown_key_rejected(tmp_path):
    p = write(tmp_path, "no.such.key = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "lattice.dt = 2\nlattice.dx = 1\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "lattice.nt = 1\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "arithmetic = decimal\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "cutoff = sometimes\n"))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "debug.corrupt_kernel = maybe\n"))


def test_overrides_win(tmp_path):
    p = write(tmp_path, "seed = 5\narithmetic = float\n")
    cfg = load_config(p, {"seed": 7, "arithmetic": "rational"})
    assert cfg.seed == 7 and cfg.arithmetic == "rational"


def test_cutoff_weights():
    cfg = RunConfig(nt=4, nx=2, cutoff="window").validate()
    fl = cfg.field_lattice()
    w = cfg.cutoff_weights(fl)
    lat = fl.lattice
    for s in range(lat.n_sites):
        want = 1 if 1 <= lat.site_time(s) <= 2 else 0
        assert complex(w[s]) == want
    cfg2 = RunConfig(cutoff="ones").validate()
    fl2 = cfg2.field_lattice()
    assert all(complex(x) == 1 for x in cfg2.cutoff_weights(fl2))


def test_cli_bad_config_exits_2(tmp_path, capsys):
    p = write(tmp_path, "lattice.dt = 2\nlattice.dx = 1\n")
    code = main(["propagators", "--config", str(p), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "causality" in err


def test_cli_propagators_minimal_config(tmp_path):
    p = write(tmp_path, "lattice.nt = 4\nlattice.nx = 1\nmass = 0\n")
    out = tmp_path / "out"
    code = main(["propagators", "--config", str(p), "--out", str(out)])
    assert code == 0
    for name in ("kg_retarded.csv", "free_retarded.csv", "free_advanced.json",
                 "free_causal.csv", "interacting_retarded_order0.csv",
                 "defects.csv"):
        assert (out / name).exists()
    rows = (out / "defects.csv").read_text().splitlines()
    for row in rows[1:]:
        assert float(row.split(",")[1]) < 1e-10


def test_cli_propagators_lambda_zero_matches_free(tmp_path):
    p = write(tmp_path, "lattice.nt = 3\nlattice.nx = 1\nlambda = 0\n")
    out = tmp_path / "zero"
    assert main(["propagators", "--config", str(p), "--out", str(out)]) == 0
    free = (out / "free_retarded.csv").read_text()
    inter = (out / "interacting_retarded_order0.csv").read_text()
    assert free == inter
    orders = (out / "interacting_retarded_orders.csv").read_text().splitlines()
    assert len(orders) == 2  # header plus the free order only


def test_cli_verify_report_and_negative_control(tmp_path):
    out1 = tmp_path / "r1"
    assert main(["verify", "--suite", "green", "--out", str(out1)]) == 0
    report = json.loads((out1 / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["suites"] == ["green"]
    assert all(set(r) >= {"check", "inputs_digest", "max_residual", "passed"}
               for r in report["checks"])
    # reproducibility: byte-identical reports for equal config and seed
    out2 = tmp_path / "r2"
    assert main(["verify", "--suite", "green", "--out", str(out2)]) == 0
    assert (out1 / "verify_report.json").read_bytes() == \
        (out2 / "verify_report.json").read_bytes()
    # corrupted kernel must fail the bracket suite with exit code 1
    bad = write(tmp_path, "debug.corrupt_kernel = true\n")
    out3 = tmp_path / "r3"
    code = main(["verify", "--suite", "bracket", "--config", str(bad),
                 "--out", str(out3)])
    assert code == 1
    report = json.loads((out3 / "verify_report.json").read_text())
    failed = [r["check"] for r in report["checks"] if not r["passed"]]
    assert "bracket_graded_antisymmetry_exact" in failed


def test_cli_unknown_suite_exits_2(tmp_path):
    assert main(["verify", "--suite", "nope", "--out", str(tmp_path)]) == 2


def test_cli_verify_rejects_arithmetic_flag():
    """Every suite fixes its own mode, so verify has no --arithmetic."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--arithmetic", "rational"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key, value", [("arithmetic", "rational"),
                                        ("cutoff", "ones")],
                         ids=["arithmetic", "cutoff"])
def test_cli_verify_rejects_key(tmp_path, capsys, key, value):
    """The key is refused in a verify config file but kept by the others."""
    p = write(tmp_path, f"lattice.nt = 3\n{key} = {value}\n")
    out = tmp_path / "v"
    assert main(["verify", "--suite", "green", "--config", str(p),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"'{key}'" in err
    assert not (out / "verify_report.json").exists()
    assert main(["car-table", "--config", str(p), "--out", str(out)]) == 0


def test_cli_gn_series(tmp_path):
    p = write(tmp_path, "lattice.nt = 4\nlattice.nx = 1\narithmetic = rational\n")
    out = tmp_path / "gn"
    assert main(["gn-series", "--config", str(p), "--order", "2",
                 "--out", str(out)]) == 0
    lines = (out / "gn_moller_series.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["observable", "order", "coefficient_max_abs",
                      "homomorphism_residual", "truncated"]
    rows = [l.split(",") for l in lines[1:]]
    # order-0 rows carry the free observable (unit coefficient norm)
    zero_rows = [r for r in rows if r[1] == "0"]
    assert zero_rows and all(float(r[2]) == 1.0 for r in zero_rows)
    assert all(float(r[3]) < 1e-10 for r in rows)
    prop = (out / "gn_propagator_orders.csv").read_text().splitlines()
    ks = [int(l.split(",")[0]) for l in prop[1:]]
    grades = [int(l.split(",")[1]) for l in prop[1:]]
    assert grades == [2 * k for k in ks]


def test_cli_car_table(tmp_path):
    p = write(tmp_path, "lattice.nt = 3\nlattice.nx = 1\narithmetic = rational\n")
    out = tmp_path / "car"
    assert main(["car-table", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "car_table.csv").read_text().splitlines()
    assert lines[0] == "field_slot,conjugate_slot,re_hbar1,im_hbar1"
    assert len(lines) > 1
