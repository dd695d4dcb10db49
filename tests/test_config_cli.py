"""Configuration grammar and the command-line front end."""

import csv
import hashlib
import json
from fractions import Fraction

import pytest

from fermifields import verify
from fermifields.cli import main
from fermifields.config import ConfigError, RunConfig, load_config
from fermifields.reports import TOL_NUM


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
    # the lattice, colour and mode rules name the key they reject
    for text, key in (("lattice.dt = 2\nlattice.dx = 1\n", "lattice.dt"),
                      ("lattice.nt = 1\n", "lattice.nt"),
                      ("lattice.nx = 0\n", "lattice.nx"),
                      ("lattice.dx = 0\n", "lattice.dx"),
                      ("colors = 0\n", "colors"),
                      ("arithmetic = decimal\n", "arithmetic")):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            load_config(write(tmp_path, text))
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, "cutoff = sometimes\n"))
    # the deleted fault hook's key is an unknown key like any other
    with pytest.raises(ConfigError,
                       match="unknown config key 'debug.corrupt_kernel'"):
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
    cfg3 = RunConfig(nt=6, nx=2, cutoff="window:1:4").validate()
    lat3 = cfg3.lattice()
    assert [complex(x) for x in cfg3.cutoff_weights(cfg3.field_lattice())] == [
        1 if 1 <= lat3.site_time(s) <= 4 else 0 for s in range(lat3.n_sites)]


@pytest.mark.parametrize("spec", ["window:2:1", "window:0:9", "window:-1:2",
                                  "window:1", "window:a:2"])
def test_cutoff_window_out_of_range_is_rejected(tmp_path, spec):
    """An empty or out-of-lattice window would switch the interaction off."""
    p = write(tmp_path, f"lattice.nt = 6\ncutoff = {spec}\n")
    with pytest.raises(ConfigError, match="cutoff"):
        load_config(p)
    assert main(["propagators", "--config", str(p), "--out", str(tmp_path)]) == 2


def test_default_window_cutoff_needs_three_times(tmp_path, capsys):
    """At nt = 2 the default window 1..nt-2 is empty: propagators exits 2
    instead of running the free theory as the interacting one."""
    cfg = RunConfig(nt=2, nx=2).validate()
    with pytest.raises(ConfigError, match="cutoff"):
        cfg.cutoff_weights(cfg.field_lattice())
    p = write(tmp_path, "lattice.nt = 2\nlattice.nx = 2\n")
    assert main(["propagators", "--config", str(p),
                 "--out", str(tmp_path / "out")]) == 2
    assert "cutoff = window" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["propagators", "gn-series", "verify"])
def test_cli_config_error_leaves_no_out_directory(tmp_path, command):
    """At nt = 2 each command exits 2 on its inputs (the default cutoff
    window, or the bracket suite's bound) before it creates --out."""
    p = write(tmp_path, "lattice.nt = 2\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_key_set_twice_exits_2(tmp_path, capsys):
    """A config file that sets one key twice is refused, naming the key and
    both lines, where the last line used to win silently."""
    p = write(tmp_path, "lattice.nt = 4\n# a comment\nmass = 1/2\n"
                        "lattice.nt = 5\n")
    out = tmp_path / "out"
    assert main(["propagators", "--config", str(p), "--out", str(out)]) == 2
    assert "key 'lattice.nt' is set twice, on lines 1 and 4" in \
        _one_config_error_line(capsys)
    assert not out.exists()


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


@pytest.mark.parametrize("arithmetic, defect", [("float", 1e-10),
                                                ("rational", 1e-300)])
def test_cli_propagators_fails_on_interacting_defect(tmp_path, monkeypatch,
                                                    arithmetic, defect):
    """The interacting defect gates the exit status: at 1e-10 in float
    mode, and at anything but exactly 0 in rational mode."""
    import fermifields.gross_neveu as gross_neveu
    p = write(tmp_path, "lattice.nt = 4\nlattice.nx = 1\nmass = 0\n"
                        f"arithmetic = {arithmetic}\n")
    args = ["propagators", "--config", str(p), "--out", str(tmp_path / "out")]
    assert main(args) == 0
    monkeypatch.setattr(gross_neveu, "propagator_defect", lambda ik: defect)
    assert main(args) == 1
    rows = (tmp_path / "out" / "defects.csv").read_text().splitlines()
    assert rows[-1] == f"interacting_defect,{defect!r}"


@pytest.mark.parametrize("arithmetic, nt, nx", [("rational", 3, 2), ("float", 4, 3)])
def test_cli_propagators_with_cutoff_ones(tmp_path, arithmetic, nt, nx):
    """propagators with ``cutoff = ones``, where W has rows on the first
    and the last time slice, exits 0: every rational defect reads exactly
    0.0, and every float one is below ``TOL_NUM``."""
    from fermifields.gross_neveu import build_gn_action
    p = write(tmp_path, f"lattice.nt = {nt}\nlattice.nx = {nx}\nlattice.dt = 1/2\n"
                        "mass = 3/4\nlambda = 1/8\ncutoff = ones\n"
                        f"arithmetic = {arithmetic}\n")
    cfg = load_config(p)
    fl = cfg.field_lattice()
    _, W = build_gn_action(fl, cfg.gn_params(fl)).second_kernel()
    assert {fl.slot_times[i] for i, _ in W.entries} >= {0, nt - 1}
    out = tmp_path / "out"
    assert main(["propagators", "--config", str(p), "--out", str(out)]) == 0
    with open(out / "defects.csv", newline="") as fh:
        defects = [float(r["max_defect"]) for r in csv.DictReader(fh)]
    assert len(defects) == 3
    for d in defects:
        assert d == 0.0 if arithmetic == "rational" else d < TOL_NUM


def test_cli_propagators_lambda_zero_matches_free(tmp_path):
    p = write(tmp_path, "lattice.nt = 3\nlattice.nx = 1\nlambda = 0\n")
    out = tmp_path / "zero"
    assert main(["propagators", "--config", str(p), "--out", str(out)]) == 0
    free = (out / "free_retarded.csv").read_text()
    inter = (out / "interacting_retarded_order0.csv").read_text()
    assert free == inter
    orders = (out / "interacting_retarded_orders.csv").read_text().splitlines()
    assert len(orders) == 2  # header plus the free order only


def test_cli_verify_report_is_reproducible(tmp_path):
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


def test_cli_unknown_suite_exits_2(tmp_path, capsys):
    assert main(["verify", "--suite", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown suite 'nope'" in capsys.readouterr().err


def _one_config_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    return err


def test_cli_out_naming_an_existing_file_exits_2(tmp_path, capsys, monkeypatch):
    """car-table --out FILE exits 2 before it builds the lattice, and
    leaves FILE as it was."""
    monkeypatch.setattr(RunConfig, "field_lattice",
                        lambda self: pytest.fail("the command ran"))
    out = write(tmp_path, "not a directory\n", name="taken")
    assert main(["car-table", "--out", str(out)]) == 2
    assert "is not a directory" in _one_config_error_line(capsys)
    assert out.read_text() == "not a directory\n"


def test_cli_config_naming_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["propagators", "--config", str(tmp_path), "--out", str(out)]) == 2
    assert "is a directory" in _one_config_error_line(capsys)
    assert not out.exists()


def test_cli_suite_listed_twice_exits_2(tmp_path, capsys, monkeypatch):
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name,
                            lambda cfg, name=name: pytest.fail(f"{name} ran"))
    out = tmp_path / "out"
    assert main(["verify", "--suite", "grassmann,grassmann",
                 "--out", str(out)]) == 2
    assert "suite 'grassmann' is listed twice" in _one_config_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("suites", [",", " ", ""], ids=["comma", "space", "empty"])
def test_cli_suite_naming_no_suite_exits_2(tmp_path, capsys, monkeypatch, suites):
    """A --suite that names no suite is a configuration error, not a run of
    every suite under a report that lists none."""
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name,
                            lambda cfg, name=name: pytest.fail(f"{name} ran"))
    out = tmp_path / "out"
    assert main(["verify", "--suite", suites, "--out", str(out)]) == 2
    assert f"--suite {suites!r} names no suite" in _one_config_error_line(capsys)
    assert not out.exists()


def test_run_suites_runs_all_only_for_none(monkeypatch):
    """``run_suites(cfg)`` and ``run_suites(cfg, None)`` run all six
    suites; an empty selection is a configuration error that runs none."""
    ran = []

    def suite(cfg, name):
        ran.append(name)
        return [{"check": name, "passed": True}]

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda cfg, name=name: suite(cfg, name))
    cfg = RunConfig().validate()
    for args in ((), (None,)):
        ran.clear()
        records, ok = verify.run_suites(cfg, *args)
        assert ok and len(ran) == 6
        assert ran == [r["check"] for r in records] == list(verify.SUITES)
    ran.clear()
    for empty in ([], ()):
        with pytest.raises(ConfigError, match="no suite selected"):
            verify.run_suites(cfg, empty)
    assert ran == []


@pytest.mark.parametrize("command, arithmetic, line", [
    # a spacing that rounds to 0.0, read as a float by every command
    *[(cmd, "float", "lattice.dt = 1e-400")
      for cmd in ("propagators", "gn-series", "car-table")],
    ("verify", None, "lattice.dt = 1e-400"),
    ("propagators", "rational", "lattice.dt = 1e-400"),
    # values above the float range
    ("verify", None, "mass = 1e400"),
    ("propagators", "float", "mass = 1e400"),
    *[(cmd, "rational", line) for cmd in ("propagators", "gn-series")
      for line in ("mass = 1e400", "lambda = 1e400")],
    ("car-table", "rational", "lattice.dx = 1e400"),
    # a nonzero coupling or mass that rounds to 0.0: the float run would
    # be the free or the massless theory
    *[(cmd, arithmetic, line) for cmd in ("propagators", "gn-series", "car-table")
      for arithmetic in ("float", "rational")
      for line in ("lambda = 1e-400", "mass = 1e-400")],
    ("verify", None, "mass = 1e-400"),
])
def test_cli_value_no_float_holds_exits_2(tmp_path, capsys, monkeypatch,
                                          command, arithmetic, line):
    """A config value that no float can hold exits 2 before the command
    runs, naming its key, and leaves no --out directory."""
    from fermifields import cli
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"),
                        lambda *a: pytest.fail("the command ran"))
    p = write(tmp_path, line + "\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(p), "--out", str(out)]
    if arithmetic:
        argv += ["--arithmetic", arithmetic]
    assert main(argv) == 2
    assert line.split(" = ")[0] in _one_config_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("arithmetic", ["float", "rational"])
def test_cli_zero_coupling_and_mass_run(tmp_path, arithmetic):
    """lambda = 0 and mass = 0 are exact zeros, not values that round to
    0.0: every command runs them and exits 0."""
    p = write(tmp_path, "lattice.nt = 3\nlattice.nx = 2\nlambda = 0\nmass = 0\n"
                        f"arithmetic = {arithmetic}\n")
    for cmd in ("propagators", "gn-series", "car-table"):
        assert main([cmd, "--config", str(p), "--out", str(tmp_path / cmd)]) == 0
    if arithmetic == "float":
        p = write(tmp_path, "lambda = 0\nmass = 0\n", "verify.cfg")
        assert main(["verify", "--suite", "green", "--config", str(p),
                     "--out", str(tmp_path / "verify")]) == 0


def test_cli_verify_bracket_needs_three_times(tmp_path, capsys, monkeypatch):
    """bracket samples its directions from the interior times 1..nt-2, so
    at nt = 2 verify exits 2, naming the suite and the bound, before any
    suite runs; a selection without bracket still runs."""
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name,
                            lambda cfg, name=name: pytest.fail(f"{name} ran"))
    p = write(tmp_path, "lattice.nt = 2\n")
    assert main(["verify", "--config", str(p),
                 "--out", str(tmp_path / "all")]) == 2
    assert "suite 'bracket' needs lattice.nt >= 3, got 2" in \
        capsys.readouterr().err
    assert not (tmp_path / "all" / "verify_report.json").exists()
    monkeypatch.undo()
    assert main(["verify", "--suite", "green", "--config", str(p),
                 "--out", str(tmp_path / "green")]) == 0


@pytest.mark.parametrize("order", ["0", "4"])
def test_cli_verify_moller_order_outside_1_to_3_exits_2(tmp_path, capsys, order):
    """moller runs on its own nt = 5 lattice, whose corrections end at
    order 3: any other truncation.lambda_order exits 2, naming the suite
    and the bound, and creates no --out."""
    out = tmp_path / "out"
    assert main(["verify", "--suite", "moller", "--order", order,
                 "--out", str(out)]) == 2
    assert (f"suite 'moller' needs truncation.lambda_order in 1..3, got {order}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_verify_moller_runs_the_order_it_reports(tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--suite", "moller", "--order", "2",
                 "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["config"]["lambda_order"] == 2
    orders = [rec["order"] for rec in report["checks"]
              if rec["order"] is not None]
    assert len(orders) == 6 and set(orders) == {2}


def test_cli_verify_lets_an_internal_error_through(tmp_path, monkeypatch):
    """Only configuration errors exit 2: a ValueError raised inside a suite
    is a fault of the program and propagates."""
    def broken(cfg):
        raise ValueError("internal fault")

    monkeypatch.setitem(verify.SUITES, "green", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["verify", "--suite", "green", "--out", str(tmp_path)])


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
    prop = [l.split(",") for l in
            (out / "gn_propagator_orders.csv").read_text().splitlines()[1:]]
    # --order 2 cuts the series at grade 4; the grade-6 row lies beyond it
    assert [(int(r[0]), int(r[1]), r[3]) for r in prop] == [
        (0, 0, "True"), (1, 2, "True"), (2, 4, "True"), (3, 6, "False")]


def test_cli_propagators_cuts_the_series_at_lambda_order(tmp_path, ci_runs):
    """truncation.lambda_order = 2 cuts the interacting series at order 2,
    and orders 0..2 read as in the default run, which is cut at order 3."""
    tables = []
    for extra in ((), ("truncation.lambda_order = 2",)):
        out = tmp_path / str(len(extra))
        p = write(tmp_path, "\n".join(ci_runs.FLOAT_4X3 + extra) + "\n")
        assert main(["propagators", "--config", str(p), "--out", str(out)]) == 0
        tables.append((out / "interacting_retarded_orders.csv")
                      .read_text().splitlines()[1:])
    full, cut = tables
    assert [r.split(",")[0] for r in cut] == ["0", "1", "2"]
    assert cut == full[:3] and len(full) == 4


@pytest.mark.parametrize("arithmetic", ["rational", "float"])
def test_cli_gn_series_fails_on_homomorphism_residual(tmp_path, monkeypatch,
                                                      arithmetic):
    """Adding λ·1 to every image keeps the map linear but not
    multiplicative: r(G ∧ P) and r(G) ∧ r(P) differ at order 1, and the
    run exits 1."""
    import fermifields.dynamics as dynamics
    from fermifields.series import TruncatedSeries
    p = write(tmp_path, f"lattice.nt = 4\nlattice.nx = 1\narithmetic = {arithmetic}\n")
    out = tmp_path / "gn"
    args = ["gn-series", "--config", str(p), "--order", "2", "--out", str(out)]
    assert main(args) == 0
    build = dynamics.moller_substitution

    def skewed(*a):
        m = build(*a)
        apply, alg = m.apply, m.algebra
        shift = TruncatedSeries(alg, {1: alg.one()}, m.order)
        m.apply = lambda e, order=None: apply(e, order) + shift
        return m

    monkeypatch.setattr(dynamics, "moller_substitution", skewed)
    assert main(args) == 1
    rows = [l.split(",") for l in
            (out / "gn_moller_series.csv").read_text().splitlines()[1:]]
    assert max(float(r[3]) for r in rows) >= 1.0


def test_cli_gn_series_sees_a_skew_on_grade_3_inputs(tmp_path, monkeypatch):
    """A map that adds λ·1 only to images of grade-3 elements: the field
    observable times P has grade 2 and stays clean, while the bilinear
    times P has grade 3, so its rows carry the skew and the run exits 1.
    Squares G ∧ G would be 0 for both observables and miss it."""
    import fermifields.dynamics as dynamics
    from fermifields.series import TruncatedSeries
    p = write(tmp_path, "lattice.nt = 4\nlattice.nx = 1\narithmetic = rational\n")
    out = tmp_path / "gn"
    build = dynamics.moller_substitution

    def skewed(*a):
        m = build(*a)
        apply, alg = m.apply, m.algebra
        shift = TruncatedSeries(alg, {1: alg.one()}, m.order)
        m.apply = lambda e, order=None: (apply(e, order) + shift
                                         if 3 in e.grades() else apply(e, order))
        return m

    monkeypatch.setattr(dynamics, "moller_substitution", skewed)
    assert main(["gn-series", "--config", str(p), "--order", "2",
                 "--out", str(out)]) == 1
    rows = [l.split(",") for l in
            (out / "gn_moller_series.csv").read_text().splitlines()[1:]]
    assert all(r[3] == "0.0" for r in rows if r[0] == "field")
    assert max(float(r[3]) for r in rows if r[0] == "bilinear") >= 1.0


def test_cli_gn_series_grade_cap_is_no_residual(tmp_path):
    """At max_grade 4 the images lose grades, and r(G) ∧ r(G) has grades
    above 4 that r(G ∧ G) cannot have; compared through grade 4 the
    residual is exactly 0 and the run exits 0."""
    p = write(tmp_path, "lattice.nt = 4\nlattice.nx = 3\narithmetic = rational\n"
                        "truncation.max_grade = 4\n")
    out = tmp_path / "gn"
    assert main(["gn-series", "--config", str(p), "--order", "2",
                 "--out", str(out)]) == 0
    rows = [l.split(",") for l in
            (out / "gn_moller_series.csv").read_text().splitlines()[1:]]
    assert all(r[4] == "True" for r in rows)
    assert all(r[3] == "0.0" for r in rows)


@pytest.mark.parametrize("argv", [
    ["car-table", "--seed", "1"], ["propagators", "--seed", "1"],
    ["gn-series", "--seed", "1"], ["car-table", "--order", "2"],
    ["propagators", "--order", "2"]],
    ids=["car-table-seed", "propagators-seed", "gn-series-seed",
         "car-table-order", "propagators-order"])
def test_cli_rejects_a_flag_the_subcommand_does_not_read(argv):
    """``--seed`` is registered on verify only, ``--order`` on verify and
    gn-series: elsewhere either is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_car_table(tmp_path):
    p = write(tmp_path, "lattice.nt = 3\nlattice.nx = 1\narithmetic = rational\n")
    out = tmp_path / "car"
    assert main(["car-table", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "car_table.csv").read_text().splitlines()
    assert lines[0] == "field_slot,conjugate_slot,re_hbar1,im_hbar1"
    assert len(lines) > 1


def test_cli_float_two_colours_at_3x3(tmp_path, ci_runs):
    """Float propagators and gn-series at the CI's 3x3 config with two
    colours: 72 generators, more than a 64-bit word mask could hold.  Both
    exit 0, so the interacting defect is below ``TOL_NUM``; gn-series
    reaches grade 8."""
    for argv in ci_runs.BY_NAME["float-3x3-2colors"].argvs(tmp_path):
        assert main(argv) == 0
    rows = dict(r.split(",") for r in
                (tmp_path / "propagators" / "defects.csv").read_text().splitlines()[1:])
    assert float(rows["interacting_defect"]) < TOL_NUM


def test_cli_float_car_table_shadows_rational_at_3x3(tmp_path):
    """Float car-table at 3x3 writes the rational table's (field,
    conjugate) rows in its order, each entry within 1e-12 relative of the
    rational one, as the CI's float step checks at 4x3."""
    tables = []
    for arithmetic in ("rational", "float"):
        p = write(tmp_path, "lattice.nt = 3\nlattice.nx = 3\nmass = 3/4\n"
                            f"lambda = 1/8\narithmetic = {arithmetic}\n", f"{arithmetic}.cfg")
        out = tmp_path / arithmetic
        assert main(["car-table", "--config", str(p), "--out", str(out)]) == 0
        with open(out / "car_table.csv", newline="") as fh:
            tables.append({(r["field_slot"], r["conjugate_slot"]):
                           complex(float(r["re_hbar1"]), float(r["im_hbar1"]))
                           for r in csv.DictReader(fh)})
    exact, approx = tables
    assert list(exact) == list(approx) and len(exact) > 200
    assert max(abs(approx[k] - v) / (abs(v) or 1.0) for k, v in exact.items()) < 1e-12


def test_cli_rational_4x3_outputs_keep_their_hashes(tmp_path, ci_runs):
    """propagators, car-table and gn-series (at the default grade and at
    max_grade 4) at the CI's rational 4x3 configs write the bytes whose
    hashes the CI pins, all 16 of those two runs; each norm in the three
    per-order norm tables is the exact norm rounded once.  The Møller
    table's ``truncated`` column flags only a grade cut: no row at the
    default grade 10, every row at max_grade 4."""
    got, want, flags = {}, {}, {}
    for name in ("rational-4x3", "rational-4x3-grade4"):
        run = ci_runs.BY_NAME[name]
        for argv in run.argvs(tmp_path / name):
            assert main(argv) == 0
        for rel, sha in run.sha256.items():
            want[name, rel] = sha
            got[name, rel] = hashlib.sha256((tmp_path / name / rel).read_bytes()).hexdigest()
        with open(tmp_path / name / "gn-series" / "gn_moller_series.csv",
                  newline="") as fh:
            flags[name] = [r["truncated"] for r in csv.DictReader(fh)]
    assert len(want) == 16 and got == want
    assert flags == {"rational-4x3": ["False"] * 8,
                     "rational-4x3-grade4": ["True"] * 8}
