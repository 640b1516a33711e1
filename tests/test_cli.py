import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import spquad as sq
from spquad import cli, errors
from spquad.cli import main

from support import random_frame

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1]
     / "src/spquad/schemas/cli_output.schema.json").read_text())

EXDOM = """\
x1' = x2^(1/3)*x3 + poly(0,2)*x2*x1^(-1/5)
x2' = 6*x1*x2^5*x3
x3' = 3*x1^(-8)*x2 + 4 + x3^(1/2) - 1.5*x1*x3
"""


@pytest.fixture
def exdom_file(tmp_path):
    p = tmp_path / "exdom.spode"
    p.write_text(EXDOM)
    return p


@pytest.fixture
def exp_frame_file(tmp_path):
    p = tmp_path / "exp.frame"
    p.write_text("0 1\n0 0\n")
    return p


def strict_loads(text):
    """json.loads that refuses NaN and Infinity."""
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_analyze_reports_structure(exdom_file, capsys):
    code, payload = run_json(capsys, ["analyze", str(exdom_file),
                                      "--format", "json"])
    assert code == 0
    res = payload["result"]
    assert res["criticality"] == [2]
    assert res["singularity"] == [2]
    assert res["domain"]["macro_orthant"] == [3]
    assert res["domain"]["removed_hyperplanes"] == [1]
    assert len(res["decomposition"]) == 2


def test_analyze_zero_system(tmp_path, capsys):
    p = tmp_path / "zero.spode"
    p.write_text("x1' = 0\nx2' = 0\n")
    code, payload = run_json(capsys, ["analyze", str(p), "--format", "json"])
    assert code == 0
    assert payload["result"]["criticality"] == [1, 2]
    assert payload["result"]["singularity"] == [1, 2]


def test_parse_error_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.spode"
    p.write_text("x1' = 3*\n")
    code = main(["analyze", str(p)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_quadratize_modes(exdom_file, tmp_path, capsys):
    frame_out = tmp_path / "out.frame"
    code, payload = run_json(capsys, [
        "quadratize", str(exdom_file), "--mode", "canonical",
        "--frame-out", str(frame_out), "--format", "json"])
    assert code == 0
    res = payload["result"]
    assert res["driver_dim"] == 7
    monos = [c["monomial"] for c in res["coordinates"]]
    assert "x1^(-1)*x2^(1/3)*x3" in monos
    frame = sq.parse_frame(frame_out.read_text())
    assert frame.dim == 7

    code, payload = run_json(capsys, [
        "quadratize", str(exdom_file), "--mode", "inclusive",
        "--format", "json"])
    assert payload["result"]["identity"] == {"1": 3, "2": 5, "3": 10}

    code, payload = run_json(capsys, [
        "quadratize", str(exdom_file), "--mode", "inverse",
        "--format", "json"])
    assert all(c["state"] == "W" for c in payload["result"]["coordinates"])
    assert payload["result"]["frame_dim"] == 14


def test_quadratize_canonical_lists_five_coordinates(tmp_path, capsys):
    p = tmp_path / "five.spode"
    p.write_text("x1' = x2*x3 + 2*x1^(-1/3)\n"
                 "x2' = 4*x1*x2^4*x3\n"
                 "x3' = 5*x1^(-3)*x2 + 3\n")
    code, payload = run_json(capsys, [
        "quadratize", str(p), "--mode", "canonical", "--format", "json"])
    assert code == 0
    monos = [c["monomial"] for c in payload["result"]["coordinates"]]
    assert monos == ["x1^(-1)*x2*x3", "x1^(-4/3)", "x1*x2^3*x3",
                     "x1^(-3)*x2*x3^(-1)", "x3^(-1)"]


def test_quadratize_airy_frame(tmp_path, capsys):
    p = tmp_path / "airy.spode"
    p.write_text("x1' = poly(0,1)*x2\nx2' = x1\n")
    frame_out = tmp_path / "airy.frame"
    code, _ = run_json(capsys, ["quadratize", str(p), "--mode", "inclusive",
                                "--frame-out", str(frame_out),
                                "--format", "json"])
    assert code == 0
    frame = sq.parse_frame(frame_out.read_text())
    assert frame.dim == 4


def test_series_on_frame(exp_frame_file, capsys):
    code, payload = run_json(capsys, [
        "series", str(exp_frame_file), "--order", "5", "--x0", "1,1",
        "--format", "json"])
    assert code == 0
    res = payload["result"]
    assert res["components"]["1"]["c"] == [1.0] * 6
    assert res["components"]["2"]["c"][1:] == [0.0] * 5
    assert res["radius_bound"] == 1.0


def test_series_on_spode_reports_original_components(tmp_path, capsys):
    p = tmp_path / "quadratic.spode"
    p.write_text("x1' = x1^2\n")
    code, payload = run_json(capsys, [
        "series", str(p), "--order", "4", "--x0", "1", "--format", "json"])
    assert code == 0
    c = payload["result"]["components"]["1"]["c"]
    assert c == [1.0, 1.0, 2.0, 6.0, 24.0]


def test_series_csv_output(exp_frame_file, capsys):
    code = main(["series", str(exp_frame_file), "--order", "2",
                 "--x0", "1,1", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split(",")[:2] == ["component", "k"]
    assert len(lines) == 1 + 2 * 3


def test_solve_csv_emits_path_rows(tmp_path, capsys):
    p = tmp_path / "quadratic.spode"
    p.write_text("x1' = x1^2\n")
    code = main(["solve", str(p), "--to", "2", "--x0", "-2", "--order", "30",
                 "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,x1"
    assert len(lines) >= 4          # start plus at least two recenters
    assert float(lines[1].split(",")[0]) == 0.0
    last = lines[-1].split(",")
    assert float(last[0]) == 2.0 and abs(float(last[1]) + 0.4) < 1e-6


def test_check_csv_emits_sample_rows(exp_frame_file, capsys):
    code = main(["check", str(exp_frame_file), "--window=0,0.4",
                 "--step", "1e-3", "--order", "16", "--x0", "1,1",
                 "--format", "csv", "--samples", "50"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,series_x1,series_x2,reference_x1,reference_x2,in_radius"
    assert len(lines) > 10


def test_check_csv_series_columns_equal_scalar_evaluate(capsys):
    """The CSV's series columns are the series evaluated at the row times,
    in the caller's components of a .spode system, on both sides of t0."""
    path = DATA / "five_monomials.spode"
    x0 = [1.0, 0.5, 0.8]
    code = main(["check", str(path), "--window=-0.01,0.012", "--step", "1e-4",
                 "--order", "10", "--x0", "1,0.5,0.8", "--format", "csv",
                 "--samples", "40"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("t,series_x1,series_x2,series_x3,reference_x1")
    q = sq.quadratize_inclusive(sq.parse_ode(path.read_text()))
    sol = sq.taylor(sq.driver_frame(q), sq.phi_eval(q, x0), 0.0, 10)
    sel = [q.identity[i] - 1 for i in (1, 2, 3)]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) > 30 and rows[0][0] < 0.0 < rows[-1][0]
    for row in rows:
        vals, _ = sq.evaluate(sol, row[0])
        assert row[1:4] == vals[sel].tolist()


def test_solve_quadratic_to_two(tmp_path, capsys):
    p = tmp_path / "quadratic.spode"
    p.write_text("x1' = x1^2\n")
    code, payload = run_json(capsys, [
        "solve", str(p), "--to", "2", "--x0", "-2", "--order", "30",
        "--format", "json"])
    assert code == 0
    res = payload["result"]
    assert abs(res["value"]["1"] + 0.4) < 1e-8
    assert res["recenters"] >= 2


def test_solve_where_one_estimate_overflows_keeps_halving(tmp_path, capsys):
    """A constant component's zero last coefficient does not let the
    overflowing estimate of the other pass: x2 reaches 100, not 26.77."""
    p = tmp_path / "pole.frame"
    p.write_text("0 0\n0 3e-11\n")
    code, payload = run_json(capsys, [
        "solve", str(p), "--to", "3.3e10", "--x0", "1,1", "--theta", "1",
        "--format", "json"])
    assert code == 0
    value = payload["result"]["value"]
    assert value["1"] == 1.0 and abs(value["2"] - 100.0) < 1e-5
    assert payload["result"]["recenters"] > 1


def test_solve_at_center_returns_x0(tmp_path, capsys):
    p = tmp_path / "quadratic.spode"
    p.write_text("x1' = x1^2\n")
    code, payload = run_json(capsys, [
        "solve", str(p), "--to", "0", "--x0", "-2", "--format", "json"])
    assert code == 0
    assert payload["result"]["value"]["1"] == -2.0
    assert payload["result"]["recenters"] == 0


def test_solve_beyond_pole_fails_nonzero(tmp_path, capsys):
    p = tmp_path / "quadratic.spode"
    p.write_text("x1' = x1^2\n")
    code = main(["solve", str(p), "--to", "2", "--x0", "1", "--order", "20"])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_check_against_reference(tmp_path, capsys):
    p = tmp_path / "nonstat.spode"
    p.write_text("x1' = poly(0,2)*x1\n")
    code, payload = run_json(capsys, [
        "check", str(p), "--window=-0.5,0.5", "--step", "1e-4",
        "--order", "16", "--x0", "1", "--format", "json"])
    assert code == 0
    res = payload["result"]
    assert res["max_rel"] <= 1e-8
    assert res["n_samples"] > 50


def test_check_zero_frame_exact(tmp_path, capsys):
    p = tmp_path / "zero.frame"
    p.write_text("0 0\n0 0\n")
    code, payload = run_json(capsys, [
        "check", str(p), "--window=0,1", "--step", "1e-2",
        "--order", "4", "--x0", "2,3", "--format", "json"])
    assert code == 0
    assert payload["result"]["max_rel"] == 0.0


def test_check_beyond_radius_flags_but_succeeds(tmp_path, capsys):
    # radius bound 1/3 on an entire solution: window reaches past it
    p = tmp_path / "exp3.frame"
    p.write_text("0 1\n0 0\n")
    code, payload = run_json(capsys, [
        "check", str(p), "--window=0,0.9", "--step", "1e-3",
        "--order", "25", "--x0", "3,1", "--format", "json"])
    assert code == 0
    assert payload["result"]["flagged"] is True
    assert payload["warnings"]


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    p = tmp_path / "quadratic.spode"
    p.write_text("x1' = x1^2\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x0": [-2.0], "order": 30, "to": 2.0}))
    code, payload = run_json(capsys, [
        "solve", str(p), "--config", str(cfg), "--format", "json"])
    assert code == 0
    assert abs(payload["result"]["value"]["1"] + 0.4) < 1e-8
    # a flag overrides the config value
    code, payload = run_json(capsys, [
        "solve", str(p), "--config", str(cfg), "--to", "0",
        "--format", "json"])
    assert payload["result"]["value"]["1"] == -2.0


def test_results_deterministic_for_fixed_options(exp_frame_file, capsys):
    argv = ["series", str(exp_frame_file), "--order", "8", "--x0", "1,1",
            "--format", "json"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    assert first["result"] == second["result"]


def test_output_file_written(exp_frame_file, tmp_path, capsys):
    out = tmp_path / "series.json"
    code = main(["series", str(exp_frame_file), "--order", "3",
                 "--x0", "1,1", "--format", "json", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)


def test_domain_error_exits_three(tmp_path, capsys):
    p = tmp_path / "neg.spode"
    p.write_text("x1' = x1^(-4/3)\n")   # phi undefined at x1 = 0
    code = main(["series", str(p), "--order", "3", "--x0", "0"])
    assert code == 3


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("argv", [
    ["series", "--x0", "nan,1"],
    ["series", "--x0", "inf,1"],
    ["series", "--x0", "1,x"],
    ["series", "--t0", "nan", "--x0", "1,1"],
    ["solve", "--to", "nan", "--x0", "1,1"],
    ["solve", "--to=-inf", "--x0", "1,1"],
    ["check", "--window=0,1,2", "--x0", "1,1"],
    ["check", "--window=0", "--x0", "1,1"],
    ["check", "--window=0,inf", "--x0", "1,1"],
    ["series", "--order", "200", "--x0", "1,1"],
    ["solve", "--to", "1", "--x0", "1,1", "--max-steps", "0"],
    ["check", "--window=0,1", "--x0", "1,1", "--samples", "0"],
    ["series", "--x0", "1,,1"],
    ["series", "--x0", ""],
    ["check", "--window=0,,1", "--x0", "1,1"],
    ["check", "--window=0,1", "--step", "inf", "--x0", "1,1"],
    ["check", "--window=0,1", "--step", "nan", "--x0", "1,1"],
])
def test_malformed_numbers_are_usage_errors(argv, capsys):
    argv = argv[:1] + [str(DATA / "vex.frame"), "--format", "json"] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must" in captured.err


@pytest.mark.parametrize("argv, option, value", [
    (["series", "--order", "6"], "--x0", "-1,0.5"),
    (["series", "--x0", "1,0.5"], "--t0", "-1e-3"),
    (["solve", "--x0", "1,0.5"], "--to", "-2.5e-1"),
    (["check", "--x0", "1,0.5", "--step", "1e-3"], "--window", "-0.01,0.01"),
])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_negative_value_may_follow_its_option(argv, option, value, fmt,
                                                capsys):
    """``--x0 -1,0.5`` reads as ``--x0=-1,0.5``, not as an option; an
    option without its value is still a usage error."""
    def run(*tokens):
        code = main(argv[:1] + [str(DATA / "linear2.spode"), "--format", fmt]
                    + argv[1:] + list(tokens))
        out = capsys.readouterr().out
        return code, re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out)

    code, out = run(option, value)
    assert code == 0 and (code, out) == run(f"{option}={value}")
    with pytest.raises(SystemExit) as exc:
        main(["series", str(DATA / "linear2.spode"), "--x0", "--format", "json"])
    assert exc.value.code == 2


VEX = str(DATA / "vex.frame")


@pytest.mark.parametrize("files, argv", [
    ({}, ["series", "{tmp}/missing.frame", "--x0", "1,1"]),
    ({"bin.spode": b"\xff\xfe\x00"}, ["series", "{tmp}/bin.spode", "--x0", "1"]),
    ({}, ["series", VEX, "--x0", "1,1", "--config", "{tmp}/missing.json"]),
    ({"c.json": b"{bad"}, ["series", VEX, "--x0", "1,1", "--config", "{tmp}/c.json"]),
    ({"c.json": b"[1]"}, ["series", VEX, "--x0", "1,1", "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"order": [1]}'},
     ["series", VEX, "--x0", "1,1", "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"order": "abc"}'},
     ["series", VEX, "--x0", "1,1", "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"order": 1e999}'},
     ["series", VEX, "--x0", "1,1", "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"x0": [1, "a"]}'}, ["series", VEX, "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"to": "soon"}'},
     ["solve", VEX, "--x0", "1,1", "--config", "{tmp}/c.json"]),
    ({}, ["series", VEX, "--x0", "1,1", "--output", "{tmp}/no/dir.json"]),
    ({}, ["quadratize", str(DATA / "linear2.spode"),
          "--frame-out", "{tmp}/no/dir.frame"]),
    ({"a.spode": b"x0' = x1\n"}, ["series", "{tmp}/a.spode", "--x0", "1"]),
    ({"a.spode": b"x1' = x0\n"}, ["series", "{tmp}/a.spode", "--x0", "1"]),
    ({"a.frame": b"1e999 0\n0 1\n"}, ["series", "{tmp}/a.frame", "--x0", "1,1"]),
    ({"c.json": b'{"order": 2.7}'},
     ["series", VEX, "--x0", "1,1", "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"order": true}'},
     ["series", VEX, "--x0", "1,1", "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"order": 200}'},
     ["series", VEX, "--x0", "1,1", "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"theta": 0}'},
     ["solve", VEX, "--x0", "1,1", "--to", "1", "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"step": "inf"}'},
     ["check", VEX, "--x0", "1,1", "--window=0,1", "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"x0": "1,,1"}'}, ["series", VEX, "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"window": [0]}'},
     ["check", VEX, "--x0", "1,1", "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"x0": ["1,2"]}'}, ["series", VEX, "--config", "{tmp}/c.json"]),
    ({"c.json": b'{"order": ' + b"9" * 5000 + b"}"},
     ["series", VEX, "--x0", "1,1", "--config", "{tmp}/c.json"]),
])
def test_unusable_files_are_usage_errors(files, argv, tmp_path, capsys):
    """Unreadable or invalid input, config and output files exit 2 with a
    one-line message and no output."""
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, line", [
    (["series", VEX], "usage error: series needs --x0 (or 'x0' in --config)"),
    (["series", VEX, "--x0", "1"], "usage error: --x0 must supply 2 components"),
    (["series", VEX, "--x0", "1,1,1"],
     "usage error: --x0 must supply 2 components"),
    (["solve", VEX, "--x0", "1,1"],
     "usage error: solve needs --to (or 'to' in --config)"),
    (["check", VEX, "--x0", "1,1"],
     "usage error: check needs --window (or 'window' in --config)"),
    (["check", VEX, "--x0", "1,1", "--window=0,0"],
     "usage error: --window must extend beyond t0"),
    (["check", VEX, "--window=0,1", "--step", "1e-8", "--x0", "1,1"],
     "usage error: --step must cover each side of t0 in at most 10000000 "
     "RK4 steps"),
], ids=["no-x0", "short-x0", "long-x0", "no-to", "no-window", "empty-window",
        "step-budget"])
def test_options_missing_or_beyond_their_budget_are_usage_errors(
        argv, line, capsys):
    """Options that parse but cannot be used exit 2 with one stderr line."""
    assert main(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_solve_at_order_zero_is_one_usage_error(fmt, tmp_path, capsys):
    """At order 0 the tail estimate is the value, so no step could pass:
    the flag and the config value are usage errors, not numeric ones."""
    config = tmp_path / "c.json"
    config.write_text('{"order": 0}')
    line = ("usage error: solve needs an --order (or 'order' in --config) "
            "of at least 1, not 0\n")
    argv = ["solve", str(DATA / "linear2.spode"), "--to", "1", "--x0", "1,0.5",
            "--format", fmt]
    for extra in (["--order", "0"], ["--config", str(config)]):
        assert main(argv + extra) == 2
        assert capsys.readouterr() == ("", line)
    assert main(argv + ["--order", "8"]) == 0


@pytest.mark.parametrize("argv", [
    ["series", VEX, "--x0", "1,1", "--t0", "1e308", "--order", "5"],
    ["check", VEX, "--x0", "1,1", "--t0", "1e308", "--window=0,1.7e308",
     "--step", "1e307"],
], ids=["series", "check"])
def test_an_overflowing_frame_at_t0_is_one_numeric_error(argv, capsys):
    """V(t0) overflows at t0 = 1e308: the inf it holds ends in a numeric
    error, with no numpy warning (an error under this suite's filter)."""
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numeric error:")


@pytest.mark.parametrize("name, text, argv, kind", [
    ("q.frame", "poly(0,0,1) 0\n0 0\n",
     ["series", "--order", "4", "--x0", "1,1"],
     "Divergence: the coefficients of order 1 are the first that are not finite"),
    ("q.spode", "x1' = poly(0,0,1)*x1\n",
     ["check", "--x0", "1", "--window=1e160,2e160", "--step", "1e159"],
     "Blowup"),
], ids=["series", "check"])
def test_a_jet_power_beyond_the_float_range_is_one_numeric_error(
        name, text, argv, kind, tmp_path, capsys):
    """At t0 = 1e160 the re-expanded t^2 jet overflows the float range:
    exit 4 with one stderr line and no JSON written."""
    p = tmp_path / name
    p.write_text(text)
    out = tmp_path / "out.json"
    code = main(argv[:1] + [str(p), "--t0", "1e160", "--format", "json",
                            "--output", str(out)] + argv[1:])
    assert code == 4 and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"numeric error: {kind}")


def _error_classes(cls=errors.SpquadError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


CATEGORIES = {errors.OdeSyntaxError: 2, errors.UsageError: 2,
              errors.DomainError: 3, errors.NumericError: 4}


@pytest.mark.parametrize("cls", sorted(_error_classes(),
                                        key=lambda c: c.__name__))
def test_every_error_has_one_category_and_its_exit_code(cls, monkeypatch,
                                                       capsys):
    """Each error class descends from exactly one category and leaves
    main with that category's exit code and one stderr line."""
    (category,) = [c for c in CATEGORIES if issubclass(cls, c)]

    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_analyze", fail)
    assert main(["analyze", "unread.spode"]) == CATEGORIES[category]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.rstrip("\n").endswith("boom")


@pytest.mark.parametrize("files, argv, code, line", [
    ({"bad.spode": "x1' = 3*\n"}, ["analyze", "bad.spode"], 2,
     "parse error: line 1, column 9: expected a factor after '*' "
     "(line 1, column 9, bytes 8..8)"),
    ({"c.json": "[1]"}, ["series", VEX, "--x0", "1,1", "--config", "c.json"],
     2, "usage error: config c.json is not a JSON object"),
    ({"neg.spode": "x1' = x1^(-4/3)\n"},
     ["series", "neg.spode", "--order", "3", "--x0", "0"], 3,
     "domain error: DomainViolation: zero base with negative exponent"),
    ({}, ["series", VEX, "--order", "170", "--x0", "1e10,1e10"], 4,
     "numeric error: Divergence: the coefficients of order 52 are the first "
     "that are not finite"),
], ids=["parse", "usage", "domain", "numeric"])
def test_one_error_per_category_prints_its_line(files, argv, code, line,
                                                tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


@pytest.mark.parametrize("argv, key, flag, value", [
    (["series", "--x0", "1,1"], "order", "8", 8),
    (["series", "--x0", "1,1"], "t0", "0.5", 0.5),
    (["series"], "x0", "1,2", [1, 2]),
    (["solve", "--x0", "1,1"], "to", "0.1", 0.1),
    (["solve", "--x0", "1,1", "--to", "0.1"], "theta", "0.25", 0.25),
    (["solve", "--x0", "1,1", "--to", "0.1"], "max_steps", "50", 50),
    (["check", "--x0", "1,1"], "window", "-0.1,0.1", [-0.1, 0.1]),
    (["check", "--x0", "1,1", "--window=0,0.1"], "step", "1e-3", 1e-3),
    (["check", "--x0", "1,1", "--window=0,0.1"], "samples", "7", 7),
])
def test_an_option_as_flag_or_in_config_gives_the_same_result(
        argv, key, flag, value, tmp_path, capsys):
    """Flags and --config values pass one converter per option."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    argv = argv[:1] + [VEX, "--format", "json"] + argv[1:]
    _, by_flag = run_json(capsys, argv + [f"--{key.replace('_', '-')}={flag}"])
    _, by_config = run_json(capsys, argv + ["--config", str(cfg)])
    assert by_flag["result"] == by_config["result"]
    assert by_flag["meta"]["config"] == by_config["meta"]["config"]


@pytest.mark.parametrize("argv", [
    ["series", "--order", "6", "--t0", "-1e-3"],
    ["solve", "--to", "0.2", "--max-steps", "50"],
    ["check", "--window=-0.01,0.01", "--step", "1e-3", "--samples", "7"],
], ids=["series", "solve", "check"])
def test_meta_config_replays_the_run(argv, tmp_path, capsys):
    """A run's meta.config holds its resolved options, the caller's --x0
    included, so passing it back as --config repeats the run."""
    linear2 = str(DATA / "linear2.spode")
    _, first = run_json(capsys, argv[:1] + [linear2, "--format", "json",
                                            "--x0", "-1,0.5"] + argv[1:])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(first["meta"]["config"]))
    _, again = run_json(capsys, [argv[0], linear2, "--config", str(cfg),
                                 "--format", "json"])
    assert again["result"] == first["result"]
    assert again["meta"]["config"] == first["meta"]["config"]


def test_check_of_overflowing_spode_is_a_blowup(tmp_path, capsys):
    p = tmp_path / "cube.spode"
    p.write_text("x1' = x1^3\n")
    code = main(["check", str(p), "--window=0,1", "--step", "1e-3",
                 "--x0", "1", "--order", "8", "--format", "json"])
    assert code == 4
    assert "Blowup" in capsys.readouterr().err


def test_check_where_the_series_power_overflows_prints_strict_json(tmp_path, capsys):
    """|t - t0|^K overflows the float range on the zero frame, whose radius
    bound is inf; the run still ends with strict JSON."""
    p = tmp_path / "zero.frame"
    p.write_text("0 0\n0 0\n")
    code = main(["check", str(p), "--window=0,1e5", "--step", "1",
                 "--order", "100", "--x0", "1,1", "--format", "json"])
    assert code == 0
    payload = strict_loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["result"]["max_rel"] == 0.0


GENERATED_RUNS = {
    "series": ["--order", "12"],
    "solve": ["--to", "1.5"],
    "check": ["--window=-0.3,0.4", "--step", "1e-2", "--order", "10"],
}


@settings(derandomize=True, database=None, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1),
       command=st.sampled_from(sorted(GENERATED_RUNS)),
       scale=st.sampled_from([0.5, 2.0, 8.0, 1e3, 1e10]))
def test_json_output_of_generated_frames_is_strict(seed, command, scale,
                                                   tmp_path_factory, capsys):
    """series, solve and check on random constant frames of dimension 1-3
    and starts of either sign up to 1e10, where many runs blow up: every
    run that exits 0 prints strict JSON (no NaN or Infinity) that the
    output schema accepts."""
    rng = np.random.default_rng(seed)
    frame = random_frame(rng, zero_column=True)
    path = tmp_path_factory.mktemp("gen") / "gen.frame"
    path.write_text(sq.serialize_frame(frame))
    x0 = ",".join(map(repr, (scale * rng.uniform(-1.0, 1.0, frame.dim)).tolist()))
    code = main([command, str(path), f"--x0={x0}", "--format", "json"]
                + GENERATED_RUNS[command])
    out = capsys.readouterr().out
    assert code in (0, 3, 4)
    if code == 0:
        jsonschema.validate(strict_loads(out), SCHEMA)


# --------------------------------------------------------------------------
# solve steps from the coefficient tail
# --------------------------------------------------------------------------

def test_solve_linear2_to_three_in_few_recenters(capsys):
    """The tail step takes linear2 to t = 3 in at most 12 recenters (70 with
    theta times the radius bound alone), to 1e-14 of the matrix exponential."""
    mpmath = pytest.importorskip("mpmath")
    code, payload = run_json(capsys, [
        "solve", str(DATA / "linear2.spode"), "--to", "3", "--x0", "1,0.5",
        "--format", "json"])
    assert code == 0
    res = payload["result"]
    assert res["recenters"] <= 12
    with mpmath.workdps(40):
        A = mpmath.matrix([[0.3, -0.2], [1.0, 0.1]])
        exact = mpmath.expm(A * 3) * mpmath.matrix([1.0, 0.5])
        for i in (1, 2):
            got = mpmath.mpf(res["value"][str(i)])
            assert abs(got - exact[i - 1]) <= 1e-14 * abs(exact[i - 1])


def test_solve_linear2_to_five_stops_where_x1_crosses_zero(capsys):
    """exp(A t) x0 puts x1 through zero at t ~ 3.604, where the driver
    coordinate x2/x1 blows up: t = 5 is out of reach, and solve says so
    with a typed error before t = 3.7 instead of running out of recenters."""
    code = main(["solve", str(DATA / "linear2.spode"), "--to", "5",
                 "--x0", "1,0.5"])
    assert code in (3, 4)
    err = capsys.readouterr().err
    assert "recenters" not in err
    t_stop = float(re.search(r"near t = (\S+)", err).group(1).rstrip(")"))
    assert 3.5 < t_stop < 3.7


def test_solve_riccati_at_low_order_keeps_its_recenters(tmp_path, capsys):
    """The step is never below theta times the radius bound: x' = x^2 from
    -2 to 2 at order 10 needs no more than its 24 recenters of that rule."""
    p = tmp_path / "quadratic.spode"
    p.write_text("x1' = x1^2\n")
    code, payload = run_json(capsys, [
        "solve", str(p), "--to", "2", "--x0", "-2", "--order", "10",
        "--format", "json"])
    assert code == 0
    assert payload["result"]["recenters"] <= 24
    assert abs(payload["result"]["value"]["1"] + 0.4) < 1e-8


def test_solve_checks_the_state_it_lands_on(tmp_path, capsys):
    """x1' = -x2 x1 with x2 = 1e-3 takes x1 from 1e-300 to 6.7e-313 at
    t = 28000, below the zero threshold 1e-12 |x1(0)|: a domain exit, also
    when the target is where the path ends."""
    p = tmp_path / "decay.frame"
    p.write_text("0 -1\n0 0\n")
    code = main(["solve", str(p), "--x0", "1e-300,1e-3", "--to", "28000",
                 "--format", "json"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "DomainExit" in captured.err


# --------------------------------------------------------------------------
# non-finite numbers end in typed errors, never in non-strict JSON
# --------------------------------------------------------------------------

@pytest.mark.parametrize("command", [
    ["series", "--order", "3"],
    ["solve", "--order", "3", "--to", "0.1"],
])
def test_overflowing_initial_coordinate_is_a_blowup(command, tmp_path, capsys):
    p = tmp_path / "p400.spode"
    p.write_text("x1' = x1^400\n")
    code = main(command[:1] + [str(p), "--x0", "10", "--format", "json"]
                + command[1:])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Blowup" in captured.err and "coordinate 1" in captured.err


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_series_with_overflowing_coefficients_names_the_order(fmt, capsys):
    code = main(["series", str(DATA / "vex.frame"), "--order", "170",
                 "--x0", "1e10,1e10", "--format", fmt])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Divergence" in captured.err and "order 52 " in captured.err


def test_non_finite_json_output_is_a_numeric_error(capsys):
    """The series overflows, so check's relative errors are NaN: JSON output
    refuses them with exit 4 instead of printing NaN."""
    code = main(["check", str(DATA / "vex.frame"), "--order", "170",
                 "--x0", "1e10,1e10", "--window=0,1e-10", "--step", "1e-11",
                 "--format", "json"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "Divergence" in captured.err


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_check_with_a_non_finite_series_is_a_divergence(fmt, capsys):
    """The series overflows (order 52 of vex.frame at x0 = 1e10): every
    format ends with exit 4 instead of printing nan."""
    code = main(["check", str(DATA / "vex.frame"), "--order", "170",
                 "--x0", "1e10,1e10", "--window=0,1e-10", "--step", "1e-11",
                 "--format", fmt])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Divergence: the series is not finite at t = 0.0" in captured.err


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_check_with_an_overflowing_error_is_a_divergence(fmt, tmp_path, capsys):
    """x' = x^2 from -1 is -1/(1+t); at t = 10, far beyond the radius 1,
    the order-170 series is about 1e170, so its squared relative error
    overflows and the RMS is inf: exit 4 in every format."""
    p = tmp_path / "square.frame"
    p.write_text("1\n")
    with np.errstate(over="ignore"):
        code = main(["check", str(p), "--order", "170", "--x0=-1",
                     "--window=0,10", "--step", "1e-2", "--format", fmt])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Divergence: the relative error of the series is not finite" in captured.err


def test_an_overflowing_error_prints_one_line_on_stderr(tmp_path):
    """Relative errors above 1e154 square past the float range: the RMS is
    inf without a numpy warning ahead of the one-line Divergence."""
    p = tmp_path / "square.frame"
    p.write_text("1\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spquad", "check", str(p), "--order", "170",
         "--x0=-1", "--window=0,10", "--step", "1e-2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("numeric error: Divergence")


def _spquad_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


SERIES_ARGV = [sys.executable, "-m", "spquad", "series", str(DATA / "vex.frame"),
               "--x0", "1,1", "--order", "60"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_standard_output_is_one_usage_error():
    """Writing to a device with no space left is a usage error with one
    stderr line: no traceback, and nothing ignored at exit."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(SERIES_ARGV, stdout=full, stderr=subprocess.PIPE,
                              text=True, env=_spquad_env(), timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == ("usage error: cannot write standard output: "
                           "No space left on device\n")


def test_a_closed_pipe_on_standard_output_is_one_usage_error():
    """The reader of the pipe is gone before the CLI writes (as with
    ``| head -1`` once head has exited): a usage error with one stderr
    line, where a BrokenPipeError ended in a traceback."""
    proc = subprocess.Popen(SERIES_ARGV + ["--format", "csv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_spquad_env())
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.stderr.close()
    assert code == 2
    assert err == "usage error: cannot write standard output: Broken pipe\n"
