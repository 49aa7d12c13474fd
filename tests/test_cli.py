"""Front-end tests: flag parsing, config precedence, emission, exit codes.

run() is called in-process; a single subprocess test covers the installed
console script.
"""

import csv
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest

from ruin2d import cli, models
from ruin2d.cli import OutputRow, emit, run
from ruin2d.models import CompoundPoissonExp, TwoLineModel
from ruin2d.twodim import RuinQuery, exact

CPE = TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0)
OR_13 = exact(CPE, RuinQuery("OR", 1.0, 3.0)).value
SIM_13 = exact(CPE, RuinQuery("SIM", 1.0, 3.0)).value

CPE_FLAGS = ["--driver", "cpe", "--lambda", "1", "--mu", "2", "--p1", "3", "--p2", "1"]
BM_FLAGS = ["--driver", "brownian", "--p1", "3", "--p2", "1"]
# a valid raw proportional-split triple, scaled to canonical form by the CLI
RAW_FLAGS = ["--driver", "cpe", "--lambda", "1", "--mu", "2", "--u1", "0.5", "--u2", "1.5",
             "--c1", "1.5", "--c2", "0.5", "--delta1", "0.5", "--delta2", "0.5"]


def run_cli(argv, capsys):
    code = run(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def rows_json(out):
    doc = json.loads(out)
    assert isinstance(doc, list)
    return doc


def rows_csv(out):
    reader = csv.DictReader(io.StringIO(out))
    return list(reader)


class TestCompute:
    def test_single_exact_row_json(self, capsys):
        code, out, err = run_cli(
            ["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3",
             "--event", "or", "--method", "exact", "--format", "json"],
            capsys)
        assert code == 0 and err == ""
        rows = rows_json(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["value"] == OR_13  # json round-trips the float exactly
        assert row["event"] == "OR"
        assert row["method"] == "Exact"
        assert row["cone"] == "D0"
        assert row["exponent"] is None

    def test_event_method_product_order(self, capsys):
        code, out, _ = run_cli(
            ["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3",
             "--event", "or,sim", "--method", "exact,two_term", "--format", "json"],
            capsys)
        assert code == 0
        rows = rows_json(out)
        assert [(r["event"], r["method"]) for r in rows] == [
            ("OR", "Exact"), ("OR", "TwoTerm"), ("SIM", "Exact"), ("SIM", "TwoTerm")]
        # the two-term total reproduces the exact value for OR and SIM
        assert rows[1]["value"] == pytest.approx(rows[0]["value"], rel=1e-10)

    def test_csv_round_trip_precision(self, capsys):
        code, out, _ = run_cli(
            ["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3",
             "--event", "or", "--method", "exact"],
            capsys)
        assert code == 0
        assert out.splitlines()[0] == "x1,x2,a,K,event,method,value,cone,exponent,diagnostics"
        assert "\r" not in out and out.endswith("\n")
        row = rows_csv(out)[0]
        assert float(row["value"]) == pytest.approx(OR_13, rel=1e-11)  # 12 significant digits
        diag = json.loads(row["diagnostics"])
        assert "quad_err" in diag

    def test_raw_triple_scales_to_canonical(self, capsys):
        # u_i + c_i t - delta_i S(t) with delta = (1/2, 1/2) mapping onto
        # the canonical x=(1,3), p=(3,1) pair
        code, out, _ = run_cli(
            ["compute", "--driver", "cpe", "--lambda", "1", "--mu", "2",
             "--u1", "0.5", "--u2", "1.5", "--c1", "1.5", "--c2", "0.5",
             "--delta1", "0.5", "--delta2", "0.5",
             "--event", "or", "--method", "exact", "--format", "json"],
            capsys)
        assert code == 0
        assert rows_json(out)[0]["value"] == OR_13


class TestCones:
    def test_brownian_slopes_and_grid(self, capsys):
        code, out, _ = run_cli(["cones", *BM_FLAGS, "--format", "json"], capsys)
        assert code == 0
        rows = rows_json(out)
        head = rows[0]["diagnostics"]
        assert head["s1"] == pytest.approx(0.6, abs=1e-12)
        assert head["s2"] == pytest.approx(0.0, abs=1e-12)
        assert head["s3"] == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert head["gamma1"] == pytest.approx(6.0, rel=1e-12)
        assert head["gamma2"] == pytest.approx(2.0, rel=1e-12)
        assert head["d2_empty"] is True
        grid = rows[1:]
        assert len(grid) == 49
        labels = {r["a"]: r["cone"] for r in grid}
        assert labels[0.5] == "D0"
        assert labels[0.6] == "BoundaryRay"
        assert labels[0.7] == "D1"


class TestSweep:
    def test_exponent_column(self, capsys):
        code, out, _ = run_cli(
            ["sweep", *BM_FLAGS, "--a", "0.5", "--k", "10,40",
             "--event", "sim", "--method", "exact", "--format", "json"],
            capsys)
        assert code == 0
        rows = rows_json(out)
        assert [r["K"] for r in rows] == [10.0, 40.0]
        for r in rows:
            assert r["x1"] == 0.5 * r["K"] and r["x2"] == r["K"]
            assert r["exponent"] == pytest.approx(-math.log(r["value"]) / r["K"], rel=1e-12)
        # the decay exponent approaches the quadrant exit rate 3.125
        assert rows[1]["exponent"] == pytest.approx(3.125, rel=0.05)

    def test_one_default_safe_level_per_run(self, capsys, monkeypatch):
        calls = []
        real = cli.default_safe_level

        def counted(model2):
            calls.append(model2)
            return real(model2)

        monkeypatch.setattr(cli, "default_safe_level", counted)
        code, out, _ = run_cli(
            ["sweep", *CPE_FLAGS, "--a", "0.5", "--k", "2,4,6", "--method", "mc",
             "--n", "256", "--seed", "5", "--format", "json"],
            capsys)
        assert code == 0
        assert [r["K"] for r in rows_json(out)] == [2.0, 4.0, 6.0]
        assert len(calls) == 1

    def test_sweep_rejects_reserves(self, capsys):
        code, _, err = run_cli(
            ["sweep", *BM_FLAGS, "--x1", "1", "--x2", "3", "--a", "0.5", "--k", "10"],
            capsys)
        assert code == 2
        assert "ray spec" in err


class TestMcCommand:
    def test_estimate_row(self, capsys):
        code, out, _ = run_cli(
            ["mc", *CPE_FLAGS, "--x1", "1", "--x2", "3",
             "--n", "20000", "--seed", "5", "--format", "json"],
            capsys)
        assert code == 0
        row = rows_json(out)[0]
        assert row["event"] == "OR" and row["method"] == "MC"
        d = row["diagnostics"]
        assert d["n"] == 20000 and d["std_err"] > 0.0
        assert d["ci_lo"] <= row["value"] <= d["ci_hi"]
        assert abs(row["value"] - OR_13) <= 3.5 * d["std_err"]

    def test_nan_bias_bound_becomes_null(self, capsys):
        code, out, _ = run_cli(
            ["mc", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--n", "2000", "--seed", "5",
             "--horizon-time", "25", "--tilt", "-1.0", "--format", "json"],
            capsys)
        assert code == 0
        assert rows_json(out)[0]["diagnostics"]["bias_bound"] is None


class TestCompare:
    def test_ratio_and_agreement_columns(self, capsys):
        code, out, _ = run_cli(
            ["compare", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--event", "or",
             "--n", "20000", "--seed", "5", "--format", "json"],
            capsys)
        assert code == 0
        rows = rows_json(out)
        assert [r["method"] for r in rows] == ["Exact", "TwoTerm", "Leading", "MC"]
        assert rows[0]["diagnostics"]["ratio_to_exact"] == 1.0
        assert rows[1]["diagnostics"]["ratio_to_exact"] == pytest.approx(1.0, rel=1e-10)
        assert rows[2]["diagnostics"]["ratio_to_exact"] == pytest.approx(1.0, rel=0.25)
        mc = rows[3]["diagnostics"]
        assert mc["agree_3sigma"] is True

    # sha256 prefixes of the output, unchanged since compare called exact
    # a second time for each event's Exact row, except where the TwoTerm
    # rows became the exact assembly split in two and where the AND MC row
    # took the AND partition's cone
    @pytest.mark.parametrize("fmt, digest", [("json", "c71258db0a4cbb33"),
                                             ("csv", "fffc62e4d5f2d002")])
    def test_one_exact_call_per_event(self, fmt, digest, capsys, monkeypatch):
        calls = []
        real = cli.exact

        def counted(model2, query):
            calls.append(query.event)
            return real(model2, query)

        monkeypatch.setattr(cli, "exact", counted)
        code, out, _ = run_cli(
            ["compare", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--n", "2048",
             "--seed", "5", "--format", fmt],
            capsys)
        assert code == 0
        assert sorted(calls) == ["AND", "OR", "SIM"]
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


    # the AND rows read the AND partition (D2_hat where the SIM one has
    # D0); on the x1 = 0 axis D2 is empty at p2 = 1, so OR and SIM lie on
    # its closing ray, and not at p2 = 1.5; the LINE rows take OR's cone
    @pytest.mark.parametrize("p2, x1, x2, want", [
        ("1", "1", "3", {"OR": "D0", "SIM": "D0", "AND": "D2_hat"}),
        ("1", "0", "3", {"OR": "BoundaryRay", "SIM": "BoundaryRay", "AND": "D2_hat"}),
        ("1.5", "0", "3", {"OR": "D2", "SIM": "D2", "AND": "D2_hat"}),
        ("1", "0", "0", {"OR": "LowerCone", "SIM": "LowerCone", "AND": "LowerCone"}),
    ])
    def test_mc_rows_report_the_exact_rows_cones(self, p2, x1, x2, want, capsys):
        flags = [*CPE_FLAGS[:-1], p2]
        code, out, _ = run_cli(
            ["compare", *flags, "--x1", x1, "--x2", x2, "--event", "or,sim,and,line1,line2",
             "--method", "exact,mc", "--n", "256", "--format", "json"], capsys)
        assert code == 0
        cones = {(r["event"], r["method"]): r["cone"] for r in rows_json(out)}
        for ev in ("OR", "SIM", "AND", "LINE1", "LINE2"):
            assert cones[ev, "MC"] == cones[ev, "Exact"] == want.get(ev, want["OR"]), ev


class TestReuse:
    """The parser is built once per process; each spectral integral is
    computed once per invocation and never carried into the next one or
    into library calls."""

    @pytest.fixture()
    def integrals(self, monkeypatch):
        calls = []
        real = models.integrate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(models, "integrate", counted)
        return calls

    def test_one_parser_per_process(self, capsys):
        first = cli._parser()
        for argv in (["cones", *BM_FLAGS], ["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3"]):
            code, _, _ = run_cli(argv, capsys)
            assert code == 0
        assert cli._parser() is first

    def test_config_run_leaves_no_value_behind(self, capsys, tmp_path):
        argv = ["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3"]
        _, want, _ = run_cli(argv, capsys)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "query": {"event": "sim", "method": "leading"},
            "mc": {"seed": 9}, "output": {"format": "json"}}))
        code, out, _ = run_cli([*argv, "--config", str(path)], capsys)
        assert code == 0 and rows_json(out)[0]["event"] == "SIM"
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (0, want, "")
        assert rows_csv(out)[0]["event"] == "OR"

    def test_parse_error_then_good_run(self, capsys):
        argv = ["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--format", "json"]
        _, want, _ = run_cli(argv, capsys)
        with pytest.raises(SystemExit) as exc:
            run(["compute", *CPE_FLAGS, "--x1", "one"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (0, want, "")
        assert rows_json(out)[0]["value"] == OR_13

    # integrals per two-point sweep; one integral per row would take 8, 8 and 10
    @pytest.mark.parametrize("event, count", [("or", 4), ("sim", 4), ("and", 8)])
    def test_exact_and_two_term_share_integrals(self, event, count, capsys, integrals):
        argv = ["sweep", *CPE_FLAGS, "--a", "0.6", "--k", "2,5", "--event", event,
                "--method", "exact,two_term"]
        for _ in range(2):  # the second run recomputes: nothing outlives a run
            integrals.clear()
            code, _, _ = run_cli(argv, capsys)
            assert code == 0
            assert len(integrals) == count

    def test_library_calls_cache_nothing(self, integrals):
        for _ in range(2):
            integrals.clear()
            assert exact(CPE, RuinQuery("OR", 1.0, 3.0)).value == OR_13
            assert len(integrals) == 2

    # sha256 prefixes of the output, taken before the rows shared integrals
    # (the OR and SIM ones again when the TwoTerm rows became the exact assembly)
    @pytest.mark.parametrize("event, digest", [("or", "05554762ad1237fa"),
                                               ("sim", "fcb77852bd292e36"),
                                               ("and", "a46c83994b76a393")])
    def test_shared_sweep_rows_pinned(self, event, digest, capsys):
        code, out, _ = run_cli(
            ["sweep", *CPE_FLAGS, "--a", "0.6", "--k", "2,10,40", "--event", event,
             "--method", "exact,two_term,leading"],
            capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_shared_compute_rows_pinned(self, capsys):
        code, out, _ = run_cli(
            ["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--event", "or,sim,and",
             "--method", "exact,two_term", "--format", "json"],
            capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "86c1a79e15595d97"


class TestPrecedence:
    @pytest.fixture()
    def config_file(self, tmp_path):
        doc = {
            "model": {"driver": "cpe", "lambda": 1.0, "mu": 2.0, "p1": 3.0, "p2": 1.0},
            "query": {"x1": 1.0, "x2": 3.0, "event": "or", "method": "exact"},
            "output": {"format": "json"},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_file_alone(self, config_file, capsys):
        code, out, _ = run_cli(["compute", "--config", config_file], capsys)
        assert code == 0
        assert rows_json(out)[0]["value"] == OR_13

    @pytest.mark.parametrize(
        "flags,field,expect",
        [
            (["--event", "sim"], "event", "SIM"),
            (["--x2", "4"], "x2", 4.0),
            (["--method", "leading"], "method", "Leading"),
            (["--method", "twoterm"], "method", "TwoTerm"),
        ],
    )
    def test_flag_beats_file(self, config_file, capsys, flags, field, expect):
        code, out, _ = run_cli(["compute", "--config", config_file, *flags], capsys)
        assert code == 0
        assert rows_json(out)[0][field] == expect

    def test_list_values_in_file(self, capsys, tmp_path):
        # k and event may be JSON lists; they read as the comma lists of the flags
        doc = {"model": {"driver": "cpe", "lambda": 1.0, "mu": 2.0, "p1": 3.0, "p2": 1.0},
               "query": {"a": 0.5, "k": [1, 2.5], "event": ["or", "and"]},
               "output": {"format": "json"}}
        path = tmp_path / "lists.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["sweep", "--config", str(path)], capsys)
        assert code == 0
        code, want, _ = run_cli(["sweep", *CPE_FLAGS, "--a", "0.5", "--k", "1,2.5",
                                 "--event", "or,and", "--format", "json"], capsys)
        assert code == 0 and out == want
        assert [(r["K"], r["event"]) for r in rows_json(out)] == \
            [(1.0, "OR"), (1.0, "AND"), (2.5, "OR"), (2.5, "AND")]

    def test_event_override_changes_value(self, config_file, capsys):
        code, out, _ = run_cli(["compute", "--config", config_file, "--event", "sim"], capsys)
        assert code == 0
        assert rows_json(out)[0]["value"] == SIM_13

    def test_format_override(self, config_file, capsys):
        code, out, _ = run_cli(["compute", "--config", config_file, "--format", "csv"], capsys)
        assert code == 0
        assert out.startswith("x1,x2,")

    def test_model_override(self, config_file, capsys):
        code, out, _ = run_cli(["compute", "--config", config_file, "--lambda", "1.5"], capsys)
        assert code == 0
        assert rows_json(out)[0]["value"] != OR_13


class TestExitCodes:
    def test_premium_order_names_constraint(self, capsys):
        code, _, err = run_cli(
            ["compute", "--driver", "cpe", "--lambda", "1", "--mu", "2",
             "--p1", "1", "--p2", "3", "--x1", "1", "--x2", "3"],
            capsys)
        assert code == 2
        assert "p1 > p2" in err

    def test_net_profit_violation(self, capsys):
        code, _, err = run_cli(
            ["compute", "--driver", "cpe", "--lambda", "1", "--mu", "2",
             "--p1", "3", "--p2", "0.4", "--x1", "1", "--x2", "3"],
            capsys)
        assert code == 2
        assert "net profit" in err

    def test_refusal_is_exit_3_with_reason(self, capsys):
        # a = 0.6 sits exactly on the Brownian sector boundary
        code, _, err = run_cli(
            ["compute", *BM_FLAGS, "--x1", "0.6", "--x2", "1",
             "--event", "sim", "--method", "leading"],
            capsys)
        assert code == 3
        assert "refused" in err and "cone boundary" in err

    def test_exact_renewal_is_exit_3(self, capsys):
        code, _, err = run_cli(
            ["compute", "--driver", "renewal", "--interarrival", "det:1",
             "--claim", "exp:2", "--p1", "3", "--p2", "1",
             "--x1", "1", "--x2", "3", "--method", "exact"],
            capsys)
        assert code == 3
        assert "refused" in err

    def test_underflowing_mc_estimate_is_exit_3(self, capsys):
        # every OR value is about 1e-287, so its std_err would read 0
        code, _, err = run_cli(
            ["mc", *BM_FLAGS, "--x1", "200", "--x2", "300", "--event", "or",
             "--n", "5000", "--seed", "1", "--horizon-time", "1000", "--tilt", "-4"],
            capsys)
        assert code == 3
        assert "squares underflow" in err

    def test_io_failure_is_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3",
             "--out", str(tmp_path / "missing_dir" / "rows.csv")],
            capsys)
        assert code == 4
        assert "cannot write" in err

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["compute", *CPE_FLAGS], "reserves"),
            (["compute", *CPE_FLAGS, "--x1", "1"], "both x1 and x2"),
            (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--a", "0.5", "--k", "10"], "exactly one"),
            (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--event", "ruin"], "unknown event"),
            (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--method", "magic"], "unknown method"),
            (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--u1", "1"], "raw triple"),
            (["compute", "--driver", "cpe", "--mu", "2", "--p1", "3", "--p2", "1",
              "--x1", "1", "--x2", "3"], "--lambda"),
            (["compute", "--driver", "renewal", "--interarrival", "det:1",
              "--p1", "3", "--p2", "1", "--x1", "1", "--x2", "3"], "--claim"),
            (["compute", "--p1", "3", "--p2", "1", "--x1", "1", "--x2", "3"], "driver"),
            (["mc", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--n", "100",
              "--horizon-time", "5"], "truncates ultimate"),
            (["mc", *CPE_FLAGS, "--x1", "1", "--x2", "3",
              "--horizon-time", "5", "--safe-level", "30"], "at most one"),
            # a given list value is checked by every command, whether it reads it or not
            (["cones", *CPE_FLAGS, "--k", "1,inf"], "finite"),
            (["mc", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--method", "magic"], "unknown method"),
            (["cones", *CPE_FLAGS, "--event", "ruin"], "unknown event"),
            (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--event", "line1",
              "--method", "two_term"], "method two_term supports or/sim/and, not line1"),
            (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--event", "line1",
              "--method", "leading"], "method leading supports or/sim/and, not line1"),
            # the points of a run: each full refusal text, and which wins when several apply
            (["sweep", *CPE_FLAGS, "--a", "0.5"], "sweeps need a ray spec: --a and --k"),
            (["sweep", *CPE_FLAGS, "--k", "10"], "sweeps need a ray spec: --a and --k"),
            (["sweep", *CPE_FLAGS, "--x1", "1", "--a", "0.5", "--k", "10"],
             "sweep takes a ray spec (a, k), not reserves"),
            (["sweep", *RAW_FLAGS, "--a", "0.5", "--k", "10"],
             "sweep takes a ray spec (a, k), not reserves"),
            (["compute", *RAW_FLAGS, "--a", "0.5", "--k", "10"],
             "the raw triple fixes the reserves; a ray spec cannot also be given"),
            (["compute", *CPE_FLAGS, "--a", "0.5", "--k", "10"], "compute needs reserves (x1, x2)"),
            (["mc", *CPE_FLAGS, "--k", "10"], "mc needs reserves (x1, x2)"),
            (["compute", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--event", ","],
             "empty event list"),
            (["sweep", *CPE_FLAGS, "--a", "0.5", "--k", "1,x"], "bad k entry 'x'"),
            (["compute", "--driver", "renewal", "--interarrival", "det:x", "--claim", "exp:2",
              "--p1", "3", "--p2", "1", "--x1", "1", "--x2", "3"], "bad interarrival spec"),
            (["compute", "--driver", "renewal", "--interarrival", "gam:1", "--claim", "exp:2",
              "--p1", "3", "--p2", "1", "--x1", "1", "--x2", "3"],
             "unknown interarrival kind 'gam'"),
            (["compute", *RAW_FLAGS, "--p1", "3"],
             "give either the raw (u, c, delta) triple or p1/p2 with reserves, not both"),
            (["compute", "--driver", "cpe", "--lambda", "1", "--mu", "2", "--p1", "3",
              "--x1", "1", "--x2", "3"], "premium rates p1 and p2 are required"),
        ],
    )
    def test_config_errors_are_exit_2(self, capsys, argv, needle):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert needle in err

    def test_bad_proportions(self, capsys):
        code, _, err = run_cli(
            ["compute", "--driver", "cpe", "--lambda", "1", "--mu", "2",
             "--u1", "0.5", "--u2", "1.5", "--c1", "1.5", "--c2", "0.5",
             "--delta1", "0.7", "--delta2", "0.5"],
            capsys)
        assert code == 2
        assert "sum to 1" in err

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ("{not json", "not valid JSON"),
            ('["list"]', "must be a JSON object"),
            ('{"model": []}', "must be an object"),
            ('{"model": {"speed": 3}}', "unknown key"),
            ('{"model": {"p1": "x"}}', "key 'p1' in config block 'model'"),
            ('{"mc": {"n": "many"}}', "key 'n' in config block 'mc'"),
            ('{"model": {"p1": [3]}}', "key 'p1' in config block 'model'"),
            ('{"output": {"format": "xml"}}', "key 'format' in config block 'output'"),
            ('{"query": {"x2": Infinity}}', "key 'x2' in config block 'query'"),
            ('{"model": {"x1": 1}}', "unknown key 'x1' in config block 'model'"),
        ],
    )
    def test_config_file_validation(self, capsys, tmp_path, doc, needle):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, _, err = run_cli(["compute", "--config", str(path)], capsys)
        assert code == 2
        assert needle in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["compute", "--config", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert "cannot read config file" in err

    @pytest.mark.parametrize("command", ["compute", "compare", "sweep", "cones"])
    @pytest.mark.parametrize(
        "flags,needle",
        [
            (["--n", "-5"], "replication count must be >= 1, got -5"),
            (["--ci-level", "7"], "ci_level must lie in (0, 1), got 7.0"),
            (["--workers", "0"], "workers and chunk_size must be >= 1"),
            (["--chunk-size", "0"], "workers and chunk_size must be >= 1"),
            (["--horizon-time", "-1"], "FixedTime horizon must be positive"),
            (["--safe-level", "0"], "SafeLevel must be positive"),
            (["--horizon-time", "5", "--safe-level", "3"], "at most one"),
        ],
    )
    def test_mc_settings_checked_without_mc_rows(self, capsys, monkeypatch, command,
                                                 flags, needle):
        """A bad MC setting is refused by every command, also when no MC
        row is asked for, and before the default SafeLevel is solved."""
        monkeypatch.setattr(cli, "default_safe_level", None)
        point = (["--a", "0.5", "--k", "2"] if command == "sweep"
                 else [] if command == "cones" else ["--x1", "1", "--x2", "3"])
        methods = ["--method", "exact"] if command != "cones" else []
        code, out, err = run_cli([command, *CPE_FLAGS, *point, *methods, *flags], capsys)
        assert (code, out) == (2, "")
        assert needle in err

    def test_mc_settings_in_config_file_checked(self, capsys, tmp_path):
        path = tmp_path / "mc.json"
        path.write_text('{"mc": {"ci_level": 1.5}}')
        code, _, err = run_cli(["cones", *CPE_FLAGS, "--config", str(path)], capsys)
        assert code == 2
        assert "ci_level must lie in (0, 1)" in err

    def test_exact_rows_solve_no_default_safe_level(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "default_safe_level", None)
        code, out, _ = run_cli(
            ["compare", *CPE_FLAGS, "--x1", "1", "--x2", "3", "--method", "exact,two_term",
             "--n", "64", "--format", "json"], capsys)
        assert code == 0 and len(rows_json(out)) == 6


class TestFlagTable:
    """Every subcommand has one flag per config key, and the config file
    takes each key in exactly one block."""

    _RAW = "raw proportional-split triple, scaled to canonical form"
    # (dest, option strings, type name, choices, help), sorted by dest
    FLAGS = [
        ("a", ("--a",), "float", None, "ray slope x1/x2 for sweeps"),
        ("c1", ("--c1",), "float", None, _RAW),
        ("c2", ("--c2",), "float", None, _RAW),
        ("chunk_size", ("--chunk-size",), "int", None, None),
        ("ci_level", ("--ci-level",), "float", None, None),
        ("claim", ("--claim",), None, None, "renewal claim size, det:V or exp:RATE"),
        ("config", ("--config",), None, None, "JSON config file {model, query, mc, output}"),
        ("delta1", ("--delta1",), "float", None, _RAW),
        ("delta2", ("--delta2",), "float", None, _RAW),
        ("driver", ("--driver",), None, ("cpe", "brownian", "renewal"), None),
        ("event", ("--event",), None, None, "comma list from or,sim,and,line1,line2"),
        ("format", ("--format",), None, ("json", "csv"), None),
        ("help", ("-h", "--help"), None, None, "show this help message and exit"),
        ("horizon_time", ("--horizon-time",), "float", None, None),
        ("interarrival", ("--interarrival",), None, None, "renewal interarrival, det:V or exp:RATE"),
        ("k", ("--k",), None, None, "comma list of ray magnitudes K"),
        ("lambda", ("--lambda",), "float", None, "claim arrival rate (cpe)"),
        ("method", ("--method",), None, None, "comma list from exact,two_term,leading,mc"),
        ("mu", ("--mu",), "float", None, "claim size rate (cpe)"),
        ("n", ("--n",), "int", None, None),
        ("out", ("--out",), None, None, "destination path (default: standard output)"),
        ("p1", ("--p1",), "float", None, None),
        ("p2", ("--p2",), "float", None, None),
        ("safe_level", ("--safe-level",), "float", None, None),
        ("seed", ("--seed",), "int", None, None),
        ("tilt", ("--tilt",), "float", None, None),
        ("u1", ("--u1",), "float", None, _RAW),
        ("u2", ("--u2",), "float", None, _RAW),
        ("workers", ("--workers",), "int", None, None),
        ("x1", ("--x1",), "float", None, None),
        ("x2", ("--x2",), "float", None, None),
    ]
    EVERY_KEY = {
        "model": {"driver": "cpe", "lambda": 1, "mu": 2, "interarrival": "det:1",
                  "claim": "exp:2", "p1": 3, "p2": 1, "u1": 0.5, "u2": 1.5, "c1": 1.5,
                  "c2": 0.5, "delta1": 0.5, "delta2": 0.5},
        "query": {"x1": 1, "x2": 3, "event": "or", "method": "exact", "a": 0.5, "k": "10"},
        "mc": {"n": 100, "seed": 1, "workers": 1, "chunk_size": 64, "ci_level": 0.95,
               "tilt": 0.0, "safe_level": 30, "horizon_time": 5},
        "output": {"format": "csv", "out": "rows.csv"},
    }

    @staticmethod
    def described(actions):
        return sorted((a.dest, tuple(a.option_strings), getattr(a.type, "__name__", None),
                       a.choices, a.help) for a in actions)

    def test_flags_pinned(self):
        assert self.described(cli._parser()[1].values()) == self.FLAGS

    def test_every_subcommand_has_the_same_flags(self):
        ap, _ = cli._parser()
        (sub,) = [a for a in ap._actions if a.dest == "command"]
        assert sorted(sub.choices) == ["compare", "compute", "cones", "mc", "sweep"]
        for p in sub.choices.values():
            assert self.described(p._actions) == self.FLAGS

    def test_every_key_in_its_block_is_accepted(self, tmp_path):
        path = tmp_path / "every.json"
        path.write_text(json.dumps(self.EVERY_KEY))
        every = {k: v for block in self.EVERY_KEY.values() for k, v in block.items()}
        assert set(every) == {dest for dest, *_ in self.FLAGS} - {"config", "help"}
        assert cli._load_config(str(path), cli._parser()[1]) == every


class TestEmit:
    def test_empty_rows_csv_is_header_only(self, capsys):
        emit([], "csv", None)
        out = capsys.readouterr().out
        assert out == "x1,x2,a,K,event,method,value,cone,exponent,diagnostics\n"

    def test_empty_rows_json_is_empty_array(self, capsys):
        emit([], "json", None)
        assert json.loads(capsys.readouterr().out) == []

    def test_single_row_json(self, capsys):
        emit([OutputRow(x1=1.0, x2=3.0, event="OR", method="Exact", value=0.25)],
             "json", None)
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 1 and doc[0]["value"] == 0.25

    def test_nonfinite_diagnostics_serialize_as_null(self, capsys):
        emit([OutputRow(event="OR", method="MC", value=0.5,
                        diagnostics={"bias_bound": float("nan"), "n": 10})],
             "json", None)
        d = json.loads(capsys.readouterr().out)[0]["diagnostics"]
        assert d["bias_bound"] is None and d["n"] == 10

    def test_csv_diagnostics_cell_survives_csv_parsing(self, capsys):
        emit([OutputRow(x1=1.0, x2=3.0, event="OR", method="Exact", value=0.25,
                        diagnostics={"terms": [0.1, 0.2], "note": 'say "hi"'})],
             "csv", None)
        row = rows_csv(capsys.readouterr().out)[0]
        diag = json.loads(row["diagnostics"])
        assert diag["terms"] == [0.1, 0.2] and diag["note"] == 'say "hi"'

    def test_file_destination(self, tmp_path):
        dest = tmp_path / "rows.csv"
        emit([OutputRow(x1=1.0, x2=3.0, event="OR", method="Exact", value=0.25)],
             "csv", str(dest))
        text = dest.read_text()
        assert text.splitlines()[1].startswith("1,3,")


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "ruin2d.cli", "cones", "--driver", "brownian",
         "--p1", "3", "--p2", "1", "--format", "json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[0]["diagnostics"]["s1"] == pytest.approx(0.6)
