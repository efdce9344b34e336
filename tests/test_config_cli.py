import json
import math

import pytest
from conftest import count_calls, row_by_row_profile_csv, use_per_call_route

from annulus_radial import cli, conditions
from annulus_radial.config import ConfigError, config_from_dict, load_config
from annulus_radial.exprlang import ExprDomainError
from annulus_radial.kernel import cone_floor, wp
from annulus_radial.reproduce import EXAMPLE_IDS, example_config
from annulus_radial.solver import CycleConsistencyError, picard_solve, recover_components


def minimal_config(**overrides):
    doc = {
        "kernel": {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1, "r0": 1.0, "N": 3},
        "weights": {"synthetic": "1"},
        "system": {"n": 1, "g": ["u/100"]},
        "numerics": {"grid_size": 257, "cutoff": 1e-6, "tol": 1e-10,
                     "max_iter": 50, "p": 2, "q": 2},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_valid_config_builds_specs():
    cfg = config_from_dict(minimal_config())
    assert cfg.kernel.alpha == 1.0
    assert cfg.weights.synthetic
    spec = cfg.problem_spec()
    assert spec.grid_size == 257
    assert spec.metric_p == 2.0


def test_defaults_fill_missing_sections():
    cfg = config_from_dict({"kernel": {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1}})
    assert cfg.n == 1
    with pytest.raises(AttributeError):  # len(cfg.g), read-only
        cfg.n = 2
    assert cfg.numerics["grid_size"] == 1025
    assert cfg.weights.synthetic


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update({"extra_section": {}}),
        lambda d: d["kernel"].update({"typo": 1}),
        lambda d: d["weights"].update({"factor": ["1"]}),
        lambda d: d["numerics"].update({"grid": 100}),
        lambda d: d.setdefault("windows", {}).update({"a_primed": 1}),
    ],
)
def test_unknown_keys_rejected(mutate):
    doc = minimal_config()
    mutate(doc)
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_schema_type_and_consistency_errors():
    with pytest.raises(ConfigError):
        config_from_dict({})  # kernel required
    doc = minimal_config()
    doc["system"] = {"n": 2, "g": ["u"]}
    with pytest.raises(ConfigError, match="system.g must list exactly n expressions"):
        config_from_dict(doc)
    doc = minimal_config()
    doc["kernel"]["alpha"] = "one"
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    doc = minimal_config()
    doc["weights"] = {"factors": ["1/(t+1)"]}  # missing p
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    doc = minimal_config()
    doc["weights"] = {"factors": ["1/(q+1)"], "p": [2]}  # bad variable
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    doc = minimal_config()
    doc["weights"] = {"synthetic": "1", "factors": ["1"], "p": [2]}
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    # integer fields take integral numbers only: no silent truncation
    for section, key, value in (("kernel", "N", 3.7), ("numerics", "grid_size", 100.9),
                                ("numerics", "max_iter", 2.5), ("system", "n", 1.5)):
        doc = minimal_config()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key} must be an integer"):
            config_from_dict(doc)
    doc = minimal_config()
    doc["kernel"]["N"] = 3.0
    doc["system"]["n"] = 1.0
    doc["numerics"].update({"grid_size": 257.0, "max_iter": 50.0})
    cfg = config_from_dict(doc)
    assert (cfg.kernel.N, cfg.n, cfg.numerics["grid_size"], cfg.numerics["max_iter"]) == (
        3, 1, 257, 50)


def test_builtin_example_configs_round_trip():
    for k in EXAMPLE_IDS:
        cfg = config_from_dict(example_config(k))
        assert cfg.n == 2
        assert len(cfg.g) == 2
        assert cfg.transform.R1 is not None


def test_overflowing_literal_is_a_config_error(tmp_path, capsys):
    doc = example_config(1)
    doc["system"]["g"] = ["1e400*u", "u"]
    with pytest.raises(ConfigError, match=r"'1e400' overflows \(offset 0\)"):
        config_from_dict(doc)
    path = write_config(tmp_path, doc)
    assert cli.main(["check", "--config", path, "--which", "krasnoselskii"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonlinearity expression rejected" in captured.err


def test_infinite_exponent_accepted():
    doc = minimal_config()
    doc["weights"] = {"factors": ["1/(t+1)"], "p": ["inf"]}
    cfg = config_from_dict(doc)
    assert math.isinf(cfg.weights.p_exponents[0])


def _full_config():
    """minimal_config with a factor weight, annulus radii and every window
    parameter: one config that holds every numeric field."""
    doc = minimal_config()
    doc["kernel"].update({"R1": 1.0, "R2": 3.0})
    doc["weights"] = {"factors": ["1/(t+1)"], "p": [2], "lower_bounds": [0.5]}
    doc["windows"] = {"a1": 1.0, "a2": 2.0, "a_prime": 1.0, "b_prime": 2.0,
                      "c_prime": 3.0, "K": 0.1}
    return doc


def _numeric_fields(doc):
    """(section, key, whether the value is a list) for every number in doc."""
    for section, body in doc.items():
        for key, value in body.items():
            if isinstance(value, list) and isinstance(value[0], (int, float)):
                yield section, key, True
            elif isinstance(value, (int, float)):
                yield section, key, False


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_are_config_errors(value):
    fields = list(_numeric_fields(_full_config()))
    assert len(fields) == 23
    for section, key, in_list in fields:
        doc = _full_config()
        if in_list:
            doc[section][key][0] = value
        else:
            doc[section][key] = value
        if value == math.inf and (section, key) in (("numerics", "q"), ("weights", "p")):
            config_from_dict(doc)  # the Holder exponents may be +infinite
            continue
        with pytest.raises(ConfigError, match=f"^{section}.{key} must "):
            config_from_dict(doc)


@pytest.mark.parametrize("command, section, key, value", [
    (["check", "--which", "uniqueness"], "windows", "K", math.nan),
    (["check", "--which", "uniqueness"], "windows", "K", math.inf),
    (["solve"], "numerics", "tol", math.nan),
    (["solve"], "numerics", "tol", math.inf),
    (["check", "--which", "krasnoselskii"], "windows", "a2", math.inf),
])
def test_cli_non_finite_number_is_exit_2(command, section, key, value, tmp_path, capsys):
    doc = minimal_config()
    doc["windows"] = {"a1": 1.0, "a2": 2.0, "K": 0.1}
    doc[section][key] = value  # written as NaN or Infinity
    path = write_config(tmp_path, doc)
    assert cli.main([command[0], "--config", path, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {section}.{key} must " in captured.err


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


# ---------------------------------------------------------------------------
# CLI behaviour and exit codes
# ---------------------------------------------------------------------------


def test_cli_kernel_check_passes(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    assert cli.main(["kernel", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_cli_kernel_table_shape(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    assert cli.main(["kernel", "--config", path, "--table", "--grid", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "s,t,value"
    assert len(lines) == 26  # header + 25 pairs
    # symmetric matrix: value(s,t) == value(t,s)
    table = {}
    for row in lines[1:]:
        s, t, v = row.split(",")
        table[(s, t)] = v
    for (s, t), v in table.items():
        assert table[(t, s)] == v


@pytest.mark.parametrize("table", [[], ["--table"]])
@pytest.mark.parametrize("grid", ["0", "1"])
def test_cli_kernel_grid_below_two_is_exit_2(table, grid, tmp_path, capsys):
    # the table route rejects it as the certificate route does
    path = write_config(tmp_path, minimal_config())
    assert cli.main(["kernel", "--config", path, "--grid", grid] + table) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid_size must be >= 2" in captured.err


def test_cli_kernel_degenerate_config_is_exit_2(tmp_path, capsys):
    doc = minimal_config()
    doc["kernel"].update({"alpha": 0, "beta": 0})
    path = write_config(tmp_path, doc)
    assert cli.main(["kernel", "--config", path]) == 2
    # exp(r0) leaves the double range: rejected before any PASS line prints
    doc = minimal_config()
    doc["kernel"]["r0"] = 800.0
    path = write_config(tmp_path, doc, "big_r0.json")
    capsys.readouterr()
    assert cli.main(["kernel", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "varrho overflows" in captured.err


def test_cli_constants_synthetic_converges(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    assert cli.main(["constants", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["constants"]["Q1"]["status"] == "converged"
    assert payload["constants"]["Q1"]["value"] == pytest.approx(2 * math.e, rel=1e-8)


def test_cli_constants_synthetic_with_infinite_q(tmp_path, capsys):
    # the Holder partner of q = inf is p = 1; q/(q-1) would be inf/inf
    doc = minimal_config()
    doc["numerics"]["q"] = math.inf  # written as Infinity
    path = write_config(tmp_path, doc)
    assert cli.main(["constants", "--config", path]) == 0
    consts = json.loads(capsys.readouterr().out)["constants"]
    k2, k3 = consts["k2"]["ingredients"], consts["k3"]["ingredients"]
    assert k2["diag_weight_norm_q"] == k3["diag_weight_norm_inf"]
    assert k2["diag_weight_norm_q"]["value"] == pytest.approx(0.5, rel=1e-12)
    assert k2["factor_1_p1"]["status"] == "converged"


def test_cli_constants_divergent_is_exit_3(tmp_path, capsys):
    path = write_config(tmp_path, example_config(1), "ex1.json")
    assert cli.main(["constants", "--config", path]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["constants"]["Q1"]["status"] == "divergent_suspected"


def test_cli_constants_holder_mismatch_is_exit_2(tmp_path, capsys):
    doc = example_config(1)
    doc["numerics"]["q"] = 2
    path = write_config(tmp_path, doc)
    assert cli.main(["constants", "--config", path]) == 2


def test_cli_check_exit_codes(tmp_path, capsys):
    ok = minimal_config(windows={"a1": 0.05, "a2": 1.0})
    ok["system"] = {"n": 1, "g": ["1"]}
    assert cli.main(["check", "--config", write_config(tmp_path, ok, "ok.json"),
                     "--which", "krasnoselskii"]) == 0
    bad = minimal_config(windows={"a1": 0.05, "a2": 1.0})
    bad["system"] = {"n": 1, "g": ["0"]}
    assert cli.main(["check", "--config", write_config(tmp_path, bad, "bad.json"),
                     "--which", "krasnoselskii"]) == 1
    missing = minimal_config()
    assert cli.main(["check", "--config", write_config(tmp_path, missing, "m.json"),
                     "--which", "krasnoselskii"]) == 2
    inconclusive = example_config(1)
    assert cli.main(["check", "--config",
                     write_config(tmp_path, inconclusive, "i.json"),
                     "--which", "krasnoselskii"]) == 3


def test_cli_check_uniqueness(tmp_path, capsys):
    doc = minimal_config(windows={"K": 0.01})
    assert cli.main(["check", "--config", write_config(tmp_path, doc, "u0.json"),
                     "--which", "uniqueness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["contraction"]) == {"with_wp", "without_wp"}
    doc = minimal_config(windows={"K": 100.0})
    assert cli.main(["check", "--config", write_config(tmp_path, doc, "u1.json"),
                     "--which", "uniqueness"]) == 1
    doc = example_config(4)
    assert cli.main(["check", "--config", write_config(tmp_path, doc, "u3.json"),
                     "--which", "uniqueness"]) == 3


def test_cli_solve_writes_profile_and_trace(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    out_dir = tmp_path / "out"
    assert cli.main(["solve", "--config", path, "--out", str(out_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"]["converged"] is True
    profile = (out_dir / "profile.csv").read_text().splitlines()
    assert profile[0] == "s,r,u1"
    assert len(profile) == 1 + 257
    assert (out_dir / "trace.json").exists()
    # rows carry both coordinates: s=1 maps to r=r0=1
    last = profile[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == 1.0


@pytest.mark.parametrize("extended", [False, True])
def test_profile_csv_matches_row_by_row_route(extended):
    doc = example_config(4)
    doc["numerics"]["grid_size"] = 4097
    spec = config_from_dict(doc).problem_spec()
    u, _ = picard_solve(spec, tol=1e-12, max_iter=100)
    comps = recover_components(spec, u, tol=1e-10, extended_precision=extended)
    text = cli._profile_csv(spec, comps)
    assert text == row_by_row_profile_csv(spec, comps)
    assert text.count("\n") == 1 + 4097


def test_cli_solve_example4_regularized(tmp_path, capsys):
    path = write_config(tmp_path, example_config(4), "ex4.json")
    out_dir = tmp_path / "sol4"
    assert cli.main(["solve", "--config", path, "--out", str(out_dir)]) == 0
    header = (out_dir / "profile.csv").read_text().splitlines()[0]
    assert header == "s,r,u1,u2"


def test_cli_solve_cone_gap_uses_certified_floor(tmp_path, capsys):
    # asymmetric kernel: wp = 0.613 bounds nothing, cone_floor = 0.0323 does
    kernel = {"alpha": 5, "beta": 0.2, "gamma": 0.3, "delta": 4, "r0": 1.0, "N": 3}
    doc = minimal_config(kernel=kernel, system={"n": 1, "g": ["1 + u/100"]})
    assert cli.main(["solve", "--config", write_config(tmp_path, doc)]) == 0
    payload = json.loads(capsys.readouterr().out)
    params = config_from_dict(doc).kernel
    assert payload["cone_floor"] == cone_floor(params)
    assert payload["wp"] == wp(params) > 10.0 * payload["cone_floor"]
    (comp,) = payload["cone"]
    assert comp["cone_gap"] == comp["min"] - payload["cone_floor"] * comp["max"]
    assert comp["cone_gap"] > 0.0  # the certified bound holds
    assert comp["min"] - payload["wp"] * comp["max"] < -0.1  # what wp would claim


def test_cli_solve_divergent_is_exit_4(tmp_path, capsys):
    doc = minimal_config()
    doc["system"] = {"n": 1, "g": ["50*u"]}
    path = write_config(tmp_path, doc)
    assert cli.main(["solve", "--config", path, "--init", "1.0"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"]["status"] == "diverging"


@pytest.mark.parametrize("level", ["nan", "inf"])
def test_cli_solve_non_finite_init_is_exit_2(level, tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    assert cli.main(["solve", "--config", path, "--init", level]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--init must be finite" in captured.err


@pytest.mark.parametrize("level", ["nan", "1.0"])
def test_cli_solve_multistart_with_init_is_exit_2(level, tmp_path, capsys):
    # --multistart picks its own starts, so an --init beside it is refused
    path = write_config(tmp_path, minimal_config())
    with pytest.raises(SystemExit) as info:
        cli.main(["solve", "--config", path, "--multistart", "--init", level])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_cli_solve_huge_init_reports_valid_json(tmp_path, capsys):
    # |new - u|^2 overflows on the first step; the report must stay JSON
    path = write_config(tmp_path, minimal_config())
    assert cli.main(["solve", "--config", path, "--init", "1e308"]) == 4
    out = capsys.readouterr().out

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    trace = json.loads(out, parse_constant=reject)["trace"]
    assert trace["status"] == "max_iter"
    assert len(trace["rho_history"]) == trace["iterates"] == 50
    assert all(0.0 < rho <= d for rho, d in zip(trace["rho_history"], trace["d_history"]))


def test_cli_solve_evaluation_error_is_exit_4(tmp_path, capsys):
    # log(u) parses, so the config is valid; it fails on the zero start
    doc = minimal_config()
    doc["system"] = {"n": 1, "g": ["log(u)"]}
    assert cli.main(["solve", "--config", write_config(tmp_path, doc)]) == 4
    assert "nonlinearity 1 failed" in capsys.readouterr().err


def test_cli_solve_cycle_consistency_error_is_exit_4(tmp_path, capsys, monkeypatch):
    def open_cycle(*args, **kwargs):
        raise CycleConsistencyError("cyclic closure residual 1e-3 exceeds 1e-9")

    monkeypatch.setattr(cli, "recover_components", open_cycle)
    path = write_config(tmp_path, minimal_config())
    assert cli.main(["solve", "--config", path]) == 4
    assert "cyclic closure residual" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["constants"], ["check", "--which", "krasnoselskii"]])
def test_cli_constants_and_check_evaluation_error_is_exit_3(tmp_path, capsys, argv):
    # the weight parses but fails to evaluate below t = 0.5
    doc = minimal_config(weights={"synthetic": "log(t-0.5)"},
                         windows={"a1": 0.05, "a2": 1.0})
    path = write_config(tmp_path, doc)
    assert cli.main([argv[0], "--config", path, *argv[1:]]) == 3
    assert "integrand failed" in capsys.readouterr().err


_LOG_AT_ZERO = "log of nonpositive value in 'log(u)' at x=0.0"


def test_cli_check_window_domain_error_is_exit_3(tmp_path, capsys):
    # log(u) parses, so the config is valid; the windows evaluate it at u = 0
    doc = minimal_config(windows={"a1": 0.5, "a2": 2.0})
    doc["system"] = {"n": 1, "g": ["log(u)"]}
    path = write_config(tmp_path, doc)
    assert cli.main(["check", "--config", path, "--which", "krasnoselskii"]) == 3
    assert capsys.readouterr().err == f"error: {_LOG_AT_ZERO}\n"


@pytest.mark.parametrize("command, stage, code",
                         [("constants", "compute_constants", 3), ("solve", "picard_solve", 4)])
def test_cli_runtime_domain_error_exit_code(tmp_path, capsys, monkeypatch, command, stage, code):
    def fails(*args, **kwargs):
        raise ExprDomainError(_LOG_AT_ZERO)

    monkeypatch.setattr(cli, stage, fails)
    assert cli.main([command, "--config", write_config(tmp_path, minimal_config())]) == code
    assert capsys.readouterr().err == f"error: {_LOG_AT_ZERO}\n"


@pytest.mark.parametrize("argv", [["constants"], ["check", "--which", "krasnoselskii"], ["solve"]])
def test_cli_expression_parse_error_is_exit_2(tmp_path, capsys, argv):
    doc = minimal_config(windows={"a1": 0.5, "a2": 2.0})
    doc["system"] = {"n": 1, "g": ["log(u"]}
    path = write_config(tmp_path, doc)
    assert cli.main([argv[0], "--config", path, *argv[1:]]) == 2


def test_cli_solve_builds_profile_only_with_out(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, example_config(4), "ex4.json")
    real_profile = cli._profile_csv

    def unread(*args, **kwargs):
        raise AssertionError("profile built without --out")

    monkeypatch.setattr(cli, "_profile_csv", unread)
    assert cli.main(["solve", "--config", path]) == 0
    lazy = capsys.readouterr().out
    monkeypatch.setattr(cli, "_profile_csv", real_profile)
    out_dir = tmp_path / "sol4"
    assert cli.main(["solve", "--config", path, "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == lazy
    profile = (out_dir / "profile.csv").read_text().splitlines()
    assert profile[0] == "s,r,u1,u2"
    assert len(profile) == 1 + example_config(4)["numerics"]["grid_size"]


def test_cli_multistart(tmp_path, capsys):
    cases = (
        ("1/(1+u)", {}, 2.0, 257),
        # Dirichlet ends; the start at level 6 overflows exp and diverges
        ("2*exp(u)", {"beta": 0, "delta": 0}, 6.0, 2049),
    )
    for g, kernel, a2, grid_size in cases:
        doc = minimal_config(windows={"a1": 0.5, "a2": a2})
        doc["kernel"].update(kernel)
        doc["system"] = {"n": 1, "g": [g]}
        doc["numerics"]["grid_size"] = grid_size
        path = write_config(tmp_path, doc)
        assert cli.main(["solve", "--config", path, "--multistart"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solutions_found"] == 1


def test_cli_check_and_solve_read_the_same_piecewise_g(tmp_path, capsys):
    # the log in the second condition is undefined where the first one holds
    doc = minimal_config(windows={"a1": 0.1, "a2": 4.0})
    g = "piecewise((u <= 0, 1), (log(u) > 1, 2), (else, 1))"
    doc["system"] = {"n": 1, "g": [g]}
    path = write_config(tmp_path, doc)
    assert cli.main(["check", "--config", path, "--which", "krasnoselskii"]) == 0
    windows = json.loads(capsys.readouterr().out)["windows"]
    assert [w["verdict"] for w in windows] == [True, True]
    assert cli.main(["solve", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["trace"]["converged"]


def test_cli_reproduce_reports_discrepancies(capsys):
    assert cli.main(["reproduce", "--example", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {r["location"]: r for r in payload["rows"]}
    q1 = rows["example-1/Q1"]
    assert q1["published"] == pytest.approx(1.153270463e-5)
    assert q1["computed"] is None
    assert q1["status"] == "divergent_suspected"
    assert all(c["verdict"] for c in payload["windows_bypass"])


def test_cli_reproduce_byte_stable(capsys):
    outputs = []
    for _ in range(2):
        assert cli.main(["reproduce", "--example", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_report_json_key_order_stable(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    outs = []
    for _ in range(2):
        assert cli.main(["constants", "--config", path]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert list(payload) == sorted(payload)


# ---------------------------------------------------------------------------
# shared window extrema and contraction integrals
# ---------------------------------------------------------------------------

_FAMILY = {1: "krasnoselskii", 2: "avery-henderson", 3: "leggett-williams",
           4: "uniqueness"}
# examples 1-3 have g1 = g2, so each distinct window is evaluated once
_DISTINCT_WINDOWS = {1: 2, 2: 3, 3: 3}

# a screen-style draw: asymmetric kernel, singular synthetic weight, g1 != g2
_SCREEN_STYLE = {
    "kernel": {"alpha": 2.352393, "beta": 2.268234, "gamma": 2.215996,
               "delta": 1.529712, "r0": 0.85753, "N": 3},
    "weights": {"synthetic": "0.639461*t^(-0.145025)"},
    "system": {"n": 2, "g": ["3.53686 + 1.96622*sin(u)", "3.01376 + 1.96622*sin(u)"]},
    "numerics": {"grid_size": 4097, "cutoff": 0.01, "tol": 1e-12, "max_iter": 200,
                 "p": 2, "q": 2},
    "windows": {"a1": 2.051458, "a2": 13.078546, "K": 1.96622},
}


def _cli_run(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _against_per_call_route(argv, monkeypatch, capsys):
    """(rc, stdout, stderr) of argv on both routes, and the window extrema,
    integrate and p_norm calls the library route made in conditions."""
    with monkeypatch.context() as m:
        use_per_call_route(m)
        ref = _cli_run(argv, capsys)
    calls = [count_calls(monkeypatch, conditions, name)
             for name in ("window_extremum", "integrate", "p_norm")]
    assert _cli_run(argv, capsys) == ref
    return calls


@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_reproduce_matches_per_call_route(example, monkeypatch, capsys):
    extrema, integrals, norms = _against_per_call_route(
        ["reproduce", "--example", str(example)], monkeypatch, capsys)
    if example == 4:
        assert (len(extrema), len(integrals), len(norms)) == (0, 1, 1)
    else:  # the bypass and computed sets share every window
        assert len(extrema) == _DISTINCT_WINDOWS[example]


@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_cli_check_matches_per_call_route(example, tmp_path, monkeypatch, capsys):
    argv = ["check", "--config", write_config(tmp_path, example_config(example)),
            "--which", _FAMILY[example]]
    extrema, integrals, norms = _against_per_call_route(argv, monkeypatch, capsys)
    if example == 4:
        assert (len(extrema), len(integrals), len(norms)) == (0, 1, 1)
    else:
        assert len(extrema) == _DISTINCT_WINDOWS[example]


def test_distinct_nonlinearities_evaluate_every_window(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, _SCREEN_STYLE)
    extrema, _, _ = _against_per_call_route(
        ["check", "--config", path, "--which", "krasnoselskii"], monkeypatch, capsys)
    assert len(extrema) == 4  # two windows for each of g1, g2
    monkeypatch.undo()
    _, integrals, norms = _against_per_call_route(
        ["check", "--config", path, "--which", "uniqueness"], monkeypatch, capsys)
    assert (len(integrals), len(norms)) == (1, 1)
    # the library calls of one screen draw make the same calls as before
    monkeypatch.undo()
    cfg = load_config(path)
    cs = conditions.compute_constants(cfg.kernel, cfg.weights, cfg.transform, 2.0)
    extrema, integrals, norms = (count_calls(monkeypatch, conditions, name)
                                 for name in ("window_extremum", "integrate", "p_norm"))
    win = cfg.windows
    conditions.check_krasnoselskii(cfg.g, win["a1"], win["a2"], cs)
    conditions.contraction_constant(cfg.kernel, cfg.weights, cfg.transform,
                                    win["K"], cfg.n, 2.0, 2.0)
    assert (len(extrema), len(integrals), len(norms)) == (4, 1, 1)
