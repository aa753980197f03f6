import contextlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaycontracts import OfferMatrix, TypeGrid, offers_from_csv, second_best_menu
from relaycontracts import cli
from relaycontracts.cli import main

KNAPSACK_OFFERS = (
    "m,n,gamma_linear,transfer\n"
    "0,0,10,2\n"
    "1,0,6,1\n"
    "2,0,5,1\n"
)


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_table3_command(capsys):
    assert main(["table3"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 10
    assert rows[0]["fb_gamma_db"] == "15.4490"
    assert rows[0]["sb_gamma_db"] == "9.0400"
    assert rows[9]["sb_gamma_db"] == "22.9528"
    assert rows[9]["fb_gamma_db"] == "22.9528"


def test_contracts_default_matches_table3(capsys):
    assert main(["contracts"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    expected_db = [9.0401, 12.3131, 14.6324, 16.4428, 17.9322,
                   19.1990, 20.3020, 21.2794, 22.1564, 22.9528]
    expected_t = [0.1603, 0.2806, 0.4008, 0.5210, 0.6412,
                  0.7615, 0.8817, 1.0019, 1.1221, 1.2424]
    assert len(rows) == 10
    for row, db, t in zip(rows, expected_db, expected_t):
        assert float(row["gamma_db"]) == pytest.approx(db, abs=1e-3)
        assert float(row["transfer"]) == pytest.approx(t, abs=5e-4)


def test_contracts_single_type(capsys):
    assert main(["contracts", "--quant", "1"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 1
    assert float(rows[0]["rent"]) == pytest.approx(0.0, abs=1e-9)


def test_contracts_doubled_cost(capsys):
    assert main(["contracts", "--cost", "2"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    gammas = np.array([float(r["gamma_linear"]) for r in rows])

    # closed-form oracle with uniform masses: chat_k = c(1/d_k + (1/d_k - 1/d_{k+1})(K-k))
    deltas = np.arange(50.0, 300.0, 25.0)
    c, k_count = 2.0, 10
    for k in (0, 2, 9):
        if k < k_count - 1:
            chat = c * (1 / deltas[k] + (1 / deltas[k] - 1 / deltas[k + 1]) * (k_count - 1 - k))
        else:
            chat = c / deltas[k]
        expected = max(1.0 / (2.0 * math.log(2.0) * chat) - 1.0, 0.0)
        assert gammas[k] == pytest.approx(expected, rel=1e-9)

    # doubling c is the same screening problem as halving every type
    halved = TypeGrid(deltas / 2.0, np.full((10, 16), 0.1))
    menu_halved = second_best_menu(halved, 1.0)
    assert np.allclose(gammas, menu_halved.snrs, rtol=1e-12)


def test_contracts_first_best_menu(capsys):
    assert main(["contracts", "--menu", "first_best"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert all(float(r["rent"]) == pytest.approx(0.0, abs=1e-12) for r in rows)


def test_select_knapsack_example(tmp_path, capsys):
    offers = tmp_path / "offers.csv"
    offers.write_text(KNAPSACK_OFFERS)
    assert main(["select", str(offers), "--budget", "2", "--resolution", "10"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    overall = [r for r in rows if r["method"] == "Overall"][0]
    assert float(overall["capacity"]) == pytest.approx(math.log2(12.0))
    assert overall["selected_m_list"] == "1;2"
    relaxed = [r for r in rows if r["method"] == "Relaxed"][0]
    assert float(relaxed["capacity"]) >= math.log2(12.0) - 1e-9


def test_select_empty_offers(tmp_path, capsys):
    offers = tmp_path / "offers.csv"
    offers.write_text("m,n,gamma_linear,transfer\n")
    assert main(["select", str(offers)]) == 0
    rows = parse_csv(capsys.readouterr().out)
    for row in rows:
        assert float(row["capacity"]) == 0.0


def test_select_negative_budget_is_usage_error(tmp_path, capsys):
    offers = tmp_path / "offers.csv"
    offers.write_text(KNAPSACK_OFFERS)
    with pytest.raises(SystemExit) as exc:
        main(["select", str(offers), "--budget", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("row", ["0,0,10,inf", "0,0,nan,1", "0,0,inf,1"])
def test_select_rejects_non_finite_offers(tmp_path, capsys, row):
    offers = tmp_path / "offers.csv"
    offers.write_text(f"m,n,gamma_linear,transfer\n{row}\n1,0,6,1\n")
    assert main(["select", str(offers), "--budget", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: offers must be finite")


@pytest.mark.parametrize("budget", ["inf", "nan"])
def test_select_non_finite_budget_is_named_error(tmp_path, capsys, budget):
    offers = tmp_path / "offers.csv"
    offers.write_text(KNAPSACK_OFFERS)
    assert main(["select", str(offers), "--budget", budget]) == 1
    assert capsys.readouterr().err.startswith("error: budget must be finite")


@pytest.mark.parametrize("budget", ["2000000", "1e300"])
def test_select_huge_budget_matches_slack_budget(tmp_path, budget):
    offers = tmp_path / "offers.csv"
    offers.write_text("m,n,gamma_linear,transfer\n0,0,10,2\n1,0,6,1\n")
    slack, huge = tmp_path / "slack.csv", tmp_path / "huge.csv"
    assert main(["select", str(offers), "--budget", "100", "--out", str(slack)]) == 0
    assert main(["select", str(offers), "--budget", budget, "--out", str(huge)]) == 0
    assert huge.read_bytes() == slack.read_bytes()



@pytest.mark.parametrize("rows, flags, message", [
    (["0,0,10,1e17", "1,0,6,1"], ["--budget", "2"],
     "offer (0, 0) transfer 1e+17 at resolution 1000 is 2**53 money units or more"),
    (["0,0,10,2", "1,0,6,1"], ["--budget", "2", "--resolution", "1000000000"],
     "knapsack table of 2 usable offers x 2000000001 money units"),
    (["0,99999999,10,2"], [], "offers span 1 relays x 100000000 subcarriers"),
    (["0,0,1.0,2.2e-311"], [], "offer (0, 0) SNR per unit transfer overflows"),
])
def test_select_out_of_range_inputs_are_named_errors(tmp_path, capsys, rows, flags, message):
    offers = tmp_path / "offers.csv"
    offers.write_text("\n".join(["m,n,gamma_linear,transfer", *rows]) + "\n")
    assert main(["select", str(offers), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


_HEADER = "m,n,gamma_linear,transfer"
_ODD_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-1", "1e17", "1e400", "-0.0", "", "x", " 1", "1_0"]),
)
_GOOD_ROW = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.floats(0.0, 200.0), st.floats(0.0, 3.0)
).map(lambda r: f"{r[0]},{r[1]},{r[2]!r},{r[3] if r[2] > 0.0 else 0.0!r}")
_ODD_ROW = st.one_of(
    st.tuples(
        st.sampled_from(["-1", "1.5", "", "a", "99999999", "4096", "0"]),
        st.integers(0, 4).map(str),
        _ODD_NUMBER_TEXT,
        _ODD_NUMBER_TEXT,
    ).map(",".join),
    st.text(alphabet="0123456789,.-eE \t", max_size=12),
)
_ODD_RESOLUTION_TEXT = st.sampled_from(
    ["0", "-3", "1.5", "abc", "1000000000", str(2**53), "9" * 40]
)


@settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    header=st.integers(0, 9).map(lambda i: ["", "m,n,gamma,transfer"][i] if i < 2 else _HEADER),
    rows=st.lists(_GOOD_ROW, max_size=10, unique_by=lambda row: tuple(row.split(",")[:2])),
    odd_row=st.one_of(st.none(), st.none(), st.tuples(st.integers(0, 10), _ODD_ROW)),
    budget=st.one_of(st.none(), *[st.floats(0.0, 50.0).map(repr)] * 2, _ODD_NUMBER_TEXT),
    resolution=st.one_of(st.none(), *[st.integers(1, 5000).map(str)] * 2, _ODD_RESOLUTION_TEXT),
)
def test_property_select_exits_cleanly_on_any_input(
    tmp_path, header, rows, odd_row, budget, resolution
):
    if odd_row is not None:
        rows.insert(odd_row[0], odd_row[1])
    offers = tmp_path / "offers.csv"
    offers.write_text("\n".join([header, *rows]) + "\n")
    argv = ["select", str(offers)]
    if budget is not None:
        argv += [f"--budget={budget}"]
    if resolution is not None:
        argv += [f"--resolution={resolution}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1

@pytest.mark.parametrize("argv", [
    ["select", "{offers}", "--budget", "2"],
    ["select", "{offers}", "--budget", "0.5"],
    ["select", "{offers}", "--budget", "1e300", "--resolution", "1"],
    ["simulate", "--relays", "0,3", "--budget", "0,1.5", "--subcarriers", "3", "--trials", "2"],
    ["simulate", "--relays", "4", "--trials", "2", "--information", "complete", "--quant", "1"],
])
def test_accepted_inputs_run_without_numpy_warnings(tmp_path, capsys, argv):
    # SNRs near the float maximum (no sum overflows), a vanishing SNR per
    # unit price, free and declined offers, and tiny or huge budgets.
    offers = tmp_path / "offers.csv"
    offers.write_text(
        "m,n,gamma_linear,transfer\n0,0,1e308,1\n1,0,5,1\n0,1,1e-320,1\n"
        "1,1,3,0\n2,1,0,0\n2,0,7,0.25\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([arg.format(offers=offers) for arg in argv]) == 0
    assert capsys.readouterr().err == ""


def test_select_drops_the_splits_whose_weights_overflow(tmp_path, capsys):
    # SNR per unit price 1e308 on two subcarriers: ASW's and NSW's budget
    # weights sum to inf, so ESW and SSCPA compete alone.
    offers = tmp_path / "offers.csv"
    offers.write_text("m,n,gamma_linear,transfer\n0,0,1e300,1e-8\n0,1,1e300,1e-8\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["select", str(offers), "--budget", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = parse_csv(out)
    assert {row["method"] for row in rows} == {"Overall", "BestSNR", "Relaxed"}
    assert {row["capacity"] for row in rows} == {"1993.15685693"}


def run_cli(argv):
    """(exit code, stdout, stderr) of one `main` call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_per_process_answers_each_call_as_a_fresh_one(tmp_path):
    offers = tmp_path / "offers.csv"
    offers.write_text(KNAPSACK_OFFERS)
    calls = [
        ["select", str(offers), "--budget", "x"],
        ["select", str(offers), "--budget", "-1"],
        ["select", str(offers), "--budget", "2", "--resolution", "10"],
        ["simulate", "--relays", "3", "--budget", "2", "--subcarriers", "2", "--trials", "2"],
    ]
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run_cli(argv))
    cli._parser.cache_clear()
    together = [run_cli(argv) for argv in calls]
    assert [code for code, _, _ in together] == [2, 2, 0, 0]
    assert together == alone
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("flag", ["--resolution=0", "--budget=-1"])
def test_select_range_errors_name_the_select_command(tmp_path, flag):
    offers = tmp_path / "offers.csv"
    offers.write_text(KNAPSACK_OFFERS)
    code, _, err = run_cli(["select", str(offers), flag])
    assert code == 2
    assert err.startswith("usage: relaycontracts select ")
    assert "\nrelaycontracts select: error: argument " in err


@pytest.mark.parametrize("command", ["table3", "contracts", "simulate"])
@pytest.mark.parametrize("cost, message", [
    ("nan", "cost coefficient must be finite and positive"),
    ("inf", "cost coefficient must be finite and positive"),
    ("1e-320", "first-best SNR overflows"),
    ("0", "cost coefficient must be finite and positive"),
    ("-1", "cost coefficient must be finite and positive"),
])
def test_out_of_range_cost_is_a_named_error(command, cost, message):
    argv = [command, "--cost", cost]
    if command == "simulate":
        argv += ["--relays", "2", "--trials", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, size", [
    (["contracts", "--quant", "1000000000"], "type grid of 1000000000 types x 16 subcarriers"),
    (["simulate", "--relays", "1000000000", "--trials", "1"], "1000000000 relays x 16 subcarriers"),
    (["simulate", "--subcarriers", "1000000000", "--trials", "1"], "10 types x 1000000000 subcarriers"),
    (["simulate", "--relays", "0", "--subcarriers", "1000000000", "--information", "complete"],
     "0 relays x 1000000000 subcarriers"),
])
def test_oversized_grids_and_rounds_are_refused_before_allocating(argv, size):
    # In process: a refusal that came after allocating would fail here first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and size in err and "2**28 bytes" in err
    assert err.count("\n") == 1


def _mostly(valid, *odd):
    """Four draws in five from `valid`, the rest malformed text from `odd`."""
    return st.one_of(*[valid] * 4, st.sampled_from(odd))


_SMALL_INT = _mostly(st.integers(0, 3).map(str), "-1", "1.5", "x", "", "1e3", "2,3")
_FLOAT_TEXT = _mostly(
    st.floats(0.0, 20.0).map(repr), "-1", "nan", "inf", "1e300", "", ",", "1,2", "2,nan", "x"
)
_SIMULATE_FLAGS = {
    "--relays": _SMALL_INT,
    "--budget": _FLOAT_TEXT,
    "--subcarriers": _SMALL_INT,
    "--quant": _SMALL_INT,
    "--trials": _SMALL_INT,
    "--cost": _FLOAT_TEXT,
    "--seed": _mostly(st.integers(0, 99).map(str), "-1", "x", "9" * 40),
    "--resolution": _mostly(st.integers(1, 2000).map(str), "0", "x"),
    "--menu": _mostly(st.sampled_from(["first_best", "second_best"]), "third"),
    "--information": _mostly(st.sampled_from(["complete", "asymmetric"]), ""),
    "--config": st.just("missing.json"),
}
_SELECT_FLAGS = {
    "--budget": _FLOAT_TEXT,
    "--resolution": _mostly(st.integers(1, 5000).map(str), "0", "x"),
}


@st.composite
def cli_argv(draw):
    """A `select` or `simulate` command line, mostly of small valid values."""
    command = draw(st.sampled_from(["select", "simulate"]))
    flags = _SELECT_FLAGS if command == "select" else _SIMULATE_FLAGS
    argv = [command, *draw(_mostly(st.just(["{offers}"]), []))] if command == "select" else [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)):
        argv += [flag, draw(flags[flag])]
    if command == "simulate" and "--trials" not in argv:
        argv += ["--trials", "1"]  # the default 1000 trials per cell take seconds
    stray = draw(_mostly(st.none(), "--bogus", "-", "x"))
    if stray is not None:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(
    max_examples=50, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=cli_argv(), rows=st.lists(_GOOD_ROW, max_size=6, unique_by=lambda row: tuple(row.split(",")[:2])))
def test_property_select_and_simulate_argv_exit_cleanly(tmp_path, argv, rows):
    offers = tmp_path / "offers.csv"
    offers.write_text("\n".join([_HEADER, *rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli([arg.format(offers=offers) for arg in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


def _assert_clean_exit(argv):
    """Run `argv`: exit 0, 1 or 2, no traceback, and exit 1 ends in one `error:` line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(
    st.text(max_size=60),
    st.lists(st.one_of(_GOOD_ROW, _ODD_ROW, st.text(max_size=12)), max_size=8).map(
        lambda rows: "\n".join([_HEADER, *rows])
    ),
))
def test_property_offers_from_csv_returns_offers_or_a_value_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            offers = offers_from_csv(text)
        except ValueError:
            return
    assert isinstance(offers, OfferMatrix)


_DIST_KEYS = ["kind", "low", "high", "rate", "cdf_points"]
_JSON_LEAF = _mostly(
    st.integers(0, 3),
    None, True, -1, 2.5, -1.5, 1e-320, 1e300, 10**9, 10**30, math.nan, math.inf, "", "x",
    "2,3", "1,nan", "uniform", "empirical", "truncated_exponential", "first_best", "complete",
)
_JSON_VALUE = st.one_of(*[_JSON_LEAF] * 4, st.recursive(
    _JSON_LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_mostly(st.sampled_from(_DIST_KEYS), "bogus"), inner, max_size=4),
    ),
    max_leaves=6,
))


@settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(raw=st.dictionaries(st.sampled_from([row[0] for row in cli._CONFIG]), _JSON_VALUE, max_size=4))
def test_property_config_file_exits_cleanly(tmp_path, raw):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    # --trials 1 overrides the file: the default 1000 trials per cell take seconds.
    _assert_clean_exit(["simulate", "--config", str(config), "--trials", "1"])


_CONTRACTS_FLAGS = {**_SIMULATE_FLAGS, "--quant": _mostly(_SMALL_INT, "1000", "1000000000")}


@st.composite
def contracts_argv(draw):
    """A `contracts` command line, mostly of small valid values."""
    argv = ["contracts"]
    for flag in draw(st.lists(st.sampled_from(sorted(_CONTRACTS_FLAGS)), max_size=4)):
        argv += [flag, draw(_CONTRACTS_FLAGS[flag])]
    stray = draw(_mostly(st.none(), "--bogus", "-", "x"))
    if stray is not None:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(argv=contracts_argv())
def test_property_contracts_argv_exits_cleanly(argv):
    _assert_clean_exit(argv)


def test_select_malformed_csv_names_line(tmp_path, capsys):
    offers = tmp_path / "offers.csv"
    offers.write_text("m,n,gamma_linear,transfer\n0,0,1.5\n")
    assert main(["select", str(offers)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_simulate_deterministic_output(tmp_path):
    args = [
        "simulate", "--relays", "3", "--budget", "2", "--subcarriers", "3",
        "--quant", "4", "--trials", "3", "--seed", "77",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_zero_relays(capsys):
    args = ["simulate", "--relays", "0", "--trials", "1", "--subcarriers", "2"]
    assert main(args) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert all(float(r["mean_capacity_per_subcarrier"]) == 0.0 for r in rows)


def test_simulate_sweep_flags(capsys):
    args = [
        "simulate", "--relays", "2,3", "--budget", "1,2", "--trials", "2",
        "--subcarriers", "2", "--quant", "3",
    ]
    assert main(args) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 4 * 3


@pytest.mark.parametrize("flag, value, message", [
    ("--cost", "inf", "cost coefficient must be finite"),
    ("--cost", "nan", "cost coefficient must be finite"),
    ("--budget", "inf", "budget must be finite"),
    ("--budget", "nan", "budget must be finite"),
    ("--budget", "1,nan", "budget must be finite"),
])
def test_simulate_non_finite_values_are_named_errors(capsys, flag, value, message):
    assert main(["simulate", "--trials", "1", flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["contracts", "simulate"])
@pytest.mark.parametrize("resolution", ["0", "9007199254740992"])
def test_config_resolution_outside_1_to_2_to_the_53_is_a_named_error(command, resolution):
    code, out, err = run_cli([command, "--trials", "1", "--resolution", resolution])
    assert (code, out) == (1, "")
    assert err == f"error: resolution must be a unit count in [1, 2**53), got {resolution}\n"


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dist": {"kind": "uniform", "low": 50, "high": 300},
        "quant": 4,
        "subcarriers": 2,
        "relays": 2,
        "budget": 1.0,
        "trials": 2,
        "seed": 5,
    }))
    assert main(["simulate", "--config", str(config), "--budget", "2"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert all(r["budget"] == "2" for r in rows)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"quant": 4, "bogus": 1}))
    assert main(["simulate", "--config", str(config)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_readme_distribution_examples_run(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r'`(\{"kind": .*?\})`', readme)
    assert len(examples) == 3
    for spec in examples:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dist": json.loads(spec), "quant": 4}))
        assert main(["contracts", "--config", str(config)]) == 0, spec
        assert len(parse_csv(capsys.readouterr().out)) == 4


@pytest.mark.parametrize("raw, key", [
    ({"quant": "ten"}, "quant"),
    ({"quant": 4.5}, "quant"),
    ({"relays": [2, "x"]}, "relays"),
    ({"menu": "third_best"}, "menu"),
    ({"dist": {"kind": "uniform", "low": 50}}, "dist"),
    ({"dist": {"kind": "empirical", "cdf_points": []}}, "dist"),
    ({"dist": [50, 300]}, "dist"),
])
def test_config_bad_values_are_named_errors(tmp_path, capsys, raw, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["contracts", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("information", ["asymmetric", "complete"])
def test_types_too_small_for_the_cost_are_named_errors(tmp_path, information):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dist": {"kind": "uniform", "low": 1e-320, "high": 1e-319},
        "relays": 2, "subcarriers": 2, "quant": 2,
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["simulate", "--config", str(config), "--trials", "1", "--information", information]
        )
    assert (code, out) == (1, "")
    assert err.startswith("error: relay type ") and "is too small for cost coefficient 1" in err
    assert err.count("\n") == 1


def test_config_sweeps_accept_json_lists(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "relays": [2, 3], "budget": 1, "trials": 1, "subcarriers": 2, "quant": 3,
    }))
    assert main(["simulate", "--config", str(config)]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert [(r["M"], r["budget"]) for r in rows[::3]] == [("2", "1"), ("3", "1")]


def test_sweeps_are_always_tuples(tmp_path):
    assert cli._sweep(float)("16") == (16.0,)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"relays": 10, "budget": 16}))
    parsed = cli._experiment_config(cli.build_parser().parse_args(["simulate", "--config", str(config)]))
    assert (parsed.relays, parsed.budget) == ((10,), (16.0,))


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
