import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfid_sampler import (
    ConfigurationError, cli, harness, load_config, population, protocol, reliability_number,
    selgen_commands, verify,
)
from rfid_sampler.cli import main
from rfid_sampler.harness import (
    CSV_COLUMNS,
    PROTOCOLS,
    ScenarioConfig,
    aggregate,
    run_points,
    run_scenarios,
    run_trial,
    trial_population,
)
from deployments import deployment_shapes

GOOD_CONFIG = """\
[small-sweep]
K = 3
n = 20
c = 4
trials = 2
seed = 9
protocols = optc, random-select
"""

ALT_CONFIG = """\
[alternating]
K = 6
n = 20,30
c = 2
trials = 1
seed = 9
"""


def _write(tmp_path, text, name="scenarios.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_parse_and_expand(self, tmp_path):
        (point,) = load_config(_write(tmp_path, GOOD_CONFIG))
        assert point.K == 3
        assert point.ns == [20, 20, 20]
        assert point.cs == [4, 4, 4]
        assert point.protocols == ("optc", "random-select")

    def test_alternating_schedule(self, tmp_path):
        (point,) = load_config(_write(tmp_path, ALT_CONFIG))
        assert point.ns == [20, 30, 20, 30, 20, 30]

    def test_absent_keys_take_the_scenario_defaults(self, tmp_path):
        # trials, seed and protocols fall back to ScenarioConfig's own defaults
        points = load_config(_write(tmp_path, "[bare]\nK = 2\nn = 20,30\nc = 4\n"))
        assert points == [ScenarioConfig("bare", ns=[20, 30], cs=[4, 4])]

    def test_missing_key_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(_write(tmp_path, "[x]\nK = 2\nn = 5\n"))

    def test_c_above_n_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(_write(tmp_path, "[x]\nK = 2\nn = 5\nc = 9\n"))

    def test_bad_category_error_names_section_and_category(self, tmp_path):
        with pytest.raises(ConfigurationError, match=r"^x: category 2: need 1 <= c <= n"):
            load_config(_write(tmp_path, "[x]\nK = 2\nn = 20,5\nc = 9\n"))

    @pytest.mark.parametrize("K,n", [(1_048_577, 1), (2, 600_000)], ids=["K", "sum-n"])
    def test_population_over_the_cap_rejected(self, tmp_path, K, n):
        # rejected while loading, before any schedule of K entries is built
        # or any population is drawn
        with pytest.raises(ConfigurationError, match=r"exceeds desk scale 2\^20"):
            load_config(_write(tmp_path, f"[x]\nK = {K}\nn = {n}\nc = 1\n"))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig("x", ns=[5], cs=[2], protocols=("teleport",))

    def test_k_is_the_schedule_length(self):
        assert ScenarioConfig("x", ns=[5, 6], cs=[1, 2]).K == 2

    def test_schedules_of_different_length_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^x: "):
            ScenarioConfig("x", ns=[5, 6], cs=[1])

    def test_seed_override(self, tmp_path):
        path = _write(tmp_path, GOOD_CONFIG)
        (a,) = load_config(path)
        (b,) = load_config(path, seed_override=123)
        assert a.rng_seed == 9 and b.rng_seed == 123


class TestResults:
    def test_csv_schema_and_determinism(self, tmp_path):
        config = _write(tmp_path, GOOD_CONFIG)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_scenarios(config, out1)
        run_scenarios(config, out2)
        text1 = Path(out1).read_text()
        assert text1 == Path(out2).read_text()
        header = text1.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        # 2 trials x 2 protocols data rows
        assert len(text1.splitlines()) == 5
        assert os.path.exists(out1 + ".json")

    def test_rows_and_aggregates(self):
        points = [ScenarioConfig("p", ns=[20, 20], cs=[3, 3], trials=4, rng_seed=1)]
        rows = run_points(points)
        assert len(rows) == 4
        for row in rows:
            assert row.sum_n == 40 and row.sum_c == 6
            assert row.ratio == pytest.approx(row.seconds / row.lb_seconds)
            assert row.ratio > 1.0
        (agg,) = aggregate(rows)
        assert agg["trials"] == 4
        assert agg["mean_ratio"] == pytest.approx(
            sum(r.ratio for r in rows) / 4
        )

    def test_alternating_preset_shape(self):
        points = deployment_shapes(trials=1, seed=7)[2]
        assert all(p.ns == [20, 30] * 4 for p in points)
        assert [p.cs[0] for p in points] == [2, 4, 6, 8, 10]
        rows = run_points(points)
        assert [(r.protocol, r.sum_n, r.sum_c) for r in rows[:2]] == [
            ("optc-impl", 200, 16), ("random-select", 200, 16)]
        assert len(rows) == 10 and all(r.ratio > 1.0 for r in rows)


class TestTrials:
    POINT = ScenarioConfig("t", ns=[20, 30], cs=[4, 6], rng_seed=11, protocols=tuple(PROTOCOLS))

    def test_a_trial_is_rebuilt_from_its_coordinates(self):
        a, rng_a = trial_population(self.POINT, 1, "optc-impl", 2)
        b, rng_b = trial_population(self.POINT, 1, "optc-impl", 2)
        for name in ("hi", "lo", "offsets", "cs"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert rng_a.integers(2**63) == rng_b.integers(2**63)
        other, _ = trial_population(self.POINT, 1, "random-select", 2)
        assert not np.array_equal(other.hi, a.hi)

    def test_protocol_order(self):
        # a protocol's position is its trials' rng spawn key: append, never reorder
        assert list(PROTOCOLS) == ["optc", "optc-impl", "random-select"]

    def test_runner_calls_the_protocol_through_the_harness_name(self, monkeypatch):
        # the benchmark's tracer replaces `harness.run_optc_impl` the same way
        expected = run_trial(self.POINT, 0, "optc-impl", 0)
        calls, original = [], harness.run_optc_impl
        monkeypatch.setattr(harness, "run_optc_impl", lambda *a: calls.append(a) or original(*a))
        assert run_trial(self.POINT, 0, "optc-impl", 0) == expected
        assert len(calls) == 1

    def test_unknown_protocol_raises(self):
        with pytest.raises(ValueError):
            run_trial(self.POINT, 0, "teleport", 0)


class TestReports:
    def test_bounds_table(self, capsys):
        assert main(["bounds", "--k", "100", "--c", "10"]) == 0
        assert "lower_bound=1442.7 bits" in capsys.readouterr().out

    def test_reliability_table(self):
        assert [reliability_number(a, 0.01) for a in (0.05, 0.9)] == [2, 44]

    def test_range_errors_are_configuration_errors(self):
        # the CLI maps ConfigurationError to exit 2; existing callers still
        # catch a ValueError
        for call in (lambda: selgen_commands(9, 3), lambda: reliability_number(1.5, 0.01)):
            with pytest.raises(ConfigurationError) as exc:
                call()
            assert isinstance(exc.value, ValueError)


def _int_list(lo: int, hi: int):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=4).map(
        lambda v: ",".join(map(str, v)))


# every value as --flag=value: argparse reads a bare "-1e-05" as an option
_NUMERIC_ARGV = st.one_of(
    st.builds(lambda a, e: ["reliability", f"--alpha={a!r}", f"--epsilon={e!r}"],
              st.floats(), st.floats()),
    st.builds(lambda t, b: ["selgen", f"--tau={t}", f"--bits={b}"],
              st.integers(-3, 2**100), st.integers(-2, 100)),
    st.builds(lambda k, c, n: ["bounds", f"--k={k}", f"--c={c}"] + ([f"--n={n}"] if n else []),
              st.integers(-2, 50), _int_list(-2, 3000), st.none() | _int_list(-2, 3000)),
)


class TestCli:
    def test_simulate_roundtrip(self, tmp_path):
        config = _write(tmp_path, GOOD_CONFIG)
        out = str(tmp_path / "rows.csv")
        assert main(["simulate", "--config", config, "--out", out]) == 0
        assert Path(out).read_text().startswith(",".join(CSV_COLUMNS))

    def test_env_seed_changes_rows(self, tmp_path, monkeypatch):
        config = _write(tmp_path, GOOD_CONFIG)
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        main(["simulate", "--config", config, "--out", out1])
        monkeypatch.setenv("RFID_SAMPLER_SEED", "31337")
        main(["simulate", "--config", config, "--out", out2])
        assert Path(out1).read_text() != Path(out2).read_text()

    def test_negative_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RFID_SAMPLER_SEED", "-3")
        argv = ["simulate", "--config", _write(tmp_path, GOOD_CONFIG),
                "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_bad_config_exits_2(self, tmp_path):
        config = _write(tmp_path, "[x]\nK = 2\nn = 5\nc = 9\n")
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "o.csv")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        # config files are read as UTF-8, whatever the locale; a Latin-1
        # byte is a configuration error, not a runtime failure
        config = tmp_path / "latin1.ini"
        config.write_bytes("[café]\nK = 1\nn = 5\nc = 2\n".encode("latin-1"))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("configuration error:")

    def test_protocol_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # all-zero IDs leave the coarse stage no suitable seed, so the
        # protocol itself raises inside simulate
        def zero_ids(n, rng):
            return np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)

        monkeypatch.setattr(population, "random_ids", zero_ids)
        config = _write(tmp_path, "[x]\nK = 1\nn = 100\nc = 1\nprotocols = optc\n")
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err.startswith("protocol failure: no suitable seed")

    def test_iteration_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        # a cap of 0 leaves refinement no iteration to converge in
        monkeypatch.setattr(protocol, "default_iteration_cap", lambda c: 0)
        config = _write(tmp_path, "[x]\nK = 1\nn = 100\nc = 5\nprotocols = optc\n")
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err.startswith("protocol failure: refinement did not converge")

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        argv = ["simulate", "--config", _write(tmp_path, GOOD_CONFIG),
                "--out", str(tmp_path / "missing-dir" / "o.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("runtime failure:")

    def test_verify_fast_exactness(self, capsys):
        assert main(["verify", "exactness", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "in 300 rounds" in out and "[FAIL]" not in out

    def test_verify_failure_exits_4(self, monkeypatch, capsys):
        # a sampler that returns tag n, outside the category, every time
        def bad_sampler(n, c, rng):
            return [(n, order) for order in range(1, c + 1)]

        monkeypatch.setattr(verify, "sample_once", bad_sampler)
        assert main(["verify", "exactness", "--fast"]) == 4
        out = capsys.readouterr().out
        assert "[FAIL] exactness/rounds:" in out and "0/1 checks passed" in out

    def test_verify_fast_monotone(self, capsys):
        assert main(["verify", "monotone"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_verify_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "teleport"])
        assert exc.value.code == 2

    def test_handler_key_error_is_not_a_config_error(self, monkeypatch):
        # A KeyError from inside a command is a bug, not bad configuration,
        # so it must surface rather than exit 2.
        def broken(args):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "cmd_bounds", broken)
        with pytest.raises(KeyError):
            main(["bounds", "--k", "100", "--c", "10"])

    def test_selgen_command(self, capsys):
        assert main(["selgen", "--tau", "5", "--bits", "3"]) == 0
        out = capsys.readouterr().out
        assert "2 Select commands" in out

    def test_selgen_full_output(self, capsys):
        assert main(["selgen", "--tau", "44", "--bits", "6"]) == 0
        assert capsys.readouterr().out == (
            "threshold 44 over 6-bit hashes: 4 Select commands\n"
            "  filter 0*****  mask 0  length 1  cost 33 bits\n"
            "  filter 100***  mask 100  length 3  cost 35 bits\n"
            "  filter 1010**  mask 1010  length 4  cost 36 bits\n"
            "  filter 101100  mask 101100  length 6  cost 38 bits\n"
            "total 142 bits\n"
        )

    def test_selgen_bad_tau_exits_2(self):
        assert main(["selgen", "--tau", "9", "--bits", "3"]) == 2

    def test_bounds_command(self, capsys):
        assert main(["bounds", "--k", "100", "--c", "10"]) == 0
        out = capsys.readouterr().out
        assert "expected=3618.3 bits" in out and "ratio=2.5080" in out
        # n = 1: a 7-bit header (ceil(log2 96) + ceil(log2 1)), e, the stop bit
        assert main(["bounds", "--k", "1", "--c", "1", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "expected=10.7 bits" in out and "ratio=7.4293" in out

    @pytest.mark.parametrize("config,argv,env", [
        pytest.param("K = 2\nn = 5\nc = 1\n", None, None, id="no-section-header"),
        pytest.param(GOOD_CONFIG + GOOD_CONFIG, None, None, id="duplicate-section"),
        pytest.param(GOOD_CONFIG.replace("trials = 2", "trials = abc"), None, None, id="trials-abc"),
        pytest.param(GOOD_CONFIG.replace("seed = 9", "seed = x"), None, None, id="seed-x"),
        pytest.param(None, ["bounds", "--k", "100", "--c", "abc"], None, id="bounds-c-abc"),
        pytest.param(None, ["bounds", "--k", "0", "--c", "10"], None, id="bounds-k-0"),
        pytest.param(None, ["bounds", "--k", "100", "--c", "0"], None, id="bounds-c-0"),
        pytest.param(None, ["bounds", "--k", "1048577", "--c", "1"], None,
                     id="bounds-k-over-cap"),
        pytest.param(None, ["reliability", "--alpha", "1.5", "--epsilon", "0.01"], None,
                     id="alpha-1.5"),
        pytest.param(None, ["reliability", "--alpha", "0.1:0.2", "--epsilon", "0.01"], None,
                     id="alpha-two-part-range"),
        pytest.param(None, ["reliability", "--alpha", "0.1:0.9:1e-6", "--epsilon", "0.01"], None,
                     id="alpha-sweep-over-10000-points"),
        pytest.param(GOOD_CONFIG.replace("optc, random-select", ","), None, None,
                     id="protocols-empty"),
        pytest.param(GOOD_CONFIG.replace("optc, random-select", "optc, optc"), None, None,
                     id="protocols-repeated"),
        pytest.param(GOOD_CONFIG.replace("seed = 9", "seed = -1"), None, None, id="seed-negative"),
        pytest.param(GOOD_CONFIG.replace("K = 3", "K = 0"), None, None, id="K-0"),
        pytest.param(GOOD_CONFIG.replace("K = 3", "K = -1"), None, None, id="K-negative"),
        pytest.param(None, ["bounds", "--k", "-1", "--c", "10"], None, id="bounds-k-negative"),
        pytest.param(GOOD_CONFIG.replace("trials = 2", "trials = 0"), None, None, id="trials-0"),
        pytest.param(GOOD_CONFIG.replace("n = 20", "n = ,"), None, None, id="n-empty"),
        pytest.param(GOOD_CONFIG.replace("n = 20", "n = 5,x"), None, None, id="n-non-integer"),
        pytest.param(GOOD_CONFIG.replace("K = 3\n", ""), None, None, id="K-missing"),
        pytest.param("# no sections\n", None, None, id="no-sections"),
        pytest.param(None, ["bounds", "--k", "3", "--c", "1,2"], None, id="bounds-c-too-short"),
        pytest.param(None, ["bounds", "--k", "3", "--c", "5", "--n", "4"], None,
                     id="bounds-c-above-n"),
        pytest.param(None, ["bounds", "--k", "2", "--c", "1", "--n", "0"], None, id="bounds-n-0"),
        pytest.param(GOOD_CONFIG.replace("n = 20", "n = 20,0"), None, None, id="n-0"),
        pytest.param(GOOD_CONFIG.replace("n = 20", "n = 99999999999999999999"), None, None,
                     id="n-past-int64"),
        pytest.param(GOOD_CONFIG, None, "abc", id="env-seed-abc"),
        pytest.param(None, ["selgen", "--tau", "0", "--bits", "97"], None,
                     id="selgen-bits-past-id"),
        pytest.param(None, ["selgen", "--tau", "5", "--bits", "49"], None,
                     id="selgen-bits-past-window"),
        pytest.param(None, ["bounds", "--k", "2", "--c", "1", "--n", "5,6,7"], None,
                     id="bounds-n-too-long"),
        pytest.param(None, ["selgen", "--tau", "-1", "--bits", "4"], None,
                     id="selgen-tau-negative"),
        pytest.param(None, ["reliability", "--alpha", "0.5", "--epsilon", "1.5"], None,
                     id="epsilon-1.5"),
        pytest.param(None, ["reliability", "--alpha", "0.5:1.5:0.5", "--epsilon", "0.01"], None,
                     id="alpha-sweep-leaves-unit-interval"),
    ])
    def test_bad_input_exits_2(self, tmp_path, monkeypatch, capsys, config, argv, env):
        if env is not None:
            monkeypatch.setenv("RFID_SAMPLER_SEED", env)
        if config is not None:
            argv = ["simulate", "--config", _write(tmp_path, config),
                    "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("configuration error:")

    @given(argv=_NUMERIC_ARGV)
    @example(argv=["reliability", "--alpha=0.5", "--epsilon=1e-320"])
    @example(argv=["reliability", "--alpha=1e-320", "--epsilon=0.5"])
    @settings(max_examples=300, deadline=None)
    def test_numeric_input_exits_0_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("configuration error:")

    def test_reliability_at_subnormal_inputs(self, capsys):
        assert main(["reliability", "--alpha", "1e-320", "--epsilon", "0.5"]) == 0
        assert capsys.readouterr().out == "alpha=0.000 epsilon=0.5 -> c=1\n"

    def test_reliability_sweep(self, capsys):
        assert main(["reliability", "--alpha", "0.1:0.9:0.4", "--epsilon", "0.01"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 3 and lines[-1].endswith("c=44")

    def test_reliability_fine_sweep_keeps_its_grid(self, capsys):
        assert main(["reliability", "--alpha", "0.1:0.9:0.001", "--epsilon", "0.01"]) == 0
        alphas = [l.split()[0] for l in capsys.readouterr().out.splitlines() if l]
        assert alphas == [f"alpha={(100 + i) / 1000:.3f}" for i in range(801)]
        # 0.9 is off this grid, so the sweep stops at the last point below it
        sweep = cli._parse_float_range("0.1:0.9:0.0003")
        assert len(sweep) == 2667 and sweep[-1] == 0.8998
