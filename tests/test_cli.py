"""Tests for the jwins-repro command-line interface."""

import pytest

from repro.cli import _scheme_params_from_args, build_cli_parser, main
from repro.orchestration import SchemeSpec


def test_parser_defaults():
    args = build_cli_parser().parse_args(["run"])
    assert args.workload == "cifar10"
    assert args.scheme == ["jwins", "full-sharing"]
    assert args.seed == 1


def test_parser_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        build_cli_parser().parse_args(["run", "--scheme", "magic"])


@pytest.mark.parametrize(
    "name",
    ["jwins", "jwins-adaptive", "full-sharing", "random-sampling", "topk", "choco", "quantized"],
)
def test_scheme_factory_from_name_builds_every_scheme(name):
    args = build_cli_parser().parse_args(["run"])
    factory = SchemeSpec(name, _scheme_params_from_args(name, args)).build()
    scheme = factory(0, 200, 1)
    assert hasattr(scheme, "prepare")
    assert hasattr(scheme, "aggregate")


def test_budget_configures_jwins_distribution():
    args = build_cli_parser().parse_args(["run", "--budget", "0.2"])
    scheme = SchemeSpec("jwins", _scheme_params_from_args("jwins", args)).build()(0, 200, 1)
    assert scheme.config.cutoff.expected_fraction() == pytest.approx(0.2)


def test_invalid_budget_rejected():
    with pytest.raises(SystemExit):
        main(["--budget", "1.5", "--nodes", "4", "--rounds", "1"])


def test_main_runs_small_experiment(capsys):
    exit_code = main(
        [
            "--workload",
            "movielens",
            "--scheme",
            "jwins",
            "--nodes",
            "4",
            "--degree",
            "2",
            "--rounds",
            "2",
            "--seed",
            "3",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "running movielens/jwins ..." in captured
    assert "final acc" in captured


def test_parser_accepts_execution_mode():
    args = build_cli_parser().parse_args(["run", "--execution", "async", "--slowdown", "3.0"])
    assert args.execution == "async"
    assert args.slowdown == 3.0


def test_invalid_slowdown_rejected():
    with pytest.raises(SystemExit):
        main(["--slowdown", "0.5", "--nodes", "4", "--rounds", "1"])


def test_invalid_drop_probability_rejected():
    with pytest.raises(SystemExit):
        main(["--drop-probability", "1.5", "--nodes", "4", "--rounds", "1"])


def test_main_runs_async_experiment(capsys):
    exit_code = main(
        [
            "--workload",
            "movielens",
            "--scheme",
            "jwins",
            "--nodes",
            "4",
            "--degree",
            "2",
            "--rounds",
            "2",
            "--seed",
            "3",
            "--execution",
            "async",
            "--slowdown",
            "4.0",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "execution=async" in captured
    assert "running movielens/jwins ..." in captured


def test_explicit_run_subcommand_equals_flat_invocation(capsys):
    flat_args = [
        "--workload", "movielens", "--scheme", "jwins",
        "--nodes", "4", "--degree", "2", "--rounds", "2", "--seed", "3",
    ]
    assert main(flat_args) == 0
    flat_output = capsys.readouterr().out
    assert main(["run", *flat_args]) == 0
    assert capsys.readouterr().out == flat_output


def test_list_workloads_exits_zero_and_prints_registry(capsys):
    assert main(["--list-workloads"]) == 0
    captured = capsys.readouterr().out
    for name in ("cifar10", "movielens", "shakespeare", "celeba", "femnist"):
        assert name in captured


def test_list_schemes_exits_zero_and_prints_registry(capsys):
    assert main(["--list-schemes"]) == 0
    captured = capsys.readouterr().out
    for name in ("jwins", "full-sharing", "choco", "quantized", "topk"):
        assert name in captured


def test_list_flags_do_not_run_experiments(capsys):
    assert main(["--list-schemes", "--list-workloads"]) == 0
    assert "running" not in capsys.readouterr().out


SWEEP_ARGS = [
    "sweep",
    "--workload", "movielens",
    "--scheme", "jwins", "full-sharing",
    "--nodes", "4", "--degree", "2", "--rounds", "2",
    "--seeds", "3",
]


def test_sweep_subcommand_runs_and_persists(tmp_path, capsys):
    store = tmp_path / "results.jsonl"
    assert main([*SWEEP_ARGS, "--store", str(store)]) == 0
    captured = capsys.readouterr().out
    assert "executed 2 cell(s), skipped 0" in captured
    assert "movielens/jwins" in captured
    assert store.exists()


def test_sweep_subcommand_resumes_from_store(tmp_path, capsys):
    store = tmp_path / "results.jsonl"
    assert main([*SWEEP_ARGS, "--store", str(store)]) == 0
    capsys.readouterr()
    assert main([*SWEEP_ARGS, "--store", str(store)]) == 0
    assert "executed 0 cell(s), skipped 2" in capsys.readouterr().out


def test_sweep_subcommand_parallel_matches_serial(tmp_path, capsys):
    serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    assert main([*SWEEP_ARGS, "--store", str(serial), "--workers", "1"]) == 0
    serial_summary = capsys.readouterr().out.split("executed")[1]
    assert main([*SWEEP_ARGS, "--store", str(parallel), "--workers", "2"]) == 0
    assert capsys.readouterr().out.split("executed")[1] == serial_summary


def test_sweep_preset_and_regenerate_round_trip(tmp_path, capsys):
    store = tmp_path / "results.jsonl"
    scale = ["num_nodes=4", "degree=2", "rounds=2", "eval_every=1", "eval_test_samples=32"]
    assert main(["sweep", "--preset", "fig7", "--store", str(store), "--scale", *scale]) == 0
    capsys.readouterr()
    output = tmp_path / "artifacts"
    assert (
        main([
            "regenerate", "--store", str(store), "--artifact", "fig7",
            "--output", str(output), "--scale", *scale,
        ])
        == 0
    )
    assert "wrote" in capsys.readouterr().out
    assert (output / "fig7_dynamic_topology.txt").exists()


def test_regenerate_missing_store_rejected(tmp_path):
    with pytest.raises(SystemExit, match="empty or missing"):
        main(["regenerate", "--store", str(tmp_path / "absent.jsonl")])


def test_sweep_unknown_workload_rejected_cleanly(tmp_path):
    with pytest.raises(SystemExit, match="invalid sweep"):
        main(["sweep", "--workload", "bogus", "--scheme", "jwins",
              "--store", str(tmp_path / "s.jsonl")])


@pytest.mark.parametrize(
    "scale, dry_run",
    [("warp_factor=9", []), ("warp_factor=9", ["--dry-run"]), ("degree=99", ["--dry-run"])],
    ids=["run", "dry-run", "invalid-config-dry-run"],
)
def test_sweep_unknown_scale_field_rejected_cleanly(tmp_path, capsys, scale, dry_run):
    store = tmp_path / "s.jsonl"
    with pytest.raises(SystemExit, match="invalid sweep"):
        main(["sweep", "--preset", "fig7", "--store", str(store),
              "--scale", scale, *dry_run])
    # Refused before a dry run prints a cell or any cell starts.
    output = capsys.readouterr().out
    assert "cell(s)" not in output and "running" not in output
    assert not store.exists()


def test_invalid_scale_entry_rejected(tmp_path):
    with pytest.raises(SystemExit, match="FIELD=VALUE"):
        main(["sweep", "--preset", "fig7", "--store", str(tmp_path / "s.jsonl"),
              "--scale", "numnodes4"])


def test_invalid_worker_count_rejected(tmp_path):
    with pytest.raises(SystemExit, match="--workers"):
        main([*SWEEP_ARGS, "--store", str(tmp_path / "s.jsonl"), "--workers", "0"])


def test_cli_parser_knows_all_subcommands():
    parser = build_cli_parser()
    for argv in (["run"], ["sweep"], ["regenerate", "--store", "x"]):
        args = parser.parse_args(argv)
        assert callable(args.handler)


def test_main_compares_multiple_schemes(capsys):
    exit_code = main(
        [
            "--workload",
            "movielens",
            "--scheme",
            "jwins",
            "random-sampling",
            "--nodes",
            "4",
            "--degree",
            "2",
            "--rounds",
            "2",
            "--seed",
            "3",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "jwins" in captured
    assert "random-sampling" in captured


# -- scenarios --------------------------------------------------------------------


def test_list_scenarios_exits_zero_and_prints_presets(capsys):
    assert main(["--list-scenarios"]) == 0
    captured = capsys.readouterr().out
    for name in ("static", "dynamic", "churn", "partition", "stragglers"):
        assert name in captured
    assert "running" not in captured


def test_run_with_scenario_preset(capsys):
    exit_code = main(
        ["--workload", "movielens", "--scheme", "jwins", "--nodes", "4",
         "--degree", "2", "--rounds", "3", "--scenario", "churn-partition"]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "scenario=churn-partition" in captured
    assert "final acc" in captured


def test_run_with_scenario_json_file(tmp_path, capsys):
    import json

    from repro.scenarios import get_scenario

    path = tmp_path / "my-scenario.json"
    path.write_text(json.dumps(get_scenario("partition", num_nodes=4, rounds=3).to_dict()))
    exit_code = main(
        ["--workload", "movielens", "--scheme", "jwins", "--nodes", "4",
         "--degree", "2", "--rounds", "3", "--scenario", str(path)]
    )
    assert exit_code == 0
    assert "scenario=partition" in capsys.readouterr().out


def test_run_async_with_scenario(capsys):
    exit_code = main(
        ["--workload", "movielens", "--scheme", "jwins", "--nodes", "4",
         "--degree", "2", "--rounds", "3", "--scenario", "churn",
         "--execution", "async"]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "execution=async scenario=churn" in captured


def test_run_async_with_dynamic_topology_now_works(capsys):
    exit_code = main(
        ["--workload", "movielens", "--scheme", "jwins", "--nodes", "4",
         "--degree", "2", "--rounds", "2", "--dynamic-topology",
         "--execution", "async"]
    )
    assert exit_code == 0
    assert "final acc" in capsys.readouterr().out


def test_unknown_scenario_rejected_cleanly():
    with pytest.raises(SystemExit, match="unknown scenario"):
        main(["--workload", "movielens", "--scheme", "jwins", "--nodes", "4",
              "--degree", "2", "--rounds", "2", "--scenario", "meteor-strike"])


def test_bad_scenario_file_rejected_cleanly(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SystemExit, match="not valid JSON"):
        main(["--workload", "movielens", "--scheme", "jwins", "--nodes", "4",
              "--degree", "2", "--rounds", "2", "--scenario", str(path)])


def test_scenario_and_dynamic_topology_flags_conflict():
    with pytest.raises(SystemExit, match="mutually exclusive"):
        main(["--workload", "movielens", "--scheme", "jwins", "--nodes", "4",
              "--degree", "2", "--rounds", "2", "--scenario", "churn",
              "--dynamic-topology"])


def test_scenario_too_large_for_deployment_rejected_cleanly(tmp_path):
    import json

    from repro.scenarios import get_scenario

    path = tmp_path / "big.json"
    path.write_text(json.dumps(get_scenario("churn", num_nodes=16, rounds=40).to_dict()))
    with pytest.raises(SystemExit, match="nodes"):
        main(["--workload", "movielens", "--scheme", "jwins", "--nodes", "4",
              "--degree", "2", "--rounds", "2", "--scenario", str(path)])


def test_sweep_with_scenario_axis(tmp_path, capsys):
    store = tmp_path / "results.jsonl"
    exit_code = main(
        ["sweep", "--workload", "movielens", "--scheme", "jwins",
         "--nodes", "4", "--degree", "2", "--rounds", "3",
         "--scenario", "static", "churn-partition", "--store", str(store)]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "executed 2 cell(s), skipped 0" in captured
    assert "scenario=churn-partition" in captured
    assert store.exists()
