"""Unit tests for the peak-RSS reading, the telemetry scrub, the reserved keys
and the removed profiler surface."""

from __future__ import annotations

import importlib
import json

import pytest

from repro.checkpoint import SimulationSnapshot
from repro.core import jwins_factory
from repro.exceptions import CheckpointError, ExperimentPaused
from repro.observability.contract import TELEMETRY_RESULT_FIELDS, scrub_telemetry
from repro.observability.memory import peak_rss_bytes
from repro.observability.trace import TraceEmitter, read_trace
from repro.orchestration.fork import run_fork
from repro.orchestration.pool import run_sweep
from repro.orchestration.schemes import SchemeSpec
from repro.orchestration.spec import ExperimentSpec
from repro.orchestration.store import ResultStore
from repro.simulation import ExperimentConfig, ExperimentResult, Simulator
from repro.simulation.runner import run_experiment
from tests.conftest import make_toy_task, rewrite_header, stored_form

#: A stored row as the store wrote it while results still had profiler fields
#: (one 1-round ``movielens``/``jwins`` cell): the reserved keys hold their
#: empty values, as every stored row did.
PARENT_ROW = (
    '{"key": "806529c7eb014d3cf7b24fdebbdf4e2274f2ff788115efb367f3aa80e3bd6efc", '
    '"result": {"execution": "sync", "history": [{"average_shared_fraction": 0.67'
    '56689791873142, "cumulative_bytes_per_node": 5088.5, "cumulative_metadata_by'
    'tes_per_node": 251.5, "round_index": 1, "simulated_time_seconds": 0.06591520'
    '000000001, "test_accuracy": 0.0, "test_loss": 7.5675560066777, "train_loss":'
    ' 9.485407821288785}], "memory": {}, "num_nodes": 4, "per_node_time_seconds":'
    ' [0.06591520000000001, 0.06591520000000001, 0.06591520000000001, 0.065915200'
    '00000001], "phase_seconds": {}, "reached_target_at_round": null, "round_phas'
    'e_seconds": [], "rounds_completed": 1, "scenario_rounds": [], "scheme": "jwi'
    'ns", "simulated_time_seconds": 0.06591520000000001, "target_accuracy": null,'
    ' "task": "movielens", "total_bytes": 20354.0, "total_metadata_bytes": 1006.0'
    ', "total_values_bytes": 19092.0}, "spec": {"overrides": {"degree": 2, "eval_'
    'every": 1, "eval_test_samples": 16, "num_nodes": 4, "rounds": 1, "seed": 1},'
    ' "scheme": {"label": "jwins", "name": "jwins", "params": {}}, "task_seed": n'
    'ull, "workload": "movielens"}}'
)

#: A snapshot's ``profiler`` entry as a profiled run captured it, two rounds in.
PARENT_PROFILER_STATE = {
    "counts": {"aggregate": 2, "encode": 2, "evaluate": 2, "train": 8},
    "round_rows": [
        {"aggregate": 0.0028, "encode": 0.0065, "evaluate": 0.0016, "round": 0.0, "train": 0.0028},
        {"aggregate": 0.0030, "encode": 0.0043, "evaluate": 0.0015, "round": 1.0, "train": 0.0024},
    ],
    "since_mark": {},
    "totals": {"aggregate": 0.0058, "encode": 0.0108, "evaluate": 0.0031, "train": 0.0052},
}


class TestPeakRss:
    def test_reports_a_plausible_positive_value(self):
        peak = peak_rss_bytes()
        # A running CPython interpreter needs at least a few MiB; anything
        # smaller means the kilobyte/byte unit conversion broke.
        assert peak > 4 * 2**20

    def test_is_monotone_nondecreasing(self):
        first = peak_rss_bytes()
        ballast = [bytes(1024) for _ in range(1000)]
        assert peak_rss_bytes() >= first
        del ballast


class TestScrubTelemetry:
    def test_resets_present_fields_to_empty_defaults(self):
        row = {
            "scheme": "jwins",
            "phase_seconds": {"train": 1.25},
            "round_phase_seconds": [{"round": 0.0, "train": 1.25}],
            "memory": {"peak_rss_bytes": 12345},
        }
        scrubbed = scrub_telemetry(row)
        assert scrubbed["scheme"] == "jwins"
        assert scrubbed["phase_seconds"] == {}
        assert scrubbed["round_phase_seconds"] == []
        assert scrubbed["memory"] == {}

    def test_absent_fields_stay_absent(self):
        # Legacy rows never carried the telemetry keys; scrubbing must not
        # invent them, or old stores would change bytes on rewrite.
        legacy = {"scheme": "jwins", "rounds_completed": 3}
        assert scrub_telemetry(legacy) == legacy

    def test_input_mapping_is_not_mutated(self):
        row = {"phase_seconds": {"train": 1.0}}
        scrub_telemetry(row)
        assert row["phase_seconds"] == {"train": 1.0}

    def test_field_list_matches_result_defaults(self):
        # Every telemetry field must exist on ExperimentResult with exactly
        # the empty default the scrub resets it to.
        from repro.simulation.metrics import ExperimentResult

        result = ExperimentResult(
            scheme="jwins", task="toy", num_nodes=2, rounds_completed=0
        )
        payload = result.to_dict()
        for name, default in TELEMETRY_RESULT_FIELDS.items():
            assert payload[name] == default()


class TestReservedFormatKeys:
    """Rows from before the profiler went load and re-serialize byte for
    byte; snapshots from then are refused by their version."""

    def test_result_writes_the_reserved_keys_as_constants_and_drops_them_on_load(self):
        payload = json.loads(PARENT_ROW)["result"]
        assert {name: payload[name] for name in TELEMETRY_RESULT_FIELDS} == {
            name: empty() for name, empty in TELEMETRY_RESULT_FIELDS.items()
        }
        profiled = {**payload, "phase_seconds": {"train": 1.0}, "memory": {"peak_rss_bytes": 1}}
        assert ExperimentResult.from_dict(profiled) == ExperimentResult.from_dict(payload)
        legacy = {k: v for k, v in payload.items() if k not in TELEMETRY_RESULT_FIELDS}
        assert ExperimentResult.from_dict(legacy).to_dict() == payload

    def test_a_stored_row_reserializes_byte_identically(self, tmp_path):
        (tmp_path / "old.jsonl").write_text(PARENT_ROW + "\n", encoding="utf-8")
        spec = ExperimentSpec.from_dict(json.loads(PARENT_ROW)["spec"])
        result = ResultStore(tmp_path / "old.jsonl").get(spec)
        ResultStore(tmp_path / "new.jsonl").put(spec, result)
        assert (tmp_path / "new.jsonl").read_text(encoding="utf-8") == PARENT_ROW + "\n"

    @pytest.mark.parametrize("profiler_state", [None, PARENT_PROFILER_STATE], ids=["null", "state"])
    def test_a_json_era_snapshot_is_refused_by_its_version(self, tmp_path, profiler_state):
        """Snapshot version 5 dropped the reserved ``profiler`` field with the
        JSON file layout: a file that still carries it, null or with state, is
        refused by its version number, and its field by name."""

        config = ExperimentConfig(
            num_nodes=4, degree=2, rounds=4, local_steps=1, batch_size=4,
            eval_every=1, eval_test_samples=16, seed=5,
        )
        simulator = Simulator(make_toy_task(), jwins_factory(), config)
        simulator.on_round_end(
            lambda *_: simulator.request_checkpoint_stop()
            if simulator.result.rounds_completed >= 2
            else None
        )
        with pytest.raises(ExperimentPaused) as paused:
            simulator.run()
        assert not hasattr(paused.value.snapshot, "profiler")
        header, _ = stored_form(paused.value.snapshot)
        old = {**json.loads(header), "profiler": profiler_state, "version": 4}
        written = tmp_path / "old.ckpt.json"
        written.write_text(json.dumps(
            {"format": "jwins-repro-checkpoint", "hash": "0" * 64, "snapshot": old, "version": 4},
            sort_keys=True,
        ))
        with pytest.raises(CheckpointError, match="schema version 4; this build reads version 5"):
            SimulationSnapshot.load(written)
        carrying = paused.value.snapshot.save(tmp_path / "profiler.ckpt")
        rewrite_header(carrying, lambda fields: fields.update(profiler=profiler_state))
        with pytest.raises(CheckpointError, match="unknown snapshot field.*profiler"):
            SimulationSnapshot.load(carrying)

        # What stays: the paused state, saved now, resumes byte-identically.
        loaded = SimulationSnapshot.load(paused.value.snapshot.save(tmp_path / "new.ckpt"))
        resumed = run_experiment(make_toy_task(), jwins_factory(), config, resume_from=loaded)
        uninterrupted = run_experiment(make_toy_task(), jwins_factory(), config)
        assert resumed.to_dict() == uninterrupted.to_dict()


def _tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        num_nodes=4, degree=2, rounds=3, local_steps=1, batch_size=4,
        eval_every=2, eval_test_samples=16, seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestEveryEngineKeepsWallClockOutOfResults:
    """Under each execution mode and engine, a traced run's wall-clock
    readings reach only the trace's ``wall`` section, never the result."""

    @pytest.mark.parametrize(
        "execution,engine",
        [("sync", "pernode"), ("async", "pernode"), ("sync", "arena"), ("async", "arena")],
        ids=["sync", "async", "sync-arena", "async-arena"],
    )
    def test_result_holds_the_reserved_keys_empty_and_the_trace_holds_the_rss(
        self, tmp_path, execution, engine
    ):
        config = _tiny_config(execution=execution, engine=engine)
        path = tmp_path / "run.trace.jsonl"
        with TraceEmitter(path) as trace:
            traced = run_experiment(make_toy_task(seed=5), jwins_factory(), config, observers=(trace,))
        bare = run_experiment(make_toy_task(seed=5), jwins_factory(), config)

        payload = traced.to_dict()
        assert payload == bare.to_dict()
        assert {name: payload[name] for name in TELEMETRY_RESULT_FIELDS} == {
            name: empty() for name, empty in TELEMETRY_RESULT_FIELDS.items()
        }
        assert not any(hasattr(traced, name) for name in TELEMETRY_RESULT_FIELDS)
        run_end = read_trace(path)[-1]
        assert run_end["kind"] == "run_end"
        assert run_end["rounds_completed"] == 3
        assert set(run_end["wall"]) == {"peak_rss_bytes", "unix_time"}
        assert run_end["wall"]["peak_rss_bytes"] > 0


class TestRemovedProfilerSurface:
    """The phase profiler, its tracemalloc rider and every way into them are
    gone, with no second path kept beside them."""

    def test_the_profiling_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.utils.profiling")

    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro.utils", "Profiler"),
            ("repro.utils", "PhaseTimer"),
            ("repro.utils", "format_profile"),
            ("repro.observability", "MemoryTracker"),
            ("repro.observability.memory", "MemoryTracker"),
            ("repro.simulation.engine", "_NULL_TIMER"),
        ],
    )
    def test_the_removed_name_is_not_exported(self, module, name):
        imported = importlib.import_module(module)
        assert not hasattr(imported, name)
        assert name not in getattr(imported, "__all__", ())

    @pytest.mark.parametrize("execution", ["sync", "async"])
    def test_a_simulator_has_no_profiling_hooks(self, execution):
        simulator = Simulator(make_toy_task(), jwins_factory(), _tiny_config(execution=execution))
        for name in ("profiler", "profile", "mark_profile_round"):
            assert not hasattr(simulator, name), name

    @pytest.mark.parametrize(
        "entry_point", ["Simulator", "run_experiment", "ExperimentSpec.run", "run_fork", "run_sweep"]
    )
    def test_every_entry_point_refuses_the_old_keyword(self, entry_point):
        spec = ExperimentSpec(
            "movielens", SchemeSpec("jwins"),
            overrides={"num_nodes": 4, "degree": 2, "rounds": 1, "eval_test_samples": 16},
        )
        calls = {
            "Simulator": lambda: Simulator(
                make_toy_task(), jwins_factory(), _tiny_config(), profiler=object()
            ),
            "run_experiment": lambda: run_experiment(
                make_toy_task(), jwins_factory(), _tiny_config(), profiler=object()
            ),
            "ExperimentSpec.run": lambda: spec.run(profiler=object()),
            "run_fork": lambda: run_fork(None, profiler=object()),
            "run_sweep": lambda: run_sweep([spec], profile=True),
        }
        with pytest.raises(TypeError, match="profile"):
            calls[entry_point]()
