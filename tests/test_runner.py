"""The parallel trial engine: fan-out, seeding, determinism."""

import importlib

import pytest

from repro.experiments.runner import (
    SERIAL,
    TrialRunner,
    default_jobs,
    resolve_runner,
    trial_seeds,
)


def _square(x):
    return x * x


def _with_seed(seed, scale=1):
    return seed * scale


class TestTrialRunner:
    def test_jobs_default_is_machine_width(self):
        assert TrialRunner().jobs == default_jobs()
        assert default_jobs() >= 1

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            TrialRunner(jobs=0)
        with pytest.raises(ValueError):
            TrialRunner(jobs=-2)

    def test_serial_map_preserves_order(self):
        runner = TrialRunner(jobs=1)
        results = runner.map(_square, [dict(x=i) for i in range(10)])
        assert results == [i * i for i in range(10)]

    def test_parallel_map_preserves_order(self):
        runner = TrialRunner(jobs=2)
        results = runner.map(_square, [dict(x=i) for i in range(10)])
        assert results == [i * i for i in range(10)]

    def test_parallel_matches_serial(self):
        params = [dict(seed=s, scale=3) for s in range(20)]
        assert TrialRunner(jobs=4).map(_with_seed, params) == TrialRunner(
            jobs=1
        ).map(_with_seed, params)

    def test_single_task_stays_in_process(self):
        # One task gains nothing from a pool; the runner runs it inline.
        calls = []

        def local(x):
            calls.append(x)
            return x

        assert TrialRunner(jobs=8).map(local, [dict(x=7)]) == [7]
        assert calls == [7]

    def test_empty_batch(self):
        assert TrialRunner(jobs=4).map(_square, []) == []

    def test_describe(self):
        assert TrialRunner(jobs=1).describe() == "serial"
        assert "4" in TrialRunner(jobs=4).describe()

    def test_resolve_runner(self):
        assert resolve_runner(None) is SERIAL
        runner = TrialRunner(jobs=2)
        assert resolve_runner(runner) is runner


class TestTrialSeeds:
    def test_deterministic(self):
        assert trial_seeds(1, "x", count=5) == trial_seeds(1, "x", count=5)

    def test_distinct_per_index(self):
        seeds = trial_seeds(1, "x", count=20)
        assert len(set(seeds)) == 20

    def test_distinct_per_namespace(self):
        assert trial_seeds(1, "x", count=5) != trial_seeds(1, "y", count=5)
        assert trial_seeds(1, "x", count=5) != trial_seeds(2, "x", count=5)


def _small_cin():
    from repro.topology.cin import CinParameters, build_cin_like_topology

    return build_cin_like_topology(
        CinParameters(
            backbone_hubs=4,
            metro_ethernets=(2, 2),
            sites_per_ethernet=(2, 3),
            linear_chains=1,
            linear_chain_length=4,
            europe_ethernets=2,
            europe_sites_per_ethernet=(2, 3),
        )
    )


#: driver -> (its module under repro.experiments, small-size kwargs).
DRIVERS = {
    "spatial_table": ("spatial", dict(runs=2, a_values=(2.0,))),
    "figure1_experiment": ("pathologies", dict(m=10, k=2, trials=4)),
    "figure2_experiment": ("pathologies", dict(depth=3, spur_length=5, k=3, trials=4)),
    "backup_fixes_pathology": ("pathologies", dict(m=10, k=1, trials=3)),
    "direct_mail_experiment": ("baselines", dict(n=40, loss_probability=0.1, runs=3)),
    "push_epidemic_cycles": ("baselines", dict(n=64, runs=3)),
    "compare_recovery_strategies": ("backup_scenarios", dict(n=30)),
}


class TestExperimentDeterminism:
    """Parallel and serial runs must produce identical table rows."""

    @pytest.mark.parametrize("table_index", [1, 2, 3])
    def test_tables_identical_across_jobs(self, table_index):
        from repro.experiments import tables

        table = getattr(tables, f"table{table_index}")
        serial_rows = table(n=60, runs=2, runner=TrialRunner(jobs=1))
        parallel_rows = table(n=60, runs=2, runner=TrialRunner(jobs=4))
        assert [r.as_tuple() for r in serial_rows] == [
            r.as_tuple() for r in parallel_rows
        ]

    def test_runner_defaults_match_legacy_serial_path(self):
        # runner=None must reproduce the pre-runner results exactly:
        # same seed formula, same order, no fan-out surprises.
        from repro.experiments.tables import table1

        assert [r.as_tuple() for r in table1(n=60, runs=2)] == [
            r.as_tuple() for r in table1(n=60, runs=2, runner=TrialRunner(jobs=2))
        ]

    def test_deathcert_suite_identical_across_jobs(self):
        from repro.experiments.deathcert_scenarios import deletion_suite

        serial = deletion_suite(runner=TrialRunner(jobs=1))
        parallel = deletion_suite(runner=TrialRunner(jobs=4))
        assert [(label, result.resurrected) for label, result in serial] == [
            (label, result.resurrected) for label, result in parallel
        ]

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_drivers_identical_across_jobs(self, name):
        module, kwargs = DRIVERS[name]
        driver = getattr(importlib.import_module(f"repro.experiments.{module}"), name)
        if name == "spatial_table":
            kwargs = dict(kwargs, cin=_small_cin())
        serial = driver(runner=TrialRunner(jobs=1), **kwargs)
        pooled = driver(runner=TrialRunner(jobs=2), **kwargs)
        assert repr(serial) == repr(pooled)
