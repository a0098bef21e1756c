"""Parallel scenario engine: shard independent simulator runs over processes.

Public surface::

    from repro.runner import CitySeeJob, TestbedJob, run_jobs

    report = run_jobs(jobs, n_workers=4)   # bit-identical to n_workers=1
    frames = report.frames()               # submission order
    print(report.to_text())                # per-job timings / pids

Exports resolve lazily (PEP 562), so the sink's shard pool can import
:mod:`repro.runner.pool` without the job specs, the engine or the chaos
DSL.
"""

from repro import _lazy_exports

# name -> (module, attribute) for lazy re-exports
_LAZY_EXPORTS = {
    "ChaosJob": ("repro.runner.jobs", "ChaosJob"),
    "CitySeeJob": ("repro.runner.jobs", "CitySeeJob"),
    "JobResult": ("repro.runner.engine", "JobResult"),
    "JobSpec": ("repro.runner.jobs", "JobSpec"),
    "ProcessPool": ("repro.runner.pool", "ProcessPool"),
    "RunReport": ("repro.runner.engine", "RunReport"),
    "RunnerError": ("repro.runner.engine", "RunnerError"),
    "TestbedJob": ("repro.runner.jobs", "TestbedJob"),
    "WorkerHandle": ("repro.runner.pool", "WorkerHandle"),
    "attach_span_trees": ("repro.runner.pool", "attach_span_trees"),
    "chaos_preset_jobs": ("repro.runner.jobs", "chaos_preset_jobs"),
    "citysee_seed_sweep": ("repro.runner.jobs", "citysee_seed_sweep"),
    "citysee_study_jobs": ("repro.runner.jobs", "citysee_study_jobs"),
    "execute_job": ("repro.runner.engine", "execute_job"),
    "job_cache_path": ("repro.runner.jobs", "job_cache_path"),
    "run_jobs": ("repro.runner.engine", "run_jobs"),
    "sweep_seeds": ("repro.runner.jobs", "sweep_seeds"),
    "testbed_scenario_jobs": ("repro.runner.jobs", "testbed_scenario_jobs"),
}

__all__ = list(_LAZY_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _LAZY_EXPORTS)
