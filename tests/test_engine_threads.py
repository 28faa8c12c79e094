"""The engine serialises its own workloads (:mod:`repro.faults.scheduler`).

Callers share programs and schedulers between threads without a lock of
their own.  The contract pinned here:

* ``TrialScheduler.for_program`` from several threads raises nothing,
  and threads that miss one workload together capture it once and get
  one scheduler;
* two threads attacking one workload each get the serial report,
  ``simulated_cycles`` included, and ``compose_space``'s pre-pass reads
  the end of its own trial;
* a worker forked while a thread of the parent holds an engine lock
  still finishes its batches, and forked workers reuse the parent's
  golden run;
* a two-runner service serving fresh-argument jobs of one scheme to two
  clients at once returns the reports a serial run gives.

Each threaded test switches threads often (``sys.setswitchinterval``)
and restores the interval.
"""

import os
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.analysis.table3 import TABLE3_ATTACKS, TABLE3_WORKLOAD
from repro.faults.adversary import compose_space
from repro.faults.isa_campaign import (
    CampaignReport,
    run_attack,
    run_trials,
    skip_sweep,
)
from repro.faults.models import InstructionSkip
from repro.faults.scheduler import TrialScheduler
from repro.minic.driver import compile_source
from repro.programs import load_source
from repro.service import BackgroundService
from repro.service.jobs import AttackSpec, CampaignJob, report_to_dict
from repro.toolchain import CompileConfig, Workbench
from repro.toolchain.executor import CampaignExecutor

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

#: How long a thread of these tests may take before it counts as hung.
TIMEOUT = 60


def _program(name="memcmp"):
    return compile_source(load_source(name), config=CompileConfig(scheme="ancode"))


@contextmanager
def _fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _run_threads(*targets):
    """Run each target on a thread of its own, started together; the
    exception a thread raised is re-raised here."""
    barrier = threading.Barrier(len(targets))
    errors = []

    def run(target):
        try:
            barrier.wait(timeout=TIMEOUT)
            target()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,), daemon=True) for t in targets]
    with _fast_switching():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=TIMEOUT)
    assert not any(thread.is_alive() for thread in threads), "a thread hung"
    if errors:
        raise errors[0]


class TestMemo:
    def test_for_program_from_two_threads_with_distinct_args(self):
        program = _program("integer_compare")

        def sweep(first):
            def run():
                for a in range(first, first + 1500):
                    TrialScheduler.for_program(program, "integer_compare", [a, 7])

            return run

        _run_threads(sweep(0), sweep(10_000))
        assert len(program._schedulers) == TrialScheduler.MEMO_SIZE

    def test_threads_missing_one_workload_capture_it_once(self, monkeypatch):
        program = _program()
        captures = []
        capture = TrialScheduler._capture_golden

        def slow_capture(self):
            # Long enough that both threads miss before either publishes.
            captures.append(self.args)
            time.sleep(0.05)
            capture(self)

        monkeypatch.setattr(TrialScheduler, "_capture_golden", slow_capture)
        got = []

        def ask():
            got.append(TrialScheduler.for_program(program, "run_memcmp", [8]))

        _run_threads(ask, ask)
        assert captures == [[8]]
        assert got[0] is got[1]


class TestSharedWorkload:
    def test_two_threads_running_one_attack_each_get_the_serial_report(self):
        serial = report_to_dict(
            CampaignReport(
                "ancode",
                {"skip": skip_sweep(_program(), "run_memcmp", [16], record_trials=True)},
            )
        )
        program = _program()
        TrialScheduler.for_program(program, "run_memcmp", [16])  # one scheduler
        reports = []

        def attack():
            result = skip_sweep(program, "run_memcmp", [16], record_trials=True)
            reports.append(report_to_dict(CampaignReport("ancode", {"skip": result})))

        _run_threads(attack, attack)
        assert reports == [serial, serial]

    def test_compose_space_reads_the_end_of_its_own_pre_pass_trial(
        self, monkeypatch
    ):
        """Another thread's attack gets every chance to run a trial
        between a pre-pass trial and the pre-pass's read of
        ``last_trial_end``: after each pre-pass trial the pre-pass waits
        for it, and the attack runs as soon as the scheduler's lock lets
        it."""
        args = [7, 8]
        serial = compose_space(_program("integer_compare"), "integer_compare", args)
        program = _program("integer_compare")
        scheduler = TrialScheduler.for_program(program, "integer_compare", args)
        prepass = threading.get_ident()
        trial_ran, attack_done = threading.Event(), threading.Event()
        finished = threading.Event()
        run_trial = TrialScheduler.run_trial

        def pausing_trial(self, model, max_cycles=2_000_000):
            result = run_trial(self, model, max_cycles)
            if threading.get_ident() == prepass:
                attack_done.clear()
                trial_ran.set()
                attack_done.wait(0.02)
            return result

        monkeypatch.setattr(TrialScheduler, "run_trial", pausing_trial)
        late = InstructionSkip(scheduler.golden.instructions)
        spaces = []

        def prepass_run():
            nonlocal prepass
            prepass = threading.get_ident()
            try:
                spaces.append(compose_space(program, "integer_compare", args))
            finally:
                finished.set()
                trial_ran.set()

        def attack():
            while not finished.is_set():
                trial_ran.wait(TIMEOUT)
                trial_ran.clear()
                run_trials(scheduler, [late], 2_000_000, False)
                attack_done.set()

        _run_threads(prepass_run, attack)
        (space,) = spaces
        assert space.trials == serial.trials
        assert space.stats == serial.stats


class TestForkedWorkers:
    @pytest.mark.parametrize("held", ["scheduler", "memo"])
    def test_a_pool_forked_under_a_held_engine_lock_finishes(self, held):
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [8])
        models = [InstructionSkip(i) for i in range(1, 120, 3)]
        expected = run_attack(program, "run_memcmp", [8], models)
        lock = scheduler.lock if held == "scheduler" else program._schedulers.lock
        executor = CampaignExecutor(max_workers=2)
        got = []

        def run():
            with lock:  # the pool forks while this thread holds it
                got.append(
                    executor.run_attack(program, "run_memcmp", [8], models)
                )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=TIMEOUT)
        try:
            assert not thread.is_alive(), "a forked worker waits on a lock"
        finally:
            if thread.is_alive():  # free the thread: kill the hung workers
                for process in list(executor._pool._processes.values()):
                    process.kill()
                thread.join(timeout=TIMEOUT)
            executor.close()
        assert got == [expected]

    def test_workers_reuse_the_golden_run_the_parent_captured(
        self, monkeypatch, tmp_path
    ):
        log = tmp_path / "captures"
        capture = TrialScheduler._capture_golden

        def logged_capture(self):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            capture(self)

        monkeypatch.setattr(TrialScheduler, "_capture_golden", logged_capture)
        program = _program()
        with CampaignExecutor(max_workers=2) as executor:
            sharded = skip_sweep(program, "run_memcmp", [16], executor=executor)
        assert log.read_text().split() == [str(os.getpid())]
        assert sharded == skip_sweep(_program(), "run_memcmp", [16])


class TestServedConcurrency:
    def test_two_clients_two_runners_fresh_argument_jobs_of_one_scheme(self):
        attacks = tuple(
            AttackSpec.make(suite, label=label, **kwargs)
            for label, suite, kwargs in TABLE3_ATTACKS
        )
        source = load_source(TABLE3_WORKLOAD[0])

        def job(a, b):
            return CampaignJob(
                source=source,
                function=TABLE3_WORKLOAD[1],
                args=(a, b),
                config=CompileConfig(scheme="ancode"),
                attacks=attacks,
            )

        jobs = {
            first: [job(first + i, first + 2 * i) for i in range(12)]
            for first in (100, 5000)
        }
        results = {}
        with BackgroundService(runners=2, trial_workers=0) as svc:

            def submit_all(batch):
                def run():
                    with svc.client() as client:
                        ids = [client.submit(j)["job_id"] for j in batch]
                        for job_id in ids:
                            assert client.wait(job_id)["state"] == "done"
                            results[job_id] = client.results(job_id)

                return run

            _run_threads(*(submit_all(batch) for batch in jobs.values()))
        workbench = Workbench()
        for batch in jobs.values():
            for j in batch:
                served = results[j.job_id()]["report"]
                assert served == j.execute(workbench)["report"], j.args
