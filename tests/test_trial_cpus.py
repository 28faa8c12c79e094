"""Trial CPUs belong to the program (:meth:`CompiledProgram.take_trial_cpu`).

A :class:`~repro.faults.scheduler.TrialScheduler` owns no CPU: golden
capture and every trial borrow one from the program's free list for
their (function, spec), restore a snapshot onto it whatever state the
previous user left, and hand it back.  The contract pinned here:

* trials of several workloads of one program, interleaved in any order,
  each equal a reference-engine run, ``last_trial_end`` included, on
  both targets;
* threads running workloads of one program at once never share a CPU,
  and all stay exact;
* a warm program runs a fresh-argument Table III job without preparing
  a CPU;
* a pickled program carries no pooled CPU, memoized scheduler or lock,
  and its copy runs exactly.
"""

import pickle
import sys
import threading
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.table3 import TABLE3_ATTACKS, TABLE3_WORKLOAD
from repro.backend.driver import CompiledProgram
from repro.faults.models import (
    BranchDirectionFlip,
    InstructionSkip,
    MemoryBitFlip,
    RegisterBitFlip,
)
from repro.faults.scheduler import TrialScheduler
from repro.minic.driver import compile_source
from repro.programs import load_source
from repro.service.jobs import AttackSpec, CampaignJob
from repro.spec import SpecConfig
from repro.toolchain import CompileConfig, Workbench

ARGS = ([4], [8], [12], [16])


@lru_cache(maxsize=None)
def _program(target):
    config = CompileConfig(scheme="ancode", target=target)
    return compile_source(load_source("memcmp"), config=config)


@lru_cache(maxsize=None)
def _schedulers(target):
    program = _program(target)
    return [TrialScheduler(program, "run_memcmp", args) for args in ARGS]


def _reference(program, args, model):
    """A fresh full reference run of one trial: ``(result, final dyn_index)``."""
    cpu = program.prepare_cpu(
        "run_memcmp", args, pre_hooks=[model.hook()], dispatch="reference"
    )
    return cpu.run(2_000_000), cpu.dyn_index


def _model(scheduler, kind, a, b):
    """One fault against ``scheduler``'s golden run, from three draws."""
    total = scheduler.golden.instructions
    if kind == "skip":
        return InstructionSkip(1 + a % total)
    if kind == "branch":
        branches = len(scheduler.trace.indices(scheduler.trace.branch_mnemonic))
        return BranchDirectionFlip(1 + a % branches)
    if kind == "register":
        return RegisterBitFlip((0, 1, 2, 3, 13)[b % 5], b % 32, 1 + a % total)
    buffer = scheduler.program.image.data_addrs[("cmp_a", "cmp_b")[b % 2]]
    return MemoryBitFlip(buffer + b % scheduler.args[0], b % 8, 1 + a % total)


class TestInterleavedWorkloads:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        target=st.sampled_from(["baseline", "rv32"]),
        trials=st.lists(
            st.tuples(
                st.integers(0, len(ARGS) - 1),
                st.sampled_from(["skip", "branch", "register", "memory"]),
                st.integers(0, 10_000),
                st.integers(0, 10_000),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_each_trial_equals_a_reference_run(self, target, trials):
        # One program, several workloads, trials in any order: each
        # borrows the CPU the previous one (of any workload) handed back.
        program = _program(target)
        schedulers = _schedulers(target)
        for which, kind, a, b in trials:
            scheduler = schedulers[which]
            model = _model(scheduler, kind, a, b)
            result = scheduler.run_trial(model)
            expected = _reference(program, scheduler.args, model)
            assert (result, scheduler.last_trial_end) == expected, (
                scheduler.args,
                model,
            )


class TestConcurrentWorkloads:
    def test_threads_never_share_a_cpu(self, monkeypatch):
        # More threads than a 2-CPU host has cores, switching often.
        program = compile_source(
            load_source("memcmp"), config=CompileConfig(scheme="ancode")
        )
        work = []
        for args in ([8], [12], [16]):
            scheduler = TrialScheduler(program, "run_memcmp", args)
            models = [
                InstructionSkip(i) for i in range(1, scheduler.golden.instructions, 2)
            ]
            expected = [_reference(program, args, model) for model in models]
            work.append((scheduler, models, expected))
        out, clashes = set(), []
        take, give = CompiledProgram.take_trial_cpu, CompiledProgram.give_trial_cpu

        def taking(self, *args):
            cpu, start = take(self, *args)
            if id(cpu) in out:
                clashes.append(id(cpu))
            out.add(id(cpu))
            return cpu, start

        def giving(self, function, spec, cpu):
            out.discard(id(cpu))
            give(self, function, spec, cpu)

        monkeypatch.setattr(CompiledProgram, "take_trial_cpu", taking)
        monkeypatch.setattr(CompiledProgram, "give_trial_cpu", giving)
        barrier = threading.Barrier(len(work))
        got = {}

        def run(scheduler, models):
            barrier.wait(timeout=10)
            got[id(scheduler)] = [
                (scheduler.run_trial(model), scheduler.last_trial_end)
                for model in models
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(scheduler, models))
                for scheduler, models, _ in work
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not clashes, "two trials ran on one CPU at once"
        # The threads overlapped, so the program allocated a CPU for each.
        assert [len(free) for _, free in program._trial_cpus.values()] == [3]
        for scheduler, models, expected in work:
            assert got[id(scheduler)] == expected, scheduler.args
        assert all(scheduler.stats.rejoined for scheduler, _, _ in work)


class TestAllocation:
    def test_a_warm_fresh_argument_job_prepares_no_cpu(self, monkeypatch):
        workbench = Workbench()
        attacks = tuple(
            AttackSpec.make(suite, label=label, **kwargs)
            for label, suite, kwargs in TABLE3_ATTACKS
        )

        def job(args):
            return CampaignJob(
                source=load_source(TABLE3_WORKLOAD[0]),
                function=TABLE3_WORKLOAD[1],
                args=args,
                config=CompileConfig(scheme="ancode"),
                attacks=attacks,
            )

        job((7, 7)).execute(workbench)
        prepared = []
        prepare = CompiledProgram.prepare_cpu

        def spy(self, *args, **kwargs):
            prepared.append(args)
            return prepare(self, *args, **kwargs)

        monkeypatch.setattr(CompiledProgram, "prepare_cpu", spy)
        fresh = job((1234, 4321)).execute(workbench)
        assert prepared == []
        assert all(a["trials"] for a in fresh["report"]["attacks"].values())

    def test_a_pickled_program_carries_no_pooled_cpu(self):
        program = compile_source(
            load_source("memcmp"), config=CompileConfig(scheme="ancode")
        )
        model = InstructionSkip(40)
        plain = program.trial_scheduler("run_memcmp", [8])
        expected = plain.run_trial(model)
        # A speculative pool holds hash objects that cannot be pickled.
        program.trial_scheduler("run_memcmp", [8], spec=SpecConfig(window=2))
        assert len(program._trial_cpus) == 2
        with program._schedulers.lock:  # held or not, no lock is pickled
            copy = pickle.loads(pickle.dumps(program))
        assert copy._trial_cpus == {} and copy._schedulers == {}
        assert not copy._schedulers.lock.locked()
        assert copy.image._pristine is None
        assert copy.trial_scheduler("run_memcmp", [8]).run_trial(model) == expected
        assert len(program._trial_cpus) == 2
