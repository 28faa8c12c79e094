"""Golden-rejoin early verdicts (:mod:`repro.faults.scheduler`).

A trial whose state at the probe checkpoint equals the golden
checkpoint's except for the CFI monitor takes its result from the golden
run's CFI-check table instead of simulating on.  The contract pinned
here:

* the equality check gives no verdict when any architectural field
  differs — each register, each flag, the exit and detect codes, the
  console, memory on pages dirty only in the trial or only in the
  checkpoint, the monitor's stack depth, a pending branch inversion —
  and gives one when only the monitor's values differ;
* a rejoined trial's ``ExecutionResult`` and ``last_trial_end`` equal a
  full run's, on both targets, with and without the CFI monitor;
* cycle budgets just below the deciding check or the golden end
  produce the reference engine's timeouts, cycles included;
* a composite fault whose window spans a ladder checkpoint is probed
  only after its last component can fire;
* a trial that fails its first probe is compared again at the next
  checkpoint, and one that rejoins there (or halts before it) still
  gets a full run's result and end, on both targets;
* the ladder stays within ``LADDER_BYTES``, thinning by halves, and
  each checkpoint sits on the first trace entry at or after its mark;
* with the probes switched off, every trial's result and end are the
  same, so the shortcut changes work done, never results.
"""

import pickle
from itertools import zip_longest

import pytest

import repro.faults.scheduler as scheduler_module
from repro.faults.adversary import CompositeFault
from repro.faults.models import (
    BranchDirectionFlip,
    FlagFlip,
    InstructionSkip,
    MemoryBitFlip,
    RegisterBitFlip,
)
from repro.faults.scheduler import DEFAULT_INTERVAL, TrialScheduler
from repro.isa.cpu import PAGE_BITS, PAGE_SIZE, Status
from repro.isa.superblock import trace_entries
from repro.minic.driver import compile_source
from repro.programs import load_source
from repro.toolchain import CompileConfig

TARGETS = ("baseline", "rv32")


def _program(scheme="ancode", target="baseline", cfi=True):
    config = CompileConfig(scheme=scheme, target=target, cfi=cfi)
    return compile_source(load_source("memcmp"), config=config)


def _full_run(program, args, model, dispatch, max_cycles=2_000_000):
    """A fresh full memcmp run of one trial: ``(result, final dyn_index)``."""
    cpu = program.prepare_cpu(
        "run_memcmp", args, pre_hooks=[model.hook()], dispatch=dispatch
    )
    return cpu.run(max_cycles), cpu.dyn_index


def _skips(scheduler, stride=1):
    total = scheduler.golden.instructions
    return [InstructionSkip(i) for i in range(1, total + 1, stride)]


def _record_verdicts(scheduler) -> list:
    """Make ``scheduler`` log each probe it compares a trial at as
    ``(probe, rejoined)``; returns the log."""
    log = []
    verdict = scheduler._rejoin_verdict

    def recording(cpu, probe, max_cycles):
        result = verdict(cpu, probe, max_cycles)
        log.append((probe, result is not None))
        return result

    scheduler._rejoin_verdict = recording
    return log


# ---------------------------------------------------------------------------
# The equality check at the probe, one field at a time
# ---------------------------------------------------------------------------
class TestEqualityCheck:
    @pytest.fixture(scope="class")
    def scheduler(self):
        return TrialScheduler(_program(), "run_memcmp", [16])

    @pytest.fixture(scope="class")
    def probe(self, scheduler):
        # Mid-run, inside secure_memcmp (depth 1 under run_memcmp).
        return scheduler.checkpoints[len(scheduler.checkpoints) // 2]

    def _verdict(self, scheduler, probe, change):
        cpu = scheduler._fork_cpu(probe)
        change(cpu)
        return scheduler._rejoin_verdict(cpu, probe, 2_000_000)

    def test_unchanged_state_is_the_golden_run(self, scheduler, probe):
        verdict = self._verdict(scheduler, probe, lambda cpu: None)
        assert verdict == (scheduler.golden, scheduler.golden.instructions)

    def test_monitor_values_alone_give_a_verdict(self, scheduler, probe):
        checks = scheduler._checks
        assert len(probe.monitor[1]) == 1, "probe should sit in a callee"

        def state(cpu):
            cpu.monitor.state ^= 1

        def stacked(cpu):
            cpu.monitor.call_stack[0] ^= 0x8000_0000

        def counters(cpu):
            cpu.monitor.violations += 3
            cpu.monitor.checks_passed += 5

        # The current frame fails its next check; the caller's frame
        # fails the first check after the callee returned; the monitor's
        # counters are not part of any result.  The first verdict with a
        # monitor difference builds the frame table these are read from.
        verdicts = {
            change: self._verdict(scheduler, probe, change)
            for change in (state, stacked)
        }
        assert checks.frames is not None
        _, depths = checks.frames
        first = [k for k, i in enumerate(checks.index) if i > probe.dyn_index]
        current = next(k for k in first if depths[k] == 1)
        caller = next(k for k in first if depths[k] == 0)
        for change, k in ((state, current), (stacked, caller)):
            result, end = verdicts[change]
            assert result.status is Status.CFI_VIOLATION
            assert end == checks.index[k]
            assert result.instructions == checks.index[k]
            assert result.cycles == checks.cycles[k]
        assert self._verdict(scheduler, probe, counters) == (
            scheduler.golden,
            scheduler.golden.instructions,
        )

    def test_frames_are_built_by_the_first_verdict_that_reads_them(self):
        # Capture leaves the frame table unbuilt, and so does a verdict
        # with an unchanged monitor; the first monitor difference builds
        # it, and the verdict then equals simulating on.
        scheduler = TrialScheduler(_program(), "run_memcmp", [16])
        checks = scheduler._checks
        probe = scheduler.checkpoints[len(scheduler.checkpoints) // 2]
        assert checks.frames is None
        assert self._verdict(scheduler, probe, lambda cpu: None) is not None
        assert checks.frames is None

        def state(cpu):
            cpu.monitor.state ^= 1

        cpu = scheduler._fork_cpu(probe)
        state(cpu)
        verdict = scheduler._rejoin_verdict(cpu, probe, 2_000_000)
        assert checks.frames is not None
        assert verdict[0].status is Status.CFI_VIOLATION
        assert verdict == (cpu.run(2_000_000), cpu.dyn_index)

    @pytest.mark.parametrize("reg", range(16))
    def test_each_register(self, scheduler, probe, reg):
        def change(cpu):
            cpu.regs[reg] ^= 4

        assert self._verdict(scheduler, probe, change) is None

    @pytest.mark.parametrize("flag", "nzcv")
    def test_each_flag(self, scheduler, probe, flag):
        def change(cpu):
            setattr(cpu, flag, 1 - getattr(cpu, flag))

        assert self._verdict(scheduler, probe, change) is None

    @pytest.mark.parametrize(
        "field", ["exit_code", "detect_code", "console", "status", "branch_invert",
                  "stack_depth"]
    )
    def test_each_control_field(self, scheduler, probe, field):
        def change(cpu):
            if field in ("exit_code", "detect_code"):
                setattr(cpu, field, getattr(cpu, field) + 1)
            elif field == "console":
                cpu.console_chars.append("!")
            elif field == "status":
                cpu.status = Status.EXIT
            elif field == "branch_invert":
                cpu.branch_invert = True
            else:
                # Same values, one more frame: the depth alone differs.
                cpu.monitor.call_stack.insert(0, cpu.monitor.call_stack[0])

        assert self._verdict(scheduler, probe, change) is None

    def test_byte_on_a_page_dirty_only_in_the_trial(self, scheduler, probe):
        page = next(p for p in range(64, 2048) if p not in probe.pages)

        def change(cpu):
            assert page not in cpu._dirty_pages
            cpu.memory[(page << PAGE_BITS) + 5] ^= 0x10
            cpu._dirty_pages.add(page)

        assert self._verdict(scheduler, probe, change) is None

    def test_byte_on_a_page_dirty_only_in_the_checkpoint(self, scheduler, probe):
        pristine = scheduler.program.image._pristine

        def differs(page):
            offset = page << PAGE_BITS
            return probe.pages[page] != pristine[offset : offset + PAGE_SIZE]

        page = next(p for p in sorted(probe.pages) if differs(p))
        offset = page << PAGE_BITS

        def change(cpu):
            # The trial never wrote this page: pristine bytes, not dirty.
            cpu.memory[offset : offset + PAGE_SIZE] = pristine[
                offset : offset + PAGE_SIZE
            ]
            cpu._dirty_pages.discard(page)

        assert self._verdict(scheduler, probe, change) is None

    def test_clean_page_dirty_in_the_trial_still_rejoins(self, scheduler, probe):
        # A page the trial dirtied back to its golden bytes is equal.
        page = next(p for p in range(64, 2048) if p not in probe.pages)

        def change(cpu):
            cpu._dirty_pages.add(page)

        assert self._verdict(scheduler, probe, change) is not None


# ---------------------------------------------------------------------------
# The verdict rule against simulation, at every checkpoint and frame
# ---------------------------------------------------------------------------
#: A loop of calls: frames at the same depth are born again and again
#: after any probe, which is where frame births decide the verdict.
CALL_LOOP = """
u32 helper(u32 x) {
    return x * 3 + 1;
}
u32 run_calls(u32 n) {
    u32 acc = 0;
    for (u32 i = 0; i < n; i += 1) {
        acc = acc + helper(i);
    }
    return acc;
}
"""


class TestVerdictRule:
    @pytest.mark.parametrize("target", TARGETS)
    def test_verdict_equals_simulating_on(self, target, monkeypatch):
        # A dense ladder puts checkpoints everywhere in the call loop,
        # including between a callee's last check and its return.  At
        # each one, a difference in one monitor frame (or none) must give
        # the verdict that simulating on from the same state gives.
        monkeypatch.setattr(scheduler_module, "LADDER_BYTES", 64 << 20)
        monkeypatch.setattr(scheduler_module, "DEFAULT_INTERVAL", 3)
        config = CompileConfig(scheme="ancode", target=target)
        program = compile_source(CALL_LOOP, config=config)
        scheduler = TrialScheduler(program, "run_calls", [12])
        assert scheduler.stats.interval == 3, "the ladder thinned"
        violations = 0
        for probe in scheduler.checkpoints[1:]:
            for depth in range(-1, len(probe.monitor[1]) + 1):
                cpu = scheduler._fork_cpu(probe)
                monitor = cpu.monitor
                if depth == len(monitor.call_stack):
                    monitor.state ^= 1 << (depth % 32)
                elif depth >= 0:
                    monitor.call_stack[depth] ^= 1
                verdict = scheduler._rejoin_verdict(cpu, probe, 2_000_000)
                assert verdict is not None, (probe.dyn_index, depth)
                result, end = verdict
                # No verdict under a budget its cycles would reach.
                cycles = result.cycles
                assert scheduler._rejoin_verdict(cpu, probe, cycles) is None
                assert scheduler._rejoin_verdict(cpu, probe, cycles + 1) == verdict
                assert (cpu.run(2_000_000), cpu.dyn_index) == verdict, (
                    probe.dyn_index,
                    depth,
                )
                violations += result.status is Status.CFI_VIOLATION
        assert violations


# ---------------------------------------------------------------------------
# Exactness of rejoined trials
# ---------------------------------------------------------------------------
class TestRejoinedTrials:
    @pytest.mark.parametrize("target", TARGETS)
    def test_last_trial_end_matches_a_full_run(self, target):
        program = _program(target=target)
        scheduler = TrialScheduler(program, "run_memcmp", [8])
        for model in _skips(scheduler):
            result = scheduler.run_trial(model)
            full, end = _full_run(program, [8], model, "reference")
            assert result == full, model
            assert scheduler.last_trial_end == end, model
        assert scheduler.stats.rejoined > 0

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("scheme,cfi", [("ancode", True), ("duplication", True),
                                            ("none", False)])
    def test_same_results_and_ends_with_the_probe_off(
        self, target, scheme, cfi, monkeypatch
    ):
        # The probe only changes how much a trial simulates.
        program = _program(scheme, target, cfi)
        scheduler = TrialScheduler(program, "run_memcmp", [16])
        trace = scheduler.trace
        models = _skips(scheduler, 2) + [
            BranchDirectionFlip(n)
            for n in range(1, len(trace.indices(trace.branch_mnemonic)) + 1)
        ] + [
            RegisterBitFlip(reg, 1, index)
            for index in range(1, scheduler.golden.instructions, 9)
            for reg in (0, 3, 13)
        ] + [FlagFlip("z", n) for n in range(1, 6)]
        probed = []
        for model in models:
            probed.append((scheduler.run_trial(model), scheduler.last_trial_end))
        assert scheduler.stats.rejoined > 0
        monkeypatch.setattr(TrialScheduler, "_probe", lambda self, hook: [])
        for model, expected in zip(models, probed):
            assert (scheduler.run_trial(model), scheduler.last_trial_end) == expected

    def test_schedulers_of_one_program_share_its_pristine_image(self):
        # Every CPU of an image starts from the same memory, so the
        # trial CPUs its schedulers borrow restore pages from one copy,
        # which a pickled image leaves behind.  Interleaved trials of two
        # workloads, some of them flipping bits in the compared buffers,
        # still equal full runs: each restore puts back what the other's
        # trials dirtied, and rejoin verdicts compare against the same
        # bytes.
        program = _program()
        buffers = [program.image.data_addrs[name] for name in ("cmp_a", "cmp_b")]
        work = []
        for args in ([8], [16]):
            scheduler = TrialScheduler(program, "run_memcmp", args)
            flips = [
                MemoryBitFlip(addr + byte, 3, index)
                for index in range(1, 60, 7)
                for addr, byte in zip(buffers, (1, args[0] - 1))
            ]
            work.append((scheduler, args, _skips(scheduler, 3) + flips))
        for models in zip_longest(*(models for _, _, models in work)):
            for (scheduler, args, _), model in zip(work, models):
                if model is not None:
                    result = scheduler.run_trial(model)
                    full = _full_run(program, args, model, "reference")
                    assert (result, scheduler.last_trial_end) == full, model
        (a, _, _), (b, _, _) = work
        cpus = [cpu for _, free in program._trial_cpus.values() for cpu in free]
        assert cpus and all(cpu._pristine is program.image._pristine for cpu in cpus)
        assert a.stats.rejoined and b.stats.rejoined
        assert pickle.loads(pickle.dumps(program.image))._pristine is None

    def test_rejoined_trial_counts_work_up_to_its_probe(self):
        scheduler = TrialScheduler(_program(), "run_memcmp", [16])
        stats = scheduler.stats
        log = _record_verdicts(scheduler)
        for model in _skips(scheduler):
            rejoined = stats.rejoined
            simulated = stats.simulated_instructions
            saved = stats.saved_instructions
            del log[:]
            result = scheduler.run_trial(model)
            if stats.rejoined == rejoined:
                continue
            probe, decided = log[-1]
            assert decided
            assert log[0][0] is scheduler._probe(model.forked_hook(scheduler.trace))[0]
            fork = scheduler._fork_point(model.occurrence, 2_000_000)
            # A skip retires one instruction fewer than the golden run.
            at_probe = probe.retired - 1
            assert stats.simulated_instructions - simulated == at_probe - fork.retired
            assert stats.saved_instructions - saved == result.instructions - at_probe
        assert stats.rejoined > 0


# ---------------------------------------------------------------------------
# Cycle budgets: a verdict never decides a timeout
# ---------------------------------------------------------------------------
class TestCycleBudget:
    def _sweep(self, scheduler, budgets, stride):
        """Every strided skip under every budget against the reference
        engine; returns how many trials timed out."""
        program, args = scheduler.program, scheduler.args
        timeouts = 0
        for max_cycles in budgets:
            for model in _skips(scheduler, stride):
                forked = scheduler.run_trial(model, max_cycles)
                reference, end = _full_run(
                    program, args, model, "reference", max_cycles
                )
                assert forked == reference, (max_cycles, model)
                assert forked.cycles == reference.cycles
                assert scheduler.last_trial_end == end, (max_cycles, model)
                timeouts += forked.status is Status.TIMEOUT
        return timeouts

    def test_budgets_just_below_a_deciding_check(self):
        scheduler = TrialScheduler(_program(), "run_memcmp", [16])
        deciding = scheduler._checks.cycles[0]
        timeouts = self._sweep(scheduler, range(deciding - 6, deciding + 1), 3)
        assert timeouts, "no budget cut into a deciding check"
        assert scheduler.stats.rejoined > 0

    def test_budgets_just_below_the_golden_end(self):
        # Without the monitor every rejoined trial takes the golden end.
        scheduler = TrialScheduler(_program("none", cfi=False), "run_memcmp", [16])
        cycles = scheduler.golden.cycles
        timeouts = self._sweep(scheduler, range(cycles - 6, cycles + 2), 1)
        assert timeouts, "no budget cut into the golden end"
        assert scheduler.stats.rejoined > 0


# ---------------------------------------------------------------------------
# Composite windows
# ---------------------------------------------------------------------------
class TestCompositeWindow:
    @pytest.mark.parametrize("target", TARGETS)
    def test_window_spanning_a_checkpoint(self, target):
        # The first skip may rejoin before the checkpoint inside the
        # window; the probe must still wait for the second one.
        program = _program(target=target)
        scheduler = TrialScheduler(program, "run_memcmp", [16])
        inner = [snap.dyn_index for snap in scheduler.checkpoints[1:-1]]
        models = [
            CompositeFault((InstructionSkip(c - before), InstructionSkip(c + after)))
            for c in inner
            for before in (0, 1, 2, 3)
            for after in (1, 2, 3)
        ]
        for model in models:
            result = scheduler.run_trial(model)
            reference, end = _full_run(program, [16], model, "reference")
            assert result == reference, model
            assert scheduler.last_trial_end == end, model
        assert scheduler.stats.rejoined > 0


# ---------------------------------------------------------------------------
# The second probe
# ---------------------------------------------------------------------------
class TestSecondProbe:
    @pytest.mark.parametrize("target", TARGETS)
    def test_trials_past_their_first_probe_end_as_full_runs(self, target):
        # Skips and register flips over memcmp[16]: some trials fail their
        # first probe and rejoin at the next checkpoint, some halt before
        # it, and the rest run on to their end.  Every one gets a full
        # run's result and last_trial_end.
        program = _program(target=target)
        scheduler = TrialScheduler(program, "run_memcmp", [16])
        models = _skips(scheduler, 2) + [
            RegisterBitFlip(reg, 0, index)
            for index in range(1, scheduler.golden.instructions, 9)
            for reg in (0, 1, 13)
        ]
        log = _record_verdicts(scheduler)
        kinds = {"second": 0, "halted": 0}
        for model in models:
            del log[:]
            result = scheduler.run_trial(model)
            full, end = _full_run(program, [16], model, "reference")
            assert (result, scheduler.last_trial_end) == (full, end), model
            probes = scheduler._probe(model.forked_hook(scheduler.trace))
            assert len(log) <= len(probes)
            assert all(probe is expected for (probe, _), expected in zip(log, probes))
            decided = [rejoined for _, rejoined in log]
            if decided == [False, True]:
                kinds["second"] += 1
            elif decided == [False] and len(probes) == 2:
                # Compared once, so it halted before the second probe.
                assert end < probes[1].dyn_index, model
                kinds["halted"] += 1
        assert kinds["second"] and kinds["halted"], kinds

    def test_probes_are_the_first_checkpoint_past_the_window_and_the_next(self):
        scheduler = TrialScheduler(_program(), "run_memcmp", [16])
        marks = scheduler._checkpoint_marks
        checkpoints = scheduler.checkpoints

        def hook(window):
            def pre(cpu, instr):
                return False

            pre.fire_window = window
            return pre

        assert scheduler._probe(lambda cpu, instr: False) == []
        for end in range(1, scheduler.golden.instructions + 2, 5):
            probes = scheduler._probe(hook((1, end)))
            pos = next((i for i, mark in enumerate(marks) if mark >= end), len(marks))
            assert probes == checkpoints[pos : pos + 2], end


# ---------------------------------------------------------------------------
# The ladder's byte budget
# ---------------------------------------------------------------------------
def _ladder_charge(scheduler) -> int:
    return sum((len(snap.pages) + 1) * PAGE_SIZE for snap in scheduler.checkpoints)


class TestLadderBudget:
    @pytest.mark.parametrize("pages", [12, 40])
    def test_a_long_run_stays_within_the_budget(self, pages, monkeypatch):
        # memcmp[128] keeps about a hundred checkpoints of one to two
        # pages each: a budget of a few dozen pages thins the ladder
        # once or more.  Each checkpoint still sits on the first trace
        # entry at or after its own mark, so trials fork and probe where
        # the unthinned ladder put them.
        budget = pages * PAGE_SIZE
        monkeypatch.setattr(scheduler_module, "LADDER_BYTES", budget)
        program = _program()
        scheduler = TrialScheduler(program, "run_memcmp", [128])
        interval = scheduler.stats.interval
        assert _ladder_charge(scheduler) <= budget
        assert interval > DEFAULT_INTERVAL and interval % DEFAULT_INTERVAL == 0
        assert (interval // DEFAULT_INTERVAL).bit_count() == 1
        checkpoints, marks = scheduler.checkpoints, scheduler._checkpoint_marks
        assert len(marks) == len(checkpoints) == scheduler.stats.checkpoints
        assert marks[0] == checkpoints[0].retired == 0
        entries = trace_entries(scheduler._fork_cpu(checkpoints[0]))
        pcs = scheduler.trace.pcs
        for snap, mark in zip(checkpoints[1:], marks[1:]):
            assert mark <= snap.retired, mark
            assert pcs[snap.retired] in entries
            assert not any(pcs[r] in entries for r in range(mark, snap.retired))
        # The ladder runs on to within two intervals of the golden end.
        assert scheduler.golden.instructions - checkpoints[-1].retired < 2 * interval
        for model in _skips(scheduler, 101):
            assert scheduler.run_trial(model) == _full_run(
                program, [128], model, "reference"
            )[0], model

    def test_the_default_budget_keeps_memcmp_unthinned(self):
        scheduler = TrialScheduler(_program(), "run_memcmp", [128])
        assert scheduler.stats.interval == DEFAULT_INTERVAL
        assert len(scheduler.checkpoints) > scheduler.golden.instructions // 80
        assert _ladder_charge(scheduler) <= scheduler_module.LADDER_BYTES
