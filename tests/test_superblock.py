"""The trace-compiled trial engine's own contract: trace geometry, lazy
compilation, deoptimisation boundaries, and observability.

:mod:`tests.test_engine_equivalence` proves the default engine
byte-identical to the reference oracle from the outside; this module pins
the *mechanism* — that traces actually close loops, that they compile
only when a trial reaches them with no fault window open, that a trial
forks, deoptimises while its fault window is open, fires, and re-enters
compiled dispatch, and that the engine's obs counters account for
exactly that.
"""

import pickle

import pytest

import repro.isa.superblock as superblock
from repro.faults.isa_campaign import run_attack
from repro.faults.models import (
    FlagFlip,
    InstructionSkip,
    MemoryBitFlip,
    RepeatedFlagFlip,
)
from repro.faults.scheduler import TrialScheduler
from repro.isa.cpu import Status
from repro.isa.superblock import UNBOUNDED, partition_image, superblock_tables
from repro.minic.driver import compile_source
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import EngineProfiler
from repro.programs import load_source
from repro.toolchain import CompileConfig


def _program(name="memcmp", scheme="ancode"):
    return compile_source(load_source(name), config=CompileConfig(scheme=scheme))


def _replay(program, function, args, model, dispatch):
    """A fresh full replay of one trial, no checkpoint, no traces."""
    cpu = program.prepare_cpu(
        function, args, pre_hooks=[model.hook()], dispatch=dispatch
    )
    return cpu.run(2_000_000)


def _compiled(program):
    """Entry addresses of every trace compiled on the image so far."""
    cache = program.image._superblock_cache or {}
    return {
        addr
        for key, value in cache.items()
        if isinstance(value, superblock._Variant)
        for addr in value.traces
    }


def _unrejoinable(program, occurrence):
    """A fault that can never rejoin the golden run: a flipped bit in
    the last compared byte of a buffer memcmp only reads stays flipped
    (and changes the comparison's result)."""
    return MemoryBitFlip(program.image.data_addrs["cmp_b"] + 15, 0, occurrence)


class _WideWindow:
    """A fault that never fires but keeps its window open past the end
    of any run: the trial single-steps from fork to halt."""

    def hook(self):
        def pre(cpu, instr):
            return False

        pre.fire_window = (1, 1 << 40)
        return pre


# ---------------------------------------------------------------------------
# Trace geometry
# ---------------------------------------------------------------------------
class TestPartition:
    def test_traces_close_loops(self):
        # memcmp's compare loop must become a looping trace (a back edge
        # to its own entry), not a chain of single-pass fragments — that
        # closure is where the engine's speedup lives.
        program = _program()
        partition = partition_image(program.image, traces=True)
        looping = [b for b in partition.blocks if b.loop or b.fall_loop]
        assert looping, "no looping trace found in a loop-heavy program"

    def test_basic_blocks_never_follow_branches(self):
        # The speculative variant partitions at every control transfer:
        # no loop closure, no followed Bcc arms.
        program = _program()
        partition = partition_image(program.image, traces=False)
        for block in partition.blocks:
            assert not block.loop and not block.fall_loop
            assert not block.taken

    def test_looping_traces_publish_unbounded_footprint(self):
        # Phase-1 (windowed) stepping must never enter a looping trace:
        # its retired-instruction count is unknowable up front, so it
        # advertises an UNBOUNDED guard count.
        program = _program()
        cpu = program.prepare_cpu("run_memcmp", [8], dispatch="superblock")
        table = superblock_tables(cpu)
        partition = partition_image(program.image, traces=True)
        saw_unbounded = False
        for block in partition.blocks:
            entry = table.get(block.addr)
            if entry is None:
                continue
            guard_count = entry[1]
            if block.loop:
                assert guard_count >= UNBOUNDED, hex(block.addr)
                saw_unbounded = True
        assert saw_unbounded

    def test_table_cache_is_not_pickled(self):
        # The compiled trace table holds exec'd functions; the image must
        # travel to executor workers without it and rebuild lazily.
        program = _program()
        cpu = program.prepare_cpu("run_memcmp", [8], dispatch="superblock")
        superblock_tables(cpu)
        assert program.image._superblock_cache
        clone = pickle.loads(pickle.dumps(program.image))
        assert clone._superblock_cache is None
        # and the clone still runs (rebuilding its own cache)
        result = program.run("run_memcmp", [8], dispatch="superblock")
        assert result.ok


# ---------------------------------------------------------------------------
# Lazy compilation
# ---------------------------------------------------------------------------
class TestLazyCompile:
    def test_golden_capture_builds_no_partition(self):
        # Golden capture runs the cached step loop; a trial that halts
        # while its window is still open single-steps to the end.
        # Neither builds a partition or compiles a trace.
        program = _program()
        scheduler = TrialScheduler(program, "run_memcmp", [16])
        assert program.image._superblock_cache is None
        result = scheduler.run_trial(_WideWindow())
        assert result == scheduler.golden
        cache = program.image._superblock_cache
        assert "traces" not in cache and "blocks" not in cache
        assert not _compiled(program)

    def test_phase_one_never_compiles(self, monkeypatch):
        # Every compile happens with the trial's fault window closed.
        program = _program()
        scheduler = TrialScheduler(program, "run_memcmp", [16])
        at_compile = []
        real = superblock.superblock_tables

        def spy(cpu, entry=None):
            hi = max(hook.fire_window[1] for hook in cpu.pre_hooks)
            at_compile.append((cpu.dyn_index, hi))
            return real(cpu, entry)

        monkeypatch.setattr(superblock, "superblock_tables", spy)
        total = scheduler.golden.instructions
        for index in range(1, total + 1, 5):
            scheduler.run_trial(InstructionSkip(index))
        assert at_compile, "no trace was ever compiled"
        assert all(index >= hi for index, hi in at_compile), at_compile
        # Only the traces some trial reached got compiled.
        table = superblock.partition_image(program.image, traces=True)
        assert 0 < len(_compiled(program)) < len(table.entries)

    def test_reference_oracle_catches_a_planted_lazy_trace_bug(
        self, monkeypatch
    ):
        # The oracle still covers compile-on-demand: charge one extra
        # cycle in the first trace a campaign compiles, and the per-trial
        # comparison against the reference interpreter must fail.
        program = _program()
        real = superblock._compile_trace
        planted = []

        def buggy(block, *args):
            function, count, worst = real(block, *args)
            if planted:
                return function, count, worst
            planted.append(block.addr)

            def charged(cpu, regs, max_cycles):
                pc = function(cpu, regs, max_cycles)
                cpu.cycles += 1
                return pc

            return charged, count, worst

        monkeypatch.setattr(superblock, "_compile_trace", buggy)
        scheduler = TrialScheduler(program, "run_memcmp", [16])
        total = scheduler.golden.instructions
        diverged = []
        for index in range(1, total + 1, 9):
            model = InstructionSkip(index)
            forked = scheduler.run_trial(model)
            oracle = _replay(program, "run_memcmp", [16], model, "reference")
            if forked != oracle:
                diverged.append((index, forked.cycles - oracle.cycles))
        assert planted, "no trace was compiled"
        assert diverged, "the reference oracle missed the planted bug"


# ---------------------------------------------------------------------------
# Deoptimisation boundaries
# ---------------------------------------------------------------------------
class TestDeoptBoundary:
    def test_fork_deopt_fire_reenter(self):
        # The canonical trial shape: fork from a checkpoint, single-step
        # while the fault window is open, fire, then re-enter compiled
        # dispatch for the suffix.  The full ExecutionResult — cycles
        # included — must equal a fresh full replay on the cached step
        # loop and the reference engine's, and the stats must show both
        # compiled blocks *and* deopt steps.  The fault cannot rejoin
        # the golden run, so the trial simulates its whole suffix.
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        stats = scheduler.stats
        model = _unrejoinable(program, scheduler.golden.instructions // 2)
        blocks0 = stats.superblock_blocks
        steps0 = stats.superblock_deopt_steps
        rejoined0 = stats.rejoined
        result = scheduler.run_trial(model)

        assert result == _replay(program, "run_memcmp", [16], model, "cached")
        reference = run_attack(
            program, "run_memcmp", [16], [model], engine="reference",
            record_trials=True,
        )
        forked = run_attack(
            program, "run_memcmp", [16], [model], record_trials=True
        )
        assert forked == reference and forked.records == reference.records
        assert stats.superblock_blocks > blocks0, "never re-entered traces"
        assert stats.superblock_deopt_steps > steps0, "never deoptimised"
        assert stats.rejoined == rejoined0

        # A mid-run skip rejoins: it single-steps to its probe and takes
        # the golden run's verdict, still equal to a full replay.
        skip = InstructionSkip(scheduler.golden.instructions // 2)
        assert scheduler.run_trial(skip) == _replay(
            program, "run_memcmp", [16], skip, "reference"
        )
        assert stats.rejoined == rejoined0 + 1

    def test_stop_past_the_window_pauses_like_the_step_loops(self):
        # The rejoin probe stops a windowed run past its window.  Every
        # dispatch pauses at the same dynamic slot (skipped ones count)
        # in the same state, and a budget reached exactly at the stop
        # times out on every one.
        program = _program()

        def run(dispatch, skip, stop, budget):
            cpu = program.prepare_cpu(
                "run_memcmp", [16], pre_hooks=[InstructionSkip(skip).hook()],
                dispatch=dispatch,
            )
            result = cpu.run(budget, stop_at_instruction=stop)
            return result, cpu.dyn_index, list(cpu.regs)

        paused_runs = 0
        for skip in (3, 40, 100, 473):
            for stop in (skip, skip + 1, skip + 30):
                paused, _, _ = run("cached", skip, stop, 2_000_000)
                budgets = [2_000_000]
                if paused.status is Status.RUNNING:  # not halted by the stop
                    paused_runs += 1
                    budgets += [paused.cycles, paused.cycles + 1]
                for budget in budgets:
                    runs = [
                        run(dispatch, skip, stop, budget)
                        for dispatch in ("reference", "cached", "superblock")
                    ]
                    assert runs[0] == runs[1] == runs[2], (skip, stop, budget)
        assert paused_runs

    def test_windowed_trial_steps_only_near_the_window(self):
        # A one-instruction window deep in the run must not force
        # stepping for the whole trial: the deopt steps for that trial
        # stay well under the golden instruction count.
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [32])
        total = scheduler.golden.instructions
        steps0 = scheduler.stats.superblock_deopt_steps
        scheduler.run_trial(InstructionSkip(total - 5))
        stepped = scheduler.stats.superblock_deopt_steps - steps0
        assert 0 < stepped < total // 2

    def test_unbounded_hook_falls_back_entirely(self):
        # RepeatedFlagFlip carries no fire window; the engine must run
        # the whole trial on the hooked step loop (no compiled blocks)
        # and still match a fresh full replay exactly.
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        model = RepeatedFlagFlip("z")
        blocks0 = scheduler.stats.superblock_blocks
        result = scheduler.run_trial(model)
        assert result == _replay(program, "run_memcmp", [16], model, "cached")
        assert scheduler.stats.superblock_blocks == blocks0

    @pytest.mark.parametrize("scheme", ["none", "ancode", "duplication"])
    def test_cycle_exact_across_trial_zoo(self, scheme):
        # Cycle accounting is part of the trial contract (timeout
        # classification depends on it): windowed and unbounded models,
        # early and late windows.
        program = _program(scheme=scheme)
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        total = scheduler.golden.instructions
        zoo = [
            InstructionSkip(1),
            InstructionSkip(total // 3),
            InstructionSkip(total),
            FlagFlip("z", 1),
            FlagFlip("c", 2),
            RepeatedFlagFlip("z"),
        ]
        for model in zoo:
            result = scheduler.run_trial(model)
            for dispatch in ("cached", "reference"):
                expected = _replay(program, "run_memcmp", [16], model, dispatch)
                assert result == expected, f"{scheme}/{model}/{dispatch}"
                assert result.cycles == expected.cycles

    def test_timeout_boundary_sweep(self):
        # Exact timeout behaviour: for every max_cycles cutoff, the
        # superblock run must stop at the same instruction with the same
        # status as the cached step loop (the back-edge budget guard and
        # the entry guard both matter here).
        program = _program(scheme="ancode")
        full = program.run("run_memcmp", [8], dispatch="cached")
        for max_cycles in range(0, full.cycles + 2, 7):
            cached = program.run("run_memcmp", [8], max_cycles, dispatch="cached")
            sblk = program.run(
                "run_memcmp", [8], max_cycles, dispatch="superblock"
            )
            assert cached == sblk, f"max_cycles={max_cycles}"


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
class TestObsCounters:
    def test_scheduler_stats_reach_the_registry(self):
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        total = scheduler.golden.instructions
        for occurrence in (1, total // 2, total):
            scheduler.run_trial(InstructionSkip(occurrence))
        profiler = EngineProfiler(MetricsRegistry())
        profiler.sample_scheduler(scheduler)
        registry = profiler.registry
        blocks = registry.counter("repro_engine_superblock_blocks_total").value
        steps = registry.counter(
            "repro_engine_superblock_deopt_steps_total"
        ).value
        assert blocks == scheduler.stats.superblock_blocks > 0
        assert steps == scheduler.stats.superblock_deopt_steps > 0

    def test_default_engine_reports_superblock_activity(self):
        # A fault that cannot rejoin runs its suffix on compiled traces;
        # a skip that rejoins single-steps to its probe and reports the
        # rejoin instead.
        program = _program()
        scheduler = TrialScheduler.for_program(program, "run_memcmp", [16])
        scheduler.run_trial(_unrejoinable(program, 3))
        assert scheduler.stats.superblock_blocks > 0
        assert scheduler.stats.superblock_deopt_steps > 0
        assert scheduler.stats.rejoined == 0
        steps = scheduler.stats.superblock_deopt_steps
        scheduler.run_trial(InstructionSkip(3))
        assert scheduler.stats.rejoined == 1
        assert scheduler.stats.superblock_deopt_steps > steps
