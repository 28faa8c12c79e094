"""Golden capture's views of the golden run, against a recording retire
hook.

``TrialScheduler`` captures the golden run on its own loop over the
reference semantics: it logs one PC per retirement, and
:class:`~repro.faults.scheduler.GoldenTrace` builds each mnemonic's hit
list from that log the first time it is asked for.  The oracle here is
the retire hook golden capture used to run, recording every retirement
of a reference run as it happens.
"""

import sys
import threading

import pytest

from repro.faults.scheduler import GoldenTrace, TrialScheduler
from repro.isa.mmio import MMIO
from repro.minic.driver import compile_source
from repro.programs import load_source
from repro.toolchain import CompileConfig


def _recorded(program, function, args):
    """A reference run with a recording retire hook: its result, each
    mnemonic's dynamic indices and code addresses, and one row (dynamic
    index, cycles, console length) per instruction that stored to
    ``CFI_CHECK``."""
    indices: dict[str, list] = {}
    addrs: dict[str, list] = {}
    checks = []
    addr_of = program.image.addr_of

    def record(cpu, instr, events):
        indices.setdefault(instr.mnemonic, []).append(cpu.dyn_index)
        addrs.setdefault(instr.mnemonic, []).append(addr_of[id(instr)])
        for event in events:
            if event.addr == MMIO.CFI_CHECK:
                checks.append((cpu.dyn_index, cpu.cycles, len(cpu.console_chars)))
                break

    cpu = program.prepare_cpu(function, args, dispatch="reference")
    cpu.retire_hooks.append(record)
    return cpu.run(10_000_000), indices, addrs, checks


@pytest.mark.parametrize("target", ["baseline", "rv32"])
@pytest.mark.parametrize("scheme", ["none", "ancode"])
def test_golden_views_equal_a_recording_retire_hook(scheme, target):
    program = compile_source(
        load_source("memcmp"), config=CompileConfig(scheme=scheme, target=target)
    )
    golden, indices, addrs, checks = _recorded(program, "run_memcmp", [32])
    scheduler = TrialScheduler(program, "run_memcmp", [32])
    trace = scheduler.trace
    assert scheduler.golden == golden

    mnemonics = {instr.mnemonic for instr in program.image.instructions}
    assert set(indices) <= mnemonics
    for mnemonic in sorted(mnemonics | {"no-such-mnemonic"}):
        hits = indices.get(mnemonic, [])
        assert list(trace.indices(mnemonic)) == hits, mnemonic
        assert [trace.nth(mnemonic, n) for n in range(len(hits) + 2)] == [
            None, *hits, None
        ], mnemonic
    branch = trace.branch_mnemonic
    assert indices[branch], "memcmp retires conditional branches"
    assert list(trace.bcc_addrs) == addrs[branch]

    retired_at = {
        index: (mnemonic, addr)
        for mnemonic in indices
        for index, addr in zip(indices[mnemonic], addrs[mnemonic])
    }
    assert sorted(retired_at) == list(range(1, golden.instructions + 1))
    for index in range(-1, golden.instructions + 3):
        assert trace.locate(index) == retired_at.get(index), index

    table = scheduler._checks
    assert checks, "memcmp passes CFI checks"
    assert list(zip(table.index, table.cycles, table.console)) == checks


def test_readers_racing_on_a_fresh_trace_get_whole_hit_lists():
    # A hit list is built on first use and published in one assignment:
    # readers racing on a fresh trace may each build it, and every one
    # gets the whole list.
    program = compile_source(
        load_source("memcmp"), config=CompileConfig(scheme="ancode")
    )
    built = TrialScheduler(program, "run_memcmp", [32]).trace
    mnemonics = ("bcc", "ldr", "str", "mul", "push", "no-such-mnemonic")
    expected = {
        m: (list(built.indices(m)), list(built._hit_list(m)[1])) for m in mnemonics
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            trace = GoldenTrace(
                built.result, built.pcs, built._image, built.branch_mnemonic
            )
            barrier = threading.Barrier(8)
            seen = []

            def read():
                barrier.wait(timeout=10)
                for m in mnemonics:
                    hits = trace._hit_list(m)
                    seen.append((m, list(hits[0]), list(hits[1])))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert len(seen) == 8 * len(mnemonics)
            for m, indices, addrs in seen:
                assert (indices, addrs) == expected[m], m
    finally:
        sys.setswitchinterval(interval)
