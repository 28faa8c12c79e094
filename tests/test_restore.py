"""One CPU state model: :meth:`CPU.restore` is exact from any state.

Every CPU of an image starts with a copy of the image's pristine memory
and marks each page it writes in ``_dirty_pages``; every snapshot holds
the dirty pages' bytes.  The contract pinned here:

* every write to memory (a store of any size, at any alignment, a
  compiled trace's store, a fault hook's poke) marks the pages it
  changes, so a page outside the dirty set holds its pristine bytes;
* a snapshot restored onto the CPU it came from, after that CPU ran on
  and dirtied pages the snapshot lacks, leaves registers, flags,
  counters, console, monitor, the dirty set and every byte of memory
  equal to a fresh CPU paused at the snapshot, and running on equals
  the uninterrupted run.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st
from test_superblock import _word_program

from repro.faults.models import MemoryBitFlip
from repro.isa.cpu import CPU, MEM_SIZE, PAGE_BITS, PAGE_SIZE, Status
from repro.isa.mmio import MMIO
from repro.minic.driver import compile_source
from repro.programs import load_source
from repro.toolchain import CompileConfig

BUDGET = 2_000_000


@lru_cache(maxsize=None)
def _workload(name):
    """``(program, function, args, dynamic slots of the whole run)``."""
    if name == "memcmp":
        config = CompileConfig(scheme="ancode")
        program = compile_source(load_source("memcmp"), config=config)
        function, args = "run_memcmp", [16]
    else:
        program, function, args = _word_program(), "f", []
    cpu = program.prepare_cpu(function, args)
    assert cpu.run(BUDGET).ok
    return program, function, args, cpu.dyn_index


def _state(cpu):
    """Everything a paused CPU's future depends on, all of memory
    included, and its counters."""
    return {
        "regs": list(cpu.regs),
        "nzcv": (cpu.n, cpu.z, cpu.c, cpu.v),
        "status": cpu.status,
        "codes": (cpu.exit_code, cpu.detect_code),
        "console": list(cpu.console_chars),
        "counts": (cpu.cycles, cpu.retired, cpu.dyn_index),
        "monitor": cpu.monitor.snapshot_state() if cpu.monitor else None,
        "dirty": set(cpu._dirty_pages),
        "memory": bytes(cpu.memory),
    }


def _changed_pages(cpu) -> set:
    """The pages whose bytes differ from the image's pristine memory."""
    memory, pristine = cpu.memory, cpu.image._pristine
    return {
        page
        for page in range(-(-len(memory) // PAGE_SIZE))
        if memory[page << PAGE_BITS : (page + 1) << PAGE_BITS]
        != pristine[page << PAGE_BITS : (page + 1) << PAGE_BITS]
    }


def test_restore_scrubs_a_page_dirtied_after_the_snapshot():
    # Snapshot before the loop stores its first sum, run to the end, and
    # restore onto the same CPU: the sum's page goes back to its
    # pristine bytes and leaves the dirty set.
    program = _word_program()
    page = (program.image.data_addrs["buf"] + 4) >> PAGE_BITS
    cpu = program.prepare_cpu("f")
    cpu.run(BUDGET, stop_at_instruction=2)
    snap = cpu.snapshot()
    assert snap.pages == {}
    assert cpu.run(BUDGET).exit_code == 24 * 0x01020304
    assert page in cpu._dirty_pages
    cpu.restore(snap)
    assert cpu._dirty_pages == set()
    assert cpu.memory == program.prepare_cpu("f").memory
    assert cpu.run(BUDGET).exit_code == 24 * 0x01020304


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_restore_onto_the_cpu_that_ran_on_is_exact(data):
    # Stops a < b: snapshot at a, run on to b or to the end (optionally
    # with a bit flipped on a page no store touches, or in the buffer a
    # trace reads), and restore onto the same CPU.
    name = data.draw(st.sampled_from(["memcmp", "word"]))
    program, function, args, total = _workload(name)
    dispatch = data.draw(st.sampled_from(["superblock", "reference"]))
    a = data.draw(st.integers(0, total - 1))
    b = data.draw(st.one_of(st.none(), st.integers(a + 1, total)))
    cpu = program.prepare_cpu(function, args, dispatch=dispatch)
    cpu.run(BUDGET, stop_at_instruction=a)
    snap = cpu.snapshot()
    if data.draw(st.booleans()):
        buffer = program.image.data_addrs["cmp_b" if name == "memcmp" else "buf"]
        addr = data.draw(st.sampled_from([buffer + 1, 700 * PAGE_SIZE + 3]))
        cpu.pre_hooks.append(
            MemoryBitFlip(addr, 4, data.draw(st.integers(a + 1, b or total))).hook()
        )
    cpu.run(BUDGET, stop_at_instruction=b)
    assert _changed_pages(cpu) <= cpu._dirty_pages
    cpu.pre_hooks.clear()
    cpu.restore(snap)
    fresh = program.prepare_cpu(function, args, dispatch=dispatch)
    fresh.run(BUDGET, stop_at_instruction=a)
    assert _state(cpu) == _state(fresh), (name, dispatch, a, b)
    whole = program.prepare_cpu(function, args, dispatch=dispatch)
    assert cpu.run(BUDGET) == whole.run(BUDGET)
    assert _state(cpu) == _state(whole)


@given(
    stores=st.lists(
        st.tuples(
            st.sampled_from([1, 2, 4]),
            st.one_of(
                # straddling a page boundary, or at the end of RAM
                st.builds(lambda p, d: p * PAGE_SIZE - d,
                          st.integers(1, 8), st.integers(0, 3)),
                st.integers(MEM_SIZE - 6, MEM_SIZE + 2),
                st.integers(MMIO.BASE, MMIO.BASE + 8),
                st.integers(0, 16 * PAGE_SIZE),
            ),
            st.integers(0, 0xFFFFFFFF),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_every_store_marks_the_pages_it_changes(stores):
    # Bytes, halfwords and words at any alignment, across page
    # boundaries, at the end of RAM and in MMIO: every page a store
    # changed is dirty, and a snapshot of the CPU restored onto a fresh
    # one reproduces all of memory.
    program = _word_program()
    cpu = CPU(program.image)
    for size, addr, value in stores:
        cpu.status = Status.RUNNING
        cpu.store(addr, value, size)
    assert _changed_pages(cpu) <= cpu._dirty_pages
    fresh = CPU(program.image)
    fresh.restore(cpu.snapshot())
    assert fresh.memory == cpu.memory
