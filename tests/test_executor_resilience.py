"""Regression tests: the campaign executor survives worker crashes.

A fault model whose hook kills the worker process (the moral equivalent
of a segfault in a native simulator) used to surface as a raw
``BrokenProcessPool`` with no hint of which trial was responsible, and
left the executor holding a dead pool.  Now it raises
:class:`~repro.toolchain.executor.CampaignExecutorError` naming the
failing batch's fault model, and the executor recovers: the next
``run_attack`` builds a fresh pool.
"""

import os
import signal
from dataclasses import dataclass

import pytest

from repro.faults.isa_campaign import run_attack
from repro.faults.models import FaultModel, InstructionSkip
from repro.minic.driver import compile_source
from repro.programs import load_source
from repro.toolchain import CampaignExecutor, CampaignExecutorError, CompileConfig


@dataclass(frozen=True)
class KillWorker(FaultModel):
    """A 'fault model' that takes the whole worker process down."""

    occurrence: int = 1

    def hook(self):
        def pre(cpu, instr) -> bool:
            if cpu.dyn_index == self.occurrence:
                os.kill(os.getpid(), signal.SIGKILL)
            return False

        return pre

    def first_fire_index(self, trace):
        return self.occurrence


@pytest.fixture(scope="module")
def program():
    return compile_source(
        load_source("integer_compare"), config=CompileConfig(scheme="ancode")
    )


def test_worker_crash_raises_campaign_executor_error(program):
    models = [InstructionSkip(i) for i in range(1, 9)] + [KillWorker()]
    with CampaignExecutor(max_workers=2) as executor:
        with pytest.raises(CampaignExecutorError) as excinfo:
            executor.run_attack(
                program, "integer_compare", [7, 7], models, "crashy"
            )
        message = str(excinfo.value)
        assert "KillWorker" in message
        assert "crashy" in message
        assert any(
            isinstance(model, KillWorker) for model in excinfo.value.fault_models
        )

        # The broken pool was dropped: the same executor runs clean
        # campaigns again without being reconstructed.
        clean = [InstructionSkip(i) for i in range(1, 9)]
        serial = run_attack(program, "integer_compare", [7, 7], clean, "skip")
        parallel = executor.run_attack(
            program, "integer_compare", [7, 7], clean, "skip"
        )
        assert (serial.outcomes, serial.trials, serial.wrong_codes) == (
            parallel.outcomes,
            parallel.trials,
            parallel.wrong_codes,
        )


def test_close_is_idempotent(program):
    executor = CampaignExecutor(max_workers=1)
    executor.run_attack(
        program, "integer_compare", [7, 7], [InstructionSkip(1)], "skip"
    )
    executor.close()
    executor.close()  # second close must be a no-op
    with executor:  # __exit__ closes a third time
        pass


def test_on_batch_progress_callback(program):
    models = [InstructionSkip(i) for i in range(1, 17)]
    seen = []
    with CampaignExecutor(max_workers=2) as executor:
        executor.on_batch = lambda done, total, trials, trial_count: seen.append(
            (done, total, trials, trial_count)
        )
        result = executor.run_attack(
            program, "integer_compare", [7, 7], models, "skip"
        )
    assert result.trials == len(models)
    assert seen, "on_batch never fired"
    dones, totals, trials, counts = zip(*seen)
    assert dones == tuple(range(1, len(seen) + 1))
    assert set(totals) == {len(seen)}
    assert trials[-1] == len(models) and set(counts) == {len(models)}
