"""Cross-target conformance kit: every registered target must pass it.

The checks themselves live in :mod:`repro.target.conformance` so
third-party targets can run the identical kit (``run_conformance``)
outside pytest; this file parametrises them over the bundled targets —
``baseline`` and ``rv32`` — and proves the kit *fails loudly* by
registering deliberately-broken toy targets and asserting each one is
rejected with a :class:`~repro.target.conformance.ConformanceError`
naming the target and the violated contract.
"""

import pytest

from repro.isa import instructions as ins
from repro.target import (
    BaselineTarget,
    DuplicateTargetError,
    Target,
    UnknownTargetError,
    get_target,
    list_targets,
    register_target,
    unregister_target,
)
from repro.target.conformance import (
    ALL_CHECKS,
    ConformanceError,
    run_conformance,
)

BUNDLED = ("baseline", "rv32")


# ---------------------------------------------------------------------------
# The kit, check by check, on every bundled target.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("check_name", list(ALL_CHECKS))
@pytest.mark.parametrize("target_name", BUNDLED)
def test_conformance_check(target_name, check_name):
    ALL_CHECKS[check_name](get_target(target_name))


@pytest.mark.parametrize("target_name", BUNDLED)
def test_run_conformance_covers_every_check(target_name):
    assert run_conformance(get_target(target_name)) == list(ALL_CHECKS)


def test_bundled_targets_registered():
    names = list_targets()
    for name in BUNDLED:
        assert name in names


# ---------------------------------------------------------------------------
# Registry contract.
# ---------------------------------------------------------------------------
def test_unknown_target_lookup_raises():
    with pytest.raises(UnknownTargetError, match="no-such-target"):
        get_target("no-such-target")


def test_duplicate_registration_raises():
    with pytest.raises(DuplicateTargetError, match="baseline"):
        register_target(BaselineTarget())


def test_unregister_unknown_raises():
    with pytest.raises(UnknownTargetError):
        unregister_target("never-registered")


def test_malformed_target_rejected_at_registration():
    class NamelessTarget(Target):
        name = ""

    with pytest.raises(ValueError, match="non-empty"):
        register_target(NamelessTarget())


# ---------------------------------------------------------------------------
# Broken toy targets: the kit must reject each loudly, naming the target
# and the violated contract.  Each toy breaks exactly one contract and is
# otherwise a faithful baseline clone, so the failure is attributable.
# ---------------------------------------------------------------------------
class _LyingWidthTarget(BaselineTarget):
    name = "toy-lying-width"
    label = "broken: width outside advertised set"

    def width(self, instr):
        return 3  # not in widths=(2, 4)


class _NegativeCycleTarget(BaselineTarget):
    name = "toy-negative-cycles"
    label = "broken: negative ALU charge"

    def cycle_model(self):
        model = super().cycle_model()
        model.alu = lambda: -1
        return model


class _WrongSnapshotTarget(BaselineTarget):
    name = "toy-wrong-snapshot"
    label = "broken: advertises a snapshot schema its CPUs don't produce"
    snapshot_version = 99


class _NoSamplesTarget(BaselineTarget):
    name = "toy-no-samples"
    label = "broken: empty roundtrip sample set"

    def sample_instructions(self):
        return []


class _Crc32(ins.Instr):
    """An instruction class the simulator has no semantics for."""

    mnemonic = "crc32"

    def text(self) -> str:
        return "crc32 r0, r0, r1"


class _UnknownInstructionTarget(BaselineTarget):
    name = "toy-unknown-instruction"
    label = "broken: emits an instruction class without reference semantics"

    def width(self, instr):
        return 4 if type(instr) is _Crc32 else super().width(instr)

    def sample_instructions(self):
        return super().sample_instructions() + [_Crc32()]


_BROKEN = {
    _LyingWidthTarget: "encoding",
    _NegativeCycleTarget: "cycle-model",
    _WrongSnapshotTarget: "snapshot",
    _NoSamplesTarget: "encoding",
    _UnknownInstructionTarget: "decode",
}


@pytest.fixture
def registered(request):
    """Register a toy target for one test, always unregister after."""

    def _register(target):
        register_target(target)
        request.addfinalizer(lambda: unregister_target(target.name))
        return target

    return _register


@pytest.mark.parametrize(
    "cls", list(_BROKEN), ids=lambda cls: cls.name.removeprefix("toy-")
)
def test_broken_target_fails_loudly(registered, cls):
    target = registered(cls())
    with pytest.raises(ConformanceError) as excinfo:
        run_conformance(target)
    message = str(excinfo.value)
    assert target.name in message, "failure must name the target"
    assert _BROKEN[cls] in message, "failure must name the violated contract"


def test_broken_target_does_not_taint_registry(registered):
    """After a failed kit run the bundled targets still conform."""
    target = registered(_NegativeCycleTarget())
    with pytest.raises(ConformanceError):
        run_conformance(target)
    assert run_conformance(get_target("baseline")) == list(ALL_CHECKS)
