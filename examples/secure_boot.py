"""Secure bootloader end-to-end (the paper's macro-benchmark).

Builds and signs a firmware image host-side (SHA-256 + ECDSA on the TOY20
curve), compiles the device bootloader (MiniC: SHA-256, ECDSA verify, and
a *protected* boot decision), then:

1. boots a genuine image,
2. rejects a tampered image,
3. shows a branch-flip fault on the boot decision being caught by the CFI
   monitor instead of booting unauthenticated code (the Section I story).

Run:  python examples/secure_boot.py   (about a minute: full crypto on a
cycle-accurate simulator)
"""

from repro.backend import compile_ir
from repro.crypto import build_signed_image
from repro.crypto.image import (
    BOOT_OK,
    BOOT_REJECT,
    bootloader_params,
    prepare_bootloader_module,
)
from repro.faults.models import BranchDirectionFlip
from repro.toolchain import CompileConfig

FIRMWARE = b"FIRMWARE v2.1 " * 9  # 126 bytes of "code"

#: The paper's prototype, with parameters sized for the bootloader's
#: 20-bit signature words.  (No module_name: compile_ir consumes an
#: already-built module, whose name prepare_bootloader_module set.)
BOOT_CONFIG = CompileConfig.paper(params=bootloader_params())


def compile_boot(image, tamper=None):
    module = prepare_bootloader_module(image, tamper=tamper)
    return compile_ir(module, config=BOOT_CONFIG)


def main() -> None:
    image = build_signed_image(FIRMWARE)
    r, s = image.signature
    print(f"signed {len(FIRMWARE)}-byte firmware on curve {image.keypair.curve.name}")
    print(f"  signature r={r}, s={s}")

    # --- genuine image boots -------------------------------------------------
    program = compile_boot(image)
    result = program.run("bootloader_main", [], max_cycles=60_000_000)
    print(f"\ngenuine image:  exit={result.exit_code:#x} "
          f"({result.cycles} cycles, {result.instructions} instructions)")
    assert result.exit_code == BOOT_OK

    # --- tampered image rejected ---------------------------------------------
    evil = bytearray(FIRMWARE)
    evil[3] ^= 0x01  # one flipped bit in the firmware
    tampered = compile_boot(image, tamper=bytes(evil))
    result = tampered.run("bootloader_main", [], max_cycles=60_000_000)
    print(f"tampered image: exit={result.exit_code:#x}")
    assert result.exit_code == BOOT_REJECT

    # --- fault attack on the boot decision ---------------------------------
    # The trial scheduler's golden run counts the conditional branches;
    # flip the last one (the protected v == r decision) and the one before.
    # Each trial forks from a checkpoint near its fault and runs on traces.
    scheduler = tampered.trial_scheduler("bootloader_main", [])
    last_branch = len(scheduler.trace.indices("bcc"))

    for occurrence in (last_branch, last_branch - 1):
        attacked = scheduler.run_trial(
            BranchDirectionFlip(occurrence), max_cycles=60_000_000
        )
        print(
            f"branch-flip at conditional #{occurrence}: {attacked.status.value}"
            + (f" exit={attacked.exit_code:#x}" if attacked.status.value == "exit" else "")
        )
        assert attacked.exit_code != BOOT_OK or attacked.status.value != "exit", (
            "unauthenticated code must never boot"
        )
    print("\nno unauthenticated boot: flipped decisions leave the CFI state wrong.")


if __name__ == "__main__":
    main()
